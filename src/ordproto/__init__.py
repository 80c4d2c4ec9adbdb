"""Ordinal prototype learning.

Trains a small encoder so that feature-space geometry follows an ordered
label progression, tracks anchor-class prototypes with an EMA, and
classifies held-out middle-class samples by comparing their features to
the two anchors.
"""

from .data import (
    GenConfig,
    SyntheticOrdinalDataset,
    TrainingSet,
    generate,
    kfold_split,
    load_dataset,
    save_dataset,
    stratified_batches,
)
from .encoder import (
    AdamState,
    EncoderParams,
    HeadParams,
    adam_step,
    backward,
    buffer,
    encode,
    forward,
    init_adam,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import binary_metrics, mann_whitney_one_sided, spearman
from .losses import (
    LocalPrototypes,
    cross_entropy_loss,
    hybrid_ordinal_loss,
    label_similarity,
    local_prototypes,
)
from .prototypes import (
    PROGRESSIVE,
    STABLE,
    GlobalPrototypeStore,
    ema_update,
    load_store,
    progression_scores,
    save_store,
)
from .trainer import (
    TrainConfig,
    TrainResult,
    ablation_config,
    cross_validate,
    evaluate_on,
    run_seeds,
    train,
)

__version__ = "0.1.0"
