"""Ordinal prototype learning.

Trains a small encoder so that feature-space geometry follows an ordered
label progression, tracks anchor-class prototypes with an EMA, and
classifies held-out middle-class samples by comparing their features to
the two anchors.

The names below validate their input or serve the CLI; the training
loop's kernels trust their caller and stay in their modules.
"""

from .config import GenConfig, TrainConfig
from .data import (
    SyntheticOrdinalDataset,
    TrainingSet,
    generate,
    load_dataset,
    save_dataset,
)
from .encoder import EncoderParams, encode, load_checkpoint, save_checkpoint
from .evaluation import binary_metrics, spearman
from .prototypes import (
    PROGRESSIVE,
    STABLE,
    GlobalPrototypeStore,
    load_store,
    progression_scores,
    save_store,
)
from .trainer import (
    TrainResult,
    ablation_config,
    cross_validate,
    evaluate_on,
    run_seeds,
    train,
)

__version__ = "0.1.0"
