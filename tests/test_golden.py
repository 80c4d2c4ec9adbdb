"""Golden trajectory: a short default-shaped run must reproduce pinned bytes.

Criterion 8 shows that two runs of one build agree; this test shows that a
build still produces the bytes an earlier build did. A refactor that is
meant to keep behaviour must leave the digests alone. Changing them is a
deliberate act, and the change that does so says why in CHANGES.md.
The digests were taken with numpy 2.4.6 on x86-64 with numpy's X86_V4
(AVX-512) dispatch and OpenBLAS's SkylakeX core, and hold only for those
kernels. numpy's AVX2 path gives other bits from ``np.exp`` and ``np.log``,
and other OpenBLAS cores (Haswell, Zen, Sandybridge, Prescott) give other
bits for some matmul shapes, so on such a host the history and embeddings
digests differ (the checkpoint digest too, since it holds the trained
weights; the cohort digest may, since the generator calls ``np.sin``).
``np.show_runtime()`` prints numpy's SIMD dispatch, and the OpenBLAS core
only where threadpoolctl is installed; CI logs both before the tests,
reading the core from numpy's bundled OpenBLAS.
"""

from __future__ import annotations

import hashlib

from ordproto import cli
from ordproto.data import GenConfig, generate, save_dataset
from ordproto.encoder import save_checkpoint
from ordproto.prototypes import save_store
from ordproto.trainer import TrainConfig, train

HISTORY_SHA256 = "ee3126b86bb7b0eac1c52fec419920439eb2c5daf71e840f99894b5ae368619b"
STORE_SHA256 = "ace4843670ef3774c070fb0624626ba8b93b132039066af4a0d76ae8ee1cfb10"
# Inference outputs of the same run's artifacts on a held-out cohort.
EMBEDDINGS_SHA256 = "992cf3fdb69d32ed520d6c86fe0d8d3b1a7d67c3f42a83f5b50a0c34b71f9236"
EVAL_SHA256 = "b2735e70f66d5b7378b8f3956bb9193c89324d84982afd5af21c54a6033767da"
# The checkpoint those inference runs read.
CHECKPOINT_SHA256 = "7e0ab425ed2cf58f11a09c667aa02186fab7fbb76a958cc0d2a9b7031279ab99"
# The held-out cohort they score, as ``save_dataset`` writes it.
COHORT_SHA256 = "dc3fad8e7500fe58aae301e19f6b277a48555fba7ee5635dde07a9f3d9ed6796"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_two_epoch_run_matches_pinned_digests(tmp_path):
    dataset = generate(GenConfig(), 0)
    result = train(TrainConfig(epochs=2, seeds=(1,)), dataset.training_view(), 1)
    result.history.write_csv(tmp_path / "history.csv")
    save_store(result.store, tmp_path / "store.json")
    assert _sha256(tmp_path / "history.csv") == HISTORY_SHA256
    assert _sha256(tmp_path / "store.json") == STORE_SHA256


def test_two_epoch_inference_matches_pinned_digests(tmp_path):
    result = train(TrainConfig(epochs=2, seeds=(1,)), generate(GenConfig(), 0).training_view(), 1)
    save_checkpoint(result.encoder, result.head, tmp_path / "checkpoint.json", 1, 2)
    save_store(result.store, tmp_path / "store.json")
    assert _sha256(tmp_path / "checkpoint.json") == CHECKPOINT_SHA256
    save_dataset(generate(GenConfig(), 1), tmp_path / "cohort.csv")
    assert _sha256(tmp_path / "cohort.csv") == COHORT_SHA256
    artifacts = [
        "--checkpoint", str(tmp_path / "checkpoint.json"),
        "--store", str(tmp_path / "store.json"),
        "--data", str(tmp_path / "cohort.csv"),
    ]
    assert cli.main(["export-embeddings", *artifacts, "--out", str(tmp_path / "emb.csv")]) == 0
    assert cli.main(["eval", *artifacts, "--out", str(tmp_path / "metrics.json")]) == 0
    assert _sha256(tmp_path / "emb.csv") == EMBEDDINGS_SHA256
    assert _sha256(tmp_path / "metrics.json") == EVAL_SHA256
