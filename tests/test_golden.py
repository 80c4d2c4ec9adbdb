"""Golden trajectory: a short default-shaped run must reproduce pinned bytes.

Criterion 8 shows that two runs of one build agree; this test shows that a
build still produces the bytes an earlier build did. A refactor that is
meant to keep behaviour must leave both digests alone. Changing them is a
deliberate act, and the change that does so says why in CHANGES.md.
The digests were taken with numpy's default float64 kernels on x86-64.
"""

from __future__ import annotations

import hashlib

from ordproto.data import GenConfig, generate
from ordproto.prototypes import save_store
from ordproto.trainer import TrainConfig, train

HISTORY_SHA256 = "ee3126b86bb7b0eac1c52fec419920439eb2c5daf71e840f99894b5ae368619b"
STORE_SHA256 = "ace4843670ef3774c070fb0624626ba8b93b132039066af4a0d76ae8ee1cfb10"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_two_epoch_run_matches_pinned_digests(tmp_path):
    dataset = generate(GenConfig(), 0)
    result = train(TrainConfig(epochs=2, seeds=(1,)), dataset.training_view(), 1)
    result.history.write_csv(tmp_path / "history.csv")
    save_store(result.store, tmp_path / "store.json")
    assert _sha256(tmp_path / "history.csv") == HISTORY_SHA256
    assert _sha256(tmp_path / "store.json") == STORE_SHA256
