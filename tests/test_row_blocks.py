"""Whole-cohort scoring in row blocks, against the whole-array oracles.

``encode`` runs its layers over blocks of ``ENCODE_BLOCK_ROWS`` rows into
one output array, and ``anchor_cosines`` takes its row sums over blocks of
``COSINE_BLOCK_ROWS`` rows. Both must give the bits of ``reference_encode``
and ``reference_anchor_cosines``, which work on the whole array at once,
and their errors, a bad row named by its index in the call. tracemalloc
bounds what a whole-cohort call holds beside its input.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import reference_anchor_cosines, reference_encode
from ordproto.config import GenConfig, TrainConfig
from ordproto.data import generate
from ordproto.encoder import ENCODE_BLOCK_ROWS, encode, init_params
from ordproto.errors import OrdprotoError
from ordproto.prototypes import COSINE_BLOCK_ROWS, anchor_cosines
from ordproto.trainer import evaluate_on, train


@pytest.fixture(scope="module")
def model():
    """A one-epoch run's encoder and store, and an 8,000-row cohort."""
    result = train(TrainConfig(epochs=1, seeds=(1,)), generate(GenConfig(), 0).training_view(), 1)
    cohort = generate(GenConfig(class_counts=(2000, 4000, 2000)), 7)
    return result.encoder, result.store, cohort


def _outcome(fn, *args):
    """The arrays ``fn`` returns, as bytes, or its error's class and message."""
    try:
        out = fn(*args)
    except OrdprotoError as exc:
        return type(exc), str(exc)
    return [a.tobytes() for a in (out if isinstance(out, tuple) else (out,))]


def _sizes(block: int) -> list[int]:
    return [block - 1, block, block + 1, 3 * block + 7]


@pytest.mark.parametrize("rows", _sizes(ENCODE_BLOCK_ROWS) + [8000])
def test_encode_equals_the_whole_array_oracle(model, rows):
    enc, _, cohort = model
    x = cohort.x[:rows]
    assert _outcome(encode, enc, x) == _outcome(reference_encode, enc, x)


@pytest.mark.parametrize("rows", _sizes(COSINE_BLOCK_ROWS) + [8000])
def test_anchor_cosines_equal_the_whole_array_oracle(model, rows):
    enc, store, cohort = model
    z = reference_encode(enc, cohort.x[:rows])
    assert _outcome(anchor_cosines, z, store) == _outcome(reference_anchor_cosines, z, store)


@pytest.mark.parametrize("dims", [[16, 32], [16, 64, 64, 32], [5, 7, 3, 9, 4]])
def test_encode_equals_the_oracle_at_any_depth(dims):
    # No hidden layer, two, and three (the scratch blocks are used in turn).
    rng = np.random.default_rng(sum(dims))
    enc, _ = init_params(dims, 3, 0)
    for layer in enc.layers:
        layer.bias[...] = rng.standard_normal(layer.bias.shape)
    x = rng.standard_normal((3 * ENCODE_BLOCK_ROWS + 7, dims[0]))
    assert _outcome(encode, enc, x) == _outcome(reference_encode, enc, x)


def test_a_bad_input_row_in_a_later_block_is_refused(model):
    enc, _, cohort = model
    x = cohort.x[: 3 * ENCODE_BLOCK_ROWS + 7].copy()
    x[2 * ENCODE_BLOCK_ROWS + 5, 3] = np.nan
    got = _outcome(encode, enc, x)
    assert got == _outcome(reference_encode, enc, x)
    assert got[1] == "inputs contain NaN or Inf entries"


@pytest.mark.parametrize(
    "fault, message",
    [
        (np.nan, "contains NaN or Inf entries"),
        (-np.inf, "contains NaN or Inf entries"),
        (1e200, "has a norm that overflows"),
        (0.0, "has (near-)zero norm"),
    ],
)
def test_a_bad_feature_row_in_a_later_block_is_named_by_its_row_in_the_call(
    model, fault, message
):
    enc, store, cohort = model
    z = reference_encode(enc, cohort.x[: 3 * COSINE_BLOCK_ROWS + 7])
    row = 2 * COSINE_BLOCK_ROWS + 5
    z[row] = fault
    got = _outcome(anchor_cosines, z, store)
    assert got == _outcome(reference_anchor_cosines, z, store)
    assert got[1] == f"features row {row} {message}"


def test_a_later_non_finite_row_comes_before_an_earlier_zero_row(model):
    # As in the oracle, every row's finiteness is checked before any row's norm.
    enc, store, cohort = model
    z = reference_encode(enc, cohort.x[: 3 * COSINE_BLOCK_ROWS + 7])
    z[3] = 0.0
    z[2 * COSINE_BLOCK_ROWS + 1, 0] = np.inf
    got = _outcome(anchor_cosines, z, store)
    assert got == _outcome(reference_anchor_cosines, z, store)
    assert got[1] == f"features row {2 * COSINE_BLOCK_ROWS + 1} contains NaN or Inf entries"


def _traced_peak(fn, *args) -> tuple[object, int]:
    """``fn(*args)`` and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_of_a_cohort_holds_its_output_and_one_block(model):
    enc, _, cohort = model
    z, peak = _traced_peak(encode, enc, cohort.x)
    # One block's layers: a block of rows at every layer's width. Whole-cohort
    # layers (8,000 x 64 float64, 4.1 MB each, two alive at once) exceed it.
    block = ENCODE_BLOCK_ROWS * sum(layer.weight.shape[1] for layer in enc.layers) * 8
    assert peak <= z.nbytes + block, (peak, z.nbytes, block)


def test_evaluate_on_of_a_cohort_holds_its_features_and_1_5_megabytes(model):
    enc, store, cohort = model
    # Beside the cohort's features (2.05 MB): two blocks of a hidden layer
    # (1.05 MB) while encoding, then the cosines' sums and one block's
    # products. Two whole-cohort hidden layers alone take 8.2 MB.
    _, peak = _traced_peak(evaluate_on, enc, store, cohort)
    assert peak <= cohort.size * enc.feature_dim * 8 + 1_500_000, peak
