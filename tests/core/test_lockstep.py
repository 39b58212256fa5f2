"""Lockstep growth and batched split search against the per-node oracle.

The grower must reproduce the per-node search float for float: trees
node by node, cross-validated SSE vectors byte for byte, and the same
bytes whether folds run in lockstep, one per ``fit()``, or fanned out
over worker processes.  Hypothesis draws dense and CSR datasets with
tied values, constant CPI and all-zero columns; small ``BATCH_TRIPLETS``
caps force nodes above the cap to be scored beside small ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import regression_tree
from repro.core.config import AnalysisConfig
from repro.core.cross_validation import cross_validated_sse, relative_error_curve
from repro.core.regression_tree import (FeatureStore, RegressionTreeSequence,
                                        grow_lockstep)
from repro.runtime import pool as pool_mod
from repro.runtime.folds import dataset_token, run_parallel_folds
from repro.sparse import CSRMatrix
from tests.core.test_regression_tree import tree_signature
from tests.core.tree_oracle import (OracleTreeSequence,
                                    oracle_cross_validated_sse)


@st.composite
def datasets(draw, max_rows=60, max_cols=12):
    """(matrix, y): few distinct counts (ties), some all-zero columns,
    and CPI that is continuous, coarsely rounded or constant."""
    m = draw(st.integers(4, max_rows))
    n = draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.05, 0.3, 0.6, 1.0]))
    levels = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = ((rng.random((m, n)) < density)
              * rng.integers(1, levels + 1, (m, n))).astype(float)
    matrix[:, rng.random(n) < 0.25] = 0.0
    kind = draw(st.sampled_from(["continuous", "rounded", "constant"]))
    if kind == "constant":
        y = np.full(m, 1.75)
    else:
        y = rng.random(m) * 3
        if kind == "rounded":
            y = np.round(y, 1)
    if draw(st.booleans()):
        matrix = CSRMatrix.from_dense(matrix)
    return matrix, y


caps = st.sampled_from([1, 24, regression_tree.BATCH_TRIPLETS])


def _with_cap(monkeypatch, cap):
    monkeypatch.setattr(regression_tree, "BATCH_TRIPLETS", cap)


@settings(max_examples=120, deadline=None)
@given(data=datasets(), k_max=st.integers(1, 60), min_leaf=st.integers(1, 4),
       cap=caps)
def test_fit_matches_oracle_node_by_node(data, k_max, min_leaf, cap):
    matrix, y = data
    with pytest.MonkeyPatch.context() as monkeypatch:
        _with_cap(monkeypatch, cap)
        tree = RegressionTreeSequence(k_max=k_max,
                                      min_leaf=min_leaf).fit(matrix, y)
    oracle = OracleTreeSequence(k_max=k_max, min_leaf=min_leaf).fit(matrix, y)
    assert tree.n_splits == oracle.n_splits
    assert tree_signature(tree) == tree_signature(oracle)


@settings(max_examples=120, deadline=None)
@given(data=datasets(), k_max=st.integers(1, 60), folds=st.integers(2, 10),
       min_leaf=st.integers(1, 4), seed=st.integers(0, 2**31), cap=caps)
def test_cv_sse_bytes_match_oracle(data, k_max, folds, min_leaf, seed, cap):
    matrix, y = data
    folds = min(folds, len(y))
    config = AnalysisConfig(k_max=k_max, folds=folds, seed=seed,
                            min_leaf=min_leaf)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _with_cap(monkeypatch, cap)
        sse = cross_validated_sse(matrix, y, config=config, jobs=1)
    expected = oracle_cross_validated_sse(matrix, y, k_max=k_max,
                                          folds=folds, seed=seed,
                                          min_leaf=min_leaf)
    assert sse.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=datasets(), k_max=st.integers(1, 30), folds=st.integers(2, 10),
       seed=st.integers(0, 2**31))
def test_re_curve_and_k_opt_match_oracle(data, k_max, folds, seed):
    matrix, y = data
    folds = min(folds, len(y))
    curve = relative_error_curve(
        matrix, y, config=AnalysisConfig(k_max=k_max, folds=folds,
                                         seed=seed), jobs=1)
    expected_sse = oracle_cross_validated_sse(matrix, y, k_max=k_max,
                                              folds=folds, seed=seed)
    baseline = float(np.var(y)) * len(y)
    expected = (expected_sse / baseline if baseline > 0
                else np.zeros(k_max))
    assert curve.re.tobytes() == expected.tobytes()
    re_min = expected.min()
    assert curve.k_opt == int(np.nonzero(expected <= re_min + 0.005)[0][0]) + 1


@settings(max_examples=40, deadline=None)
@given(data=datasets(), k_max=st.integers(1, 40), folds=st.integers(2, 6),
       min_leaf=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_lockstep_folds_equal_independent_fits(data, k_max, folds, min_leaf,
                                               seed):
    """Each lockstep tree equals ``fit()`` on that fold's rows alone
    (rows compared as dataset row ids)."""
    matrix, y = data
    rng = np.random.default_rng(seed)
    row_sets = [np.sort(rng.choice(len(y), size=rng.integers(1, len(y) + 1),
                                   replace=False))
                for _ in range(folds)]
    dense = matrix.toarray() if isinstance(matrix, CSRMatrix) else matrix
    trees = grow_lockstep(FeatureStore(matrix), y, row_sets, k_max=k_max,
                          min_leaf=min_leaf)
    for tree, rows in zip(trees, row_sets):
        alone = RegressionTreeSequence(k_max=k_max, min_leaf=min_leaf).fit(
            dense[rows], y[rows])
        lockstep = [(*entry[:-1], rows[entry[-1]].tolist())
                    for entry in tree_signature(alone)]
        assert tree_signature(tree) == lockstep


def _wide_sparse(m, per_row, n, seed=5):
    """A CSR dataset whose fold roots each exceed the batch cap."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(m), per_row)
    cols = rng.integers(0, n, len(rows))
    matrix = CSRMatrix.from_codes(rows, cols, (m, n))
    y = 1.0 + (matrix.toarray()[:, :3].sum(axis=1) > 12) + rng.normal(
        0, 0.05, m)
    return matrix, y


def test_node_above_batch_cap_beside_small_nodes():
    """At the default cap: big fold roots run alone, their children batch
    with small nodes — still byte-identical to the oracle."""
    matrix, y = _wide_sparse(m=520, per_row=60, n=300)
    triplets_per_root = matrix.nnz * 3 // 4
    assert triplets_per_root > regression_tree.BATCH_TRIPLETS
    config = AnalysisConfig(k_max=12, folds=4, seed=9)
    sse = cross_validated_sse(matrix, y, config=config, jobs=1)
    expected = oracle_cross_validated_sse(matrix, y, k_max=12, folds=4,
                                          seed=9)
    assert sse.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sparse", [False, True])
def test_parallel_folds_bytes_equal_serial_lockstep(sparse):
    rng = np.random.default_rng(21)
    matrix = ((rng.random((70, 15)) < 0.35)
              * rng.integers(1, 5, (70, 15))).astype(float)
    y = np.round(rng.random(70) * 2, 2)
    if sparse:
        matrix = CSRMatrix.from_dense(matrix)
    config = AnalysisConfig(k_max=25, folds=7, seed=4, min_leaf=2)
    serial = cross_validated_sse(matrix, y, config=config, jobs=1)
    try:
        parallel = run_parallel_folds(matrix, y, config, jobs=2)
    finally:
        # Drop the cached shm arena so later tests see no live segments.
        pool_mod.arena_cache().evict(dataset_token(matrix, y))
    assert parallel.tobytes() == serial.tobytes()
    assert serial.tobytes() == oracle_cross_validated_sse(
        matrix, y, k_max=25, folds=7, seed=4, min_leaf=2).tobytes()


def test_rejects_mismatched_and_empty_inputs():
    store = FeatureStore(np.ones((4, 2)))
    with pytest.raises(ValueError, match="must match"):
        grow_lockstep(store, np.ones(3), [np.arange(3)])
    with pytest.raises(ValueError, match="empty"):
        grow_lockstep(store, np.ones(4), [np.arange(4), np.array([], int)])
