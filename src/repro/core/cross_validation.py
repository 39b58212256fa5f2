"""Ten-fold cross-validation of the regression-tree family (Section 4.4).

For each fold, a tree family is built on 90% of the (EIPV, CPI) points;
every held-out EIPV is dropped into each T_k's chambers and its CPI
predicted as the chamber mean.  Summing squared errors across folds gives
E_k; dividing by the total CPI variance gives the relative error curve

    RE_k = E_k / E .

``RE_k`` near 0 means EIPVs explain CPI; near (or above!) 1 means they do
not — a complex model can generalize *worse* than the global mean, which is
exactly what the paper observes for ODB-C.

The asymptote ``RE_inf`` is the paper's upper bound on predictability; we
follow the paper in reporting ``k_opt``, the smallest k whose RE is within
0.5% (absolute) of the best achievable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import UNSET, AnalysisConfig, resolve_config
from repro.core.regression_tree import (ColumnAccessor, FeatureStore,
                                         grow_lockstep)
from repro.obs import span
from repro.sparse import is_sparse

#: The paper's tolerance: RE_kopt approximates RE_inf if within 0.5%.
KOPT_TOLERANCE = 0.005

#: The paper's chamber-count cap.
DEFAULT_K_MAX = 50

#: The paper's fold count.
DEFAULT_FOLDS = 10

#: Process-wide default for fold fan-out (1 = the serial loop).  Set by
#: the CLI's ``--jobs`` so a single ``analyze`` parallelizes its folds
#: without threading a knob through every analysis signature.
_DEFAULT_CV_JOBS = 1


def set_default_cv_jobs(jobs: int | None) -> int:
    """Set the process-wide fold-parallelism default; returns the old one.

    Fold results merge deterministically, so this is a performance knob,
    never a correctness one.  Callers should restore the previous value
    (try/finally) to keep the setting scoped.
    """
    global _DEFAULT_CV_JOBS
    previous = _DEFAULT_CV_JOBS
    _DEFAULT_CV_JOBS = max(1, int(jobs or 1))
    return previous


@dataclass(frozen=True)
class RECurve:
    """The relative cross-validation error curve of one dataset.

    ``re[k - 1]`` is RE_k for k = 1..k_max.  ``k_opt`` is the smallest k
    within :data:`KOPT_TOLERANCE` of the curve minimum; ``re_kopt`` its RE;
    ``re_inf`` the curve's tail value (the paper's predictability bound).
    """

    re: np.ndarray
    k_opt: int
    re_kopt: float
    re_inf: float
    total_variance: float
    n_points: int

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(1, len(self.re) + 1)

    @property
    def explained_fraction(self) -> float:
        """1 - RE_inf, clipped to [0, 1]: CPI variance EIPVs can explain."""
        return float(np.clip(1.0 - self.re_inf, 0.0, 1.0))

    def as_rows(self) -> list[tuple[int, float]]:
        """(k, RE_k) rows for table output."""
        return [(int(k), float(re)) for k, re in zip(self.k_values, self.re)]


def fold_indices(n: int, folds: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """Randomly partition ``range(n)`` into ``folds`` near-equal parts."""
    if folds < 2:
        raise ValueError("need at least two folds")
    if n < folds:
        raise ValueError(f"cannot make {folds} folds from {n} points")
    permutation = rng.permutation(n)
    return [permutation[i::folds] for i in range(folds)]


def cross_validated_sse(matrix: np.ndarray, y: np.ndarray,
                        k_max=UNSET, folds=UNSET, seed=UNSET, min_leaf=UNSET,
                        *, config: AnalysisConfig | None = None,
                        jobs: int | None = None,
                        dispatch: str | None = None) -> np.ndarray:
    """Summed held-out squared error E_k for k = 1..k_max.

    Builds one tree family per fold and evaluates every member tree on the
    held-out part, exactly the procedure of Section 4.4.  The serial path
    sorts the dataset once and grows every fold's family in lockstep
    (:func:`~repro.core.regression_tree.grow_lockstep`).  Pass
    ``config=AnalysisConfig(...)``; the loose kwargs are deprecated.
    ``jobs > 1`` fans the folds across worker processes with a
    deterministic merge — the result is bit-identical to the serial loop
    (``jobs=None`` uses the process default, see
    :func:`set_default_cv_jobs`).

    ``dispatch`` picks the serial-vs-parallel policy when ``jobs > 1``
    (``None`` follows :func:`repro.runtime.options.current`):
    ``"adaptive"`` asks the runtime's cost-model dispatcher whether this
    dataset's measured per-fold cost justifies the worker pool, keyed by
    the content-hashed dataset token — on a 1-core box, or for folds
    cheaper than the dispatch overhead, it runs the serial loop instead.
    Never a correctness knob: the fold floats are identical either way.
    """
    config = resolve_config(config, k_max, folds, seed, min_leaf,
                            caller="cross_validated_sse")
    if not is_sparse(matrix):
        matrix = np.asarray(matrix)
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    k_max = config.k_max
    effective_jobs = (_DEFAULT_CV_JOBS if jobs is None
                      else max(1, int(jobs)))
    observe_keys: tuple[str, ...] = ()
    token: str | None = None
    if effective_jobs > 1:
        from repro.runtime import options as runtime_options
        mode = (dispatch if dispatch is not None
                else runtime_options.current().dispatch)
        if mode == "serial":
            effective_jobs = 1
        elif mode == "adaptive":
            from repro.runtime import pool as pool_mod
            from repro.runtime.folds import dataset_token
            token = dataset_token(matrix, y)
            observe_keys = (f"cv:{token}", "kind:cv_fold")
            decision = pool_mod.dispatcher().decide(
                key=f"cv:{token}", fallback_key="kind:cv_fold",
                n_jobs=config.folds, jobs=effective_jobs)
            if decision.mode == "serial":
                # The serial path below still times the folds so the
                # model can revisit this choice as costs change.
                effective_jobs = 1
    if effective_jobs > 1:
        from repro.runtime.folds import run_parallel_folds
        with span("cv", folds=config.folds, k_max=k_max) as cv_span:
            # ``token`` (when the adaptive path hashed the dataset for
            # its dispatch key) rides along so it isn't hashed twice.
            sse = run_parallel_folds(matrix, y, config, effective_jobs,
                                     token=token)
            cv_span.inc("points", len(y))
        return sse
    held_outs = fold_indices(len(y), config.folds, rng)
    sse = np.zeros(k_max)
    with span("cv", folds=config.folds, k_max=k_max) as cv_span:
        start = time.perf_counter()
        with span("fit.tree") as fit_span:
            # One store for every fold: each fold's root takes the store
            # entries of its training rows, in per-fold sort order.
            train_rows = []
            for held_out in held_outs:
                train_mask = np.ones(len(y), dtype=bool)
                train_mask[held_out] = False
                train_rows.append(np.flatnonzero(train_mask))
            trees = grow_lockstep(FeatureStore(matrix), y, train_rows,
                                  k_max=k_max, min_leaf=config.min_leaf)
            fit_span.inc("splits", sum(tree.n_splits for tree in trees))
            fit_span.inc("points", sum(len(rows) for rows in train_rows))
        with span("cv.predict") as predict_span:
            columns = ColumnAccessor(matrix)
            for tree, held_out in zip(trees, held_outs):
                predictions = tree.predict_rows_all_k(columns, held_out)
                errors = ((predictions - y[held_out][:, None]) ** 2).sum(
                    axis=0)
                add_fold_errors(sse, errors, tree.max_k())
            predict_span.inc("held_out", len(y))
        if observe_keys:
            # The dispatcher models per-fold costs (the parallel path
            # observes each fold job), so record the lockstep mean.
            from repro.runtime import pool as pool_mod
            per_fold = (time.perf_counter() - start) / config.folds
            for observe_key in observe_keys:
                pool_mod.dispatcher().observe_job(observe_key, per_fold)
        cv_span.inc("points", len(y))
    return sse


def add_fold_errors(sse: np.ndarray, errors: np.ndarray,
                    reached: int) -> None:
    """Accumulate one fold's held-out errors into E_k (in place).

    Trees that stopped growing early keep their last prediction for
    larger k (T_k == T_reached beyond the last useful split).
    """
    sse[:reached] += errors
    if reached < len(sse):
        sse[reached:] += errors[-1]


def relative_error_curve(matrix: np.ndarray, y: np.ndarray,
                         k_max=UNSET, folds=UNSET, seed=UNSET, min_leaf=UNSET,
                         *, config: AnalysisConfig | None = None,
                         jobs: int | None = None,
                         dispatch: str | None = None) -> RECurve:
    """The paper's RE_k curve with k_opt and RE_inf.

    Pass ``config=AnalysisConfig(...)``; loose kwargs are deprecated.
    ``jobs`` parallelizes the folds (bit-identical merge); ``dispatch``
    is the serial-vs-parallel policy (see :func:`cross_validated_sse`).
    """
    config = resolve_config(config, k_max, folds, seed, min_leaf,
                            caller="relative_error_curve")
    y = np.asarray(y, dtype=np.float64)
    total_variance = float(np.var(y))
    baseline = total_variance * len(y)
    k_max = config.k_max
    sse = cross_validated_sse(matrix, y, config=config, jobs=jobs,
                              dispatch=dispatch)
    if baseline <= 0:
        # Constant CPI: any model is exact; RE is defined as 0.
        re = np.zeros(k_max)
    else:
        re = sse / baseline

    re_min = float(re.min())
    within = np.nonzero(re <= re_min + KOPT_TOLERANCE)[0]
    k_opt = int(within[0]) + 1
    # The tail value: average of the last quarter of the curve, a stable
    # stand-in for RE at k -> infinity.
    tail = re[-max(1, k_max // 4):]
    return RECurve(
        re=re,
        k_opt=k_opt,
        re_kopt=float(re[k_opt - 1]),
        re_inf=float(tail.mean()),
        total_variance=total_variance,
        n_points=len(y),
    )
