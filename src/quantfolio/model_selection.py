"""Time-aware split generation and out-of-sample portfolio assembly.

Walk-forward and combinatorial purged cross-validation (CPCV) emit SplitPlans
of index arrays; cross_val_predict turns a plan plus an allocator, or a list of
named allocators, into out-of-sample MultiPeriodPortfolios with a strict
no-leakage guarantee. Each fit, in a worker process or in the caller, returns
only its weight vector; the caller then builds every path, pricing each
(split, test block) once.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, groupby

import numpy as np

from .analytics import MultiPeriodPortfolio
from .base import clone
from .exceptions import EmptyCv, InvalidConfig, require_bool, require_finite, require_int
from .market_data import ReturnsMatrix


@dataclass
class SplitPlan:
    """Ordered (train, test) index pairs; CPCV plans carry path metadata.

    `test_folds` lists, per split, the (fold_id, indices) blocks under test;
    `path_of` maps (split_index, fold_id) to a path id.
    """

    splits: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    test_folds: list[list[tuple[int, np.ndarray]]] | None = None
    path_of: dict[tuple[int, int], int] | None = None
    n_paths: int = 0

    @property
    def n_splits(self) -> int:
        return len(self.splits)

    def to_json(self) -> str:
        """Audit serialization: half-open index ranges per split."""
        payload = {
            "splits": [
                {"train": _to_ranges(train), "test": _to_ranges(test)}
                for train, test in self.splits
            ]
        }
        if self.path_of is not None:
            payload["paths"] = [
                {"split": s, "fold": f, "path": p}
                for (s, f), p in sorted(self.path_of.items())
            ]
        return json.dumps(payload, indent=2)


def _to_ranges(idx: np.ndarray) -> list[list[int]]:
    idx = np.asarray(idx, dtype=int)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [idx.size - 1]])
    return [[int(idx[s]), int(idx[e]) + 1] for s, e in zip(starts, ends)]


def walk_forward(T: int, train_size: int, test_size: int, expanding: bool = False) -> SplitPlan:
    """Rolling (or expanding) chronological splits; only full test windows count."""
    require_int("train_size", train_size)
    require_int("test_size", test_size)
    require_bool("expanding", expanding)
    if train_size < 1 or test_size < 1:
        raise InvalidConfig("train_size and test_size must be >= 1")
    if T < train_size + test_size:
        warnings.warn(
            f"T={T} is too short for train {train_size} + test {test_size}; empty plan",
            stacklevel=2,
        )
        return SplitPlan()
    splits = []
    i = 0
    while True:
        test_start = train_size + i * test_size
        test_end = test_start + test_size
        if test_end > T:
            break
        train_start = 0 if expanding else i * test_size
        splits.append((
            np.arange(train_start, test_start),
            np.arange(test_start, test_end),
        ))
        i += 1
    return SplitPlan(splits=splits)


@dataclass(frozen=True)
class CpcvConfig:
    k: int = 10
    p: int = 2
    purge_horizon: int = 1
    embargo_fraction: float = 0.01

    def __post_init__(self):
        for name in ("k", "p", "purge_horizon"):
            require_int(name, getattr(self, name))
        require_finite("embargo_fraction", self.embargo_fraction)
        if self.k < 2:
            raise InvalidConfig("k must be >= 2")
        if not 1 <= self.p < self.k:
            raise InvalidConfig("p must satisfy 1 <= p < k")
        if self.purge_horizon < 0:
            raise InvalidConfig("purge_horizon must be >= 0")
        if not 0 <= self.embargo_fraction < 1:
            raise InvalidConfig("embargo_fraction must lie in [0, 1)")

    @property
    def n_splits(self) -> int:
        return math.comb(self.k, self.p)

    @property
    def n_paths(self) -> int:
        return math.comb(self.k - 1, self.p - 1)

    def plan(self, T: int) -> "SplitPlan":
        return cpcv(T, self)


@dataclass(frozen=True)
class WalkForwardConfig:
    train_size: int
    test_size: int
    expanding: bool = False

    def plan(self, T: int) -> "SplitPlan":
        return walk_forward(T, self.train_size, self.test_size, self.expanding)


def _fold_bounds(T: int, k: int) -> list[tuple[int, int]]:
    """Contiguous folds, sizes differing by at most 1, longer folds first."""
    base, extra = divmod(T, k)
    bounds = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def cpcv(T: int, cfg: CpcvConfig) -> SplitPlan:
    """Combinatorial purged CV: C(k,p) splits, purge/embargo around test blocks."""
    if T < cfg.k:
        raise InvalidConfig(f"T={T} smaller than k={cfg.k}")
    bounds = _fold_bounds(T, cfg.k)
    embargo_n = math.ceil(cfg.embargo_fraction * T)

    splits: list[tuple[np.ndarray, np.ndarray]] = []
    test_folds: list[list[tuple[int, np.ndarray]]] = []
    path_of: dict[tuple[int, int], int] = {}
    occurrences = {f: 0 for f in range(cfg.k)}
    for s_idx, combo in enumerate(combinations(range(cfg.k), cfg.p)):
        excluded = np.zeros(T, dtype=bool)
        test_mask = np.zeros(T, dtype=bool)
        blocks = []
        for f in combo:
            start, end = bounds[f]
            test_mask[start:end] = True
            blocks.append((f, np.arange(start, end)))
            lo = max(0, start - cfg.purge_horizon)
            hi = min(T, end + cfg.purge_horizon + embargo_n)
            excluded[lo:hi] = True
            path_of[(s_idx, f)] = occurrences[f]
            occurrences[f] += 1
        train = np.flatnonzero(~excluded & ~test_mask)
        splits.append((train, np.flatnonzero(test_mask)))
        test_folds.append(blocks)
    return SplitPlan(splits=splits, test_folds=test_folds, path_of=path_of,
                     n_paths=cfg.n_paths)


_chunk_job = None  # set only in a forked worker, by _bind_chunk_job


def _bind_chunk_job(fit_chunk):
    global _chunk_job
    _chunk_job = fit_chunk


class _WorkerTraceback(Exception):
    """The traceback of a fit that failed in a worker process, as text."""


def _run_chunk(tasks: range):
    # pickling keeps neither __cause__ nor a traceback, so a failed fit's
    # traceback goes back as text, to become its error's cause in the caller
    return [(r, "".join(traceback.format_exception(r.__cause__)))
            if isinstance(r, Exception) else r for r in _chunk_job(tasks)]


def _fit_weights(allocator, train, s_idx: int):
    """The weights of a clone of `allocator` fitted on `train`, or the error,
    naming the split, that the slice or the fit raised."""
    try:
        if isinstance(train, Exception):
            raise train
        est = clone(allocator)
        est.fit(train)
        return np.asarray(est.weights_, dtype=float)
    except Exception as exc:
        error = type(exc)(f"split {s_idx}: {exc}")
        error.__cause__ = exc  # as `raise error from exc` would set it
        return error


def cross_val_predict(
    allocator,
    X: ReturnsMatrix,
    plan: SplitPlan,
    n_jobs: int = 1,
    name: str | None = None,
):
    """Fit per split on train rows, predict test rows out of sample.

    Returns one MultiPeriodPortfolio for sequential plans (walk-forward), or a
    list of per-path MultiPeriodPortfolios for CPCV plans. `allocator` may
    also be a list of (name, allocator) pairs, their names distinct and
    non-empty; the result is then a list with one such result per pair, in
    order, and `name` is not used.

    The (allocator, split) fits run split-major, each split's allocators
    together, in contiguous chunks of ceil(fits / workers) fits, where
    workers = min(n_jobs, fits). A chunk takes the train rows of each of its
    splits once and fits that split's allocators on the one slice, so they
    share its sample estimate. With n_jobs > 1 one pool of forked worker
    processes runs the chunks; where the platform cannot fork, the caller
    runs all fits as one chunk. Results are put back in task order, so the
    worker count never changes the output. A failing fit does not stop its
    chunk: once all fits are done, the error of the first failing
    (allocator, split) is raised, allocators taken in the order given and
    splits in plan order. A fork copies only the calling thread, so avoid
    n_jobs > 1 while other threads of the program may hold locks that the
    fits use.
    """
    require_int("n_jobs", n_jobs)
    if n_jobs < 1:
        raise InvalidConfig(f"n_jobs must be >= 1, got {n_jobs}")
    if not isinstance(X, ReturnsMatrix):
        # the dates place the out-of-sample blocks
        raise InvalidConfig(f"cross_val_predict needs a ReturnsMatrix, got {type(X).__name__}")
    if plan.n_splits == 0:
        raise EmptyCv("split plan is empty")
    single = not isinstance(allocator, list)
    pairs = ([(name if name is not None else type(allocator).__name__, allocator)]
             if single else allocator)
    names = tuple(label for label, _ in pairs)
    if "" in names or len(set(names)) != len(names):
        raise InvalidConfig(f"portfolio names must be distinct and non-empty: {names!r}")
    n_pairs = len(pairs)

    def fit_chunk(tasks: range) -> list:
        # task s * n_pairs + a fits pair a on split s
        results = []
        for s_idx, split_tasks in groupby(tasks, key=lambda task: task // n_pairs):
            try:
                train = X.take(plan.splits[s_idx][0])
            except Exception as exc:
                train = exc
            results += [_fit_weights(pairs[task % n_pairs][1], train, s_idx)
                        for task in split_tasks]
        return results

    n_tasks = n_pairs * plan.n_splits
    workers = min(n_jobs, n_tasks)
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        size = math.ceil(n_tasks / workers)
        chunks = [range(lo, min(lo + size, n_tasks)) for lo in range(0, n_tasks, size)]
        # Forked workers inherit X, the plan and fit_chunk without pickling
        # them; only task ranges, weight vectors and errors are pickled.
        # fit_chunk is bound in each worker by the initializer, so a nested
        # cross_val_predict in a worker binds its own job in its own workers.
        # the solvers and the clustering hold the GIL, so threads would not
        # run the fits in parallel.
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_bind_chunk_job,
                                 initargs=(fit_chunk,)) as pool:
            results = [r for chunk in pool.map(_run_chunk, chunks) for r in chunk]
        for i, r in enumerate(results):
            if isinstance(r, tuple):
                results[i], text = r
                results[i].__cause__ = _WorkerTraceback(text)
    else:
        results = fit_chunk(range(n_tasks))

    per_pair = [results[a_idx::n_pairs] for a_idx in range(n_pairs)]
    for weights in per_pair:
        for w in weights:
            if isinstance(w, Exception):
                raise w
    predictions = [_assemble(label, X, plan, weights)
                   for (label, _), weights in zip(pairs, per_pair)]
    return predictions[0] if single else predictions


def _assemble(label: str, X: ReturnsMatrix, plan: SplitPlan, weights):
    """One allocator's out-of-sample portfolios from its per-split weights.

    Each (split, test block) is priced once. A plan without paths has one
    block per split, all on path 0, kept in split order; a CPCV block lies on
    path `path_of[(split, fold)]`, and each path's blocks are sorted by start
    and must cover every row exactly once.
    """
    has_paths = plan.path_of is not None
    paths = [[] for _ in range(plan.n_paths if has_paths else 1)]
    for s_idx, ((_, test), w) in enumerate(zip(plan.splits, weights)):
        if has_paths:
            for fold, idx in plan.test_folds[s_idx]:
                paths[plan.path_of[(s_idx, fold)]].append((idx, w))
        else:
            paths[0].append((test, w))

    portfolios = []
    for path, blocks in enumerate(paths):
        if has_paths:
            blocks.sort(key=lambda block: block[0][0])
        rows = np.concatenate([idx for idx, _ in blocks] or [np.zeros(0, dtype=int)])
        if has_paths and not np.array_equal(rows, np.arange(X.n_periods)):
            raise EmptyCv(f"path {path} does not cover every sample exactly once")
        portfolios.append(MultiPeriodPortfolio(
            name=f"{label}_path{path}" if has_paths else label,
            segments=[(w, (X.dates[idx[0]], X.dates[idx[-1]])) for idx, w in blocks],
            returns=np.concatenate([X.values[idx] @ w for idx, w in blocks]),
            dates=tuple(map(X.dates.__getitem__, rows.tolist())),
        ))
    return portfolios if has_paths else portfolios[0]
