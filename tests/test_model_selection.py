import json

import numpy as np
import pytest

from quantfolio.analytics import MultiPeriodPortfolio
from quantfolio.exceptions import EmptyCv, InvalidConfig
from quantfolio.hierarchical import (
    EqualWeighted,
    HierarchicalRiskParity,
    InverseVolatility,
    StackingOptimization,
)
from quantfolio.market_data import ReturnsMatrix
from quantfolio.model_selection import (
    CpcvConfig,
    SplitPlan,
    WalkForwardConfig,
    cpcv,
    cross_val_predict,
    walk_forward,
)

from conftest import make_returns


def test_walk_forward_exact_ranges():
    # [DERIVED] T=372, train 252, test 60: splits at [0,252)/[252,312)
    # and [60,312)/[312,372); no third split fits
    plan = walk_forward(372, 252, 60)
    assert plan.n_splits == 2
    tr0, te0 = plan.splits[0]
    tr1, te1 = plan.splits[1]
    np.testing.assert_array_equal(tr0, np.arange(0, 252))
    np.testing.assert_array_equal(te0, np.arange(252, 312))
    np.testing.assert_array_equal(tr1, np.arange(60, 312))
    np.testing.assert_array_equal(te1, np.arange(312, 372))


def test_walk_forward_expanding():
    plan = walk_forward(372, 252, 60, expanding=True)
    assert plan.n_splits == 2
    np.testing.assert_array_equal(plan.splits[1][0], np.arange(0, 312))


def test_walk_forward_no_room_warns_and_returns_empty():
    with pytest.warns(UserWarning, match="too short"):
        plan = walk_forward(100, 90, 20)
    assert plan.n_splits == 0
    with pytest.raises(InvalidConfig):
        walk_forward(100, 0, 20)


def test_walk_forward_test_sets_partition_tail():
    plan = walk_forward(500, 100, 70)
    covered = np.concatenate([te for _, te in plan.splits])
    assert covered[0] == 100
    np.testing.assert_array_equal(covered, np.arange(100, 100 + covered.size))
    assert covered.size == ((500 - 100) // 70) * 70


def test_cpcv_counts():
    # [DERIVED] k=10, p=2: C(10,2)=45 splits, each fold under test in
    # C(9,1)=9 of them, giving 9 reconstructed paths
    cfg = CpcvConfig(k=10, p=2, purge_horizon=0, embargo_fraction=0.0)
    assert cfg.n_splits == 45
    assert cfg.n_paths == 9
    plan = cpcv(450, cfg)
    assert plan.n_splits == 45
    assert plan.n_paths == 9
    counts = np.zeros(10, dtype=int)
    for blocks in plan.test_folds:
        for fold_id, _ in blocks:
            counts[fold_id] += 1
    np.testing.assert_array_equal(counts, np.full(10, 9))


def test_cpcv_paths_cover_every_fold_once():
    cfg = CpcvConfig(k=6, p=2, purge_horizon=0, embargo_fraction=0.0)
    plan = cpcv(120, cfg)
    # for each path, every fold appears exactly once
    per_path = {}
    for (split, fold), path in plan.path_of.items():
        per_path.setdefault(path, []).append(fold)
    assert len(per_path) == cfg.n_paths
    for folds in per_path.values():
        assert sorted(folds) == list(range(6))


def test_cpcv_purge_and_embargo_audit():
    # [DERIVED] T=500, k=10, p=2, purge 3, embargo 0.02 -> 10 embargo rows
    cfg = CpcvConfig(k=10, p=2, purge_horizon=3, embargo_fraction=0.02)
    plan = cpcv(500, cfg)
    embargo = int(0.02 * 500)
    for train, test in plan.splits:
        train_set = set(train.tolist())
        assert not train_set & set(test.tolist())
        # no train index within the purge window before each test block or
        # the embargo window after it
        t_lo, t_hi = test.min(), test.max()
        for idx in train:
            assert not (t_lo - 3 <= idx < t_lo)
            assert not (t_hi < idx <= t_hi + embargo)


def test_cpcv_config_validation():
    with pytest.raises(InvalidConfig):
        CpcvConfig(k=2, p=2)
    with pytest.raises(InvalidConfig):
        CpcvConfig(k=5, p=0)
    with pytest.raises(InvalidConfig):
        CpcvConfig(k=5, p=1, embargo_fraction=1.5)


def test_split_plan_to_json_cpcv_payload():
    # [DERIVED] T=80, k=4: folds [0,20) [20,40) [40,60) [60,80). Each test
    # fold excludes one row before it (purge_horizon 1) and two after it
    # (purge 1 + embargo ceil(0.01 * 80) = 1). A fold's path is the count of
    # earlier splits that test it.
    payload = json.loads(cpcv(80, CpcvConfig(k=4, p=2)).to_json())
    assert payload == {
        "splits": [
            {"train": [[42, 80]], "test": [[0, 40]]},
            {"train": [[22, 39], [62, 80]], "test": [[0, 20], [40, 60]]},
            {"train": [[22, 59]], "test": [[0, 20], [60, 80]]},
            {"train": [[0, 19], [62, 80]], "test": [[20, 60]]},
            {"train": [[0, 19], [42, 59]], "test": [[20, 40], [60, 80]]},
            {"train": [[0, 39]], "test": [[40, 80]]},
        ],
        "paths": [{"split": s, "fold": f, "path": p} for s, f, p in [
            (0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 2, 0), (2, 0, 2), (2, 3, 0),
            (3, 1, 1), (3, 2, 1), (4, 1, 2), (4, 3, 1), (5, 2, 2), (5, 3, 2)]],
    }


def test_config_plan_helpers():
    assert WalkForwardConfig(train_size=50, test_size=25).plan(100).n_splits == 2
    assert CpcvConfig(k=4, p=2).plan(100).n_splits == 6


def test_cross_val_predict_walk_forward(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (372, 4)))
    plan = walk_forward(372, 252, 60)
    result = cross_val_predict(EqualWeighted(), X, plan)
    assert isinstance(result, MultiPeriodPortfolio)
    assert result.n_periods == 120
    np.testing.assert_allclose(result.returns, X.values[252:].mean(axis=1), atol=1e-15)
    assert len(result.segments) == 2


def test_cross_val_predict_cpcv_paths(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (120, 3)))
    plan = cpcv(120, CpcvConfig(k=4, p=2, purge_horizon=0, embargo_fraction=0.0))
    result = cross_val_predict(InverseVolatility(), X, plan)
    assert isinstance(result, list)
    assert len(result) == 3
    for path in result:
        assert path.n_periods == 120  # every path covers all folds


def test_cross_val_predict_cpcv_path_missing_a_fold_raises(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (40, 3)))
    plan = cpcv(40, CpcvConfig(k=4, p=2, purge_horizon=0, embargo_fraction=0.0))
    plan.path_of[(0, 0)] = 1  # path 0 loses fold 0, which path 1 now has twice
    with pytest.raises(EmptyCv, match="^path 0 does not cover every sample"):
        cross_val_predict(EqualWeighted(), X, plan)
    plan = cpcv(40, CpcvConfig(k=4, p=2, purge_horizon=0, embargo_fraction=0.0))
    plan.n_paths += 1  # a path that no block lies on
    with pytest.raises(EmptyCv, match="^path 3 does not cover every sample"):
        cross_val_predict(EqualWeighted(), X, plan)


def test_cross_val_predict_thread_count_is_neutral(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (200, 4)))
    plan = cpcv(200, CpcvConfig(k=5, p=2, purge_horizon=1, embargo_fraction=0.01))
    seq = cross_val_predict(InverseVolatility(), X, plan, n_jobs=1)
    par = cross_val_predict(InverseVolatility(), X, plan, n_jobs=4)
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.returns, b.returns)


def test_cross_val_predict_runs_sequentially_without_fork(rng, monkeypatch):
    import quantfolio.model_selection as ms

    def no_pool(*args, **kwargs):
        raise AssertionError("no worker pool without the fork start method")

    X = make_returns(rng.normal(0.0005, 0.01, (200, 4)))
    plan = cpcv(200, CpcvConfig(k=5, p=2, purge_horizon=1, embargo_fraction=0.01))
    seq = cross_val_predict(InverseVolatility(), X, plan, n_jobs=1)
    monkeypatch.setattr(ms.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(ms, "ProcessPoolExecutor", no_pool)
    par = cross_val_predict(InverseVolatility(), X, plan, n_jobs=4)
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.returns, b.returns)


def _assert_same_result(a, b):
    if isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_result(x, y)
        return
    assert a.name == b.name
    assert a.dates == b.dates
    np.testing.assert_array_equal(a.returns, b.returns)
    assert len(a.segments) == len(b.segments)
    for (w_a, span_a), (w_b, span_b) in zip(a.segments, b.segments):
        np.testing.assert_array_equal(w_a, w_b)
        assert span_a == span_b


@pytest.mark.parametrize("n_jobs", [1, 2, 3])
@pytest.mark.parametrize("make_plan", [
    lambda T: walk_forward(T, 60, 20),
    lambda T: cpcv(T, CpcvConfig(k=4, p=2, purge_horizon=1, embargo_fraction=0.01)),
    # 7 splits × 3 allocators: 2 workers cut split 3, and 3 workers splits 2 and 4,
    # between two chunks, each of which slices and estimates it
    lambda T: cpcv(T, CpcvConfig(k=7, p=1, purge_horizon=1, embargo_fraction=0.01)),
], ids=["walk_forward", "cpcv", "cpcv_chunks_cut_splits"])
def test_cross_val_predict_list_matches_per_allocator_calls(rng, make_plan, n_jobs):
    X = make_returns(rng.normal(0.0005, 0.01, (160, 4)))
    plan = make_plan(X.n_periods)
    pairs = [("iv", InverseVolatility()), ("hrp", HierarchicalRiskParity()),
             ("ew", EqualWeighted())]
    results = cross_val_predict(pairs, X, plan, n_jobs=n_jobs)
    assert len(results) == len(pairs)
    for (name, allocator), result in zip(pairs, results):
        _assert_same_result(result, cross_val_predict(allocator, X, plan, name=name))


def test_cross_val_predict_list_forks_one_pool(rng, monkeypatch):
    import quantfolio.model_selection as ms

    pools = []
    real_pool = ms.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(ms, "ProcessPoolExecutor", counting_pool)
    X = make_returns(rng.normal(0.0005, 0.01, (160, 4)))
    plan = cpcv(160, CpcvConfig(k=4, p=2, purge_horizon=1, embargo_fraction=0.01))
    pairs = [("iv", InverseVolatility()), ("hrp", HierarchicalRiskParity()),
             ("ew", EqualWeighted())]
    cross_val_predict(pairs, X, plan, n_jobs=2)
    assert pools == [2]


def test_cross_val_predict_list_slices_and_estimates_once_per_split(rng, monkeypatch):
    import quantfolio.moments as moments

    calls = {"take": 0, "estimate": 0}
    real_take, real_estimate = ReturnsMatrix.take, moments.sample_moments

    def counting_take(self, *args, **kwargs):
        calls["take"] += 1
        return real_take(self, *args, **kwargs)

    def counting_estimate(R):
        calls["estimate"] += not isinstance(R, ReturnsMatrix)  # a ReturnsMatrix keeps its own
        return real_estimate(R)

    monkeypatch.setattr(ReturnsMatrix, "take", counting_take)
    monkeypatch.setattr(moments, "sample_moments", counting_estimate)
    X = make_returns(rng.normal(0.0005, 0.01, (160, 4)))
    plan = cpcv(160, CpcvConfig(k=4, p=2, purge_horizon=1, embargo_fraction=0.01))
    # both priors are sample estimates of the same train rows
    pairs = [("iv", InverseVolatility()), ("hrp", HierarchicalRiskParity()),
             ("ew", EqualWeighted())]
    cross_val_predict(pairs, X, plan)
    assert calls == {"take": plan.n_splits, "estimate": plan.n_splits}


def test_cross_val_predict_forks_a_worker_per_fit_not_per_split(rng, monkeypatch):
    import quantfolio.model_selection as ms

    pools, chunks = [], []

    class CountingPool(ms.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def map(self, fn, tasks, **kwargs):
            chunks.extend(list(chunk) for chunk in tasks)
            return super().map(fn, tasks, **kwargs)

    monkeypatch.setattr(ms, "ProcessPoolExecutor", CountingPool)
    X = make_returns(rng.normal(0.0005, 0.01, (100, 4)))
    plan = walk_forward(100, 60, 40)
    assert plan.n_splits == 1
    pairs = [("iv", InverseVolatility()), ("hrp", HierarchicalRiskParity()),
             ("ew", EqualWeighted())]
    par = cross_val_predict(pairs, X, plan, n_jobs=2)
    assert pools == [2] and chunks == [[0, 1], [2]]
    monkeypatch.undo()
    _assert_same_result(par, cross_val_predict(pairs, X, plan))


def test_cross_val_predict_finishes_every_fit_before_raising(rng):
    fitted = []

    class AlwaysFails(EqualWeighted):
        def fit(self, X, factors=None):
            raise ValueError("always")

    class Recorded(EqualWeighted):
        def fit(self, X, factors=None):
            fitted.append(X.n_periods)
            return super().fit(X)

    X = make_returns(rng.normal(0, 0.01, (200, 2)))
    plan = walk_forward(200, 50, 25)
    with pytest.raises(ValueError, match="^split 0: always$") as exc:
        cross_val_predict([("always", AlwaysFails()), ("recorded", Recorded())], X, plan)
    assert str(exc.value.__cause__) == "always"
    assert fitted == [50] * plan.n_splits


@pytest.mark.parametrize("n_jobs", [1, 2, 3])
def test_cross_val_predict_list_raises_first_failure_in_order(rng, n_jobs):
    class FailsFromRow100(EqualWeighted):
        def fit(self, X, factors=None):
            if X.n_periods >= 100:
                raise ValueError("late")
            return super().fit(X)

    class AlwaysFails(EqualWeighted):
        def fit(self, X, factors=None):
            raise ValueError("always")

    X = make_returns(rng.normal(0, 0.01, (200, 2)))
    plan = walk_forward(200, 50, 25, expanding=True)  # train sizes 50, 75, 100, ...
    pairs = [("ew", EqualWeighted()), ("late", FailsFromRow100()),
             ("always", AlwaysFails())]
    with pytest.raises(ValueError, match="^split 2: late$"):
        cross_val_predict(pairs, X, plan, n_jobs=n_jobs)


def test_cross_val_predict_empty_plan(rng):
    X = make_returns(rng.normal(0, 0.01, (30, 2)))
    with pytest.raises(EmptyCv):
        cross_val_predict(EqualWeighted(), X, SplitPlan())


@pytest.mark.parametrize("names", [("a", "a"), ("a", "")])
def test_cross_val_predict_rejects_repeated_or_empty_names(rng, names):
    # each name labels the portfolios of its allocator; none is fitted
    class Unfit(EqualWeighted):
        def fit(self, X, factors=None):
            raise AssertionError("fitted")

    X = make_returns(rng.normal(0, 0.01, (100, 2)))
    pairs = [(name, Unfit()) for name in names]
    with pytest.raises(InvalidConfig, match="names must be distinct and non-empty"):
        cross_val_predict(pairs, X, walk_forward(100, 50, 25))


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_cross_val_predict_error_names_split(rng, n_jobs):
    class Boom(EqualWeighted):
        def fit(self, X, factors=None):
            raise ValueError("nope")

    X = make_returns(rng.normal(0, 0.01, (100, 2)))
    plan = walk_forward(100, 50, 25)
    with pytest.raises(ValueError, match="split 0: nope") as exc:
        cross_val_predict(Boom(), X, plan, n_jobs=n_jobs)
    # the fit's own error: its object in the caller, its traceback from a worker
    assert str(exc.value.__cause__).endswith("nope" if n_jobs == 1 else "ValueError: nope\n")


@pytest.mark.parametrize("n_jobs", [0, -3, 2.5, "2", True, None])
def test_cross_val_predict_rejects_bad_n_jobs(rng, n_jobs):
    X = make_returns(rng.normal(0, 0.01, (100, 2)))
    with pytest.raises(InvalidConfig, match="n_jobs"):
        cross_val_predict(EqualWeighted(), X, walk_forward(100, 50, 25), n_jobs=n_jobs)


def test_cross_val_predict_nested_pools_match_sequential(rng):
    # a stacking allocator with its own worker pool, fitted inside the pool of
    # the outer cross-validation: each level must run its own per-split job.
    # The default mean-variance final stage weighs the bases by their
    # out-of-sample series, so the inner pool's results reach the output.
    X = make_returns(rng.normal(0.0005, 0.01, (160, 4)))
    plan = cpcv(160, CpcvConfig(k=4, p=2, purge_horizon=1, embargo_fraction=0.01))
    cv = CpcvConfig(k=3, p=1, purge_horizon=1, embargo_fraction=0.0)
    bases = [("iv", InverseVolatility()), ("hrp", HierarchicalRiskParity())]

    def run(n_jobs):
        model = StackingOptimization(bases, cv=cv, n_jobs=n_jobs)
        return cross_val_predict(model, X, plan, n_jobs=n_jobs)

    seq, par = run(1), run(2)
    assert len(seq) == len(par) == plan.n_paths
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.returns, b.returns)
