import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.cluster.hierarchy

import quantfolio
from quantfolio.exceptions import EmptyCv, InvalidConfig, ZeroVarianceAsset
from quantfolio.hierarchical import (
    EqualWeighted,
    HierarchicalRiskParity,
    InverseVolatility,
    NestedClustersOptimization,
    StackingOptimization,
    corr_distance,
    cut_clusters,
    equal_weighted,
    hrp,
    inverse_volatility,
    linkage_cluster,
    silhouette_score,
)
from quantfolio.mean_risk import MeanRisk
from quantfolio.measures import RiskMeasure, risk_of_weights
from quantfolio.model_selection import CpcvConfig, walk_forward

from conftest import make_prior, make_returns, random_psd


def test_corr_distance_fixture():
    # [DERIVED] zero correlation -> distance sqrt((1-0)/2) = sqrt(0.5)
    D = corr_distance(np.eye(2))
    assert D[0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert D[0, 0] == 0.0
    # perfect correlation -> distance 0, perfect anti-correlation -> 1
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert corr_distance(sigma)[0, 1] == pytest.approx(0.0, abs=1e-12)
    sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert corr_distance(sigma)[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_single_linkage_two_leaves():
    D = np.array([[0.0, 0.3], [0.3, 0.0]])
    tree = linkage_cluster(D)
    assert tree.n_leaves == 2
    assert len(tree.merges) == 1
    assert tuple(tree.leaf_order) in ((0, 1), (1, 0))


def test_single_linkage_chain_order():
    # three points on a line at 0, 1, 3: merge (0,1) first, then with 2
    D = np.array([
        [0.0, 1.0, 3.0],
        [1.0, 0.0, 2.0],
        [3.0, 2.0, 0.0],
    ])
    tree = linkage_cluster(D)
    heights = [m[2] for m in tree.merges]
    assert heights == sorted(heights)
    assert heights[0] == pytest.approx(1.0)
    assert heights[1] == pytest.approx(2.0)
    # [DERIVED] orientation by mean distance to the other leaves:
    # scores 2.0, 1.5, 2.5 put leaf 1 first inside its pair
    assert tuple(tree.leaf_order) == (1, 0, 2)


def _reference_leaf_order(D, method):
    """The orientation as a loop of per-merge means: at each merge the child
    whose leaves have the smaller mean `row_mean` goes first."""
    n = D.shape[0]
    Z = scipy.cluster.hierarchy.linkage(D[np.triu_indices(n, 1)], method=method)
    row_mean = D.sum(axis=1) / (n - 1)
    members = {i: [i] for i in range(n)}
    for i, (a, b, _, _) in enumerate(Z):
        ma, mb = members.pop(int(a)), members.pop(int(b))
        members[n + i] = ma + mb if row_mean[ma].mean() <= row_mean[mb].mean() else mb + ma
    return tuple(members[2 * n - 2])


@pytest.mark.parametrize("method", ["single", "average", "ward"])
def test_leaf_order_matches_per_merge_means(method):
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        X = rng.normal(size=(n + 10, n)) + rng.normal(size=(n + 10, 1)) * rng.uniform(0, 2, n)
        D = corr_distance(np.cov(X, rowvar=False))
        assert linkage_cluster(D, method).leaf_order == _reference_leaf_order(D, method)


@pytest.mark.parametrize("method", ["single", "average", "ward"])
def test_leaf_order_matches_per_merge_means_on_tied_scores(method):
    # equidistant leaves, and evenly spaced points on a line, give children
    # with equal mean scores, where sums taken in another order round apart
    for n in (3, 6, 12, 25, 31):
        equidistant = np.full((n, n), 0.1)
        np.fill_diagonal(equidistant, 0.0)
        points = 0.1 * np.arange(n)
        on_a_line = np.abs(points[:, None] - points[None, :])
        for D in (equidistant, on_a_line):
            assert linkage_cluster(D, method).leaf_order == _reference_leaf_order(D, method)


@pytest.mark.parametrize("estimator", ["HierarchicalRiskParity", "NestedClustersOptimization"])
def test_scipy_cluster_is_loaded_by_clustering_estimators_only(estimator):
    # a fresh interpreter: this test module imports scipy.cluster itself
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        import quantfolio.cli
        from quantfolio import {estimator}, MeanRisk, RiskMeasure
        rng = np.random.default_rng(0)
        X = rng.normal(5e-4, 0.01, (60, 4)) + rng.normal(0.0, 0.01, (60, 1))
        MeanRisk(risk_measure=RiskMeasure.CDAR).fit(X)
        assert "scipy.cluster" not in sys.modules
        {estimator}()
        assert "scipy.cluster" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(quantfolio.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cut_clusters_block_structure():
    # two tight pairs far apart: k=2 recovers the blocks
    D = np.array([
        [0.0, 0.1, 0.9, 0.9],
        [0.1, 0.0, 0.9, 0.9],
        [0.9, 0.9, 0.0, 0.1],
        [0.9, 0.9, 0.1, 0.0],
    ])
    tree = linkage_cluster(D)
    labels = cut_clusters(tree, 2)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]
    assert silhouette_score(D, labels) > 0.5


def _silhouette_loop(D, labels):
    """Reference: the per-sample loop over assets and clusters."""
    D = np.asarray(D, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    uniq = np.unique(labels)
    scores = np.zeros(n)
    for i in range(n):
        same = labels == labels[i]
        if same.sum() == 1:
            continue
        a = D[i, same & (np.arange(n) != i)].mean()
        b = min(D[i, labels == other].mean() for other in uniq if other != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def test_silhouette_hand_case():
    # samples 0 and 1: a = 0.1, b = 0.9, s = 8/9; the singleton scores 0
    D = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]])
    assert silhouette_score(D, [0, 0, 1]) == pytest.approx(16 / 27, abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_silhouette_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    n = 9
    D = rng.uniform(0.0, 1.0, (n, n))
    D = (D + D.T) / 2
    cases = [
        (D - np.diag(np.diag(D)), rng.integers(0, 3, n)),
        (D, rng.integers(0, 4, n)),  # nonzero diagonal
        (D, np.array([0, 0, 5, 5, 5, 9, 0, 5, 9])),  # non-contiguous labels
        (D, np.array([2, 0, 0, 1, 1, 1, 7, 0, 1])),  # singleton clusters
        (np.zeros((n, n)), np.array([0, 0, 1, 1, 1, 2, 2, 2, 2])),  # max(a, b) == 0
        (D[:3, :3], np.array([0, 0, 5])),
    ]
    for dist, labels in cases:
        assert silhouette_score(dist, labels) == pytest.approx(
            _silhouette_loop(dist, labels), abs=1e-14)


@pytest.mark.parametrize("D, labels", [
    (np.zeros((3, 3)), [0, 1]),
    (np.zeros((3, 3)), [0, 1, 1, 0]),
    (np.zeros((3, 2)), [0, 1, 1]),
    (np.zeros((4, 4)), [[0, 1], [1, 0]]),
], ids=["short_labels", "long_labels", "non_square", "2d_labels"])
def test_silhouette_rejects_mismatched_input(D, labels):
    with pytest.raises(InvalidConfig):
        silhouette_score(D, labels)


def test_hrp_two_asset_inverse_variance():
    # [DERIVED] uncorrelated diag(1, 3): weights (0.75, 0.25)
    prior = make_prior([0.0, 0.0], np.diag([1.0, 3.0]))
    np.testing.assert_allclose(hrp(HierarchicalRiskParity(), prior), [0.75, 0.25], atol=1e-12)


def test_hrp_identical_assets_equal_weights():
    sigma = np.full((4, 4), 0.9) + 0.1 * np.eye(4)
    prior = make_prior(np.zeros(4), sigma)
    np.testing.assert_allclose(hrp(HierarchicalRiskParity(), prior), np.full(4, 0.25), atol=1e-12)


def test_hrp_single_asset():
    prior = make_prior([0.0], [[1.0]])
    np.testing.assert_array_equal(hrp(HierarchicalRiskParity(), prior), [1.0])


def test_hrp_block_diagonal_hand_oracle():
    # [DERIVED] two independent blocks; recursive bisection with
    # inverse-variance cluster risks has a closed-form answer
    sigma = np.array([
        [1.0, 0.8, 0.0, 0.0],
        [0.8, 2.0, 0.0, 0.0],
        [0.0, 0.0, 4.0, 2.0],
        [0.0, 0.0, 2.0, 8.0],
    ])
    prior = make_prior(np.zeros(4), sigma)

    def ivp(S):
        iv = 1.0 / np.diag(S)
        return iv / iv.sum()

    def cluster_var(idx):
        sub = sigma[np.ix_(idx, idx)]
        w = ivp(sub)
        return float(w @ sub @ w)

    v_left, v_right = cluster_var([0, 1]), cluster_var([2, 3])
    alpha = 1.0 - v_left / (v_left + v_right)
    expected = np.concatenate([
        ivp(sigma[:2, :2]) * alpha,
        ivp(sigma[2:, 2:]) * (1.0 - alpha),
    ])
    np.testing.assert_allclose(hrp(HierarchicalRiskParity(), prior), expected, atol=1e-12)


def test_hrp_permutation_invariance(rng):
    sigma = random_psd(rng, 6, scale=0.01)
    prior = make_prior(np.zeros(6), sigma)
    w = hrp(HierarchicalRiskParity(), prior)
    perm = rng.permutation(6)
    prior_p = make_prior(np.zeros(6), sigma[np.ix_(perm, perm)])
    w_p = hrp(HierarchicalRiskParity(), prior_p)
    np.testing.assert_allclose(w_p, w[perm], atol=1e-12)


@pytest.mark.parametrize("measure", [RiskMeasure.CVAR, RiskMeasure.WORST_REALIZATION])
def test_hrp_weights_stay_in_unit_interval_when_a_side_never_loses(measure):
    # two years of monthly returns that seldom lose: some sides have a
    # negative CVaR and worst realization, which unclipped gave a weight < 0
    X = np.random.default_rng(0).normal(0.01, 0.01, (24, 6))
    w = HierarchicalRiskParity(risk_measure=measure).fit(X).weights_
    assert np.all((w >= 0) & (w <= 1))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_hrp_side_that_never_loses_takes_the_split():
    # [DERIVED] two uncorrelated assets; asset 0 never loses, so its CVaR is
    # negative, clipped to 0, and it takes the whole weight
    scenarios = np.array([[0.02, -0.01], [0.01, 0.01], [0.03, -0.02], [0.02, 0.02]])
    prior = make_prior([0.0, 0.0], np.diag([1.0, 1.0]), scenarios=scenarios)
    model = HierarchicalRiskParity(risk_measure=RiskMeasure.CVAR)
    np.testing.assert_array_equal(hrp(model, prior), [1.0, 0.0])


def test_hrp_takes_a_measure_value_string(rng):
    X = rng.normal(5e-4, 0.01, (60, 5))
    want = HierarchicalRiskParity(risk_measure=RiskMeasure.CVAR).fit(X).weights_
    np.testing.assert_array_equal(HierarchicalRiskParity(risk_measure="cvar").fit(X).weights_,
                                  want)
    with pytest.raises(InvalidConfig, match="unknown measure 'c_var'"):
        HierarchicalRiskParity(risk_measure="c_var").fit(X)


def _hrp_per_side(prior, risk_measure, linkage, beta=0.95):
    """HRP by one risk call per side, as the bisection was first written."""
    order = list(linkage_cluster(corr_distance(prior.sigma), method=linkage).leaf_order)

    def side_risk(side):
        sub_sigma = prior.sigma[np.ix_(side, side)]
        ivp = 1.0 / np.diag(sub_sigma)
        ivp /= ivp.sum()
        return max(risk_of_weights(ivp, sub_sigma, prior.scenarios[:, side], risk_measure,
                                   beta=beta), 0.0)

    weights = np.ones(len(order))
    stack = [order]
    while stack:
        items = stack.pop()
        if len(items) < 2:
            continue
        left, right = items[:len(items) // 2], items[len(items) // 2:]
        risk_l, risk_r = side_risk(left), side_risk(right)
        total = risk_l + risk_r
        alpha = 1.0 - risk_l / total if total > 0 else 0.5
        weights[left] *= alpha
        weights[right] *= 1.0 - alpha
        stack += [left, right]
    return weights / weights.sum()


@pytest.mark.parametrize("n", [1, 2, 7, 12])
@pytest.mark.parametrize("linkage", ["single", "average", "ward"])
@pytest.mark.parametrize("measure", list(RiskMeasure))
def test_hrp_matches_per_side_loop(measure, linkage, n):
    rng = np.random.default_rng(100 + n)
    X = rng.normal(0.002, 0.01, (60, n)) + rng.normal(0.0, 0.01, (60, 1))
    prior = make_prior(X.mean(axis=0), np.cov(X, rowvar=False).reshape(n, n), scenarios=X)
    got = hrp(HierarchicalRiskParity(risk_measure=measure, linkage=linkage, beta=0.9), prior)
    want = _hrp_per_side(prior, measure, linkage, beta=0.9) if n > 1 else np.ones(1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_hrp_zero_variance_rejected():
    prior = make_prior([0.0, 0.0], np.diag([1.0, 0.0]))
    with pytest.raises(ZeroVarianceAsset):
        hrp(HierarchicalRiskParity(), prior)


def test_equal_weighted_and_inverse_volatility():
    np.testing.assert_allclose(equal_weighted(4), [0.25] * 4)
    with pytest.raises(InvalidConfig):
        equal_weighted(0)
    # [DERIVED] variances (1, 9): vols (1, 3), weights (0.75, 0.25)
    prior = make_prior([0.0, 0.0], np.diag([1.0, 9.0]))
    np.testing.assert_allclose(inverse_volatility(prior), [0.75, 0.25], atol=1e-12)


def test_nco_single_cluster_matches_inner(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (120, 4)))
    w_nco = NestedClustersOptimization(k=1).fit(X).weights_
    w_inner = MeanRisk().fit(X).weights_
    np.testing.assert_allclose(w_nco, w_inner, atol=1e-8)


def test_nco_all_singletons_matches_outer(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (120, 4)))
    w_nco = NestedClustersOptimization(k=4).fit(X).weights_
    w_outer = MeanRisk().fit(X).weights_
    np.testing.assert_allclose(np.sort(w_nco), np.sort(w_outer), atol=1e-8)


def test_nco_auto_k_runs(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (150, 6)))
    w = NestedClustersOptimization().fit(X).weights_
    assert w.sum() == pytest.approx(1.0, abs=1e-8)


def test_nco_auto_k_on_two_assets_is_one_cluster(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (120, 2)))
    w = NestedClustersOptimization().fit(X).weights_
    np.testing.assert_allclose(w, MeanRisk().fit(X).weights_, atol=1e-12)


def test_stacking_single_base_reproduces_it(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (150, 4)))
    plan = walk_forward(150, 60, 30)
    w = StackingOptimization([("ew", EqualWeighted())], EqualWeighted(), plan).fit(X).weights_
    np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-12)


@pytest.mark.parametrize("final", [EqualWeighted(), MeanRisk()],
                         ids=["equal_weighted", "mean_risk"])
def test_stacking_identical_bases_average(rng, final):
    # identical base series make the MeanRisk final stage's covariance singular
    X = make_returns(rng.normal(0.0005, 0.01, (150, 4)))
    plan = walk_forward(150, 60, 30)
    w_base = InverseVolatility().fit(X).weights_
    w = StackingOptimization([("a", InverseVolatility()), ("b", InverseVolatility())],
                             final, plan).fit(X).weights_
    np.testing.assert_allclose(w, w_base, atol=1e-10)


def test_stacking_cpcv_plan(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (150, 4)))
    cv = CpcvConfig(k=4, p=2, purge_horizon=1, embargo_fraction=0.01)
    w = StackingOptimization([("ew", EqualWeighted()), ("iv", InverseVolatility())],
                             MeanRisk(), cv).fit(X).weights_
    assert w.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.all(w >= -1e-9)


def test_stacking_needs_estimators(rng):
    X = make_returns(rng.normal(0, 0.01, (60, 2)))
    with pytest.raises(InvalidConfig):
        StackingOptimization([], EqualWeighted(), walk_forward(60, 30, 15)).fit(X)


def test_stacking_with_an_empty_plan_is_empty_cv(rng):
    X = make_returns(rng.normal(0, 0.01, (60, 2)))
    with pytest.warns(UserWarning, match="empty plan"):
        plan = walk_forward(60, 50, 20)
    with pytest.raises(EmptyCv):
        StackingOptimization([("ew", EqualWeighted())], EqualWeighted(), plan).fit(X)


@pytest.mark.parametrize("names", [("a", "a"), ("a", "")])
def test_stacking_rejects_repeated_or_empty_names(rng, names):
    # the names label the columns of the final stage's returns
    X = make_returns(rng.normal(0, 0.01, (60, 2)))
    estimators = [(name, EqualWeighted()) for name in names]
    with pytest.raises(InvalidConfig):
        StackingOptimization(estimators, EqualWeighted(), walk_forward(60, 30, 15)).fit(X)


def test_stacking_on_a_plain_array_is_config_error(rng):
    # the dates of a ReturnsMatrix place the out-of-sample blocks, with a
    # SplitPlan or with a config that plans from T
    values = rng.normal(0, 0.01, (60, 2))
    with pytest.raises(InvalidConfig, match="needs a ReturnsMatrix, got ndarray"):
        StackingOptimization([("ew", EqualWeighted())], EqualWeighted(),
                             walk_forward(60, 30, 15)).fit(values)
    with pytest.raises(InvalidConfig, match="needs a ReturnsMatrix"):
        StackingOptimization([("ew", EqualWeighted())], EqualWeighted()).fit(values)


def test_estimator_wrappers_fit_predict(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (130, 5)))
    for est in (EqualWeighted(), InverseVolatility(), HierarchicalRiskParity(),
                NestedClustersOptimization(k=2),
                StackingOptimization(estimators=[("ew", EqualWeighted()),
                                                 ("iv", InverseVolatility())],
                                     final_estimator=EqualWeighted())):
        est.fit(X)
        assert est.weights_.shape == (5,)
        assert est.weights_.sum() == pytest.approx(1.0, abs=1e-8)
        port = est.predict(X)
        np.testing.assert_allclose(port.returns, X.values @ est.weights_,
                                   atol=1e-12)
