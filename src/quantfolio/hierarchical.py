"""Non-convex allocators: HRP, NCO, stacking, and the two naive baselines.

scipy's clustering (`scipy.cluster.hierarchy`) is loaded by the first
`linkage_cluster` call or by building a `HierarchicalRiskParity` or a
`NestedClustersOptimization`, not by importing this module; a process that
never clusters, such as a mean-risk fit, does not load it.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, replace

from .base import BaseEstimator, clone
from .exceptions import EmptyCv, InvalidConfig, ZeroVarianceAsset, require_finite, require_int
from .market_data import ReturnsMatrix, returns_values
from .mean_risk import MeanRisk
from .measures import DEFAULT_BETA, RiskMeasure, risk_of_weights
from .model_selection import CpcvConfig, SplitPlan, WalkForwardConfig, cross_val_predict
from .priors import Prior, fit_prior


def corr_distance(sigma: np.ndarray) -> np.ndarray:
    """d_ij = sqrt((1 - rho_ij)/2); the canonical HRP distance."""
    sigma = np.asarray(sigma, dtype=float)
    d = np.diag(sigma)
    if np.any(d <= 0):
        raise ZeroVarianceAsset("covariance diagonal must be strictly positive")
    rho = sigma / np.sqrt(np.outer(d, d))
    rho = np.clip((rho + rho.T) / 2, -1.0, 1.0)
    dist = np.sqrt(np.clip((1.0 - rho) / 2.0, 0.0, None))
    np.fill_diagonal(dist, 0.0)
    return dist


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge tree: N-1 (node_a, node_b, height) triples.

    Leaves are 0..N-1; merge i creates node N+i. `leaf_order` is the seriation
    used by HRP's quasi-diagonalization.
    """

    merges: tuple[tuple[int, int, float], ...]
    leaf_order: tuple[int, ...]

    @property
    def n_leaves(self) -> int:
        return len(self.merges) + 1


def linkage_cluster(D: np.ndarray, method: str = "single") -> Dendrogram:
    """Agglomerative clustering of a distance matrix by scipy's `linkage`.

    Ward merges on squared distances and reports the square root as the
    height. Exact ties follow scipy's merge order, which is deterministic but
    depends on how the leaves are numbered. At each merge the child with the
    smaller mean distance to all other leaves is placed first, so away from
    ties the seriation depends only on the distances; that keeps HRP
    permutation-equivariant.
    """
    if method not in ("single", "average", "ward"):
        raise InvalidConfig(f"unknown linkage method {method!r}")
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if D.shape != (n, n):
        raise InvalidConfig("distance matrix must be square")
    if n == 1:
        return Dendrogram(merges=(), leaf_order=(0,))

    import scipy.cluster.hierarchy  # here, not at the top: only clustering needs it

    Z = scipy.cluster.hierarchy.linkage(D[np.triu_indices(n, 1)], method=method)
    row_mean = D.sum(axis=1) / (n - 1)  # orientation score, label-free
    # a cluster's score is the mean of its leaves' scores, kept as a running
    # sum per node; closer than `tie`, the two sums' rounding could decide, so
    # the means are then taken over the leaves as numpy sums them
    score_sum = row_mean.tolist() + [0.0] * (n - 1)
    tie = 1e-9 * float(np.abs(row_mean).max())
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []
    for i, (a, b, height, _) in enumerate(Z.tolist()):
        a, b = int(a), int(b)
        merges.append((a, b, height))
        ma, mb = members.pop(a), members.pop(b)
        score_a, score_b = score_sum[a] / len(ma), score_sum[b] / len(mb)
        if abs(score_a - score_b) <= tie:
            score_a, score_b = row_mean[ma].mean(), row_mean[mb].mean()
        members[n + i] = ma + mb if score_a <= score_b else mb + ma
        score_sum[n + i] = score_sum[a] + score_sum[b]
    return Dendrogram(merges=tuple(merges), leaf_order=tuple(members[2 * n - 2]))


def cut_clusters(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Labels 0..k-1 obtained by undoing the last k-1 merges; label order
    follows the first leaf of each cluster."""
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise InvalidConfig(f"k={k} outside [1, {n}]")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for idx, (a, b, _) in enumerate(dendrogram.merges[: n - k]):
        members[n + idx] = members.pop(a) + members.pop(b)
    clusters = sorted(members.values(), key=min)
    labels = np.zeros(n, dtype=int)
    for label, leaves in enumerate(clusters):
        labels[leaves] = label
    return labels


def silhouette_score(D: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over samples, computed on a precomputed distance matrix.

    One product `D @ onehot(labels)` gives every sample's distance sum to
    every cluster. A sample alone in its cluster scores 0, as does one whose
    mean distances to its own and to the nearest other cluster are both 0.
    """
    D = np.asarray(D, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    if labels.ndim != 1 or D.shape != (n, n):
        raise InvalidConfig(f"silhouette needs an n x n distance matrix and n labels, "
                            f"got {D.shape} and {labels.shape}")
    uniq, cluster, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if uniq.size < 2:
        raise InvalidConfig("silhouette needs at least 2 clusters")
    rows = np.arange(n)
    onehot = np.zeros((n, uniq.size))
    onehot[rows, cluster] = 1.0
    sums = D @ onehot
    own = counts[cluster]
    a = (sums[rows, cluster] - np.diag(D)) / np.maximum(own - 1, 1)
    means = sums / counts
    means[rows, cluster] = np.inf
    b = means.min(axis=1)
    scale = np.maximum(a, b)
    scores = np.zeros(n)
    scored = (own > 1) & (scale > 0)
    scores[scored] = (b[scored] - a[scored]) / scale[scored]
    return float(scores.mean())


def hrp(model: HierarchicalRiskParity, prior: Prior) -> np.ndarray:
    """Hierarchical Risk Parity of the model's measure, linkage and beta on
    `prior` (`model.prior_estimator` is not used): seriation plus recursive
    bisection.

    Each bisection splits weight in inverse proportion to the two sides'
    risks, each clipped at 0 first: CVaR and worst realization are negative on
    scenarios that never lose. A side at 0 takes the whole split, the limit of
    inverse-risk allocation; two sides at 0 split evenly. So every weight
    lies in [0, 1].

    The bisection tree depends only on the leaf order, so every split is
    listed first. Each side's inverse-variance portfolio is one column of an
    n×k matrix, one `risk_of_weights` call gives all k side risks, and a
    leaf's weight is the product of the split factors of the sides it lies
    on, root first.
    """
    require_finite("beta", model.beta)
    if not 0 < model.beta < 1:
        raise InvalidConfig("beta must lie in (0, 1)")
    n = prior.n_assets
    if n == 1:
        return np.ones(1)
    if np.any(np.diag(prior.sigma) <= 0):
        raise ZeroVarianceAsset("HRP needs strictly positive asset variances")
    tree = linkage_cluster(corr_distance(prior.sigma), method=model.linkage)
    order = np.array(tree.leaf_order)

    # splits as positions lo < mid < hi in the leaf order, parents first
    splits = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo > 1:
            mid = lo + (hi - lo) // 2
            splits.append((lo, mid, hi))
            stack += [(lo, mid), (mid, hi)]
    lo, mid, hi = np.array(splits).T[:, :, None]
    pos = np.arange(n)
    # row 2s holds split s's left side, row 2s + 1 its right side
    sides = np.empty((2 * len(splits), n), dtype=bool)
    sides[0::2] = (lo <= pos) & (pos < mid)
    sides[1::2] = (mid <= pos) & (pos < hi)

    # each side's inverse-variance portfolio, normalised in leaf order as
    # the bisection has always summed it
    ivp = np.where(sides, 1.0 / np.diag(prior.sigma)[order], 0.0)
    ivp /= ivp.sum(axis=1, keepdims=True)
    columns = np.empty((n, sides.shape[0]))
    columns[order] = ivp.T  # one column per side, in the assets' own order
    risk = np.maximum(risk_of_weights(columns, prior.sigma, prior.scenarios,
                                      model.risk_measure, beta=model.beta), 0.0)
    risk_l, risk_r = risk[0::2], risk[1::2]
    total = risk_l + risk_r
    alpha = 1.0 - np.divide(risk_l, total, out=np.full(total.size, 0.5), where=total > 0)
    factors = np.column_stack([alpha, 1.0 - alpha]).ravel()
    # a leaf's weight is the product of its sides' factors, root first
    weights = np.empty(n)
    weights[order] = np.prod(np.where(sides, factors[:, None], 1.0), axis=0)
    return weights / weights.sum()


def equal_weighted(n: int) -> np.ndarray:
    if n < 1:
        raise InvalidConfig("need at least one asset")
    return np.full(n, 1.0 / n)


def inverse_volatility(prior: Prior) -> np.ndarray:
    d = np.diag(prior.sigma)
    if np.any(d <= 0):
        raise ZeroVarianceAsset("inverse volatility needs positive variances")
    w = 1.0 / np.sqrt(d)
    return w / w.sum()


_DEFAULT_STACKING_CV = CpcvConfig(k=5, p=1, purge_horizon=1, embargo_fraction=0.01)


@dataclass(repr=False, eq=False)
class EqualWeighted(BaseEstimator):
    def fit(self, X, factors=None):
        self.weights_ = equal_weighted(returns_values(X).shape[1])
        return self


@dataclass(repr=False, eq=False)
class InverseVolatility(BaseEstimator):
    prior_estimator: BaseEstimator | None = None

    def fit(self, X, factors=None):
        self.prior_ = fit_prior(self.prior_estimator, X, factors)
        self.weights_ = inverse_volatility(self.prior_)
        return self


@dataclass(repr=False, eq=False)
class HierarchicalRiskParity(BaseEstimator):
    risk_measure: RiskMeasure = RiskMeasure.VARIANCE
    linkage: str = "single"
    prior_estimator: BaseEstimator | None = None
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        # loaded where the estimator is built, so that the backtest's forked
        # workers inherit scipy's clustering instead of each importing it
        import scipy.cluster.hierarchy  # noqa: F401

    def fit(self, X, factors=None):
        self.prior_ = fit_prior(self.prior_estimator, X, factors)
        self.weights_ = hrp(self, self.prior_)
        return self


@dataclass(repr=False, eq=False)
class NestedClustersOptimization(BaseEstimator):
    """Nested Clustering Optimization: intra-cluster fits, then a reduced
    inter-cluster problem on the cluster return series. Either stage is a
    MeanRisk() when its estimator is None."""

    inner_estimator: BaseEstimator | None = None
    outer_estimator: BaseEstimator | None = None
    k: int | str = "auto"
    linkage: str = "single"

    def __post_init__(self):
        # loaded where the estimator is built, so that the backtest's forked
        # workers inherit scipy's clustering instead of each importing it
        import scipy.cluster.hierarchy  # noqa: F401

    def fit(self, X, factors=None):
        k = self.k
        if k != "auto":
            require_int("k (an integer or 'auto')", k)
        values = returns_values(X)
        n = values.shape[1]
        inner = self.inner_estimator if self.inner_estimator is not None else MeanRisk()
        outer = self.outer_estimator if self.outer_estimator is not None else MeanRisk()

        prior = fit_prior(None, X)
        if n < 2:
            raise InvalidConfig("NCO needs at least 2 assets")
        D = corr_distance(prior.sigma)
        tree = linkage_cluster(D, method=self.linkage)
        if k == "auto":
            candidates = range(2, min(10, n - 1) + 1)
            k = max(candidates,
                    key=lambda kk: (silhouette_score(D, cut_clusters(tree, kk)), -kk),
                    default=1)  # fewer than 3 assets leave no cut to score
        labels = cut_clusters(tree, int(k))
        n_clusters = int(labels.max()) + 1

        intra = np.zeros((n, n_clusters))
        for c in range(n_clusters):
            cols = np.flatnonzero(labels == c)
            if cols.size == 1:
                intra[cols[0], c] = 1.0
                continue
            sub = X.take(cols=cols) if isinstance(X, ReturnsMatrix) else values[:, cols]
            intra[cols, c] = np.asarray(clone(inner).fit(sub).weights_, dtype=float)

        if n_clusters == 1:
            self.weights_ = intra[:, 0].copy()
            return self
        reduced = values @ intra
        if isinstance(X, ReturnsMatrix):
            reduced = replace(X, assets=tuple(f"cluster_{c}" for c in range(n_clusters)),
                              values=reduced)
        self.weights_ = intra @ np.asarray(clone(outer).fit(reduced).weights_, dtype=float)
        return self


@dataclass(repr=False, eq=False)
class StackingOptimization(BaseEstimator):
    """Stacked allocation: out-of-sample base series feed the final stage.

    `cv` is a SplitPlan or a config object with .plan(T). CPCV plans yield one
    series per path; paths are averaged into a single out-of-sample series per
    base. The weights are sum_k c_k * w_k rescaled to sum to 1, where c are
    the final stage's weights (a MeanRisk() when `final_estimator` is None)
    and w_k base k's weights fitted on all of X.
    """

    estimators: list[tuple[str, BaseEstimator]] | None = None
    final_estimator: BaseEstimator | None = None
    cv: CpcvConfig | WalkForwardConfig | SplitPlan = _DEFAULT_STACKING_CV
    n_jobs: int = 1

    def fit(self, X, factors=None):
        if not self.estimators:
            raise InvalidConfig("StackingOptimization needs at least one base estimator")
        names = tuple(name for name, _ in self.estimators)
        if "" in names or len(set(names)) != len(names):
            raise InvalidConfig(
                f"stacking estimator names must be distinct and non-empty: {names!r}")
        plan = self.cv if isinstance(self.cv, SplitPlan) else self.cv.plan(X.n_periods)
        if plan.n_splits == 0:
            raise EmptyCv("stacking cv plan is empty")

        oos_columns = []
        for result in cross_val_predict(list(self.estimators), X, plan, n_jobs=self.n_jobs):
            paths = result if isinstance(result, list) else [result]
            oos_columns.append(np.mean([p.returns for p in paths], axis=0))
        synthetic = ReturnsMatrix(dates=paths[0].dates, assets=names,
                                  values=np.column_stack(oos_columns), kind="simple")

        final = self.final_estimator if self.final_estimator is not None else MeanRisk()
        c = np.asarray(clone(final).fit(synthetic).weights_, dtype=float)
        base_weights = np.column_stack([
            np.asarray(clone(est).fit(X).weights_, dtype=float) for _, est in self.estimators
        ])
        w = base_weights @ c
        self.weights_ = w / w.sum()
        return self
