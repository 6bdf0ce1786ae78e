"""Golden dendrograms: seeded correlation distances x {single, average, ward}.

The fixture `golden_linkage.json` holds, per case, the merge pairs, merge
heights and leaf order of `linkage_cluster`, plus the `k` that a
`NestedClustersOptimization(k="auto")` fit picks and its weights on two
seeded panels. A change to the clustering must leave merge pairs and leaf
order exactly as they are, heights within 1e-12 and NCO weights within 1e-10.
Regenerate the fixture only when a change is meant to move the trees:

    PYTHONPATH=src python tests/test_golden_linkage.py --write
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from quantfolio import hierarchical
from quantfolio.hierarchical import NestedClustersOptimization, corr_distance, linkage_cluster

from conftest import make_returns

FIXTURE = Path(__file__).with_name("golden_linkage.json")
HEIGHT_ATOL = 1e-12
WEIGHT_ATOL = 1e-10
METHODS = ("single", "average", "ward")
N_MATRICES = 30
NCO_PANELS = (12, 20)


def _panel(seed: int, n: int) -> np.ndarray:
    """T x n daily-scale returns driven by a few block factors."""
    rng = np.random.default_rng(seed)
    T = 3 * n + 20
    groups = rng.integers(0, n // 5 + 1, n)
    factors = rng.normal(0.0, 1.0, (T, groups.max() + 1))
    loadings = rng.uniform(0.3, 1.5, n)
    return 0.01 * (0.05 + rng.normal(0.0, 1.0, (T, n)) + factors[:, groups] * loadings)


def _distance(seed: int) -> np.ndarray:
    n = 2 + round(seed * 48 / (N_MATRICES - 1))  # 2 .. 50
    return corr_distance(np.cov(_panel(seed, n), rowvar=False))


def _tree_case(seed: int, method: str) -> dict:
    tree = linkage_cluster(_distance(seed), method=method)
    return {
        "pairs": [[a, b] for a, b, _ in tree.merges],
        "heights": [h for _, _, h in tree.merges],
        "leaf_order": list(tree.leaf_order),
    }


def _nco_case(n: int) -> dict:
    """The k that NCO's silhouette search settles on, and the weights it returns."""
    picked = []
    original = hierarchical.cut_clusters

    def recording(tree, k):
        picked.append(k)
        return original(tree, k)

    hierarchical.cut_clusters = recording
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            weights = NestedClustersOptimization(k="auto").fit(
                make_returns(_panel(100 + n, n))).weights_
    finally:
        hierarchical.cut_clusters = original
    return {"k": picked[-1], "weights": weights.tolist()}


def _cases() -> list[str]:
    trees = [f"tree/{seed}/{method}" for seed in range(N_MATRICES) for method in METHODS]
    return trees + [f"nco/{n}" for n in NCO_PANELS]


def run_case(name: str) -> dict:
    kind, *args = name.split("/")
    if kind == "tree":
        return _tree_case(int(args[0]), args[1])
    return _nco_case(int(args[0]))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("name", [c for c in _cases() if c.startswith("tree/")])
def test_golden_tree(name, golden):
    want, got = golden[name], run_case(name)
    assert got["pairs"] == want["pairs"]
    assert got["leaf_order"] == want["leaf_order"]
    np.testing.assert_allclose(got["heights"], want["heights"], rtol=0, atol=HEIGHT_ATOL)


@pytest.mark.parametrize("name", [c for c in _cases() if c.startswith("nco/")])
def test_golden_nco_auto_k(name, golden):
    want, got = golden[name], run_case(name)
    assert got["k"] == want["k"]
    np.testing.assert_allclose(got["weights"], want["weights"], rtol=0, atol=WEIGHT_ATOL)


@pytest.mark.parametrize("method", METHODS)
def test_tied_distances_give_one_tree(method):
    # duplicated columns tie at distance 0; the tree must not depend on the call
    base = np.random.default_rng(7).normal(0.0, 1.0, (60, 3))
    D = corr_distance(np.cov(base[:, [0, 1, 0, 2, 1, 0]], rowvar=False))
    first = linkage_cluster(D, method=method)
    assert all(linkage_cluster(D, method=method) == first for _ in range(3))
    assert sorted(first.leaf_order) == list(range(6))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {name: run_case(name) for name in _cases()}
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {FIXTURE}")
