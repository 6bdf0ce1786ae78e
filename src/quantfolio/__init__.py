"""quantfolio: portfolio construction and backtesting toolkit.

Convex mean-risk optimization over seven risk measures, robust moment
estimators, hierarchical allocators, and leakage-aware cross-validation,
with a batch CLI front end.
"""

from .analytics import (
    MultiPeriodPortfolio,
    Population,
    Portfolio,
    frontier_report,
    population_summary,
    predict,
    summary,
)
from .base import BaseEstimator, clone
from .exceptions import QuantfolioError
from .hierarchical import (
    Dendrogram,
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
from .market_data import (
    PriceFrame,
    ReturnsMatrix,
    align,
    load_prices,
    prices_to_returns,
    time_split,
)
from .mean_risk import (
    FrontierPoint,
    MeanRisk,
    ObjectiveFunction,
    efficient_frontier,
    optimize,
    portfolio_risk,
)
from .measures import (
    DEFAULT_BETA,
    RiskMeasure,
    cdar,
    cvar,
    drawdown_path,
    max_drawdown,
    mean_absolute_deviation,
    measure_value,
    standard_deviation,
    variance,
    worst_realization,
)
from .model_selection import (
    CpcvConfig,
    SplitPlan,
    WalkForwardConfig,
    cpcv,
    cross_val_predict,
    walk_forward,
)
from .moments import (
    MomentEstimate,
    bayes_stein,
    denoise_rmt,
    ew_moments,
    gerber,
    ledoit_wolf,
    sample_moments,
)
from .priors import (
    BlackLitterman,
    EmpiricalPrior,
    FactorModel,
    Prior,
    ViewSet,
    black_litterman_prior,
)

__version__ = "0.1.0"

__all__ = [
    "BaseEstimator", "BlackLitterman", "CpcvConfig", "DEFAULT_BETA",
    "Dendrogram", "EmpiricalPrior", "EqualWeighted", "FactorModel",
    "FrontierPoint", "HierarchicalRiskParity", "InverseVolatility",
    "MeanRisk", "MomentEstimate", "MultiPeriodPortfolio",
    "NestedClustersOptimization", "ObjectiveFunction", "Population",
    "Portfolio", "PriceFrame", "Prior", "QuantfolioError", "ReturnsMatrix",
    "RiskMeasure", "SplitPlan", "StackingOptimization", "ViewSet",
    "WalkForwardConfig", "align", "bayes_stein", "black_litterman_prior",
    "cdar", "clone", "corr_distance", "cpcv", "cross_val_predict",
    "cut_clusters", "cvar", "denoise_rmt", "drawdown_path",
    "efficient_frontier", "equal_weighted", "ew_moments", "frontier_report",
    "gerber", "hrp", "inverse_volatility", "ledoit_wolf", "linkage_cluster",
    "load_prices", "max_drawdown", "mean_absolute_deviation", "measure_value",
    "optimize", "population_summary", "portfolio_risk", "predict",
    "prices_to_returns", "sample_moments", "silhouette_score",
    "standard_deviation", "summary", "time_split", "variance", "walk_forward",
    "worst_realization",
]
