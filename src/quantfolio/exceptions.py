"""Exception taxonomy shared across the package."""


class QuantfolioError(Exception):
    """Base class for all quantfolio errors."""


# --- data ingestion / market data ---

class MalformedCsv(QuantfolioError):
    pass


class NonMonotonicDates(QuantfolioError):
    pass


class NonPositivePrice(QuantfolioError):
    pass


class MissingCell(QuantfolioError):
    pass


class TooFewRows(QuantfolioError):
    pass


class EmptyIntersection(QuantfolioError):
    pass


class DegenerateSplit(QuantfolioError):
    pass


class DateMisalignment(QuantfolioError):
    pass


# --- series / estimation ---

class EmptySeries(QuantfolioError):
    pass


class TooFewSamples(QuantfolioError):
    pass


class SingularCovariance(QuantfolioError):
    pass


class DecompositionFailure(QuantfolioError):
    pass


class ZeroVarianceAsset(QuantfolioError):
    pass


# --- priors ---

class SingularSystem(QuantfolioError):
    pass


class DimensionMismatch(QuantfolioError):
    pass


# --- optimization ---

class UnsupportedMeasure(QuantfolioError):
    pass


class InfeasibleProblem(QuantfolioError):
    pass


class UnboundedProblem(QuantfolioError):
    pass


class SolverFailure(QuantfolioError):
    pass


class AssetMismatch(QuantfolioError):
    pass


# --- model selection / analytics / cli ---

class EmptyCv(QuantfolioError):
    pass


class EmptyPopulation(QuantfolioError):
    pass


class InvalidConfig(QuantfolioError, ValueError):
    """A hyper-parameter or config value outside its domain."""
