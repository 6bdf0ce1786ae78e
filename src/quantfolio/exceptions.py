"""Exception taxonomy shared across the package, and the config-value checks."""

import numpy as np


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


def require_real(name, value, array=False):
    """Reject anything but a real number, ±inf allowed; with array=True, any
    array of them. A list is not a number, even an empty one."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged nesting of lists
        raise InvalidConfig(f"{name} must be real numbers, got {value!r}") from exc
    if arr.ndim and not array:
        raise InvalidConfig(f"{name} must be a single number, got {value!r}")
    if arr.dtype.kind not in "iuf" or np.any(np.isnan(arr)):
        raise InvalidConfig(f"{name} must be real numbers, got {value!r}")
    return arr


def require_finite(name, value, array=False):
    """Reject anything but a finite real number (any array of them with array=True)."""
    if not np.all(np.isfinite(require_real(name, value, array))):
        raise InvalidConfig(f"{name} must be finite real numbers, got {value!r}")


def require_int(name, value):
    """Reject anything but an integer; a bool or a float such as 2.0 is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def require_bool(name, value):
    """Reject anything but a boolean; the string "false" is not one."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidConfig(f"{name} must be true or false, got {value!r}")
