"""CSV price ingestion, price-to-return conversion, alignment, chronological splits."""

from __future__ import annotations

import csv
import datetime
import functools
import io
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    DegenerateSplit,
    EmptyIntersection,
    InvalidConfig,
    MalformedCsv,
    MissingCell,
    NonMonotonicDates,
    NonPositivePrice,
    TooFewRows,
    require_finite,
)


@dataclass(frozen=True)
class _Panel:
    """T×N values on a strictly increasing date axis, one distinct name per column.

    `values` is read-only. It is copied only where it would alias a writable
    array of the caller; a view of read-only values is kept as it is.
    """

    dates: tuple[datetime.date, ...]
    assets: tuple[str, ...]
    values: np.ndarray

    _noun = "value"  # names the values in the non-finite message

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable and (values is self.values or values.base is not None):
            values = values.copy()  # the caller's memory, which the caller may still write
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.dates), len(self.assets)):
            raise MalformedCsv(
                f"shape {values.shape} does not match {len(self.dates)} dates × {len(self.assets)} assets"
            )
        if "" in self.assets or len(set(self.assets)) != len(self.assets):
            raise MalformedCsv(f"asset names must be distinct and non-empty, got {self.assets!r}")
        dates = self.dates
        if not all(map(operator.lt, dates, dates[1:])):
            b = next(b for a, b in zip(dates, dates[1:]) if not a < b)
            raise NonMonotonicDates(f"dates not strictly increasing at {b}")
        if not np.all(np.isfinite(values)):
            raise MissingCell(f"non-finite {self._noun}")

    @property
    def n_periods(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def take(self, rows=slice(None), cols=slice(None)):
        """The panel restricted to `rows` and `cols`, each a slice or an index array."""

        def pick(labels, idx):
            if isinstance(idx, slice):
                return labels[idx]
            return tuple(map(labels.__getitem__, np.asarray(idx, dtype=int).tolist()))

        values = self.values[rows][:, cols]
        values.flags.writeable = False  # read-only, or a copy of its own: no copy needed
        return replace(self, dates=pick(self.dates, rows), assets=pick(self.assets, cols),
                       values=values)


@dataclass(frozen=True)
class PriceFrame(_Panel):
    """T×N positive prices on a strictly increasing date axis."""

    _noun = "price"

    def __post_init__(self):
        super().__post_init__()
        if self.values.size and self.values.min() <= 0:
            raise NonPositivePrice(f"minimum price {self.values.min()} is not > 0")


@dataclass(frozen=True)
class ReturnsMatrix(_Panel):
    """T×N per-period returns; `kind` records the convention used to build them.

    Its values are read-only, so it keeps its sample estimate: `sample_estimate`
    (what `moments.sample_moments` returns for it) is computed on first use
    and then shared. `take` and `dataclasses.replace` build new instances,
    which estimate their own.
    """

    kind: str = "simple"

    _noun = "return"

    def __post_init__(self):
        if self.kind not in ("simple", "log"):
            raise InvalidConfig(f"kind must be 'simple' or 'log', got {self.kind!r}")
        super().__post_init__()
        if self.kind == "simple" and self.values.size and self.values.min() <= -1:
            raise NonPositivePrice("simple return ≤ −1 implies non-positive price")

    @functools.cached_property
    def sample_estimate(self):
        """The sample moments of these returns, with read-only `mu` and `sigma`."""
        from . import moments  # moments imports this module

        est = moments.sample_moments(self.values)
        est.mu.flags.writeable = est.sigma.flags.writeable = False
        return est


def returns_values(X) -> np.ndarray:
    """The T×N values of a ReturnsMatrix or of a 2-D array."""
    values = X.values if isinstance(X, ReturnsMatrix) else np.asarray(X, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a T×N matrix")
    return values


def _parse_date(text: str, row: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise MalformedCsv(f"row {row}: cannot parse date {text!r}") from exc


def load_prices(source) -> PriceFrame:
    """Parse a CSV price history (`date,ASSET1,ASSET2,...`) into a PriceFrame.

    `source` may be a path, bytes, str, or a readable file object. A str is
    read as a file name only when it holds no comma and no newline; otherwise
    it is CSV text. Pass a `pathlib.Path` to read a file whose name may
    contain a comma. One leading byte order mark, as Excel's "CSV UTF-8"
    writes, is dropped from every kind of source.
    """
    if isinstance(source, bytes):
        stream = io.StringIO(source.decode("utf-8-sig"))
    elif isinstance(source, str) and source and "\n" not in source and "," not in source:
        stream = open(source, "r", encoding="utf-8-sig", newline="")
    elif isinstance(source, str):
        stream = io.StringIO(source.removeprefix("\ufeff"))
    elif hasattr(source, "read"):
        raw = source.read()
        stream = io.StringIO(raw.decode("utf-8-sig") if isinstance(raw, bytes)
                             else raw.removeprefix("\ufeff"))
    else:
        stream = open(source, "r", encoding="utf-8-sig", newline="")

    with stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv("empty file")
        if not header or header[0].strip().lower() != "date":
            raise MalformedCsv(f"first column header must be 'date', got {header[:1]!r}")
        assets = tuple(h.strip() for h in header[1:])
        if not assets:
            raise MalformedCsv("no asset columns")

        dates: list[datetime.date] = []
        rows: list[list[float]] = []
        for i, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue  # tolerate trailing blank line
            if len(record) != len(assets) + 1:
                raise MissingCell(f"row {i}: expected {len(assets) + 1} cells, got {len(record)}")
            dates.append(_parse_date(record[0], i))
            row = []
            for j, cell in enumerate(record[1:], start=1):
                text = cell.strip()
                if not text:
                    raise MissingCell(f"row {i}, column {header[j]}: empty cell")
                try:
                    value = float(text)
                except ValueError as exc:
                    raise MalformedCsv(f"row {i}, column {header[j]}: {text!r}") from exc
                if not math.isfinite(value):
                    raise MissingCell(f"row {i}, column {header[j]}: non-finite value")
                row.append(value)
            rows.append(row)

    if not rows:
        raise MalformedCsv("no data rows")
    return PriceFrame(dates=tuple(dates), assets=assets, values=np.array(rows, dtype=float))


def prices_to_returns(prices: PriceFrame, kind: str = "simple") -> ReturnsMatrix:
    """Convert prices to per-period returns; the return date is the later date of each pair."""
    if prices.n_periods < 2:
        raise TooFewRows("need at least 2 price rows to form returns")
    ratio = prices.values[1:] / prices.values[:-1]
    values = np.log(ratio) if kind == "log" else ratio - 1.0
    return ReturnsMatrix(dates=prices.dates[1:], assets=prices.assets, values=values, kind=kind)


def align(prices: PriceFrame, factor_prices: PriceFrame) -> tuple[PriceFrame, PriceFrame]:
    """Restrict both frames to their common dates, preserving chronological order."""
    common = set(prices.dates) & set(factor_prices.dates)
    if not common:
        raise EmptyIntersection("no common dates between the two frames")
    return tuple(frame.take([i for i, d in enumerate(frame.dates) if d in common])
                 for frame in (prices, factor_prices))


def time_split(X: ReturnsMatrix, test_fraction: float) -> tuple[ReturnsMatrix, ReturnsMatrix]:
    """Chronological train/test split; test = trailing floor(T·fraction) rows, at least 1."""
    require_finite("test_fraction", test_fraction)
    if not 0 < test_fraction < 1:
        raise InvalidConfig(f"test_fraction must be in (0, 1), got {test_fraction}")
    T = X.n_periods
    n_test = max(1, int(T * test_fraction))
    n_train = T - n_test
    if n_train < 1:
        raise DegenerateSplit(f"T={T} leaves no training rows for test_fraction={test_fraction}")
    return X.take(slice(0, n_train)), X.take(slice(n_train, T))
