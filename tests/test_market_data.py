import datetime
import io

import numpy as np
import pytest

from quantfolio.exceptions import (
    DegenerateSplit,
    EmptyIntersection,
    InvalidConfig,
    MalformedCsv,
    MissingCell,
    NonMonotonicDates,
    NonPositivePrice,
    TooFewRows,
)
from quantfolio.market_data import (
    PriceFrame,
    ReturnsMatrix,
    align,
    load_prices,
    prices_to_returns,
    time_split,
)

from conftest import make_returns

CSV = "date,AAA,BBB\n2020-01-01,100,50\n2020-01-02,110,51\n2020-01-03,99,52\n"


def test_load_prices_basic():
    frame = load_prices(CSV)
    assert frame.assets == ("AAA", "BBB")
    assert frame.n_periods == 3
    assert frame.dates[0] == datetime.date(2020, 1, 1)
    np.testing.assert_allclose(frame.values[:, 0], [100.0, 110.0, 99.0])


def test_load_prices_sources_agree(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(CSV)
    from_path = load_prices(str(path))
    from_bytes = load_prices(CSV.encode())
    from_file = load_prices(io.StringIO(CSV))
    np.testing.assert_array_equal(from_path.values, from_bytes.values)
    np.testing.assert_array_equal(from_path.values, from_file.values)


@pytest.mark.parametrize("read", [
    lambda path: load_prices(path),
    lambda path: load_prices(str(path)),
    lambda path: load_prices(path.read_bytes()),
    lambda path: load_prices(io.BytesIO(path.read_bytes())),
    lambda path: load_prices(io.StringIO(path.read_text(encoding="utf-8"))),
    lambda path: load_prices(path.read_text(encoding="utf-8")),
], ids=["path", "str_path", "bytes", "binary_file", "text_file", "text"])
def test_load_prices_drops_a_leading_byte_order_mark(tmp_path, read):
    # Excel's "CSV UTF-8" starts the file with U+FEFF, which once made the
    # first header read as '\ufeffdate'
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(CSV, encoding="utf-8")
    bom.write_text(CSV, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = read(plain), read(bom)
    assert (got.dates, got.assets) == (want.dates, want.assets)
    np.testing.assert_array_equal(got.values, want.values)


def test_load_prices_trailing_blank_line_ok():
    frame = load_prices(CSV + "\n")
    assert frame.n_periods == 3


@pytest.mark.parametrize("text,exc", [
    ("", MalformedCsv),
    ("date,AAA\n", MalformedCsv),  # header only
    ("time,AAA\n2020-01-01,1\n", MalformedCsv),  # wrong first header
    ("date\n2020-01-01\n", MalformedCsv),  # no asset columns
    ("date,AAA\nnot-a-date,1\n", MalformedCsv),
    ("date,AAA\n2020-01-01,oops\n", MalformedCsv),
    ("date,AAA,BBB\n2020-01-01,1\n", MissingCell),  # short row
    ("date,AAA\n2020-01-01,\n", MissingCell),  # empty cell
    ("date,AAA\n2020-01-01,nan\n", MissingCell),
    ("date,AAA\n2020-01-02,1\n2020-01-01,2\n", NonMonotonicDates),
    ("date,AAA\n2020-01-01,1\n2020-01-01,2\n", NonMonotonicDates),  # duplicate
    ("date,AAA\n2020-01-01,0\n", NonPositivePrice),
    ("date,AAA\n2020-01-01,-3\n", NonPositivePrice),
    ("date,A,A,B\n2020-01-01,1,2,3\n", MalformedCsv),  # repeated asset name
    ("date,A, ,B\n2020-01-01,1,2,3\n", MalformedCsv),  # empty asset name
])
def test_load_prices_rejects(text, exc):
    with pytest.raises(exc):
        load_prices(text)


def test_simple_returns_fixture():
    # [DERIVED] prices 100 -> 110 -> 99 give returns +10% then -10%
    frame = load_prices("date,AAA\n2020-01-01,100\n2020-01-02,110\n2020-01-03,99\n")
    rm = prices_to_returns(frame)
    np.testing.assert_allclose(rm.values[:, 0], [0.10, -0.10], atol=1e-15)
    assert rm.dates == frame.dates[1:]
    assert rm.kind == "simple"


def test_log_returns_fixture():
    # [DERIVED] price ratio e gives log return exactly 1
    frame = load_prices(f"date,AAA\n2020-01-01,100\n2020-01-02,{100 * np.e}\n")
    rm = prices_to_returns(frame, kind="log")
    np.testing.assert_allclose(rm.values[0, 0], 1.0, atol=1e-12)
    assert rm.kind == "log"


def test_unknown_returns_kind_is_invalid_config():
    frame = load_prices("date,AAA\n2020-01-01,100\n2020-01-02,101\n")
    with pytest.raises(InvalidConfig, match="kind must be 'simple' or 'log', got 'weird'"):
        prices_to_returns(frame, kind="weird")
    with pytest.raises(InvalidConfig, match="got 'weird'"):
        make_returns(np.zeros((2, 1)), kind="weird")


def test_returns_need_two_rows():
    frame = load_prices("date,AAA\n2020-01-01,100\n")
    with pytest.raises(TooFewRows):
        prices_to_returns(frame)


def test_round_trip_prices_returns(rng):
    prices = np.cumprod(1 + rng.normal(0, 0.01, (50, 4)), axis=0) * 100
    dates = tuple(datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(50))
    frame = PriceFrame(dates=dates, assets=("a", "b", "c", "d"), values=prices)
    rm = prices_to_returns(frame)
    rebuilt = prices[0] * np.cumprod(1 + rm.values, axis=0)
    np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-12)


def _frame(dates, n=2, base=100.0):
    values = np.full((len(dates), n), base)
    return PriceFrame(dates=tuple(dates), assets=tuple(f"x{i}" for i in range(n)), values=values)


def test_align_intersection():
    d = [datetime.date(2020, 1, i) for i in range(1, 6)]
    a = _frame(d[:4])
    b = _frame(d[1:])
    ra, rb = align(a, b)
    assert ra.dates == rb.dates == tuple(d[1:4])
    # idempotent on already aligned frames
    ra2, rb2 = align(ra, rb)
    assert ra2.dates == ra.dates


def test_align_disjoint_raises():
    a = _frame([datetime.date(2020, 1, 1)])
    b = _frame([datetime.date(2021, 1, 1)])
    with pytest.raises(EmptyIntersection):
        align(a, b)


def test_time_split_fixture():
    # [DERIVED] T=10, fraction 0.2 -> 8 train rows, 2 test rows
    rm = make_returns(np.zeros((10, 2)))
    train, test = time_split(rm, 0.2)
    assert (train.n_periods, test.n_periods) == (8, 2)
    assert train.dates + test.dates == rm.dates


def test_time_split_minimum_one_test_row():
    rm = make_returns(np.zeros((5, 2)))
    train, test = time_split(rm, 0.05)
    assert (train.n_periods, test.n_periods) == (4, 1)


def test_time_split_degenerate():
    rm = make_returns(np.zeros((1, 2)))
    with pytest.raises(DegenerateSplit):
        time_split(rm, 0.5)


def test_time_split_bad_fraction():
    rm = make_returns(np.zeros((10, 2)))
    with pytest.raises(ValueError):
        time_split(rm, 1.0)


@pytest.mark.parametrize("assets", [("a", "a"), ("a", "")])
def test_returns_matrix_rejects_repeated_or_empty_names(assets):
    rm = make_returns(np.zeros((3, 2)))
    with pytest.raises(MalformedCsv):
        ReturnsMatrix(dates=rm.dates, assets=assets, values=rm.values)


def test_take_slices_rows_and_columns():
    rm = make_returns(np.arange(12.0).reshape(4, 3) / 100, kind="log")
    sub = rm.take(np.array([1, 3]), np.array([2, 0]))
    assert sub.dates == (rm.dates[1], rm.dates[3])
    assert sub.assets == ("A2", "A0")
    np.testing.assert_array_equal(sub.values, rm.values[[1, 3]][:, [2, 0]])
    assert sub.kind == "log" and type(sub) is ReturnsMatrix
    head = rm.take(slice(0, 2))
    assert head.dates == rm.dates[:2] and head.assets == rm.assets
    assert rm.take(cols=[1]).values.shape == (4, 1)


@pytest.mark.parametrize("rows, cols", [
    (slice(1, 4), slice(None, None, -1)),
    ([0, 2, 4], [2]),
    (np.array([0, 3, 4]), np.array([1, -3])),
    (np.zeros(0, dtype=int), []),
    ([], np.array([], dtype=int)),
])
def test_take_matches_a_reference_pick(rows, cols):
    rm = make_returns(np.arange(15.0).reshape(5, 3) / 100)

    def reference(labels, idx):
        return labels[idx] if isinstance(idx, slice) else tuple(labels[int(i)] for i in idx)

    sub = rm.take(rows, cols)
    assert sub.dates == reference(rm.dates, rows)
    assert sub.assets == reference(rm.assets, cols)
    np.testing.assert_array_equal(sub.values, rm.values[rows][:, cols])
    assert type(sub.dates) is tuple and type(sub.assets) is tuple


def test_out_of_order_dates_name_the_first_offending_date():
    rm = make_returns(np.zeros((5, 1)))
    d = rm.dates
    with pytest.raises(NonMonotonicDates, match=f"at {d[1]}$"):
        ReturnsMatrix(dates=(d[2], d[1], d[0], d[3], d[4]), assets=rm.assets,
                      values=rm.values)
    with pytest.raises(NonMonotonicDates, match=f"at {d[3]}$"):
        rm.take([0, 1, 3, 3])


def test_take_validates_like_the_constructor():
    rm = make_returns(np.zeros((3, 2)))
    with pytest.raises(NonMonotonicDates):
        rm.take([2, 0])
    with pytest.raises(MalformedCsv):
        rm.take(cols=[0, 0])


def test_returns_matrix_is_not_a_price_frame():
    assert not isinstance(make_returns(np.zeros((2, 2))), PriceFrame)


def test_panel_values_are_read_only():
    rm = make_returns(np.arange(12.0).reshape(4, 3) / 100)
    for panel in (rm, rm.take([0, 2]), rm.take(slice(1, 3), [2, 0]), rm.take(cols=slice(0, 2))):
        assert not panel.values.flags.writeable
        with pytest.raises(ValueError):
            panel.values[0, 0] = 1.0


def test_panel_leaves_a_callers_array_alone():
    values = np.arange(12.0).reshape(4, 3) / 100
    before = values.copy()
    rm = make_returns(values)
    assert values.flags.writeable
    assert not np.shares_memory(rm.values, values)
    values[0, 0] = 9.0  # the caller may still write its own array
    np.testing.assert_array_equal(rm.values, before)
    values[0, 0] = before[0, 0]
    np.testing.assert_array_equal(values, before)
    view = make_returns(values[1:])
    assert values.flags.writeable and not np.shares_memory(view.values, values)
    # an array that numpy wraps without a copy, as it does a memoryview
    wrapped = ReturnsMatrix(dates=rm.dates, assets=rm.assets, values=memoryview(values))
    assert not np.shares_memory(wrapped.values, values)


def test_read_only_values_are_not_copied():
    rm = make_returns(np.arange(12.0).reshape(4, 3) / 100)
    assert np.shares_memory(rm.take(slice(1, 3)).values, rm.values)
    same = ReturnsMatrix(dates=rm.dates, assets=rm.assets, values=rm.values)
    assert same.values is rm.values
