import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natbeta.panel_io import (
    PanelFormatError,
    RawPanel,
    parse_panel,
    serialize_panel,
)


def test_parse_minimal():
    panel = parse_panel("year,value,flow\n2001,2,1\n2002,8,2\n")
    assert panel.n == 2
    assert panel.years == (2001, 2002)
    np.testing.assert_array_equal(panel.value, [2.0, 8.0])
    np.testing.assert_array_equal(panel.flow, [1.0, 2.0])
    assert panel.instruments == {}


def test_parse_duplicate_year():
    with pytest.raises(PanelFormatError, match="duplicate year"):
        parse_panel("year,value,flow\n2001,2,1\n2001,3,1\n")


def test_parse_years_must_increase():
    with pytest.raises(PanelFormatError, match="strictly increasing"):
        parse_panel("year,value,flow\n2002,2,1\n2001,3,1\n")


def test_parse_ragged_row_reports_line():
    with pytest.raises(PanelFormatError, match="line 3"):
        parse_panel("year,value,flow\n2001,2,1\n2002,8\n")


def test_parse_non_numeric_cell():
    with pytest.raises(PanelFormatError, match="non-numeric cell"):
        parse_panel("year,value,flow\n2001,2,abc\n")


def test_parse_non_integer_year():
    with pytest.raises(PanelFormatError, match="non-integer year"):
        parse_panel("year,value,flow\n2001.5,2,1\n")


def test_parse_bad_header():
    with pytest.raises(PanelFormatError, match="header"):
        parse_panel("yr,val,flow\n2001,2,1\n")


def test_parse_bad_instrument_name():
    with pytest.raises(PanelFormatError, match="iv_"):
        parse_panel("year,value,flow,inst\n2001,2,1,0.5\n")


def test_parse_nineteen_rows_four_instruments():
    header = "year,value,flow,iv_a,iv_b,iv_c,iv_d"
    rows = [f"{2000 + i},{1.0 + i},{0.5 + i},{0.1 * i},{0.2 * i},{0.3 * i},{0.4 * i}"
            for i in range(19)]
    panel = parse_panel(header + "\n" + "\n".join(rows))
    assert panel.n == 19
    assert list(panel.instruments) == ["iv_a", "iv_b", "iv_c", "iv_d"]
    assert all(len(v) == 19 for v in panel.instruments.values())


def test_round_trip_exact():
    text = (
        "year,value,flow,iv_z\n"
        "1999,0.1234567890123456,7.000000001,-3.5\n"
        "2000,1e-12,2.25,0.0\n"
    )
    panel = parse_panel(text)
    assert parse_panel(serialize_panel(panel)) == panel


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=12,
    ),
    st.integers(min_value=-5000, max_value=5000),
)
def test_round_trip_property(values, start_year):
    n = len(values)
    flow = [abs(v) * 0.5 + 1e-30 for v in values]
    panel = RawPanel(
        years=tuple(range(start_year, start_year + n)),
        value=np.array(values),
        flow=np.array(flow),
    )
    assert parse_panel(serialize_panel(panel)) == panel


def test_non_finite_rejected_at_construction():
    with pytest.raises(PanelFormatError, match="non-finite"):
        RawPanel(years=(2001, 2002), value=np.array([1.0, np.nan]), flow=np.array([1.0, 2.0]))


def test_length_mismatch_rejected():
    with pytest.raises(PanelFormatError, match="length"):
        RawPanel(years=(2001, 2002), value=np.array([1.0]), flow=np.array([1.0, 2.0]))


@pytest.mark.parametrize("years,columns,message", [
    # the first faulty column in order, its length before its values
    ((2001, 2002, 2003), {"value": [1, math.nan, 1], "flow": [1, 2]},
     "non-finite entry in column 'value' at data row 2"),
    ((2001, 2002, 2003), {"value": [1, 2], "flow": [math.inf, 1, 1]},
     "column 'value' has length 2, expected 3"),
    ((2001, 2002, 2003), {"value": [1, 2, 3], "flow": [1, 2, 3], "iv_a": [1, 2],
                          "iv_b": [math.nan] * 3}, "column 'iv_a' has length 2, expected 3"),
    ((2001, 2002, 2003), {"value": [1, 2, 3], "flow": [1, 2, 3], "iv_a": [1, 2, -math.inf]},
     "non-finite entry in column 'iv_a' at data row 3"),
    # years only once every column is sound; the first pair out of order
    ((2001, 2001, 2000), {"value": [1, 2, 3], "flow": [1, math.nan, 3]},
     "non-finite entry in column 'flow' at data row 2"),
    ((2001, 2003, 2002, 2002), {"value": [1, 2, 3, 4], "flow": [1, 2, 3, 4]},
     "years must be strictly increasing (2003 then 2002)"),
    ((2001, 2002, 2003, 2003), {"value": [1, 2, 3, 4], "flow": [1, 2, 3, 4]},
     "years must be strictly increasing (2003 then 2003)"),
])
def test_construction_names_the_first_fault(years, columns, message):
    value, flow, instruments = columns.pop("value"), columns.pop("flow"), columns
    with pytest.raises(PanelFormatError, match=f"^{re.escape(message)}$"):
        RawPanel(years=years, value=value, flow=flow, instruments=instruments)


def test_too_long_field_is_a_format_error():
    big = "9" * 200_000
    with pytest.raises(PanelFormatError, match=r"^line 3: field larger than field limit"):
        parse_panel(f"year,value,flow\n2001,1,1\n2002,1,{big}\n")
    with pytest.raises(PanelFormatError, match=r"^line 1: field larger than field limit"):
        parse_panel(f"year,value,flow,iv_{big}\n2001,1,1\n")
    # a fault in an earlier row comes first
    with pytest.raises(PanelFormatError, match=r"^line 2: non-numeric cell 'x'"):
        parse_panel(f"year,value,flow\n2001,1,x\n2002,1,{big}\n")


# Reference implementations: the row-by-row parser and per-cell serializer
# that parse_panel and serialize_panel replaced.  The column-at-a-time code
# must return equal panels, raise the same messages and emit the same bytes.

def reference_parse_panel(text: str) -> RawPanel:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    if tuple(header[:3]) != ("year", "value", "flow"):
        raise PanelFormatError(
            f"header must start with 'year,value,flow', got {','.join(header) or '<empty>'!r}"
        )
    iv_names = header[3:]
    for name in iv_names:
        if not name.startswith("iv_") or len(name) <= 3:
            raise PanelFormatError(f"instrument column {name!r} must be named 'iv_<name>'")
    if len(set(iv_names)) != len(iv_names):
        raise PanelFormatError("duplicate instrument column names")

    def parse_float(cell, column, line_no):
        try:
            v = float(cell.strip())
        except ValueError:
            raise PanelFormatError(
                f"line {line_no}: non-numeric cell {cell!r} in column '{column}'") from None
        if math.isnan(v) or math.isinf(v):
            raise PanelFormatError(f"line {line_no}: non-finite cell in column '{column}'")
        return v

    years, value, flow = [], [], []
    ivs = {name: [] for name in iv_names}
    seen_years = set()
    width = len(header)
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise PanelFormatError(
                f"line {line_no}: expected {width} columns, got {len(row)} (ragged row)")
        try:
            year = int(row[0].strip())
        except ValueError:
            raise PanelFormatError(f"line {line_no}: non-integer year {row[0]!r}") from None
        if year in seen_years:
            raise PanelFormatError(f"line {line_no}: duplicate year {year}")
        seen_years.add(year)
        years.append(year)
        value.append(parse_float(row[1], "value", line_no))
        flow.append(parse_float(row[2], "flow", line_no))
        for name, cell in zip(iv_names, row[3:]):
            ivs[name].append(parse_float(cell, name, line_no))
    if not years:
        raise PanelFormatError("no data rows")
    return RawPanel(years=tuple(years), value=np.array(value), flow=np.array(flow),
                    instruments={k: np.array(v) for k, v in ivs.items()})


def reference_serialize_panel(panel: RawPanel) -> str:
    lines = [",".join(("year", "value", "flow") + tuple(panel.instruments))]
    for i, year in enumerate(panel.years):
        cells = [str(year), format(float(panel.value[i]), ".17g"),
                 format(float(panel.flow[i]), ".17g")]
        cells.extend(format(float(panel.instruments[name][i]), ".17g")
                     for name in panel.instruments)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    try:
        return parse(text)
    except PanelFormatError as exc:
        return f"PanelFormatError: {exc}"


def assert_same_outcome(text):
    new, ref = outcome(parse_panel, text), outcome(reference_parse_panel, text)
    assert type(new) is type(ref), (new, ref)
    if isinstance(ref, str):
        assert new == ref
        return
    assert new.years == ref.years and list(new.instruments) == list(ref.instruments)
    for got, want in zip([new.value, new.flow, *new.instruments.values()],
                         [ref.value, ref.flow, *ref.instruments.values()]):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


FAULTY_FLOATS = ["nan", "NaN", "inf", "-inf", "1e400", "-1e400", "abc", "", "1,5", "0x10"]
ODD_FLOATS = [" 1.5 ", "\t2\n", "1_0", "-0", "+3", "5e-324", "1e308", ".5", "7."]
FAULTY_YEARS = ["2001.5", "x", "", "1e3", "20 01"]
ODD_YEARS = [" 2001 ", "1_999", "+2002", "\t2003"]


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


def cell_text(ordinary, odd, faulty, odds):
    """A CSV cell: ``ordinary`` text, or a valid ``odd`` one (padded,
    underscored or signed) about once in five draws; one of ``faulty`` about
    once in ``odds`` draws (never for 0); quoted about once in eight."""
    plain = st.one_of(*[ordinary] * 4, st.sampled_from(odd))
    if odds:
        plain = st.integers(1, odds).flatmap(
            lambda k, plain=plain: st.sampled_from(faulty) if k == 1 else plain)
    return st.tuples(plain, st.integers(0, 7)).map(lambda c: quoted(c[0]) if c[1] == 0 else c[0])


@st.composite
def panel_texts(draw):
    """Panel CSV text with blank lines, ragged rows, repeated or decreasing
    years and faulty cells, any of which may occur in several rows."""
    names = ["iv_a", "iv_b", "iv_c"][:draw(st.integers(0, 3))]
    odds = draw(st.sampled_from([0, 40, 5]))
    floats = cell_text(st.floats(-1e6, 1e6).map(repr), ODD_FLOATS, FAULTY_FLOATS, odds)
    lines = [",".join(["year", "value", "flow"] + names)]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        # a repeated or decreasing year in about one row of ten
        year = 2000 + i if kind > 2 else draw(st.integers(1998, 2000 + i))
        years = cell_text(st.just(str(year)), ODD_YEARS, FAULTY_YEARS, odds)
        width = 3 + len(names) + (draw(st.sampled_from([-2, -1, 1])) if kind == 1 else 0)
        lines.append(",".join([draw(years)] + [draw(floats) for _ in range(width - 1)]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(panel_texts())
@example("year,value,flow\n2001,1,1\n2002,nan,1\n2003,1,x\n")
@example("year,value,flow,iv_a\n2001,1,1,1\n2002,1,1,inf\n2003,1,1,1\n2001,1,1,1\n")
@example("year,value,flow\n 2001 ,\t1_0 ,\" 2.5\"\n\n2002,1e308,5e-324\n")
@example("year,value,flow,iv_a\n2001,1,1,1\n2003,1,1,1\n2002,1,1,1\n")
def test_parse_panel_matches_the_row_by_row_reference(text):
    assert_same_outcome(text)


@st.composite
def panels_with_two_faults(draw):
    """A well-formed panel with a fault put into two cells of different rows
    and different columns."""
    names = ["iv_a", "iv_b", "iv_c"][:draw(st.integers(0, 3))]
    width = 3 + len(names)
    n = draw(st.integers(2, 8))
    rows = [[str(2000 + i)] + [repr(draw(st.floats(0.1, 10.0))) for _ in range(width - 1)]
            for i in range(n)]
    r1, r2 = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    c1, c2 = draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
    for r, c in ((r1, c1), (r2, c2)):
        rows[r][c] = draw(st.sampled_from(FAULTY_YEARS if c == 0 else FAULTY_FLOATS))
    return ",".join(["year", "value", "flow"] + names) + "\n" + "".join(
        ",".join(row) + "\n" for row in rows)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(panels_with_two_faults())
def test_parse_panel_names_the_first_of_two_faults(text):
    assert_same_outcome(text)
    assert isinstance(outcome(parse_panel, text), str)


SPECIAL_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True),
    st.lists(st.lists(st.one_of(st.sampled_from(SPECIAL_CELLS),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=n, max_size=n),
             min_size=2, max_size=5))))
def test_serialize_panel_matches_the_per_cell_reference(case):
    years, columns = case
    panel = RawPanel(years=tuple(sorted(years)), value=np.array(columns[0]),
                     flow=np.array(columns[1]),
                     instruments={f"iv_{i}": np.array(c) for i, c in enumerate(columns[2:])})
    text = serialize_panel(panel)
    assert text == reference_serialize_panel(panel)
    assert parse_panel(text) == panel
