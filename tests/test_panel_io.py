import numpy as np
import pytest
from hypothesis import given, settings
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
