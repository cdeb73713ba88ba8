import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natbeta.preprocess import (
    PreprocessError,
    center_log,
    describe_log_series,
    unit_price_series,
)


def test_collinear_series_gives_constant_price():
    q = np.array([1.0, 2.0, 5.0])
    ps = unit_price_series(3.0 * q, q)
    assert ps.cosine == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(ps.values, 3.0, rtol=1e-12)


def test_orthogonal_series_gives_zero_prices():
    v = np.array([1.0, -1.0, 0.0])
    q = np.array([1.0, 1.0, 5.0])
    ps = unit_price_series(v, q)
    assert ps.cosine == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(ps.values, 0.0, atol=1e-15)
    with pytest.raises(PreprocessError, match="non-positive"):
        center_log(ps.values)


def test_hand_computed_two_point_case():
    # independent high-precision evaluation of the formula
    ps = unit_price_series([2.0, 8.0], [1.0, 2.0])
    cosine = 18.0 / math.sqrt(68.0 * 5.0)
    assert ps.cosine == pytest.approx(cosine, abs=1e-12)
    np.testing.assert_allclose(ps.values, [cosine * 2.0, cosine * 4.0], rtol=1e-12)
    assert ps.values[0] == pytest.approx(1.9523741203679057, abs=1e-12)
    assert ps.values[1] == pytest.approx(3.9047482407358114, abs=1e-12)


def test_cosine_matches_dot_product_definition():
    rng = np.random.default_rng(3)
    v = rng.uniform(0.5, 10.0, 20)
    q = rng.uniform(0.5, 10.0, 20)
    ps = unit_price_series(v, q)
    expected = float(np.dot(v, q) / (np.linalg.norm(v) * np.linalg.norm(q)))
    assert abs(ps.cosine - expected) < 1e-12


def test_negative_cosine_passes_here_fails_at_log():
    # anti-aligned series: allowed through the price construction, the
    # negative prices it produces then fail loudly at the log stage
    v = np.array([-2.0, -2.0, 1.0])
    q = np.array([1.0, 1.0, 1.0])
    ps = unit_price_series(v, q)
    assert ps.cosine < 0
    assert np.any(ps.values < 0)
    with pytest.raises(PreprocessError, match="non-positive"):
        center_log(ps.values)


def test_zero_flow_entry_rejected():
    with pytest.raises(PreprocessError, match="zero flow"):
        unit_price_series([1.0, 2.0], [1.0, 0.0])


def test_zero_norm_rejected():
    with pytest.raises(PreprocessError, match="zero-norm"):
        unit_price_series([0.0, 0.0], [1.0, 2.0])


# RuntimeWarnings are errors in this suite, so these also check that no
# NumPy overflow warning escapes
@pytest.mark.parametrize("v,q,message", [
    ([1e308, 1e308, 1.0], [1e308, 1.0, 1e308], "norm or dot product"),
    ([1e150, 1e150], [1e-200, 1e100], "price overflows at data row 1"),
], ids=["norm", "price"])
def test_overflow_rejected(v, q, message):
    with pytest.raises(PreprocessError, match=message):
        unit_price_series(v, q)


def test_center_log_constant_e():
    cls = center_log([math.e, math.e, math.e])
    assert cls.mean == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(cls.deviations, 0.0, atol=1e-15)


def test_center_log_symmetric_pair():
    cls = center_log([1.0, math.e**2])
    assert cls.mean == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(cls.deviations, [-1.0, 1.0], atol=1e-12)


def test_center_log_rejects_non_positive_with_index():
    # the entry prints as a plain float, not as np.float64(0.0)
    with pytest.raises(PreprocessError, match=r"entry 0\.0 at data row 2;"):
        center_log([1.0, 0.0, 2.0])


def test_deviations_sum_to_zero_and_reconstruct():
    rng = np.random.default_rng(11)
    series = rng.uniform(0.01, 100.0, 37)
    cls = center_log(series)
    assert abs(cls.deviations.sum()) <= 37 * 1e-12
    np.testing.assert_allclose(np.exp(cls.mean + cls.deviations), series, rtol=1e-10)


positive_series = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=3, max_size=24
)


@settings(max_examples=60, deadline=None)
@given(positive_series, positive_series, st.sampled_from([1e-6, 3.7, 1e6]))
def test_scale_invariance_value(v, q, c):
    n = min(len(v), len(q))
    v, q = np.array(v[:n]), np.array(q[:n])
    base_p = center_log(unit_price_series(v, q).values).deviations
    base_f = center_log(q).deviations
    scaled_p = center_log(unit_price_series(c * v, q).values).deviations
    scaled_f = center_log(q).deviations
    np.testing.assert_allclose(scaled_p, base_p, atol=1e-10)
    np.testing.assert_allclose(scaled_f, base_f, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(positive_series, positive_series, st.sampled_from([1e-6, 3.7, 1e6]))
def test_scale_invariance_flow(v, q, c):
    n = min(len(v), len(q))
    v, q = np.array(v[:n]), np.array(q[:n])
    base_p = center_log(unit_price_series(v, q).values).deviations
    base_f = center_log(q).deviations
    scaled_p = center_log(unit_price_series(v, c * q).values).deviations
    scaled_f = center_log(c * q).deviations
    np.testing.assert_allclose(scaled_p, base_p, atol=1e-10)
    np.testing.assert_allclose(scaled_f, base_f, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(positive_series, positive_series)
def test_price_factorization_property(pi, q):
    # v = pi * q elementwise: the cosine is a common factor, so centered
    # log prices equal the centered log of pi itself
    n = min(len(pi), len(q))
    pi, q = np.array(pi[:n]), np.array(q[:n])
    v = pi * q
    lhs = center_log(unit_price_series(v, q).values).deviations
    rhs = center_log(pi).deviations
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_describe_log_series_sample_sd():
    series = np.exp([1.0, 2.0, 3.0])
    d = describe_log_series(center_log(series))
    assert d["n_obs"] == 3
    assert d["mean"] == pytest.approx(2.0)
    assert d["sd"] == pytest.approx(1.0)  # sample SD, n-1 denominator
    assert (d["min"], d["max"]) == (1.0, 3.0)
