import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstates import (
    LabelRangeError,
    SpectrumError,
    SpectrumMismatchError,
    TruncationError,
    compute_weights,
    from_levels,
    from_rule,
    normalization,
    power_gap_spectrum,
    power_sums,
)


def closed_form_hydrogen_normalization(J):
    # 2/(1-J) + (2/J^2) [J + ln(1-J)], the independent reference
    return 2.0 / (1.0 - J) + (2.0 / (J * J)) * (J + math.log1p(-J))


def test_harmonic_weights_are_factorials(w_harmonic):
    assert np.exp(w_harmonic.log_rho[3]) == pytest.approx(6.0, rel=1e-14)
    for n in (0, 1, 5, 10, 20):
        assert np.exp(w_harmonic.log_rho[n]) == pytest.approx(math.factorial(n), rel=1e-12)


def test_hydrogen_weights_closed_form(w_hydrogen):
    assert np.exp(w_hydrogen.log_rho[1]) == pytest.approx(0.75, rel=1e-14)
    for n in range(50):
        expected = 0.5 * (n + 2) / (n + 1)
        assert np.exp(w_hydrogen.log_rho[n]) == pytest.approx(expected, rel=1e-12)


def test_rho0_is_one(w_hydrogen, w_harmonic):
    assert w_hydrogen.log_rho[0] == 0.0
    assert w_harmonic.log_rho[0] == 0.0


def test_product_recursion_equivalence(hydrogen, harmonic, w_hydrogen, w_harmonic):
    # n <= 150 keeps the raw harmonic product (n!) inside float range
    for s, w in ((hydrogen, w_hydrogen), (harmonic, w_harmonic)):
        for n in (1, 7, 50, 150):
            direct = float(np.prod(s.e_array(n)[1:]))
            assert np.exp(w.log_rho[n]) == pytest.approx(direct, rel=1e-12)


def test_radius_harmonic_infinite(w_harmonic):
    assert w_harmonic.j_star == math.inf
    # oracle: (rho_n)^(1/n) = (n!)^(1/n) grows monotonically
    samples = [math.exp(w_harmonic.log_rho[n] / n) for n in (10, 100, 1000)]
    assert samples[0] < samples[1] < samples[2]


def test_radius_hydrogen_is_one(w_hydrogen):
    assert w_hydrogen.j_star == 1.0
    assert not w_hydrogen.j_star_is_estimate


def test_radius_constant_ratio_rule():
    # e_n -> c gives rho_n^(1/n) -> c
    c = 2.5
    s = from_rule("towards_c", 1.0, lambda n: c * (1.0 - 1.0 / (np.asarray(n, float) + 1.0)),
                  e_star=c)
    w = compute_weights(s, 500)
    assert w.j_star == c


def test_radius_estimated_for_undeclared_lists():
    levels = [0.0] + [2.0 + 1e-6 * k for k in range(1, 40)]
    s = from_levels("near_const", 1.0, levels)
    w = compute_weights(s, len(levels) - 1)
    assert w.j_star_is_estimate
    assert w.j_star == pytest.approx(2.0, rel=1e-3)


def test_normalization_at_zero(hydrogen, w_hydrogen):
    val = normalization(w_hydrogen, hydrogen, 0.0)
    assert val.value == 1.0
    assert val.tail_bound == 0.0


def test_normalization_hydrogen_frozen_value(hydrogen, w_hydrogen):
    val = normalization(w_hydrogen, hydrogen, 0.5)
    ref = closed_form_hydrogen_normalization(0.5)
    assert ref == pytest.approx(2.4548225555204377, rel=1e-15)
    # the certified bracket contains the true sum
    assert -1e-13 <= ref - val.value <= val.tail_bound + 1e-13
    assert abs(val.value / ref - 1.0) <= 1e-10


def test_normalization_hydrogen_closed_form_grid(hydrogen, w_hydrogen):
    for J in np.arange(0.05, 0.951, 0.05):
        val = normalization(w_hydrogen, hydrogen, float(J))
        ref = closed_form_hydrogen_normalization(float(J))
        assert abs(val.value - ref) <= max(1e-10 * ref, val.tail_bound + 1e-13), f"J={J}"


def test_normalization_harmonic_is_exp(harmonic, w_harmonic):
    val = normalization(w_harmonic, harmonic, 1.0)
    assert abs(val.value - math.e) <= val.tail_bound + 1e-14
    for J in (0.5, 1.0, 2.0, 5.0):
        val = normalization(w_harmonic, harmonic, J)
        assert val.value == pytest.approx(math.exp(J), rel=1e-12)


def test_normalization_tail_bracket_is_honest(hydrogen, w_hydrogen):
    # a much tighter evaluation acts as "truth" for the looser one
    loose = normalization(w_hydrogen, hydrogen, 0.9, tol=1e-6)
    tight = normalization(w_hydrogen, hydrogen, 0.9, tol=1e-13)
    truth = tight.value + 0.5 * tight.tail_bound
    assert loose.value <= truth + 1e-12
    assert truth <= loose.value + loose.tail_bound + 1e-12
    assert loose.terms_used < tight.terms_used


def test_edge_guard_rejections(hydrogen, w_hydrogen):
    with pytest.raises(LabelRangeError):
        normalization(w_hydrogen, hydrogen, 1.0)
    with pytest.raises(LabelRangeError):
        normalization(w_hydrogen, hydrogen, 1.0 - 1e-8)  # inside the guard band
    with pytest.raises(LabelRangeError):
        normalization(w_hydrogen, hydrogen, -0.1)
    with pytest.raises(LabelRangeError):
        normalization(w_hydrogen, hydrogen, math.nan)


def test_numpy_scalar_labels_accepted(hydrogen, w_hydrogen):
    ref = normalization(w_hydrogen, hydrogen, 0.5).value
    assert normalization(w_hydrogen, hydrogen, np.float32(0.5)).value == ref
    assert normalization(w_hydrogen, hydrogen, np.float64(0.5)).value == ref
    assert normalization(w_hydrogen, hydrogen, np.int64(0)).value == 1.0
    for bad in ("0.5", None, 0.5 + 0j, np.float32(np.nan), np.float64(np.inf)):
        with pytest.raises(LabelRangeError):
            normalization(w_hydrogen, hydrogen, bad)


@pytest.mark.parametrize("J", [-0.5, math.nan, 1.5])
def test_power_sums_rejects_labels_out_of_range(w_hydrogen, J):
    # the series kernel owns the label check, so direct callers get it too
    with pytest.raises(LabelRangeError):
        power_sums(w_hydrogen, J)


def test_table_for_another_rule_under_the_same_name_is_refused():
    # rules compare by identity: equal names and e_star do not make equal spectra
    a = from_rule("custom", 1, lambda n: n, e_star=math.inf)
    b = from_rule("custom", 1, lambda n: n**2, e_star=math.inf)
    assert a != b
    with pytest.raises(SpectrumMismatchError):
        normalization(compute_weights(a, 200), b, 3.0)


def test_truncation_failure_reports_partial(hydrogen):
    w_small = compute_weights(hydrogen, 16)
    with pytest.raises(TruncationError) as info:
        normalization(w_small, hydrogen, 0.9)
    err = info.value
    assert err.value is not None and err.value > 0
    assert err.terms_used == 17


def test_compute_weights_needs_valid_spectrum():
    import dataclasses

    s = from_levels("ok", 1.0, [0, 1, 2])
    bad = dataclasses.replace(s, levels=(0.0, 2.0, 1.0))
    with pytest.raises(SpectrumError):
        compute_weights(bad, 2)


def test_compute_weights_beyond_explicit_list():
    from cstates import LevelRangeError

    s = from_levels("short", 1.0, [0, 1, 3])
    with pytest.raises(LevelRangeError):
        compute_weights(s, 10)


def test_power_gap_weights_decay():
    s = power_gap_spectrum(0.25)
    w = compute_weights(s, 5000)
    # rho_n = prod (1 - (l+1)^(-1/4)) decreases towards zero
    assert w.log_rho[-1] < w.log_rho[1000] < w.log_rho[10] < 0


@settings(max_examples=30, deadline=None)
@given(
    j_pair=st.tuples(
        st.floats(min_value=0.01, max_value=0.94), st.floats(min_value=0.01, max_value=0.94)
    )
)
def test_normalization_monotone_in_j(j_pair, hydrogen, w_hydrogen):
    lo, hi = sorted(j_pair)
    if hi - lo < 1e-6:
        return
    n_lo = normalization(w_hydrogen, hydrogen, lo)
    n_hi = normalization(w_hydrogen, hydrogen, hi)
    assert n_hi.value > n_lo.value
