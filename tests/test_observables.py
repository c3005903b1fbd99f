import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from cstates import (
    CertificationError,
    LabelRangeError,
    SpectrumMismatchError,
    StateLabel,
    TruncationError,
    coefficients,
    compute_weights,
    energy_mean,
    from_levels,
    from_rule,
    load_measure,
    make_builtin,
    moment_check,
    moments_from_state,
    near_jstar_coefficient,
    near_jstar_exponent,
    normalization,
    power_gap_spectrum,
    power_sums,
    small_j_slope,
    variance,
    variance_curve,
)
from cstates.observables import DEFAULT_FIT_CAP, _double_sum_variance, _fit_loglog
from cstates.weights import _BLOCK


def pairwise_double_sum(w, J, k, omega):
    """Literal O(k^2) route: (1/2) sum (e_n - e_m)^2 t_n t_m / (sum t)^2."""
    if J == 0:
        return 0.0
    g = np.arange(k, dtype=float) * math.log(J) - w.log_rho[:k]
    t = np.exp(g - g.max())
    e = w.levels[:k]
    total = t.sum()
    d = e[:, None] - e[None, :]
    num = float((d * d * (t[:, None] * t[None, :])).sum())
    return omega * omega * 0.5 * num / (total * total)


def tau2_variance_closed_form(J):
    # for e_n = 1 - 1/(n+1): rho_n = 1/(n+1), N = (1-J)^(-2),
    # and the variance reduces to (1-J)^2 (-ln(1-J) - J)/J
    return (1.0 - J) ** 2 * (-math.log1p(-J) - J) / J


def test_action_identity_examples(hydrogen, w_hydrogen, harmonic, w_harmonic):
    assert energy_mean(hydrogen, w_hydrogen, 0.3) == pytest.approx(0.3, abs=1e-10)
    assert energy_mean(harmonic, w_harmonic, 0.3) == pytest.approx(0.3, abs=1e-10)
    assert energy_mean(hydrogen, w_hydrogen, 0.0) == 0.0
    s2 = make_builtin("harmonic", 2.0)
    w2 = compute_weights(s2, 400)
    assert energy_mean(s2, w2, 1.5) == pytest.approx(3.0, abs=1e-10)


def test_action_identity_grids(hydrogen, w_hydrogen, harmonic, w_harmonic):
    for s, w, top in ((hydrogen, w_hydrogen, 0.95), (harmonic, w_harmonic, 9.5)):
        for J in np.linspace(0.0, top, 20):
            assert abs(energy_mean(s, w, float(J)) / s.omega - J) <= 1e-8


def test_harmonic_variance_is_poisson(harmonic, w_harmonic):
    for J in (0.5, 1.0, 2.0):
        vp = variance(harmonic, w_harmonic, J)
        assert vp.variance == pytest.approx(J, rel=1e-11)
        assert vp.double_sum == pytest.approx(J, rel=1e-11)
    s2 = make_builtin("harmonic", 2.0)
    w2 = compute_weights(s2, 400)
    assert variance(s2, w2, 1.5).variance == pytest.approx(4.0 * 1.5, rel=1e-11)


def test_variance_at_zero(hydrogen, w_hydrogen):
    vp = variance(hydrogen, w_hydrogen, 0.0)
    assert vp.variance == 0.0
    assert vp.mean == 0.0


def test_hydrogen_variance_bound_and_frozen_value(hydrogen, w_hydrogen):
    vp = variance(hydrogen, w_hydrogen, 0.5)
    assert vp.variance == pytest.approx(0.176630407146, rel=1e-10)
    assert vp.variance <= 0.75 * 0.5 * 0.5
    assert vp.variance == pytest.approx(vp.second_moment - vp.mean**2, abs=vp.tail_bound + 1e-15)
    for J in np.arange(0.1, 0.91, 0.1):
        vp = variance(hydrogen, w_hydrogen, float(J))
        assert vp.variance <= 0.75 * J * (1.0 - J) + 1e-9


def test_variance_two_routes_agree(hydrogen, w_hydrogen, harmonic, w_harmonic):
    worst = 0.0
    for J in np.arange(0.1, 0.91, 0.1):
        vp = variance(hydrogen, w_hydrogen, float(J))
        worst = max(worst, abs(vp.variance - vp.double_sum) / vp.variance)
    for J in (0.5, 1.0, 2.0, 4.0):
        vp = variance(harmonic, w_harmonic, J)
        worst = max(worst, abs(vp.variance - vp.double_sum) / vp.variance)
    assert worst <= 1e-8


def test_variance_nonnegative_up_to_tail(hydrogen, w_hydrogen):
    for J in np.linspace(0.0, 0.95, 15):
        vp = variance(hydrogen, w_hydrogen, float(J))
        assert vp.variance >= -vp.tail_bound


def hydrogen_variance_exact(J):
    """v(J) = J S+/N - J^2 for hydrogen_like at omega = 1, at 40 digits.

    S+ = sum e_{n+1} J^n/rho_n.  With m = n + 2, J^n/rho_n = 2(1 - 1/m) J^n
    and e_{n+1} = 1 - 1/m^2, so N and S+ are sums of J^m/m^k: polylogarithms.
    """
    with mpmath.workdps(40):
        J = mpmath.mpf(J)
        li1, li2, li3 = (mpmath.polylog(k, J) - J for k in (1, 2, 3))
        geo = J * J / (1 - J)
        n = 2 * (geo - li1) / (J * J)
        s_plus = 2 * (geo - li1 - li2 + li3) / (J * J)
        return float(J * s_plus / n - J * J)


def test_hydrogen_variance_encloses_the_polylog_closed_form(hydrogen, w_hydrogen):
    # the closest call is J = 0.05, at 0.76 of the tail bound; the record's
    # stdlib form (Model.variance) is enclosed as well
    for J in (0.05, 0.3, 0.5, 0.9, 0.99, 0.999):
        vp = variance(hydrogen, w_hydrogen, J)
        assert abs(vp.variance - hydrogen_variance_exact(J)) <= vp.tail_bound, J
        assert abs(vp.variance - hydrogen.model.variance(J, 1.0)) <= vp.tail_bound, J


def hydrogen_variance_50_digits(J):
    """v(J) = G/N - (1-J)^2 at omega = 1, from mpmath's polylog at 50 digits,
    with G = 2[(Li_3 - Li_2 + Li_1)/J - (Li_1 - J)/J^2]."""
    with mpmath.workdps(50):
        J = mpmath.mpf(J)
        li1, li2, li3 = (mpmath.polylog(k, J) for k in (1, 2, 3))
        g = 2 * ((li3 - li2 + li1) / J - (li1 - J) / (J * J))
        n = 2 / (1 - J) + 2 * (J + mpmath.log(1 - J)) / (J * J)
        return g / n - (1 - J) ** 2


def test_hydrogen_exact_variance_matches_50_digit_polylogs(hydrogen):
    # 100 J uniform in [0.05, 0.95] and 100 at 1 - 10^-u, u uniform in
    # [1.3, 14]; the worst read 2.0e-15, both sides of J = 1/2 included
    rng = random.Random(20011017)
    grid = [rng.uniform(0.05, 0.95) for _ in range(100)]
    grid += [1.0 - 10.0 ** -rng.uniform(1.3, 14.0) for _ in range(100)]
    grid += [0.05, 0.5, math.nextafter(0.5, 1.0), 1.0 - 1e-14]
    for J in grid:
        exact = hydrogen_variance_50_digits(J)
        assert abs(hydrogen.model.variance(J, 1.0) / exact - 1) <= 1e-14, J


def test_exact_variance_scales_with_omega_squared():
    for model in ("hydrogen_like", "harmonic"):
        record = make_builtin(model).model
        for J in (0.3, 0.7, 0.999):
            assert record.variance(J, 2.0) == 4.0 * record.variance(J, 1.0)
        assert record.variance(0.0, 2.0) == 0.0
    assert make_builtin("harmonic").model.variance(60.0, 1.5) == 2.25 * 60.0


def test_near_jstar_hydrogen_variance_encloses_the_polylog_closed_form(hydrogen):
    # 27,625 to ~921,000 terms; the relative errors (4.1e-10 and 3.6e-10) sit
    # at 0.004 and 0.001 of the tail bound
    w = compute_weights(hydrogen, 1_200_000)
    for J in (0.9999, 0.99997):
        vp = variance(hydrogen, w, J)
        assert abs(vp.variance - hydrogen_variance_exact(J)) <= vp.tail_bound, J


def test_harmonic_variance_encloses_omega_squared_j():
    # the closest call is J = 0.5, at 0.86 of the tail bound
    s = make_builtin("harmonic", 1.5)
    w = compute_weights(s, 2_000)
    for J in (0.5, 2.0, 5.0, 60.0, 300.0, 600.0):
        vp = variance(s, w, J)
        assert abs(vp.variance - 2.25 * J) <= vp.tail_bound, J


@pytest.mark.parametrize(
    "s, n_max, grid",
    [
        (make_builtin("hydrogen_like"), 511, (0.1, 0.5, 0.9, 0.99)),
        (make_builtin("harmonic", 2.0), 511, (0.5, 5.0, 50.0)),
        (power_gap_spectrum(0.25), 511, (0.5, 0.9, 0.99)),
        (from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0, 11.0, 11.5], e_star=12.0), 5, (0.1, 1.0, 5.0)),
        (from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0, 11.0, 11.5]), 5, (0.1, 1.0, 5.0)),
    ],
    ids=["hydrogen_like", "harmonic_omega2", "power_gap_0.25", "explicit_e_star", "explicit_no_e_star"],
)
def test_double_sum_centred_matches_pairwise(s, n_max, grid):
    w = compute_weights(s, n_max)
    for J in grid:
        for k in (1, 2, (n_max + 1) // 2, n_max + 1):
            got = _double_sum_variance(w, J, k, s.omega)
            ref = pairwise_double_sum(w, J, k, s.omega)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (J, k)


def whole_range_centred_sum(w, J, k, omega):
    """The centred double sum as one pass over [0, k), in numpy's operations."""
    g = np.arange(k, dtype=float) * math.log(J) - w.log_rho[:k]
    t = np.exp(g - g.max())
    s = w.spectrum
    x = s.gap_array(k - 1) if s.e_star is not None and math.isfinite(s.e_star) else w.levels[:k]
    total = t.sum()
    d = x - (x * t).sum() / total
    return omega * omega * float((d * d * t).sum() / total)


def fsum_centred_sum(w, J, k, omega):
    """The centred double sum with every sum a correctly rounded math.fsum and
    the mean refined once, as the reference for the blocked route."""
    g = np.arange(k, dtype=float) * math.log(J) - w.log_rho[:k]
    t = np.exp(g - g.max())
    s = w.spectrum
    x = s.gap_array(k - 1) if s.e_star is not None and math.isfinite(s.e_star) else w.levels[:k]
    total = math.fsum(t.tolist())
    mean = math.fsum((x * t).tolist()) / total
    mean += math.fsum(((x - mean) * t).tolist()) / total
    d = x - mean
    return omega * omega * math.fsum((d * d * t).tolist()) / total


@pytest.mark.parametrize(
    "s, n_max, grid",
    [
        (make_builtin("hydrogen_like"), 65_536, (0.3, 0.99, 0.9999)),
        (make_builtin("harmonic", 2.0), 65_536, (0.5, 500.0, 60_000.0)),
        (power_gap_spectrum(0.25), 65_536, (0.5, 0.999)),
        (from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0, 11.0, 11.5], e_star=12.0), 5, (0.1, 5.0)),
    ],
    ids=["hydrogen_like", "harmonic_omega2", "power_gap_0.25", "explicit_e_star"],
)
def test_double_sum_one_block_is_the_whole_range_sum(s, n_max, grid):
    w = compute_weights(s, n_max)
    for J in grid:
        for k in sorted({1, 2, 1000, _BLOCK - 1, _BLOCK} & set(range(1, n_max + 2))):
            assert _double_sum_variance(w, J, k, s.omega) == whole_range_centred_sum(w, J, k, s.omega)


@pytest.mark.parametrize(
    "model, omega, n_max, J, k",
    [
        ("hydrogen_like", 1.0, 300_000, 0.99999, 300_001),
        ("hydrogen_like", 1.0, 300_000, 0.9999, 131_073),
        # t_n = 0.5^n / rho_n underflows near n = 1,075: every later block adds nothing
        ("hydrogen_like", 1.0, 300_000, 0.5, 262_144),
        # terms below n ~ 1.5e5 underflow, so the first blocks add nothing; the
        # last term dominates the first 65,537, where x ~ 6.6e4 and the spread ~ 1
        ("harmonic", 2.0, 300_000, 200_000.0, 300_001),
        ("harmonic", 2.0, 300_000, 150_000.0, 65_537),
        ("harmonic", 1.0, 300_000, 50_000.0, 200_000),
        # ten and eight blocks, the last one short
        ("hydrogen_like", 1.0, 40_000, 0.9999, 40_001),
        ("harmonic", 2.0, 300_000, 20_000.0, 30_000),
    ],
)
def test_double_sum_over_blocks_matches_fsum(model, omega, n_max, J, k):
    w = compute_weights(make_builtin(model, omega), n_max)
    got = _double_sum_variance(w, J, k, omega)
    assert got == pytest.approx(fsum_centred_sum(w, J, k, omega), rel=1e-13, abs=0.0)


@pytest.fixture(scope="module")
def w_near_jstar(hydrogen):
    # 1.25 times the term bound of J = 1 - 10^-4.5, so longer than the near-J*
    # fit table for that J (n_max 877,852, a block past the bound)
    return compute_weights(hydrogen, 1_092_195)


def test_near_jstar_variance_memory_does_not_grow_with_the_terms(hydrogen, w_near_jstar):
    J = 1.0 - 10.0**-4.5
    tracemalloc.start()
    try:
        vp = variance(hydrogen, w_near_jstar, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 873,767 terms; the whole-range cross-check peaked at 40 MiB
    assert power_sums(w_near_jstar, J, need_second=True).terms_used > 870_000
    assert vp.double_sum == pytest.approx(vp.variance, rel=1e-8)
    assert peak <= 10 * 2**20


def test_variance_cross_checked_for_long_truncations(hydrogen, w_hydrogen):
    # ~27,600 terms, far past the lengths a pairwise double sum could afford
    assert power_sums(w_hydrogen, 0.999, need_second=True).terms_used > 27_000
    vp = variance(hydrogen, w_hydrogen, 0.999)
    assert vp.double_sum is not None
    assert vp.double_sum == pytest.approx(vp.variance, rel=1e-8)


def test_variance_curve_flags_failures(hydrogen, w_hydrogen):
    pts = variance_curve(hydrogen, w_hydrogen, [0.1, 0.5, 0.9999999, 0.2])
    assert [p.J for p in pts] == [0.1, 0.5, 0.9999999, 0.2]
    assert pts[0].error is None and pts[3].error is None
    assert pts[2].error is not None and math.isnan(pts[2].variance)


def test_variance_curve_refuses_another_spectrums_table_once(hydrogen, harmonic, series_calls):
    # no row per point: the table is refused before any point is tried
    w = compute_weights(hydrogen, 200)
    with pytest.raises(SpectrumMismatchError):
        variance_curve(harmonic, w, [0.1, 0.5, 0.9])
    assert series_calls == []


def test_variance_curve_empty_and_single(hydrogen, w_hydrogen):
    assert variance_curve(hydrogen, w_hydrogen, []) == []
    pts = variance_curve(hydrogen, w_hydrogen, [0.0])
    assert len(pts) == 1 and pts[0].variance == 0.0


def test_gamma_independence_of_moments(hydrogen, w_hydrogen):
    a = coefficients(hydrogen, w_hydrogen, StateLabel(0.6, 0.0))
    b = coefficients(hydrogen, w_hydrogen, StateLabel(0.6, 7.3))
    ma, sa, va = moments_from_state(hydrogen, a)
    mb, sb, vb = moments_from_state(hydrogen, b)
    assert ma == pytest.approx(mb, abs=1e-12)
    assert va == pytest.approx(vb, abs=1e-12)
    vp = variance(hydrogen, w_hydrogen, 0.6)
    assert ma == pytest.approx(vp.mean, abs=1e-9)
    assert va == pytest.approx(vp.variance, abs=1e-9)


def test_small_j_slope_builtins(hydrogen, w_hydrogen, harmonic, w_harmonic):
    assert abs(small_j_slope(harmonic, w_harmonic) / 1.0 - 1.0) <= 1e-4
    assert abs(small_j_slope(hydrogen, w_hydrogen) / 0.75 - 1.0) <= 1e-4


def test_small_j_slope_explicit_spectrum():
    s = from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0], e_star=12.0)
    w = compute_weights(s, 3)
    assert abs(small_j_slope(s, w) / 2.0 - 1.0) <= 1e-4


def test_second_moment_needs_growth_cap():
    s = from_levels("uncapped", 1.0, [0.0, 2.0, 5.0, 9.0])  # no e_star declared
    w = compute_weights(s, 3)
    with pytest.raises(CertificationError):
        variance(s, w, 0.1)


def test_near_jstar_exponent_hydrogen(hydrogen, w_hydrogen):
    got = near_jstar_exponent(hydrogen, w_hydrogen, [0.9, 0.99, 0.999])
    assert abs(got - 1.0) <= 0.05  # oracle fit gives 1.0018


def test_near_jstar_exponent_tau2_matches_closed_form():
    # exact check of the whole variance pipeline against a solvable spectrum
    s = power_gap_spectrum(1.0)
    w = compute_weights(s, 60_000)
    window = [0.9, 0.99, 0.999]
    for J in window:
        vp = variance(s, w, J)
        assert vp.variance == pytest.approx(tau2_variance_closed_form(J), rel=1e-8)
    got = near_jstar_exponent(s, w, window, n_cap=60_000)
    x = np.log1p(-np.asarray(window))
    y = np.log([tau2_variance_closed_form(J) for J in window])
    ref_slope = float(np.polyfit(x, y, 1)[0])
    assert got == pytest.approx(ref_slope, abs=1e-6)
    # the measured decay rate: exponent 2 with a log correction, fitted ~1.71
    assert 1.6 <= got <= 1.8


@pytest.fixture(scope="module")
def w_power_gap_one():
    # power_gap(1), the SU(1,1) states with Bargmann index k = 1: e_n = n/(n+1),
    # rho_n = 1/(n+1); J = 0.9999 needs about 500,000 terms
    s = power_gap_spectrum(1.0)
    return s, compute_weights(s, 1_200_000)


POWER_GAP_ONE_GRID = [0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999]


@pytest.mark.parametrize("J", POWER_GAP_ONE_GRID)
def test_power_gap_one_normalization_is_one_over_one_minus_j_squared(w_power_gap_one, J):
    s, w = w_power_gap_one
    assert abs(normalization(w, s, J).value * (1.0 - J) ** 2 - 1.0) <= 5e-13


@pytest.mark.parametrize("J", POWER_GAP_ONE_GRID)
def test_power_gap_one_variance_closed_form(w_power_gap_one, J):
    # v = omega^2 (1-J)^2 (-ln(1-J)/J - 1) within the certified tail; the
    # 1e-12 relative covers rounding, which the tail bound does not
    s, w = w_power_gap_one
    vp = variance(s, w, J)
    exact = s.omega**2 * (1.0 - J) ** 2 * (-math.log1p(-J) / J - 1.0)
    assert abs(vp.variance - exact) <= max(vp.tail_bound, 1e-12 * exact)


def test_power_gap_one_measure_is_uniform_on_the_unit_interval(w_power_gap_one):
    # int_0^1 u^n du = 1/(n+1) = rho_n
    _, w = w_power_gap_one
    measure = load_measure({"U": 1, "density": {"kind": "constant", "value": 1}})
    assert moment_check(measure, w, 30) <= 1e-12


def test_near_jstar_exponent_tau_half_measured():
    # gap (n+1)^(-p), p = 1/4, squared-gap exponent tau = 2p = 1/2: the
    # J^n/rho_n weights develop a sharp interior peak and the fitted decay
    # approaches 1 + 2/tau = 1 + 1/p = 5, far from tau itself
    s = power_gap_spectrum(0.25)
    w = compute_weights(s, 20_000)
    got = near_jstar_exponent(s, w, [0.90, 0.92, 0.94, 0.96], n_cap=1_200_000)
    assert 4.5 <= got <= 5.2


def test_near_jstar_exponent_requires_unit_radius(harmonic, w_harmonic):
    with pytest.raises(LabelRangeError):
        near_jstar_exponent(harmonic, w_harmonic)


def full_table_slope(s, window, n_cap):
    """Fit on every window point that a table of n_cap entries certifies."""
    big = compute_weights(s, n_cap)
    points = []
    for J in sorted(window):
        try:
            points.append((J, variance(s, big, J).variance))
        except TruncationError:
            continue
    js, vs = np.array(points).T
    return _fit_loglog(js, vs)[0], len(points)


def test_near_jstar_exponent_sized_tables_match_full_table(hydrogen):
    # the default window's J = 0.999999 needs ~2.8e7 terms and is dropped
    # unswept; J = 0.999 and 0.99997 run on tables sized from the term bound
    window = [1.0 - 10.0 ** (-1.5 * k) for k in range(1, 5)]
    got = near_jstar_exponent(hydrogen, compute_weights(hydrogen, 20_000))
    ref, used = full_table_slope(hydrogen, window, DEFAULT_FIT_CAP)
    assert used == 3
    assert got == ref


def test_near_jstar_exponent_skips_tables_the_term_bound_rules_out(hydrogen, series_calls):
    # J = 0.999 and 0.99997 need more terms than 20k entries hold: every
    # point runs once, certified, on the one table sized from the term bound
    # (n_max 877,852), and w is never swept for a refusal
    w = compute_weights(hydrogen, 20_000)
    near_jstar_exponent(hydrogen, w)
    window = [1.0 - 10.0 ** (-1.5 * k) for k in (1, 2, 3)]
    assert [(table.n_max, J, ok) for table, J, ok in series_calls] == [(877_852, J, True) for J in window]


def test_near_jstar_exponent_undersized_table_retried_at_cap():
    # interior-peak weights need far more terms than the bound: the table
    # sized from it fails, and the point is retried at n_cap
    s = power_gap_spectrum(0.25)
    window = [0.90, 0.92, 0.94, 0.96]
    got = near_jstar_exponent(s, compute_weights(s, 500), window, n_cap=1_200_000)
    ref, used = full_table_slope(s, window, 1_200_000)
    assert used == 4
    assert got == ref


def test_near_jstar_exponent_builds_at_most_one_cap_table(table_builds):
    # every point of the window fails on its table and is retried at n_cap
    s = power_gap_spectrum(0.25)
    w = compute_weights(s, 500)
    near_jstar_exponent(s, w, [0.90, 0.92, 0.94, 0.96], n_cap=1_200_000)
    assert table_builds.count(1_200_000) == 1
    assert len(table_builds) <= 2


def test_near_jstar_exponent_later_points_run_on_the_cap_table(series_calls, table_builds):
    # the first point is refused on the table sized from the term bound
    # (n_max 4,773); the n_cap table replaces it, and every later point runs
    # there once, without a refusal on the sized table first
    s = power_gap_spectrum(0.25)
    window = [0.90, 0.92, 0.94, 0.96]
    got = near_jstar_exponent(s, compute_weights(s, 500), window, n_cap=1_200_000)
    assert [(t.n_max, J, ok) for t, J, ok in series_calls] == [
        (4_773, 0.90, False), *((1_200_000, J, True) for J in window)
    ]
    assert table_builds == [4_773, 1_200_000]
    # the slope is the fit to every window point, each on the n_cap table
    table = series_calls[-1][0]
    points = [J for t, J, ok in series_calls if ok and t is table]
    assert points == window
    assert got == _fit_loglog(*np.array([(J, variance(s, table, J).variance) for J in points]).T)[0]


def test_fit_table_variance_equals_shorter_tables(hydrogen, w_hydrogen, w_near_jstar, series_calls):
    # a sum reads only the entries up to its cut, and a longer table begins
    # with a shorter one's entries, so the fit table moves no VariancePoint
    w = compute_weights(hydrogen, 20_000)
    near_jstar_exponent(hydrogen, w)
    fit = series_calls[-1][0]
    assert all(table is fit for table, _, _ in series_calls)
    assert fit.n_max == 877_852
    near, mid, far = (1.0 - 10.0 ** (-1.5 * k) for k in (1, 2, 3))
    for J, table in [(near, w), (near, w_hydrogen), (mid, compute_weights(hydrogen, 34_522)),
                     (mid, w_hydrogen), (far, w_near_jstar)]:
        assert variance(hydrogen, fit, J) == variance(hydrogen, table, J)


def test_near_jstar_exponent_too_few_points(hydrogen):
    w_small = compute_weights(hydrogen, 2_000)
    with pytest.raises(TruncationError):
        near_jstar_exponent(hydrogen, w_small, [0.99, 0.999], n_cap=2_000)


def test_near_jstar_coefficient_matches_intercept(hydrogen, w_hydrogen):
    coeff = near_jstar_coefficient(hydrogen, w_hydrogen)
    assert coeff.converged
    assert 0.55 <= coeff.value <= 0.56
    vp = variance(hydrogen, w_hydrogen, 0.999)
    intercept = vp.variance / (1.0 - 0.999)
    assert abs(intercept / coeff.value - 1.0) <= 0.2


def test_near_jstar_coefficient_reaches_one_plus_zeta3_minus_zeta2(hydrogen):
    # rho_inf = 1/2 is the record's; the terms past n_max = 20,000 sum to
    # 4.2e-14, and rho_{n_max} in its place read 1/(n_max + 1) high
    coeff = near_jstar_coefficient(hydrogen, compute_weights(hydrogen, 20_000))
    with mpmath.workdps(40):
        exact = float(1 + mpmath.zeta(3) - mpmath.zeta(2))
    assert coeff.converged
    assert abs(coeff.value - exact) <= 1e-12


def test_near_jstar_coefficient_of_a_custom_spectrum_scales_by_rho_n_max(hydrogen):
    # the same levels without a record: rho_inf is read off the table's end
    n_max = 20_000
    custom = from_rule("custom", 1.0, gap_rule=hydrogen.gap_rule, e_star=1.0)
    w = compute_weights(custom, n_max)
    coeff = near_jstar_coefficient(custom, w)
    builtin = near_jstar_coefficient(hydrogen, compute_weights(hydrogen, n_max))
    assert coeff.value == builtin.value * 2.0 * math.exp(w.log_rho[-1])
    assert coeff.value / builtin.value - 1.0 == pytest.approx(1.0 / (n_max + 1), rel=1e-9)


def test_near_jstar_coefficient_abel_identity(hydrogen, w_hydrogen):
    # sum (gap_m - gap_{m+1})/rho_m telescopes to sum gap_m^2/rho_m
    top = 30_000
    gaps = hydrogen.gap_array(top + 1)
    rho = np.exp(w_hydrogen.log_rho[: top + 1])
    lhs = float(((gaps[:-1] - gaps[1:]) / rho).sum())
    rhs = float((gaps[:-1] ** 2 / rho).sum())
    assert lhs == pytest.approx(rhs, rel=5e-9)


def whole_table_jstar_coefficient(s, w):
    """near_jstar_coefficient of a built-in spectrum as one pass over the whole table."""
    gaps = s.gap_array(w.n_max)
    terms = gaps * gaps / np.exp(w.log_rho)
    total = float(terms.sum())
    head = float(terms[: max(1, int(0.9 * len(terms)))].sum())
    return s.model.rho_inf * total, (total - head) <= 0.01 * total


def test_near_jstar_coefficient_memory_does_not_grow_with_the_table(hydrogen, w_near_jstar):
    tracemalloc.start()
    try:
        coeff = near_jstar_coefficient(hydrogen, w_near_jstar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-table pass peaked at 25.0 MiB, three times log rho
    assert peak <= 2 * 2**20
    value, converged = whole_table_jstar_coefficient(hydrogen, w_near_jstar)
    assert coeff.converged == converged
    assert coeff.value == pytest.approx(value, rel=1e-13, abs=0.0)


def test_near_jstar_coefficient_refuses_another_spectrums_table(hydrogen):
    # both accumulate at J* = 1, so only the identity check tells them apart
    with pytest.raises(SpectrumMismatchError):
        near_jstar_coefficient(power_gap_spectrum(2), compute_weights(hydrogen, 2000))


def test_moments_from_state_refuses_another_spectrums_state(hydrogen, w_hydrogen, harmonic):
    state = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    assert moments_from_state(hydrogen, state)[0] == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(SpectrumMismatchError):
        moments_from_state(harmonic, state)


def test_near_jstar_coefficient_flags_nonsummable():
    s = power_gap_spectrum(0.25)
    w = compute_weights(s, 20_000)
    coeff = near_jstar_coefficient(s, w)
    assert not coeff.converged
