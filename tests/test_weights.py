import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstates import (
    CStatesError,
    LabelRangeError,
    SpectrumError,
    SpectrumMismatchError,
    TruncationError,
    compute_weights,
    from_levels,
    from_rule,
    make_builtin,
    normalization,
    power_gap_spectrum,
    power_sums,
)
from cstates import weights
from cstates.weights import _TERM_FLOOR, PowerSums, _ratio_caps


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


def whole_table_sums(w, J, tol, order, absolute=False):
    """The series kernel as one pass over the whole table, the reference for
    the chunked scan: every field and every refusal must match it exactly."""
    e = w.levels
    n = np.arange(w.n_max + 1, dtype=float)
    g = n * math.log(J) - w.log_rho
    scale = float(g.max())
    t = np.exp(g - scale)
    e_next = np.empty_like(e)
    e_next[:-1] = e[1:]
    e_next[-1] = w.next_level_bound
    with np.errstate(divide="ignore"):
        q = J / e_next
    ok = q < 1.0
    tf = np.maximum(t, _TERM_FLOOR)
    tail0 = np.where(ok, tf * q / np.where(ok, 1.0 - q, 1.0), np.inf)

    def certified(cum, tail):
        if absolute:
            with np.errstate(divide="ignore"):
                return scale + np.log(tail) <= math.log(tol)
        return tail <= tol * np.maximum(cum, _TERM_FLOOR)

    cums = [np.cumsum(t)]
    tails = [tail0]
    cond = ok & certified(cums[0], tail0)
    if order >= 1:
        cums.append(np.cumsum(e * t))
        tails.append(J * (tf + tail0))
        cond &= certified(cums[1], tails[1])
    if order >= 2:
        caps = _ratio_caps(w.spectrum, e_next, n)
        tails.append(J * (e_next * tf + caps * J * (tf + tail0)))
        cums.append(np.cumsum(e * e * t))
        cond &= certified(cums[2], tails[2])

    if not cond.any():
        best = int(np.argmin(np.where(ok, tail0 / np.maximum(cums[0], _TERM_FLOOR), np.inf)))
        with np.errstate(over="ignore"):
            partial = float(np.exp(scale) * cums[0][-1])
            bound = float(np.exp(scale) * tail0[best]) if ok[best] else math.inf
        raise TruncationError(
            f"tail bound not reached within n_max={w.n_max} for J={J} "
            f"(best relative tail {tail0[best] / cums[0][best]:.3e} at n={best})",
            value=partial,
            tail_bound=bound,
            terms_used=w.n_max + 1,
        )

    n0 = int(np.argmax(cond))
    sums = [float(c[n0]) for c in cums] + [math.nan] * (2 - order)
    bounds = [float(b[n0]) for b in tails] + [math.nan] * (2 - order)
    return PowerSums(float(J), n0 + 1, scale, *sums, *bounds)


def outcome(fn, *args, **kwargs):
    """Every field of a result, or the type, message and payload of a refusal.

    NaN compares equal to NaN.  Signed zeros compare equal: numpy's max of g
    picks between g_0 = -0.0 and a tied g_n = 0.0 by array length, so the
    sign of a zero log_scale follows the chunk, and no value depends on it.
    """
    try:
        fields = dataclasses.astuple(fn(*args, **kwargs))
    except CStatesError as exc:
        fields = (type(exc).__name__, str(exc),
                  *(getattr(exc, a, None) for a in ("value", "tail_bound", "terms_used")))
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in fields)


def assert_scan_matches_whole_table(w, grid, tols=(1e-12, 1e-6)):
    for J in grid:
        for tol in tols:
            for order, absolute in ((0, True), (0, False), (1, False), (2, False)):
                got = outcome(weights._certified_sums, w, J, tol, order, absolute=absolute)
                ref = outcome(whole_table_sums, w, J, tol, order, absolute=absolute)
                assert got == ref, (w.spectrum.name, w.n_max, J, tol, order, absolute)


# a rule whose levels sit one ulp above 2: at J = 2 the log-terms g_n are flat
# up to rounding, so a later chunk raises the running maximum and the scan restarts
ULP_ABOVE_TWO = float(np.nextafter(2.0, 3.0))


def flat_top_levels(n):
    return np.where(np.asarray(n) > 0, ULP_ABOVE_TWO, 0.0)


CHUNKS = [1, 7, 256, weights._CHUNK]
STEPS = [0.0] + np.cumsum(np.linspace(0.5, 2.0, 400)).tolist()

SMALL_TABLES = [
    (make_builtin("hydrogen_like"), 1_200, [1e-3, 0.3, 0.9, 0.99, 0.999]),
    (make_builtin("harmonic"), 1_200, [0.01, 1.0, 60.0, 700.0, 1_000.0, 1_190.0]),
    (power_gap_spectrum(0.25), 1_200, [0.2, 0.5, 0.75, 0.8]),
    (from_levels("steps", 1.0, STEPS), 400, [0.5, 30.0, 350.0]),
    (from_levels("steps_star", 1.0, STEPS, e_star=600.0), 400, [0.5, 30.0, 350.0]),
]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("s, n_max, grid", SMALL_TABLES, ids=lambda v: getattr(v, "name", None))
def test_chunked_scan_matches_whole_table(monkeypatch, chunk, s, n_max, grid):
    monkeypatch.setattr(weights, "_CHUNK", chunk)
    assert_scan_matches_whole_table(compute_weights(s, n_max), grid)


@pytest.mark.parametrize("chunk", [256, weights._CHUNK])
def test_chunked_scan_peak_beyond_first_chunk(monkeypatch, chunk):
    # e_n = J near n = 160,000: g peaks past two default chunks
    monkeypatch.setattr(weights, "_CHUNK", chunk)
    w = compute_weights(power_gap_spectrum(0.25), 200_000)
    assert whole_table_sums(w, 0.95, 1e-12, 1).terms_used > 2 * weights._CHUNK
    assert_scan_matches_whole_table(w, [0.95], tols=(1e-12,))


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_scan_restarts_on_a_flat_top(monkeypatch, chunk):
    monkeypatch.setattr(weights, "_CHUNK", chunk)
    w = compute_weights(from_rule("flat_top", 1.0, flat_top_levels), 3_000)
    starts = []
    log_terms = weights._log_terms

    def spy(w, log_j, lo, hi):
        starts.append(lo)
        return log_terms(w, log_j, lo, hi)

    monkeypatch.setattr(weights, "_log_terms", spy)
    for J in (2.0, 1.5):
        for tol in (1e-12, 0.3):
            for order in (0, 1):
                starts.clear()
                got = outcome(weights._certified_sums, w, J, tol, order)
                assert got == outcome(whole_table_sums, w, J, tol, order), (J, tol, order)
                if J == 2.0 and chunk < w.n_max:
                    assert starts.count(0) == 2  # one restart, whatever the chunk count


def test_chunked_scan_cut_on_a_chunk_end(monkeypatch, hydrogen):
    w = compute_weights(hydrogen, 3_000)
    for J in (0.3, 0.9):
        terms = whole_table_sums(w, J, 1e-12, 2).terms_used
        d = next(k for k in range(2, terms + 1) if terms % k == 0)
        short = compute_weights(hydrogen, terms - 1)
        # the cut is the last index of the first chunk, of the d-th chunk, and of the table
        for chunk, table in ((terms, w), (terms // d, w), (weights._CHUNK, short)):
            monkeypatch.setattr(weights, "_CHUNK", chunk)
            got = outcome(weights._certified_sums, table, J, 1e-12, 2)
            assert got == outcome(whole_table_sums, table, J, 1e-12, 2), (J, chunk)
            assert got[1] == terms


def test_chunked_scan_refusals_match_whole_table(monkeypatch, hydrogen):
    cases = [
        (compute_weights(hydrogen, 3_000), 0.9999, 1e-12),
        # terms underflow to the floor near n = 2,600, so the relative tails
        # tie there and the report must name the first of them
        (compute_weights(from_rule("flat_top", 1.0, flat_top_levels), 3_000), 1.5, 1e-320),
    ]
    for chunk in CHUNKS:
        monkeypatch.setattr(weights, "_CHUNK", chunk)
        for w, J, tol in cases:
            for order, absolute in ((0, True), (1, False), (2, False)):
                ref = outcome(whole_table_sums, w, J, tol, order, absolute=absolute)
                assert ref[0] in ("TruncationError", "CertificationError")
                got = outcome(weights._certified_sums, w, J, tol, order, absolute=absolute)
                assert got == ref, (chunk, w.spectrum.name, order)


def test_series_memory_does_not_grow_with_the_table(hydrogen):
    # the near-J* fit table for J = 0.99997: a whole-table pass peaked at 126 MiB
    w = compute_weights(hydrogen, 1_151_276)
    tracemalloc.start()
    try:
        ps = power_sums(w, 0.99997, need_second=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.terms_used > 900_000
    assert peak < 16 * 2**20
