import dataclasses
import math
import random
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
    near_jstar_coefficient,
    normalization,
    power_gap_spectrum,
    power_sums,
    variance,
)
from cstates import StateLabel, weights
from cstates.state import LabelBatch
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


@pytest.mark.parametrize("J", [-0.5, math.nan, 1.5, True, False, np.True_])
def test_power_sums_rejects_labels_out_of_range(hydrogen, w_hydrogen, J):
    # the series kernel owns the label check, so direct callers get it too;
    # a bool is no label, though True sums at J = 1 and False at J = 0
    with pytest.raises(LabelRangeError):
        power_sums(w_hydrogen, J)
    with pytest.raises(LabelRangeError):
        normalization(w_hydrogen, hydrogen, J)


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


def test_compute_weights_needs_n_max_of_at_least_one(hydrogen):
    with pytest.raises(ValueError, match="^n_max must be >= 1$"):
        compute_weights(hydrogen, 0)


@pytest.mark.parametrize(
    "level_rule, e_star, message",
    [
        # a rule tolerates ties, so e_1 = e_0 = 0 passes validation and stops here
        (lambda n: np.maximum(np.asarray(n, float) - 1.0, 0.0), None, "^e_1 must be positive$"),
        (lambda n: np.asarray(n, float), 2.0, "n=2: level .* is not below e_star=2.0$"),
    ],
    ids=["zero-e_1", "level-at-e_star"],
)
def test_compute_weights_refuses_bad_rules(level_rule, e_star, message):
    s = from_rule("bad", 1.0, level_rule, e_star=e_star)
    with pytest.raises(SpectrumError, match=message):
        compute_weights(s, 5)


def test_power_sums_needs_a_positive_tolerance(w_hydrogen):
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match="^tolerance must be positive"):
            power_sums(w_hydrogen, 0.5, rel_tol=tol)


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


# terms_used of the last whole-table reference, for a first block forced to end at the cut
CUT = [0]


def scan_outcomes(w, J, tol, order, absolute=False):
    """Outcomes of the kernel and of the whole-table reference, the reference
    first, so that its terms_used is in CUT when the kernel runs."""
    ref = outcome(whole_table_sums, w, J, tol, order, absolute=absolute)
    CUT[0] = ref[1] if isinstance(ref[1], int) else w.n_max + 1
    return outcome(weights._certified_sums, w, J, tol, order, absolute=absolute), ref


def assert_scan_matches_whole_table(w, grid, tols=(1e-12, 1e-6)):
    for J in grid:
        for tol in tols:
            for order, absolute in ((0, True), (0, False), (1, False), (2, False)):
                got, ref = scan_outcomes(w, J, tol, order, absolute)
                assert got == ref, (w.spectrum.name, w.n_max, J, tol, order, absolute)


# a rule whose levels sit one ulp above 2: at J = 2 the log-terms g_n are flat
# up to rounding, so a later block raises the running maximum and the scan restarts
ULP_ABOVE_TWO = float(np.nextafter(2.0, 3.0))


def flat_top_levels(n):
    return np.where(np.asarray(n) > 0, ULP_ABOVE_TWO, 0.0)


# block schedules (first block, cap): fixed blocks of 1, 7 and 256 entries,
# blocks doubling from 3 up to 256, the default _BLOCK, and fixed blocks of
# 65,536 entries, more than every table here holds but the peak test's
BLOCK, BLOCK_END, FIRST_BLOCK_END = weights._BLOCK, weights._block_end, weights._first_block_end
WIDE = 1 << 16
SCHEDULES = [pytest.param((c, c), id=str(c)) for c in (1, 7, 256)] + [
    pytest.param((3, 256), id="3-256"),
    pytest.param((BLOCK, BLOCK), id=str(BLOCK)),
    pytest.param((WIDE, WIDE), id=str(WIDE)),
]
# fixed blocks of _BLOCK and 7 entries after a first block forced to end
# short, one before the cut, at the cut, or long: the probe's guesses
FIRST_ENDS = [
    pytest.param((c, c, end), id=f"{c}-first-{end}")
    for c in (BLOCK, 7) for end in (1, 7, "cut-1", "cut", BLOCK, "table")
]


def use_schedule(monkeypatch, schedule):
    """Fixed blocks through ``_BLOCK``; blocks of growing length through a
    substitute ``_block_end``, since no result may depend on where blocks end.

    A third entry forces the first block's end in place of the probe: a
    length, "table", or "cut" and "cut-1" for the reference's terms_used in
    CUT and one fewer.
    """
    first, cap, *forced = schedule
    fixed = first == cap
    monkeypatch.setattr(weights, "_BLOCK", first if fixed else BLOCK)
    monkeypatch.setattr(weights, "_block_end", BLOCK_END if fixed else
                        lambda lo, stop: min(lo + min(lo + first, cap), stop))
    probe = FIRST_BLOCK_END
    if forced:
        def probe(w, J, tol, absolute, end=forced[0]):
            size = w.n_max + 1
            end = {"table": size, "cut": CUT[0], "cut-1": CUT[0] - 1}.get(end, end)
            return max(1, min(end, size))
    monkeypatch.setattr(weights, "_first_block_end", probe)


def test_blocks_hold_a_fixed_number_of_entries():
    sizes = [hi - lo for lo, hi in weights._blocks(0, 300_000)]
    assert sizes == [4_096] * 73 + [300_000 - 73 * 4_096]
    # a range that starts anywhere is cut every 4,096 entries from its start
    assert list(weights._blocks(100, 8_500)) == [(100, 4_196), (4_196, 8_292), (8_292, 8_500)]
    assert list(weights._blocks(5, 5)) == []


def test_small_sum_reads_only_the_first_block(monkeypatch, w_hydrogen):
    # 8 terms certify J = 0.01: the probe sizes the first block to 32 of the
    # 40,001 entries, and the scan reads no other
    assert w_hydrogen.n_max + 1 == 40_001
    ranges = []
    log_terms = weights._log_terms

    def spy(w, log_j, lo, hi):
        ranges.append((lo, hi))
        return log_terms(w, log_j, lo, hi)

    monkeypatch.setattr(weights, "_log_terms", spy)
    for order in (0, 1, 2):
        ranges.clear()
        got = outcome(weights._certified_sums, w_hydrogen, 0.01, 1e-12, order)
        assert got == outcome(whole_table_sums, w_hydrogen, 0.01, 1e-12, order)
        assert ranges == [(0, 32)], order


@pytest.mark.parametrize("model, j_lo, j_hi", [("hydrogen_like", 1e-3, 0.999), ("harmonic", 1e-2, 1e3)])
def test_first_block_is_sized_to_the_sum(monkeypatch, model, j_lo, j_hi):
    # a sum of at most 2,048 terms reads at most twice its terms (32 at
    # least); a longer one reads at most one block more than fixed blocks do
    w = compute_weights(make_builtin(model), 40_000)
    ranges = []
    log_terms = weights._log_terms

    def spy(w, log_j, lo, hi):
        ranges.append((lo, hi))
        return log_terms(w, log_j, lo, hi)

    monkeypatch.setattr(weights, "_log_terms", spy)
    for J in np.geomspace(j_lo, j_hi, 150):
        for order, absolute in ((0, True), (1, False), (2, False)):
            ranges.clear()
            try:
                ps = weights._certified_sums(w, float(J), 1e-12, order, absolute=absolute)
            except TruncationError:  # harmonic N(J) past J ~ 670, below float spacing
                continue
            terms = ps.terms_used
            read = sum(b - a for a, b in ranges)
            if terms <= 2_048:
                assert read <= max(32, 2 * terms), (J, order, terms, ranges)
            assert len(ranges) <= -(-terms // BLOCK) + 1, (J, order, terms, ranges)


STEPS = [0.0] + np.cumsum(np.linspace(0.5, 2.0, 400)).tolist()

SMALL_TABLES = [
    # 5e-324 and 1e-300: the tails underflow to 0, whose log is -inf
    (make_builtin("hydrogen_like"), 1_200, [5e-324, 1e-300, 1e-3, 0.3, 0.9, 0.99, 0.999]),
    (make_builtin("harmonic"), 1_200, [5e-324, 1e-300, 0.01, 1.0, 60.0, 700.0, 1_000.0, 1_190.0]),
    (power_gap_spectrum(0.25), 1_200, [0.2, 0.5, 0.75, 0.8]),
    (from_levels("steps", 1.0, STEPS), 400, [0.5, 30.0, 350.0]),
    (from_levels("steps_star", 1.0, STEPS, e_star=600.0), 400, [0.5, 30.0, 350.0]),
]


@pytest.mark.parametrize("schedule", SCHEDULES + FIRST_ENDS)
@pytest.mark.parametrize("s, n_max, grid", SMALL_TABLES, ids=lambda v: getattr(v, "name", None))
def test_chunked_scan_matches_whole_table(monkeypatch, schedule, s, n_max, grid):
    use_schedule(monkeypatch, schedule)
    assert_scan_matches_whole_table(compute_weights(s, n_max), grid)


@pytest.mark.parametrize("schedule", [SCHEDULES[2], *SCHEDULES[-2:]])
def test_chunked_scan_peak_beyond_first_chunk(monkeypatch, schedule):
    # e_n = J near n = 160,000: g peaks past two blocks of 65,536 entries
    use_schedule(monkeypatch, schedule)
    w = compute_weights(power_gap_spectrum(0.25), 200_000)
    assert whole_table_sums(w, 0.95, 1e-12, 1).terms_used > 2 * WIDE
    assert_scan_matches_whole_table(w, [0.95], tols=(1e-12,))


@pytest.mark.parametrize("schedule", SCHEDULES + FIRST_ENDS)
def test_chunked_scan_restarts_on_a_flat_top(monkeypatch, schedule):
    use_schedule(monkeypatch, schedule)
    w = compute_weights(from_rule("flat_top", 1.0, flat_top_levels), 3_000)
    starts = []
    log_terms = weights._log_terms

    def spy(w, log_j, lo, hi):
        starts.append(lo)
        return log_terms(w, log_j, lo, hi)

    monkeypatch.setattr(weights, "_log_terms", spy)
    for J in (2.0, 1.5):
        for tol in (1e-12, 0.3):
            for order, absolute in ((0, True), (0, False), (1, False)):
                starts.clear()
                got, ref = scan_outcomes(w, J, tol, order, absolute)
                assert got == ref, (J, tol, order, absolute)
                assert starts.count(0) <= 2  # at most one restart
                if J == 2.0 and not absolute and len(schedule) == 2 and schedule[0] < w.n_max:
                    assert starts.count(0) == 2  # one restart, whatever the block count


def test_chunked_scan_cut_on_a_chunk_end(monkeypatch, hydrogen):
    w = compute_weights(hydrogen, 3_000)
    for J in (0.3, 0.9):
        for order, absolute in ((2, False), (0, True)):
            terms = whole_table_sums(w, J, 1e-12, order, absolute).terms_used
            d = next(k for k in range(2, terms + 1) if terms % k == 0)
            short = compute_weights(hydrogen, terms - 1)
            # the cut is the last index of the first block, of the d-th block, and
            # of the table; then the first block is forced to end at the cut or
            # one short of it, so the cut is the first index of the second block
            cases = [((terms, terms), w), ((terms // d, terms // d), w), ((BLOCK, BLOCK), short),
                     ((BLOCK, BLOCK, "cut"), w), ((BLOCK, BLOCK, "cut-1"), w), ((7, 7, "cut-1"), w)]
            for schedule, table in cases:
                use_schedule(monkeypatch, schedule)
                got, ref = scan_outcomes(table, J, 1e-12, order, absolute)
                assert got == ref, (J, order, schedule)
                assert got[1] == terms


def test_chunked_scan_refusals_match_whole_table(monkeypatch, hydrogen):
    cases = [
        (compute_weights(hydrogen, 3_000), 0.9999, 1e-12),
        # terms underflow to the floor near n = 2,600, so the relative tails
        # tie there and the report must name the first of them
        (compute_weights(from_rule("flat_top", 1.0, flat_top_levels), 3_000), 1.5, 1e-320),
    ]
    for schedule in SCHEDULES:
        use_schedule(monkeypatch, schedule.values[0])
        for w, J, tol in cases:
            for order, absolute in ((0, True), (1, False), (2, False)):
                ref = outcome(whole_table_sums, w, J, tol, order, absolute=absolute)
                assert ref[0] in ("TruncationError", "CertificationError")
                got = outcome(weights._certified_sums, w, J, tol, order, absolute=absolute)
                assert got == ref, (schedule.id, w.spectrum.name, order)


def spy_skips(monkeypatch):
    """The (lo, hi) of every block ``_block`` skips, as the kernel runs."""
    skips, block = [], weights._block

    def spy(w, J, lo, hi, n, g, scale, carry, best, skipped, *rest):
        before = len(skipped) if skipped is not None else 0
        found = block(w, J, lo, hi, n, g, scale, carry, best, skipped, *rest)
        if skipped is not None and len(skipped) > before:
            skips.append((lo, hi))
        return found

    monkeypatch.setattr(weights, "_block", spy)
    return skips


def spy_reads(monkeypatch):
    """The (lo, hi) of every range the scan reads log-terms of."""
    reads, log_terms = [], weights._log_terms

    def spy(w, log_j, lo, hi):
        reads.append((lo, hi))
        return log_terms(w, log_j, lo, hi)

    monkeypatch.setattr(weights, "_log_terms", spy)
    return reads


# (model, n_max, grid, whether blocks are skipped in cuts and refusals, in
# both modes): harmonic J = 800 cuts its relative sums in the first block
LONG_SCANS = [
    ("hydrogen_like", 20_000, (0.999, 0.9999, 1 - 10**-4.5), False),
    ("hydrogen_like", 100_000, (0.999, 0.9999, 1 - 10**-4.5), True),
    ("hydrogen_like", 300_000, (0.999, 0.9999, 1 - 10**-4.5), True),
    ("power_gap_0.25", 200_000, (0.9, 0.95), False),
    ("harmonic", 20_000, (800.0,), False),
]


@pytest.mark.parametrize("model, n_max, grid, every", LONG_SCANS)
def test_long_scans_skip_blocks_that_cannot_cut(monkeypatch, model, n_max, grid, every):
    # blocks after the first that end before the table form no tails when
    # they cannot hold the cut; cuts and refusals stay the whole table's
    s = power_gap_spectrum(0.25) if model == "power_gap_0.25" else make_builtin(model)
    w = compute_weights(s, n_max)
    skips = spy_skips(monkeypatch)
    kinds = set()
    for J in grid:
        for tol in (1e-12, 1e-6):
            for order, absolute in ((0, True), (0, False), (1, False), (2, False)):
                skips.clear()
                got, ref = scan_outcomes(w, J, tol, order, absolute)
                assert got == ref, (J, tol, order, absolute)
                assert all(0 < lo and hi <= n_max for lo, hi in skips)
                if skips:
                    kinds.add((got[0] == "TruncationError", absolute))
    assert kinds
    if every:
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_refused_long_scan_reads_each_block_once(monkeypatch, hydrogen):
    # J = 0.9999 on 100,001 entries: the best relative tail is at the table's
    # end, in the last block, which is never skipped; no skipped block ties
    # it, so none is summed again, and the scan reads the 25 blocks it did
    # before blocks were skipped
    w = compute_weights(hydrogen, 100_000)
    skips, reads = spy_skips(monkeypatch), spy_reads(monkeypatch)
    for order, absolute in ((0, True), (0, False), (1, False), (2, False)):
        skips.clear()
        reads.clear()
        got, ref = scan_outcomes(w, 0.9999, 1e-12, order, absolute)
        assert got == ref and got[0] == "TruncationError"
        assert len(reads) == 25 == len(set(reads)), order
        assert [lo for lo, _ in reads].count(0) == 1
        assert len(skips) == 23


@pytest.mark.parametrize("schedule", SCHEDULES + FIRST_ENDS)
def test_refusal_sums_again_the_skipped_blocks_that_tie(monkeypatch, schedule):
    # flat_top at J = 1.5: terms underflow to the floor near n = 2,600 and the
    # relative tails tie from there, so the skipped blocks whose bound ties
    # the best are summed again, from their carry, never from n = 0, and the
    # report names the first of the tied tails
    use_schedule(monkeypatch, schedule)
    w = compute_weights(from_rule("flat_top", 1.0, flat_top_levels), 3_000)
    skips, reads = spy_skips(monkeypatch), spy_reads(monkeypatch)
    for order, absolute in ((0, True), (0, False), (1, False)):
        skips.clear()
        reads.clear()
        got, ref = scan_outcomes(w, 1.5, 1e-320, order, absolute)
        assert got == ref and got[0] == "TruncationError", (order, absolute)
        assert [lo for lo, _ in reads].count(0) == 1
        again = [r for r in reads if reads.count(r) > 1]
        assert set(again) <= set(skips)
        if len(schedule) == 2 and schedule[1] < 2_600 and not absolute:
            assert again  # tied blocks before the table's last are skipped, then read again


def refusal(exc):
    """Type, message and payload of a refusal, the payload by repr."""
    return (type(exc).__name__, str(exc),
            *(repr(getattr(exc, a, None)) for a in ("value", "tail_bound", "terms_used")))


def kernel_repr(w, J, tol, order):
    """repr of the kernel's sums at one J, or its refusal: unlike
    ``outcome``, repr tells signed zeros apart."""
    try:
        return repr(weights._certified_sums(w, J, tol, order))
    except (CStatesError, ValueError) as exc:
        return refusal(exc)


def column_sums(columns):
    """The PowerSums of each J of ``_batch_sums``' columns, field by field."""
    return {J: PowerSums(J, int(columns.terms_used[i]), float(columns.log_scale[i]),
                         *columns.s[:, i].tolist(), *columns.t[:, i].tolist())
            for J, i in columns.at.items()}


def assert_batch_matches_kernel(w, Js, tol, order):
    """``_batch_sums`` on Js raises the kernel's refusal of the first refused
    J, if any; on the J of Js the kernel certifies, it gives every distinct
    one, in order, the kernel's sums by repr, field by field from the
    columns, and (J > 0) the whole-table reference's.  Returns the sums of
    the second call that it did not leave to a kernel call: the rows it
    summed as a batch."""
    refs = {J: kernel_repr(w, J, tol, order) for J in Js}
    refused = [ref for ref in refs.values() if isinstance(ref, tuple)]
    if refused:
        with pytest.raises((CStatesError, ValueError)) as info:
            weights._batch_sums(w, Js, tol, order)
        assert refusal(info.value) == refused[0], (w.spectrum.name, tol, order)
    certified = [J for J in Js if not isinstance(refs[J], tuple)]
    kernel, called = weights._certified_sums, []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(weights, "_certified_sums", lambda w, J, *a, **k: called.append(J) or kernel(w, J, *a, **k))
        got = column_sums(weights._batch_sums(w, certified, tol, order))
    assert list(got) == list(dict.fromkeys(certified))
    assert len(called) == len(set(called))
    for J, ps in got.items():
        assert repr(ps) == refs[J], (w.spectrum.name, J, tol, order)
        if J:
            assert outcome(lambda: ps) == outcome(whole_table_sums, w, J, tol, order)
    return {J: ps for J, ps in got.items() if J not in called}


def first_block_cuts(w, Js, tol, order):
    """The J > 0 of Js that the kernel certifies within a first block it
    stacks: ``_batch_sums`` sums these as rows and leaves the rest to it."""
    cuts = set()
    for J in set(Js):
        try:
            terms = weights._certified_sums(w, J, tol, order).terms_used
        except CStatesError:
            continue
        first = weights._first_block_end(w, J, tol, False)
        if J > 0 and terms <= first and (order + 1) * first <= BLOCK:
            cuts.add(J)
    return cuts


BATCH_CASES = [(order, tol) for order in (1, 2) for tol in (1e-12, 1e-26, 1e-6)]


@pytest.mark.parametrize("schedule", SCHEDULES + FIRST_ENDS)
@pytest.mark.parametrize("s, n_max, grid", SMALL_TABLES, ids=lambda v: getattr(v, "name", None))
def test_batch_matches_kernel_and_whole_table(monkeypatch, schedule, s, n_max, grid):
    # shuffled, with duplicates, J = 0 and the smallest positive J; a forced
    # first block ends per J at its own cut, found by the whole-table reference
    use_schedule(monkeypatch, schedule)
    w = compute_weights(s, n_max)
    Js = [*grid, *grid[::2], 0.0, 5e-324]
    random.Random(n_max).shuffle(Js)
    cuts = {}
    if len(schedule) == 3:
        size, end = w.n_max + 1, schedule[2]

        def probe(w, J, tol, absolute):
            if np.ndim(J):  # the batch probes its rows as one column
                return np.array([probe(w, x, tol, absolute) for x in J[:, 0].tolist()])
            cut = cuts[J]
            return max(1, min({"table": size, "cut": cut, "cut-1": cut - 1}.get(end, end), size))

        monkeypatch.setattr(weights, "_first_block_end", probe)
    summed = set()
    for order, tol in BATCH_CASES:
        for J in Js:
            ref = outcome(whole_table_sums, w, J, tol, order) if J else (0, 1)
            cuts[J] = ref[1] if isinstance(ref[1], int) else w.n_max + 1
        summed |= set(assert_batch_matches_kernel(w, Js, tol, order))
    assert 0.0 not in summed
    if schedule[0] >= BLOCK and schedule[2:] in ((), ("cut",), ("table",), (BLOCK,)):
        assert len(summed) >= 2  # first blocks that hold the cut are batched


def test_batch_sums_the_rows_of_a_benign_grid(hydrogen):
    # the batch sums every row whose probed first block holds the cut, all of
    # the grid but J = 0.147 at tol 1e-26 (33 terms, one past its 32-entry
    # block); one distinct J goes to the kernel
    w = compute_weights(hydrogen, 3_000)
    Js = np.linspace(0.01, 0.9, 40).tolist()
    for order, tol in BATCH_CASES:
        rows = first_block_cuts(w, Js, tol, order)
        assert len(rows) >= len(Js) - 1
        assert set(assert_batch_matches_kernel(w, Js, tol, order)) == rows
        assert assert_batch_matches_kernel(w, [0.3, 0.3], tol, order) == {}


def test_batch_takes_log_j_as_the_kernel_does(hydrogen):
    # numpy's vectorized log of these J is one ulp off math.log, which the
    # kernel takes: rows must match the kernel by repr all the same
    w = compute_weights(hydrogen, 3_000)
    Js = [0.1472133497769775, 0.24613884549564533, 0.6062613670814139, 0.7157108995977207,
          0.7680520948638214, 0.8178849557854342, 0.8978943417984623]
    for order, tol in BATCH_CASES:
        rows = first_block_cuts(w, Js, tol, order)
        assert len(rows) >= len(Js) - 1
        assert set(assert_batch_matches_kernel(w, Js, tol, order)) == rows


@pytest.mark.parametrize("count", [44, 104])
@pytest.mark.parametrize("declared", [False, True], ids=["estimated", "e_star"])
def test_batch_rows_reach_the_table_end(count, declared):
    # a J the probe does not pass takes the whole short list as its first
    # block: rows close their tails with next_level_bound at the table's end;
    # the J past it, and every second moment without e_star, are refused by
    # the kernel
    levels = [0.0] + np.cumsum(np.linspace(0.5, 1.5, count - 1)).tolist()
    s = from_levels("list", 1.0, levels, e_star=levels[-1] + 2.0 if declared else None)
    w = compute_weights(s, count - 1)
    assert weights._first_block_end(w, 1.0, 1e-12, False) == 32
    assert weights._first_block_end(w, levels[-1] / 2, 1e-12, False) == w.n_max + 1
    Js = (np.linspace(0.0, 1.0, 161)[1:] * levels[-1] * 1.02).tolist()
    for order, tol in BATCH_CASES:
        got = assert_batch_matches_kernel(w, Js, tol, order)
        refused = [kernel_repr(w, J, tol, order)[0] for J in Js if J not in got]
        if order == 2 and not declared:
            assert not got and set(refused) == {"CertificationError"}
        else:
            assert any(ps.terms_used == count for ps in got.values()), (order, tol)
            assert "TruncationError" in refused
            assert set(refused) <= {"TruncationError", "LabelRangeError"}


PREFIX_CASES = [(order, tol) for order in (1, 2) for tol in (1e-12, 1e-26)]


def spy_rows(monkeypatch):
    """(end, J, answered) for every row of every batched ``_block`` call."""
    rows, block = [], weights._block

    def spy(w, J, lo, hi, n, g, *args):
        out = block(w, J, lo, hi, n, g, *args)
        if g.ndim > 1:
            cut = [False] * len(J) if out[0] is None else out[0][0].tolist()
            rows.extend(zip([hi] * len(J), J[:, 0].tolist(), cut))
        return out

    monkeypatch.setattr(weights, "_block", spy)
    return rows


@pytest.mark.parametrize("model, Js", [
    # near 0.40 (tol 1e-12) and 0.14 (tol 1e-26) the zeroth moment certifies
    # inside a prefix and a higher moment only past it
    ("hydrogen_like", [*np.linspace(0.13, 0.15, 12), *np.linspace(0.40, 0.41, 12)]),
    ("harmonic", np.linspace(1.8, 2.0, 12)),
])
def test_batch_rows_that_cut_past_their_prefix(monkeypatch, model, Js):
    # a row whose probed first block does not hold the cut is left to the
    # kernel, which sums on past that block
    w = compute_weights(make_builtin(model), 3_000)
    rows = spy_rows(monkeypatch)
    Js = [float(J) for J in Js]
    missed = set()
    for order, tol in PREFIX_CASES:
        rows.clear()
        got = assert_batch_matches_kernel(w, Js, tol, order)
        assert set(got) == first_block_cuts(w, Js, tol, order), (order, tol)
        left = {J for _, J, ok in rows if not ok}
        assert left == set(Js) - set(got), (order, tol)
        missed |= left
    assert missed


# e_1 = 0.5 below 1, then steep levels: at J = e_1, g_0 = -0.0 and g_1 = 0.0
# tie, and numpy's maximum of the first 8 entries is 0.0, of 16 or more -0.0
STEEP = [0.0, 0.5] + [100.0 * k for k in range(1, 299)]


def test_batch_rows_on_a_flat_top(monkeypatch, hydrogen, harmonic):
    # J at a level and one ulp above it: g_{k-1} and g_k tie up to rounding,
    # and a row's scale is the maximum of g over the kernel's first block; an
    # 8-entry first block on STEEP, cut at 7 terms, takes the other zero
    rows = spy_rows(monkeypatch)
    monkeypatch.setattr(weights, "_PROBE_ENDS", (8, *weights._PROBE_ENDS))
    steep = from_levels("steep", 1.0, STEEP, e_star=STEEP[-1] + 100.0)
    for w, levels in ((compute_weights(harmonic, 3_000), range(1, 40)),
                      (compute_weights(hydrogen, 3_000), (0.75, 8 / 9, 0.9375)),
                      (compute_weights(steep, 299), (0.5, 100.0, 200.0))):
        Js = [x for level in levels for x in (float(level), float(np.nextafter(level, np.inf)))]
        for order, tol in PREFIX_CASES:
            assert_batch_matches_kernel(w, Js, tol, order)
    assert (8, 0.5, True) in rows
    assert any(end in (32, 45, 64, 90, 128) and ok for end, _, ok in rows)


@pytest.mark.parametrize("count", [33, 44, 65, 104])
@pytest.mark.parametrize("declared", [False, True], ids=["estimated", "e_star"])
def test_batch_prefix_rows_reach_the_table_end(monkeypatch, count, declared):
    # test_batch_rows_reach_the_table_end's lists, and lists whose last level
    # closes a probed first block of 32 or 64 entries
    levels = [0.0] + np.cumsum(np.linspace(0.5, 1.5, count - 1)).tolist()
    s = from_levels("list", 1.0, levels, e_star=levels[-1] + 2.0 if declared else None)
    w = compute_weights(s, count - 1)
    rows = spy_rows(monkeypatch)
    Js = (np.linspace(0.0, 1.0, 161)[1:] * levels[-1] * 1.02).tolist()
    for order, tol in PREFIX_CASES:
        assert_batch_matches_kernel(w, Js, tol, order)
    ends = {end for end, _, ok in rows if ok}
    assert w.n_max + 1 in ends
    if count in (33, 65):
        assert w.n_max in ends
    else:
        assert ends & set(weights._PROBE_ENDS)


def test_states_raise_the_first_refused_labels_error(hydrogen):
    # the batch, and the states of many labels, raise the kernel's error at
    # the first refused label, in input order
    w = compute_weights(hydrogen, 16)
    Js = [0.1, 0.95, -0.5, 0.9, 0.1, 1.0, 0.0, math.nan, 0.05]
    got = assert_batch_matches_kernel(w, Js, 1e-12, 1)
    assert set(got) == {0.1, 0.05}
    # a single nonzero label takes the kernel directly and raises the same
    cases = (([0.1, 0.95, 0.9], 0.95), ([0.9, 0.95], 0.9), ([0.05, -0.5, 0.95], -0.5),
             ([0.95], 0.95), ([0.0, -0.5], -0.5))
    for labels, first in cases:
        with pytest.raises(CStatesError) as info:
            LabelBatch(hydrogen, w, [StateLabel(J, 1.0) for J in labels], 1e-12)
        assert refusal(info.value) == kernel_repr(w, first, 1e-12, 1)


def test_series_memory_does_not_grow_with_the_table(hydrogen):
    # the near-J* fit table for J = 0.99997: a whole-table pass peaked at 126
    # MiB, and blocks doubling up to 65,536 entries at 8.1 MiB
    w = compute_weights(hydrogen, 1_151_276)
    calls = {
        "power_sums": lambda: power_sums(w, 0.99997, need_second=True),
        "variance": lambda: variance(hydrogen, w, 0.99997),
        "near_jstar_coefficient": lambda: near_jstar_coefficient(hydrogen, w),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, name
    assert power_sums(w, 0.99997, need_second=True).terms_used > 900_000


@pytest.mark.parametrize("model", ["hydrogen_like", "harmonic"])
def test_table_build_memory_stays_near_the_table(model):
    # log -> cumsum -> concatenate peaked at 2.0x (hydrogen_like) and 1.5x
    # (harmonic) the final table
    s = make_builtin(model)
    tracemalloc.start()
    try:
        w = compute_weights(s, 1_092_195)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (w.log_rho.nbytes + w.levels.nbytes)


@pytest.mark.parametrize("model", ["hydrogen_like", "harmonic"])
def test_table_built_in_place_is_the_concatenated_one(model):
    s = make_builtin(model)
    w = compute_weights(s, 300_000)
    n = np.arange(300_001, dtype=float)
    levels = n if model == "harmonic" else 1.0 - 1.0 / ((n + 1.0) * (n + 1.0))
    assert np.array_equal(w.levels, levels)
    assert np.array_equal(w.log_rho, np.concatenate([[0.0], np.cumsum(np.log(levels[1:]))]))


def filled_in_full(s, n_max):
    """A table whose complete arrays were read before any sum."""
    w = compute_weights(s, n_max)
    w.levels
    return w


def result_or_refusal(call):
    """repr of what call returns, or its error class and message: bit for bit."""
    try:
        return repr(call())
    except CStatesError as exc:
        return f"{type(exc).__name__}: {exc}"


ON_DEMAND_SPECTRA = {
    "harmonic": (lambda: make_builtin("harmonic"), [1e-3, 0.5, 7.0, 60.0, 300.0, 3000.0, 5e4]),
    "hydrogen_like": (lambda: make_builtin("hydrogen_like"), [1e-3, 0.3, 0.9, 0.99, 0.999, 0.9999]),
    "power_gap_0.5": (lambda: power_gap_spectrum(0.5), [1e-3, 0.3, 0.9, 0.99, 0.999]),
    "explicit": (lambda: from_levels("ramp", 1.0, (1.0 - np.arange(1.0, 40_002.0) ** -1.5).tolist(),
                                     e_star=1.0), [1e-3, 0.3, 0.9, 0.99, 0.999]),
}


@pytest.mark.parametrize("n_max", [4_095, 4_096, 4_097, 40_000])
@pytest.mark.parametrize("name", list(ON_DEMAND_SPECTRA))
def test_filled_on_demand_equals_filled_in_full(name, n_max):
    from cstates import coefficients

    make, Js = ON_DEMAND_SPECTRA[name]
    s = make()
    lazy, full = compute_weights(s, n_max), filled_in_full(s, n_max)

    def calls(w):
        out = []
        for J in Js:
            out += [result_or_refusal(lambda: power_sums(w, J)),
                    result_or_refusal(lambda: power_sums(w, J, need_second=True)),
                    result_or_refusal(lambda: normalization(w, s, J)),
                    result_or_refusal(lambda: coefficients(s, w, StateLabel(J, 0.7)).c.tobytes()),
                    result_or_refusal(lambda: variance(s, w, J))]
        labels = [StateLabel(J, 1.3) for J in Js]
        out.append(result_or_refusal(lambda: [x.c.tobytes() for x in LabelBatch(s, w, labels, 1e-12).states()]))
        out.append(result_or_refusal(lambda: [x.c.tobytes() for x in LabelBatch(s, w, labels[:3], 1e-12).states()]))
        return out

    assert calls(lazy) == calls(full)
    assert lazy.levels.tobytes() == full.levels.tobytes() == s.e_array(n_max).tobytes()
    assert lazy.log_rho.tobytes() == full.log_rho.tobytes()


def test_a_sum_fills_only_the_blocks_it_reads(hydrogen):
    # a short hydrogen sum reads its first block: the table stays at the
    # block built with it, or one more; the complete arrays fill it all
    w = compute_weights(hydrogen, 40_000)
    assert w._filled == weights._BLOCK
    variance(hydrogen, w, 0.9)
    assert w._filled <= 2 * weights._BLOCK
    assert len(w.log_rho) == len(w.levels) == w._filled == 40_001


def test_hydrogen_refuses_its_float_range_at_once(hydrogen):
    # 1 - 1/(n+1)^2 rounds to e_star = 1.0 from n = 134,217,727 on; a table
    # reaching it is refused before any level array is allocated
    below, at = hydrogen.e_range(134_217_726, 134_217_728).tolist()
    assert below < 1.0 and at == 1.0
    assert hydrogen.model.levels_valid_below == 134_217_727
    for n_max in (134_217_727, 10**12):
        tracemalloc.start()
        try:
            with pytest.raises(SpectrumError, match=r"^spectrum 'hydrogen_like' failed validation: "
                               r"n=134217727: level 1\.0 is not below e_star=1\.0$"):
                compute_weights(hydrogen, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
