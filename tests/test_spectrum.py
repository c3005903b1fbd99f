import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstates import (
    LevelRangeError,
    Spectrum,
    SpectrumError,
    builtin_measure,
    from_levels,
    from_rule,
    load_spectrum,
    make_builtin,
    power_gap_spectrum,
    validate,
)
from cstates.spectrum import ValidationReport, _check_levels


def test_hydrogen_levels():
    s = make_builtin("hydrogen_like", 1.0)
    assert s.e(0) == 0.0
    assert s.e(1) == 0.75
    assert s.e_star == 1.0
    np.testing.assert_allclose(
        s.e_array(4), [0.0, 0.75, 8.0 / 9.0, 0.9375, 0.96], rtol=0, atol=0
    )


def test_harmonic_levels_scaled():
    s = make_builtin("harmonic", 2.0)
    assert s.e(5) == 5.0
    assert s.energy(5) == 10.0
    assert s.e_star == math.inf


def test_unknown_builtin():
    with pytest.raises(SpectrumError):
        make_builtin("square_well")


def test_omega_must_be_positive():
    with pytest.raises(SpectrumError):
        make_builtin("harmonic", 0.0)
    with pytest.raises(SpectrumError):
        make_builtin("harmonic", -1.0)
    with pytest.raises(SpectrumError):
        from_levels("x", 0.0, [0, 1, 2])


OMEGA_CONSTRUCTORS = {
    "make_builtin": lambda omega: make_builtin("harmonic", omega),
    "from_rule": lambda omega: from_rule("linear", omega, lambda n: n, e_star=math.inf),
    "power_gap_spectrum": lambda omega: power_gap_spectrum(2.0, omega),
    "from_levels": lambda omega: from_levels("x", omega, [0.0, 2.0, 5.0]),
    "load_spectrum": lambda omega: load_spectrum(
        {"kind": "explicit", "omega": omega, "levels": [0.0, 2.0, 5.0]}
    ),
}


@pytest.mark.parametrize("build", OMEGA_CONSTRUCTORS.values(), ids=OMEGA_CONSTRUCTORS.keys())
@pytest.mark.parametrize("omega", [np.int64(2), np.float32(2.0), 2, 2.0], ids=repr)
def test_every_constructor_accepts_real_omega(build, omega):
    s = build(omega)
    assert s.omega == 2.0 and type(s.omega) is float


@pytest.mark.parametrize("build", OMEGA_CONSTRUCTORS.values(), ids=OMEGA_CONSTRUCTORS.keys())
@pytest.mark.parametrize("omega", [True, 0, -1, math.nan, math.inf, "2"], ids=repr)
def test_every_constructor_refuses_bad_omega(build, omega):
    with pytest.raises(SpectrumError, match="omega must be a positive finite number"):
        build(omega)


def test_hydrogen_gap_exact():
    # the gap rule avoids forming 1 - e_n, so it is exact in floats
    s = make_builtin("hydrogen_like", 1.0)
    n = np.arange(101, dtype=float)
    assert np.array_equal(s.gap_array(100), 1.0 / (n + 1.0) ** 2)
    # and the subtraction route agrees to rounding
    np.testing.assert_allclose(1.0 - s.e_array(100), s.gap_array(100), rtol=1e-11)


@pytest.mark.parametrize(
    "s",
    [make_builtin("hydrogen_like"), power_gap_spectrum(0.5),
     from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0], e_star=12.0)],
    ids=lambda s: s.name,
)
def test_gap_range_is_a_slice_of_gap_array(s):
    top = 3 if s.max_index is not None else 500
    whole = s.gap_array(top)
    for lo, hi in ((0, top + 1), (1, 3), (top, top + 1)):
        assert np.array_equal(s.gap_range(lo, hi), whole[lo:hi])
        assert np.array_equal(s.e_range(lo, hi), s.e_array(top)[lo:hi])
    with pytest.raises(LevelRangeError):
        s.gap_range(-1, 2)
    if s.max_index is not None:
        with pytest.raises(LevelRangeError):
            s.gap_range(top + 1, top + 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: load_spectrum({"kind": "explicit", "omega": 1.0, "levels": []}),
        lambda: from_levels("x", 1.0, []),
        lambda: Spectrum(name="x", omega=1.0, e_star=None, levels=()),
    ],
    ids=["load_spectrum", "from_levels", "Spectrum"],
)
def test_empty_levels_are_refused_with_one_message(build):
    with pytest.raises(SpectrumError, match="^explicit spectrum needs at least one level$"):
        build()


@pytest.mark.parametrize("model", ["morse", None, 3])
def test_unknown_builtin_model_is_refused_alike(model):
    message = r"^unknown builtin model .*; choose from \('harmonic', 'hydrogen_like'\)$"
    with pytest.raises(SpectrumError, match=message):
        make_builtin(model)
    with pytest.raises(SpectrumError, match=message):
        builtin_measure(model)


def test_load_builtin_round_trip():
    doc = {"name": "hydrogen_like", "omega": 1.0, "kind": "builtin", "model": "hydrogen_like"}
    s = load_spectrum(doc)
    assert s == make_builtin("hydrogen_like", 1.0)
    s2 = load_spectrum(json.dumps(doc))
    assert s2 == s


def test_load_explicit_identity():
    s = load_spectrum({"name": "x", "omega": 1.0, "kind": "explicit", "levels": [0, 1, 3, 6]})
    assert s.levels == (0.0, 1.0, 3.0, 6.0)
    assert s.shift_applied == 0.0
    assert s.max_index == 3


def test_load_explicit_shift():
    s = load_spectrum({"name": "x", "omega": 1.0, "kind": "explicit", "levels": [2, 3, 5]})
    assert s.shift_applied == 2.0
    assert s.levels == (0.0, 1.0, 3.0)


def test_load_explicit_e_star_variants():
    base = {"name": "x", "omega": 1.0, "kind": "explicit", "levels": [0, 1, 3]}
    assert load_spectrum({**base, "e_star": None}).e_star is None
    assert load_spectrum({**base, "e_star": 4.0}).e_star == 4.0
    assert load_spectrum({**base, "e_star": "inf"}).e_star == math.inf


def test_load_rejects_bad_documents():
    with pytest.raises(SpectrumError):
        load_spectrum("{not json")
    with pytest.raises(SpectrumError):
        load_spectrum({"kind": "explicit", "omega": -1.0, "levels": [0, 1]})
    with pytest.raises(SpectrumError):
        load_spectrum({"kind": "explicit", "omega": 1.0, "levels": []})
    with pytest.raises(SpectrumError):
        load_spectrum({"kind": "mystery", "omega": 1.0})
    with pytest.raises(SpectrumError):
        load_spectrum({"kind": "explicit", "omega": 1.0, "levels": [0, 2, 1]})
    # the JSON token NaN parses to a float, which exceeds no level
    with pytest.raises(SpectrumError, match="e_star=nan must exceed"):
        load_spectrum('{"kind": "explicit", "omega": 1.0, "levels": [0, 2, 5, 9], "e_star": NaN}')
    with pytest.raises(SpectrumError, match="e_star=nan must exceed"):
        from_levels("x", 1.0, [0, 2, 5, 9], e_star=math.nan)
    with pytest.raises(SpectrumError, match="^explicit spectrum needs a 'levels' array$"):
        load_spectrum({"kind": "explicit", "omega": 1.0})
    with pytest.raises(SpectrumError, match="^levels must be numbers"):
        load_spectrum({"kind": "explicit", "omega": 1.0, "levels": [0, "two"]})
    # a single level is validated too: NaN - NaN leaves e_0 = NaN
    with pytest.raises(SpectrumError, match="^invalid explicit levels: n=0: e_0 must be 0"):
        load_spectrum('{"kind": "explicit", "omega": 1.0, "levels": [NaN]}')


def test_load_builtin_name_override():
    s = load_spectrum({"name": "oscillator", "omega": 2.0, "kind": "builtin", "model": "harmonic"})
    assert s.name == "oscillator"
    assert s.model is make_builtin("harmonic").model
    assert (s.omega, s.e(3), s.energy(3)) == (2.0, 3.0, 6.0)


@pytest.mark.parametrize(
    "energies, message",
    [
        ([math.nan], "^invalid explicit levels: n=0: e_0 must be 0"),
        ([math.inf], "^invalid explicit levels: n=0: e_0 must be 0"),
        ([0, math.inf, 2], "^invalid explicit levels: n=1: level is not finite$"),
        ([0, "two"], "^levels must be numbers"),
        ([0, None], "^levels must be numbers"),
    ],
    ids=["one-nan", "one-inf", "inf-inside", "string", "none"],
)
def test_from_levels_refuses_lists_of_any_length(energies, message):
    with pytest.raises(SpectrumError, match=message):
        from_levels("x", 1.0, energies)


def test_one_finite_level_is_shifted_to_zero():
    s = from_levels("x", 1.0, [5.0])
    assert s.levels == (0.0,)
    assert (s.shift_applied, s.e(0), s.max_index) == (5.0, 0.0, 0)


def test_explicit_refuses_indices_beyond_list():
    s = from_levels("x", 1.0, [0, 1, 3, 6])
    with pytest.raises(LevelRangeError):
        s.e(4)
    with pytest.raises(LevelRangeError):
        s.e_array(10)


def test_validate_builtins():
    assert validate(make_builtin("harmonic", 1.0), 100).ok
    assert validate(make_builtin("hydrogen_like", 1.0), 100).ok


def test_validate_needs_n_max_of_at_least_one():
    with pytest.raises(ValueError, match="^n_max must be >= 1$"):
        validate(make_builtin("harmonic", 1.0), 0)


def test_validate_degenerate_explicit_levels():
    import dataclasses

    s = from_levels("base", 1.0, [0, 1, 2, 3])
    bad = dataclasses.replace(s, levels=(0.0, 1.0, 1.0, 2.0))
    report = validate(bad, 3)
    assert not report.ok
    assert any(n == 2 and "degenerate" in msg for n, msg in report.violations)


def test_validate_tolerates_rule_saturation_ties():
    # levels that tie once float resolution saturates still validate as a rule
    s = from_rule("saturating", 1.0, lambda n: np.minimum(np.asarray(n, float), 2.0),
                  e_star=None)
    assert validate(s, 5).ok


def test_validate_decreasing():
    import dataclasses

    s = from_levels("base", 1.0, [0, 1, 2])
    bad = dataclasses.replace(s, levels=(0.0, 2.0, 1.0))
    report = validate(bad, 2)
    assert not report.ok
    assert any(n == 2 and "decreasing" in msg for n, msg in report.violations)


def test_validate_nonzero_ground():
    s = from_rule("off", 1.0, lambda n: np.asarray(n, float) + 0.5)
    report = validate(s, 5)
    assert not report.ok
    assert report.violations[0][0] == 0


def full_level_checks(s, e):
    """Every check of ``_check_levels`` on every level, the reference for its
    two-pass acceptance of valid levels: the report must match it exactly."""
    violations = []
    if not np.isfinite(e[0]) or e[0] != 0.0:
        violations.append((0, f"e_0 must be 0, got {e[0]!r}"))
    for idx in np.nonzero(~np.isfinite(e))[0]:
        if idx > 0:
            violations.append((int(idx), "level is not finite"))
    finite_pair = np.isfinite(e[1:]) & np.isfinite(e[:-1])
    diffs = np.diff(e)
    with np.errstate(invalid="ignore"):
        decreasing = (diffs < 0) & finite_pair
        ties = (diffs == 0) & finite_pair
    for idx in np.nonzero(decreasing)[0]:
        violations.append((int(idx) + 1, "decreasing level"))
    if s.levels is not None:
        for idx in np.nonzero(ties)[0]:
            violations.append((int(idx) + 1, "degenerate level (equal to the previous one)"))
    if s.e_star is not None and math.isfinite(s.e_star):
        for idx in np.nonzero(e >= s.e_star)[0]:
            violations.append((int(idx), f"level {e[idx]!r} is not below e_star={s.e_star}"))
    violations.sort()
    return ValidationReport(ok=not violations, violations=tuple(violations),
                            shift_applied=s.shift_applied)


def with_defect(e, at, value):
    e = np.array(e, dtype=float)
    e[at] = value
    return e


VALID = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 11.0])
LEVEL_ARRAYS = {
    "valid": VALID,
    "one-level": np.array([0.0]),
    "negative-zero-ground": with_defect(VALID, 0, -0.0),
    **{f"nan-at-{at}": with_defect(VALID, at, math.nan) for at in (0, 4, -1)},
    **{f"{v}-at-{at}": with_defect(VALID, at, v) for v in (math.inf, -math.inf) for at in (0, 4, -1)},
    "one-nan-level": np.array([math.nan]),
    "nonzero-ground": with_defect(VALID, 0, 0.25),
    "negative-ground": with_defect(VALID, 0, -1.0),
    "one-nonzero-level": np.array([1.0]),
    "decreasing-step": with_defect(VALID, 4, 0.75),
    "decreasing-at-end": with_defect(VALID, -1, 8.0),
    "tie": with_defect(VALID, 4, 2.0),
    "tie-at-end": with_defect(VALID, -1, 9.0),
    "tie-at-ground": with_defect(VALID, 1, 0.0),
    "at-e_star": with_defect(VALID, -1, 12.0),
    "above-e_star": with_defect(VALID, -1, 20.0),
    "tie-above-e_star": np.array([0.0, 1.0, 13.0, 13.0]),
}


@pytest.mark.parametrize("name", LEVEL_ARRAYS)
def test_check_levels_reports_as_the_full_checks(name):
    # explicit lists and rules, without e_star, with a finite and an infinite one
    e = LEVEL_ARRAYS[name]
    spectra = [
        *(from_levels("list", 1.0, VALID, e_star=star) for star in (None, 12.0)),
        *(from_rule("rule", 1.0, lambda n: n, e_star=star) for star in (None, 12.0, math.inf)),
    ]
    for s in spectra:
        assert _check_levels(s, e) == full_level_checks(s, e), (s.levels is None, s.e_star)
    # with e_star = 12, rules tolerate ties where explicit lists refuse them
    valid = name in ("valid", "one-level", "negative-zero-ground")
    tie = name.startswith("tie") and "e_star" not in name
    assert (_check_levels(spectra[1], e).ok, _check_levels(spectra[3], e).ok) == (valid, valid or tie)


def test_from_levels_rejects_decreasing():
    with pytest.raises(SpectrumError):
        from_levels("bad", 1.0, [0, 2, 1])


def test_declared_e_star_must_exceed_levels():
    with pytest.raises(SpectrumError):
        from_levels("bad", 1.0, [0, 1, 3], e_star=2.0)


def test_power_gap_spectrum():
    s = power_gap_spectrum(0.25)
    assert s.e(0) == 0.0
    assert s.e_star == 1.0
    n = np.arange(50, dtype=float)
    np.testing.assert_allclose(s.gap_array(49), (n + 1.0) ** -0.25, rtol=0, atol=0)
    assert validate(s, 1000).ok


@pytest.mark.parametrize("p", [0, -0.5, math.nan])
def test_power_gap_spectrum_refuses_nonpositive_exponents(p):
    with pytest.raises(SpectrumError, match="^gap exponent must be positive$"):
        power_gap_spectrum(p)


@pytest.mark.parametrize(
    "s",
    [make_builtin("harmonic"), from_rule("open", 1.0, lambda n: np.asarray(n, float))],
    ids=["infinite-e_star", "no-e_star"],
)
def test_gap_needs_a_finite_e_star(s):
    with pytest.raises(SpectrumError, match="^gap to the accumulation point needs a finite e_star$"):
        s.gap_array(3)


def test_rule_requires_gap_and_star_together():
    with pytest.raises(SpectrumError):
        from_rule("incomplete", 1.0, gap_rule=lambda n: 1.0 / (n + 1.0))


@settings(max_examples=50, deadline=None)
@given(
    incs=st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False), min_size=1, max_size=25
    ),
    base=st.floats(min_value=-5.0, max_value=5.0),
    omega=st.floats(min_value=0.1, max_value=10.0),
)
def test_explicit_strictly_increasing_lists_validate(incs, base, omega):
    energies = [base]
    for inc in incs:
        energies.append(energies[-1] + inc)
    s = from_levels("gen", omega, energies)
    assert s.e(0) == 0.0
    report = validate(s, len(energies) - 1)
    assert report.ok
    assert report.shift_applied == base
    diffs = np.diff(s.e_array(len(energies) - 1))
    assert np.all(diffs > 0)
