import cmath
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstates
from cstates import (
    LabelRangeError,
    SpectrumMismatchError,
    StateLabel,
    coefficients,
    compute_weights,
    evolve_coefficients,
    evolve_label,
    from_levels,
    kinematic_representation_check,
    make_builtin,
    moments_from_state,
    power_gap_spectrum,
    temporal_stability_residual,
)
from cstates import phase
from cstates.dynamics import kinematic_pairs, stability_residuals
from cstates.phase import phase_factor, reduce_angles
from cstates.state import LabelBatch, _zero_padded


def test_evolve_label_examples():
    assert evolve_label(StateLabel(0.5, 0.0), 2.0, 1.0) == StateLabel(0.5, 2.0)
    l = StateLabel(0.3, 1.1)
    assert evolve_label(l, 0.0, 2.0) == l
    forward = evolve_label(l, 2.0, 1.0)
    assert evolve_label(forward, -2.0, 1.0) == l


def test_evolve_coefficients_identity_at_t0(hydrogen, w_hydrogen):
    x = coefficients(hydrogen, w_hydrogen, StateLabel(0.4, 0.9))
    ev = evolve_coefficients(x, hydrogen, 0.0)
    assert np.array_equal(ev.c, x.c)
    assert ev.source_label == x.label


def test_evolve_coefficients_refuses_another_spectrum(hydrogen, w_hydrogen, harmonic):
    state = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    with pytest.raises(SpectrumMismatchError):
        evolve_coefficients(state, harmonic, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_evolve_coefficients_refuses_nonfinite_time(hydrogen, w_hydrogen, t):
    state = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    for x in (state, state.c):
        with pytest.raises(LabelRangeError, match="^t must be a finite number"):
            evolve_coefficients(x, hydrogen, t)


def test_evolve_coefficients_refuses_an_overflowing_phase(harmonic, w_harmonic):
    # (omega e_n) t at the last level overflows where t itself is finite
    state = coefficients(harmonic, w_harmonic, StateLabel(1.0, 0.0))
    for x in (state, state.c):
        with pytest.raises(LabelRangeError, match="^t = 1e\\+308 puts the phase argument"):
            evolve_coefficients(x, harmonic, 1e308)
    assert evolve_coefficients(np.ones(1), harmonic, 1e308).c.tolist() == [1.0]
    # a psi wider than the state's row: its last level decides
    label = StateLabel(1e-3, 0.0)
    with pytest.raises(LabelRangeError, match="^t = 1e\\+307 puts the phase argument"):
        kinematic_representation_check(harmonic, w_harmonic, np.ones(40), label, 1e307)


def test_eigenstate_gets_pure_phase(hydrogen):
    psi = np.zeros(5, dtype=complex)
    psi[2] = 1.0
    t = 1.9
    ev = evolve_coefficients(psi, hydrogen, t)
    np.testing.assert_allclose(np.abs(ev.c) ** 2, np.abs(psi) ** 2, atol=1e-15)
    expected = cmath.exp(-1j * hydrogen.energy(2) * t)
    assert ev.c[2] == pytest.approx(expected, abs=1e-14)


def test_evolved_equals_relabeled_componentwise(hydrogen, w_hydrogen):
    label = StateLabel(0.5, 0.3)
    t = 2.2
    ev = evolve_coefficients(coefficients(hydrogen, w_hydrogen, label), hydrogen, t)
    re = coefficients(hydrogen, w_hydrogen, evolve_label(label, t, hydrogen.omega))
    assert len(ev.c) == len(re.c)
    np.testing.assert_allclose(ev.c, re.c, atol=1e-12)


def test_residual_examples(hydrogen, w_hydrogen, harmonic, w_harmonic):
    assert temporal_stability_residual(hydrogen, w_hydrogen, StateLabel(0.5, 0.0), 3.7) <= 1e-10
    assert temporal_stability_residual(harmonic, w_harmonic, StateLabel(2.0, 1.0), math.pi) <= 1e-10
    assert temporal_stability_residual(hydrogen, w_hydrogen, StateLabel(0.3, -1.0), 0.0) == 0.0


def test_energy_conserved_under_evolution(hydrogen, w_hydrogen):
    label = StateLabel(0.62, 0.0)
    x = coefficients(hydrogen, w_hydrogen, label)
    for t in (0.0, 3.3, -11.0):
        ev = evolve_coefficients(x, hydrogen, t)
        mean, _, _ = moments_from_state(
            hydrogen, type(x)(c=ev.c, tail_mass_bound=x.tail_mass_bound,
                              label=label, spectrum=hydrogen)
        )
        assert mean == pytest.approx(hydrogen.omega * label.J, abs=1e-10)


def test_residual_makes_one_series_call(hydrogen, w_hydrogen, series_calls):
    # evolution keeps J, so the start and relabeled states share one series
    temporal_stability_residual(hydrogen, w_hydrogen, StateLabel(0.6, 0.4), 2.5)
    assert [J for _, J, _ in series_calls] == [0.6]


def test_kinematics_makes_one_series_call(hydrogen, w_hydrogen, series_calls):
    psi = np.ones(12, dtype=complex) / math.sqrt(12)
    kinematic_representation_check(hydrogen, w_hydrogen, psi, StateLabel(0.6, 0.4), -1.3)
    assert [J for _, J, _ in series_calls] == [0.6]


def test_kinematics_coherent_at_t0(hydrogen, w_hydrogen):
    label = StateLabel(0.45, 0.8)
    psi = coefficients(hydrogen, w_hydrogen, label).c
    lhs, rhs = kinematic_representation_check(hydrogen, w_hydrogen, psi, label, 0.0)
    assert lhs == pytest.approx(rhs, abs=1e-14)
    assert lhs == pytest.approx(1.0, abs=1e-10)


def test_kinematics_random_state(hydrogen, w_hydrogen):
    rng = np.random.default_rng(7)
    psi = rng.normal(size=10) + 1j * rng.normal(size=10)
    psi /= np.linalg.norm(psi)
    lhs, rhs = kinematic_representation_check(
        hydrogen, w_hydrogen, psi, StateLabel(0.4, 0.2), 1.3
    )
    assert abs(lhs - rhs) <= 1e-10


def test_kinematics_single_eigenstate(hydrogen, w_hydrogen):
    label = StateLabel(0.4, 0.2)
    t = 0.9
    psi = np.zeros(3, dtype=complex)
    psi[2] = 1.0
    lhs, rhs = kinematic_representation_check(hydrogen, w_hydrogen, psi, label, t)
    c2 = coefficients(hydrogen, w_hydrogen, label).c[2]
    expected = c2.conjugate() * cmath.exp(-1j * hydrogen.energy(2) * t)
    assert lhs == pytest.approx(expected, abs=1e-12)
    assert rhs == pytest.approx(expected, abs=1e-12)


LEVEL_RULES = [
    make_builtin("hydrogen_like"),
    make_builtin("harmonic", 1.3),
    power_gap_spectrum(0.25),
    from_levels("ladder", 0.7, [n + 0.1 * n * n for n in range(60)], e_star=900.0),
]


@pytest.mark.parametrize("s", LEVEL_RULES, ids=lambda s: s.name)
def test_evolving_with_the_table_levels_matches_evolve_coefficients(s):
    # callers holding a table phase with its levels, not the level rule
    w = compute_weights(s, 59)
    assert w.levels.tobytes() == s.e_array(59).tobytes()
    rng = np.random.default_rng(3)
    c = rng.normal(size=60) + 1j * rng.normal(size=60)
    # one-label batches whose rows hold 1 entry and 7 to 33 entries
    ks = []
    for J in (0.0, 0.02, 0.2):
        batch = LabelBatch(s, w, [StateLabel(J, 0.5)], 1e-12)
        k = batch.lengths[0]
        ks.append(k)
        for t in (0.0, 1.7, -33.0, 3.7e11):
            ref = evolve_coefficients(c[:k], s, t).c
            assert ref.tobytes() == (c[:k] * phase_factor(s.omega * s.e_array(k - 1) * t)).tobytes()
            moved = batch.phased(c[:k], s.omega * w.levels, [t])
            assert moved.tobytes() == ref.tobytes(), (k, t)
    assert ks[0] == 1 and ks[2] > ks[1] > 1


def test_one_vector_products_keep_their_rules(hydrogen, w_hydrogen):
    # numpy computes a complex product with a large temporary operand in
    # place from 16,384 entries on, and that can differ in the last bit from
    # a product into a new array.  One vector is multiplied with ``*`` by
    # evolve_coefficients and by LabelBatch.phased alike; several rows into a new
    # array, so each row is its own one-row product even where the flat
    # product is long enough for numpy to reuse the temporary
    e = hydrogen.omega * w_hydrogen.levels
    x = coefficients(hydrogen, w_hydrogen, StateLabel(0.999, 0.4))
    assert len(x.c) >= 16_384
    for t in (2.7, -1.0, 3.3e4):
        one = LabelBatch(hydrogen, w_hydrogen, [x.label], 1e-12).phased(x.c, e, [t])
        assert evolve_coefficients(x, hydrogen, t).c.tobytes() == one.tobytes(), t
    labels = [StateLabel(float(J), 0.3 * k) for k, J in enumerate(np.linspace(0.9, 0.98, 40))]
    batch = LabelBatch(hydrogen, w_hydrogen, labels, 1e-12)
    vectors = [y.c for y in batch.states()]
    assert batch.bounds[-1] >= 16_384 and max(batch.lengths) < 16_384
    ts = np.linspace(-20.0, 20.0, len(vectors)).tolist()
    many = batch.split(batch.phased(np.concatenate(vectors), e, ts))
    for label, v, t, row in zip(labels, vectors, ts, many):
        one_row = LabelBatch(hydrogen, w_hydrogen, [label], 1e-12)
        assert row.tobytes() == one_row.phased(v, e, [t]).tobytes(), t


@pytest.mark.parametrize("s", LEVEL_RULES, ids=lambda s: s.name)
def test_batched_stability_and_kinematics_match_one_by_one(s):
    # many samples share one batched series and span several runs of phases;
    # each result is the one-by-one formula's, bit for bit
    w = compute_weights(s, 59 if s.max_index else 20_000)
    rng = np.random.default_rng(11)
    top = 0.9 * min(w.j_star, 5.0)
    draws = zip(rng.uniform(0, top, 120), rng.uniform(-9, 9, 120), rng.uniform(-20, 20, 120))
    samples = [(StateLabel(float(J), float(g)), float(t)) for J, g, t in draws]
    samples[5] = (StateLabel(0.0, 1.0), 2.0)
    samples[7] = (samples[3][0], 1e9)  # a repeated label, and a phase past 1e8
    batch = LabelBatch(s, w, [l for l, _ in samples], 1e-12)
    ts = [t for _, t in samples]
    residuals, starts, tails = stability_residuals(batch, ts), batch.c, batch.tails
    psis = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in rng.integers(1, 60, len(samples))]
    pairs = kinematic_pairs(batch, psis, ts)
    singles = []
    for (l, t), residual, tail, psi, pair in zip(samples, residuals, tails, psis, pairs):
        a = coefficients(s, w, l)
        singles.append(a.c)
        b = coefficients(s, w, evolve_label(l, t, s.omega))
        back = coefficients(s, w, evolve_label(l, -t, s.omega))
        moved_a = a.c * phase_factor(s.omega * s.e_array(len(a.c) - 1) * t)
        moved_psi = psi * phase_factor(s.omega * s.e_array(len(psi) - 1) * t)
        assert repr(tail) == repr(a.tail_mass_bound)
        assert repr(residual) == repr(float(np.linalg.norm(moved_a - b.c)))
        assert pair == (complex(np.vdot(*_zero_padded(a.c, moved_psi))),
                        complex(np.vdot(*_zero_padded(back.c, psi))))
        # the public one-label checks give the batch's row
        assert (repr(temporal_stability_residual(s, w, l, t)),
                repr(kinematic_representation_check(s, w, psi, l, t))) == (repr(residual), repr(pair))
    # the start states, end to end in sample order
    assert starts.tobytes() == np.concatenate(singles).tobytes()


def test_reduce_angles_against_mpmath():
    # up to the largest float; 40 fixed digits were 3.6 rad off at 1e300
    values = np.array([3.0, -2.0, 1.0e9, -7.3e11, 5.5e14,
                       1e28, 1e40, 1e300, -1e300, sys.float_info.max])
    reduced = reduce_angles(values)
    # 400 digits resolve the residue of |x| < 1.8e308 to 1e-90
    with mpmath.workdps(400):
        tau = 2 * mpmath.pi
        for x, r in zip(values, reduced):
            ref = mpmath.fmod(mpmath.mpf(float(x)), tau)
            diff = complex(mpmath.exp(-1j * ref)) - complex(cmath.exp(-1j * float(r)))
            assert abs(diff) < 1e-12, x


def test_import_does_not_load_mpmath():
    # mpmath is only a test oracle: the package reduces huge angles without it
    src = str(Path(cstates.__file__).resolve().parents[1])
    code = "import sys, cstates, cstates.cli; sys.exit('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_reduce_angles_below_1e20_keep_40_digits():
    values = np.array([1.0e9, -7.3e11, 5.5e14, 9.9e19])
    with mpmath.workdps(40):
        ref = [float(mpmath.fmod(mpmath.mpf(float(x)), 2 * mpmath.pi)) for x in values]
    assert reduce_angles(values).tolist() == ref


def test_reduce_angles_are_correctly_rounded():
    # every binary exponent from 2^27 up, both signs, the largest float, and
    # 6381956970095103 2^797, which lies 4.7e-19 from a multiple of pi/2
    rng = np.random.default_rng(16)
    values = np.ldexp(rng.uniform(0.5, 1.0, 300), rng.integers(28, 1025, 300))
    values *= rng.choice([-1.0, 1.0], 300)
    values = np.append(values, [sys.float_info.max, -sys.float_info.max,
                                math.ldexp(6381956970095103, 797)])
    with mpmath.workdps(600):
        tau = 2 * mpmath.pi
        ref = [float(mpmath.fmod(mpmath.mpf(float(x)), tau)) for x in values]
    assert reduce_angles(values).tolist() == ref


def test_reduce_angles_of_infinities_are_nan():
    out = reduce_angles(np.array([math.inf, -math.inf, 2e9]))
    assert np.isnan(out[:2]).all()
    assert 0.0 <= out[2] < 2 * math.pi


def test_two_pi_constant_is_the_floor_of_scaled_two_pi():
    with mpmath.workdps(400):
        ref = int(mpmath.floor(2 * mpmath.pi * phase._SCALE))
    assert phase._TWO_PI == ref


def test_package_runs_without_mpmath():
    # huge angles are reduced in integers, so no code path needs mpmath
    src = str(Path(cstates.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['mpmath'] = None; import cstates, cstates.cli; "
        "from cstates.phase import reduce_angles; print(repr(float(reduce_angles([1e300])[0])))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    assert float(out) == reduce_angles(np.array([1e300]))[0]


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=1e8, max_value=1e15))
def test_phase_factor_accuracy_property(x):
    got = phase_factor(np.asarray([x]))[0]
    with mpmath.workdps(50):
        ref = mpmath.exp(-1j * mpmath.fmod(mpmath.mpf(x), 2 * mpmath.pi))
        assert abs(complex(ref) - got) < 1e-12


@pytest.mark.parametrize("x", [[0.5, math.inf, math.nan, 3e9, -1e300],
                               [0.5, -2.0, 1e8, -1e8, 0.0, math.nan]])
def test_phase_factor_matches_its_reduced_reference(x):
    # reduce_angles runs only when some |x| > 1e8; the all-small vector skips it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phase_factor(x)
        ref = np.exp(-1j * reduce_angles(np.asarray(x)))
    assert np.array_equal(got, ref, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=-1e6, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_norm_preserved_property(t, seed, hydrogen):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    ev = evolve_coefficients(psi, hydrogen, t)
    assert abs(np.linalg.norm(ev.c) ** 2 - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(min_value=-100.0, max_value=100.0),
    t1=st.floats(min_value=-100.0, max_value=100.0),
    t2=st.floats(min_value=-100.0, max_value=100.0),
    omega=st.floats(min_value=0.1, max_value=10.0),
)
def test_label_flow_composition(gamma, t1, t2, omega):
    # float addition is not associative, so exactness holds only to rounding;
    # each route makes <= 3 roundings of intermediates bounded by the sum below
    l = StateLabel(0.4, gamma)
    once = evolve_label(evolve_label(l, t1, omega), t2, omega)
    whole = evolve_label(l, t1 + t2, omega)
    scale = 1.0 + abs(gamma) + abs(omega * t1) + abs(omega * t2)
    assert once.J == whole.J
    assert abs(once.gamma - whole.gamma) <= 1e-15 * scale
