import ast
import cmath
import math
from pathlib import Path

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
    from_levels,
    make_builtin,
    norm_deficit,
    overlap,
)
from cstates.state import LabelBatch


def closed_form_hydrogen_normalization(J):
    return 2.0 / (1.0 - J) + (2.0 / (J * J)) * (J + math.log1p(-J))


def canonical_amplitudes(J, gamma, top):
    """Independent oracle: e^(-|z|^2/2) z^n / sqrt(n!) with z = sqrt(J) e^(-i gamma)."""
    z = math.sqrt(J) * cmath.exp(-1j * gamma)
    out = np.zeros(top + 1, dtype=complex)
    log_fact = 0.0
    for n in range(top + 1):
        if n > 0:
            log_fact += math.log(n)
        out[n] = math.exp(-J / 2.0 - 0.5 * log_fact) * z**n
    return out


def test_ground_state(hydrogen, w_hydrogen):
    x = coefficients(hydrogen, w_hydrogen, StateLabel(0.0, 1.7))
    assert x.c[0] == 1.0
    assert len(x.c) == 1
    assert x.tail_mass_bound == 0.0
    assert norm_deficit(x) == 0.0


@pytest.mark.parametrize("tol", [1e-12, 1e-26])
@pytest.mark.parametrize("system", ["hydrogen", "harmonic", "ladder"])
def test_states_equal_coefficients_bit_for_bit(system, tol, request):
    if system == "ladder":
        s = from_levels("ladder", 1.0, [n + 0.1 * n * n for n in range(80)])
        w = compute_weights(s, 79)
    else:
        s, w = request.getfixturevalue(system), request.getfixturevalue(f"w_{system}")
    # repeated J with different gammas, distinct J, and J = 0
    labels = [StateLabel(0.4, 0.0), StateLabel(0.4, -2.5), StateLabel(0.0, 1.7),
              StateLabel(0.7, 3.1), StateLabel(0.4, 11.0), StateLabel(0.0, 0.0)]
    got = LabelBatch(s, w, labels, tol).states()
    assert len(got) == len(labels)
    for label, x in zip(labels, got):
        ref = coefficients(s, w, label, tol)
        assert x.label == label == ref.label
        assert x.c.tobytes() == ref.c.tobytes()
        assert x.tail_mass_bound == ref.tail_mass_bound
        assert x.spectrum is ref.spectrum


# the private many-label helpers that LabelBatch replaced
REPLACED = {"_Rows", "_amplitudes", "_phases", "_phase_rows", "_states", "_phased",
            "_stability", "_kinematics"}


def test_many_labels_take_one_type():
    # no module defines or imports a replaced helper, and the CLI reaches
    # states and dynamics through public names only
    for path in Path(cstates.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        imports = [(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names]
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not REPLACED & (defined | {name for _, name in imports}), path.name
        if path.name == "cli.py":
            private = [(module, name) for module, name in imports
                       if module in ("state", "dynamics") and name.startswith("_")]
            assert private == []


def test_harmonic_matches_canonical_formula(harmonic, w_harmonic):
    label = StateLabel(2.0, 0.7)
    x = coefficients(harmonic, w_harmonic, label, tol=1e-26)
    exact = canonical_amplitudes(label.J, label.gamma, min(60, x.n_top))
    np.testing.assert_allclose(x.c[: len(exact)], exact, rtol=0, atol=1e-12)


def test_hydrogen_c0_frozen(hydrogen, w_hydrogen):
    x = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    ref = 1.0 / math.sqrt(closed_form_hydrogen_normalization(0.5))
    assert ref == pytest.approx(0.63824871261826, rel=1e-13)
    assert x.c[0].real == pytest.approx(ref, rel=1e-11)
    assert x.c[0].imag == 0.0


def test_phase_convention_real_nonnegative_at_gamma_zero(hydrogen, w_hydrogen):
    x = coefficients(hydrogen, w_hydrogen, StateLabel(0.7, 0.0))
    assert np.all(x.c.imag == 0.0)
    assert np.all(x.c.real >= 0.0)


def test_norm_deficit_within_bound(hydrogen, w_hydrogen, harmonic, w_harmonic):
    x = coefficients(hydrogen, w_hydrogen, StateLabel(0.9, 0.3), tol=1e-10)
    assert norm_deficit(x) <= 1e-10
    # independent summation oracle: |c_n|^2 = J^n (2(n+1)/(n+2)) / N_closed
    n = np.arange(len(x.c))
    probs = 0.9**n * (2.0 * (n + 1) / (n + 2)) / closed_form_hydrogen_normalization(0.9)
    assert abs(1.0 - probs.sum()) <= 2e-10
    y = coefficients(harmonic, w_harmonic, StateLabel(4.0, -1.0), tol=1e-12)
    assert norm_deficit(y) <= 1e-12


def test_overlap_self_is_unit(hydrogen, w_hydrogen):
    x = coefficients(hydrogen, w_hydrogen, StateLabel(0.6, 1.3))
    val = overlap(x, x)
    assert abs(val - 1.0) <= 2 * x.tail_mass_bound + 1e-14
    assert val.imag == pytest.approx(0.0, abs=1e-15)


def test_harmonic_overlap_formula(harmonic, w_harmonic):
    # oracle: direct coefficient sum against exp(-|z''|^2/2 - |z'|^2/2 + conj(z'') z')
    a_label, b_label = StateLabel(1.5, 0.4), StateLabel(2.5, -1.1)
    a = coefficients(harmonic, w_harmonic, a_label, tol=1e-16)
    b = coefficients(harmonic, w_harmonic, b_label, tol=1e-16)
    za = math.sqrt(a_label.J) * cmath.exp(-1j * a_label.gamma)
    zb = math.sqrt(b_label.J) * cmath.exp(-1j * b_label.gamma)
    expected = cmath.exp(-0.5 * abs(za) ** 2 - 0.5 * abs(zb) ** 2 + za.conjugate() * zb)
    assert overlap(a, b) == pytest.approx(expected, abs=1e-12)
    # and against a direct n_max = 60 summation with the canonical amplitudes
    ca = canonical_amplitudes(a_label.J, a_label.gamma, 60)
    cb = canonical_amplitudes(b_label.J, b_label.gamma, 60)
    assert overlap(a, b) == pytest.approx(complex(np.vdot(ca, cb)), abs=1e-12)


def test_overlap_continuity_in_gamma(hydrogen, w_hydrogen):
    # |<l|l'> - 1| shrinks linearly with the gamma offset (mean-energy phase)
    base = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    prev_gap = None
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        other = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, delta))
        gap = abs(overlap(base, other) - 1.0)
        if prev_gap is not None:
            assert gap < 0.2 * prev_gap
        prev_gap = gap
    assert prev_gap < 1e-4


def test_overlap_depends_on_gamma_difference_only(harmonic, w_harmonic, hydrogen, w_hydrogen):
    # the phases enter as exp(-i e_n (gamma' - gamma'')), so a common shift
    # cancels for every spectrum
    shift = 0.7
    for s, w, ja, jb in ((harmonic, w_harmonic, 1.2, 0.8), (hydrogen, w_hydrogen, 0.5, 0.3)):
        a0 = coefficients(s, w, StateLabel(ja, 0.3))
        b0 = coefficients(s, w, StateLabel(jb, -0.5))
        a1 = coefficients(s, w, StateLabel(ja, 0.3 + shift))
        b1 = coefficients(s, w, StateLabel(jb, -0.5 + shift))
        assert overlap(a1, b1) == pytest.approx(overlap(a0, b0), abs=1e-12)


def test_two_pi_shift_of_one_label_is_harmonic_symmetry_only(
    harmonic, w_harmonic, hydrogen, w_hydrogen
):
    # integer levels make exp(-i e_n 2 pi) trivial; the hydrogen-like levels
    # are not integers, so shifting a single gamma by 2 pi moves the overlap
    tau = 2 * math.pi
    a0 = coefficients(harmonic, w_harmonic, StateLabel(1.2, 0.3))
    b0 = coefficients(harmonic, w_harmonic, StateLabel(0.8, -0.5))
    a1 = coefficients(harmonic, w_harmonic, StateLabel(1.2, 0.3 + tau))
    assert overlap(a1, b0) == pytest.approx(overlap(a0, b0), abs=1e-12)
    a0 = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    b0 = coefficients(hydrogen, w_hydrogen, StateLabel(0.3, 1.0))
    a1 = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, tau))
    assert abs(overlap(a1, b0) - overlap(a0, b0)) > 1e-6


def test_coefficients_need_a_positive_tolerance(hydrogen, w_hydrogen):
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0), tol=tol)


@pytest.mark.parametrize("J, gamma", [(0.5, True), (0.5, np.False_), (0.5, math.nan), (0.5, math.inf),
                                      (True, 0.0), (False, 0.0), (np.True_, 0.0)])
def test_labels_refuse_bools_and_infinite_gamma(J, gamma):
    # False would otherwise pass as J = 0, the one-entry ground state
    with pytest.raises(LabelRangeError):
        StateLabel(J, gamma)


def test_overflowing_phase_argument_is_refused(harmonic, w_harmonic):
    # e_n gamma at the last level used decides; the ground state has no phase argument
    label = StateLabel(1.0, 1e308)
    with pytest.raises(LabelRangeError, match="^gamma = 1e\\+308 puts the phase argument"):
        coefficients(harmonic, w_harmonic, label)
    with pytest.raises(LabelRangeError, match="^gamma = 1e\\+308 puts the phase argument"):
        LabelBatch(harmonic, w_harmonic, [StateLabel(1.0, 0.0), label], 1e-12)
    batch = LabelBatch(harmonic, w_harmonic, [StateLabel(1.0, 0.0)], 1e-12)
    with pytest.raises(LabelRangeError, match="^gamma \\+ omega t = 1e\\+308 puts"):
        batch.evolved([1e308])
    ground = StateLabel(0.0, 1e308)
    assert coefficients(harmonic, w_harmonic, ground).c.tolist() == [1.0]
    assert LabelBatch(harmonic, w_harmonic, [ground], 1e-12).c.tolist() == [1.0]
    assert LabelBatch(harmonic, w_harmonic, [], 1e-12).c.tolist() == []


def test_spectrum_mismatch_rejected(hydrogen, w_hydrogen, harmonic, w_harmonic):
    a = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    b = coefficients(harmonic, w_harmonic, StateLabel(0.5, 0.0))
    with pytest.raises(SpectrumMismatchError):
        overlap(a, b)


def test_mismatched_omega_is_a_different_spectrum(w_hydrogen, hydrogen):
    other = make_builtin("hydrogen_like", 2.0)
    w_other = compute_weights(other, 200)
    a = coefficients(hydrogen, w_hydrogen, StateLabel(0.5, 0.0))
    b = coefficients(other, w_other, StateLabel(0.5, 0.0))
    with pytest.raises(SpectrumMismatchError):
        overlap(a, b)


@settings(max_examples=40, deadline=None)
@given(
    J=st.floats(min_value=0.0, max_value=0.9),
    gamma=st.floats(min_value=-50.0, max_value=50.0),
)
def test_unit_norm_property(J, gamma, hydrogen, w_hydrogen):
    x = coefficients(hydrogen, w_hydrogen, StateLabel(J, gamma))
    total = float(np.sum(np.abs(x.c) ** 2))
    assert total <= 1.0 + 1e-13
    assert total + x.tail_mass_bound >= 1.0 - 1e-13


@settings(max_examples=25, deadline=None)
@given(
    ja=st.floats(min_value=0.0, max_value=0.9),
    jb=st.floats(min_value=0.0, max_value=0.9),
    ga=st.floats(min_value=-5.0, max_value=5.0),
    gb=st.floats(min_value=-5.0, max_value=5.0),
)
def test_overlap_cauchy_schwarz(ja, jb, ga, gb, hydrogen, w_hydrogen):
    a = coefficients(hydrogen, w_hydrogen, StateLabel(ja, ga))
    b = coefficients(hydrogen, w_hydrogen, StateLabel(jb, gb))
    bound = 1.0 + a.tail_mass_bound + b.tail_mass_bound + 1e-13
    assert abs(overlap(a, b)) <= bound
