import math

import numpy as np
import pytest

from cstates import (
    LabelRangeError,
    Measure,
    builtin_measure,
    compute_weights,
    gamma_averaged_projector,
    load_measure,
    make_builtin,
    moment_check,
    unity_check,
)
from cstates import resolution
from cstates.resolution import _measure_moments
from cstates.spectrum import MODELS


def builtin_cases():
    """(measure, spectrum, weight table, n_check) for each built-in model."""
    for model, record in MODELS.items():
        s = make_builtin(model)
        yield builtin_measure(model), s, compute_weights(s, 2_000), record.n_check


def test_harmonic_measure_moments_are_factorials(w_harmonic):
    m = builtin_measure("harmonic")
    moments = _measure_moments(m, 20)
    for n in range(21):
        assert moments[n] == pytest.approx(math.factorial(n), rel=1e-9)


def test_hydrogen_measure_moments_analytic(w_hydrogen):
    # 1/2 * 1/(n+1) from the density plus 1/2 from the atom at u = 1
    m = builtin_measure("hydrogen_like")
    moments = _measure_moments(m, 50)
    for n in range(51):
        assert moments[n] == pytest.approx(0.5 / (n + 1) + 0.5, rel=1e-12)
        assert moments[n] == pytest.approx(np.exp(w_hydrogen.log_rho[n]), rel=1e-10)


def test_zeroth_moment_is_normalized():
    for model in MODELS:
        assert _measure_moments(builtin_measure(model), 0)[0] == pytest.approx(1.0, rel=1e-12)


def test_moment_check_builtins():
    for m, _, w, n_check in builtin_cases():
        assert moment_check(m, w, n_check) <= 1e-10, m.name


def test_moment_check_negative_control(w_harmonic):
    # flat density on [0, 1] cannot reproduce factorials; large error, no raise
    wrong = Measure(name="wrong", U=1.0, density=lambda u: np.ones_like(np.asarray(u, float)))
    err = moment_check(wrong, w_harmonic, 10)
    assert err > 0.1


def test_moment_check_range_guard(w_hydrogen):
    with pytest.raises(ValueError):
        moment_check(builtin_measure("hydrogen_like"), w_hydrogen, w_hydrogen.n_max + 1)


def check_unity(model, s, w):
    d = unity_check(builtin_measure(model), w, s, MODELS[model].n_check)
    assert np.abs(d - 1.0).max() <= 1e-10
    assert d[0] == pytest.approx(1.0, rel=1e-12)


def test_unity_check_hydrogen(hydrogen, w_hydrogen):
    check_unity("hydrogen_like", hydrogen, w_hydrogen)


def test_unity_check_harmonic(harmonic, w_harmonic):
    check_unity("harmonic", harmonic, w_harmonic)


def test_unity_check_range_guard(hydrogen, w_hydrogen):
    with pytest.raises(ValueError, match="exceeds the weight table range"):
        unity_check(builtin_measure("hydrogen_like"), w_hydrogen, hydrogen, w_hydrogen.n_max + 1)


def test_unity_check_support_mismatch(hydrogen, w_hydrogen):
    small = Measure(name="short", U=0.8, density=lambda u: np.full_like(np.asarray(u, float), 0.5))
    with pytest.raises(LabelRangeError):
        unity_check(small, w_hydrogen, hydrogen, 5)


def test_projector_infinite_gamma_diagonal(hydrogen, w_hydrogen):
    proj = gamma_averaged_projector(hydrogen, w_hydrogen, 0.5, math.inf, 80)
    off = proj.entries - np.diag(np.diag(proj.entries))
    assert np.abs(off).max() == 0.0
    assert np.trace(proj.entries).real == pytest.approx(1.0, abs=1e-10)
    diag = np.diag(proj.entries).real
    n = np.arange(81)
    rho = np.exp(w_hydrogen.log_rho[:81])
    expected = 0.5**n / rho
    expected /= np.sum(0.5 ** np.arange(200) / np.exp(w_hydrogen.log_rho[:200]))
    np.testing.assert_allclose(diag, expected, rtol=1e-10)


@pytest.mark.parametrize("Gamma", [2.0, math.inf])
def test_projector_at_zero_is_the_ground_state(hydrogen, w_hydrogen, Gamma):
    proj = gamma_averaged_projector(hydrogen, w_hydrogen, 0.0, Gamma, 6)
    expected = np.zeros((7, 7))
    expected[0, 0] = 1.0
    assert np.array_equal(proj.entries, expected)


def test_projector_hermitian_psd(hydrogen, w_hydrogen):
    proj = gamma_averaged_projector(hydrogen, w_hydrogen, 0.5, 50.0, 30)
    h = proj.entries
    assert np.abs(h - h.conj().T).max() <= 1e-12
    assert np.all(np.diag(h).real >= 0.0)
    assert float(np.linalg.eigvalsh(h).min()) >= -1e-10


def test_projector_offdiagonal_sinc_bound(hydrogen, w_hydrogen):
    # |P_nm| <= sqrt(P_nn P_mm) / (Gamma |e_n - e_m|), scanned over the matrix
    gamma_window = 1e3
    proj = gamma_averaged_projector(hydrogen, w_hydrogen, 0.5, gamma_window, 30)
    p = proj.entries.real
    e = hydrogen.e_array(30)
    for n in range(31):
        for m in range(31):
            if n == m:
                continue
            cap = math.sqrt(p[n, n] * p[m, m]) / (gamma_window * abs(e[n] - e[m]))
            assert abs(p[n, m]) <= cap + 1e-15


def test_projector_harmonic_integer_gaps_vanish(harmonic, w_harmonic):
    proj = gamma_averaged_projector(harmonic, w_harmonic, 1.0, math.pi, 20)
    off = proj.entries - np.diag(np.diag(proj.entries))
    # sin(pi k) = 0 for integer k up to rounding in pi
    assert np.abs(off).max() <= 1e-15


def test_projector_decay_ratios(hydrogen, w_hydrogen):
    maxima = []
    for gamma_window in (1e2, 1e3, 1e4):
        proj = gamma_averaged_projector(hydrogen, w_hydrogen, 0.5, gamma_window, 30)
        off = proj.entries - np.diag(np.diag(proj.entries))
        maxima.append(float(np.abs(off).max()))
    assert maxima[0] / maxima[1] >= 8.0
    assert maxima[1] / maxima[2] >= 8.0


def test_projector_range_guards(hydrogen, w_hydrogen):
    with pytest.raises(LabelRangeError):
        gamma_averaged_projector(hydrogen, w_hydrogen, 1.5, math.inf, 10)
    with pytest.raises(LabelRangeError):
        gamma_averaged_projector(hydrogen, w_hydrogen, 0.5, 0.0, 10)
    with pytest.raises(ValueError):
        gamma_averaged_projector(hydrogen, w_hydrogen, 0.5, 10.0, w_hydrogen.n_max + 1)


def test_load_measure_exponential(w_harmonic):
    doc = {"U": "inf", "density": {"kind": "exponential", "rate": 1.0}}
    m = load_measure(doc)
    assert moment_check(m, w_harmonic, 12) <= 1e-9


def test_load_measure_atom_on_infinite_interval():
    # a zero density on [0, inf) takes the Laguerre rule and adds nothing
    doc = {"U": "inf", "density": {"kind": "constant", "value": 0}, "atoms": [{"u": 2, "w": 3}]}
    moments = _measure_moments(load_measure(doc), 5)
    np.testing.assert_allclose(moments, 3.0 * 2.0 ** np.arange(6), rtol=1e-15)


def test_load_measure_constant_with_atom(hydrogen, w_hydrogen):
    doc = {
        "U": 1.0,
        "density": {"kind": "constant", "value": 0.5},
        "atoms": [{"u": 1.0, "w": 0.5}],
    }
    m = load_measure(doc)
    assert moment_check(m, w_hydrogen, 30) <= 1e-10
    d = unity_check(m, w_hydrogen, hydrogen, 30)
    assert np.abs(d - 1.0).max() <= 1e-10


def test_load_measure_table():
    doc = {"U": 1.0, "density": {"kind": "table", "u": [0.0, 1.0], "rho": [1.0, 1.0]}}
    m = load_measure(doc)
    moments = _measure_moments(m, 3)
    np.testing.assert_allclose(moments, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-10)


def test_load_measure_rejects_bad_documents():
    from cstates import SpectrumError

    constant = {"kind": "constant", "value": 0.5}
    for bad in (
        {"U": -1.0, "density": constant},
        {"U": 1.0, "density": {"kind": "nope"}},
        {"U": "inf", "density": constant},
        "not json at all {{",
        "[1, 2]",
        {"U": 1.0, "density": [0.5]},
        {"U": 1.0, "density": constant, "atoms": [{"u": 1.0}]},
        {"U": 1.0, "density": constant, "atoms": [{"w": 0.5}]},
        {"U": 1.0, "density": constant, "atoms": [1.0]},
        {"U": "inf", "density": {"kind": "exponential", "rate": [1]}},
        {"U": "inf", "density": {"kind": "exponential", "rate": "abc"}},
        {"U": 1.0, "density": {"kind": "table", "u": [0, "x"], "rho": [1, 1]}},
        {"U": "inf", "density": {"kind": "table", "u": [0, 1], "rho": [1, 1]}},
        {"U": 1.0, "density": {"kind": "table", "u": [1, 0], "rho": [1, 1]}},
        {"U": 1.0, "density": {"kind": "table", "u": [0, 0.5, 0.5, 1], "rho": [1, 1, 1, 1]}},
        {"U": 1.0, "density": constant, "atoms": [{"u": "1", "w": "0.5"}]},
        {"U": 1.0, "density": constant, "atoms": [{"u": 1.0, "w": "0.5"}]},
        {"U": "inf", "density": {"kind": "constant", "value": 0}, "atoms": [{"u": "inf", "w": 1}]},
        {"U": 1.0, "density": constant, "atoms": {"u": 1.0, "w": 0.5}},
        {"U": "inf", "density": {"kind": "exponential", "rate": 0}},
        {"U": "inf", "density": {"kind": "exponential", "rate": "inf"}},
        {"U": "inf", "density": {"kind": "exponential", "amplitude": 0}},
        {"U": "inf", "density": {"kind": "exponential", "amplitude": "inf"}},
        {"U": 1.0, "density": {"kind": "constant", "value": -0.5}},
        {"U": 1.0, "density": {"kind": "table", "u": 0.5, "rho": [1, 1]}},
        {"U": 1.0, "density": {"kind": "table", "u": [0, 1], "rho": 1.0}},
        {"U": 1.0, "density": {"kind": "table", "u": [0, 0.5, 1], "rho": [1, 1]}},
        {"U": 1.0, "density": {"kind": "table", "u": [0.5], "rho": [1]}},
        {"U": 1.0, "density": {"kind": "table", "u": [0, 1], "rho": [1, -1]}},
        {"U": 1.0, "density": {"kind": "table", "u": [0, 1], "rho": [1, "inf"]}},
    ):
        with pytest.raises(SpectrumError):
            load_measure(bad)


def test_measure_atom_guards():
    from cstates import SpectrumError

    with pytest.raises(SpectrumError):
        Measure(name="bad", U=1.0, density=lambda u: np.ones_like(u), atoms=((2.0, 0.5),))
    with pytest.raises(SpectrumError):
        Measure(name="bad", U=1.0, density=lambda u: np.ones_like(u), atoms=((0.5, -1.0),))


def test_quadrature_nonconvergence_raises():
    from cstates import QuadratureError

    # a kinked density converges only algebraically under Gauss-Legendre,
    # so four node doublings cannot reach the 1e-12 agreement target
    kinked = load_measure(
        {"U": 1.0, "density": {"kind": "table", "u": [0.0, 0.37, 1.0], "rho": [0.0, 1.0, 0.0]}}
    )
    with pytest.raises(QuadratureError):
        _measure_moments(kinked, 10)


def test_laguerre_doubling_stops_at_128_nodes():
    from cstates import QuadratureError

    # at 256 nodes numpy's Gauss-Laguerre weights are NaN or zero and raise
    # RuntimeWarnings, which pytest turns into errors
    steep = load_measure({"U": "inf", "density": {"kind": "exponential", "rate": 5}})
    with pytest.raises(QuadratureError, match="at 128 nodes, the limit of numpy's Gauss-Laguerre rule"):
        _measure_moments(steep, 15)


def test_quadrature_rules_are_cached_and_read_only(monkeypatch):
    measures = [builtin_measure(model) for model in MODELS] + [
        load_measure({"U": 3.0, "density": {"kind": "exponential", "rate": 2.0}}),
        load_measure({"U": "inf", "density": {"kind": "exponential", "rate": 0.5}}),
    ]
    cached = [_measure_moments(m, 20) for m in measures]
    for kind in ("laguerre", "legendre"):
        x, wq = resolution._gauss_rule(kind, 64)
        assert resolution._gauss_rule(kind, 64)[0] is x
        for array in (x, wq):
            with pytest.raises(ValueError):
                array[0] = 1.0
    monkeypatch.setattr(resolution, "_gauss_rule", resolution._gauss_rule.__wrapped__)
    for m, got in zip(measures, cached):
        assert np.array_equal(_measure_moments(m, 20), got)
