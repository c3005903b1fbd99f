"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""
import cmath
import math

import numpy as np
import pytest

from cstates import (
    StateLabel,
    builtin_measure,
    coefficients,
    compute_weights,
    energy_mean,
    gamma_averaged_projector,
    kinematic_representation_check,
    make_builtin,
    moment_check,
    near_jstar_exponent,
    power_gap_spectrum,
    small_j_slope,
    temporal_stability_residual,
    unity_check,
    variance,
)

SEED = 20240817


@pytest.fixture(scope="module")
def systems():
    hydrogen = make_builtin("hydrogen_like", 1.0)
    harmonic = make_builtin("harmonic", 1.0)
    return {
        "hydrogen_like": (hydrogen, compute_weights(hydrogen, 40_000)),
        "harmonic": (harmonic, compute_weights(harmonic, 2_000)),
    }


def report(num, ok, detail):
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_action_identity(systems):
    worst = 0.0
    for name, (s, w) in systems.items():
        top = 0.95 * min(w.j_star, 10.0)
        for J in np.linspace(0.0, top, 20):
            worst = max(worst, abs(energy_mean(s, w, float(J)) / s.omega - J))
    ok = worst <= 1e-8
    assert report("1", ok, f"max |<H>/omega - J| = {worst:.3e} (tolerance 1e-8)")


def test_criterion_02_hydrogen_closed_form(systems):
    s, w = systems["hydrogen_like"]
    worst = 0.0
    for J in np.arange(0.1, 0.91, 0.1):
        from cstates import normalization

        series = normalization(w, s, float(J))
        ref = 2.0 / (1.0 - J) + (2.0 / (J * J)) * (J + math.log1p(-J))
        worst = max(worst, abs(series.value / ref - 1.0))
    ok = worst <= 1e-10
    assert report("2", ok, f"max relative N(J) deviation = {worst:.3e} (tolerance 1e-10)")


def test_criterion_03_hydrogen_variance_bound(systems):
    s, w = systems["hydrogen_like"]
    ok = True
    worst_margin = math.inf
    for J in np.arange(0.1, 0.91, 0.1):
        v = variance(s, w, float(J)).variance
        bound = 0.75 * J * (1.0 - J)
        ok &= v <= bound + 1e-9
        worst_margin = min(worst_margin, bound - v)
    v_half = variance(s, w, 0.5).variance
    v_edge = variance(s, w, 0.999).variance
    ok &= v_edge < v_half
    assert report(
        "3",
        ok,
        f"bound margin >= {worst_margin:.3e}; v(0.999) = {v_edge:.3e} < v(0.5) = {v_half:.3e}",
    )


def test_criterion_04_harmonic_reduction(systems):
    s, w = systems["harmonic"]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        J = float(rng.uniform(0.0, 6.0))
        gamma = float(rng.uniform(-3 * math.pi, 3 * math.pi))
        state = coefficients(s, w, StateLabel(J, gamma), tol=1e-26)
        z = math.sqrt(J) * cmath.exp(-1j * gamma)
        log_fact = 0.0
        for n in range(61):
            if n > 0:
                log_fact += math.log(n)
            exact = cmath.exp(-J / 2.0 - 0.5 * log_fact) * z**n
            got = state.c[n] if n < len(state.c) else 0.0
            worst = max(worst, abs(got - exact))
    ok = worst <= 1e-12
    assert report("4", ok, f"max |c_n - canonical| = {worst:.3e} (n <= 60, 10 labels)")


def test_criterion_05_temporal_stability(systems):
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for name, (s, w) in systems.items():
        j_top = 0.9 if name == "hydrogen_like" else 8.0
        for _ in range(100):
            label = StateLabel(float(rng.uniform(0, j_top)), float(rng.uniform(-10, 10)))
            t = float(rng.uniform(-20, 20))
            worst = max(worst, temporal_stability_residual(s, w, label, t))
    ok = worst <= 1e-10
    assert report("5", ok, f"max residual = {worst:.3e} over 100 samples per model")


def test_criterion_06_dynamics_as_kinematics(systems):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for name, (s, w) in systems.items():
        j_top = 0.8 if name == "hydrogen_like" else 6.0
        for _ in range(50):
            psi = rng.normal(size=40) + 1j * rng.normal(size=40)
            psi /= np.linalg.norm(psi)
            label = StateLabel(float(rng.uniform(0, j_top)), float(rng.uniform(-5, 5)))
            t = float(rng.uniform(-10, 10))
            lhs, rhs = kinematic_representation_check(s, w, psi, label, t)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    assert report("6", ok, f"max |<l|psi,t> - <l(-t)|psi>| = {worst:.3e} over 50 psi per model")


def test_criterion_07_resolution_moments(systems):
    s_h, w_h = systems["harmonic"]
    s_y, w_y = systems["hydrogen_like"]
    err_h = moment_check(builtin_measure("harmonic"), w_h, 15)
    err_y = moment_check(builtin_measure("hydrogen_like"), w_y, 30)
    d_h = unity_check(builtin_measure("harmonic"), w_h, s_h, 15)
    d_y = unity_check(builtin_measure("hydrogen_like"), w_y, s_y, 30)
    unity_err = max(np.abs(d_h - 1.0).max(), np.abs(d_y - 1.0).max())
    ok = err_h <= 1e-9 and err_y <= 1e-9 and unity_err <= 1e-9
    assert report(
        "7",
        ok,
        f"moment errors: harmonic {err_h:.2e} (n<=15), hydrogen {err_y:.2e} (n<=30); "
        f"max |d_n - 1| = {unity_err:.2e}",
    )


def test_criterion_08_small_j_slope(systems):
    results = {}
    for name, (s, w) in systems.items():
        slope = small_j_slope(s, w)
        results[name] = abs(slope / s.e(1) - 1.0)
    ok = all(err <= 1e-4 for err in results.values())
    assert report(
        "8",
        ok,
        "relative slope errors: "
        + ", ".join(f"{k} {v:.2e}" for k, v in results.items())
        + " (tolerance 1e-4)",
    )


def test_criterion_09a_near_jstar_exponent_hydrogen(systems):
    s, w = systems["hydrogen_like"]
    got_default = near_jstar_exponent(s, w)
    got_window = near_jstar_exponent(s, w, [0.9, 0.99, 0.999])
    ok = abs(got_default - 1.0) <= 0.1 and abs(got_window - 1.0) <= 0.1
    assert report(
        "9a",
        ok,
        f"hydrogen-like exponent: default window {got_default:.4f}, "
        f"[0.9, 0.99, 0.999] window {got_window:.4f} (target 1.0 +- 0.1)",
    )


def test_criterion_09b_near_jstar_exponent_synthetic():
    # Power gap 1 - e_n = (n+1)^(-p), p = 1/4 (squared-gap exponent tau = 2p).
    # Weights rho_n = e_1...e_n with a positive limit give v ~ (1-J), as for
    # hydrogen; here sum (k+1)^(-p) diverges, so rho_n -> 0 like
    # exp(-(n^(1-p))/(1-p)) and sum J^n/rho_n is dominated by a sharp peak
    # where e_n = J.  A Laplace expansion about that peak gives a level
    # distribution of variance J/e'(n) and hence
    #     v(J) ~ omega^2 p J (1-J)^(1+1/p) = omega^2 p J (1-J)^(1+2/tau),
    # so the fitted exponent tends to 1 + 1/p = 5 as J -> 1, not tau.  The
    # pointwise check below holds v to that form on the fit window.
    p = 0.25
    target = 1.0 + 1.0 / p
    window = [0.90, 0.92, 0.94, 0.96]
    n_cap = 1_200_000
    s = power_gap_spectrum(p)
    w = compute_weights(s, 20_000)
    got = near_jstar_exponent(s, w, window, n_cap=n_cap)

    big = compute_weights(s, n_cap)
    worst = 0.0
    for J in window:
        v = variance(s, big, J).variance
        laplace = s.omega**2 * p * J * (1.0 - J) ** target
        worst = max(worst, abs(v / laplace - 1.0))

    ok = abs(got - target) <= 0.1 and worst <= 0.01
    report(
        "9b",
        ok,
        f"synthetic gap (n+1)^(-1/4): fitted exponent {got:.4f} (target 1+1/p = {target:g} +- 0.1), "
        f"max |v / (p J (1-J)^(1+1/p)) - 1| = {worst:.2e} (tolerance 1e-2)",
    )
    assert ok, (
        f"fitted exponent {got:.4f}, worst relative gap {worst:.2e} to the Laplace form "
        f"p J (1-J)^(1+1/p); the interior-peak weights of this spectrum set the rate "
        f"1 + 1/p = {target:g}"
    )


def test_criterion_10_variance_cross_check(systems):
    worst = 0.0
    s, w = systems["hydrogen_like"]
    for J in np.arange(0.1, 0.91, 0.1):
        vp = variance(s, w, float(J))
        worst = max(worst, abs(vp.variance - vp.double_sum) / abs(vp.variance))
    s, w = systems["harmonic"]
    for J in (0.5, 1.0, 2.0, 4.0):
        vp = variance(s, w, float(J))
        worst = max(worst, abs(vp.variance - vp.double_sum) / abs(vp.variance))
    ok = worst <= 1e-8
    assert report("10", ok, f"max relative moment/double-sum gap = {worst:.3e} (tolerance 1e-8)")


def test_criterion_11_gamma_average_structure(systems):
    s, w = systems["hydrogen_like"]
    proj = gamma_averaged_projector(s, w, 0.5, math.inf, 80)
    trace_err = abs(float(np.trace(proj.entries).real) - 1.0)
    maxima = []
    for gamma_window in (1e2, 1e3, 1e4):
        p = gamma_averaged_projector(s, w, 0.5, gamma_window, 30)
        off = p.entries - np.diag(np.diag(p.entries))
        maxima.append(float(np.abs(off).max()))
    r1, r2 = maxima[0] / maxima[1], maxima[1] / maxima[2]
    ok = trace_err <= 1e-10 and r1 >= 8.0 and r2 >= 8.0
    assert report(
        "11",
        ok,
        f"|trace - 1| = {trace_err:.2e}; off-diagonal decay x{r1:.1f}, x{r2:.1f} per 10x Gamma",
    )


def test_criterion_12_label_continuity(systems):
    rng = np.random.default_rng(SEED + 3)
    constants = {}
    for name, (s, w) in systems.items():
        j_top = 0.8 if name == "hydrogen_like" else 6.0
        worst = 0.0
        for _ in range(5):
            label = StateLabel(float(rng.uniform(0.05, j_top)), float(rng.uniform(-3, 3)))
            base = coefficients(s, w, label)
            for dj, dg in ((1e-4, 0.0), (1e-5, 0.0), (0.0, 1e-4), (1e-5, 1e-5)):
                moved = coefficients(s, w, StateLabel(label.J + dj, label.gamma + dg))
                n = max(len(base.c), len(moved.c))
                a = np.zeros(n, complex)
                b = np.zeros(n, complex)
                a[: len(base.c)] = base.c
                b[: len(moved.c)] = moved.c
                worst = max(worst, float(np.linalg.norm(a - b)) / (dj + dg))
        constants[name] = worst
    ok = all(math.isfinite(c) for c in constants.values())
    assert report(
        "12",
        ok,
        "local Lipschitz constants: "
        + ", ".join(f"{k} C = {v:.4g}" for k, v in constants.items()),
    )
