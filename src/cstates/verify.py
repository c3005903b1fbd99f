"""Invariant suite behind the `verify` command: defining-property checks per model."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_coefficients, evolve_label, kinematic_pairs, stability_residuals
from .errors import CertificationError, CStatesError, TruncationError
from .observables import (
    VariancePoint,
    _min_certified_terms,
    moments_from_state,
    near_jstar_coefficient,
    small_j_slope,
    variance,
)
from .resolution import Measure, gamma_averaged_projector, moment_check, unity_check
from .spectrum import ZETA2, ZETA3, Spectrum
from .state import LabelBatch, StateLabel, _zero_padded, coefficients, norm_deficit
from .weights import DEFAULT_TAIL_TOL, WeightTable, _batch_sums, _check_same_spectrum
from .weights import normalization, power_sums

DEFAULT_SEED = 1234

# near-jstar-exponent compares the series with the exact v(J) at the points
# J = 1 - 10^-x, x = 1.5, 1.75, ..., 4.5, that the command's table certifies
_NEAR_JSTAR_WINDOW = tuple(1.0 - 10.0 ** (-q / 4) for q in range(6, 19))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


def _probe_usable_j(w: WeightTable, start: float, tol: float, need_second: bool) -> float:
    """Largest J (down a 0.7-geometric ladder) whose tails certify at tol and at
    DEFAULT_TAIL_TOL, where energy_mean, variance and normalization certify.

    Short explicit lists cannot push relative tail bounds arbitrarily low at
    large J, so sampled checks stay inside the certifiable range.  A
    CertificationError does not depend on J (there is no second-moment bound
    at all), so it ends the ladder at once with 0.
    """
    J = start
    for _ in range(80):
        if J <= 1e-12:
            return 0.0
        try:
            power_sums(w, J, rel_tol=min(tol, DEFAULT_TAIL_TOL), need_second=need_second)
            return J
        except TruncationError:
            J *= 0.7
        except CertificationError:
            return 0.0
    return 0.0


def _uniform(u: np.ndarray, *ranges: tuple[float, float]) -> list[list[float]]:
    """Rows of draws u of U(0, 1) taken to the ranges, one range per column,
    as ``Generator.uniform(low, high)`` takes each draw: low + (high - low) u.
    Returns the columns."""
    low, high = np.array(ranges, dtype=float).T
    return (low + (high - low) * u).T.tolist()


def run_suite(
    s: Spectrum,
    w: WeightTable,
    measure: Measure | None,
    *,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TAIL_TOL,
) -> list[CheckResult]:
    """Every check of the suite on s, in order; a table of another spectrum is
    refused before any check runs."""
    _check_same_spectrum(w, s)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    model = s.model
    model_checks = model.checks if model else frozenset()

    def run(name, fn):
        try:
            detail = fn()
            results.append(CheckResult(name, "pass", detail or ""))
        except AssertionError as exc:
            results.append(CheckResult(name, "fail", str(exc)))
        except CStatesError as exc:
            results.append(CheckResult(name, "fail", f"{type(exc).__name__}: {exc}"))

    def run_if(applies, name, fn, reason):
        if applies:
            run(name, fn)
        else:
            results.append(CheckResult(name, "skipped", reason))

    j_top = 0.95 * min(w.j_star, 10.0)
    j_state = _probe_usable_j(w, j_top, tol, need_second=False)
    j_var = _probe_usable_j(w, j_top, tol, need_second=True)
    j_mid = 0.5 * min(j_state, 1.0)

    # every sampled number first, with the calls, in the order, that the
    # checks once drew them one by one: one call to random per check (per psi
    # where its normals come in between), taken to U(low, high) by _uniform
    reduction = rng.random((10, 2)) if "canonical-reduction" in model_checks else None
    stability = _uniform(rng.random((100, 3)), (0.0, 0.9 * j_state), (-10, 10), (-20, 20))
    width = min(40, w.n_max + 1)
    normals, draws = [], []
    for _ in range(50):
        # a psi's real parts, then its imaginary parts; then its J, gamma and t
        normals.append(rng.normal(size=2 * width))
        draws.append(rng.random(3))
    kinematics = _uniform(np.array(draws), (0.0, 0.8 * j_state), (-5, 5), (-10, 10))
    steps = ((1e-5, 0.0), (-1e-5, 0.0), (0.0, 1e-5), (1e-6, 1e-6))
    continuity = []
    for J, gamma in zip(*_uniform(rng.random((5, 2)), (0.05 * j_state, 0.8 * j_state), (-3, 3))):
        continuity += [StateLabel(J, gamma), *(StateLabel(J + dj, gamma + dg) for dj, dg in steps)]

    # then the series of all their J, and gamma-independence's, in one batch
    # at tol; where it refuses, each check sums its own J and fails as alone
    grid = np.linspace(0.0, j_state, 20).tolist()
    try:
        shared = _batch_sums(w, [*(grid if tol == DEFAULT_TAIL_TOL else ()), *stability[0],
                                 *kinematics[0], j_mid, *(x.J for x in continuity)], tol, 1)
    except (CStatesError, ValueError):
        shared = None

    def chk_action_identity():
        # energy_mean's omega s1/s0 at each J, from one batched series
        sums = shared
        if shared is None or tol != DEFAULT_TAIL_TOL:
            sums = _batch_sums(w, grid, DEFAULT_TAIL_TOL, 1)
        i = [sums.at[J] for J in grid]
        worst = max(np.abs(s.omega * sums.s[1, i] / sums.s[0, i] / s.omega - grid).tolist())
        assert worst <= 1e-8, f"max |mean/omega - J| = {worst:.3e} > 1e-8"
        return f"max |mean/omega - J| = {worst:.2e} over 20 points in [0, {j_state:.3g}]"

    run("action-identity", chk_action_identity)

    def chk_closed_form():
        worst = 0.0
        for J in model.closed_form_grid:
            val = normalization(w, s, J)
            ref = model.normalization(J)
            err = abs(val.value / ref - 1.0)
            worst = max(worst, err)
            assert err <= max(model.closed_form_rtol, val.tail_bound / ref), (
                f"N({J:.2f}) series {val.value!r} vs closed form {ref!r}"
            )
        return f"max relative deviation {worst:.2e}"

    run_if(model, "normalization-closed-form", chk_closed_form, "no closed form for custom spectra")

    def chk_reduction():
        Js, gammas = _uniform(reduction, (0.0, 6.0), (-math.pi, math.pi))
        worst = 0.0
        for state in LabelBatch(s, w, list(map(StateLabel, Js, gammas)), 1e-26).states():
            J, gamma = state.label.J, state.label.gamma
            z = math.sqrt(J) * complex(math.cos(gamma), -math.sin(gamma))
            top = min(60, state.n_top)
            c = state.c[: top + 1].tolist()
            log_fact = 0.0
            for n in range(top + 1):
                if n > 0:
                    log_fact += math.log(n)
                exact = math.exp(-J / 2.0 - 0.5 * log_fact) * z**n
                worst = max(worst, abs(c[n] - exact))
        assert worst <= 1e-12, f"worst component deviation {worst:.3e} > 1e-12"
        return f"worst |c_n - canonical| = {worst:.2e} over 10 labels, n <= 60"

    run_if("canonical-reduction" in model_checks, "canonical-reduction", chk_reduction,
           "canonical closed form applies to the harmonic rule only")

    def chk_norm_deficit():
        worst = 0.0
        for frac in (0.3, 0.8):
            state = coefficients(s, w, StateLabel(frac * j_state, 1.3), tol=tol)
            deficit = norm_deficit(state)
            assert deficit <= state.tail_mass_bound + 5e-15, (
                f"deficit {deficit:.3e} exceeds bound {state.tail_mass_bound:.3e}"
            )
            worst = max(worst, deficit)
        return f"max deficit {worst:.2e}"

    run("norm-deficit", chk_norm_deficit)

    def chk_temporal_stability():
        labels = [StateLabel(J, gamma) for J, gamma, _ in zip(*stability)]
        worst = max(0.0, *stability_residuals(LabelBatch(s, w, labels, tol, shared), stability[2]))
        assert worst <= 1e-10, f"max residual {worst:.3e} > 1e-10"
        return f"max residual {worst:.2e} over 100 samples"

    run("temporal-stability", chk_temporal_stability)

    def chk_kinematics():
        batch = LabelBatch(s, w, [StateLabel(J, g) for J, g, _ in zip(*kinematics)], tol, shared)
        z = np.array(normals)
        psis = z[:, :width] + 1j * z[:, width:]
        psis = psis / np.array([np.linalg.norm(psi) for psi in psis])[:, None]
        pairs = kinematic_pairs(batch, list(psis), kinematics[2])
        worst = max(0.0, *(abs(lhs - rhs) for lhs, rhs in pairs))
        assert worst <= 1e-10, f"max |lhs - rhs| {worst:.3e} > 1e-10"
        return f"max |<l|psi,t> - <l(-t)|psi>| = {worst:.2e} over 50 samples"

    run("dynamics-as-kinematics", chk_kinematics)

    # variance-bound reads the points variance-route-agreement certified on
    # the model's grid; a point that raised there is recomputed and raises again
    variance_points: dict[float, VariancePoint] = {}

    def chk_variance_agreement():
        grid = model.variance_grid if model else np.linspace(0.1, 0.8, 5) * j_var
        worst = 0.0
        for J in grid:
            vp = variance(s, w, float(J))  # raises CrossCheckError on disagreement
            variance_points[float(J)] = vp
            if vp.variance != 0:
                worst = max(worst, abs(vp.variance - vp.double_sum) / abs(vp.variance))
        return f"max relative route difference {worst:.2e}"

    run_if(model or j_var > 0, "variance-route-agreement", chk_variance_agreement,
           "no certified second-moment bound (declare e_star)")

    def chk_gamma_independence():
        J = float(j_mid)
        a, b = LabelBatch(s, w, [StateLabel(J, 0.0), StateLabel(J, 7.3)], tol, shared).states()
        ma, _, va = moments_from_state(s, a)
        mb, _, vb = moments_from_state(s, b)
        assert abs(ma - mb) <= 1e-9 and abs(va - vb) <= 1e-9, (
            f"means {ma!r}/{mb!r}, variances {va!r}/{vb!r}"
        )
        return f"|mean diff| = {abs(ma - mb):.2e}, |variance diff| = {abs(va - vb):.2e}"

    run("gamma-independence", chk_gamma_independence)

    def chk_bound():
        grid = model.variance_grid
        for J in grid:
            vp = variance_points[J] if J in variance_points else variance(s, w, J)
            bound = model.variance_bound(J, s.omega)
            assert vp.variance <= bound + 1e-9, (
                f"v({J:g}) = {vp.variance!r} exceeds {model.variance_bound_text} = {bound!r}"
            )
        return f"v(J) <= {model.variance_bound_text} on the {grid[0]:g}..{grid[-1]:g} grid"

    run_if(model and model.variance_bound, "variance-bound", chk_bound,
           "closed-form bound applies to the hydrogen-like rule only")

    def chk_decay():
        offs = []
        for gam in (1e2, 1e3, 1e4):
            proj = gamma_averaged_projector(s, w, 0.5, gam, min(w.n_max, 30))
            off = proj.entries - np.diag(np.diag(proj.entries))
            offs.append(float(np.abs(off).max()))
        r1, r2 = offs[0] / offs[1], offs[1] / offs[2]
        assert r1 >= 8.0 and r2 >= 8.0, f"decay ratios {r1:.2f}, {r2:.2f} below 8"
        return f"off-diagonal max decay ratios {r1:.1f}x, {r2:.1f}x per 10x Gamma"

    run_if("projector-offdiagonal-decay" in model_checks, "projector-offdiagonal-decay",
           chk_decay, "calibrated for the hydrogen-like gap structure")

    def chk_slope():
        ref = s.e(1)
        got = small_j_slope(s, w)
        assert abs(got / ref - 1.0) <= 1e-4, f"slope {got!r} vs e_1 = {ref!r}"
        return f"v(J)/J -> {got:.12g}, e_1 = {ref:.12g}"

    run_if(j_var > 0, "small-j-slope", chk_slope,
           "no certified second-moment bound (declare e_star)")

    def chk_exponent():
        # as J -> 1, v/(omega^2 eps) = c + eps (-zeta(2) - c ln eps) + O(eps^2 ln^2 eps),
        # eps = 1 - J, c = 1 + zeta(3) - zeta(2), for the hydrogen-like rule
        c = 1.0 + ZETA3 - ZETA2
        worst, points = 0.0, []
        for J in _NEAR_JSTAR_WINDOW:  # each point needs more terms than the last
            if _min_certified_terms(J, w.j_star, DEFAULT_TAIL_TOL) > w.n_max + 1:
                break
            try:
                vp = variance(s, w, J)
            except TruncationError:
                break
            gap = abs(vp.variance - model.variance(J, s.omega))
            assert gap <= vp.tail_bound, (
                f"v({J:.6g}) = {vp.variance!r} is {gap:.3e} from the exact form, "
                f"past its tail bound {vp.tail_bound:.3e}"
            )
            worst = max(worst, gap / vp.tail_bound)
            points.append(J)
        if not points:
            raise TruncationError(
                f"no near-J* window point certifies within n_max={w.n_max}; "
                f"the first, J = {_NEAR_JSTAR_WINDOW[0]:.6g}, needs more terms"
            )
        used = 0.0
        for k in range(3, 13):
            J = 1.0 - 10.0**-k
            eps = 1.0 - J  # exact, unlike 10^-k
            ratio = model.variance(J, s.omega) / (s.omega**2 * eps)
            allowed = 2.0 * eps * (-ZETA2 - c * math.log(eps))  # twice the next term
            assert abs(ratio - c) <= allowed, (
                f"v/(omega^2 (1-J)) at J = 1 - 1e-{k} is {ratio!r}, "
                f"not within {allowed:.3e} of 1 + zeta(3) - zeta(2) = {c!r}"
            )
            used = max(used, abs(ratio - c) / allowed)
        coeff = near_jstar_coefficient(s, w).value
        # its terms past n_max are below 1/(n+1)^4 (rho_n >= rho_inf), so they
        # sum to less than 1/(3 (n_max+1)^3); 1e-14 covers the rounding
        allowed = 1.0 / (3.0 * (w.n_max + 1.0) ** 3) + 1e-14
        assert abs(coeff - c) <= allowed, (
            f"near-J* coefficient {coeff!r} is not within {allowed:.3e} of "
            f"1 + zeta(3) - zeta(2) = {c!r}"
        )
        return (f"series within {worst:.2g} of its tail bound of the exact v at {len(points)} "
                f"of {len(_NEAR_JSTAR_WINDOW)} window points (J <= {points[-1]:.6g}); "
                f"v/(omega^2 (1-J)) within {used:.2g} of twice the next term of its limit "
                f"at J = 1 - 10^-k, k = 3..12; near-J* coefficient off by {abs(coeff - c):.1e}")

    run_if("near-jstar-exponent" in model_checks, "near-jstar-exponent", chk_exponent,
           "needs declared J* = 1 with known asymptotics")

    n_check = min(w.n_max, model.n_check if model else 15)

    def chk_moments():
        err = moment_check(measure, w, n_check)
        assert err <= 1e-9, f"max relative moment error {err:.3e} > 1e-9"
        return f"max relative moment error {err:.2e} for n <= {n_check}"

    def chk_unity():
        d = unity_check(measure, w, s, n_check)
        worst = float(np.abs(d - 1.0).max())
        assert worst <= 1e-9, f"unity diagonals deviate by {worst:.3e} > 1e-9"
        return f"max |d_n - 1| = {worst:.2e} for n <= {n_check}"

    for name, fn in (("measure-moments", chk_moments), ("unity-diagonals", chk_unity)):
        run_if(measure is not None, name, fn, "no measure available for this spectrum")

    def chk_trace():
        ps = power_sums(w, j_mid, rel_tol=tol)
        size = min(w.n_max, ps.terms_used + 40)
        proj = gamma_averaged_projector(s, w, float(j_mid), math.inf, size)
        trace = float(np.trace(proj.entries).real)
        assert abs(trace - 1.0) <= 1e-10, f"trace {trace!r} not within 1e-10 of 1"
        off = float(np.abs(proj.entries - np.diag(np.diag(proj.entries))).max())
        assert off == 0.0, f"Gamma=inf projector has off-diagonal {off!r}"
        return f"|trace - 1| = {abs(trace - 1.0):.2e}, diagonal exactly"

    run("projector-trace", chk_trace)

    def chk_psd():
        size = min(w.n_max, 30)
        proj = gamma_averaged_projector(s, w, float(j_mid), 50.0, size)
        assert np.abs(proj.entries - proj.entries.conj().T).max() <= 1e-12, "not Hermitian"
        smallest = float(np.linalg.eigvalsh(proj.entries).min())
        assert smallest >= -1e-10, f"smallest eigenvalue {smallest:.3e} < -1e-10"
        return f"Hermitian, smallest eigenvalue {smallest:.2e}"

    run("projector-psd", chk_psd)

    def chk_continuity():
        states = iter(LabelBatch(s, w, continuity, tol, shared).states())
        worst = 0.0
        for base in states:
            for (dj, dg), other in zip(steps, states):  # the next len(steps) states
                va, vb = _zero_padded(base.c, other.c)
                ratio = float(np.linalg.norm(va - vb)) / (abs(dj) + abs(dg))
                worst = max(worst, ratio)
        assert math.isfinite(worst), "difference quotient diverged"
        return f"local Lipschitz constant C <= {worst:.4g}"

    run("label-continuity", chk_continuity)

    def chk_evolution_norm():
        width = min(24, w.n_max + 1)
        vec = rng.normal(size=width) + 1j * rng.normal(size=width)
        vec /= np.linalg.norm(vec)
        worst = 0.0
        for t in (0.0, 1.7, -33.0, 1e6):
            worst = max(worst, abs(np.linalg.norm(evolve_coefficients(vec, s, t).c) ** 2 - 1.0))
        assert worst <= 1e-12, f"norm drift {worst:.3e} > 1e-12"
        return f"max norm drift {worst:.2e}"

    run("evolution-norm", chk_evolution_norm)

    def chk_flow():
        worst = 0.0
        draws = _uniform(rng.random((20, 4)), (0, 1), (-5, 5), (-9, 9), (-9, 9))
        for J, gamma, t1, t2 in zip(*draws):
            label = StateLabel(J, gamma)
            once = evolve_label(evolve_label(label, t1, s.omega), t2, s.omega)
            whole = evolve_label(label, t1 + t2, s.omega)
            worst = max(worst, abs(once.gamma - whole.gamma))
        assert worst <= 1e-12, f"flow composition drift {worst:.3e}"
        return f"max composition drift {worst:.2e}"

    run("label-flow", chk_flow)

    return results
