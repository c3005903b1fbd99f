"""Invariant suite behind the `verify` command: defining-property checks per model."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_coefficients, kinematic_pairs, stability_residuals
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
# label-continuity's steps (dJ, dgamma) from each of its five drawn labels
_STEPS = ((1e-5, 0.0), (-1e-5, 0.0), (0.0, 1e-5), (1e-6, 1e-6))


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


class _Suite:
    """What the rows share, built once: the spectrum, its table, the measure,
    tol and the model's record, the probed J, every sampled number and the
    batched series of their J.  Each row is a method that returns its detail
    text, or fails on an assertion or a package error."""

    def __init__(self, s: Spectrum, w: WeightTable, measure: Measure | None, seed: int, tol: float):
        self.s, self.w, self.measure, self.tol, self.model = s, w, measure, tol, s.model
        self.model_checks = s.model.checks if s.model else frozenset()
        self.n_check = min(w.n_max, s.model.n_check if s.model else 15)
        j_top = 0.95 * min(w.j_star, 10.0)
        j_state = self.j_state = _probe_usable_j(w, j_top, tol, need_second=False)
        self.j_var = _probe_usable_j(w, j_top, tol, need_second=True)
        self.j_mid = 0.5 * min(j_state, 1.0)

        # every sampled number, before any row runs: one call to random per row
        # (per psi where its normals come in between), taken to U(low, high) by
        # _uniform, gives the numbers one uniform call per number would, in order;
        # evolution-norm's normals last
        rng = np.random.default_rng(seed)
        self.reduction = rng.random((10, 2)) if "canonical-reduction" in self.model_checks else None
        self.stability = _uniform(rng.random((100, 3)), (0.0, 0.9 * j_state), (-10, 10), (-20, 20))
        width = min(40, w.n_max + 1)
        self.psis, draws = [], []
        for _ in range(50):
            # a psi's real parts, then its imaginary parts; then its J, gamma and t
            z = rng.normal(size=2 * width)
            psi = z[:width] + 1j * z[width:]
            self.psis.append(psi / np.linalg.norm(psi))
            draws.append(rng.random(3))
        self.kinematics = _uniform(np.array(draws), (0.0, 0.8 * j_state), (-5, 5), (-10, 10))
        # five labels, each followed by its steps
        Js, gammas = _uniform(rng.random((5, 2)), (0.05 * j_state, 0.8 * j_state), (-3, 3))
        self.continuity = [StateLabel(J + dj, gamma + dg) for J, gamma in zip(Js, gammas)
                           for dj, dg in ((0.0, 0.0), *_STEPS)]
        width = min(24, w.n_max + 1)
        vec = rng.normal(size=width) + 1j * rng.normal(size=width)
        self.vec = vec / np.linalg.norm(vec)

        # then the series of all their J, and gamma-independence's, in one batch
        # at tol; where it refuses, each row sums its own J and fails as alone
        self.grid = np.linspace(0.0, j_state, 20).tolist()
        try:
            self.shared = _batch_sums(
                w, [*(self.grid if tol == DEFAULT_TAIL_TOL else ()), *self.stability[0],
                    *self.kinematics[0], self.j_mid, *(x.J for x in self.continuity)], tol, 1)
        except (CStatesError, ValueError):
            self.shared = None
        # variance-bound reads the points variance-route-agreement certified on
        # the model's grid; a point that raised there is recomputed and raises again
        self.variance_points: dict[float, VariancePoint] = {}

    def _batch(self, labels: list[StateLabel]) -> LabelBatch:
        """The states of labels at tol, from the shared series where it holds."""
        return LabelBatch(self.s, self.w, labels, self.tol, self.shared)

    def action_identity(self) -> str:
        # energy_mean's omega s1/s0 at each J, from one batched series
        s, grid, sums = self.s, self.grid, self.shared
        if sums is None or self.tol != DEFAULT_TAIL_TOL:
            sums = _batch_sums(self.w, grid, DEFAULT_TAIL_TOL, 1)
        i = [sums.at[J] for J in grid]
        worst = max(np.abs(s.omega * sums.s[1, i] / sums.s[0, i] / s.omega - grid).tolist())
        assert worst <= 1e-8, f"max |mean/omega - J| = {worst:.3e} > 1e-8"
        return f"max |mean/omega - J| = {worst:.2e} over 20 points in [0, {self.j_state:.3g}]"

    def closed_form(self) -> str:
        worst = 0.0
        for J in self.model.closed_form_grid:
            val = normalization(self.w, self.s, J)
            ref = self.model.normalization(J)
            err = abs(val.value / ref - 1.0)
            worst = max(worst, err)
            assert err <= max(self.model.closed_form_rtol, val.tail_bound / ref), (
                f"N({J:.2f}) series {val.value!r} vs closed form {ref!r}"
            )
        return f"max relative deviation {worst:.2e}"

    def canonical_reduction(self) -> str:
        labels = list(map(StateLabel, *_uniform(self.reduction, (0.0, 6.0), (-math.pi, math.pi))))
        worst = 0.0
        for state in LabelBatch(self.s, self.w, labels, 1e-26).states():
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

    def deficit(self) -> str:
        worst = 0.0
        for frac in (0.3, 0.8):
            state = coefficients(self.s, self.w, StateLabel(frac * self.j_state, 1.3), tol=self.tol)
            deficit = norm_deficit(state)
            assert deficit <= state.tail_mass_bound + 5e-15, (
                f"deficit {deficit:.3e} exceeds bound {state.tail_mass_bound:.3e}"
            )
            worst = max(worst, deficit)
        return f"max deficit {worst:.2e}"

    def temporal_stability(self) -> str:
        Js, gammas, ts = self.stability
        worst = max(0.0, *stability_residuals(self._batch(list(map(StateLabel, Js, gammas))), ts))
        assert worst <= 1e-10, f"max residual {worst:.3e} > 1e-10"
        return f"max residual {worst:.2e} over 100 samples"

    def dynamics_as_kinematics(self) -> str:
        Js, gammas, ts = self.kinematics
        pairs = kinematic_pairs(self._batch(list(map(StateLabel, Js, gammas))), self.psis, ts)
        worst = max(0.0, *(abs(lhs - rhs) for lhs, rhs in pairs))
        assert worst <= 1e-10, f"max |lhs - rhs| {worst:.3e} > 1e-10"
        return f"max |<l|psi,t> - <l(-t)|psi>| = {worst:.2e} over 50 samples"

    def route_agreement(self) -> str:
        grid = self.model.variance_grid if self.model else np.linspace(0.1, 0.8, 5) * self.j_var
        worst = 0.0
        for J in grid:
            vp = variance(self.s, self.w, float(J))  # raises CrossCheckError on disagreement
            self.variance_points[float(J)] = vp
            if vp.variance != 0:
                worst = max(worst, abs(vp.variance - vp.double_sum) / abs(vp.variance))
        return f"max relative route difference {worst:.2e}"

    def gamma_independence(self) -> str:
        J = float(self.j_mid)
        a, b = self._batch([StateLabel(J, 0.0), StateLabel(J, 7.3)]).states()
        ma, _, va = moments_from_state(self.s, a)
        mb, _, vb = moments_from_state(self.s, b)
        om = self.s.omega  # mean/omega and variance/omega^2 are unit-free
        assert abs(ma - mb) / om <= 1e-9 and abs(va - vb) / (om * om) <= 1e-9, (
            f"means {ma!r}/{mb!r}, variances {va!r}/{vb!r}"
        )
        return f"|mean diff| = {abs(ma - mb):.2e}, |variance diff| = {abs(va - vb):.2e}"

    def variance_bound(self) -> str:
        model, grid, known = self.model, self.model.variance_grid, self.variance_points
        for J in grid:
            vp = known[J] if J in known else variance(self.s, self.w, J)
            bound = model.variance_bound(J, self.s.omega)
            assert vp.variance <= bound + 1e-9, (
                f"v({J:g}) = {vp.variance!r} exceeds {model.variance_bound_text} = {bound!r}"
            )
        return f"v(J) <= {model.variance_bound_text} on the {grid[0]:g}..{grid[-1]:g} grid"

    def decay(self) -> str:
        offs = []
        for gam in (1e2, 1e3, 1e4):
            proj = gamma_averaged_projector(self.s, self.w, 0.5, gam, min(self.w.n_max, 30))
            off = proj.entries - np.diag(np.diag(proj.entries))
            offs.append(float(np.abs(off).max()))
        r1, r2 = offs[0] / offs[1], offs[1] / offs[2]
        assert r1 >= 8.0 and r2 >= 8.0, f"decay ratios {r1:.2f}, {r2:.2f} below 8"
        return f"off-diagonal max decay ratios {r1:.1f}x, {r2:.1f}x per 10x Gamma"

    def slope(self) -> str:
        ref = self.s.e(1)
        got = small_j_slope(self.s, self.w)
        assert abs(got / ref - 1.0) <= 1e-4, f"slope {got!r} vs e_1 = {ref!r}"
        return f"v(J)/J -> {got:.12g}, e_1 = {ref:.12g}"

    def exponent(self) -> str:
        # as J -> 1, v/(omega^2 eps) = c + eps (-zeta(2) - c ln eps) + O(eps^2 ln^2 eps),
        # eps = 1 - J, c = 1 + zeta(3) - zeta(2), for the hydrogen-like rule
        s, w, model = self.s, self.w, self.model
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

    def moments(self) -> str:
        err = moment_check(self.measure, self.w, self.n_check)
        assert err <= 1e-9, f"max relative moment error {err:.3e} > 1e-9"
        return f"max relative moment error {err:.2e} for n <= {self.n_check}"

    def unity(self) -> str:
        d = unity_check(self.measure, self.w, self.s, self.n_check)
        worst = float(np.abs(d - 1.0).max())
        assert worst <= 1e-9, f"unity diagonals deviate by {worst:.3e} > 1e-9"
        return f"max |d_n - 1| = {worst:.2e} for n <= {self.n_check}"

    def trace(self) -> str:
        ps = power_sums(self.w, self.j_mid, rel_tol=self.tol)
        size = min(self.w.n_max, ps.terms_used + 40)
        proj = gamma_averaged_projector(self.s, self.w, float(self.j_mid), math.inf, size)
        trace = float(np.trace(proj.entries).real)
        assert abs(trace - 1.0) <= 1e-10, f"trace {trace!r} not within 1e-10 of 1"
        off = float(np.abs(proj.entries - np.diag(np.diag(proj.entries))).max())
        assert off == 0.0, f"Gamma=inf projector has off-diagonal {off!r}"
        return f"|trace - 1| = {abs(trace - 1.0):.2e}, diagonal exactly"

    def psd(self) -> str:
        size = min(self.w.n_max, 30)
        proj = gamma_averaged_projector(self.s, self.w, float(self.j_mid), 50.0, size)
        assert np.abs(proj.entries - proj.entries.conj().T).max() <= 1e-12, "not Hermitian"
        smallest = float(np.linalg.eigvalsh(proj.entries).min())
        assert smallest >= -1e-10, f"smallest eigenvalue {smallest:.3e} < -1e-10"
        return f"Hermitian, smallest eigenvalue {smallest:.2e}"

    def label_continuity(self) -> str:
        states = iter(self._batch(self.continuity).states())
        worst = 0.0
        for base in states:
            for (dj, dg), other in zip(_STEPS, states):  # the next len(_STEPS) states
                va, vb = _zero_padded(base.c, other.c)
                ratio = float(np.linalg.norm(va - vb)) / (abs(dj) + abs(dg))
                worst = max(worst, ratio)
        assert math.isfinite(worst), "difference quotient diverged"
        return f"local Lipschitz constant C <= {worst:.4g}"

    def evolution_norm(self) -> str:
        worst = 0.0
        for t in (0.0, 1.7, -33.0, 1e6):
            norm = np.linalg.norm(evolve_coefficients(self.vec, self.s, t).c)
            worst = max(worst, abs(norm**2 - 1.0))
        assert worst <= 1e-12, f"norm drift {worst:.3e} > 1e-12"
        return f"max norm drift {worst:.2e}"


# every row in order: its name, its method, whether it applies to the suite
# (None: always) and the reason it is skipped where it does not
CHECKS = (
    ("action-identity", _Suite.action_identity, None, None),
    ("normalization-closed-form", _Suite.closed_form, lambda x: x.model,
     "no closed form for custom spectra"),
    ("canonical-reduction", _Suite.canonical_reduction,
     lambda x: "canonical-reduction" in x.model_checks,
     "canonical closed form applies to the harmonic rule only"),
    ("norm-deficit", _Suite.deficit, None, None),
    ("temporal-stability", _Suite.temporal_stability, None, None),
    ("dynamics-as-kinematics", _Suite.dynamics_as_kinematics, None, None),
    ("variance-route-agreement", _Suite.route_agreement, lambda x: x.model or x.j_var > 0,
     "no certified second-moment bound (declare e_star)"),
    ("gamma-independence", _Suite.gamma_independence, None, None),
    ("variance-bound", _Suite.variance_bound, lambda x: x.model and x.model.variance_bound,
     "closed-form bound applies to the hydrogen-like rule only"),
    ("projector-offdiagonal-decay", _Suite.decay,
     lambda x: "projector-offdiagonal-decay" in x.model_checks,
     "calibrated for the hydrogen-like gap structure"),
    ("small-j-slope", _Suite.slope, lambda x: x.j_var > 0,
     "no certified second-moment bound (declare e_star)"),
    ("near-jstar-exponent", _Suite.exponent, lambda x: "near-jstar-exponent" in x.model_checks,
     "needs declared J* = 1 with known asymptotics"),
    ("measure-moments", _Suite.moments, lambda x: x.measure is not None,
     "no measure available for this spectrum"),
    ("unity-diagonals", _Suite.unity, lambda x: x.measure is not None,
     "no measure available for this spectrum"),
    ("projector-trace", _Suite.trace, None, None),
    ("projector-psd", _Suite.psd, None, None),
    ("label-continuity", _Suite.label_continuity, None, None),
    ("evolution-norm", _Suite.evolution_norm, None, None),
)


def run_suite(s: Spectrum, w: WeightTable, measure: Measure | None, *, seed: int = DEFAULT_SEED,
              tol: float = DEFAULT_TAIL_TOL) -> list[CheckResult]:
    """Every row of CHECKS on s, in order; a table of another spectrum is
    refused before any row runs.  A row fails on an assertion or a package
    error; any other error propagates."""
    _check_same_spectrum(w, s)
    suite = _Suite(s, w, measure, seed, tol)
    results = []
    for name, row, applies, reason in CHECKS:
        if applies and not applies(suite):
            results.append(CheckResult(name, "skipped", reason))
            continue
        try:
            results.append(CheckResult(name, "pass", row(suite)))
        except AssertionError as exc:
            results.append(CheckResult(name, "fail", str(exc)))
        except CStatesError as exc:
            results.append(CheckResult(name, "fail", f"{type(exc).__name__}: {exc}"))
    return results
