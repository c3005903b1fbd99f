"""Energy moments, the action identity, variance curves and their asymptotics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CrossCheckError, CStatesError, LabelRangeError, TruncationError
from .spectrum import Spectrum
from .state import StateCoefficients
from .weights import (
    DEFAULT_TAIL_TOL,
    EDGE_GUARD,
    WeightTable,
    _blocks,
    _check_same_spectrum,
    _log_terms,
    compute_weights,
    power_sums,
)

# the two variance routes must agree to this relative tolerance
AGREEMENT_RTOL = 1e-8

DEFAULT_FIT_CAP = 2_000_000

# near-J* fits skip the points whose certificate's term bound passes their
# table, a bound only trusted up to this relative rounding margin
_TERM_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class VariancePoint:
    """Energy mean/variance at one J, with the propagated truncation error.

    ``variance`` is the moment form <H^2> - <H>^2; ``double_sum`` holds the
    double-sum route's value, and ``error`` flags grid points that failed
    instead of aborting a sweep.
    """

    J: float
    mean: float
    second_moment: float
    variance: float
    tail_bound: float
    double_sum: float | None = None
    error: str | None = None


def energy_mean(
    s: Spectrum,
    w: WeightTable,
    J: float,
    *,
    rel_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """<H> at action J: omega * (sum e_n J^n/rho_n) / (sum J^n/rho_n).

    Gamma-independent by construction; equals omega*J when the weights obey
    the action identity, which is what callers verify.
    """
    _check_same_spectrum(w, s)
    ps = power_sums(w, J, rel_tol=rel_tol)
    return s.omega * ps.s1 / ps.s0


def _double_sum_variance(w: WeightTable, J: float, k: int, omega: float) -> float:
    """The double sum (1/2) sum (e_n - e_m)^2 t_n t_m / (sum t)^2 over n, m < k,
    in its centred form sum (x_n - xbar)^2 t_n / sum t.

    The two are algebraically identical, and so is the variance of the gaps
    x_n = e* - e_n, which a bounded spectrum uses in place of e_n; the
    centred form costs O(k) and avoids the cancellation of <H^2> - <H>^2
    near e*.  The terms t_n = exp(g_n - max g) are recomputed from log rho,
    independently of the moment route and of its scale.

    [0, k) is scanned in the series kernel's fixed blocks
    (``weights._blocks``), so working memory does not grow with k.  For
    k <= weights._BLOCK there is one block, no shift and no merge, so the
    result is the whole-range centred sum bit for bit.  With more blocks,
    g_{n+1} - g_n = log J - log e_{n+1} and levels do not decrease, so g
    peaks at the last n below k before the levels reach J.  g there stands in
    for max g (rounding can leave another g a few ulps above it, which only
    rescales every term alike), and x_c is x there.  One pass then gives each block
    its weight W_b = sum t, the weighted mean of y = x - x_c and
    M2_b = sum (y - mean_b)^2 t, and merges the blocks by the pairwise
    update of Chan, Golub & LeVeque (Amer. Statist. 37, 242 (1983)).  The
    shift to y keeps the block means, whose difference the update squares,
    near the spread of the terms rather than near |x|: unshifted, harmonic
    J = 1.5e5 cut at k = 65,537 into blocks of 65,536 and 1 entries lost
    4e-12 relative.  A block whose terms all underflow adds nothing.
    """
    if J == 0:
        return 0.0
    log_j = math.log(J)
    s, levels = w.spectrum, w._read(k)[1]
    bounded = s.e_star is not None and math.isfinite(s.e_star)

    def gaps(n: np.ndarray, lo: int, hi: int) -> np.ndarray:
        if bounded and s.gap_rule is not None:  # on _log_terms' n, as gap_range would
            return np.asarray(s.gap_rule(n), dtype=float)
        return s.gap_range(lo, hi) if bounded else levels[lo:hi]

    blocks = list(_blocks(0, k))
    several = len(blocks) > 1
    if several:
        at = int(np.searchsorted(levels[:k], J)) - 1  # e_0 = 0 < J
        n, g = _log_terms(w, log_j, at, at + 1)
        top, centre = float(g[0]), float(gaps(n, at, at + 1)[0])
    else:
        n, g = _log_terms(w, log_j, 0, k)
        top, centre = float(g.max()), 0.0

    total = mean = m2 = 0.0
    for lo, hi in blocks:
        if several:  # a single block reuses its n and g from above
            n, g = _log_terms(w, log_j, lo, hi)
        g -= top
        t = np.exp(g, out=g)
        weight = t.sum()
        if weight == 0:
            continue
        y = gaps(n, lo, hi) - centre if several else gaps(n, lo, hi)
        block_mean = (y * t).sum() / weight
        d = y - block_mean
        d *= d
        block_m2 = np.multiply(d, t, out=d).sum()
        if total == 0:
            total, mean, m2 = weight, block_mean, block_m2
            continue
        delta = block_mean - mean
        merged = total + weight
        mean = mean + delta * weight / merged
        m2 = m2 + block_m2 + delta * delta * total * weight / merged
        total = merged
    return omega * omega * float(m2 / total)


def variance(
    s: Spectrum,
    w: WeightTable,
    J: float,
    *,
    rel_tol: float = DEFAULT_TAIL_TOL,
) -> VariancePoint:
    """Energy variance at J, computed as <H^2> - <H>^2 and cross-checked
    against the symmetric double sum over the same truncation."""
    _check_same_spectrum(w, s)
    om = s.omega
    ps = power_sums(w, J, rel_tol=rel_tol, need_second=True)
    m1 = ps.s1 / ps.s0
    m2 = ps.s2 / ps.s0
    v = (m2 - m1 * m1) * om * om

    # first-order propagation of the certified tails through the ratios
    d1 = (ps.t1 + m1 * ps.t0) / ps.s0
    d2 = (ps.t2 + m2 * ps.t0) / ps.s0
    dv = om * om * (d2 + 2.0 * abs(m1) * d1 + d1 * d1)

    vd = _double_sum_variance(w, J, ps.terms_used, om)
    allowed = max(AGREEMENT_RTOL * max(abs(v), abs(vd)), dv)
    if abs(v - vd) > allowed:
        raise CrossCheckError(
            f"variance routes disagree at J={J}: moment form {v!r} vs "
            f"double sum {vd!r} (allowed {allowed:.3e})"
        )
    return VariancePoint(
        J=float(J),
        mean=om * m1,
        second_moment=om * om * m2,
        variance=v,
        tail_bound=dv,
        double_sum=vd,
    )


def variance_curve(
    s: Spectrum,
    w: WeightTable,
    j_grid: Sequence[float],
    *,
    rel_tol: float = DEFAULT_TAIL_TOL,
) -> list[VariancePoint]:
    """variance() over a grid; failing points come back flagged, not raised.

    A table of another spectrum is refused once, before any point is tried.
    """
    _check_same_spectrum(w, s)
    out: list[VariancePoint] = []
    for J in j_grid:
        try:
            out.append(variance(s, w, float(J), rel_tol=rel_tol))
        except CStatesError as exc:
            out.append(
                VariancePoint(
                    J=float(J),
                    mean=math.nan,
                    second_moment=math.nan,
                    variance=math.nan,
                    tail_bound=math.nan,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return out


_SLOPE_GRID = (1e-3, 1e-4, 1e-5)
_SLOPE_TOL = 1e-10


def small_j_slope(s: Spectrum, w: WeightTable) -> float:
    """Dimensionless limit of v(J)/(omega^2 J) as J -> 0, by Richardson extrapolation.

    v(J)/J has a regular expansion in J, so two elimination levels over the
    decade-spaced grid remove the J and J^2 terms; the limit equals e_1.
    The certificate target _SLOPE_TOL is looser than elsewhere because a short
    explicit list cannot push relative tails below ~J^L/rho_L; 1e-10 on the
    moments leaves the extrapolated slope far inside its 1e-4 contract.
    """
    om2 = s.omega * s.omega
    u = []
    for J in _SLOPE_GRID:
        u.append(variance(s, w, J, rel_tol=_SLOPE_TOL).variance / (om2 * J))
    r1 = (10.0 * u[1] - u[0]) / 9.0
    r2 = (10.0 * u[2] - u[1]) / 9.0
    out = (100.0 * r2 - r1) / 99.0
    if not math.isfinite(out):
        raise TruncationError(
            f"slope extrapolation unstable: v/J samples {u} at J={_SLOPE_GRID}"
        )
    return float(out)


def _fit_loglog(js: np.ndarray, vs: np.ndarray) -> tuple[float, float]:
    x = np.log1p(-js)  # log(1 - J), accurate near J* = 1
    y = np.log(vs)
    design = np.vstack([x, np.ones_like(x)]).T
    slope, intercept = np.linalg.lstsq(design, y, rcond=None)[0]
    return float(slope), float(intercept)


def _min_certified_terms(J: float, e_star: float, rel_tol: float) -> float:
    """Fewest terms any sum certified to rel_tol can use at 0 < J < e*.

    Levels stay below e*, so every term ratio J/e_{n+1} exceeds r = J/e*.
    The sum of the first n + 1 terms is then below t_n r (r^-(n+1) - 1)/(1 - r)
    and the certified tail beyond them is at least t_n r/(1 - r), so their
    ratio reaches rel_tol only once r^-(n+1) >= 1 + 1/rel_tol.
    """
    return math.log1p(1.0 / rel_tol) / (math.log(e_star) - math.log(J))


def _check_near_jstar(s: Spectrum, w: WeightTable) -> None:
    """Refuse a table of another spectrum, or one without a declared J* = 1 (NaN is not 1)."""
    _check_same_spectrum(w, s)
    if w.j_star_is_estimate or not math.isfinite(w.j_star) or abs(w.j_star - 1.0) > 1e-9:
        raise LabelRangeError(
            "near-J* analysis needs a spectrum with declared accumulation point J* = 1"
        )


def _certified_variance(s: Spectrum, w: WeightTable, J: float) -> VariancePoint | None:
    try:
        return variance(s, w, J)
    except TruncationError:
        return None


def near_jstar_exponent(
    s: Spectrum,
    w: WeightTable,
    fit_window: Sequence[float] | None = None,
    *,
    n_cap: int = DEFAULT_FIT_CAP,
) -> float:
    """Least-squares slope of log v(J) against log(1-J) on a window near J* = 1.

    The default window 1 - 10^(-1.5 k), k = 1..5 is clipped by the edge
    guard and by truncation feasibility (points whose series do not converge
    within n_cap terms are dropped).  Requires a declared J* equal to 1.

    A point runs only if its ``_min_certified_terms`` bound fits in
    max(n_cap, w.n_max) + 1 entries, and every point runs on one table that
    long: w, or one table built once, which a built-in spectrum fills only
    as far as the sums read.  A sum reads only the entries up to its cut, and
    a longer table begins with a shorter one's entries bit for bit, so any
    table holding a cut gives one value.
    """
    _check_near_jstar(s, w)
    if fit_window is None:
        fit_window = [1.0 - 10.0 ** (-1.5 * k) for k in range(1, 6)]
    window = sorted(J for J in fit_window if 0.0 < J <= 1.0 - EDGE_GUARD)
    top = max(n_cap, w.n_max)
    runs = [J for J in window if _min_certified_terms(J, w.j_star, DEFAULT_TAIL_TOL)
            / (1.0 + _TERM_BOUND_MARGIN) <= top + 1]
    table = w if top == w.n_max or not runs else compute_weights(s, top)
    points = [vp for vp in (_certified_variance(s, table, J) for J in runs)
              if vp is not None and vp.variance > 0]
    if len(points) < 3:
        raise TruncationError(
            f"only {len(points)} of {len(window)} window points were feasible within "
            f"{top} terms; supply a window farther from J*"
        )
    return _fit_loglog(*np.array([(p.J, p.variance) for p in points]).T)[0]


class JstarCoefficient(NamedTuple):
    value: float
    converged: bool


def near_jstar_coefficient(s: Spectrum, w: WeightTable) -> JstarCoefficient:
    """Leading coefficient of v(J)/(omega^2 (1-J)) as J -> 1, by direct summation.

    For spectra whose weights converge to a positive limit this equals
    rho_inf * sum_m gap_m^2 / rho_m (the two halves of the squared level
    difference contribute equally; an Abel summation of sum Delta_m/rho_m
    shows the same value).  ``converged`` is False when the partial sums are
    still moving at n_max, e.g. when rho_n -> 0.  rho_inf is the record's
    (``Model.rho_inf``) for a built-in spectrum that has one, else
    rho_{n_max}, which is 1 + 1/(n_max + 1) times hydrogen_like's.

    The sum runs over the series kernel's blocks (``weights._blocks``), split
    at the end of the head, 0.9 n_max, so its working memory does not grow
    with n_max.
    """
    _check_near_jstar(s, w)

    def blocked_sum(lo: int, stop: int) -> float:
        out = 0.0
        for a, b in _blocks(lo, stop):
            terms = s.gap_range(a, b)
            terms *= terms
            terms /= np.exp(w._read(b)[0][a:b])
            out += float(terms.sum())
        return out

    size = w.n_max + 1
    split = max(1, int(0.9 * size))
    with np.errstate(over="ignore", divide="ignore"):
        head = blocked_sum(0, split)
        total = head + blocked_sum(split, size)
    converged = math.isfinite(total) and (total - head) <= 0.01 * total
    rho_inf = (s.model.rho_inf if s.model and s.model.rho_inf
               else float(np.exp(w._read(size)[0][-1])))
    return JstarCoefficient(value=rho_inf * total, converged=converged)


def moments_from_state(s: Spectrum, x: StateCoefficients) -> tuple[float, float, float]:
    """(mean, second moment, variance) evaluated from amplitudes directly.

    Used to confirm gamma plays no role: the phases cancel in |c_n|^2.
    """
    _check_same_spectrum(x, s)
    p = np.abs(x.c) ** 2
    total = p.sum()
    e = s.e_array(len(p) - 1)
    m1 = float((e * p).sum() / total)
    m2 = float((e * e * p).sum() / total)
    om = s.omega
    return om * m1, om * om * m2, om * om * (m2 - m1 * m1)
