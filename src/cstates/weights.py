"""Weight factors rho_n, convergence radius, and certified power-series sums.

The weights fixed by the action identity are running products of the
dimensionless levels, rho_n = e_n * e_{n-1} * ... * e_1, held in log form
because they overflow (harmonic: n!) or converge to constants below 1
(hydrogen-like: 1/2) long before n_max is reached.

All series evaluated here have nonnegative terms t_n = J^n / rho_n (times
e_n powers), so a partial sum is a lower bound and a geometric-domination
argument gives a certified upper bound on the remainder: levels increase,
hence for every m > n0 the term ratio t_{m+1}/t_m = J/e_{m+1} is at most
q = J/e_{n0+1} and the tail is at most t_{n0} * q / (1 - q) once q < 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationError,
    LabelRangeError,
    SpectrumError,
    SpectrumMismatchError,
    TruncationError,
)
from .spectrum import Spectrum, _check_levels

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_NMAX = 20_000
EDGE_GUARD = 1e-6

# keeps reported tail bounds nonzero after term underflow
_TERM_FLOOR = 1e-300
# entries per chunk of the series scan
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class WeightTable:
    """log rho_n and the levels it was built from, for n = 0..n_max.

    ``j_star`` is the radius of convergence of sum J^n/rho_n; it equals the
    level accumulation point when that is declared, otherwise it is the
    finite-sample estimate exp(log_rho[n_max]/n_max) and is flagged as such.
    ``next_level_bound`` is a certified lower bound on e_{n_max+1}, used to
    close tail bounds at the end of the table.
    """

    spectrum: Spectrum
    log_rho: np.ndarray
    levels: np.ndarray
    n_max: int
    j_star: float
    j_star_is_estimate: bool
    next_level_bound: float


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation: the true sum lies in [value, value + tail_bound].

    ``tail_bound`` bounds the truncated remainder only, not the float
    rounding of ``value`` (harmonic N(600) is off e^600 by 3e-12 relative).
    """

    value: float
    tail_bound: float
    terms_used: int


def compute_weights(s: Spectrum, n_max: int = DEFAULT_NMAX) -> WeightTable:
    """Accumulate log rho_n = sum_{l<=n} log e_l for n = 0..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    e = s.e_array(n_max)
    report = _check_levels(s, e)
    if not report.ok:
        details = "; ".join(f"n={n}: {msg}" for n, msg in report.violations)
        raise SpectrumError(f"spectrum '{s.name}' failed validation: {details}")
    if not e[1] > 0:
        raise SpectrumError("e_1 must be positive")
    log_rho = np.concatenate([[0.0], np.cumsum(np.log(e[1:]))])

    if s.e_star is not None:
        j_star = float(s.e_star)
        estimated = False
    else:
        j_star = float(np.exp(log_rho[-1] / n_max))
        estimated = True

    if s.max_index is None:
        next_bound = float(s.e(n_max + 1))
    else:
        # future levels of any strictly increasing continuation exceed the last one
        next_bound = float(e[-1])

    return WeightTable(
        spectrum=s,
        log_rho=log_rho,
        levels=e,
        n_max=int(n_max),
        j_star=j_star,
        j_star_is_estimate=estimated,
        next_level_bound=next_bound,
    )


def check_j_range(w: WeightTable, J: float) -> None:
    """Reject labels outside [0, J*(1 - EDGE_GUARD)].

    An estimated radius is never used to allow or deny evaluation; in that
    case only nonnegativity is enforced and truncation certificates decide.
    """
    if not isinstance(J, (int, float, np.integer, np.floating)) or not math.isfinite(J):
        raise LabelRangeError(f"J must be a finite number, got {J!r}")
    if J < 0:
        raise LabelRangeError(f"J must be nonnegative, got {J}")
    if w.j_star_is_estimate or math.isinf(w.j_star):
        return
    if J >= w.j_star or J > w.j_star * (1.0 - EDGE_GUARD):
        raise LabelRangeError(
            f"J={J} too close to or beyond the convergence radius J*={w.j_star} "
            f"(guard {EDGE_GUARD:g})"
        )


def _check_same_spectrum(w: WeightTable, s: Spectrum) -> None:
    if s is not w.spectrum and s != w.spectrum:
        raise SpectrumMismatchError(
            f"weight table was built for '{w.spectrum.name}', got spectrum '{s.name}'"
        )


def _ratio_caps(s: Spectrum, e_next: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Certified upper bound on e_{m+1}/e_m over all m > n, per n."""
    if s.e_star is not None and math.isfinite(s.e_star):
        return s.e_star / e_next
    if s.model == "harmonic":
        return (n + 2.0) / (n + 1.0)
    raise CertificationError(
        "second-moment tail bound needs a finite e_star (declare one) "
        "or a built-in growth rule"
    )


@dataclass(frozen=True)
class PowerSums:
    """Scaled partial sums S_k = sum e_n^k t_n with certified scaled tails.

    All of s0, s1, s2, t0, t1, t2 share the scale exp(log_scale); ratios
    such as s1/s0 are scale-free.  s2/t2 are NaN unless second moments were
    requested.  The tails bound truncation only, not the float rounding of
    the partial sums.
    """

    J: float
    terms_used: int
    log_scale: float
    s0: float
    s1: float
    s2: float
    t0: float
    t1: float
    t2: float


def _log_terms(w: WeightTable, log_j: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """n and g_n = n log J - log rho_n for n in [lo, hi)."""
    n = np.arange(lo, hi, dtype=float)
    return n, n * log_j - w.log_rho[lo:hi]


def _running_sums(block: np.ndarray, carry: float) -> np.ndarray:
    """Cumulative sums of block continued from carry, in place, in numpy's
    sequential order, so chunk after chunk they equal one whole-table cumsum."""
    block[0] += carry
    return np.cumsum(block, out=block)


def _certified_sums(
    w: WeightTable, J: float, tol: float, order: int, *, absolute: bool = False
) -> PowerSums:
    """The series kernel: S_k = sum e_n^k t_n for k <= order, cut at the first
    index where every tail is certified.

    Terms are scaled, t_n = exp(g_n - M) with g_n = n log J - log rho_n.  The
    cut needs each tail at most tol times its partial sum or, when
    ``absolute``, at most tol once unscaled, compared in log space to survive
    huge scales.  Moments above ``order`` come back NaN.

    The table is scanned left to right in chunks of _CHUNK = 65,536 entries,
    so a call's working memory does not grow with n_max.  The running sums
    carry from chunk to chunk in numpy's sequential order and equal a
    whole-table cumsum bit for bit.  Levels are nondecreasing, so g rises
    while e_{n+1} <= J and falls after; the cut needs J < e_{n+1}, so M, the
    maximum of g over the chunks up to that turn, is the whole-table maximum.
    Should a later chunk still raise it (rounding on a flat top), M becomes
    the whole-table maximum and the scan restarts once from n = 0.  A refusal
    scans the whole table and reports the best relative tail over all chunks.
    """
    check_j_range(w, J)
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if J == 0:
        z1 = 0.0 if order >= 1 else math.nan
        z2 = 0.0 if order >= 2 else math.nan
        return PowerSums(0.0, 1, 0.0, 1.0, z1, z2, 0.0, z1, z2)

    def certified(cum: np.ndarray, tail: np.ndarray) -> np.ndarray:
        if absolute:
            with np.errstate(divide="ignore"):
                return scale + np.log(tail) <= math.log(tol)
        return tail <= tol * np.maximum(cum, _TERM_FLOOR)

    log_j = math.log(J)
    size = w.n_max + 1
    scale = -math.inf
    lo = 0
    while lo < size:
        hi = min(lo + _CHUNK, size)
        n, g = _log_terms(w, log_j, lo, hi)
        top = float(g.max())
        if top > scale:
            # g rises until J < e_{n+1}: take its maximum up to that turn, or
            # over the whole table after a rounding slip past it, so that the
            # scan restarts at most once
            scale, ahead = top, hi
            while ahead < size and (lo > 0 or not J < w.levels[ahead]):
                nxt = min(ahead + _CHUNK, size)
                scale = max(scale, float(_log_terms(w, log_j, ahead, nxt)[1].max()))
                ahead = nxt
            if lo > 0:
                lo = 0
                continue
        if lo == 0:
            carry = [0.0] * (order + 1)
            best = None

        t = np.exp(g - scale)
        e = w.levels[lo:hi]
        if hi < size:
            e_next = w.levels[lo + 1 : hi + 1]
        else:
            e_next = np.append(w.levels[lo + 1 :], w.next_level_bound)
        with np.errstate(divide="ignore"):
            q = J / e_next
        ok = q < 1.0
        tf = np.maximum(t, _TERM_FLOOR)
        tail0 = np.where(ok, tf * q / np.where(ok, 1.0 - q, 1.0), np.inf)

        moments = [t]
        if order >= 1:
            moments.append(e * t)
        if order >= 2:
            moments.append(e * e * t)
        cums = [_running_sums(m, c) for m, c in zip(moments, carry)]
        tails = [tail0]
        cond = ok & certified(cums[0], tail0)
        if order >= 1:
            tails.append(J * (tf + tail0))
            cond &= certified(cums[1], tails[1])
        if order >= 2:
            caps = _ratio_caps(w.spectrum, e_next, n)
            tails.append(J * (e_next * tf + caps * J * (tf + tail0)))
            cond &= certified(cums[2], tails[2])

        if cond.any():
            n0 = int(np.argmax(cond))
            sums = [float(c[n0]) for c in cums] + [math.nan] * (2 - order)
            bounds = [float(b[n0]) for b in tails] + [math.nan] * (2 - order)
            return PowerSums(float(J), lo + n0 + 1, scale, *sums, *bounds)

        rel = np.where(ok, tail0 / np.maximum(cums[0], _TERM_FLOOR), np.inf)
        i = int(np.argmin(rel))
        if best is None or rel[i] < best[0]:
            best = (rel[i], lo + i, tail0[i], cums[0][i], ok[i])
        carry = [float(c[-1]) for c in cums]
        lo = hi

    _, at, tail, cum, tail_ok = best
    with np.errstate(over="ignore"):
        partial = float(np.exp(scale) * carry[0])
        bound = float(np.exp(scale) * tail) if tail_ok else math.inf
    raise TruncationError(
        f"tail bound not reached within n_max={w.n_max} for J={J} "
        f"(best relative tail {tail / cum:.3e} at n={at})",
        value=partial,
        tail_bound=bound,
        terms_used=w.n_max + 1,
    )


def power_sums(
    w: WeightTable,
    J: float,
    *,
    rel_tol: float = DEFAULT_TAIL_TOL,
    need_second: bool = False,
) -> PowerSums:
    """Sum e_n^k J^n/rho_n (k = 0, 1, and optionally 2) with relative tail <= rel_tol.

    The mean-series tail uses the exact reindexing e_n t_n = J t_{n-1}; the
    second-moment tail additionally needs a level growth cap (available for
    bounded spectra and the harmonic rule).
    """
    return _certified_sums(w, J, rel_tol, 2 if need_second else 1)


def normalization(
    w: WeightTable,
    s: Spectrum,
    J: float,
    *,
    tol: float = DEFAULT_TAIL_TOL,
) -> SeriesValue:
    """Normalization series N(J) = sum J^n/rho_n with absolute tail bound <= tol."""
    _check_same_spectrum(w, s)
    ps = _certified_sums(w, J, tol, 0, absolute=True)
    with np.errstate(divide="ignore"):
        tail = np.exp(ps.log_scale + np.log(ps.t0))
    return SeriesValue(
        value=float(np.exp(ps.log_scale) * ps.s0),
        tail_bound=float(tail),
        terms_used=ps.terms_used,
    )
