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

Every series scan (the kernel ``_certified_sums``, the variance cross-check
and ``near_jstar_coefficient``) reads the table in fixed blocks of _BLOCK
entries, so its work stops near the terms the answer needs and its working
memory does not grow with n_max.  The kernel sizes its first block before
reading it: ``_first_block_end`` probes the log-terms at a few candidate ends
of 32 to 2,896 entries and stops at the first where the zeroth tail would
already be certified, so a short sum reads a short block.  Within a block the
kernel forms tails only on the suffix where q < 1, and a block whose moments
fit one array of at most _BLOCK floats holds them as its rows and certifies
them in one comparison; no temporary of a scan is larger than 32 KiB.
A later block that ends before the table and provably cannot hold the cut
forms no tails; a refusal sums again, from its carry, each such block that
may hold a relative tail as small as the best found, and reports the best.

``_batch_sums`` answers many labels at once, bit for bit as the kernel does
one by one: one block body, ``_block``, sums a kernel block at one J and the
first blocks of many J as the rows of one array of at most _BLOCK floats.
The batch probes its J as one column and sums each row over the kernel's
first block, scaled by the maximum of the same g.  The kernel sums the J
that do not cut in their first block and raises refusals.  The batch
answers as columns, one array per PowerSums field with an entry per J, which
``verify`` fills once for all its sampled labels and its checks then read.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationError,
    LabelRangeError,
    SpectrumError,
    SpectrumMismatchError,
    TruncationError,
)
from .spectrum import Spectrum, _check_levels, _refuse_invalid

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_NMAX = 20_000
EDGE_GUARD = 1e-6

# keeps reported tail bounds nonzero after term underflow
_TERM_FLOOR = 1e-300
# entries per scan block: a block's float64 arrays are 32 KiB, below glibc's
# 64 KiB free-consolidation threshold, so freeing them does not trim the heap
# and the next block or call does not fault its working set back in
_BLOCK = 1 << 12
# ends of the shorter first blocks the kernel may take, about 32 * 2^(k/2):
# steps below 2x leave the probe room to misjudge the cut by a few terms and
# still read at most twice the terms a sum of 16 to 2,048 terms uses
_PROBE_ENDS = (32, 45, 64, 90, 128, 181, 256, 362, 512, 724, 1_024, 1_448, 2_048, 2_896)


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
    """Accumulate log rho_n = sum_{l<=n} log e_l for n = 0..n_max.

    The logs and their running sum are written in place into log_rho, so no
    full-length copy of it is made on the way.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    e = s.e_array(n_max)
    _refuse_invalid(_check_levels(s, e), f"spectrum '{s.name}' failed validation")
    if not e[1] > 0:
        raise SpectrumError("e_1 must be positive")
    log_rho = np.empty(n_max + 1)
    log_rho[0] = 0.0
    np.cumsum(np.log(e[1:], out=log_rho[1:]), out=log_rho[1:])

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
    """Reject bools, non-finite labels and labels outside [0, J*(1 - EDGE_GUARD)].

    An estimated radius is never used to allow or deny evaluation; in that
    case only nonnegativity is enforced and truncation certificates decide.
    """
    number = isinstance(J, (int, float, np.integer, np.floating)) and not isinstance(J, bool)
    if not number or not math.isfinite(J):
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


def _check_same_spectrum(x, s: Spectrum) -> None:
    """Refuse s unless it is the spectrum of x, a weight table or a state."""
    if s is not x.spectrum and s != x.spectrum:
        raise SpectrumMismatchError(
            f"{type(x).__name__} was built for '{x.spectrum.name}', got spectrum '{s.name}'"
        )


def _ratio_caps(s: Spectrum, e_next: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Certified upper bound on e_{m+1}/e_m over all m > n, per n."""
    if s.e_star is not None and math.isfinite(s.e_star):
        return s.e_star / e_next
    if s.model is not None and s.model.ratio_cap is not None:
        return s.model.ratio_cap(n)
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


def _log_terms(w: WeightTable, log_j, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """n and g_n = n log J - log rho_n for n in [lo, hi), a row per log J of a column."""
    n = np.arange(lo, hi, dtype=float)
    return n, n * log_j - w.log_rho[lo:hi]


def _block_end(lo: int, stop: int) -> int:
    """End of the scan block that starts at lo: _BLOCK entries on, cut at stop."""
    return min(lo + _BLOCK, stop)


def _first_block_end(w: WeightTable, J, tol: float, absolute: bool) -> int | np.ndarray:
    """End of the kernel's first scan block, sized to the sum before it is read.

    The first m of _PROBE_ENDS below ``_block_end(0, size)`` at which the
    zeroth tail would already be certified: J < e_m and
    g_{m-1} + log(J/(e_m - J)) <= log tol + top.  Here top is the largest of
    0 = g_0 and the g_{m-1} probed so far, a lower bound on the log of the
    zeroth partial sum up to m - 1; it is dropped when ``absolute``.  If no m
    passes, the first block is a full one.  Only where blocks end depends on
    this.
    J may be a column of J the kernel scans (never ``absolute``): its ends
    come from one array test, and a J whose test lies within rounding of its
    bound, since np.log and math.log may differ in the last ulp, is probed alone.
    """
    stop = _block_end(0, w.n_max + 1)
    if stop <= _PROBE_ENDS[0]:
        return stop
    if isinstance(J, np.ndarray):
        ends = np.array([m for m in _PROBE_ENDS if m < stop], dtype=int)
        log_j = np.array([math.log(x) for x in J[:, 0].tolist()])[:, None]
        passed, close = _probe_test(w, J, log_j, ends, tol)
        out = np.where(passed.any(axis=1), ends[passed.argmax(axis=1)], stop)
        for i in np.flatnonzero(close.any(axis=1)).tolist():
            out[i] = _first_block_end(w, float(J[i, 0]), tol, False)
        return out
    log_j, log_tol, top = math.log(J), math.log(tol), 0.0
    for m in _PROBE_ENDS:
        if m >= stop:
            break
        g = (m - 1) * log_j - float(w.log_rho[m - 1])
        if not absolute:
            top = max(top, g)
        e = float(w.levels[m])
        if J < e and g + log_j - math.log(e - J) <= log_tol + top:
            return m
    return stop


def _probe_test(w: WeightTable, J: np.ndarray, log_j: np.ndarray, ends: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``_first_block_end``'s test at each m of ends for each J of a column
    (log_j its logs), top the running maximum of 0 and the g_{m-1}: where it
    passes, and where it lies within rounding of its bound."""
    g = (ends - 1) * log_j - w.log_rho[ends - 1]
    top = np.maximum.accumulate(np.maximum(g, 0.0), axis=1)
    e = w.levels[ends]
    below = J < e
    with np.errstate(divide="ignore", invalid="ignore"):  # no log where J >= e
        log_gap = np.log(e - J)
    lhs = g + log_j - log_gap
    rhs = math.log(tol) + top
    close = np.abs(lhs - rhs) <= 2.0**-50 * (np.abs(g) + np.abs(log_j) + np.abs(log_gap) + np.abs(rhs))
    return below & (lhs <= rhs), below & close


def _blocks(lo: int, stop: int) -> Iterator[tuple[int, int]]:
    """The scan blocks (lo, hi) that cover [lo, stop), by ``_block_end``."""
    while lo < stop:
        hi = _block_end(lo, stop)
        yield lo, hi
        lo = hi


def _tails(s: Spectrum, J, tf: np.ndarray, q: np.ndarray | None, e_next: np.ndarray,
           n: np.ndarray, out: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """Tail bounds at the terms tf, one row of out per moment; J may be a
    column.  The zeroth is tail0 = tf q / (1 - q) with q = J/e_next, which
    overwrites q (or is already in out[0] when q is None), the first
    J (tf + tail0), the second J (e_next tf + caps J (tf + tail0)), caps at n."""
    tail0 = out[0]
    if q is not None:
        np.multiply(tf, q, out=tail0)
        tail0 /= np.subtract(1.0, q, out=q)
    if len(out) > 1:
        first = np.add(tf, tail0, out=out[1])
        if len(out) > 2:
            second = np.multiply(_ratio_caps(s, e_next, n), J, out=out[2])
            second *= first
            second += e_next * tf
            second *= J
        first *= J
    return tail0


def _certified(cum: np.ndarray, tail: np.ndarray, tol: float, scale, absolute: bool) -> np.ndarray:
    """Where a tail is at most tol times its partial sum or, if ``absolute``,
    at most tol unscaled by exp(scale), in log space; never where it is NaN."""
    if absolute:
        with np.errstate(divide="ignore"):  # a tail can underflow to 0
            log_tail = np.log(tail)
        log_tail += scale
        return log_tail <= math.log(tol)
    bound = np.maximum(cum, _TERM_FLOOR)
    bound *= tol
    return tail <= bound


def _settled(w: WeightTable, J: float, tol: float, order: int) -> PowerSums | None:
    """Refuse a kernel call that no scan can answer; the sums at J = 0, else None."""
    check_j_range(w, J)
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if J == 0:
        z1 = 0.0 if order >= 1 else math.nan
        z2 = 0.0 if order >= 2 else math.nan
        return PowerSums(0.0, 1, 0.0, 1.0, z1, z2, 0.0, z1, z2)
    if order >= 2:
        # a spectrum without a growth cap is refused before any term is read
        _ratio_caps(w.spectrum, w.levels[:0], w.levels[:0])
    return None


def _block(w: WeightTable, J, lo: int, hi: int, n: np.ndarray, g: np.ndarray, scale, carry,
           best, skipped: list | None, tol: float, order: int, absolute: bool):
    """Sum and certify the scan block [lo, hi) at J, one J or a column of J
    sorted ascending, from the log-terms g at n (a row per J; g -= scale in
    place), the running sums carried on from ``carry``.  i0 is the smallest
    J's, so a larger J's tails are NaN, never certified, where its q >= 1.
    Moments that fit one array of at most _BLOCK floats are its rows, all
    certified in one comparison; otherwise (one J) the zeroth moment is
    certified first, and the higher tails and caps are built only from where
    it holds.  Returns (found, carry, best): the PowerSums where the block
    holds the cut (for a column, the arrays (cut, terms used, sums, tails):
    whether each row holds its cut, and there its terms, its moments' sums and
    its tails, a column per row); for one J without a cut, the running sums
    at the block's end and the least of ``best`` and the block's best
    (relative tail, n, tail, partial sum).
    Given a list ``skipped``, a block that ends before the table forms no
    tail if low = min(tf) q_min / (1 - q_min), q_min = J/e_hi, proves no cut:
    by monotone rounding, every zeroth tail is at least low and every partial
    sum at most the last.  It appends (low / that sum, lo, hi, carry).
    """
    column = g.ndim > 1
    rows = order + 1
    nan = [math.nan] * (2 - order)
    g -= scale
    # several moments as the rows of one array, if it is no larger than a
    # full block's row: bigger temporaries let frees trim the heap
    stacked = order >= 1 and rows * g.size <= _BLOCK
    if stacked:
        cums = np.empty((rows,) + g.shape)
    else:
        cums = [g, *(np.empty(hi - lo) for _ in range(order))]
    t = np.exp(g, out=cums[0])
    least = J[0, 0] if column else J
    # past the table, e_next is next_level_bound, kept only if it exceeds
    # J; levels rise, so q = J/e_next < 1 exactly on [i0, k)
    e_next = w.levels[lo + 1 : hi + 1]
    if hi == w.n_max + 1 and least < w.next_level_bound:
        e_next = np.append(e_next, w.next_level_bound)
    i0, k = int(e_next.searchsorted(least, "right")), len(e_next)
    tf = np.maximum(t[..., i0:k], _TERM_FLOOR)
    # e t and e e t, up to order, from t
    e = w.levels[lo:hi]
    if order >= 1:
        np.multiply(e, cums[0], out=cums[1])
    if order >= 2:
        np.multiply(e, e, out=cums[2])
        cums[2] *= cums[0]
    # running sums in numpy's sequential order, carried on from the last block
    if carry is not None:
        for c, x in zip(cums, carry):
            c[0] += x
    if stacked:
        np.add.accumulate(cums, axis=-1, out=cums)
    else:
        for c in cums:
            np.add.accumulate(c, out=c)
    if i0 == k:
        return None, [c[-1] for c in cums], best
    if skipped is not None and hi <= w.n_max:
        q_min = J / float(w.levels[hi])
        low = float(np.minimum.reduce(tf)) * q_min / (1.0 - q_min)
        top = max(float(cums[0][-1]), _TERM_FLOOR)
        if absolute:
            # by far more than the few ulps np.log and math.log may differ by
            slack = 2.0**-40 * (1.0 + abs(scale) + abs(math.log(tol)))
            cannot = low > 0 and math.log(low) + scale > math.log(tol) + slack
        else:
            cannot = low > top * tol
        if cannot:
            skipped.append((low / top, lo, hi, carry))
            return None, [c[-1] for c in cums], best

    q = np.divide(J, e_next[i0:])
    if column:
        q[q >= 1.0] = math.nan
    tails = np.empty((rows,) + tf.shape) if stacked else [np.empty(k - i0)]
    tail0 = _tails(w.spectrum, J, tf, q, e_next[i0:], n[i0:k], tails)
    base = i0  # the block index of cut[0] and of every tail's first entry
    if stacked:
        cut = np.logical_and.reduce(_certified(cums[..., i0:k], tails, tol, scale, absolute))
        if column:
            at = cut.argmax(axis=1)
            r = np.arange(len(at))
            return (cut[r, at], lo + i0 + at + 1, cums[:, r, i0 + at], tails[:, r, at]), None, None
        at = int(cut.argmax())
    else:
        cut = _certified(cums[0][i0:k], tail0, tol, scale, absolute)
        at = int(cut.argmax())
        if cut[at] and order >= 1:
            # the higher tails from the zeroth moment's cut on
            base += at
            tails = [tail0[at:], *(np.empty(k - base) for _ in range(order))]
            _tails(w.spectrum, J, tf[at:], None, e_next[base:], n[base:k], tails)
            cut = cut[at:]
            for c, tail in zip(cums[1:], tails[1:]):
                cut &= _certified(c[base:k], tail, tol, scale, absolute)
            at = int(cut.argmax())
    if not cut[at]:
        rel = tail0 / np.maximum(cums[0][i0:k], _TERM_FLOOR)
        i = int(rel.argmin())
        best = min(best, (rel[i], lo + i0 + i, tail0[i], cums[0][i0 + i]))
        return None, [c[-1] for c in cums], best
    n0 = base + at
    if stacked:
        sums, bounds = cums[:, n0].tolist() + nan, tails[:, at].tolist() + nan
    else:
        sums = [float(c[n0]) for c in cums] + nan
        bounds = [float(b[at]) for b in tails] + nan
    return PowerSums(float(J), lo + n0 + 1, scale, *sums, *bounds), None, None


def _certified_sums(
    w: WeightTable, J: float, tol: float, order: int, *, absolute: bool = False
) -> PowerSums:
    """The series kernel: S_k = sum e_n^k t_n for k <= order, cut at the first
    index where every tail is certified (``_certified``).

    Terms are scaled, t_n = exp(g_n - M) with g_n = n log J - log rho_n.
    Moments above ``order`` come back NaN.  Blocks end where ``_block_end``
    and ``_first_block_end`` put them, and ``_block`` sums each, which changes
    no result: the running sums carry from block to block in numpy's
    sequential order and equal a whole-table cumsum bit for bit.

    g rises while e_{n+1} <= J and falls after; the cut needs J < e_{n+1}, so
    M, the maximum of g over the blocks up to that turn (read ahead of the
    block being summed), is the whole-table maximum.  Should a later block
    still raise it (rounding on a flat top), M becomes the whole-table maximum
    and the scan restarts once from n = 0.  A refusal sums again, from its
    carry, each block after the first that ``_block`` skipped whose bound on
    its relative tails reaches the best found, ties included, and reports the
    best relative tail over all blocks.
    """
    settled = _settled(w, J, tol, order)
    if settled is not None:
        return settled
    log_j = math.log(J)
    size = w.n_max + 1
    first = _first_block_end(w, J, tol, absolute)
    scale = -math.inf
    lo = 0
    while lo < size:
        hi = _block_end(lo, size) if lo else first
        n, g = _log_terms(w, log_j, lo, hi)
        top = float(np.maximum.reduce(g))
        if top > scale:
            # g rises until J < e_{n+1}: take its maximum up to that turn, or
            # over the whole table after a rounding slip past it, so that the
            # scan restarts at most once
            scale, ahead = top, hi
            while ahead < size and (lo > 0 or not J < w.levels[ahead]):
                nxt = _block_end(ahead, size)
                scale = max(scale, float(np.maximum.reduce(_log_terms(w, log_j, ahead, nxt)[1])))
                ahead = nxt
            if lo > 0:
                lo = 0
                continue
        if lo == 0:
            carry, skipped = None, []
            # (relative tail, n, tail, partial sum): inf until an index has q < 1
            best = (math.inf, 0, math.inf, 1.0)

        found, carry, best = _block(w, J, lo, hi, n, g, scale, carry, best, skipped if lo else None,
                                    tol, order, absolute)
        if found is not None:
            return found
        lo = hi

    for bound, lo, hi, kept in skipped:
        if bound <= best[0]:
            n, g = _log_terms(w, log_j, lo, hi)
            best = _block(w, J, lo, hi, n, g, scale, kept, best, None, tol, order, absolute)[2]
    _, at, tail, cum = best
    with np.errstate(over="ignore"):
        partial = float(np.exp(scale) * carry[0])
        bound = float(np.exp(scale) * tail)  # scale >= g_0 = 0, so inf stays inf
    raise TruncationError(
        f"tail bound not reached within n_max={w.n_max} for J={J} "
        f"(best relative tail {tail / cum:.3e} at n={at})",
        value=partial,
        tail_bound=bound,
        terms_used=w.n_max + 1,
    )


def _batchable(w: WeightTable, Js, tol: float, order: int) -> list[float]:
    """The float J > 0 of Js that ``_settled`` lets the kernel scan, ascending;
    none if the tolerance, or a missing growth cap, refuses every J.  The
    kernel sums, or refuses, the others."""
    if not tol > 0:
        return []
    if order >= 2:
        try:
            _ratio_caps(w.spectrum, w.levels[:0], w.levels[:0])
        except CertificationError:
            return []
    star = guard = math.inf  # an estimated or infinite radius checks finiteness only
    if not (w.j_star_is_estimate or math.isinf(w.j_star)):
        star, guard = w.j_star, w.j_star * (1.0 - EDGE_GUARD)
    return sorted(J for J in Js if isinstance(J, float) and 0 < J < star and J <= guard)


def _chunks(ends: np.ndarray, rows: np.ndarray, floats: int) -> Iterator[tuple[int, np.ndarray]]:
    """(end, indices) for the rows picked by the mask ``rows``, grouped by
    their end, in chunks of at most _BLOCK floats at ``floats`` per entry."""
    for end in sorted(set(ends[rows].tolist())):
        picked = np.flatnonzero(rows & (ends == end))
        step = max(1, _BLOCK // (floats * end))
        for i in range(0, len(picked), step):
            yield end, picked[i : i + step]


class _SumColumns:
    """``_batch_sums``' answer: the PowerSums fields of its distinct J as
    arrays, entry at[J] for J, in the order the J first appear.  s and t hold
    s0, s1, s2 and t0, t1, t2 as their rows; moments above the order are NaN."""

    __slots__ = ("at", "terms_used", "log_scale", "s", "t")

    def __init__(self, Js):
        self.at = {J: i for i, J in enumerate(dict.fromkeys(Js))}
        size = len(self.at)
        self.terms_used = np.zeros(size, dtype=int)
        self.log_scale = np.zeros(size)
        self.s = np.full((3, size), math.nan)
        self.t = np.full((3, size), math.nan)

    def put(self, J: float, ps: PowerSums) -> None:
        """Write the kernel's sums ps at J into J's entries."""
        i = self.at[J]
        self.terms_used[i], self.log_scale[i] = ps.terms_used, ps.log_scale
        self.s[:, i] = ps.s0, ps.s1, ps.s2
        self.t[:, i] = ps.t0, ps.t1, ps.t2


def _batch_sums(w: WeightTable, Js, tol: float, order: int) -> _SumColumns:
    """``_certified_sums(w, J, tol, order)`` at each distinct J of Js, bit for
    bit, order 1 or 2, as columns.  The J the kernel would scan are probed as
    one column, and those whose first block it would stack are rows: each row
    is that first block, scaled by the maximum of its own g, as the kernel
    scales it.  Rows of one width are summed as one ``_block`` per chunk,
    J ascending, and written into the columns as arrays.  The kernel sums the
    J whose first block does not hold the cut, the other J, or a single one,
    into the columns from its PowerSums, and raises the first refusal in the
    order of Js."""
    out = _SumColumns(Js)
    done = np.zeros(len(out.at), dtype=bool)
    # a single distinct J goes straight to the kernel
    keys = _batchable(w, out.at, tol, order) if len(out.at) > 1 else []
    if keys:
        where = np.array([out.at[x] for x in keys])
        J = np.array(keys)[:, None]
        # log J by math.log, as the kernel takes it: np.log can differ in the last ulp
        log_j = np.array([math.log(x) for x in keys])[:, None]
        first = np.broadcast_to(_first_block_end(w, J, tol, False), len(keys))
        for end, chunk in _chunks(first, (order + 1) * first <= _BLOCK, order + 1):
            n, g = _log_terms(w, log_j[chunk], 0, end)
            scale = np.maximum.reduce(g, axis=1, keepdims=True)
            found = _block(w, J[chunk], 0, end, n, g, scale, None, None, None, tol, order, False)[0]
            if found is not None:
                cut, terms, sums, tails = found
                i = where[chunk[cut]]
                done[i] = True
                out.terms_used[i] = terms[cut]
                out.log_scale[i] = scale[cut, 0]
                out.s[: order + 1, i] = sums[:, cut]
                out.t[: order + 1, i] = tails[:, cut]
    # the kernel, through its public name that a tracer wraps, sums the rest
    for J, summed in zip(out.at, done.tolist()):
        if not summed:
            out.put(J, power_sums(w, J, rel_tol=tol, need_second=order > 1))
    return out


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
    tail = np.exp(ps.log_scale + np.log(ps.t0)) if ps.t0 > 0 else 0.0
    return SeriesValue(
        value=float(np.exp(ps.log_scale) * ps.s0),
        tail_bound=float(tail),
        terms_used=ps.terms_used,
    )
