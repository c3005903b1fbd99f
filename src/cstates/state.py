"""Coherent-state coefficient vectors in the energy eigenbasis."""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import LabelRangeError
from .phase import phase_factor
from .spectrum import Spectrum
from .weights import DEFAULT_TAIL_TOL, WeightTable, _batch_sums, _check_same_spectrum, _SumColumns
from .weights import power_sums


@dataclass(frozen=True)
class StateLabel:
    """Action-angle label (J, gamma); gamma is unbounded and never wrapped, but finite.
    Neither is a bool."""

    J: float
    gamma: float

    def __post_init__(self):
        if isinstance(self.J, (bool, np.bool_)):
            raise LabelRangeError(f"J must be a finite number, got {self.J!r}")
        if isinstance(self.gamma, (bool, np.bool_)) or not math.isfinite(self.gamma):
            raise LabelRangeError(f"gamma must be a finite number, got {self.gamma!r}")


@dataclass(frozen=True, eq=False)
class StateCoefficients:
    """Truncated amplitudes c_n with a certified bound on the missing mass.

    |c_n|^2 = J^n / (N(J) rho_n) with phase exp(-i e_n gamma);
    sum |c_n|^2 lies in [1 - tail_mass_bound, 1].
    """

    c: np.ndarray
    tail_mass_bound: float
    label: StateLabel
    spectrum: Spectrum

    @property
    def n_top(self) -> int:
        return len(self.c) - 1


def coefficients(
    s: Spectrum,
    w: WeightTable,
    label: StateLabel,
    tol: float = DEFAULT_TAIL_TOL,
) -> StateCoefficients:
    """Amplitudes of |J, gamma> truncated so the missing mass is at most tol.

    The kernel's series at J gives the truncation, |c_n| = exp((g_n - log
    N(J))/2) and the tail mass, as ``_states`` forms them for many labels.
    """
    _check_same_spectrum(w, s)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if label.J == 0:
        return StateCoefficients(c=np.ones(1, dtype=complex), tail_mass_bound=0.0, label=label, spectrum=s)
    ps = power_sums(w, label.J, rel_tol=tol)
    k = ps.terms_used
    g = np.arange(k, dtype=float) * math.log(label.J) - w.log_rho[:k]
    amps = np.exp(0.5 * (g - (ps.log_scale + math.log(ps.s0 + ps.t0))))
    return StateCoefficients(c=amps * phase_factor(w.levels[:k] * label.gamma),
                             tail_mass_bound=float(ps.t0 / (ps.s0 + ps.t0)), label=label, spectrum=s)


class _Rows:
    """Rows of the given lengths laid end to end in one array: row i holds its
    entries n < lengths[i] at [bounds[i], bounds[i+1]); ``n`` is each entry's n."""

    __slots__ = ("lengths", "bounds", "n")

    def __init__(self, lengths: Sequence[int]):
        self.lengths = lengths
        bounds = np.zeros(len(lengths) + 1, dtype=int)
        np.cumsum(lengths, out=bounds[1:])
        self.bounds = bounds.tolist()
        self.n = np.arange(bounds[-1]) - np.repeat(bounds[:-1], lengths)

    def spread(self, values: Sequence[float]) -> np.ndarray:
        """Each row's value of values at every entry of the row."""
        return np.repeat(values, self.lengths)

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The rows of flat, as views."""
        return [flat[a:b] for a, b in zip(self.bounds, self.bounds[1:])]


def _amplitudes(
    s: Spectrum, w: WeightTable, Js: Sequence[float], tol: float, sums: _SumColumns | None = None
) -> tuple[np.ndarray, _Rows, list[float]]:
    """|c_n| = exp((g_n - log N(J))/2) of the state at each J of Js, as rows
    end to end, and their tail masses.  The series of the nonzero J are the
    columns ``sums`` holds, or else those of one ``weights._batch_sums``
    call, which raises the first refused J's error; a single J calls the
    kernel without the batch's grouping.  J = 0 is the one entry 1.
    Truncation, |c_n| and tail mass depend on J alone, and each entry is
    formed as the state of its J alone forms it, bit for bit: log J and
    log(s0 + t0) by ``math.log`` per J, the rest elementwise."""
    _check_same_spectrum(w, s)
    if not tol > 0:
        raise ValueError("tol must be positive")
    at = {J: k for k, J in enumerate(dict.fromkeys(J for J in Js if J != 0))}
    if sums is None:
        sums = _batch_sums(w, at, tol, 1)
    # terms, log J, log N(J) and tail mass per distinct nonzero J, then J = 0's
    i = [sums.at[J] for J in at]
    norm = sums.s[0, i] + sums.t[0, i]
    terms = np.append(sums.terms_used[i], 1)
    log_j = np.array([math.log(J) for J in at] + [0.0])
    log_norm = np.append(sums.log_scale[i] + np.array([math.log(x) for x in norm.tolist()]), 0.0)
    tails = np.append(sums.t[0, i] / norm, 0.0)
    pick = [at[J] if J != 0 else len(at) for J in Js]
    rows = _Rows(terms[pick].tolist())
    g = rows.n * rows.spread(log_j[pick]) - w.log_rho[rows.n]
    return np.exp(0.5 * (g - rows.spread(log_norm[pick]))), rows, tails[pick].tolist()


def _phases(e: np.ndarray, rows: _Rows, xs: Sequence[float]) -> np.ndarray:
    """exp(-i e_n x) at the entries of each row and its x of xs, in one
    ``phase_factor`` call (a state: e the levels, x = gamma; an evolution:
    e = omega levels, x = t)."""
    return phase_factor(e[rows.n] * rows.spread(xs))


def _phase_rows(flat: np.ndarray, rows: _Rows, e: np.ndarray, xs: Sequence[float]) -> np.ndarray:
    """flat times ``_phases(e, rows, xs)``.  numpy computes a product with a
    large temporary operand in place, and a complex product in place can
    differ in the last bit from one into a new array: a single row is
    multiplied as a one-vector call always was, and several rows into a new
    array, as each was one by one."""
    if len(rows.lengths) == 1:
        return flat * _phases(e, rows, xs)
    return np.multiply(flat, _phases(e, rows, xs))


def _states(
    s: Spectrum,
    w: WeightTable,
    labels: Sequence[StateLabel],
    tol: float,
    sums: _SumColumns | None = None,
) -> list[StateCoefficients]:
    """coefficients() of each label, bit for bit: the ``_amplitudes`` of their
    J, from the columns ``sums`` if given, times the ``_phases`` of their
    gamma, each one array for all labels."""
    amps, rows, tails = _amplitudes(s, w, [x.J for x in labels], tol, sums)
    c = _phase_rows(amps, rows, w.levels, [x.gamma for x in labels])
    return [StateCoefficients(c=v, tail_mass_bound=m, label=x, spectrum=s)
            for v, m, x in zip(rows.split(c), tails, labels)]


def _phased(vectors: Sequence[np.ndarray], e: np.ndarray, xs: Sequence[float]) -> list[np.ndarray]:
    """v_n exp(-i e_n x) for each v of vectors and its x of xs, as ``_phase_rows``."""
    rows = _Rows([len(v) for v in vectors])
    flat = vectors[0] if len(vectors) == 1 else np.concatenate(vectors)
    return rows.split(_phase_rows(flat, rows, e, xs))


def _zero_padded(*vectors) -> np.ndarray:
    """The amplitude vectors as rows of one complex array, zero-padded to the longest."""
    out = np.zeros((len(vectors), max(len(v) for v in vectors)), dtype=complex)
    for row, v in zip(out, vectors):
        row[: len(v)] = v
    return out


def overlap(a: StateCoefficients, b: StateCoefficients) -> complex:
    """Inner product <a|b>; magnitude is 1 at equal labels up to the tails."""
    _check_same_spectrum(b, a.spectrum)
    return complex(np.vdot(*_zero_padded(a.c, b.c)))


def norm_deficit(x: StateCoefficients) -> float:
    """|1 - sum |c_n|^2|; bounded by tail_mass_bound by construction."""
    return float(abs(1.0 - np.sum(np.abs(x.c) ** 2)))
