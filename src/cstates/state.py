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
    N(J))/2) and the tail mass, as ``LabelBatch``, the one many-label path,
    forms them; one label is cheaper here than through the batch.
    """
    _check_same_spectrum(w, s)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if label.J == 0:
        return StateCoefficients(c=np.ones(1, dtype=complex), tail_mass_bound=0.0, label=label, spectrum=s)
    ps = power_sums(w, label.J, rel_tol=tol)
    k = ps.terms_used
    log_rho, levels = w._read(k)
    _refuse_overflow(float(levels[k - 1]), label.gamma, "gamma")
    g = np.arange(k, dtype=float) * math.log(label.J) - log_rho[:k]
    amps = np.exp(0.5 * (g - (ps.log_scale + math.log(ps.s0 + ps.t0))))
    return StateCoefficients(c=amps * phase_factor(levels[:k] * label.gamma),
                             tail_mass_bound=float(ps.t0 / (ps.s0 + ps.t0)), label=label, spectrum=s)


class LabelBatch:
    """The states |J, gamma> of many labels at one tolerance, each as
    coefficients() forms it, bit for bit, as rows laid end to end in one
    array: row i holds its entries n < lengths[i] at [bounds[i], bounds[i+1]),
    ``n`` is each entry's n and ``levels`` the table's, filled past every row.  Truncation, |c_n| (``amplitudes``) and tail
    mass (``tails``) depend on J alone, so a label and its evolved labels
    (J, gamma + omega t) share one amplitude row; ``c`` holds the states.

    The series of the nonzero J are the columns ``sums`` holds, or else those
    of one ``weights._batch_sums`` call, which raises the first refused J's
    error; a single J calls the kernel without the batch's grouping.  J = 0
    is the one entry 1.  log J and log(s0 + t0) are taken by ``math.log`` per
    J, as for one label, and the rest elementwise."""

    __slots__ = ("spectrum", "table", "labels", "lengths", "bounds", "n", "levels", "amplitudes",
                 "tails", "c")

    def __init__(self, s: Spectrum, w: WeightTable, labels: Sequence[StateLabel], tol: float,
                 sums: _SumColumns | None = None):
        _check_same_spectrum(w, s)
        if not tol > 0:
            raise ValueError("tol must be positive")
        at = {J: k for k, J in enumerate(dict.fromkeys(x.J for x in labels if x.J != 0))}
        if sums is None:
            sums = _batch_sums(w, at, tol, 1)
        # terms, log J, log N(J) and tail mass per distinct nonzero J, then J = 0's
        i = [sums.at[J] for J in at]
        norm = sums.s[0, i] + sums.t[0, i]
        terms = np.append(sums.terms_used[i], 1)
        log_j = np.array([math.log(J) for J in at] + [0.0])
        log_norm = np.append(sums.log_scale[i] + np.array([math.log(x) for x in norm.tolist()]), 0.0)
        tails = np.append(sums.t[0, i] / norm, 0.0)
        pick = [at[x.J] if x.J != 0 else len(at) for x in labels]
        self.spectrum, self.table, self.labels = s, w, labels
        self.lengths, self.tails = terms[pick].tolist(), tails[pick].tolist()
        bounds = np.zeros(len(labels) + 1, dtype=int)
        np.cumsum(self.lengths, out=bounds[1:])
        self.bounds = bounds.tolist()
        self.n = np.arange(bounds[-1]) - np.repeat(bounds[:-1], self.lengths)
        log_rho, self.levels = w._read(max(self.lengths, default=0))
        g = self.n * np.repeat(log_j[pick], self.lengths) - log_rho[self.n]
        self.amplitudes = np.exp(0.5 * (g - np.repeat(log_norm[pick], self.lengths)))
        self.c = self.phased(self.amplitudes, self.levels, [x.gamma for x in labels], "gamma")

    def phased(self, flat: np.ndarray, e: np.ndarray, xs: Sequence[float], name="t") -> np.ndarray:
        """flat, laid out as the rows, times exp(-i e_n x) with each row's x of
        xs, in one ``phase_factor`` call; an x whose e_n x overflows is refused
        as name.  numpy computes a product with a large temporary operand in
        place, and a complex product in place can differ in the last bit from
        one into a new array: a single row is multiplied as a one-vector call
        always was, and several rows into a new array, as each was one by one."""
        for top, x in zip(e[np.array(self.lengths, dtype=int) - 1].tolist(), xs):
            _refuse_overflow(top, x, name)
        x = e[self.n] * np.repeat(xs, self.lengths)
        return flat * phase_factor(x) if len(self.lengths) == 1 else np.multiply(flat, phase_factor(x))

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The rows of flat, as views."""
        return [flat[a:b] for a, b in zip(self.bounds, self.bounds[1:])]

    def states(self) -> list[StateCoefficients]:
        """coefficients() of each label, bit for bit."""
        return [StateCoefficients(c=v, tail_mass_bound=m, label=x, spectrum=self.spectrum)
                for v, m, x in zip(self.split(self.c), self.tails, self.labels)]

    def evolved(self, ts: Sequence[float]) -> np.ndarray:
        """The states at the evolved labels (J, gamma + omega t), t of ts."""
        gammas = _evolved_gammas(self.labels, ts, self.spectrum.omega)
        return self.phased(self.amplitudes, self.levels, gammas, "gamma + omega t")


def _evolved_gammas(labels: Sequence[StateLabel], ts: Sequence[float], omega: float) -> list[float]:
    """gamma + omega t for each label and its t of ts, as ``evolve_label``
    forms them; where one is not finite, ``evolve_label`` raises its error."""
    out = np.add([l.gamma for l in labels], np.multiply(omega, ts))
    if not np.isfinite(out).all():
        from .dynamics import evolve_label  # dynamics imports this module

        for l, t in zip(labels, ts):
            evolve_label(l, t, omega)
    return out.tolist()


def _refuse_overflow(top: float, x: float, name: str) -> None:
    """Refuse x where the phase argument top * x, formed as numpy forms it, is past the
    float range; levels rise from e_0 = 0, so top, the last level used, decides."""
    if not math.isfinite(top * x):
        raise LabelRangeError(f"{name} = {x!r} puts the phase argument past the float range")


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
