"""Coherent-state coefficient vectors in the energy eigenbasis."""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import LabelRangeError
from .phase import phase_factor
from .spectrum import Spectrum
from .weights import (
    _BLOCK,
    DEFAULT_TAIL_TOL,
    WeightTable,
    _batch_sums,
    _check_same_spectrum,
    _log_terms,
    power_sums,
)


@dataclass(frozen=True)
class StateLabel:
    """Action-angle label (J, gamma); gamma is unbounded and never wrapped, but finite."""

    J: float
    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.gamma):
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
    """Amplitudes of |J, gamma> truncated so the missing mass is at most tol."""
    return _states(s, w, [label], tol)[0]


def _states(
    s: Spectrum,
    w: WeightTable,
    labels: Sequence[StateLabel],
    tol: float,
) -> list[StateCoefficients]:
    """coefficients() of each label, bit for bit, from the series of their
    distinct nonzero J (``weights._batch_sums``), which raises the first
    refused label's error; a single label calls the kernel without the
    batch's grouping.  Truncation, |c_n| and tail mass depend on J alone."""
    _check_same_spectrum(w, s)
    if not tol > 0:
        raise ValueError("tol must be positive")
    nonzero = [label for label in labels if label.J != 0]
    Js = [label.J for label in nonzero]
    sums = _batch_sums(w, Js, tol, 1) if len(Js) > 1 else {J: power_sums(w, J, rel_tol=tol) for J in Js}
    parts: dict[float, tuple[np.ndarray, float]] = {}
    for J, ps in sums.items():
        g = _log_terms(w, math.log(J), 0, ps.terms_used)[1]
        log_norm = ps.log_scale + math.log(ps.s0 + ps.t0)
        parts[J] = (np.exp(0.5 * (g - log_norm)), float(ps.t0 / (ps.s0 + ps.t0)))
    vectors = iter(_phased([parts[x.J][0] for x in nonzero], w.levels, [x.gamma for x in nonzero]))
    out = []
    for label in labels:
        if label.J == 0:
            c, tail_mass = np.ones(1, dtype=complex), 0.0
        else:
            c, tail_mass = next(vectors), parts[label.J][1]
        out.append(StateCoefficients(c=c, tail_mass_bound=tail_mass, label=label, spectrum=s))
    return out


def _phased(vectors: Sequence[np.ndarray], e: np.ndarray, xs: Sequence[float]) -> list[np.ndarray]:
    """v_n exp(-i e_n x) for each v of vectors and its x of xs (a state: e the
    levels, x = gamma; an evolution: e = omega levels, x = t), one
    ``phase_factor`` call per run of at most _BLOCK / 2 amplitudes."""
    if len(vectors) == 1:  # no run to lay out
        return [vectors[0] * phase_factor(e[: len(vectors[0])] * xs[0])]
    out = []
    step = max(1, _BLOCK // 2 // max((len(v) for v in vectors), default=1))
    for a in range(0, len(vectors), step):
        args = [e[: len(v)] * x for v, x in zip(vectors[a : a + step], xs[a : a + step])]
        phases = phase_factor(np.concatenate(args) if len(args) > 1 else args[0])
        end = 0
        for v in vectors[a : a + step]:
            out.append(v * phases[end : end + len(v)])
            end += len(v)
    return out


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
