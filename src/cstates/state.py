"""Coherent-state coefficient vectors in the energy eigenbasis."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LabelRangeError
from .phase import phase_factor
from .spectrum import Spectrum
from .weights import (
    DEFAULT_TAIL_TOL,
    WeightTable,
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
    """coefficients() of each label, with one certified series per distinct J.

    The truncation, the magnitudes |c_n| and the tail mass depend on J alone,
    so labels that differ only in gamma share them and differ in phases only.
    """
    _check_same_spectrum(w, s)
    if not tol > 0:
        raise ValueError("tol must be positive")

    parts: dict[float, tuple[np.ndarray, float]] = {}
    out = []
    for label in labels:
        if label.J == 0:
            c, tail_mass = np.ones(1, dtype=complex), 0.0
        else:
            if label.J not in parts:
                ps = power_sums(w, label.J, rel_tol=tol)
                k = ps.terms_used
                g = _log_terms(w, math.log(label.J), 0, k)[1]
                log_norm = ps.log_scale + math.log(ps.s0 + ps.t0)
                parts[label.J] = (np.exp(0.5 * (g - log_norm)), float(ps.t0 / (ps.s0 + ps.t0)))
            magnitudes, tail_mass = parts[label.J]
            c = magnitudes * phase_factor(w.levels[: len(magnitudes)] * label.gamma)
        out.append(StateCoefficients(c=c, tail_mass_bound=tail_mass, label=label, spectrum=s))
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
