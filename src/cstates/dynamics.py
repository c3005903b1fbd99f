"""Time evolution in the energy eigenbasis and temporal-stability checks.

Evolution multiplies each amplitude by exp(-i omega e_n t), so a coherent
state at (J, gamma) becomes the coherent state at (J, gamma + omega t):
dynamics acts on the labels alone.
"""
from __future__ import annotations

import numpy as np

from .errors import LabelRangeError
from .phase import phase_factor
from .spectrum import Spectrum
from .state import LabelBatch, StateCoefficients, StateLabel, _zero_padded
from .weights import DEFAULT_TAIL_TOL, WeightTable, _check_same_spectrum
from dataclasses import dataclass


@dataclass(frozen=True, eq=False)
class EvolvedState:
    """Amplitudes after applying exp(-i H t); evolution is a pure phase per component."""

    c: np.ndarray
    t: float
    source_label: StateLabel | None = None


def evolve_label(l: StateLabel, t: float, omega: float) -> StateLabel:
    """(J, gamma) -> (J, gamma + omega t)."""
    if not np.isfinite(t):
        raise LabelRangeError(f"t must be a finite number, got {t!r}")
    return StateLabel(l.J, l.gamma + omega * t)


def evolve_coefficients(x, s: Spectrum, t: float) -> EvolvedState:
    """Apply the phases exp(-i omega e_n t) to a state or raw amplitude vector."""
    if not np.isfinite(t):
        raise LabelRangeError(f"t must be a finite number, got {t!r}")
    if isinstance(x, StateCoefficients):
        _check_same_spectrum(x, s)
        c, source = x.c, x.label
    else:
        c, source = np.asarray(x, dtype=complex), None
    e = s.e_array(len(c) - 1)
    return EvolvedState(c=c * phase_factor(s.omega * e * t), t=float(t), source_label=source)


def temporal_stability_residual(
    s: Spectrum,
    w: WeightTable,
    l: StateLabel,
    t: float,
    tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """2-norm of (evolved coherent state) - (coherent state at the evolved label).

    Evolution keeps J, so both states come from one certified series: they
    share the truncation picked for J, and the residual measures only the
    phase identity, not mismatched supports.
    """
    evolve_label(l, t, s.omega)  # a non-finite t is refused before the series
    return stability_residuals(LabelBatch(s, w, [l], tol), [t])[0]


def stability_residuals(batch: LabelBatch, ts: list[float]) -> list[float]:
    """temporal_stability_residual at each label of batch and its t of ts:
    a state and its evolved label share one amplitude row."""
    after = batch.evolved(ts)  # refuses a non-finite t before it enters a phase
    e = batch.spectrum.omega * batch.table.levels[: max(batch.lengths, default=0)]
    return [float(np.linalg.norm(d)) for d in batch.split(batch.phased(batch.c, e, ts) - after)]


def kinematic_representation_check(
    s: Spectrum,
    w: WeightTable,
    psi,
    l: StateLabel,
    t: float,
    tol: float = DEFAULT_TAIL_TOL,
) -> tuple[complex, complex]:
    """Return (<l|psi, t>, <l(-t)|psi>); the two agree up to truncation tails.

    l and l(-t) share J, so both bras come from one certified series.
    """
    evolve_label(l, -t, s.omega)  # a non-finite t is refused before the series
    return kinematic_pairs(LabelBatch(s, w, [l], tol), [np.asarray(psi, dtype=complex)], [t])[0]


def kinematic_pairs(
    batch: LabelBatch, psis: list[np.ndarray], ts: list[float]
) -> list[tuple[complex, complex]]:
    """kinematic_representation_check at each label of batch, its psi of psis
    and its t of ts: the bras at l and l(-t) share one amplitude row."""
    backs = batch.split(batch.evolved([-t for t in ts]))
    s, w = batch.spectrum, batch.table
    width = max(len(psi) for psi in psis)
    e = s.omega * (w.levels[:width] if width <= len(w.levels) else s.e_array(width - 1))
    # psi exp(-i omega e_n t) with LabelBatch.phased's rule for one row and for several
    padded, x = _zero_padded(*psis), np.multiply.outer(ts, e)
    moved = padded * phase_factor(x) if len(psis) == 1 else np.multiply(padded, phase_factor(x))
    moved = [m[: len(psi)] for m, psi in zip(moved, psis)]
    # a bra and its back share a length, as psi_t and psi do: one padding for four
    return [(complex(np.vdot(p[0], p[1])), complex(np.vdot(p[2], p[3])))
            for p in map(_zero_padded, batch.split(batch.c), moved, backs, psis)]
