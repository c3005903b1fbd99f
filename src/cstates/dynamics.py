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
from .state import StateCoefficients, StateLabel, _phased, _states, _zero_padded
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
    return _stability(s, w, [(l, t)], tol)[0][0]


def _stability(
    s: Spectrum, w: WeightTable, samples: list[tuple[StateLabel, float]], tol: float
) -> tuple[list[float], list[StateCoefficients]]:
    """The temporal-stability residual at each (l, t) of samples, and the
    states at the l they evolved, from one batched series over their J."""
    states = _states(s, w, [x for l, t in samples for x in (l, evolve_label(l, t, s.omega))], tol)
    starts = states[::2]
    e = s.omega * w.levels[: max((len(x.c) for x in starts), default=0)]
    moved = _phased([x.c for x in starts], e, [t for _, t in samples])
    return [float(np.linalg.norm(m - x.c)) for m, x in zip(moved, states[1::2])], starts


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
    return _kinematics(s, w, [np.asarray(psi, dtype=complex)], [(l, t)], tol)[0]


def _kinematics(
    s: Spectrum, w: WeightTable, psis: list[np.ndarray],
    samples: list[tuple[StateLabel, float]], tol: float,
) -> list[tuple[complex, complex]]:
    """kinematic_representation_check for each psi of psis with its (l, t)
    of samples, from one batched series and one batched evolution."""
    states = _states(s, w, [x for l, t in samples for x in (l, evolve_label(l, -t, s.omega))], tol)
    width = max(len(psi) for psi in psis)
    e = s.omega * (w.levels[:width] if width <= len(w.levels) else s.e_array(width - 1))
    moved = _phased(psis, e, [t for _, t in samples])
    return [(complex(np.vdot(*_zero_padded(bra.c, psi_t))),
             complex(np.vdot(*_zero_padded(back.c, psi))))
            for bra, back, psi_t, psi in zip(states[::2], states[1::2], moved, psis)]
