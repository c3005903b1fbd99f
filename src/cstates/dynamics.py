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
from .state import StateCoefficients, StateLabel, _amplitudes, _phase_rows, _phased, _zero_padded
from .weights import DEFAULT_TAIL_TOL, WeightTable, _check_same_spectrum, _SumColumns
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


def _evolved_gammas(labels: list[StateLabel], ts: list[float], omega: float) -> list[float]:
    """gamma + omega t for each label and its t of ts, as ``evolve_label``
    forms them; where one is not finite, ``evolve_label`` raises its error."""
    out = np.add([l.gamma for l in labels], np.multiply(omega, ts))
    if not np.isfinite(out).all():
        for l, t in zip(labels, ts):
            evolve_label(l, t, omega)
    return out.tolist()


def _stability(
    s: Spectrum, w: WeightTable, samples: list[tuple[StateLabel, float]], tol: float,
    sums: _SumColumns | None = None,
) -> tuple[list[float], np.ndarray, list[float]]:
    """The temporal-stability residual at each (l, t) of samples, and the
    amplitudes of the states at the l they evolved, end to end (for one
    sample, its state's c), with their tail masses; the series come from the
    columns ``sums`` if given.  Evolution keeps J, so each start and its
    evolved label share one amplitude row; the two differ in their phases."""
    labels, ts = [l for l, _ in samples], [t for _, t in samples]
    after = _evolved_gammas(labels, ts, s.omega)
    amps, rows, tails = _amplitudes(s, w, [l.J for l in labels], tol, sums)
    c = _phase_rows(amps, rows, w.levels, [l.gamma for l in labels])
    moved = _phase_rows(c, rows, s.omega * w.levels[: max(rows.lengths, default=0)], ts)
    moved -= _phase_rows(amps, rows, w.levels, after)
    return [float(np.linalg.norm(d)) for d in rows.split(moved)], c, tails


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
    samples: list[tuple[StateLabel, float]], tol: float, sums: _SumColumns | None = None,
) -> list[tuple[complex, complex]]:
    """kinematic_representation_check for each psi of psis with its (l, t)
    of samples, the series from the columns ``sums`` if given: the bras at l
    and l(-t) share one amplitude row."""
    labels, ts = [l for l, _ in samples], [t for _, t in samples]
    back = _evolved_gammas(labels, [-t for t in ts], s.omega)
    amps, rows, _ = _amplitudes(s, w, [l.J for l in labels], tol, sums)
    bras = rows.split(_phase_rows(amps, rows, w.levels, [l.gamma for l in labels]))
    backs = rows.split(_phase_rows(amps, rows, w.levels, back))
    width = max(len(psi) for psi in psis)
    e = s.omega * (w.levels[:width] if width <= len(w.levels) else s.e_array(width - 1))
    # a bra and its back share a length, as psi_t and psi do: one padding for four
    return [(complex(np.vdot(p[0], p[1])), complex(np.vdot(p[2], p[3])))
            for p in map(_zero_padded, bras, _phased(psis, e, ts), backs, psis)]
