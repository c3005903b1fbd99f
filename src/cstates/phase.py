"""Unit phase factors with safe argument reduction for huge angles.

Plain float arithmetic keeps ~16 digits of the phase argument; once
|x| grows past ~1e8 the residue mod 2*pi carries fewer than 8 reliable
digits, so those arguments are reduced in extended precision first.
"""
from __future__ import annotations

import mpmath
import numpy as np

REDUCE_THRESHOLD = 1.0e8
_REDUCE_DPS = 40


def reduce_angles(x: np.ndarray) -> np.ndarray:
    """Return angles congruent to ``x`` mod 2*pi, reduced where |x| is huge."""
    out = np.array(x, dtype=float, copy=True)
    big = np.abs(out) > REDUCE_THRESHOLD
    if big.any():
        with mpmath.workdps(_REDUCE_DPS):
            tau = 2 * mpmath.pi
            flat = out.reshape(-1)
            for i in np.nonzero(big.reshape(-1))[0]:
                flat[i] = float(mpmath.fmod(mpmath.mpf(float(flat[i])), tau))
    return out


def phase_factor(x) -> np.ndarray:
    """exp(-i x) elementwise, accurate for arbitrarily large |x|."""
    arr = np.asarray(x, dtype=float)
    return np.exp(-1j * reduce_angles(arr))
