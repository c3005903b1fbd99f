"""Unit phase factors with safe argument reduction for huge angles.

Plain float arithmetic keeps ~16 digits of the phase argument; once
|x| grows past ~1e8 the residue mod 2*pi carries fewer than 8 reliable
digits, so those arguments are reduced in extended precision first.
Only such arguments need mpmath, so it is imported on first use.
"""
from __future__ import annotations

import math

import numpy as np

REDUCE_THRESHOLD = 1.0e8
# working digits while max |x| < 1e20; each further decade adds one, so the
# reduced angles keep about 20 correct decimals after the point
_REDUCE_DPS = 40


def reduce_angles(x: np.ndarray) -> np.ndarray:
    """Return angles congruent to ``x`` mod 2*pi, reduced where |x| is huge.

    Angles with |x| > REDUCE_THRESHOLD are reduced by mpmath.fmod at
    _REDUCE_DPS digits plus one per decade of max |x| beyond 1e20, so the
    results are accurate up to the largest float; while max |x| < 1e20 the
    precision is the fixed _REDUCE_DPS.
    """
    out = np.array(x, dtype=float, copy=True)
    big = np.abs(out) > REDUCE_THRESHOLD
    if big.any():
        import mpmath

        top = float(np.abs(out[big & np.isfinite(out)]).max(initial=1.0))
        extra = max(0, int(math.log10(top)) - 20)
        with mpmath.workdps(_REDUCE_DPS + extra):
            tau = 2 * mpmath.pi
            flat = out.reshape(-1)
            for i in np.nonzero(big.reshape(-1))[0]:
                flat[i] = float(mpmath.fmod(mpmath.mpf(float(flat[i])), tau))
    return out


def phase_factor(x) -> np.ndarray:
    """exp(-i x) elementwise, accurate for every finite x."""
    arr = np.asarray(x, dtype=float)
    return np.exp(-1j * reduce_angles(arr))
