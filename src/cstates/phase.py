"""Unit phase factors with exact argument reduction for huge angles.

Plain float arithmetic keeps ~16 digits of the phase argument; once
|x| grows past ~1e8 the residue mod 2*pi carries fewer than 8 reliable
digits, so those arguments are reduced exactly in integer arithmetic.
"""
from __future__ import annotations

import math

import numpy as np

REDUCE_THRESHOLD = 1.0e8
# _SCALE = 2^K with K = 1200 >= 1074 makes x _SCALE an integer for every finite
# float x.  Its floored remainder mod floor(2 pi 2^K) errs by < |x| 2^-K/(2 pi)
# < 2^(1022-K) = 2^-178 rad before the one rounding back to a float, far below
# the 4.7e-19 rad that the nearest finite double lies from a multiple of pi/2.
_SCALE = 1 << 1200
_TWO_PI = int(  # floor(2 pi 2^1200): the first 301 hex digits of 2 pi
    "6487ed5110b4611a62633145c06e0e6894812704453"
    "3e63a0105df531d89cd9128a5043cc71a026ef7ca8c"
    "d9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f"
    "242dabb312f3f637a262174d31bf6b585ffae5b7a03"
    "5bf6f71c35fdad44cfd2d74f9208be258ff32494332"
    "8f6722d9ee1003e5c50b1df82cc6d241b0e2ae9cd34"
    "8b1fd47e9267afc1b2ae91ee51d6cb0e3179ab1042a",
    16,
)


def _residue(v: float) -> float:
    """v mod 2*pi in [0, 2*pi), rounded once; NaN for +-inf."""
    if math.isinf(v):
        return math.nan
    num, den = v.as_integer_ratio()  # den = 2^d with d <= 1074
    return (num << (1201 - den.bit_length())) % _TWO_PI / _SCALE  # num 2^1200 / 2^d


def reduce_angles(x: np.ndarray) -> np.ndarray:
    """Return angles congruent to ``x`` mod 2*pi, reduced where |x| is huge.

    Each angle with |x| > REDUCE_THRESHOLD becomes its residue in [0, 2*pi),
    rounded once to the nearest float; +-inf gives NaN.
    """
    out = np.array(x, dtype=float, copy=True)
    flat = out.reshape(-1)
    huge = np.flatnonzero(np.abs(flat) > REDUCE_THRESHOLD)
    flat[huge] = [_residue(v) for v in flat[huge].tolist()]
    return out


def phase_factor(x) -> np.ndarray:
    """exp(-i x) elementwise, accurate for every finite x."""
    arr = np.asarray(x, dtype=float)
    if (np.abs(arr) > REDUCE_THRESHOLD).any():
        arr = reduce_angles(arr)
    return np.exp(-1j * arr)
