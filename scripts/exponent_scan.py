#!/usr/bin/env python3
"""Measure how the energy variance vanishes as J approaches J* = 1.

Fits log v(J) against log(1-J) for the hydrogen-like spectrum and for
power-gap spectra e_n = 1 - (n+1)^(-p).  For p > 1 the weights rho_n stay
bounded away from zero and v(J) ~ (1-J).  At p <= 1 the series weight
J^n/rho_n develops a sharp interior peak where e_n = J and the decay
steepens toward (1-J)^(1+1/p), log-corrected at the marginal p = 1.
"""
from __future__ import annotations

import argparse

from cstates import (
    TruncationError,
    compute_weights,
    make_builtin,
    near_jstar_coefficient,
    near_jstar_exponent,
    power_gap_spectrum,
)

GAP_EXPONENTS = [2.0, 1.0, 0.5, 0.25]
WINDOW = [0.90, 0.92, 0.94, 0.96]
DEFAULT_NCAP = 1_500_000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ncap", type=int, default=DEFAULT_NCAP)
    args = parser.parse_args()

    print(f"{'spectrum':>22}  {'fitted exponent':>16}  {'v/(1-J) coefficient':>20}")
    s = make_builtin("hydrogen_like", 1.0)
    w = compute_weights(s, 40_000)
    exp_h = near_jstar_exponent(s, w)
    coeff = near_jstar_coefficient(s, w)
    print(f"{'hydrogen_like':>22}  {exp_h:>16.4f}  {coeff.value:>20.6f}")

    for p in GAP_EXPONENTS:
        s = power_gap_spectrum(p)
        w = compute_weights(s, 20_000)
        try:
            got = near_jstar_exponent(s, w, WINDOW, n_cap=args.ncap)
        except TruncationError as exc:
            print(f"{s.name:>22}  window infeasible: {exc}")
            continue
        predicted = 1.0 if p > 1.0 else 1.0 + 1.0 / p
        note = "flat-weight rate 1" if p > 1.0 else f"interior-peak rate 1+1/p = {predicted:g}"
        print(f"{s.name:>22}  {got:>16.4f}  ({note})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
