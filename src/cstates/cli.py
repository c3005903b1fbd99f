"""Command-line front end: model selection, grid sweeps, invariant suites.

Exit codes: 0 success, 1 validation/range error, 2 numerical failure
(tail bound or quadrature), 3 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dynamics import evolve_label, stability_residuals
from .errors import (
    CertificationError,
    CrossCheckError,
    CStatesError,
    QuadratureError,
    SpectrumError,
    TruncationError,
)
from .observables import variance_curve
from .resolution import builtin_measure, load_measure, moment_check, unity_check
from .spectrum import MODELS, Spectrum, _read_object, load_spectrum, make_builtin, validate
from .state import LabelBatch, StateLabel, coefficients
from .verify import DEFAULT_SEED, run_suite
from .weights import DEFAULT_NMAX, DEFAULT_TAIL_TOL, compute_weights, normalization

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

UNIT_ROUNDOFF = 2.0**-53


def _resolve_spectrum(args) -> Spectrum:
    """The spectrum of --model or --file, after the checks of --tol, --nmax
    and the commands' --count and --ncheck."""
    if not args.tol > 0:
        raise SpectrumError(f"tolerance must be positive, got {args.tol}")
    if args.nmax < 8:
        raise SpectrumError(f"n_max must be at least 8, got {args.nmax}")
    for option, least in (("count", 1), ("ncheck", 0)):
        if getattr(args, option, least) < least:
            raise SpectrumError(f"--{option} must be at least {least}, got {vars(args)[option]}")
    if args.model and args.file:
        raise SpectrumError("give either --model or --file, not both")
    if args.model:
        return make_builtin(args.model, args.omega if args.omega is not None else 1.0)
    if args.file:
        doc = _read_object(Path(args.file).read_text(), "spectrum")
        if args.omega is not None:
            doc["omega"] = args.omega
        return load_spectrum(doc)
    raise SpectrumError("a spectrum is required: pass --model or --file")


def _spectrum_and_table(args):
    """The spectrum of --model or --file, and its table up to --nmax or its last level."""
    s = _resolve_spectrum(args)
    n_max = args.nmax
    if s.max_index is not None:
        n_max = min(n_max, s.max_index)
    return s, compute_weights(s, max(1, n_max))


def g17(x) -> str:
    return format(float(x), ".17g")


def _write(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    """Strict JSON: the NaN and Infinity tokens of json.dumps come back as null."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, allow_nan=False) + "\n"


def _emit_table(header: list[str], rows: list[list], args) -> None:
    """JSON records, or CSV rows with ',' in string cells turned into ';'."""
    if args.format == "json":
        _write(_json_text([dict(zip(header, row)) for row in rows]), args)
        return
    lines = [",".join(header)]
    for row in rows:
        cells = (g17(v) if isinstance(v, float) else str(v).replace(",", ";") for v in row)
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n", args)


def _emit_object(obj: dict, header: list[str], rows: list[list], args) -> None:
    """JSON gets the full object; CSV keeps only the tabular part."""
    if args.format == "json":
        _write(_json_text(obj), args)
    else:
        _emit_table(header, rows, args)


def cmd_spectrum(args) -> int:
    s = _resolve_spectrum(args)
    top = args.count - 1
    if s.max_index is not None:
        top = min(top, s.max_index)
    report = validate(s, max(1, top))
    levels = s.e_array(top)
    rows = [[int(n), float(levels[n]), float(s.omega * levels[n])] for n in range(top + 1)]
    obj = {
        "name": s.name,
        "omega": s.omega,
        "e_star": None if s.e_star is None else (s.e_star if math.isfinite(s.e_star) else "inf"),
        "shift_applied": s.shift_applied,
        "validation": {
            "ok": report.ok,
            "violations": [{"n": n, "reason": msg} for n, msg in report.violations],
        },
        "levels": [{"n": r[0], "e_n": r[1], "E_n": r[2]} for r in rows],
    }
    _emit_object(obj, ["n", "e_n", "E_n"], rows, args)
    if not report.ok:
        for n, msg in report.violations:
            print(f"validation violation at n={n}: {msg}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_weights(args) -> int:
    s, w = _spectrum_and_table(args)
    top = min(args.count - 1, w.n_max)
    rows = [[int(n), float(w.log_rho[n]), float(np.exp(w.log_rho[n]))] for n in range(top + 1)]
    obj = {
        "name": s.name,
        "j_star": w.j_star if math.isfinite(w.j_star) else "inf",
        "j_star_is_estimate": w.j_star_is_estimate,
        "n_max": w.n_max,
        "weights": [{"n": r[0], "log_rho": r[1], "rho": r[2]} for r in rows],
    }
    if args.J is not None:
        series = normalization(w, s, args.J, tol=args.tol)
        obj["normalization"] = {
            "J": args.J,
            "value": series.value,
            "tail_bound": series.tail_bound,
            "terms_used": series.terms_used,
        }
        print(
            f"N({g17(args.J)}) = {g17(series.value)} "
            f"(tail <= {g17(series.tail_bound)}, {series.terms_used} terms)",
            file=sys.stderr,
        )
    _emit_object(obj, ["n", "log_rho", "rho"], rows, args)
    return EXIT_OK


def cmd_state(args) -> int:
    s, w = _spectrum_and_table(args)
    state = coefficients(s, w, StateLabel(args.J, args.gamma), tol=args.tol)
    rows = [[int(n), float(state.c[n].real), float(state.c[n].imag)] for n in range(len(state.c))]
    obj = {
        "J": args.J,
        "gamma": args.gamma,
        "tail_mass_bound": state.tail_mass_bound,
        "coefficients": [[r[1], r[2]] for r in rows],
    }
    _emit_object(obj, ["n", "re", "im"], rows, args)
    return EXIT_OK


def _parse_grid(args) -> list[float]:
    if args.grid is not None and args.range is not None:
        raise SpectrumError("give either --grid or --range, not both")
    if args.grid is not None:
        text = args.grid.strip()
        if not text:
            return []
        return [float(v) for v in text.split(",")]
    if args.range is not None:
        start, stop, count = args.range
        return [float(x) for x in np.linspace(start, stop, int(count))]
    raise SpectrumError("a J grid is required: pass --grid or --range")


def cmd_variance(args) -> int:
    s, w = _spectrum_and_table(args)
    grid = _parse_grid(args)
    points = variance_curve(s, w, grid, rel_tol=args.tol)
    bound = s.model.variance_bound if s.model else None
    header = ["J", "mean", "variance"] + (["bound"] if bound else []) + ["tail_bound", "error"]
    rows = []
    for p in points:
        row = [p.J, p.mean, p.variance]
        if bound:
            row.append(math.nan if p.error else bound(p.J, s.omega))
        rows.append(row + [p.tail_bound, p.error or ""])
    _emit_table(header, rows, args)
    return EXIT_OK


def cmd_evolve(args) -> int:
    s, w = _spectrum_and_table(args)
    label = StateLabel(args.J, args.gamma)
    evolve_label(label, args.t, s.omega)  # a non-finite t is refused before the series
    batch = LabelBatch(s, w, [label], args.tol)
    (residual,), (tail_mass,) = stability_residuals(batch, [args.t]), batch.tails
    bound = 2.0 * 2.0 * math.sqrt(tail_mass) if tail_mass else 0.0
    # rounding the phase arguments e_n gamma, omega e_n t and e_n (gamma + omega t)
    # moves component n by at most UNIT_ROUNDOFF (3|gamma| + 5|omega t|) e_n radians
    e = w.levels[: len(batch.c)]
    spread = math.sqrt(float(np.sum(e * e * np.abs(batch.c) ** 2)))
    bound += UNIT_ROUNDOFF * (3.0 * abs(args.gamma) + 5.0 * abs(s.omega * args.t)) * spread
    rows = [[args.J, args.gamma, args.t, residual, bound]]
    _emit_table(["J", "gamma", "t", "residual", "bound"], rows, args)
    return EXIT_OK


def cmd_resolution(args) -> int:
    s, w = _spectrum_and_table(args)
    if args.measure:
        measure = load_measure(Path(args.measure).read_text())
    elif s.model:
        measure = builtin_measure(s.model.name)
    else:
        raise SpectrumError("custom spectra need --measure FILE for resolution checks")
    n_check = min(args.ncheck, w.n_max)
    err = moment_check(measure, w, n_check)
    diag = unity_check(measure, w, s, n_check)
    rho = np.exp(w.log_rho[: n_check + 1])
    rows = [[int(n), float(rho[n]), float(diag[n] * rho[n]), float(diag[n])] for n in range(n_check + 1)]
    _emit_table(["n", "rho_n", "moment", "unity_d_n"], rows, args)
    print(f"max relative moment error: {g17(err)}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    s, w = _spectrum_and_table(args)
    measure = builtin_measure(s.model.name) if s.model else None
    results = run_suite(s, w, measure, seed=args.seed, tol=args.tol)
    rows = [[r.name, r.status, r.detail] for r in results]
    obj = {
        "spectrum": s.name,
        "checks": [{"name": r.name, "status": r.status, "detail": r.detail} for r in results],
        "ok": all(r.status != "fail" for r in results),
    }
    _emit_object(obj, ["check", "status", "detail"], rows, args)
    failed = [r for r in results if r.status == "fail"]
    for r in failed:
        print(f"FAIL {r.name}: {r.detail}", file=sys.stderr)
    return EXIT_VERIFY if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call in a process: building
    the argparse tree costs more than parsing with it."""
    parser = argparse.ArgumentParser(
        prog="cstates",
        description="Coherent states over discrete spectra: construction and checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=tuple(MODELS), default=None)
    common.add_argument("--file", default=None, help="spectrum document (JSON)")
    common.add_argument("--omega", type=float, default=None, help="energy scale override")
    common.add_argument("--tol", type=float, default=DEFAULT_TAIL_TOL)
    common.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="print levels and validation")
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("weights", parents=[common], help="print log rho_n, rho_n, J*")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--J", type=float, default=None, help="also evaluate N(J)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("state", parents=[common], help="coefficients of |J, gamma>")
    p.add_argument("--J", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("variance", parents=[common], help="variance over a J grid")
    p.add_argument("--grid", default=None, help="comma-separated J values (may be empty)")
    p.add_argument("--range", nargs=3, type=float, metavar=("START", "STOP", "COUNT"), default=None)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("evolve", parents=[common], help="temporal-stability residual")
    p.add_argument("--J", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("resolution", parents=[common], help="moment and unity checks")
    p.add_argument("--ncheck", type=int, default=15)
    p.add_argument("--measure", default=None, help="measure document (JSON)")
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TruncationError, CertificationError, QuadratureError, CrossCheckError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CStatesError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
