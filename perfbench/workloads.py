"""Seeded workloads of the cstates benchmark: inputs, requests and oracles.

Inputs come from ``random.Random`` seeded with a string per (workload, seed,
block), so a block's requests depend only on those three values.  Each block
covers the input ranges by evenly spaced samples with a seeded offset
(systematic sampling), combined by fixed rules rather than at random, so
every block, and every seed, sends nearly the same mix of easy and hard
requests.

The oracles are the benchmark's own: closed forms, an O(k) ``math.fsum``
variance over the closed-form hydrogen weights, and a ``decimal`` reduction
of phase arguments.  None of them calls into cstates.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

STATE_NMAX = 20_000
VARIANCE_NMAX = 40_000
MODELS = ("hydrogen_like", "harmonic")
J_RANGE = {"hydrogen_like": (1e-3, 0.95), "harmonic": (1e-2, 1e2)}
T_RANGE = (0.1, 1e12)
U_RANGE = (0.5, 3.0)  # variance grid points J = 1 - 10**(-u)

DECIMAL_PREC = 60


def spaced(rng: random.Random, n: int) -> list[float]:
    """n evenly spaced samples of U(0, 1) with a seeded offset, ascending."""
    offset = rng.random()
    return [(i + offset) / n for i in range(n)]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- oracles ------------------------------------------------------------------
# Each returns None when the result is right, otherwise the reason it is not.


def _two_pi() -> Decimal:
    """2*pi to DECIMAL_PREC digits (series from the decimal module's recipes)."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_PREC + 5
        lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        return 2 * s


TWO_PI = _two_pi()


def reduce_phase(x: float) -> float:
    """x mod 2*pi for the exact value of the float64 x, rounded to float64."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_PREC
        return float(Decimal(x) % TWO_PI)


def model_levels(model: str, k: int) -> np.ndarray:
    """e_0..e_{k-1} by the same float64 operations the built-in rules use."""
    n = np.arange(k, dtype=float)
    if model == "harmonic":
        return n
    shifted = n + 1.0
    return 1.0 - 1.0 / (shifted * shifted)


def closed_form_normalization(model: str, J: float) -> float:
    if model == "harmonic":
        return math.exp(J)
    return 2.0 / (1.0 - J) + (2.0 / (J * J)) * (J + math.log1p(-J))


def check_energy_mean(J: float, mean: float, omega: float = 1.0) -> str | None:
    if abs(mean / omega - J) <= 1e-8 * max(1.0, J):
        return None
    return f"<H>/omega = {mean / omega!r} at J = {J!r}"


def check_normalization(model: str, J: float, value: float, tail_bound: float) -> str | None:
    ref = closed_form_normalization(model, J)
    if abs(value - ref) <= tail_bound + 1e-11 * ref:
        return None
    return f"N({J!r}) = {value!r}, closed form {ref!r}, tail bound {tail_bound!r}"


def check_norm_deficit(c: np.ndarray, tail_mass_bound: float) -> str | None:
    # 1e-14 covers the rounding of a sum of at most a few thousand squares
    deficit = abs(1.0 - math.fsum((np.abs(c) ** 2).tolist()))
    if deficit <= tail_mass_bound + 1e-14:
        return None
    return f"norm deficit {deficit:.3e} > tail_mass_bound {tail_mass_bound:.3e}"


def check_evolved(model: str, omega: float, t: float, c: np.ndarray, evolved: np.ndarray) -> str | None:
    """evolved_n == c_n exp(-i r_n), r_n the decimal reduction of omega*e_n*t."""
    if evolved.shape != c.shape:
        return f"evolved length {evolved.shape} != state length {c.shape}"
    x = omega * model_levels(model, len(c)) * t
    r = np.array([reduce_phase(v) for v in x.tolist()])
    ref = c * np.exp(-1j * r)
    err = np.abs(evolved - ref)
    bad = err > 1e-12 * np.abs(c) + 1e-18
    if not bad.any():
        return None
    n = int(np.argmax(bad))
    return f"amplitude {n} off by {err[n]:.3e} (|c_n| = {abs(c[n]):.3e}) at t = {t!r}"


def hydrogen_variance(J: float) -> float:
    """v(J) for omega = 1 by a centred O(k) fsum over rho_n = (n+2)/(2(n+1)).

    Terms stop where J^n < 1e-20; rho_n lies in [1/2, 1], so the dropped
    mass is below 2e-20/(1-J) of the total.  Deviations from the mean use
    the gaps 1/(n+1)^2, since e_n - mean = mean_gap - gap_n.
    """
    k = int(math.ceil(math.log(1e-20) / math.log(J))) + 2
    n = np.arange(k, dtype=float)
    log_p = n * math.log(J) - np.log((n + 2.0) / (2.0 * (n + 1.0)))
    p = np.exp(log_p - log_p.max())
    gap = 1.0 / ((n + 1.0) * (n + 1.0))
    s0 = math.fsum(p.tolist())
    mean_gap = math.fsum((p * gap).tolist()) / s0
    return math.fsum((p * (gap - mean_gap) ** 2).tolist()) / s0


def check_variance_output(grid: list[float], rc: int, stdout: str) -> str | None:
    """`cstates variance` exit 0, one clean CSV row per J, each v(J) right."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.strip().splitlines()
    header = lines[0].split(",") if lines else []
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(grid) or "variance" not in header or "error" not in header:
        return f"expected {len(grid)} rows under a variance header, got {lines[:2]}"
    col = {name: i for i, name in enumerate(header)}
    for J, row in zip(grid, rows):
        if row[col["error"]]:
            return f"error at J = {J!r}: {row[col['error']]}"
        if float(row[col["J"]]) != J:
            return f"row J {row[col['J']]} != requested {J!r}"
        got = float(row[col["variance"]])
        ref = hydrogen_variance(J)
        if abs(got - ref) > max(1e-8 * abs(ref), float(row[col["tail_bound"]])):
            return f"v({J!r}) = {got!r}, reference {ref!r}"
    return None


def check_verify_output(rc: int, stdout: str) -> str | None:
    """`cstates verify` exit 0, at least one pass row and no fail row."""
    if rc != 0:
        return f"exit code {rc}"
    statuses = [line.split(",")[1] for line in stdout.strip().splitlines()[1:]]
    if "fail" in statuses or "pass" not in statuses:
        return f"statuses {statuses}"
    return None


# -- workloads ----------------------------------------------------------------


class Workload:
    """A seeded request sequence cut into blocks of identical mix.

    ``setup`` imports cstates and builds what every request needs; ``send``
    is the timed request; ``check`` is the untimed oracle.  The first
    ``measure_blocks`` blocks are the requests of an end-to-end run, the first
    ``trace_blocks`` those of a traced run.
    """

    name = ""
    measure_blocks = 1
    trace_blocks = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed, *parts)))

    def setup(self) -> None:
        raise NotImplementedError

    def block(self, b: int) -> list:
        raise NotImplementedError

    def send(self, req):
        raise NotImplementedError

    def check(self, req, result) -> str | None:
        raise NotImplementedError


class StateRequests(Workload):
    """Library calls on warm 20,000-entry tables for both built-in models."""

    name = "state-requests"
    kinds = ("coefficients", "energy_mean", "normalization", "evolve")
    per_group = 16  # requests per (model, kind) in one block
    stride = 7  # coprime with per_group: J position i takes |t| position 7i mod 16
    measure_blocks = 3
    trace_blocks = 24

    def setup(self) -> None:
        import cstates

        self.cs = cstates
        self.spectra = {m: cstates.make_builtin(m, 1.0) for m in MODELS}
        self.tables = {m: cstates.compute_weights(s, STATE_NMAX) for m, s in self.spectra.items()}

    def block(self, b: int) -> list[tuple]:
        """Each (model, kind) group pairs its evenly spaced J and |t| values by
        a fixed stride, so the mix of long states and huge times, which sets
        the latency tail, is alike for every seed."""
        rng = self.rng(b)
        n = self.per_group
        reqs = []
        for model in MODELS:
            lo, hi = J_RANGE[model]
            for kind in self.kinds:
                js, ts = spaced(rng, n), spaced(rng, n)
                for i in range(n):
                    J = log_uniform(js[i], lo, hi)
                    gamma = rng.uniform(-math.pi, math.pi)
                    t = rng.choice((-1.0, 1.0)) * log_uniform(ts[(self.stride * i) % n], *T_RANGE)
                    reqs.append((model, kind, J, gamma, t))
        rng.shuffle(reqs)
        return reqs

    def send(self, req):
        model, kind, J, gamma, t = req
        cs = self.cs
        s, w = self.spectra[model], self.tables[model]
        if kind == "coefficients":
            return cs.coefficients(s, w, cs.StateLabel(J, gamma))
        if kind == "energy_mean":
            return cs.energy_mean(s, w, J)
        if kind == "normalization":
            return cs.normalization(w, s, J)
        state = cs.coefficients(s, w, cs.StateLabel(J, gamma))
        return state, cs.evolve_coefficients(state, s, t)

    def check(self, req, result) -> str | None:
        model, kind, J, gamma, t = req
        if kind == "coefficients":
            return check_norm_deficit(result.c, result.tail_mass_bound)
        if kind == "energy_mean":
            return check_energy_mean(J, result)
        if kind == "normalization":
            return check_normalization(model, J, result.value, result.tail_bound)
        state, evolved = result
        return check_norm_deficit(state.c, state.tail_mass_bound) or check_evolved(
            model, 1.0, t, state.c, evolved.c
        )


class VarianceNearJstar(Workload):
    """`cstates variance` commands, 5 points each close to J* = 1."""

    name = "variance-near-jstar"
    commands = 40  # per block
    points = 5  # per command
    measure_blocks = 1
    trace_blocks = 2

    def setup(self) -> None:
        from cstates import cli

        self.cli = cli

    def block(self, b: int) -> list[tuple]:
        """Command i takes one J from each of `points` equal strata of u.

        Within a stratum the J values are evenly spaced with a seeded offset;
        command i takes position (i + j * commands/points) of stratum j, so
        every command mixes low and high positions and the commands' costs
        are alike for every seed.
        """
        rng = self.rng(b)
        lo, hi = U_RANGE
        width = (hi - lo) / self.points
        shift = self.commands // self.points
        columns = [[1.0 - 10.0 ** -(lo + (j + u) * width) for u in spaced(rng, self.commands)]
                   for j in range(self.points)]
        reqs = []
        for i in range(self.commands):
            grid = [columns[j][(i + j * shift) % self.commands] for j in range(self.points)]
            argv = ["variance", "--model", "hydrogen_like", "--nmax", str(VARIANCE_NMAX),
                    "--grid", ",".join(repr(J) for J in grid)]
            reqs.append((grid, argv))
        rng.shuffle(reqs)
        return reqs

    def send(self, req):
        return run_cli(self.cli, req[1])

    def check(self, req, result) -> str | None:
        rc, out, _ = result
        return check_variance_output(req[0], rc, out)


class VerifySuite(Workload):
    """`cstates verify` cycling hydrogen_like, harmonic and explicit-level files."""

    name = "verify-suite"
    documents = 3  # one per block of a traced run
    levels = (40, 400)
    measure_blocks = 1
    trace_blocks = 3

    def spectrum_document(self, i: int) -> dict:
        """Explicit levels with random count, gaps, offset and omega; e_star declared or not."""
        rng = self.rng("document", i)
        energies = [rng.uniform(-5.0, 5.0)]
        for _ in range(rng.randint(*self.levels) - 1):
            energies.append(energies[-1] + rng.uniform(0.5, 1.5))
        omega = rng.uniform(0.5, 2.0)
        e_star = None
        if rng.random() < 0.5:
            e_star = (energies[-1] - energies[0]) / omega + rng.uniform(0.5, 5.0)
        return {"name": f"explicit-{i}", "omega": omega, "kind": "explicit",
                "levels": energies, "e_star": e_star}

    def setup(self) -> None:
        from cstates import cli

        self.cli = cli
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i in range(self.documents):
            path = self.out_dir / f"{self.name}-seed{self.seed}-doc{i}.json"
            path.write_text(json.dumps(self.spectrum_document(i)))
            self.paths.append(str(path))

    def block(self, b: int) -> list[list[str]]:
        rng = self.rng(b)
        sources = (["--model", "hydrogen_like"], ["--model", "harmonic"],
                   ["--file", self.paths[b % self.documents]])
        return [["verify", *src, "--seed", str(rng.randrange(1, 2**31))] for src in sources]

    def send(self, req):
        return run_cli(self.cli, req)

    def check(self, req, result) -> str | None:
        rc, out, _ = result
        return check_verify_output(rc, out)


WORKLOADS = {cls.name: cls for cls in (StateRequests, VarianceNearJstar, VerifySuite)}
