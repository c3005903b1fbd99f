"""Resolution-of-unity checks: moment measures and gamma-averaged projectors.

A weight measure rho(u) du on [0, U) (plus optional point atoms) resolves
the identity when its power moments reproduce rho_n with U = J*.  Every
measure comes from a measure document read by ``load_measure``; a built-in
model's record holds its document (``Model.measure``) and U = e_star.  They
are exp(-u) du on [0, inf) for the harmonic rule, and du/2 on [0, 1) plus an
atom of mass 1/2 at u = 1 for the hydrogen-like rule — the atom is forced by
rho_n -> 1/2 > 0 while the moments of any integrable density on [0, 1)
vanish as n grows.  Moments use Gauss-Laguerre nodes (64 or 128) when U is
infinite and Gauss-Legendre nodes (64 to 1,024) on [0, U) otherwise.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import LabelRangeError, QuadratureError, SpectrumError
from .spectrum import Spectrum, _builtin_model, _number, _read_object
from .weights import WeightTable, _check_same_spectrum, _log_terms, check_j_range, normalization

_QUAD_START = 64
_QUAD_DOUBLINGS = 4
# numpy's Gauss-Laguerre weights break down past 128 nodes (at 256, 161 are
# NaN and 95 zero), so a rule on [0, inf) is doubled up to there only
_LAGUERRE_NODES = 128
_QUAD_RTOL = 1e-12
_TINY = 1e-300


@dataclass(frozen=True, eq=False)
class Measure:
    """Weight measure on [0, U): a density (and its log, when known) plus a
    finite list of point atoms; U alone selects the quadrature rule."""

    name: str
    U: float
    density: Callable[[np.ndarray], np.ndarray]
    atoms: tuple[tuple[float, float], ...] = ()
    log_density: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.U > 0:
            raise SpectrumError(f"measure support bound U must be positive, got {self.U!r}")
        for u, wgt in self.atoms:
            if not wgt > 0:
                raise SpectrumError(f"atom mass must be positive, got {wgt!r}")
            if not 0 <= u <= self.U:
                raise SpectrumError(f"atom location {u!r} outside [0, {self.U}]")


@dataclass(frozen=True, eq=False)
class ProjectorMatrix:
    """Gamma-average of |J,gamma><J,gamma| on the truncated basis."""

    entries: np.ndarray
    J: float
    Gamma: float


def builtin_measure(model: str) -> Measure:
    """The measure document of a record in MODELS, read on [0, e_star)."""
    record = _builtin_model(model)
    doc = _read_object(record.measure, "measure")
    return load_measure({**doc, "name": record.name, "U": record.e_star})


def load_measure(document: str | Mapping) -> Measure:
    """Parse a measure document.

    Schema: {"U": float|"inf", "density": {"kind": "exponential"|"constant"|
    "table", ...}, "atoms": [{"u": float, "w": float}]}; density parameters,
    table entries and atoms are finite numbers, table u strictly increases,
    and a table needs a finite U.
    """
    doc = _read_object(document, "measure")
    U = _number(doc.get("U"), "U")
    if not U > 0:
        raise SpectrumError(f"U must be positive, got {U!r}")

    dens = doc.get("density") or {}
    if not isinstance(dens, Mapping):
        raise SpectrumError(f"density must be a JSON object, got {dens!r}")
    kind = dens.get("kind")
    log_density = None
    if kind == "exponential":
        rate = _number(dens.get("rate", 1.0), "rate")
        amplitude = _number(dens.get("amplitude", 1.0), "amplitude")
        if not (0 < rate < math.inf and 0 < amplitude < math.inf):
            raise SpectrumError("exponential density needs finite positive rate and amplitude")

        def density(u, _r=rate, _a=amplitude):
            return _a * np.exp(-_r * np.asarray(u, dtype=float))

        def log_density(u, _r=rate, _a=amplitude):
            return math.log(_a) - _r * np.asarray(u, dtype=float)

    elif kind == "constant":
        value = _number(dens.get("value", 0.0), "value")
        if not 0 <= value < math.inf:
            raise SpectrumError("constant density must be finite and nonnegative")
        if math.isinf(U) and value > 0:
            raise SpectrumError("constant density on an infinite interval is not integrable")

        def density(u, _v=value):
            return np.full_like(np.asarray(u, dtype=float), _v)

    elif kind == "table":
        if math.isinf(U):
            raise SpectrumError("table density needs a finite U")
        us, vals = (dens.get(key, ()) for key in ("u", "rho"))
        if not (isinstance(us, (list, tuple)) and isinstance(vals, (list, tuple))):
            raise SpectrumError("table density needs arrays 'u' and 'rho'")
        us = np.array([_number(v, "table u") for v in us])
        vals = np.array([_number(v, "table rho") for v in vals])
        if us.size < 2 or us.size != vals.size:
            raise SpectrumError("table density needs matching 'u' and 'rho' arrays (>= 2 points)")
        if not (np.all(np.isfinite(us)) and np.all(np.isfinite(vals)) and np.all(vals >= 0)):
            raise SpectrumError("table density needs finite 'u' and finite nonnegative 'rho'")
        if not np.all(np.diff(us) > 0):
            raise SpectrumError("table density needs strictly increasing 'u'")

        def density(u, _us=us, _vals=vals):
            return np.interp(np.asarray(u, dtype=float), _us, _vals, left=0.0, right=0.0)

    else:
        raise SpectrumError(f"unknown density kind {kind!r}")

    raw_atoms = doc.get("atoms") or ()
    if not (isinstance(raw_atoms, (list, tuple)) and all(isinstance(a, Mapping) for a in raw_atoms)):
        raise SpectrumError(f"atoms must be an array of objects, got {raw_atoms!r}")
    atoms = tuple((_number(a.get("u"), "atom u"), _number(a.get("w"), "atom w")) for a in raw_atoms)
    if not all(math.isfinite(x) for atom in atoms for x in atom):
        raise SpectrumError(f"atom locations and masses must be finite numbers, got {atoms!r}")

    return Measure(
        name=str(doc.get("name", "custom")),
        U=U,
        density=density,
        atoms=atoms,
        log_density=log_density,
    )


@functools.cache
def _gauss_rule(kind: str, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the "laguerre" or "legendre" Gauss rule, computed
    once per process and read-only, since every caller shares them."""
    poly = np.polynomial
    x, wq = (poly.laguerre.laggauss if kind == "laguerre" else poly.legendre.leggauss)(nodes)
    x.flags.writeable = wq.flags.writeable = False
    return x, wq


def _quad_once(m: Measure, ns: np.ndarray, nodes: int) -> np.ndarray:
    """Moments int u^n rho(u) du at a fixed node count (atoms excluded)."""
    if math.isinf(m.U):
        x, wq = _gauss_rule("laguerre", nodes)
        if m.log_density is not None:
            ld = np.asarray(m.log_density(x), dtype=float)
        else:
            dens = np.asarray(m.density(x), dtype=float)
            ld = np.where(dens > 0, np.log(np.maximum(dens, _TINY)), -math.inf)
        ok = wq > 0
        lw = np.full(nodes, -math.inf)
        lw[ok] = np.log(wq[ok])
        base = lw + x + ld  # Laguerre weights absorb e^{-x}; restore it in logs
        lx = np.log(x)
        with np.errstate(invalid="ignore"):
            grid = base[None, :] + ns[:, None] * lx[None, :]
        return np.exp(grid).sum(axis=1)

    x, wq = _gauss_rule("legendre", nodes)
    u = 0.5 * m.U * (x + 1.0)
    wgt = 0.5 * m.U * wq * np.asarray(m.density(u), dtype=float)
    powers = np.power(u[None, :], ns[:, None])
    return (powers * wgt[None, :]).sum(axis=1)


def _measure_moments(m: Measure, n_check: int) -> np.ndarray:
    """Moments for n = 0..n_check via node-doubling quadrature, atoms added exactly."""
    ns = np.arange(n_check + 1)
    laguerre = math.isinf(m.U)
    top = _LAGUERRE_NODES if laguerre else _QUAD_START << _QUAD_DOUBLINGS
    nodes = _QUAD_START
    prev = _quad_once(m, ns, nodes)
    while nodes < top:
        nodes *= 2
        cur = _quad_once(m, ns, nodes)
        scale = np.maximum(np.maximum(np.abs(cur), np.abs(prev)), _TINY)
        if np.all(np.abs(cur - prev) <= _QUAD_RTOL * scale):
            moments = cur
            break
        prev = cur
    else:
        if laguerre:
            raise QuadratureError(
                f"moment quadrature did not converge at {nodes} nodes, "
                "the limit of numpy's Gauss-Laguerre rule"
            )
        raise QuadratureError(
            f"moment quadrature did not converge after {_QUAD_DOUBLINGS} node doublings "
            f"({nodes} nodes)"
        )
    for u, wgt in m.atoms:
        moments = moments + wgt * np.power(float(u), ns.astype(float))
    return moments


def _moment_ratios(m: Measure, w: WeightTable, n_check: int) -> np.ndarray:
    """The measure's moments over rho_n for n <= n_check; each equals 1."""
    return _measure_moments(m, n_check) / np.exp(w._read(n_check + 1)[0][: n_check + 1])


def moment_check(m: Measure, w: WeightTable, n_check: int) -> float:
    """Max relative error of the measure's moments against rho_n for n <= n_check."""
    if n_check > w.n_max:
        raise ValueError(f"n_check={n_check} exceeds the weight table range {w.n_max}")
    return float(np.abs(_moment_ratios(m, w, n_check) - 1.0).max())


def unity_check(m: Measure, w: WeightTable, s: Spectrum, n_check: int) -> np.ndarray:
    """Diagonal values d_n = (1/rho_n) int_0^U J^n rho(J) dJ; each equals 1.

    The normalization N(J) cancels against the 1/N(J) of the gamma-averaged
    projector, so the full resolution check reduces to these moment ratios.
    """
    _check_same_spectrum(w, s)
    if n_check > w.n_max:
        raise ValueError(f"n_check={n_check} exceeds the weight table range {w.n_max}")
    if not math.isclose(m.U, w.j_star, rel_tol=1e-9, abs_tol=1e-9):
        raise LabelRangeError(
            f"measure support U={m.U} must equal the convergence radius J*={w.j_star}"
        )
    return _moment_ratios(m, w, n_check)


def gamma_averaged_projector(
    s: Spectrum,
    w: WeightTable,
    J: float,
    Gamma: float,
    n_max: int,
) -> ProjectorMatrix:
    """Average of |J,gamma><J,gamma| over gamma in [-Gamma, Gamma], truncated.

    Entry (n, m) is N(J)^{-1} J^{(n+m)/2}/sqrt(rho_n rho_m) * S with
    S = sin(Gamma(e_n - e_m))/(Gamma(e_n - e_m)), S = 1 on the diagonal;
    the Gamma = inf limit is exactly diagonal.  Computed analytically, no
    oscillatory quadrature.
    """
    _check_same_spectrum(w, s)
    check_j_range(w, J)
    if not Gamma > 0:
        raise LabelRangeError(f"Gamma must be positive (inf allowed), got {Gamma!r}")
    if n_max > w.n_max:
        raise ValueError(f"n_max={n_max} exceeds the weight table range {w.n_max}")

    size = n_max + 1
    norm = normalization(w, s, J)
    total = norm.value + norm.tail_bound
    if J == 0:
        amps = np.zeros(size)
        amps[0] = 1.0
    else:
        g = _log_terms(w, math.log(J), 0, size)[1]
        amps = np.exp(0.5 * g)
    ee = w._read(size)[1][:size]
    if math.isinf(Gamma):
        sinc = np.eye(size)
    else:
        sinc = np.sinc((Gamma / math.pi) * (ee[:, None] - ee[None, :]))
    entries = (np.outer(amps, amps) / total) * sinc
    return ProjectorMatrix(entries=entries.astype(complex), J=float(J), Gamma=float(Gamma))
