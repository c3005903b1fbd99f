"""Discrete energy spectra and their dimensionless level sequences."""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import LevelRangeError, SpectrumError


def _omega(value) -> float:
    """omega as a float: a finite positive real, numpy scalars included, bools not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise SpectrumError(f"omega must be a positive finite number, got {value!r}")
    return float(value)


def _hydrogen_gap(n: np.ndarray) -> np.ndarray:
    """1/(n+1)^2, squared and divided in place in one new array."""
    gap = np.add(n, 1.0, dtype=float)
    gap *= gap
    return np.divide(1.0, gap, out=gap)


def _hydrogen_level(n: np.ndarray) -> np.ndarray:
    """1 - 1/(n+1)^2, subtracted in place from the gap's array."""
    gap = _hydrogen_gap(n)
    return np.subtract(1.0, gap, out=gap)


def _hydrogen_normalization(J: float) -> float:
    """N(J) = 2/(1-J) + 2(J + ln(1-J))/J^2 for hydrogen_like, 0 < J < 1."""
    return 2.0 / (1.0 - J) + (2.0 / (J * J)) * (J + math.log1p(-J))


# zeta(2) and zeta(3): Li_2(1) and Li_3(1)
ZETA2 = math.pi**2 / 6.0
ZETA3 = 1.2020569031595942

# terms of the regular part of Li_s(e^mu) past mu^(s-1); for |mu| <= ln 2 the
# k-th falls like (ln 2 / 2 pi)^k, below 1e-19 of the sum by k = 20
_MU_TERMS = 20


@functools.cache
def _mu_coefficients() -> dict[int, tuple[float, ...]]:
    """zeta(-m)/(m+s)! for m = 0.._MU_TERMS-1, for s = 2 and 3, on first use.

    zeta(-m) = (-1)^m B_{m+1}/(m+1), with the Bernoulli numbers from
    B_0 = 1, B_m = -sum_{j<m} C(m+1, j) B_j/(m+1), exactly in fractions.
    """
    bern = [Fraction(1)]
    for m in range(1, _MU_TERMS + 1):
        bern.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(bern)) / (m + 1))
    zeta = [(-1) ** m * bern[m + 1] / (m + 1) for m in range(_MU_TERMS)]
    return {s: tuple(float(z / math.factorial(m + s)) for m, z in enumerate(zeta)) for s in (2, 3)}


def _polylog_near_one(s: int, mu: float) -> float:
    """Li_s(e^mu) for s = 2 or 3 and ln(1/2) <= mu < 0.

    Li_s(e^mu) = sum_{k<s-1} zeta(s-k) mu^k/k! + mu^(s-1)/(s-1)! (H_{s-1} - ln(-mu))
    + sum_{k>=s} zeta(s-k) mu^k/k!, which converges for |mu| < 2 pi (Lewin,
    Polylogarithms and Associated Functions, 1981; D. C. Wood, The
    computation of polylogarithms, Univ. of Kent Tech. Rep. 15-92, 1992).
    """
    regular = 0.0
    for c in reversed(_mu_coefficients()[s]):
        regular = regular * mu + c
    regular *= mu**s
    log_part = math.log(-mu)
    if s == 2:
        return ZETA2 + mu * (1.0 - log_part) + regular
    return ZETA3 + ZETA2 * mu + 0.5 * mu * mu * (1.5 - log_part) + regular


def _hydrogen_variance(J: float, omega: float) -> float:
    """Exact v(J) for hydrogen_like, 0 <= J < 1.

    rho_n = (n+2)/(2(n+1)) and the gaps are g_n = 1/(n+1)^2, whose mean is
    1 - J by the action identity.  Up to J = 1/2, v/omega^2 is summed as the
    series of positive terms sum (J - e_n)^2 J^n/rho_n / N, to the first
    term below 2^-60 of the sum.  Above, partial fractions give
    G(J) = sum g_n^2 J^n/rho_n = 2[(Li_3 - Li_2 + 1)/J - Li_1 (1-J)/J^2], and
    v/omega^2 = G/N - (1-J)^2, with Li_1 = -ln(1-J).  Summed there, the
    series would need millions of terms near J* = 1; from polylogarithms,
    G/N - (1-J)^2 loses up to 6.4e-15 relative below J = 1/2 (2.2e-16 for
    the series).
    """
    if J <= 0.5:
        num = J * J  # n = 0: e_0 = 0, rho_0 = 1
        total = 1.0
        n, t = 0, 1.0
        while True:
            n += 1
            t *= J
            term = t * 2.0 * (n + 1) / (n + 2)
            if term <= 2.0**-60 * num:
                return omega * omega * num / total
            d = (J - 1.0) + 1.0 / ((n + 1) * (n + 1))
            num += d * d * term
            total += term
    mu = math.log(J)
    eps = 1.0 - J
    g = 2.0 * ((_polylog_near_one(3, mu) - _polylog_near_one(2, mu) + 1.0) / J
               + math.log(eps) * eps / (J * J))
    return omega * omega * (g / _hydrogen_normalization(J) - eps * eps)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[int, str], ...]
    shift_applied: float


@dataclass(frozen=True)
class Spectrum:
    """A discrete nondegenerate spectrum in dimensionless form e_n = E_n/omega.

    Explicit spectra hold their (already shifted, divided by omega) levels in
    ``levels``; rule-based spectra evaluate ``level_rule`` on integer arrays.
    ``e_star`` is the limit of e_n: a finite number, ``math.inf``, or None
    when unknown.  ``gap_rule``, when present, returns e_star - e_n without
    the cancellation of forming the difference in floats.  ``model`` is the
    record of a built-in spectrum, None for custom ones.
    """

    name: str
    omega: float
    e_star: float | None
    model: Model | None = field(default=None, repr=False)
    shift_applied: float = 0.0
    levels: tuple[float, ...] | None = None
    level_rule: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    gap_rule: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "omega", _omega(self.omega))
        if self.levels is not None:
            if not self.levels:
                raise SpectrumError("explicit spectrum needs at least one level")
        elif self.level_rule is None:
            raise SpectrumError("spectrum needs explicit levels or a level rule")

    @property
    def max_index(self) -> int | None:
        """Largest defined level index for explicit lists, None when unbounded."""
        if self.levels is not None:
            return len(self.levels) - 1
        return None

    def _check_index(self, n: int) -> None:
        if n < 0:
            raise LevelRangeError(f"level index must be nonnegative, got {n}")
        top = self.max_index
        if top is not None and n > top:
            raise LevelRangeError(
                f"spectrum '{self.name}' defines levels up to n={top}, requested n={n}"
            )

    def e(self, n: int) -> float:
        """Dimensionless level e_n."""
        return float(self.e_range(n, n + 1)[0])

    def e_array(self, n_max: int) -> np.ndarray:
        """Levels e_0..e_{n_max} as a float array."""
        return self.e_range(0, n_max + 1)

    def _check_range(self, lo: int, hi: int) -> None:
        self._check_index(lo)
        self._check_index(hi - 1)

    def e_range(self, lo: int, hi: int) -> np.ndarray:
        """Levels e_n for n in [lo, hi) as a float array."""
        self._check_range(lo, hi)
        if self.levels is not None:
            return np.asarray(self.levels[lo:hi], dtype=float)
        return np.asarray(self.level_rule(np.arange(lo, hi, dtype=float)), dtype=float)

    def energy(self, n: int) -> float:
        """E_n = omega * e_n in energy units."""
        return self.omega * self.e(n)

    def gap_array(self, n_max: int) -> np.ndarray:
        """e_star - e_n for n = 0..n_max (requires a finite accumulation point)."""
        return self.gap_range(0, n_max + 1)

    def gap_range(self, lo: int, hi: int) -> np.ndarray:
        """e_star - e_n for n in [lo, hi), from ``gap_rule`` when there is one."""
        if self.gap_rule is not None:
            self._check_range(lo, hi)
            return np.asarray(self.gap_rule(np.arange(lo, hi, dtype=float)), dtype=float)
        if self.e_star is None or not math.isfinite(self.e_star):
            raise SpectrumError("gap to the accumulation point needs a finite e_star")
        return self.e_star - self.e_range(lo, hi)


@dataclass(frozen=True, eq=False, kw_only=True)
class Model:
    """Closed-form facts of one built-in spectrum, and how ``verify`` checks them.

    ``ratio_cap(n)`` bounds e_{m+1}/e_m over m > n where e_star is infinite;
    ``normalization`` is N(J) and ``variance(J, omega)`` the exact v(J);
    ``rho_inf`` is the limit of rho_n, None where it diverges; ``measure``
    is the JSON text of a measure document, which
    ``resolution.builtin_measure`` reads on [0, e_star);
    ``variance_bound(J, omega)``, read as ``variance_bound_text``, caps
    v(J).  ``verify`` checks N(J) on ``closed_form_grid`` within
    ``closed_form_rtol`` (or the tail bound, when larger), variances on
    ``variance_grid``, measures up to ``n_check``, and runs the model-only
    ``checks``.  Float levels are exact, or below e_star, only up to
    ``levels_valid_below`` (2^53 harmonic; hydrogen_like's round to 1.0 from
    there): a shorter weight table takes them unchecked and fills on demand.
    """

    name: str
    e_star: float
    level_rule: Callable[[np.ndarray], np.ndarray]
    gap_rule: Callable[[np.ndarray], np.ndarray] | None = None
    ratio_cap: Callable[[np.ndarray], np.ndarray] | None = None
    normalization: Callable[[float], float]
    variance: Callable[[float, float], float]
    rho_inf: float | None = None
    measure: str
    variance_bound: Callable[[float, float], float] | None = None
    variance_bound_text: str = ""
    closed_form_grid: tuple[float, ...]
    closed_form_rtol: float
    variance_grid: tuple[float, ...]
    n_check: int
    levels_valid_below: int
    checks: frozenset[str] = frozenset()


MODELS: dict[str, Model] = {
    m.name: m
    for m in (
        Model(
            name="harmonic",
            e_star=math.inf,
            level_rule=lambda n: np.asarray(n, dtype=float),
            # e_{m+1}/e_m = (m+1)/m falls with m, so m = n+1 sets the cap
            ratio_cap=lambda n: (n + 2.0) / (n + 1.0),
            normalization=math.exp,
            variance=lambda J, omega: omega * omega * J,
            measure='{"density": {"kind": "exponential", "rate": 1}}',
            closed_form_grid=(0.5, 1.0, 2.0, 5.0),
            closed_form_rtol=1e-12,
            variance_grid=(0.5, 1.0, 2.0, 4.0),
            n_check=15,
            levels_valid_below=2**53,
            checks=frozenset({"canonical-reduction"}),
        ),
        Model(
            name="hydrogen_like",
            e_star=1.0,
            level_rule=_hydrogen_level,
            gap_rule=_hydrogen_gap,
            normalization=_hydrogen_normalization,
            variance=_hydrogen_variance,
            rho_inf=0.5,
            measure='{"density": {"kind": "constant", "value": 0.5}, "atoms": [{"u": 1, "w": 0.5}]}',
            variance_bound=lambda J, omega: 0.75 * omega**2 * J * (1.0 - J),
            variance_bound_text="(3/4) omega^2 J (1-J)",
            closed_form_grid=tuple(np.arange(0.05, 0.951, 0.05).tolist()),
            closed_form_rtol=1e-10,
            variance_grid=tuple(np.arange(0.1, 0.91, 0.1).tolist()),
            n_check=30,
            levels_valid_below=134_217_727,
            checks=frozenset({"projector-offdiagonal-decay", "near-jstar-exponent"}),
        ),
    )
}


def _builtin_model(model: str) -> Model:
    """The record of MODELS named model; any other name or type is refused."""
    record = MODELS.get(model) if isinstance(model, str) else None
    if record is None:
        raise SpectrumError(f"unknown builtin model {model!r}; choose from {tuple(MODELS)}")
    return record


def make_builtin(model: str, omega: float = 1.0) -> Spectrum:
    """Built-in spectra, one per record in MODELS: 'harmonic' (e_n = n) or
    'hydrogen_like' (e_n = 1 - 1/(n+1)^2)."""
    record = _builtin_model(model)
    return Spectrum(
        name=record.name, omega=omega, e_star=record.e_star, model=record,
        level_rule=record.level_rule, gap_rule=record.gap_rule,
    )


def from_rule(
    name: str,
    omega: float,
    level_rule: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    gap_rule: Callable[[np.ndarray], np.ndarray] | None = None,
    e_star: float | None = None,
) -> Spectrum:
    """Spectrum from a vectorized rule n -> e_n, or from a gap rule plus finite e_star."""
    if level_rule is None:
        if gap_rule is None or e_star is None or not math.isfinite(e_star):
            raise SpectrumError("need a level rule, or a gap rule together with a finite e_star")
        star = float(e_star)

        def level_rule(n, _gap=gap_rule, _star=star):
            return _star - np.asarray(_gap(n), dtype=float)

    return Spectrum(
        name=name, omega=omega, e_star=None if e_star is None else float(e_star),
        level_rule=level_rule, gap_rule=gap_rule,
    )


def power_gap_spectrum(p: float, omega: float = 1.0) -> Spectrum:
    """Bounded spectrum e_n = 1 - (n+1)^(-p), accumulating at e_star = 1."""
    if not p > 0:
        raise SpectrumError("gap exponent must be positive")

    def gap(n, _p=float(p)):
        return np.power(np.asarray(n, dtype=float) + 1.0, -_p)

    return from_rule(f"power_gap_{p:g}", omega, gap_rule=gap, e_star=1.0)


def from_levels(
    name: str,
    omega: float,
    energies: Sequence[float],
    e_star: float | None = None,
) -> Spectrum:
    """Explicit spectrum from energy levels; shifts so E_0 = 0 and records the shift."""
    try:
        arr = [float(v) for v in energies]
    except (TypeError, ValueError) as exc:
        raise SpectrumError(f"levels must be numbers: {exc}") from None
    omega = _omega(omega)
    shift = arr[0] if arr else 0.0
    e = tuple((v - shift) / omega for v in arr)
    if e_star is not None:
        e_star = float(e_star)
    built = Spectrum(name=name, omega=omega, e_star=e_star, shift_applied=float(shift), levels=e)
    if e_star is not None and not e_star > e[-1]:  # NaN exceeds nothing
        raise SpectrumError(f"declared e_star={e_star} must exceed the last level e={e[-1]}")
    _refuse_invalid(_check_levels(built, np.asarray(e)), "invalid explicit levels")
    return built


def _read_object(document: str | Mapping, what: str) -> dict:
    """A document given as JSON text or a mapping, as a new dict; anything but
    a JSON object is refused."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpectrumError(f"cannot parse {what} document: {exc}") from None
    if not isinstance(document, Mapping):
        raise SpectrumError(f"{what} document must be a JSON object")
    return dict(document)


def _number(value, name: str) -> float:
    """A number from a document, where the strings 'inf' and 'infinity' mean math.inf."""
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpectrumError(f"{name} must be a number or 'inf', got {value!r}")
    return float(value)


def load_spectrum(document: str | Mapping) -> Spectrum:
    """Parse a spectrum document (JSON text or mapping) into a validated Spectrum.

    Document schema:
      {"name": str, "omega": float, "kind": "builtin"|"explicit",
       "model": a key of MODELS (builtin only),
       "levels": [floats] (explicit only), "e_star": float|"inf"|null}
    """
    doc = _read_object(document, "spectrum")
    omega = _omega(doc.get("omega"))
    kind = doc.get("kind")
    name = doc.get("name")

    if kind == "builtin":
        built = make_builtin(doc.get("model"), omega)
        if name and name != built.name:
            built = dataclasses.replace(built, name=str(name))
        return built

    if kind == "explicit":
        raw = doc.get("levels")
        if not isinstance(raw, (list, tuple)):
            raise SpectrumError("explicit spectrum needs a 'levels' array")
        e_star = doc.get("e_star")
        if e_star is not None:
            e_star = _number(e_star, "e_star")
        return from_levels(str(name or "custom"), omega, raw, e_star=e_star)

    raise SpectrumError(f"unknown spectrum kind {kind!r} (expected 'builtin' or 'explicit')")


def validate(s: Spectrum, n_max: int) -> ValidationReport:
    """Check E_0 = 0, monotonicity, and finiteness for n <= n_max.

    Failures are reported, not raised.  For explicit lists the check covers
    the available range min(n_max, max_index) and equal neighbours are
    violations.  For rule-based spectra, exact ties are tolerated: levels
    accumulating at e_star saturate float resolution long before any
    reasonable n_max (hydrogen-like ties start near n = 2.6e5), and every
    tail certificate in this package only needs nondecreasing levels.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    top = n_max if s.max_index is None else min(n_max, s.max_index)
    return _check_levels(s, s.e_array(top))


def _refuse_invalid(report: ValidationReport, what: str) -> None:
    """Raise SpectrumError listing every violation of a failed report, after what."""
    if not report.ok:
        details = "; ".join(f"n={n}: {msg}" for n, msg in report.violations)
        raise SpectrumError(f"{what}: {details}")


def _check_levels(s: Spectrum, e: np.ndarray) -> ValidationReport:
    """The checks of ``validate`` on levels e_0..e_k already evaluated.

    Valid levels pass in two passes: e_0 = 0, e_k finite and below e_star, and
    a least step >= 0 (> 0 for a list; NaN fails) put every e_n in [0, e_k].
    Other levels take the full checks, which report every violation.
    """
    star = s.e_star if s.e_star is not None else math.inf
    if e[0] == 0.0 and math.isfinite(e[-1]) and not e[-1] >= star:
        least = np.diff(e).min(initial=math.inf)
        if least > 0 or (least == 0 and s.levels is None):
            return ValidationReport(ok=True, violations=(), shift_applied=s.shift_applied)
    violations: list[tuple[int, str]] = []
    if not np.isfinite(e[0]) or e[0] != 0.0:
        violations.append((0, f"e_0 must be 0, got {e[0]!r}"))
    for idx in np.nonzero(~np.isfinite(e))[0]:
        if idx > 0:
            violations.append((int(idx), "level is not finite"))
    finite_pair = np.isfinite(e[1:]) & np.isfinite(e[:-1])
    diffs = np.diff(e)
    with np.errstate(invalid="ignore"):
        decreasing = (diffs < 0) & finite_pair
        ties = (diffs == 0) & finite_pair
    for idx in np.nonzero(decreasing)[0]:
        violations.append((int(idx) + 1, "decreasing level"))
    if s.levels is not None:  # ties are tolerated in rules only, see validate
        for idx in np.nonzero(ties)[0]:
            violations.append((int(idx) + 1, "degenerate level (equal to the previous one)"))
    if s.e_star is not None and math.isfinite(s.e_star):
        for idx in np.nonzero(e >= s.e_star)[0]:
            violations.append((int(idx), f"level {e[idx]!r} is not below e_star={s.e_star}"))
    violations.sort()
    return ValidationReport(
        ok=not violations, violations=tuple(violations), shift_applied=s.shift_applied
    )
