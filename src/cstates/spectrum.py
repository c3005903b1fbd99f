"""Discrete energy spectra and their dimensionless level sequences."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import LevelRangeError, SpectrumError

BUILTIN_MODELS = ("harmonic", "hydrogen_like")


def _harmonic_levels(n: np.ndarray) -> np.ndarray:
    return np.asarray(n, dtype=float)


def _hydrogen_gap(n: np.ndarray) -> np.ndarray:
    shifted = np.asarray(n, dtype=float) + 1.0
    return 1.0 / (shifted * shifted)


def _hydrogen_levels(n: np.ndarray) -> np.ndarray:
    return 1.0 - _hydrogen_gap(n)


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
    the cancellation of forming the difference in floats.
    """

    name: str
    omega: float
    kind: str  # "builtin" | "explicit" | "rule"
    e_star: float | None
    model: str | None = None
    shift_applied: float = 0.0
    levels: tuple[float, ...] | None = None
    level_rule: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    gap_rule: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.omega, (int, float)) or not math.isfinite(self.omega) or self.omega <= 0:
            raise SpectrumError(f"omega must be a positive finite number, got {self.omega!r}")
        if self.kind == "explicit":
            if not self.levels:
                raise SpectrumError("explicit spectrum needs at least one level")
        elif self.level_rule is None:
            raise SpectrumError(f"{self.kind} spectrum needs a level rule")

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
        self._check_index(n)
        if self.levels is not None:
            return self.levels[n]
        return float(np.asarray(self.level_rule(np.asarray([n], dtype=float)))[0])

    def e_array(self, n_max: int) -> np.ndarray:
        """Levels e_0..e_{n_max} as a float array."""
        self._check_index(n_max)
        if self.levels is not None:
            return np.asarray(self.levels[: n_max + 1], dtype=float)
        return np.asarray(self.level_rule(np.arange(n_max + 1, dtype=float)), dtype=float)

    def energy(self, n: int) -> float:
        """E_n = omega * e_n in energy units."""
        return self.omega * self.e(n)

    def gap_array(self, n_max: int) -> np.ndarray:
        """e_star - e_n for n = 0..n_max (requires a finite accumulation point)."""
        if self.gap_rule is not None:
            self._check_index(n_max)
            return np.asarray(self.gap_rule(np.arange(n_max + 1, dtype=float)), dtype=float)
        if self.e_star is None or not math.isfinite(self.e_star):
            raise SpectrumError("gap to the accumulation point needs a finite e_star")
        return self.e_star - self.e_array(n_max)


def make_builtin(model: str, omega: float = 1.0) -> Spectrum:
    """Built-in spectra: 'harmonic' (e_n = n) or 'hydrogen_like' (e_n = 1 - 1/(n+1)^2)."""
    if model == "harmonic":
        return Spectrum(
            name="harmonic", omega=float(omega), kind="builtin",
            e_star=math.inf, model="harmonic", level_rule=_harmonic_levels,
        )
    if model == "hydrogen_like":
        return Spectrum(
            name="hydrogen_like", omega=float(omega), kind="builtin",
            e_star=1.0, model="hydrogen_like",
            level_rule=_hydrogen_levels, gap_rule=_hydrogen_gap,
        )
    raise SpectrumError(f"unknown builtin model {model!r}; choose from {BUILTIN_MODELS}")


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
        name=name, omega=float(omega), kind="rule",
        e_star=None if e_star is None else float(e_star),
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
    if not arr:
        raise SpectrumError("explicit spectrum needs at least one level")
    if not isinstance(omega, (int, float)) or not omega > 0:
        raise SpectrumError(f"omega must be positive, got {omega!r}")
    shift = arr[0]
    e = tuple((v - shift) / float(omega) for v in arr)
    if e_star is not None:
        e_star = float(e_star)
        if e_star <= e[-1]:
            raise SpectrumError(
                f"declared e_star={e_star} must exceed the last level e={e[-1]}"
            )
    built = Spectrum(
        name=name, omega=float(omega), kind="explicit",
        e_star=e_star, shift_applied=float(shift), levels=e,
    )
    if len(e) > 1:
        report = validate(built, len(e) - 1)
        if not report.ok:
            details = "; ".join(f"n={n}: {msg}" for n, msg in report.violations)
            raise SpectrumError(f"invalid explicit levels: {details}")
    return built


def load_spectrum(document: str | Mapping) -> Spectrum:
    """Parse a spectrum document (JSON text or mapping) into a validated Spectrum.

    Document schema:
      {"name": str, "omega": float, "kind": "builtin"|"explicit",
       "model": "harmonic"|"hydrogen_like" (builtin only),
       "levels": [floats] (explicit only), "e_star": float|null}
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpectrumError(f"cannot parse spectrum document: {exc}") from None
    elif isinstance(document, Mapping):
        doc = dict(document)
    else:
        raise SpectrumError("spectrum document must be JSON text or a mapping")
    if not isinstance(doc, dict):
        raise SpectrumError("spectrum document must be a JSON object")

    omega = doc.get("omega")
    if not isinstance(omega, (int, float)) or not omega > 0:
        raise SpectrumError(f"omega must be a positive number, got {omega!r}")
    kind = doc.get("kind")
    name = doc.get("name")

    if kind == "builtin":
        built = make_builtin(doc.get("model"), float(omega))
        if name and name != built.name:
            built = dataclasses.replace(built, name=str(name))
        return built

    if kind == "explicit":
        raw = doc.get("levels")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise SpectrumError("explicit spectrum needs a nonempty 'levels' array")
        e_star = doc.get("e_star")
        if isinstance(e_star, str):
            if e_star.lower() in ("inf", "infinity"):
                e_star = math.inf
            else:
                raise SpectrumError(f"e_star must be a number, null, or 'inf', got {e_star!r}")
        return from_levels(str(name or "custom"), float(omega), raw, e_star=e_star)

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


def _check_levels(s: Spectrum, e: np.ndarray) -> ValidationReport:
    """The checks of ``validate`` on levels e_0..e_k already evaluated."""
    ties_are_violations = s.kind == "explicit"

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
    if ties_are_violations:
        for idx in np.nonzero(ties)[0]:
            violations.append((int(idx) + 1, "degenerate level (equal to the previous one)"))
    if s.e_star is not None and math.isfinite(s.e_star):
        for idx in np.nonzero(e >= s.e_star)[0]:
            violations.append((int(idx), f"level {e[idx]!r} is not below e_star={s.e_star}"))
    violations.sort()
    return ValidationReport(
        ok=not violations, violations=tuple(violations), shift_applied=s.shift_applied
    )
