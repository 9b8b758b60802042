"""Physical parameters and the dimensionless reduction of the mode problem.

All dispersion computations run on two dimensionless numbers: the reduced
phase velocity S = omega / (k v_F) and the coupling

    A = Q0 + (3/4) (k lambda_d)^2,

where Q0 is the interaction constant and lambda_d = hbar / p_F the
de Broglie length at the Fermi surface.  Physical units enter only when a
:class:`FermiParameters` set is supplied to convert S back to a frequency.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import InvalidArgumentError, IOFailureError

__all__ = [
    "FermiParameters",
    "InteractionModel",
    "CouplingStrength",
    "Method",
    "DispersionPoint",
    "coupling_strength",
    "physical_frequency",
    "load_parameter_file",
]


def _require_finite(name, value):
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
    return float(value)


def _require_positive(name, value):
    value = _require_finite(name, value)
    if value <= 0.0:
        raise InvalidArgumentError(f"{name} must be positive, got {value!r}")
    return value


@dataclass(frozen=True)
class FermiParameters:
    """Bare and effective masses plus Fermi-surface scales.

    Defaults give the natural unit system m = p_F = hbar = 1 used in the
    tests; any consistent unit system works.
    """

    m: float = 1.0
    m_star: float = 1.0
    p_F: float = 1.0
    n0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m", "m_star", "p_F", "n0", "hbar"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))

    @property
    def v_F(self):
        """Fermi velocity p_F / m_star (quasiparticle convention)."""
        return self.p_F / self.m_star

    @property
    def lambda_d(self):
        """De Broglie length hbar / p_F of a particle on the Fermi surface."""
        return self.hbar / self.p_F

    @property
    def mass_ratio(self):
        return self.m_star / self.m


@dataclass(frozen=True)
class InteractionModel:
    """Quasiparticle interaction reduced to its angular average Q0 >= 0."""

    Q0: float

    def __post_init__(self):
        q = _require_finite("Q0", self.Q0)
        if q < 0.0:
            raise InvalidArgumentError(f"Q0 must be non-negative, got {q!r}")
        object.__setattr__(self, "Q0", q)


@dataclass(frozen=True)
class CouplingStrength:
    """The dimensionless coupling A at one wavenumber.

    Carries the (Q0, k lambda_d) pair it was built from so downstream
    results stay traceable to their inputs.
    """

    A: float
    k_lambda_d: float
    Q0: float

    def __post_init__(self):
        object.__setattr__(self, "A", _require_finite("A", self.A))
        object.__setattr__(self, "k_lambda_d", _require_finite("k_lambda_d", self.k_lambda_d))
        object.__setattr__(self, "Q0", _require_finite("Q0", self.Q0))


def coupling_strength(model, k_lambda_d):
    """Combine interaction and diffraction into A = Q0 + (3/4)(k lambda_d)^2."""
    k = _require_finite("k_lambda_d", k_lambda_d)
    if k < 0.0:
        raise InvalidArgumentError(f"k_lambda_d must be non-negative, got {k!r}")
    a = model.Q0 + 0.75 * k * k
    return CouplingStrength(A=a, k_lambda_d=k, Q0=model.Q0)


def as_coupling(value):
    """Accept either a CouplingStrength or a bare A value."""
    if isinstance(value, CouplingStrength):
        return value
    a = _require_finite("A", value)
    # a bare number is treated as pure interaction at k -> 0
    return CouplingStrength(A=a, k_lambda_d=0.0, Q0=a)


class Method(str, Enum):
    """Which branch or approximation produced a dispersion point."""

    EXACT = "exact"
    ASYMPTOTIC_ZERO_SOUND = "asymptotic-zero-sound"
    ASYMPTOTIC_HIGH_FREQUENCY = "asymptotic-high-frequency"


@dataclass(frozen=True)
class DispersionPoint:
    """One solution of the dispersion problem at fixed (Q0, k lambda_d).

    S_minus_1 stores S - 1 directly so the distance to the continuum edge
    survives rounding when it is far below machine epsilon relative to 1.
    log_excess carries ln(S - 1) and stays finite even when S_minus_1
    underflows to zero (weak coupling); it is None only when S <= 1.
    residual is the defect 1 - A F(S) of the exact relation, None when it
    is not meaningful for the branch.  omega is the physical frequency,
    populated only when unit-carrying parameters were supplied.
    """

    k_lambda_d: float
    Q0: float
    A: float
    S: float
    S_minus_1: float
    log_excess: float | None
    method: Method
    residual: float | None
    omega: float | None = None

    @property
    def above_continuum(self):
        """True when the mode lies strictly above the particle-hole band."""
        return self.S_minus_1 > 0.0 or self.log_excess is not None

    def to_json_dict(self):
        return {
            "k_lambda_d": self.k_lambda_d,
            "Q0": self.Q0,
            "A": self.A,
            "S": self.S,
            "S_minus_1": self.S_minus_1,
            "log_excess": self.log_excess,
            "method": self.method.value,
            "residual": self.residual,
            "omega": self.omega,
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            return cls(
                k_lambda_d=float(data["k_lambda_d"]),
                Q0=float(data["Q0"]),
                A=float(data["A"]),
                S=float(data["S"]),
                S_minus_1=float(data["S_minus_1"]),
                log_excess=None if data["log_excess"] is None else float(data["log_excess"]),
                method=Method(data["method"]),
                residual=None if data["residual"] is None else float(data["residual"]),
                omega=None if data.get("omega") is None else float(data["omega"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise InvalidArgumentError(f"malformed dispersion point record: {exc}") from exc

    def with_omega(self, params):
        """Attach the physical frequency for the given parameter set."""
        return replace(self, omega=physical_frequency(self.S, self.k_lambda_d, params))


def physical_frequency(S, k_lambda_d, params):
    """omega = S k v_F for wavenumber k = k_lambda_d / lambda_d."""
    k = _require_finite("k_lambda_d", k_lambda_d) / params.lambda_d
    return _require_finite("S", S) * k * params.v_F


_PARAMETER_KEYS = ("m", "m_star", "p_F", "n0", "hbar")


def load_parameter_file(path):
    """Read a flat ``key = value`` text file into FermiParameters.

    Blank lines and ``#`` comments are ignored.  Exactly the keys
    m, m_star, p_F, n0, hbar are accepted; anything else is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IOFailureError(f"cannot read parameter file {path}: {exc}") from exc

    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _PARAMETER_KEYS:
            raise InvalidArgumentError(f"{path}:{lineno}: unknown parameter {key!r}")
        if key in values:
            raise InvalidArgumentError(f"{path}:{lineno}: duplicate parameter {key!r}")
        try:
            values[key] = float(text.strip())
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}:{lineno}: bad numeric literal {text.strip()!r}") from exc

    missing = [k for k in _PARAMETER_KEYS if k not in values]
    if missing:
        raise InvalidArgumentError(f"{path}: missing parameters: {', '.join(missing)}")
    return FermiParameters(**values)
