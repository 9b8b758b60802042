"""Physical parameters and the dimensionless reduction of the mode problem.

All dispersion computations run on two dimensionless numbers: the reduced
phase velocity S = omega / (k v_F) and the coupling

    A = Q0 + (3/4) (k lambda_d)^2,

where Q0 is the interaction constant and lambda_d = hbar / p_F the
de Broglie length at the Fermi surface.  Physical units enter only when a
:class:`FermiParameters` set is supplied to convert S back to a frequency.
"""

from __future__ import annotations

import math
import operator
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
    if type(value) is float and math.isfinite(value):  # most calls: one test, the value as is
        return value
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        raise InvalidArgumentError(f"{name} must be finite, got a value beyond the float range") from None
    except TypeError:  # a str, None or complex is not a real number
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}") from None
    if not finite:
        raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
    return float(value)


def _require_positive(name, value):
    value = _require_finite(name, value)
    if value <= 0.0:
        raise InvalidArgumentError(f"{name} must be positive, got {value!r}")
    return value


def _require_non_negative(name, value):
    value = _require_finite(name, value)
    if value < 0.0:
        raise InvalidArgumentError(f"{name} must be non-negative, got {value!r}")
    return value


def _require_count(name, value, least, ceiling_name=None, ceiling=None):
    # operator.index takes Python and numpy integers and refuses 2.5 and 2.0
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise InvalidArgumentError(f"{name} must be >= {least}, got {count!r}")
    if ceiling is not None and count > ceiling:
        raise InvalidArgumentError(f"{name} must be <= {ceiling_name} = {ceiling}, got {count!r}")
    return count


def _record(cls):
    """Make cls a frozen record of its annotated fields, as @dataclass(frozen=True) would.

    The fields are the annotated names in order (the annotations themselves
    are never evaluated), listed in __match_args__; a class attribute of the
    same name is that field's default.  An instance takes its fields as
    positional or keyword arguments and keeps them in its __dict__, where
    __post_init__, if the class has one, may normalize them; it refuses
    assignment and deletion, and compares, hashes and prints by exact type
    and field values.

    A module that defines records imports annotations from __future__: that
    keeps __annotations__ a dict of strings in the class body on every Python
    version, where from 3.14 on it would otherwise be built lazily elsewhere.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if not names:
        raise TypeError(f"{cls.__qualname__} has no annotated fields")
    fields = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        if kwargs or len(args) != len(names):
            values.update(defaults)
            if args:
                values.update(zip(names, args))
            values.update(kwargs)
            if values.keys() != fields or (
                args and (len(args) > len(names) or kwargs and not kwargs.keys().isdisjoint(names[: len(args)]))
            ):
                missing = ", ".join([name for name in names if name not in values])
                raise TypeError(
                    f"{cls.__qualname__}() takes the fields ({', '.join(names)}), got {len(args)} positional"
                    f" values and the keywords ({', '.join(kwargs)})" + (f"; missing {missing}" if missing else "")
                )
        else:  # one value per field, in order, as most records are built: nothing to check
            values.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    cls.__match_args__ = names
    cls.__init__ = __init__
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    return cls


def _field_values(record):
    return tuple([getattr(record, name) for name in record.__match_args__])


def _refuse_assignment(record, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(record, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record_eq(record, other):
    if other.__class__ is not record.__class__:
        return NotImplemented
    return all(_field_eq(getattr(record, name), getattr(other, name)) for name in record.__match_args__)


def _field_eq(mine, theirs):
    # identity first, as a tuple compares its items, so a nan field equals
    # itself; two arrays (values with a shape) are equal when their shapes
    # and all their elements are
    if mine is theirs:
        return True
    shape = getattr(mine, "shape", None)
    if shape is None or not hasattr(theirs, "shape"):
        return bool(mine == theirs)
    return shape == theirs.shape and bool((mine == theirs).all())


def _record_hash(record):
    return hash(_field_values(record))


def _record_repr(record):
    fields = ", ".join([f"{name}={getattr(record, name)!r}" for name in record.__match_args__])
    return f"{record.__class__.__qualname__}({fields})"


@_record
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
        values = self.__dict__
        for name in self.__match_args__:
            values[name] = _require_positive(name, values[name])

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


@_record
class InteractionModel:
    """Quasiparticle interaction reduced to its angular average Q0 >= 0."""

    Q0: float

    def __post_init__(self):
        self.__dict__["Q0"] = _require_non_negative("Q0", self.Q0)


@_record
class CouplingStrength:
    """The dimensionless coupling A at one wavenumber.

    Carries the (Q0, k lambda_d) pair it was built from so downstream
    results stay traceable to their inputs.
    """

    A: float
    k_lambda_d: float
    Q0: float

    def __post_init__(self):
        values = self.__dict__
        values["A"] = _require_finite("A", values["A"])
        values["k_lambda_d"] = _require_finite("k_lambda_d", values["k_lambda_d"])
        values["Q0"] = _require_finite("Q0", values["Q0"])


def coupling_strength(model, k_lambda_d):
    """Combine interaction and diffraction into A = Q0 + (3/4)(k lambda_d)^2."""
    k = _require_non_negative("k_lambda_d", k_lambda_d)
    a = model.Q0 + 0.75 * k * k
    return CouplingStrength(a, k, model.Q0)


def as_coupling(value):
    """Accept either a CouplingStrength or a bare A value."""
    if isinstance(value, CouplingStrength):
        return value
    # a bare number is treated as pure interaction at k -> 0
    return CouplingStrength(A=value, k_lambda_d=0.0, Q0=value)


_JSON_NUMBERS = ("k_lambda_d", "Q0", "A", "S", "S_minus_1", "log_excess", "residual")


def _json_number(value):
    # a JSON number or null, or the text the CLI writes for a non-finite float
    if value is None:
        return None
    if isinstance(value, bool) or not (isinstance(value, (int, float)) or value in ("nan", "inf", "-inf")):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


class Method(str, Enum):
    """Which branch or approximation produced a dispersion point."""

    EXACT = "exact"
    ASYMPTOTIC_ZERO_SOUND = "asymptotic-zero-sound"
    ASYMPTOTIC_HIGH_FREQUENCY = "asymptotic-high-frequency"


@_record
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
        """Read a record as the CLI writes it, else raise InvalidArgumentError.

        Numbers are JSON numbers or the CLI's text "nan", "inf" and "-inf";
        k_lambda_d, Q0, A and S are finite, S_minus_1 >= 0 given a log_excess.
        """
        try:
            values = {key: _json_number(data[key]) for key in _JSON_NUMBERS}
            values["omega"] = _json_number(data.get("omega"))
            for key in ("k_lambda_d", "Q0", "A", "S"):
                _require_finite(key, values[key])
            if not (values["S_minus_1"] >= 0.0 or values["log_excess"] is None):
                raise ValueError(f"S_minus_1 must be >= 0 with a log_excess, got {values['S_minus_1']!r}")
            return cls(**values, method=Method(data["method"]))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise InvalidArgumentError(f"malformed dispersion point record: {exc}") from exc

    def with_omega(self, params):
        """Attach the physical frequency for the given parameter set."""
        omega = physical_frequency(self.S, self.k_lambda_d, params)
        return self.__class__(self.k_lambda_d, self.Q0, self.A, self.S, self.S_minus_1, self.log_excess,
                              self.method, self.residual, omega)


def physical_frequency(S, k_lambda_d, params):
    """omega = S k v_F for wavenumber k = k_lambda_d / lambda_d."""
    k = _require_finite("k_lambda_d", k_lambda_d) / params.lambda_d
    return _require_finite("S", S) * k * params.v_F


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
        if key not in FermiParameters.__match_args__:
            raise InvalidArgumentError(f"{path}:{lineno}: unknown parameter {key!r}")
        if key in values:
            raise InvalidArgumentError(f"{path}:{lineno}: duplicate parameter {key!r}")
        try:
            values[key] = float(text.strip())
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}:{lineno}: bad numeric literal {text.strip()!r}") from exc

    missing = [k for k in FermiParameters.__match_args__ if k not in values]
    if missing:
        raise InvalidArgumentError(f"{path}: missing parameters: {', '.join(missing)}")
    return FermiParameters(**values)
