"""Parameter handling, coupling reduction, point serialization and the records."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from zerosound import (
    AngularGrid,
    AngularState,
    BranchScan,
    CouplingStrength,
    DispersionPoint,
    FermiParameters,
    GridSpec,
    InteractionModel,
    InvalidArgumentError,
    IOFailureError,
    Method,
    SolverConfig,
    SpectralPeak,
    TimeSeries,
    build_angular_grid,
    coupling_strength,
    landau_kernel,
    load_parameter_file,
    physical_frequency,
    secular_sum,
    solve_zero_sound,
    stability_bound,
)
from zerosound.model import _record


class TestFermiParameters:
    def test_defaults_are_natural_units(self):
        p = FermiParameters()
        assert p.v_F == 1.0
        assert p.lambda_d == 1.0
        assert p.mass_ratio == 1.0

    def test_derived_scales(self):
        p = FermiParameters(m=2.0, m_star=4.0, p_F=3.0, hbar=0.5)
        assert p.v_F == 3.0 / 4.0
        assert p.lambda_d == 0.5 / 3.0
        assert p.mass_ratio == 2.0

    @pytest.mark.parametrize("field", ["m", "m_star", "p_F", "n0", "hbar"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(InvalidArgumentError):
            FermiParameters(**{field: 0.0})
        with pytest.raises(InvalidArgumentError):
            FermiParameters(**{field: -1.0})

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            FermiParameters(m=math.nan)
        with pytest.raises(InvalidArgumentError):
            FermiParameters(p_F=math.inf)


class TestCoupling:
    def test_ideal_gas_allowed(self):
        assert InteractionModel(0.0).Q0 == 0.0

    def test_negative_interaction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            InteractionModel(-0.1)

    def test_combination_rule(self):
        c = coupling_strength(InteractionModel(2.0), 2.0)
        assert c.A == 5.0
        c = coupling_strength(InteractionModel(0.5), 1.0)
        assert c.A == 1.25

    def test_pure_interaction_at_zero_wavenumber(self):
        c = coupling_strength(InteractionModel(1.3), 0.0)
        assert c.A == 1.3
        assert c.k_lambda_d == 0.0

    def test_negative_wavenumber_rejected(self):
        with pytest.raises(InvalidArgumentError):
            coupling_strength(InteractionModel(1.0), -0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            coupling_strength(InteractionModel(1.0), math.nan)
        with pytest.raises(InvalidArgumentError):
            CouplingStrength(A=math.inf, k_lambda_d=0.0, Q0=0.0)


class TestPhysicalFrequency:
    def test_natural_units(self):
        # omega = S k v_F with lambda_d = v_F = 1
        assert physical_frequency(2.0, 0.5, FermiParameters()) == 1.0

    def test_unit_restoration(self):
        p = FermiParameters(m=1.0, m_star=2.0, p_F=4.0, hbar=0.5)
        # k = k_lambda_d / lambda_d = 0.3 * 8, v_F = 2
        assert math.isclose(physical_frequency(1.5, 0.3, p), 1.5 * 2.4 * 2.0, rel_tol=1e-15)


class TestParameterFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "params.txt"
        path.write_text(text)
        return str(path)

    def test_happy_path(self, tmp_path):
        path = self._write(tmp_path, "\n".join([
            "# helium-3-ish toy numbers",
            "m = 1.0",
            "m_star = 2.8",
            "",
            "p_F = 0.75  # momentum scale",
            "n0 = 0.016",
            "hbar = 1.0",
        ]))
        p = load_parameter_file(path)
        assert p.m_star == 2.8
        assert p.p_F == 0.75

    def test_unknown_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "m = 1\nm_star = 1\np_F = 1\nn0 = 1\nhbar = 1\nT = 0\n")
        with pytest.raises(InvalidArgumentError, match="unknown parameter"):
            load_parameter_file(path)

    def test_missing_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "m = 1\n")
        with pytest.raises(InvalidArgumentError, match="missing parameters"):
            load_parameter_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "m = 1\nm = 2\n")
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            load_parameter_file(path)

    def test_bad_literal_rejected(self, tmp_path):
        path = self._write(tmp_path, "m = one\n")
        with pytest.raises(InvalidArgumentError, match="bad numeric literal"):
            load_parameter_file(path)

    def test_bad_syntax_rejected(self, tmp_path):
        path = self._write(tmp_path, "m 1\n")
        with pytest.raises(InvalidArgumentError, match="expected"):
            load_parameter_file(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IOFailureError):
            load_parameter_file(str(tmp_path / "absent.txt"))


class TestDispersionPoint:
    def _point(self):
        return DispersionPoint(
            k_lambda_d=0.1,
            Q0=0.0,
            A=0.0075,
            S=1.0,
            S_minus_1=4.1742570659665503e-117,
            log_excess=-267.97351948610668,
            method=Method.ASYMPTOTIC_ZERO_SOUND,
            residual=0.0,
        )

    def test_round_trip_is_lossless(self):
        p = self._point()
        assert DispersionPoint.from_json_dict(p.to_json_dict()) == p

    def test_round_trip_with_omega_and_none_fields(self):
        p = DispersionPoint(
            k_lambda_d=2.0, Q0=0.0, A=3.0, S=1.0, S_minus_1=0.0,
            log_excess=None, method=Method.ASYMPTOTIC_HIGH_FREQUENCY,
            residual=None, omega=2.0,
        )
        assert DispersionPoint.from_json_dict(p.to_json_dict()) == p

    def test_malformed_record_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DispersionPoint.from_json_dict({"S": 1.0})
        data = self._point().to_json_dict()
        data["method"] = "guesswork"
        with pytest.raises(InvalidArgumentError):
            DispersionPoint.from_json_dict(data)

    @pytest.mark.parametrize("change", [
        {"S": "nan", "S_minus_1": "-5"},  # once loaded as above_continuum with S = nan
        {"S": "nan"},
        {"A": "inf"},
        {"Q0": math.nan},
        {"k_lambda_d": -math.inf},
        {"S": True},  # a JSON boolean is not a number
        {"residual": False},
        {"S": "1.0"},  # nor is other text
        {"omega": "2"},
        {"S": None},
        {"S_minus_1": -1e-300},  # below the edge, with a log_excess
        {"S_minus_1": "nan"},
        {"A": 10**400},
    ])
    def test_what_the_cli_never_writes_is_rejected(self, change):
        data = {**self._point().to_json_dict(), **change}
        with pytest.raises(InvalidArgumentError, match="malformed dispersion point record"):
            DispersionPoint.from_json_dict(data)

    def test_the_cli_text_for_non_finite_floats_is_read(self):
        data = {**self._point().to_json_dict(), "residual": "nan", "omega": "-inf", "S_minus_1": "inf"}
        p = DispersionPoint.from_json_dict(data)
        assert math.isnan(p.residual) and p.omega == -math.inf and p.S_minus_1 == math.inf
        # a point below the edge carries no log_excess and may have S - 1 < 0
        below = {**data, "S": 0.9, "S_minus_1": -0.1, "log_excess": None}
        assert DispersionPoint.from_json_dict(below).S_minus_1 == -0.1

    def test_above_continuum_uses_the_log_carrier(self):
        p = self._point()
        assert p.S == 1.0  # the plain field cannot resolve the excess
        assert p.above_continuum

    def test_with_omega_returns_a_new_point(self):
        p = self._point()
        q = p.with_omega(FermiParameters(p_F=2.0))
        assert p.omega is None and q.omega == physical_frequency(p.S, p.k_lambda_d, FermiParameters(p_F=2.0))
        assert {**q.to_json_dict(), "omega": None} == p.to_json_dict()

    def test_method_labels(self):
        assert Method.EXACT.value == "exact"
        assert Method.ASYMPTOTIC_ZERO_SOUND.value == "asymptotic-zero-sound"
        assert Method.ASYMPTOTIC_HIGH_FREQUENCY.value == "asymptotic-high-frequency"


@pytest.mark.parametrize("value", [10**400, Fraction(10**400), "1", None, 1 + 0j],
                         ids=["huge-int", "huge-fraction", "str", "None", "complex"])
@pytest.mark.parametrize("call, knob", [
    (solve_zero_sound, "A"),
    (InteractionModel, "Q0"),
    (lambda value: GridSpec(k_min=1, k_max=value, count=3), "k_max"),
    (SolverConfig, "tolerance"),
    (stability_bound, "A"),
    (landau_kernel, "S"),
    (lambda value: secular_sum(value, build_angular_grid(4)), "S"),
], ids=["solve_zero_sound", "InteractionModel", "GridSpec", "SolverConfig", "stability_bound",
        "landau_kernel", "secular_sum"])
def test_numbers_beyond_the_float_range_or_not_real_are_labeled(call, knob, value):
    # Python's own OverflowError or TypeError must not escape unlabeled, and
    # a string must not be read as a number
    with pytest.raises(InvalidArgumentError, match=f"^{knob} must be "):
        call(value)


# every record type: field values, other field values, the repr of the
# first set (as @dataclass(frozen=True) printed it), and the defaults
RECORDS = [
    (FermiParameters, (1.0, 1.0, 1.0, 1.0, 1.0), (2.0, 1.0, 1.0, 1.0, 1.0),
     "FermiParameters(m=1.0, m_star=1.0, p_F=1.0, n0=1.0, hbar=1.0)",
     {"m": 1.0, "m_star": 1.0, "p_F": 1.0, "n0": 1.0, "hbar": 1.0}),
    (InteractionModel, (0.5,), (0.25,), "InteractionModel(Q0=0.5)", {}),
    (CouplingStrength, (1.25, 1.0, 0.5), (1.25, 1.0, 0.25),
     "CouplingStrength(A=1.25, k_lambda_d=1.0, Q0=0.5)", {}),
    (DispersionPoint, (0.0, 1.0, 1.0, 1.5, 0.5, None, Method.EXACT, None, 2.5),
     (0.0, 1.0, 1.0, 1.5, 0.5, None, Method.EXACT, None, 3.5),
     "DispersionPoint(k_lambda_d=0.0, Q0=1.0, A=1.0, S=1.5, S_minus_1=0.5, log_excess=None, "
     "method=<Method.EXACT: 'exact'>, residual=None, omega=2.5)",
     {"omega": None}),
    (SolverConfig, (1e-12,), (1e-10,), "SolverConfig(tolerance=1e-12)", {"tolerance": 1e-12}),
    (GridSpec, (0.1, 1.0, 3, "log"), (0.1, 1.0, 4, "log"),
     "GridSpec(k_min=0.1, k_max=1.0, count=3, spacing='log')", {"spacing": "linear"}),
    (BranchScan, (GridSpec(0.1, 1.0, 3), (), ((2.0, "no-undamped-root"),)),
     (GridSpec(0.1, 1.0, 3), (), ()),
     "BranchScan(grid=GridSpec(k_min=0.1, k_max=1.0, count=3, spacing='linear'), points=(), "
     "failures=((2.0, 'no-undamped-root'),))",
     {"failures": ()}),
    # one-element arrays, for a short repr; test_records_holding_arrays_compare_by_value has longer ones
    (AngularGrid, (np.array([0.0]), np.array([2.0])), (np.array([0.0]), np.array([1.0])),
     "AngularGrid(nodes=array([0.]), weights=array([2.]))", {}),
    (AngularState, (np.array([1.0]),), (np.array([2.0]),), "AngularState(values=array([1.+0.j]))", {}),
    (TimeSeries, (0.5, np.array([1j])), (0.25, np.array([1j])),
     "TimeSeries(dt=0.5, samples=array([0.+1.j]))", {}),
    (SpectralPeak, (1.5, 2.0, 0.25), (1.5, 2.0, 0.5),
     "SpectralPeak(frequency=1.5, amplitude=2.0, bin_width=0.25)", {}),
]


@pytest.mark.parametrize("cls, values, other, text, defaults", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record(cls, values, other, text, defaults):
    names = cls.__match_args__
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert repr(record) == text

    required = len(names) - len(defaults)
    assert list(defaults) == list(names[required:])
    for name, value in defaults.items():
        assert getattr(cls, name) == value  # a class attribute, as in the class body
        assert getattr(cls(*values[:required]), name) == value

    for bad_call in (
        lambda: cls(*values, values[-1]),  # a value too many
        lambda: cls(*values, unknown=1),
        lambda: cls(*values, **{names[0]: values[0]}),  # a field given twice
        lambda: cls(**dict(zip(names[1:], values[1:])), unknown=values[0]),  # one unknown for one missing
    ):
        with pytest.raises(TypeError):
            bad_call()
    if required:
        with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) takes the fields .*; missing {names[required - 1]}$"):
            cls(*values[: required - 1])

    for clone in (record, pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text
        with pytest.raises(AttributeError):
            setattr(clone, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(clone, names[0])
        with pytest.raises(AttributeError):
            clone.unknown = 1

    # equal by exact type and every field value
    assert record != cls(*other)
    assert record != type("Copy", (cls,), {})(*values)
    assert record != values
    if any(isinstance(value, np.ndarray) for value in values):
        with pytest.raises(TypeError):
            hash(record)  # an array field is unhashable
    else:
        assert hash(record) == hash(cls(*values))
        assert len({record, cls(*values)}) == 1


def test_record_needs_annotated_fields():
    with pytest.raises(TypeError, match="Empty has no annotated fields"):
        @_record
        class Empty:
            value = 1.0


def test_records_holding_arrays_compare_by_value():
    # == between arrays of several elements has no truth value, and arrays of
    # different lengths do not broadcast: a record compares them by shape and elements
    grid = build_angular_grid(8)
    assert grid == build_angular_grid(8) and not grid != build_angular_grid(8)
    assert grid != build_angular_grid(9) and grid != build_angular_grid(12)
    values = np.arange(1.0, 7.0)
    changed = values.copy()
    changed[3] = 0.5
    assert AngularState(values) == AngularState(values.copy())
    assert AngularState(values) != AngularState(changed)
    assert AngularState(values) != AngularState(values[:5])
    series = TimeSeries(0.5, values)
    assert series == TimeSeries(0.5, values.copy())
    assert series != TimeSeries(0.25, values) and series != TimeSeries(0.5, changed)
    assert series != TimeSeries(0.5, np.arange(1.0, 9.0))
    # other fields compare as tuple items do, identity first: nan equals itself
    peak = SpectralPeak(math.nan, 1.0, 0.25)
    assert peak == peak and copy.copy(peak) == peak
    assert peak != SpectralPeak(float("nan"), 1.0, 0.25)
