"""The package's frozen records against frozen dataclasses of the same
fields: what @dataclass(frozen=True) gave each record, model._Record and
the __init__ it generates for the record must still give."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from tamsde import (ComparisonRow, CoupledSample, DissipativityReport,
                    InputError, MomentEstimate, MseRow, NoiseSource,
                    OneSidedLipschitzReport, PowerSum, PowerSumDerivative,
                    PowerTerm, RateFit, RegularityConstants, SchemeConfig,
                    SdeModel, Trajectory, check_dissipativity,
                    check_one_sided_lipschitz, compare_schemes,
                    estimate_moment, estimate_mse, fit_convergence_rate,
                    get_model, simulate_coupled_pair, simulate_path)
from tamsde.cli import ExperimentConfig

M1 = get_model("model1")
TERMS = (PowerTerm(0.5, 1, 0.5), PowerTerm(-1.0, 3))

RECORDS = [RegularityConstants, SdeModel, DissipativityReport,
           OneSidedLipschitzReport, PowerTerm, PowerSum, PowerSumDerivative,
           SchemeConfig, Trajectory, CoupledSample, MseRow, MomentEstimate,
           RateFit, ComparisonRow, ExperimentConfig]


@pytest.fixture(scope="module")
def examples():
    """One record of each type, each as a library call makes it where
    one does."""
    rows = [estimate_mse(M1, 1.0, 2.0, k, 20, 1.0, 5) for k in (1, 2)]
    made = [
        M1.regularity,
        M1,
        check_dissipativity(M1, [0.0, 1.0]),
        check_one_sided_lipschitz(M1, [(0.0, 1.0), (2.0, -1.0)]),
        TERMS[0],
        PowerSum(TERMS),
        PowerSumDerivative(TERMS),
        SchemeConfig(0.25, 1.0, max_steps=1000),
        simulate_path(M1, SchemeConfig(0.25, 1.0), NoiseSource(3)),
        simulate_coupled_pair(M1, 1.0, 2.0, 1, 0.5, 3),
        rows[0],
        estimate_moment(M1, SchemeConfig(0.25, 1.0), 2.0, 20, 5),
        fit_convergence_rate(rows),
        compare_schemes(M1, 1.0, 2.0, [1], 10, [1.0], 5)[0],
        ExperimentConfig("rate", "model1", t_values=[2.0]),
    ]
    assert [type(record) for record in made] == RECORDS
    return dict(zip(RECORDS, made))


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def record(request, examples):
    return examples[request.param]


def oracle(cls):
    """The frozen dataclass @dataclass(frozen=True) made of cls's class
    body: the fields its annotations name, the defaults its class
    attributes give, and its __post_init__."""
    spec = [(name, kind) if name not in vars(cls) else
            (name, kind, dataclasses.field(default=vars(cls)[name]))
            for name, kind in cls.__annotations__.items()]
    return dataclasses.make_dataclass(
        cls.__name__, spec, namespace={"__post_init__": cls.__post_init__},
        frozen=True, eq=cls.__eq__ is not object.__eq__)


def values(record):
    return {name: getattr(record, name)
            for name in type(record).__annotations__}


def both(record):
    """(record type, its dataclass, the record's field values)."""
    return type(record), oracle(type(record)), values(record)


def outcome(make):
    """The repr of what make() gives, or the type and text of what it
    raises."""
    try:
        return repr(make())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def parameters(cls):
    """The name, kind and default of each parameter of cls's signature."""
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(cls).parameters.values()]


def attribute_error(action, obj):
    with pytest.raises(AttributeError) as exc:
        action(obj)
    return str(exc.value)


class TestParity:
    def test_fields_in_order_with_defaults(self, record):
        cls, data, kwargs = both(record)
        fields = dataclasses.fields(data)
        assert cls._fields == tuple(f.name for f in fields)
        assert cls._defaults == {f.name: f.default for f in fields
                                 if f.default is not dataclasses.MISSING}
        # by position, and with the defaults left out
        required = [kwargs[f.name] for f in fields
                    if f.default is dataclasses.MISSING]
        assert repr(cls(*kwargs.values())) == repr(data(*kwargs.values()))
        assert repr(cls(*required)) == repr(data(*required))

    def test_signature(self, record):
        # what help() and inspect read off the class, parameter by parameter
        cls, data, _ = both(record)
        assert parameters(cls) == parameters(data)

    def test_repr(self, record):
        cls, data, kwargs = both(record)
        assert repr(record) == repr(data(**kwargs))
        assert repr(cls(**dict(reversed(kwargs.items())))) == repr(record)

    def test_eq_and_hash(self, record):
        cls, data, kwargs = both(record)
        twin, other, other_twin = cls(**kwargs), data(**kwargs), data(**kwargs)
        assert (twin == record, twin != record) == (other_twin == other,
                                                    other_twin != other)
        assert record == record and not record != record
        # equal values in two types are two unequal objects
        assert record != other and other != record and not record == other
        if cls.__eq__ is not object.__eq__:
            assert hash(twin) == hash(record) == hash(other)

    def test_type_errors(self, record):
        cls, data, kwargs = both(record)
        first, *_ = kwargs
        # 'zzzz' is near no field's name, so no Python suggests one; the
        # first field's name with its last letter doubled is one edit away
        # from it, and 3.13 adds "Did you mean" to that keyword's TypeError
        calls = [
            ((), {}),                                         # missing
            ((kwargs[first],), {}),
            ((*kwargs.values(), None), {}),                   # extra
            ((), {**kwargs, "zzzz": None}),
            ((), {**kwargs, first + first[-1]: None}),        # misspelt
            ((*kwargs.values(), None), {"zzzz": None}),
            ((kwargs[first],), kwargs),                       # repeated
            ((*kwargs.values(), None), {first: None}),
        ]
        for args, named in calls:
            want = outcome(lambda: data(*args, **named))
            assert outcome(lambda: cls(*args, **named)) == want
        assert outcome(cls)[0] == "TypeError"

    def test_assigning_or_deleting_an_attribute(self, record):
        _, data, kwargs = both(record)
        other = data(**kwargs)
        for name in (*kwargs, "zzzz"):
            for action in (lambda obj: setattr(obj, name, None),
                           lambda obj: delattr(obj, name)):
                assert attribute_error(action, record) == attribute_error(
                    action, other)
        assert values(record) == kwargs

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles(self, record, protocol):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and repr(back) == repr(record)
        if type(record).__eq__ is not object.__eq__:
            assert back == record and hash(back) == hash(record)

    def test_copies(self, record):
        for back in (copy.copy(record), copy.deepcopy(record)):
            assert type(back) is type(record) and repr(back) == repr(record)
            if type(record).__eq__ is not object.__eq__:
                assert back == record

    def test_replace_is_dataclasses_replace(self, record):
        cls, data, kwargs = both(record)
        first, *_ = kwargs
        assert repr(record.replace()) == repr(record)
        assert repr(record.replace(**{first: kwargs[first]})) == repr(
            dataclasses.replace(data(**kwargs), **{first: kwargs[first]}))
        assert outcome(lambda: record.replace(zzzz=1)) == outcome(
            lambda: dataclasses.replace(data(**kwargs), zzzz=1))


@pytest.mark.parametrize("record, change", [
    (M1, {"x0": float("nan")}),
    (M1.regularity, {"alpha": 1.5}),
    (SchemeConfig(0.25, 1.0), {"delta": 2.0}),
    (TERMS[0], {"abs_power": -1.0}),
    (ExperimentConfig("rate", "model1"), {"k_min": 0}),
])
def test_replace_runs_the_checks_again(record, change):
    with pytest.raises(InputError):
        record.replace(**change)


def test_replace_normalises_as_the_constructor():
    model = M1.replace(x0=1)
    assert type(model.x0) is float and model.x0 == 1.0
    assert model.replace(x0=M1.x0) == M1
