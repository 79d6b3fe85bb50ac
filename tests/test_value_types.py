"""Every value type of the package is an immutable slotted class: fields
that cannot be assigned or deleted, ``==``, ``hash`` and ``repr`` by field,
and pickling and copying that restore it."""

import copy
import importlib
import pickle
import pkgutil
from collections.abc import Hashable

import numpy as np
import pytest

import duelbias
from duelbias.bias import FrequencyComparison, RankCurvePoint, RaterSummary, WinFraction
from duelbias.choice_model import ComparisonGraph, ReplicateFits, ScoreTable
from duelbias.duel_table import DuelTable
from duelbias.errors import ValidationError
from duelbias.pipeline import AnalysisConfig, Tournament
from duelbias.records import DuelRecord, Frozen, ItemRecord, TagRecord
from duelbias.settings import FitConfig
from duelbias.stats import PValue
from duelbias.tags import DistinctiveTag, TagDistribution
from duelbias.tournament import RecoveryCurve, SchedulePlan


def _tournament(category="pizza"):
    duel = DuelRecord("d0", category, "tasty", "a1", "b1", "A", "r1")
    graph = ComparisonGraph(["a1", "b1"], [(0, 1)])
    return Tournament(category, "tasty", DuelTable.of([duel]), graph,
                      (np.array([0]), np.array([1])))


def _fits(scale=1.0):
    # one-element arrays, so that comparing two fits by field has a truth value
    return ReplicateFits(np.full((1, 1), scale), np.ones(1), np.ones(1, int),
                         np.ones(1, bool))


# type name: (build a value, build it with one field changed, its fields)
VALUES = {
    "ItemRecord": (
        lambda: ItemRecord("a1", "A", "pizza", "ref/1"),
        lambda: ItemRecord("a1", "A", "salad", "ref/1"),
        ("item_id", "group", "category", "external_ref"),
    ),
    "DuelRecord": (
        lambda: DuelRecord("d0", "pizza", "tasty", "a1", "b1", "A", "r1"),
        lambda: DuelRecord("d0", "pizza", "tasty", "a1", "b1", "B", "r1"),
        ("duel_id", "category", "dimension", "item_a", "item_b", "winner", "rater_id"),
    ),
    "TagRecord": (
        lambda: TagRecord("d0", "a1", "r1", "fresh"),
        lambda: TagRecord("d0", "a1", "r2", "fresh"),
        ("duel_id", "item_id", "rater_id", "raw_text"),
    ),
    "FitConfig": (
        lambda: FitConfig(tolerance=1e-6),
        lambda: FitConfig(tolerance=1e-7),
        ("max_iterations", "tolerance", "regularization_alpha", "normalization"),
    ),
    "PValue": (
        lambda: PValue(log10_value=-400.0),
        lambda: PValue(log10_value=-401.0),
        ("value", "log10_value"),
    ),
    "WinFraction": (
        lambda: WinFraction(0.5, PValue(1.0), 4, 2),
        lambda: WinFraction(0.5, PValue(0.5), 4, 2),
        ("fraction", "p_value", "n", "wins"),
    ),
    "RaterSummary": (
        lambda: RaterSummary({"r1": 0.5}, 0.5, ((0.5, 0.55, 1),)),
        lambda: RaterSummary({"r1": 0.6}, 0.5, ((0.5, 0.55, 1),)),
        ("per_rater", "macro_mean", "histogram"),
    ),
    "RankCurvePoint": (
        lambda: RankCurvePoint(5.0, 40.0),
        lambda: RankCurvePoint(5.0, 45.0),
        ("x", "y"),
    ),
    "FrequencyComparison": (
        lambda: FrequencyComparison(("pizza", "salad"), (0.5, 0.5), (0.25, 0.75),
                                    (0.5, 1.5), None, None),
        lambda: FrequencyComparison(("pizza", "salad"), (0.5, 0.5), (0.25, 0.75),
                                    (0.5, 1.5), 1.0, PValue(0.0)),
        ("categories", "freq_a", "freq_b", "ratio_b_over_a", "spearman_rho",
         "spearman_p"),
    ),
    "ComparisonGraph": (
        lambda: ComparisonGraph(["a", "b", "c"], [(0, 1), (1, 2)]),
        lambda: ComparisonGraph(["a", "b", "c"], [(0, 1), (2, 1)]),
        ("items", "duel_array"),
    ),
    "ScoreTable": (
        lambda: ScoreTable({"a": 2.0, "b": 0.5}, "geometric-mean-one", -1.5, 3, True,
                           0.1),
        lambda: ScoreTable({"a": 2.0, "b": 0.5}, "geometric-mean-one", -1.5, 4, True,
                           0.1),
        ("scores", "normalization", "log_likelihood", "iterations", "converged",
         "regularization", "anchor_score"),
    ),
    "ReplicateFits": (
        _fits,
        lambda: _fits(2.0),
        ("scores", "anchor_scores", "iterations", "converged"),
    ),
    "AnalysisConfig": (
        lambda: AnalysisConfig(dimensions=("tasty",), fit=FitConfig(tolerance=1e-6)),
        lambda: AnalysisConfig(dimensions=("tasty",), fit=FitConfig(tolerance=1e-7)),
        ("dimensions", "categories", "bootstrap_replicates", "bootstrap_unit", "seed",
         "fit"),
    ),
    "Tournament": (
        _tournament,
        lambda: _tournament("salad"),
        ("category", "dimension", "duels", "graph", "groups"),
    ),
    "SchedulePlan": (
        lambda: SchedulePlan(("a1",), ("b1",), 1, (("a1", "b1"),)),
        lambda: SchedulePlan(("a1",), ("b1",), 2, (("a1", "b1"),)),
        ("group_a", "group_b", "duels_per_item", "pairs"),
    ),
    "RecoveryCurve": (
        lambda: RecoveryCurve((100, 200), (0.5, 0.7), (0.1, 0.05), 3, 1),
        lambda: RecoveryCurve((100, 200), (0.5, 0.7), (0.1, 0.05), 3, 2),
        ("budgets", "mean_tau", "std_tau", "replicates", "seed"),
    ),
    "TagDistribution": (
        lambda: TagDistribution({"fresh": 2, "crisp": 1}),
        lambda: TagDistribution({"fresh": 2}),
        ("counts",),
    ),
    "DistinctiveTag": (
        lambda: DistinctiveTag("fresh", 0.2, 5, 1, 3.0, PValue(0.01), "*"),
        lambda: DistinctiveTag("fresh", 0.3, 5, 1, 3.0, PValue(0.01), "*"),
        ("tag", "kl", "count_target", "count_reference", "chi2", "p_value", "stars"),
    ),
}


def _same_fields(x, y, fields):
    for name in fields:
        a, b = getattr(x, name), getattr(y, name)
        if isinstance(a, tuple) and a and isinstance(a[0], np.ndarray):
            assert all(map(np.array_equal, a, b))
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        elif name == "duels":
            assert list(a) == list(b)
        else:
            assert a == b, name


@pytest.mark.parametrize("make, make_other, fields", VALUES.values(), ids=VALUES)
def test_immutable_slotted_value(make, make_other, fields):
    value = make()
    cls = type(value)
    assert not hasattr(value, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
        getattr(value, name)  # still set

    twin, other = make(), make_other()
    if cls is Tournament:  # equal only to itself
        assert value == value and twin != value and hash(value) != hash(twin)
    else:
        assert twin == value and not twin != value
        if cls is ComparisonGraph or all(
            isinstance(getattr(value, name), Hashable) for name in fields
        ):
            assert hash(twin) == hash(value)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
    assert other != value and value != other
    assert value != tuple(getattr(value, name) for name in fields)

    if cls is not PValue:  # which writes its own
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert repr(value) == f"{cls.__name__}({shown})"

    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(again) is cls and again is not value
        _same_fields(again, value, fields)
        assert repr(again) == repr(value)
        if cls is not Tournament:
            assert again == value

    # replace the fields that make_other changes (Tournament's duels change
    # with its category): a copy of other, by field
    changes = {name: getattr(other, name) for name in fields
               if not _fields_match(value, other, name)}
    assert changes
    _same_fields(value.replace(**changes), other, fields)


def _fields_match(x, y, name):
    try:
        _same_fields(x, y, (name,))
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("make, make_other, fields", VALUES.values(), ids=VALUES)
def test_asdict_maps_the_fields_in_order(make, make_other, fields):
    value = make()
    mapping = value._asdict()
    assert list(mapping) == list(fields) == list(value._fields)
    assert all(mapping[name] is getattr(value, name) for name in fields)


def test_analysis_config_keeps_its_filters_as_tuples():
    listed = AnalysisConfig(dimensions=["tasty"], categories=["pizza", "salad"])
    tupled = AnalysisConfig(dimensions=("tasty",), categories=("pizza", "salad"))
    assert (listed.dimensions, listed.categories) == (("tasty",), ("pizza", "salad"))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert AnalysisConfig().dimensions is None
    # an empty filter stays one: it keeps no dimension, where None keeps all
    assert AnalysisConfig(dimensions=[]).dimensions == ()


@pytest.mark.parametrize("field", ["dimensions", "categories"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("tasty", "must be a sequence of names, not the string 'tasty'"),
        (5, "must be a sequence of names, got 5"),
        (2.5, "must be a sequence of names, got 2.5"),
    ],
    ids=["string", "int", "float"],
)
def test_analysis_config_rejects_a_filter_that_is_no_sequence(field, value, message):
    with pytest.raises(ValidationError, match=f"^{field} {message}$"):
        AnalysisConfig(**{field: value})


def test_tag_stars_are_not_compared():
    starred = DistinctiveTag("fresh", 0.2, 5, 1, 3.0, PValue(0.01), "*")
    plain = starred.replace(stars="")
    assert plain.stars == "" and plain == starred and hash(plain) == hash(starred)


def test_tag_distribution_total_survives_copies():
    dist = TagDistribution({"fresh": 2, "crisp": 1})
    for again in (pickle.loads(pickle.dumps(dist)), copy.deepcopy(dist)):
        assert again.total == dist.total == 3


def test_replace_applies_the_rules():
    config = FitConfig(tolerance=1e-6)
    assert config.replace() == config and config.replace() is not config
    assert config.replace(max_iterations=7) == FitConfig(7, tolerance=1e-6)
    with pytest.raises(ValidationError, match="^max_iterations must be >= 1$"):
        config.replace(max_iterations=0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'iterations'"):
        config.replace(iterations=7)


# the types whose constructor is Frozen's: it takes the fields in order, by
# position or keyword
PLAIN = ("WinFraction", "RaterSummary", "RankCurvePoint", "FrequencyComparison",
         "ReplicateFits", "Tournament", "DistinctiveTag", "SchedulePlan",
         "RecoveryCurve")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_type_is_checked():
    for module in pkgutil.iter_modules(duelbias.__path__):
        importlib.import_module(f"duelbias.{module.name}")
    defined = {sub.__name__ for sub in _subclasses(Frozen)
               if sub.__module__.startswith("duelbias.")}
    assert defined == set(VALUES)


@pytest.mark.parametrize("name", PLAIN)
def test_plain_type_takes_its_fields_in_order(name):
    make, _, fields = VALUES[name]
    value = make()
    cls = type(value)
    assert "__init__" not in cls.__dict__ and cls._fields == cls.__slots__ == fields
    values = [getattr(value, field) for field in fields]
    by_keyword = dict(zip(fields, values))
    mixed = dict(list(by_keyword.items())[1:])
    for again in (cls(*values), cls(**by_keyword), cls(values[0], **mixed),
                  cls(*values[:-1], **{fields[-1]: values[-1]})):
        assert type(again) is cls
        _same_fields(again, value, fields)


_TAG = ("fresh", 0.2, 5, 1, 3.0)  # DistinctiveTag's fields before p_value


def test_tag_stars_default_to_empty():
    fields = (*_TAG, PValue(0.01))
    tag = DistinctiveTag(*fields)
    assert tag.stars == "" and tag == DistinctiveTag(*fields, "*")
    assert DistinctiveTag(**dict(zip(DistinctiveTag._fields, fields))).stars == ""


@pytest.mark.parametrize(
    "cls, args, kwargs, message",
    [
        (RankCurvePoint, (5.0, 40.0, 1.0), {}, "RankCurvePoint() takes 2 arguments, got 3"),
        (RankCurvePoint, (5.0,), {"z": 40.0},
         "RankCurvePoint() got an unexpected keyword argument 'z'"),
        (RankCurvePoint, (5.0, 40.0), {"x": 5.0},
         "RankCurvePoint() got multiple values for argument 'x'"),
        (RankCurvePoint, (5.0,), {}, "RankCurvePoint() missing argument 'y'"),
        (RankCurvePoint, (), {"y": 40.0}, "RankCurvePoint() missing argument 'x'"),
        (DistinctiveTag, _TAG, {}, "DistinctiveTag() missing argument 'p_value'"),
        (DistinctiveTag, (*_TAG, PValue(0.01), "*"), {"stars": ""},
         "DistinctiveTag() got multiple values for argument 'stars'"),
    ],
    ids=["too-many", "unknown", "repeated", "missing-last", "missing-first",
         "missing-before-a-default", "repeated-default"],
)
def test_plain_constructor_rejects_bad_arguments(cls, args, kwargs, message):
    with pytest.raises(TypeError) as caught:
        cls(*args, **kwargs)
    assert str(caught.value) == message
