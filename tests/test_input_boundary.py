"""Malformed input ends as ``error:`` with exit code 1, never as a traceback
or a silently coerced value.

The regression cases are inputs that once escaped as tracebacks or were
coerced (a float truncated to an integer, a string read as a number). The
fuzz test replaces one field of a valid input with a value of the wrong type
or range and requires either that error or valid output.
"""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interfere as itf
import interfere.io as pkgio
from interfere import cli
from interfere.cli import main
from interfere.errors import DegenerateVarianceError, ValidationError
from interfere.io import RunConfig


UNITS_CSV = """id,x,y,treatment,outcome,enrollment
a,0.0,0.0,1,4,9
b,1.0,0.1,1,7,8
c,2.0,0.0,0,3,3
d,3.0,0.1,1,1,5
e,4.0,0.0,1,6,6
f,5.0,0.1,1,2,7
"""

COUNTS_CSV = """arm,total,positive
control,500,30
treated,400,20
"""

RUN_CONFIG = {
    "rho": 0.5,
    "alpha": 0.05,
    "mapping": {"kind": "threshold", "d_min": 2},
    "neighborhood": {"d": 3},
    "p_method": {"kind": "mc", "samples": 200, "seed": 1},
    "diagnostics": {"c": 0.5},
}

SCAN_CONFIG = {"rho": 0.5, "alpha": 0.05, "bonferroni": [[1, 1], [2, 3]]}

PRODUCT_CONFIG = {"rho": 0.5, "mapping": {"kind": "product"}, "neighborhood": {"d": 2}}

NEIGHBORHOODS = [[i, (i + 1) % 6] for i in range(6)]

SIM_CONFIG = {
    "scenario": "exposure_model",
    "layout": {"kind": "uniform_square", "n": 12, "seed": 1},
    "rho": 0.5,
    "alpha": 0.05,
    "configs": [[1, 1], [2, 3]],
    "replicates": 3,
    "seed": 2,
    "params": {"count_mean": 8.0, "count_dispersion": 2.0, "spillover_max": 5.0},
}

JSON_MUTANTS = ("x", True, None, [], {}, 2.5, math.nan, math.inf, -math.inf, -1, -2.5)
CSV_MUTANTS = ("x", "true", "", "[]", "{}", "2.5", "nan", "inf", "-inf", "-1")


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def with_field(document, path, value):
    """Copy of a JSON document with the value at key path ``path`` replaced."""
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


def json_paths(document, prefix=()):
    """Key paths of every value in a JSON document, the root included."""
    yield prefix
    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def with_cell(text, row, column, value):
    lines = [line.split(",") for line in text.splitlines()]
    lines[row][column] = value
    return "\n".join(",".join(cells) for cells in lines) + "\n"


def estimate_config(tmp_path, **changes):
    config = write_json(tmp_path / "c.json", {**RUN_CONFIG, **changes})
    return ["estimate", "--config", config, "--data", _units(tmp_path)]


def simulate_config(tmp_path, **changes):
    return ["simulate", "--config", write_json(tmp_path / "s.json", {**SIM_CONFIG, **changes})]


def _units(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text(UNITS_CSV)
    return path


def _counts(tmp_path, total):
    path = tmp_path / "counts.csv"
    path.write_text(with_cell(COUNTS_CSV, 1, 1, total))
    return ["contrast", "--count-mode", "--data", path]


def _neighborhoods(tmp_path, value, path=(1, 1)):
    nbhd = write_json(tmp_path / "nbhd.json", with_field(NEIGHBORHOODS, path, value))
    config = write_json(tmp_path / "p.json", PRODUCT_CONFIG)
    return ["estimate", "--config", config, "--data", _units(tmp_path), "--neighborhoods", nbhd]


REGRESSIONS = {
    "estimate d is a string": lambda t: estimate_config(t, neighborhood={"d": "two"}),
    "estimate mapping is a number": lambda t: estimate_config(t, mapping=5),
    "estimate mapping is a list": lambda t: estimate_config(t, mapping=[[1]]),
    "estimate rho is null": lambda t: estimate_config(t, rho=None),
    "estimate bonferroni entry is a string": lambda t: estimate_config(t, bonferroni=[["a", 3]]),
    "estimate diagnostics c is a string": lambda t: estimate_config(t, diagnostics={"c": "x"}),
    "estimate d is not integral": lambda t: estimate_config(t, neighborhood={"d": 3.7}),
    "estimate d_min is a boolean": lambda t: estimate_config(t, mapping={"kind": "threshold", "d_min": True}),
    "estimate rho is a string": lambda t: estimate_config(t, rho="0.5"),
    "estimate samples is not integral": lambda t: estimate_config(t, p_method={"kind": "mc", "samples": 100.9}),
    "estimate mc seed exceeds 64 bits": lambda t: estimate_config(
        t, p_method={"kind": "mc", "samples": 10, "seed": 2**64}
    ),
    "estimate mc seed exceeds 63 bits": lambda t: estimate_config(
        t, p_method={"kind": "mc", "samples": 200, "seed": 9223372036854775809}
    ),
    "neighborhood index is a string": lambda t: _neighborhoods(t, "a"),
    "neighborhood index exceeds 64 bits": lambda t: _neighborhoods(t, 2**70),
    "neighborhood index is not integral": lambda t: _neighborhoods(t, 1.5),
    "neighborhood row repeats an index": lambda t: _neighborhoods(t, [0, 1, 1], (0,)),
    "count total is nan": lambda t: _counts(t, "nan"),
    "count total is inf": lambda t: _counts(t, "inf"),
    "count total is not integral": lambda t: _counts(t, "10.7"),
    "simulate layout is a number": lambda t: simulate_config(t, layout=5),
    "simulate configs is a number": lambda t: simulate_config(t, configs=5),
    "simulate seed is negative": lambda t: simulate_config(t, seed=-1),
    "simulate seed flag is negative": lambda t: simulate_config(t) + ["--seed", "-5"],
    "simulate replicates is not integral": lambda t: simulate_config(t, replicates=2.9),
    "simulate layout n is not integral": lambda t: simulate_config(
        t, layout={"kind": "uniform_square", "n": 49.5, "seed": 7}
    ),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_malformed_input_is_an_error(tmp_path, case):
    code, out, err = run(REGRESSIONS[case](tmp_path))
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_repeated_neighborhood_index_names_the_row(tmp_path):
    _, _, err = run(_neighborhoods(tmp_path, [0, 1, 1], (0,)))
    assert err == "error: neighborhood 0 repeats index 1\n"


def _ring(n=8, d=3):
    return itf.NeighborhoodSet(members=(np.arange(n)[:, None] + np.arange(d)) % n)


# Library entry points that take an integer, each called with the value under test.
LIBRARY_INTEGERS = {
    "ExposureMapping.threshold d_min": lambda v: itf.ExposureMapping.threshold(v),
    "build_knn_neighborhoods d": lambda v: itf.build_knn_neighborhoods(np.arange(6.0), v),
    "monte_carlo_profile num_samples": lambda v: itf.monte_carlo_profile(
        _ring(), itf.ExposureMapping.threshold(2), 0.5, v
    ),
    "synthetic_layout n": lambda v: itf.synthetic_layout("uniform_square", v),
    "run_coverage_experiment replicates": lambda v: itf.run_coverage_experiment(
        itf.Scenario(kind="no_effect_no_clustering", layout=np.arange(10.0)), [(1, 2)], 0.05, v
    ),
    "run_coverage_experiment configs": lambda v: itf.run_coverage_experiment(
        itf.Scenario(kind="no_effect_no_clustering", layout=np.arange(10.0)), [(1, v)], 0.05, 1
    ),
    "concentration_check num_draws": lambda v: itf.concentration_check(np.array([0, 1, 1, 0]), v, 2),
    "concentration_check treated-group size": lambda v: itf.concentration_check(np.array([0, 1, 1, 0]), 5, v),
    "attributable_contrast_from_counts n_treated": lambda v: itf.attributable_contrast_from_counts(
        v, 1, 4, 2, 0.05
    ),
    "monte_carlo_profile seed": lambda v: itf.monte_carlo_profile(
        _ring(), itf.ExposureMapping.threshold(2), 0.5, 10, v
    ),
    "concentration_check seed": lambda v: itf.concentration_check(np.array([0, 1, 1, 0]), 5, 2, seed=v),
    "synthetic_layout seed": lambda v: itf.synthetic_layout("uniform_square", 5, v),
    "Scenario seed": lambda v: itf.run_coverage_experiment(
        itf.Scenario(kind="no_effect_no_clustering", layout=np.arange(10.0), seed=v), [(1, 2)], 0.05, 1
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_INTEGERS))
def test_library_integers_are_not_truncated(case):
    call = LIBRARY_INTEGERS[case]
    call(2.0)
    for bad in (2.5, True, math.nan):
        with pytest.raises(ValidationError, match="must be an integer"):
            call(bad)


# Library entry points that take a seed: (call, seeds its generator accepts, seeds it rejects).
# A Philox seed lies in [-2**63, 2**63), where numpy converts the key
# [seed, shard] exactly.
LIBRARY_SEEDS = {
    "monte_carlo_profile": (
        lambda v: itf.monte_carlo_profile(_ring(), itf.ExposureMapping.threshold(2), 0.5, 10, v),
        (-(2**63), 2**63 - 1),
        (-(2**63) - 1, 2**63, 2**64 - 1),
    ),
    "concentration_check": (
        lambda v: itf.concentration_check(np.array([0, 1, 1, 0]), 5, 2, seed=v),
        (-(2**63), 2**63 - 1),
        (-(2**63) - 1, 2**63, 2**64 - 1),
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_SEEDS))
def test_library_seeds_outside_the_generator_range_are_errors(case):
    call, accepted, rejected = LIBRARY_SEEDS[case]
    for seed in accepted:
        call(seed)
    for seed in rejected:
        with pytest.raises(ValidationError, match="seed must"):
            call(seed)


# Library entry points that take a probability in (0, 1), each called with
# the value under test, and the name their error gives it.
LIBRARY_PROBABILITIES = {
    "Population rho": (
        lambda v: itf.Population(ids=(0, 1), coords=np.arange(2.0), treatment=[0, 1], outcome=[1.0, 2.0], rho=v),
        "treatment probability",
    ),
    "Scenario rho": (
        lambda v: itf.Scenario(kind="no_effect_no_clustering", layout=np.arange(10.0), rho=v),
        "treatment probability",
    ),
    "RunConfig rho": (lambda v: RunConfig(rho=v), "config: rho"),
    "RunConfig alpha": (lambda v: RunConfig(rho=0.5, alpha=v), "config: alpha"),
    "exact_profile rho": (
        lambda v: itf.exact_profile(_ring(), itf.ExposureMapping.threshold(2), v), "treatment probability"
    ),
    "monte_carlo_profile rho": (
        lambda v: itf.monte_carlo_profile(_ring(), itf.ExposureMapping.threshold(2), v, 10),
        "treatment probability",
    ),
    "enumerated_profile rho": (
        lambda v: itf.enumerated_profile(_ring(), itf.ExposureMapping.threshold(2), v), "treatment probability"
    ),
    "attributable_contrast alpha": (lambda v: itf.attributable_contrast([0, 1, 1, 0], [1, 0, 1, 0], v), "alpha"),
    "attributable_contrast_from_counts alpha": (
        lambda v: itf.attributable_contrast_from_counts(4, 1, 4, 2, v), "alpha"
    ),
    "exposure_attributable_contrast alpha": (
        lambda v: itf.exposure_attributable_contrast(
            np.zeros(8), itf.EffectiveTreatment(np.eye(8, dtype=np.int8)[0], 1),
            itf.exact_profile(_ring(), itf.ExposureMapping.threshold(2), 0.5), v,
        ),
        "alpha",
    ),
    "concentration_check alpha": (lambda v: itf.concentration_check(np.array([0, 1, 1, 0]), 5, 2, alpha=v), "alpha"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_PROBABILITIES))
def test_library_probabilities_lie_strictly_between_0_and_1(case):
    call, name = LIBRARY_PROBABILITIES[case]
    call(0.25)
    for bad in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValidationError) as info:
            call(bad)
        assert str(info.value) == f"{name} must lie in (0, 1), got {bad}"


# Library entry points that take a count of at least 1, and the name their error gives it.
LIBRARY_COUNTS = {
    "monte_carlo_profile num_samples": "num_samples",
    "run_coverage_experiment replicates": "replicates",
    "concentration_check num_draws": "num_draws",
}


@pytest.mark.parametrize("case", sorted(LIBRARY_COUNTS))
def test_library_counts_are_at_least_1(case):
    for bad in (0, -3, 0.0):
        with pytest.raises(ValidationError) as info:
            LIBRARY_INTEGERS[case](bad)
        assert str(info.value) == f"{LIBRARY_COUNTS[case]} must be at least 1"


# Typed constructors given raw values that a cast would truncate, wrap or parse.
RAW_CONSTRUCTOR_VALUES = {
    "neighborhood index is not integral": lambda: itf.NeighborhoodSet(members=[[0, 1.5], [1, 0.2]]),
    "neighborhood index is a string": lambda: itf.NeighborhoodSet(members=[["0", "1"], ["1", "0"]]),
    "neighborhood index is a boolean": lambda: itf.NeighborhoodSet(members=[[True, False], [False, True]]),
    "neighborhood index exceeds 64 bits": lambda: itf.NeighborhoodSet(members=[[0, 2**70], [1, 0]]),
    "neighborhood index exceeds 63 bits": lambda: itf.NeighborhoodSet(members=[[0, 2**63], [1, 0]]),
    "neighborhood index is nan": lambda: itf.NeighborhoodSet(members=[[0, math.nan], [1, 0]]),
    "indicator entry is not integral": lambda: itf.EffectiveTreatment(indicator=[0.5, 1, 0], count=1),
    "indicator entry exceeds int8": lambda: itf.EffectiveTreatment(indicator=[257, 0, 1], count=2),
    "indicator entry is a string": lambda: itf.EffectiveTreatment(indicator=["1", "0"], count=1),
}


@pytest.mark.parametrize("case", sorted(RAW_CONSTRUCTOR_VALUES))
def test_constructors_check_raw_values_before_the_cast(case):
    with pytest.raises(ValidationError):
        RAW_CONSTRUCTOR_VALUES[case]()


def test_constructors_accept_integral_floats_and_boolean_indicators():
    nbhd = itf.NeighborhoodSet(members=[[1.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    assert nbhd.members.dtype == np.int64 and nbhd.members.tolist() == [[0, 1], [1, 2], [0, 2]]
    exposure = itf.EffectiveTreatment(indicator=np.array([True, False, True]), count=2)
    assert exposure.indicator.dtype == np.int8 and exposure.indicator.tolist() == [1, 0, 1]


RING = _ring(6, 3)
THRESHOLD = itf.ExposureMapping.threshold(2)
PROFILE = itf.exact_profile(RING, THRESHOLD, 0.5)
EXPOSED = itf.evaluate_exposure([1, 1, 0, 1, 1, 1], RING, THRESHOLD)
BINARY = [0, 1, 1, 0, 1, 0]


def _population(**arrays):
    fields = dict(ids=tuple("abcdef"), coords=np.arange(6.0), treatment=[1, 1, 0, 1, 1, 1], outcome=np.arange(6.0))
    return itf.Population(rho=0.5, **{**fields, **arrays})


# Library entry points that read an array, each called with the value under test in its place.
LIBRARY_ARRAYS = {
    "NeighborhoodSet members": lambda v: itf.NeighborhoodSet(members=v),
    "EffectiveTreatment indicator": lambda v: itf.EffectiveTreatment(indicator=v, count=1),
    "Population coords": lambda v: _population(coords=v),
    "Population treatment": lambda v: _population(treatment=v),
    "Population outcome": lambda v: _population(outcome=v),
    "Population enrollment": lambda v: _population(enrollment=v),
    "build_knn_neighborhoods coords": lambda v: itf.build_knn_neighborhoods(v, 2),
    "evaluate_exposure assignment": lambda v: itf.evaluate_exposure(v, RING, THRESHOLD),
    "evaluate_exposure_many assignments": lambda v: itf.evaluate_exposure_many(v, RING, THRESHOLD),
    "attributable_contrast treatment": lambda v: itf.attributable_contrast(v, BINARY, 0.05),
    "attributable_contrast outcome": lambda v: itf.attributable_contrast(BINARY, v, 0.05),
    "exposure_attributable_contrast outcome": lambda v: itf.exposure_attributable_contrast(v, EXPOSED, PROFILE, 0.05),
    "conservative_variance values": lambda v: itf.conservative_variance(v, EXPOSED, PROFILE),
    "variance_estimate values": lambda v: itf.variance_estimate(v, EXPOSED, PROFILE),
    "point_estimate values": lambda v: itf.point_estimate(v, EXPOSED),
    "ideal_upper_bound theta": lambda v: itf.ideal_upper_bound(v, EXPOSED, PROFILE, 0.05),
    "Scenario layout": lambda v: itf.Scenario(kind="no_effect_clustering", layout=v),
    "concentration_check outcomes": lambda v: itf.concentration_check(v, 5, 2),
    "center_excess joint": lambda v: itf.center_excess(v, 0.5),
}
# Public functions that take a profile, each called with the value under test in its place.
PROFILE_ARGUMENTS = {
    "variance_estimate": lambda v: itf.variance_estimate(np.arange(6.0), EXPOSED, v),
    "conservative_variance": lambda v: itf.conservative_variance(np.arange(6.0), EXPOSED, v),
    "validity_condition": lambda v: itf.validity_condition(1.0, 1.0, v, 0.05, 5),
    "upper_confidence_bound": lambda v: itf.upper_confidence_bound(_population(), EXPOSED, v, 0.05),
    "ideal_upper_bound": lambda v: itf.ideal_upper_bound(np.arange(6.0), EXPOSED, v, 0.05),
    "full_control_lower_bound": lambda v: itf.full_control_lower_bound(
        _population(enrollment=np.arange(6.0) + 1.0), EXPOSED, v, 0.05
    ),
    "exposure_attributable_contrast": lambda v: itf.exposure_attributable_contrast(BINARY, EXPOSED, v, 0.05),
    "largest_centered_eigenvalue": lambda v: itf.largest_centered_eigenvalue(v),
}
NOT_PROFILES = {"list": [[1, 0], [0, 1]], "text": "x", "none": None, "identity": np.eye(6), "dense joint": PROFILE.joint}
RAGGED = {"ragged integers": [[0, 1], [1]], "ragged floats": [[0.0, 1.0], [1.0]], "ragged depth": [[0.0], 1.0]}
TEXT = {"text": list("abcdef"), "numeric text": list("101111"), "text matrix": [["a", "b"], ["c", "d"]]}


@pytest.mark.parametrize("value", list(RAGGED.values()) + list(TEXT.values()), ids=list(RAGGED) + list(TEXT))
@pytest.mark.parametrize("case", sorted(LIBRARY_ARRAYS))
def test_library_arrays_are_rectangular_and_numeric(case, value):
    with pytest.raises(ValidationError) as info:
        LIBRARY_ARRAYS[case](value)
    if value in RAGGED.values():
        assert str(info.value).endswith("must be a rectangular array of numbers")


@pytest.mark.parametrize("value", list(NOT_PROFILES.values()), ids=list(NOT_PROFILES))
@pytest.mark.parametrize("case", sorted(PROFILE_ARGUMENTS))
def test_profile_arguments_are_profiles(case, value):
    # The profile itself works in each call.
    PROFILE_ARGUMENTS[case](PROFILE)
    with pytest.raises(ValidationError) as info:
        PROFILE_ARGUMENTS[case](value)
    assert str(info.value) == f"profile must be an ExposureProfile, got {type(value).__name__}"


@pytest.mark.parametrize("configs", [[(1, 2, 3)], [(1,)], [1], [None], [(1, 1), (2, 3, 4)]])
def test_design_lists_hold_pairs(configs):
    scenario = itf.Scenario(kind="no_effect_no_clustering", layout=np.arange(10.0))
    for call in (
        lambda: itf.bonferroni_scan(_population(), configs, 0.05),
        lambda: itf.run_coverage_experiment(scenario, configs, 0.05, 1),
    ):
        with pytest.raises(ValidationError, match=r"a \(d_min, d\) configuration must be a pair, got "):
            call()


def _file(tmp_path, text, name="input.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


UNITS_HEADER = "id,x,treatment,outcome\n"
RING_8 = itf.exact_profile(_ring(8, 3), THRESHOLD, 0.5)

# One call per rule that no other test breaks, each given the path of a scratch
# directory, and the error and exact message it raises.
REJECTIONS = {
    "neighborhood file of another size": (
        lambda t: cli._neighborhoods("estimate", RunConfig(rho=0.5, mapping=THRESHOLD), _population(),
                                     write_json(t / "nbhd.json", [[0, 1], [1, 0]])),
        ValidationError, "neighborhood file and unit table differ in unit count",
    ),
    "empty treated arm": (
        lambda t: itf.attributable_contrast_from_counts(0, 0, 5, 1, 0.05),
        ValidationError, "treated arm is empty; both arms are required",
    ),
    "treated positives above the total": (
        lambda t: itf.attributable_contrast_from_counts(5, 6, 5, 1, 0.05),
        ValidationError, "treated positives must lie in [0, 5], got 6",
    ),
    "treatment and outcome lengths": (
        lambda t: itf.attributable_contrast([0, 1, 1], [0, 1], 0.05),
        ValidationError, "treatment and outcome vectors differ in length",
    ),
    "treated-group size": (
        lambda t: itf.concentration_check([0, 1, 1, 0], 5, 4),
        ValidationError, "treated-group size must lie in [1, 3], got 4",
    ),
    "coordinates of 3 dimensions": (
        lambda t: itf.build_knn_neighborhoods(np.zeros((3, 2, 2)), 2),
        ValidationError, "coordinates must form an (n, dim) array",
    ),
    "population of one unit": (
        lambda t: itf.Population(ids=("a",), coords=[0.0], treatment=[1], outcome=[1.0], rho=0.5),
        ValidationError, "a population needs at least 2 units, got 1",
    ),
    "ids and coordinates": (
        lambda t: _population(ids=("a", "b")),
        ValidationError, "2 ids for 6 coordinate rows",
    ),
    "neighborhood members of one dimension": (
        lambda t: itf.NeighborhoodSet(members=[0, 1]),
        ValidationError, "neighborhood members must form an (n, k) index array",
    ),
    "empty neighborhoods": (
        lambda t: itf.NeighborhoodSet(members=np.zeros((3, 0), dtype=int)),
        ValidationError, "neighborhoods must be nonempty",
    ),
    "mapping kind": (
        lambda t: itf.ExposureMapping("majority"),
        ValidationError, "unknown exposure mapping kind 'majority'",
    ),
    "coordinate is nan": (
        lambda t: itf.build_knn_neighborhoods([0.0, math.nan, 1.0], 2),
        ValidationError, "coordinates must be finite",
    ),
    "joint matrix is not square": (
        lambda t: itf.center_excess(np.zeros((2, 3)), 0.5),
        ValidationError, "joint probability matrix must be square",
    ),
    "eigenvalue of a list": (
        lambda t: itf.largest_centered_eigenvalue([[1, 0], [0, 1]]),
        ValidationError, "profile must be an ExposureProfile, got list",
    ),
    "empty unit table": (
        lambda t: pkgio.load_units(_file(t, ""), 0.5),
        ValidationError, "{t}/input.csv: empty file",
    ),
    "unreadable unit table": (
        lambda t: pkgio.load_units(_file(t, UNITS_HEADER + "x" * 200_000), 0.5),
        ValidationError, "{t}/input.csv: not a readable CSV file: field larger than field limit (131072)",
    ),
    "unit table of one row": (
        lambda t: pkgio.load_units(_file(t, UNITS_HEADER + "a,0,1,1\n"), 0.5),
        ValidationError, "a population needs at least 2 units, got 1",
    ),
    "count table repeats an arm": (
        lambda t: pkgio.load_count_table(_file(t, COUNTS_CSV + "control,5,1\n")),
        ValidationError, "row 4: duplicate arm 'control'",
    ),
    "count table without a treated row": (
        lambda t: pkgio.load_count_table(_file(t, "arm,total,positive\ncontrol,5,1\n")),
        ValidationError, "{t}/input.csv: count table needs exactly one control and one treated row",
    ),
    "Monte Carlo p_method without samples": (
        lambda t: pkgio.parse_run_config({"rho": 0.5, "p_method": {"kind": "mc"}}),
        ValidationError, "config: Monte Carlo p_method needs samples >= 1",
    ),
    "diagnostics c is 0": (
        lambda t: pkgio.parse_run_config({"rho": 0.5, "diagnostics": {"c": 0}}),
        ValidationError, "config: diagnostics.c must be positive, got 0.0",
    ),
    "profile of another size": (
        lambda t: itf.conservative_variance(np.ones(6), EXPOSED, RING_8),
        ValidationError, "profile and exposure sizes differ",
    ),
    "negative variance": (
        lambda t: itf.validity_condition(1.0, -1.0, PROFILE, 0.05, 3),
        DegenerateVarianceError, "negative variance estimate -1.0",
    ),
    "scenario kind": (
        lambda t: itf.Scenario(kind="storm", layout=np.arange(6.0)),
        ValidationError, f"unknown scenario kind 'storm'; choose from {itf.SCENARIO_KINDS}",
    ),
    "synthetic layout of one point": (
        lambda t: itf.synthetic_layout("line", 1),
        ValidationError, "a layout needs at least 2 points, got 1",
    ),
    "scenario layout of one point": (
        lambda t: itf.Scenario(kind="adversarial", layout=[[0.0, 0.0]]),
        ValidationError, "a layout needs at least 2 points, got 1",
    ),
    "exposure_model scenario of 5 units": (
        lambda t: itf.Scenario(kind="exposure_model", layout=np.arange(5.0)),
        ValidationError, "the exposure_model scenario needs at least 6 units",
    ),
    "exposure_model spillover_max is 0": (
        lambda t: itf.Scenario(kind="exposure_model", layout=np.arange(6.0), spillover_max=0.0),
        ValidationError, "spillover_max must be positive",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_each_rule_raises_its_message(tmp_path, case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(t=tmp_path)


def test_malformed_json_config_is_an_error(tmp_path):
    argv = estimate_config(tmp_path)
    argv[2].write_text('{"rho": 0.5,')
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {argv[2]}: not a valid JSON file: ")


def test_coordinate_columns_must_be_consecutive(tmp_path):
    argv = estimate_config(tmp_path)
    argv[-1].write_text("id,x1,x3,treatment,outcome\na,0,0,1,4\nb,1,0,0,2\nc,2,0,1,3\n")
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err == "error: coordinate columns must be consecutive x1..xk, got ['x1', 'x3']\n"


def test_error_names_the_key_path(tmp_path):
    _, _, err = run(estimate_config(tmp_path, neighborhood={"d": "two"}))
    assert err == "error: config.neighborhood.d: expected an integer, got 'two'\n"


def test_integral_floats_are_integers(tmp_path):
    integral = {"mapping": {"kind": "threshold", "d_min": 2.0}, "neighborhood": {"d": 3.0}}
    assert run(estimate_config(tmp_path, **integral)) == run(estimate_config(tmp_path))


def test_unit_rule_names_the_csv_row(tmp_path):
    argv = estimate_config(tmp_path)
    argv[-1].write_text(with_cell(UNITS_CSV, 4, 4, "-1"))
    code, _, err = run(argv)
    assert code == 1
    assert err.startswith("error: row 5: unit 'd': outcome must be finite and nonnegative")


def test_header_names_are_stripped(tmp_path):
    argv = estimate_config(tmp_path)
    expected = run(argv)
    argv[-1].write_text(UNITS_CSV.replace(",", ", ", 5))
    assert run(argv) == expected


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check_mutant(argv):
    code, out, err = run(argv)
    if code in (0, 4):
        json.loads(out)
    else:
        assert code == 1
        assert err.startswith("error:")


JSON_BASES = {
    "run": (RUN_CONFIG, lambda d, c: ["estimate", "--config", c, "--data", _units(d)]),
    "scan": (SCAN_CONFIG, lambda d, c: ["estimate", "--config", c, "--data", _units(d)]),
    "sim": (SIM_CONFIG, lambda d, c: ["simulate", "--config", c, "--format", "json"]),
    "neighborhoods": (
        NEIGHBORHOODS,
        lambda d, c: ["estimate", "--config", write_json(d / "p.json", PRODUCT_CONFIG), "--data", _units(d),
                      "--neighborhoods", c],
    ),
}
JSON_CASES = [(base, path) for base, (doc, _) in JSON_BASES.items() for path in json_paths(doc)]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(JSON_CASES), value=st.sampled_from(JSON_MUTANTS))
def test_fuzz_json_field(fuzz_dir, case, value):
    base, path = case
    document, command = JSON_BASES[base]
    config = fuzz_dir / f"{base}.json"
    config.write_text(json.dumps(with_field(document, path, value)))
    check_mutant(command(fuzz_dir, config))


CSV_BASES = {
    "units": (UNITS_CSV, lambda d, f: ["estimate", "--config", write_json(d / "r.json", RUN_CONFIG), "--data", f]),
    "counts": (COUNTS_CSV, lambda d, f: ["contrast", "--count-mode", "--data", f]),
}
CSV_CASES = [
    (base, row, column)
    for base, (text, _) in CSV_BASES.items()
    for row in range(len(text.splitlines()))
    for column in range(len(text.splitlines()[0].split(",")))
]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(CSV_CASES), value=st.sampled_from(CSV_MUTANTS))
def test_fuzz_csv_cell(fuzz_dir, case, value):
    base, row, column = case
    text, command = CSV_BASES[base]
    data = fuzz_dir / f"{base}.csv"
    data.write_text(with_cell(text, row, column, value))
    check_mutant(command(fuzz_dir, data))
