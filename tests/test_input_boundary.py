"""Malformed input ends as ``error:`` with exit code 1, never as a traceback
or a silently coerced value.

The regression cases are inputs that once escaped as tracebacks or were
coerced (a float truncated to an integer, a string read as a number). The
fuzz test replaces one field of a valid input with a value of the wrong type
or range and requires either that error or valid output.
"""

import contextlib
import copy
import csv
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
    "simulate layout n is 10^30": lambda t: simulate_config(t, layout={"kind": "uniform_square", "n": 10**30}),
    "estimate coordinate squares overflow": lambda t: [
        "estimate", "--config", write_json(t / "c.json", RUN_CONFIG),
        "--data", _file(t, with_cell(UNITS_CSV, 1, 1, "1e308"), "units.csv"),
    ],
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


# A 4 x 5 grid of binary outcomes whose exposure split has both groups nonempty at d = 3.
GRID_CSV = "id,x,y,treatment,outcome\n" + "".join(
    f"u{i},{i % 5},{i // 5},{int(i % 4 != 3)},{i * 7 % 3 % 2}\n" for i in range(20)
)
EXPOSURE_P_0 = "error: exposure probability must lie in (0, 1), got 0.0\n"
OVERFLOW = "error: the variance estimate overflows: outcomes this large exceed double precision\n"


def _grid_contrast(tmp_path, mapping, p_method="exact"):
    """``contrast`` on the grid at rho 1e-300, where the exposure probability p underflows to 0."""
    data = _file(tmp_path, GRID_CSV, "grid.csv")
    config = {"rho": 1e-300, "mapping": mapping, "neighborhood": {"d": 3}, "p_method": p_method}
    return ["contrast", "--config", write_json(tmp_path / "g.json", config), "--data", data]


def _huge_outcomes(tmp_path):
    rows = "".join(f"u{i},{i},0,{int(i != 2)},{i + 1}e154\n" for i in range(6))
    data = _file(tmp_path, "id,x,y,treatment,outcome\n" + rows, "units.csv")
    config = {"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 2}, "neighborhood": {"d": 3}}
    return ["estimate", "--config", write_json(tmp_path / "c.json", config), "--data", data]


def _params(tmp_path, **params):
    return simulate_config(tmp_path, params={**SIM_CONFIG["params"], **params})


MONTE_CARLO = {"kind": "mc", "samples": 200, "seed": 1}
# Inputs that once ended in a traceback or in NaN output, and the one error line each ends in now.
NUMERIC_FAILURES = {
    "contrast threshold with p 0": (lambda t: _grid_contrast(t, {"kind": "threshold", "d_min": 2}), EXPOSURE_P_0),
    "contrast product with p 0": (lambda t: _grid_contrast(t, {"kind": "product"}), EXPOSURE_P_0),
    "contrast Monte Carlo threshold with p 0": (
        lambda t: _grid_contrast(t, {"kind": "threshold", "d_min": 2}, MONTE_CARLO), EXPOSURE_P_0
    ),
    "contrast Monte Carlo product with p 0": (
        lambda t: _grid_contrast(t, {"kind": "product"}, MONTE_CARLO), EXPOSURE_P_0
    ),
    "estimate outcomes near 1e154": (_huge_outcomes, OVERFLOW),
    "simulate spillover_max 1e308": (lambda t: _params(t, spillover_max=1e308), OVERFLOW),
    "simulate count_mean 1e308": (
        lambda t: _params(t, count_mean=1e308),
        "error: count_mean 1e+308 and count_dispersion 2.0 give a negative binomial that numpy cannot sample\n",
    ),
    "simulate count_dispersion 1e-300": (
        lambda t: _params(t, count_dispersion=1e-300),
        "error: count_mean 8.0 and count_dispersion 1e-300 give a negative binomial that numpy cannot sample\n",
    ),
}


@pytest.mark.parametrize("case", sorted(NUMERIC_FAILURES))
def test_numeric_failure_is_one_error_line(tmp_path, case):
    argv, message = NUMERIC_FAILURES[case]
    code, out, err = run(argv(tmp_path))
    assert (code, out, err) == (1, "", message)


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


_SCENARIO = dict(kind="exposure_model", layout=np.arange(10.0))

# Every scalar parameter of every public function, each called with the value
# under test in its place: (call, the name its error gives the parameter, a
# number outside the parameter's range or None when every finite number is in it).
LIBRARY_SCALARS = {
    "Population rho": (LIBRARY_PROBABILITIES["Population rho"][0], "treatment probability", 1.5),
    "Scenario rho": (lambda v: itf.Scenario(**_SCENARIO, rho=v), "treatment probability", 1.0),
    "Scenario count_mean": (lambda v: itf.Scenario(**_SCENARIO, count_mean=v), "count_mean", 0.0),
    "Scenario count_dispersion": (lambda v: itf.Scenario(**_SCENARIO, count_dispersion=v), "count_dispersion", -1),
    "Scenario spillover_max": (lambda v: itf.Scenario(**_SCENARIO, spillover_max=v), "spillover_max", -2.5),
    "RunConfig rho": (lambda v: RunConfig(rho=v), "config: rho", 1.5),
    "RunConfig alpha": (lambda v: RunConfig(rho=0.5, alpha=v), "config: alpha", 0.0),
    "RunConfig variance_floor": (lambda v: RunConfig(rho=0.5, variance_floor=v), "config: diagnostics.c", 0.0),
    "exact_marginal rho": (lambda v: itf.exact_marginal(RING, THRESHOLD, v), "treatment probability", -0.5),
    "exact_profile rho": (lambda v: itf.exact_profile(RING, THRESHOLD, v), "treatment probability", 1.5),
    "monte_carlo_profile rho": (
        lambda v: itf.monte_carlo_profile(RING, THRESHOLD, v, 10), "treatment probability", 1.0
    ),
    "monte_carlo_profile num_samples": (
        lambda v: itf.monte_carlo_profile(RING, THRESHOLD, 0.5, v), "num_samples", 0
    ),
    "enumerated_profile rho": (lambda v: itf.enumerated_profile(RING, THRESHOLD, v), "treatment probability", 0.0),
    "center_excess p": (lambda v: itf.center_excess(np.eye(3), v), "p", None),
    "validity_condition estimate": (lambda v: itf.validity_condition(v, 1.0, PROFILE, 0.05, 3), "estimate", None),
    "validity_condition variance": (lambda v: itf.validity_condition(1.0, v, PROFILE, 0.05, 3), "variance", None),
    "validity_condition alpha": (lambda v: itf.validity_condition(1.0, 1.0, PROFILE, v, 3), "alpha", 0.7),
    "validity_condition count": (lambda v: itf.validity_condition(1.0, 1.0, PROFILE, 0.05, v), "count", 0),
    "variance_fallback_ok variance": (lambda v: itf.variance_fallback_ok(v, 6, 0.05, 0.5), "variance", None),
    "variance_fallback_ok n": (lambda v: itf.variance_fallback_ok(1.0, v, 0.05, 0.5), "n", 0),
    "variance_fallback_ok alpha": (lambda v: itf.variance_fallback_ok(1.0, 6, v, 0.5), "alpha", 0.7),
    "variance_fallback_ok variance_floor": (
        lambda v: itf.variance_fallback_ok(1.0, 6, 0.05, v), "variance_floor", 0.0
    ),
    "upper_confidence_bound alpha": (
        lambda v: itf.upper_confidence_bound(_population(), EXPOSED, PROFILE, v), "alpha", 0.7
    ),
    "upper_confidence_bound variance_floor": (
        lambda v: itf.upper_confidence_bound(_population(), EXPOSED, PROFILE, 0.05, v), "variance_floor", -1.0
    ),
    "ideal_upper_bound alpha": (
        lambda v: itf.ideal_upper_bound(np.arange(6.0), EXPOSED, PROFILE, v), "alpha", 0.7
    ),
    "full_control_lower_bound alpha": (
        lambda v: itf.full_control_lower_bound(_population(enrollment=np.arange(6.0) + 1.0), EXPOSED, PROFILE, v),
        "alpha", 0.7,
    ),
    "bonferroni_scan alpha": (lambda v: itf.bonferroni_scan(_population(), [(1, 2)], v), "alpha", 0.7),
    "bonferroni_scan variance_floor": (
        lambda v: itf.bonferroni_scan(_population(), [(1, 2)], 0.05, v), "variance_floor", 0.0
    ),
    "run_coverage_experiment alpha": (
        lambda v: itf.run_coverage_experiment(itf.Scenario(**_SCENARIO), [(1, 2)], v, 1), "alpha", 0.7
    ),
    "run_coverage_experiment replicates": (
        lambda v: itf.run_coverage_experiment(itf.Scenario(**_SCENARIO), [(1, 2)], 0.05, v), "replicates", 0
    ),
    "attributable_contrast alpha": (lambda v: itf.attributable_contrast(BINARY, BINARY[::-1], v), "alpha", 1.0),
    "attributable_contrast_from_counts alpha": (
        lambda v: itf.attributable_contrast_from_counts(4, 1, 4, 2, v), "alpha", 1.5
    ),
    "exposure_attributable_contrast alpha": (
        lambda v: itf.exposure_attributable_contrast(BINARY, EXPOSED, PROFILE, v), "alpha", 0.0
    ),
    "concentration_check num_draws": (lambda v: itf.concentration_check(BINARY, v, 2), "num_draws", 0),
    "concentration_check alpha": (lambda v: itf.concentration_check(BINARY, 5, 2, alpha=v), "alpha", 1.0),
    "norm_ppf q": (lambda v: itf.norm_ppf(v), "quantile level", 1.0),
    "norm_cdf x": (lambda v: itf.norm_cdf(v), "x", None),
}
# The parameters where None means "not given".
OPTIONAL_SCALARS = {"RunConfig variance_floor", "upper_confidence_bound variance_floor", "bonferroni_scan variance_floor"}
NOT_NUMBERS = {"text": "0.5", "none": None, "boolean": True, "nan": math.nan, "inf": math.inf, "huge int": 10**400}


SCALAR_CASES = [
    pytest.param(case, value, id=f"{case}-{label}")
    for case, (_, _, out_of_range) in sorted(LIBRARY_SCALARS.items())
    for label, value in [*NOT_NUMBERS.items(), ("out of range", out_of_range)]
    if not (label == "out of range" and out_of_range is None)
]


@pytest.mark.parametrize("case, value", SCALAR_CASES)
def test_library_scalars_are_read_once(case, value):
    call, name, _ = LIBRARY_SCALARS[case]
    if value is None and case in OPTIONAL_SCALARS:
        call(None)
        return
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must ")


@pytest.mark.parametrize("call", [itf.point_estimate, itf.variance_estimate, itf.conservative_variance])
def test_overflowing_outcomes_are_errors(call):
    profile = () if call is itf.point_estimate else (PROFILE,)
    with pytest.raises(ValidationError, match=r"overflows: outcomes this large exceed double precision"):
        call(np.full(6, 1e308), EXPOSED, *profile)


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


SCENARIO = itf.Scenario(kind="no_effect_no_clustering", layout=np.arange(10.0))
ENROLLED = _population(enrollment=np.arange(6.0) + 1.0)

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
    "full_control_lower_bound": lambda v: itf.full_control_lower_bound(ENROLLED, EXPOSED, v, 0.05),
    "exposure_attributable_contrast": lambda v: itf.exposure_attributable_contrast(BINARY, EXPOSED, v, 0.05),
    "largest_centered_eigenvalue": lambda v: itf.largest_centered_eigenvalue(v),
}
NOT_PROFILES = {
    "list": [[1, 0], [0, 1]], "text": "x", "none": None, "identity": np.eye(6), "dense joint": PROFILE.joint,
    "neighborhoods": RING,
}
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


@pytest.mark.parametrize("configs", [None, 5, 2.5])
def test_design_lists_are_lists(configs):
    scenario = itf.Scenario(kind="no_effect_no_clustering", layout=np.arange(10.0))
    for call in (
        lambda: itf.bonferroni_scan(_population(), configs, 0.05),
        lambda: itf.run_coverage_experiment(scenario, configs, 0.05, 1),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"configs must be a list of (d_min, d) pairs, got {configs!r}"


# Public functions that take a population, neighborhoods, a mapping, an exposure
# or a scenario, each called with the value under test in one place, and the
# name of that argument, whose type ARGUMENT_TYPES gives.
DESIGN_ARGUMENTS = {
    "exact_profile neighborhoods": (lambda v: itf.exact_profile(v, THRESHOLD, 0.5), "neighborhoods"),
    "exact_profile mapping": (lambda v: itf.exact_profile(RING, v, 0.5), "mapping"),
    "exact_marginal neighborhoods": (lambda v: itf.exact_marginal(v, THRESHOLD, 0.5), "neighborhoods"),
    "monte_carlo_profile mapping": (lambda v: itf.monte_carlo_profile(RING, v, 0.5, 10), "mapping"),
    "evaluate_exposure neighborhoods": (lambda v: itf.evaluate_exposure(EXPOSED.indicator, v, THRESHOLD), "neighborhoods"),
    "evaluate_exposure mapping": (lambda v: itf.evaluate_exposure(EXPOSED.indicator, RING, v), "mapping"),
    "overlap_degree neighborhoods": (itf.overlap_degree, "neighborhoods"),
    "point_estimate exposure": (lambda v: itf.point_estimate(np.arange(6.0), v), "exposure"),
    "variance_estimate exposure": (lambda v: itf.variance_estimate(np.arange(6.0), v, PROFILE), "exposure"),
    "conservative_variance exposure": (lambda v: itf.conservative_variance(np.arange(6.0), v, PROFILE), "exposure"),
    "ideal_upper_bound exposure": (lambda v: itf.ideal_upper_bound(np.arange(6.0), v, PROFILE, 0.05), "exposure"),
    "upper_confidence_bound population": (
        lambda v: itf.upper_confidence_bound(v, EXPOSED, PROFILE, 0.05), "population"
    ),
    "upper_confidence_bound exposure": (
        lambda v: itf.upper_confidence_bound(_population(), v, PROFILE, 0.05), "exposure"
    ),
    "full_control_lower_bound population": (
        lambda v: itf.full_control_lower_bound(v, EXPOSED, PROFILE, 0.05), "population"
    ),
    "full_control_lower_bound exposure": (
        lambda v: itf.full_control_lower_bound(ENROLLED, v, PROFILE, 0.05), "exposure"
    ),
    "bonferroni_scan population": (lambda v: itf.bonferroni_scan(v, [(1, 1)], 0.05), "population"),
    "exposure_attributable_contrast exposure": (
        lambda v: itf.exposure_attributable_contrast(BINARY, v, PROFILE, 0.05), "exposure"
    ),
    "run_coverage_experiment scenario": (lambda v: itf.run_coverage_experiment(v, [(1, 1)], 0.05, 1), "scenario"),
    "generate_scenario scenario": (lambda v: itf.generate_scenario(v, 0), "scenario"),
}
ARGUMENT_TYPES = {
    "population": itf.Population,
    "neighborhoods": itf.NeighborhoodSet,
    "mapping": itf.ExposureMapping,
    "exposure": itf.EffectiveTreatment,
    "scenario": itf.Scenario,
}


@pytest.mark.parametrize("value", ["text", "none", "list", "package object"])
@pytest.mark.parametrize("case", sorted(DESIGN_ARGUMENTS))
def test_design_arguments_are_typed(case, value):
    call, name = DESIGN_ARGUMENTS[case]
    kind = ARGUMENT_TYPES[name]
    other = THRESHOLD if kind is itf.NeighborhoodSet else RING  # a package object of another type
    wrong = {"text": "x", "none": None, "list": [[0, 1]], "package object": other}[value]
    with pytest.raises(ValidationError) as info:
        call(wrong)
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    assert str(info.value) == f"{name} must be {article} {kind.__name__}, got {type(wrong).__name__}"


@pytest.mark.parametrize("design", [(RING, THRESHOLD), (RING, THRESHOLD, 0.5, 1), "x", None, {}])
def test_concentration_design_is_a_size_or_a_triple(design):
    itf.concentration_check(BINARY, 5, (RING, THRESHOLD, 0.5))
    with pytest.raises(ValidationError) as info:
        itf.concentration_check(BINARY, 5, design)
    assert str(info.value) == (
        f"design must be a treated-group size or a (neighborhoods, mapping, rho) triple, got {type(design).__name__}"
    )


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
    "joint matrix is a number": (
        lambda t: itf.center_excess(0.5, 0.5),
        ValidationError, "joint probability matrix must be square",
    ),
    "neighborhood row repeats an index": (
        lambda t: itf.NeighborhoodSet(members=[[0, 1], [1, 1], [2, 0]]),
        ValidationError, "neighborhood 1 repeats index 1",
    ),
    "neighborhood index of a row is not integral": (
        lambda t: itf.NeighborhoodSet(members=[[0, 1], [1, 1.5], [2, 0]]),
        ValidationError, "neighborhood 1 index must be an integer, got 1.5",
    ),
    "neighborhood index of an odd-size set is a boolean": (
        lambda t: itf.NeighborhoodSet.from_sets([[0, 1], [1, True, 2], [2, 0]]),
        ValidationError, "neighborhood 1 index must be an integer, got True",
    ),
    "neighborhood sets are None": (
        lambda t: itf.NeighborhoodSet.from_sets(None),
        ValidationError, "neighborhood sets must be a sequence of index sets, got None",
    ),
    "neighborhood sets are integers": (
        lambda t: itf.NeighborhoodSet.from_sets([1, 2]),
        ValidationError, "neighborhood sets must be a sequence of index sets, got [1, 2]",
    ),
    "ids are a string": (
        lambda t: _population(ids="abcdef"),
        ValidationError, "ids must be a non-string sequence, got str",
    ),
    "ids are None": (
        lambda t: _population(ids=None),
        ValidationError, "ids must be a non-string sequence, got NoneType",
    ),
    "ids are lists": (
        lambda t: _population(ids=[[i] for i in range(6)]),
        ValidationError, "unit 0: ids must be hashable, got [0]",
    ),
    "coordinate squares overflow": (
        lambda t: itf.build_knn_neighborhoods([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0], [1.0, 1.0]], 2),
        ValidationError, "coordinates of 2 dimensions must be at most 3.35195e+153 in absolute value, got 1e+308",
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
    "ids repeated": (
        lambda t: _population(ids=("a", "b", "c", "b", "e", "f")),
        ValidationError, "unit 'b': unit ids must be unique",
    ),
    "ids repeated before an unhashable one": (
        lambda t: _population(ids=("a", "b", "a", [0], "e", "f")),
        ValidationError, "unit 'a': unit ids must be unique",
    ),
    "unhashable id before a repeated one": (
        lambda t: _population(ids=("a", {}, "a", "d", "e", "f")),
        ValidationError, "unit 1: ids must be hashable, got {{}}",
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
        ValidationError, "spillover_max must be positive, got 0.0",
    ),
    "outcome holds None": (
        lambda t: _population(outcome=[1.0, None, 2.0, 0.0, 3.0, 1.0]),
        ValidationError, "outcome must be a rectangular array of numbers",
    ),
    "joint probability matrix holds None": (
        lambda t: itf.center_excess([[None, 0.0], [0.0, None]], 0.5),
        ValidationError, "joint probability matrix must be a rectangular array of numbers",
    ),
    "monotone report is text": (
        lambda t: pkgio.monotone_report_dict("x"),
        ValidationError, "report must be a MonotoneCiReport, got str",
    ),
    "contrast report is text": (
        lambda t: pkgio.contrast_report_dict("x"),
        ValidationError, "report must be a ContrastReport, got str",
    ),
    "coverage table is text": (
        lambda t: pkgio.coverage_table_dict("x"),
        ValidationError, "table must be a CoverageTable, got str",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_each_rule_raises_its_message(tmp_path, case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(t=tmp_path)


# Sizes numpy refuses before it touches memory; a size that memory might hold is never tried.
@pytest.mark.parametrize("n", [10**30, 2**53], ids=["10^30", "2^53"])
@pytest.mark.parametrize("kind", ["uniform_square", "two_cluster", "line"])
def test_layout_too_large_to_allocate_is_an_error(kind, n):
    with pytest.raises(ValidationError) as info:
        itf.synthetic_layout(kind, n)
    assert str(info.value) == f"layout size n={n} is too large: its coordinates cannot be allocated"


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



def _units_file(t, line, text):
    """The estimate command on the unit table with line ``line`` (an index or a slice) replaced by ``text``."""
    lines = UNITS_CSV.splitlines()
    lines[line] = text
    path = _file(t, "\n".join(lines) + "\n", "units.csv")
    return ["estimate", "--config", write_json(t / "c.json", RUN_CONFIG), "--data", path]


def _counts_file(t, line, text):
    """The count-mode contrast on the count table with line ``line`` replaced by ``text``."""
    lines = COUNTS_CSV.splitlines()
    lines[line] = text
    return ["contrast", "--count-mode", "--data", _file(t, "\n".join(lines) + "\n", "counts.csv")]


def _neighborhood_file(t, row, text):
    """The estimate command on the neighborhood file with row ``row`` written as
    the JSON text ``text``; with ``row`` None, ``text`` is the whole file."""
    rows = [json.dumps(members) for members in NEIGHBORHOODS]
    if row is not None:
        rows[row] = text
    path = _file(t, text if row is None else "[" + ", ".join(rows) + "]", "nbhd.json")
    config = write_json(t / "p.json", PRODUCT_CONFIG)
    return ["estimate", "--config", config, "--data", _units(t), "--neighborhoods", path]


CLEAN_FILES = {
    "units": lambda t: _units_file(t, 0, UNITS_CSV.splitlines()[0]),
    "counts": lambda t: _counts_file(t, 0, COUNTS_CSV.splitlines()[0]),
    "neighborhood": lambda t: _neighborhood_file(t, 0, json.dumps(NEIGHBORHOODS[0])),
}

# One fault per file, and the exact message of the command that reads it
# ({t}: the scratch directory); no message means the file reads as the clean
# file does. CSV rows are numbered by record, blank records skipped.
FILE_FAULTS = {
    "units short row": (
        lambda t: _units_file(t, 2, "b,1.0,0.1,1,7"), "row 3: column 'enrollment' is not a number: None",
    ),
    "units short row before the treatment": (
        lambda t: _units_file(t, 2, "b,1.0,0.1"), "row 3: column 'treatment' must be 0 or 1, got ''",
    ),
    "units extra cells": (lambda t: _units_file(t, 2, "b,1.0,0.1,1,7,8,99,x"), None),
    "units blank line": (lambda t: _units_file(t, 2, "\nb,1.0,0.1,1,7,8"), None),
    "units blank lines before a bad row": (
        lambda t: _units_file(t, 3, "\n\nc,2.0,0.0,0,-3,3"),
        "row 4: unit 'c': outcome must be finite and nonnegative, got -3.0",
    ),
    "units repeated header": (
        lambda t: _units_file(t, 0, "id,x,y,treatment,outcome,enrollment,x"),
        "{t}/units.csv: column 'x' is given twice in the header",
    ),
    "units repeated header after stripping": (
        lambda t: _units_file(t, 0, "id,x,y,treatment,outcome, y ,enrollment"),
        "{t}/units.csv: column 'y' is given twice in the header",
    ),
    "units padded number": (lambda t: _units_file(t, 2, "b, 1.0 ,0.1,1,\t7 ,8"), None),
    "units underscored number": (
        lambda t: _units_file(t, 1, "a,0.0,0.0,1,1_000,9"),
        "row 2: unit 'a': outcome 1000.0 exceeds enrollment 9.0 (enrollment is an upper bound on the outcome)",
    ),
    "units nan outcome": (
        lambda t: _units_file(t, 1, "a,0.0,0.0,1,nan,9"),
        "row 2: unit 'a': outcome must be finite and nonnegative, got nan",
    ),
    "units overflowing enrollment": (
        lambda t: _units_file(t, 2, "b,1.0,0.1,1,7,1e400"), "row 3: unit 'b': enrollment must be finite, got inf",
    ),
    "units quoted cell": (
        lambda t: _units_file(t, 2, 'b,1.0,0.1,1,"7,5",8'), "row 3: column 'outcome' is not a number: '7,5'",
    ),
    "units quoted number": (lambda t: _units_file(t, 2, 'b,"1.0",0.1,1,"7",8'), None),
    "units text coordinate": (
        lambda t: _units_file(t, 2, "b,one,0.1,1,7,8"), "row 3: column 'x' is not a number: 'one'",
    ),
    "units padded treatment": (lambda t: _units_file(t, 2, "b,1.0,0.1, 1 ,7,8"), None),
    "units treatment 1.0": (
        lambda t: _units_file(t, 2, "b,1.0,0.1,1.0,7,8"), "row 3: column 'treatment' must be 0 or 1, got '1.0'",
    ),
    "units missing column": (
        lambda t: _units_file(t, 0, "id,x,y,treatment,result,enrollment"),
        "{t}/units.csv: missing required column 'outcome'",
    ),
    "units header only": (
        lambda t: _units_file(t, slice(1, None), []), "a population needs at least 2 units, got 0",
    ),
    "counts short row": (
        lambda t: _counts_file(t, 1, "control,500"), "row 2: column 'positive' is not a number: None",
    ),
    "counts extra cells": (lambda t: _counts_file(t, 1, "control,500,30,x"), None),
    "counts blank line": (lambda t: _counts_file(t, 1, "\ncontrol,500,30"), None),
    "counts repeated header": (
        lambda t: _counts_file(t, 0, "arm,total,positive,total"), "{t}/counts.csv: column 'total' is given twice in the header",
    ),
    "counts padded arm": (lambda t: _counts_file(t, 1, " control ,500, 30"), None),
    "counts total not integral": (
        lambda t: _counts_file(t, 1, "control,10.7,3"), "row 2: column 'total' must be an integer, got '10.7'",
    ),
    "counts total nan": (
        lambda t: _counts_file(t, 1, "control,nan,3"), "row 2: column 'total' must be an integer, got 'nan'",
    ),
    "counts unknown arm": (
        lambda t: _counts_file(t, 1, "placebo,500,30"), "row 2: arm must be 'control' or 'treated', got 'placebo'",
    ),
    "counts missing column": (
        lambda t: _counts_file(t, 0, "arm,total,positives"), "{t}/counts.csv: missing required column 'positive'",
    ),
    "counts header only": (
        lambda t: _counts_file(t, slice(1, None), []),
        "{t}/counts.csv: count table needs exactly one control and one treated row",
    ),
    "neighborhood index is a string": (
        lambda t: _neighborhood_file(t, 1, '[1, "a"]'), "neighborhood 1 index must be an integer, got 'a'",
    ),
    "neighborhood index is true": (
        lambda t: _neighborhood_file(t, 1, "[1, true]"), "neighborhood 1 index must be an integer, got True",
    ),
    "neighborhood index is 1.5": (
        lambda t: _neighborhood_file(t, 1, "[1, 1.5]"), "neighborhood 1 index must be an integer, got 1.5",
    ),
    "neighborhood index is null": (
        lambda t: _neighborhood_file(t, 1, "[1, null]"), "neighborhood 1 index must be an integer, got None",
    ),
    "neighborhood index is 1e400": (
        lambda t: _neighborhood_file(t, 1, "[1, 1e400]"), "neighborhood 1 index must be an integer, got inf",
    ),
    "neighborhood index is 2**70": (
        lambda t: _neighborhood_file(t, 1, f"[1, {2**70}]"), "neighborhood indices out of range",
    ),
    "neighborhood index is a list": (
        lambda t: _neighborhood_file(t, 1, "[1, [2]]"), "neighborhood members must be a rectangular array of numbers",
    ),
    "neighborhood index is an integral float": (lambda t: _neighborhood_file(t, 1, "[1, 2.0]"), None),
    "neighborhood row is a number": (
        lambda t: _neighborhood_file(t, 1, "5"), "{t}/nbhd.json[1]: expected a list of unit indices, got 5",
    ),
    "neighborhood file is an object": (
        lambda t: _neighborhood_file(t, None, '{"a": 1}'),
        "{t}/nbhd.json: expected a list of index lists, got {'a': 1}",
    ),
    "neighborhood sizes differ": (
        lambda t: _neighborhood_file(t, 1, "[1, 2, 0]"),
        "all neighborhoods must have the same size so that exposure probabilities are uniform; got sizes [2, 3]",
    ),
    "neighborhood sizes differ by a repeat": (
        lambda t: _neighborhood_file(t, 1, "[1, 2, 2]"), "neighborhood 1 repeats index 2",
    ),
}


NAMES_GIVEN_TWICE = {  # (command, config file text, the key named)
    "top level": (
        "estimate",
        '{"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 2}, "neighborhood": {"d": 4}, "rho": 0.9}',
        "rho",
    ),
    "nested": (
        "estimate",
        '{"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 2, "d_min": 3}, "neighborhood": {"d": 4}}',
        "d_min",
    ),
    "nested and top level": (  # an inner object is read first
        "estimate",
        '{"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 2, "d_min": 3}, "neighborhood": {"d": 4}, "rho": 0.9}',
        "d_min",
    ),
    "sim config": (
        "simulate",
        json.dumps(SIM_CONFIG)[:-1] + ', "scenario": "adversarial", "replicates": 5}',
        "scenario",
    ),
}


@pytest.mark.parametrize("case", sorted(NAMES_GIVEN_TWICE))
def test_a_config_key_given_twice_is_an_error(tmp_path, case):
    command, text, key = NAMES_GIVEN_TWICE[case]
    config = _file(tmp_path, text, "c.json")
    data = ["--data", _file(tmp_path, UNITS_CSV)] if command == "estimate" else []
    assert run([command, "--config", config, *data]) == (1, "", f"error: {config}: key {key!r} is given twice in one object\n")


def test_sets_above_1029_units_end_in_one_error_line(tmp_path):
    # 1 100 units on a line, exact threshold probabilities on k-NN sets of 1 050.
    rows = "".join(f"u{i},{i}.0,{i % 2},{i % 7}\n" for i in range(1100))
    data = _file(tmp_path, UNITS_HEADER + rows)
    design = {"mapping": {"kind": "threshold", "d_min": 3}, "neighborhood": {"d": 1050}}
    config = write_json(tmp_path / "c.json", {"rho": 0.5, **design})
    message = "error: exact threshold probabilities need sets of at most 1029 units, got 1050\n"
    assert run(["estimate", "--config", config, "--data", data]) == (1, "", message)


@pytest.mark.parametrize("case", sorted(FILE_FAULTS))
def test_each_file_fault_gives_its_message(tmp_path, case):
    build, message = FILE_FAULTS[case]
    code, out, err = run(build(tmp_path))
    if message is None:
        assert (code, err) == (0, "")
        assert out == run(CLEAN_FILES[case.split()[0]](tmp_path))[1]
    else:
        assert (code, out, err) == (1, "", "error: " + message.replace("{t}", str(tmp_path)) + "\n")


def _reference_units(path, rho):
    """The unit table read record by record, with ``csv.DictReader`` and
    ``float()``: the reference of ``load_units`` on the x/y columns."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        reader.fieldnames = names = [name.strip() for name in reader.fieldnames]
        records = list(reader)
    numeric = ["x", "y", "treatment", "outcome"] + ["enrollment"] * ("enrollment" in names)

    def cell(record, name, row):
        raw = record[name]
        if name == "treatment" and (raw or "").strip() not in ("0", "1"):
            raise ValidationError(f"row {row}: column 'treatment' must be 0 or 1, got {(raw or '').strip()!r}")
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ValidationError(f"row {row}: column {name!r} is not a number: {raw!r}") from None

    table = [[cell(record, name, row) for name in numeric] for row, record in enumerate(records, start=2)]
    columns = dict(zip(numeric, np.array(table).reshape(-1, len(numeric)).T))
    try:
        return itf.Population(
            ids=tuple(record["id"] for record in records), coords=[row[:2] for row in table],
            treatment=columns["treatment"], outcome=columns["outcome"], rho=rho, enrollment=columns.get("enrollment"),
        )
    except ValidationError as exc:
        if exc.unit is None:
            raise
        raise ValidationError(f"row {exc.unit + 2}: {exc}") from None


def _read_result(read, path):
    """The message of ``read``'s error, or the bytes of the population it reads."""
    try:
        pop = read(path, 0.5)
    except ValidationError as exc:
        return str(exc)
    arrays = (pop.coords, pop.treatment, pop.outcome, pop.enrollment)
    return pop.ids, pop.coords.flags.c_contiguous, [None if a is None else (a.dtype, a.tobytes()) for a in arrays]


GOOD_NUMBER = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.integers(0, 10**20).map(str),
    st.sampled_from([" 1", "2 ", "\t3\n", "1_0", "4.9e-324", "1e-320", "+2", ".5", "5.", "1E3", "\u0661\u0662"]),
)
ODD_NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "1__0", "0x10", "1,5", "x", "", " ", '"']),
)
# One cell in forty is odd, and one treatment in eleven, so that many files are read through.
NUMBER_TEXT = st.integers(0, 39).flatmap(lambda k: ODD_NUMBER if k == 0 else GOOD_NUMBER)
TREATMENT_TEXT = st.sampled_from(["0", "1"] * 30 + [" 1", "0 ", "1.0", "2", "", "true"])
UNIT_RECORD = st.tuples(NUMBER_TEXT, NUMBER_TEXT, TREATMENT_TEXT, NUMBER_TEXT, NUMBER_TEXT)


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(st.tuples(UNIT_RECORD, st.sampled_from([6] * 12 + [5, 3, 8, 0])), min_size=2, max_size=8),
    enrollment=st.booleans(),
)
def test_unit_table_reads_as_the_record_by_record_reference(fuzz_dir, records, enrollment):
    # Each record is cut to a width (a short record, a blank one at 0) or
    # padded with extra cells; the columnar read must equal the reference.
    header = ["id", "x", " y", "treatment", "outcome"] + ["enrollment"] * enrollment
    path = fuzz_dir / "reference.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for i, (record, width) in enumerate(records):
            writer.writerow(([f"u{i}", *record][:len(header)] + ["9", "x"])[:width])
    assert _read_result(pkgio.load_units, path) == _read_result(_reference_units, path)


def test_integer_indices_are_not_read_one_by_one(tmp_path, monkeypatch):
    # Integer index lists go to numpy at once: no index passes through check_integer.
    def refuse(value, name):
        raise AssertionError(f"check_integer({value!r}, {name!r})")

    monkeypatch.setattr("interfere.design.check_integer", refuse)
    monkeypatch.setattr("interfere.io.check_integer", refuse)
    sets = [[0, 1], [2, 1], [2, 0]]
    assert itf.NeighborhoodSet.from_sets(sets).members.tolist() == [[0, 1], [1, 2], [0, 2]]
    assert itf.NeighborhoodSet(members=sets).members.tolist() == [[0, 1], [1, 2], [0, 2]]
    assert pkgio.load_neighborhoods(write_json(tmp_path / "nbhd.json", sets)).members.tolist() == [[0, 1], [1, 2], [0, 2]]


@pytest.mark.parametrize("boolean", [True, np.True_], ids=["bool", "numpy bool"])
@pytest.mark.parametrize(
    "build", [lambda rows: itf.NeighborhoodSet(members=rows), itf.NeighborhoodSet.from_sets], ids=["members", "from_sets"]
)
def test_boolean_among_integer_indices_is_not_an_integer(build, boolean):
    # numpy types [2, True] as int64; the boolean must still be refused, not read as 1.
    with pytest.raises(ValidationError) as info:
        build([[0, 1], [2, boolean], [2, 0]])
    assert str(info.value) == f"neighborhood 1 index must be an integer, got {boolean!r}"
