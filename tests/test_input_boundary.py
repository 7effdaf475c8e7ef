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
from interfere.cli import main
from interfere.errors import ValidationError

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
    "largest_centered_eigenvalue seed": lambda v: itf.largest_centered_eigenvalue(np.eye(4), seed=v),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_INTEGERS))
def test_library_integers_are_not_truncated(case):
    call = LIBRARY_INTEGERS[case]
    call(2.0)
    for bad in (2.5, True, math.nan):
        with pytest.raises(ValidationError, match="must be an integer"):
            call(bad)


# Library entry points that take a seed: (call, seeds its generator accepts, seeds it rejects).
# A Philox key word lies in [-2**63, 2**64); a default_rng seed is nonnegative.
LIBRARY_SEEDS = {
    "monte_carlo_profile": (
        lambda v: itf.monte_carlo_profile(_ring(), itf.ExposureMapping.threshold(2), 0.5, 10, v),
        (-(2**63), 2**63),
        (-(2**63) - 1, 2**64),
    ),
    "concentration_check": (
        lambda v: itf.concentration_check(np.array([0, 1, 1, 0]), 5, 2, seed=v),
        (-(2**63), 2**63),
        (-(2**63) - 1, 2**64),
    ),
    "largest_centered_eigenvalue": (
        lambda v: itf.largest_centered_eigenvalue(np.eye(4), seed=v),
        (0, 2**70),
        (-1,),
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


def check_mutant(argv, replicates_mutated=False):
    code, out, err = run(argv)
    if code in (0, 4):
        json.loads(out)
    elif code == 2:
        # replicates below 1 is the one usage error a config file can cause
        assert replicates_mutated and "replicates must be at least 1" in err
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
    check_mutant(command(fuzz_dir, config), replicates_mutated=path == ("replicates",))


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
