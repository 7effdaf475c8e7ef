import csv
import json

import numpy as np
import pytest

import interfere.io as pkgio
from interfere.cli import _compare, build_parser, main
from interfere.design import ExposureMapping, build_knn_neighborhoods
from interfere.errors import ValidationError
from interfere.exposure import center_excess, enumerated_profile, exact_profile, monte_carlo_profile

from conftest import random_design

UNITS_CSV = """id,x,y,treatment,outcome
a,0.0,0.0,1,4
b,1.0,0.1,1,7
c,2.0,0.0,0,3
d,3.0,0.1,1,1
e,4.0,0.0,1,6
f,5.0,0.1,1,2
"""

BINARY_CSV = """id,x,y,treatment,outcome
u0,0.0,0.0,1,1
u1,1.0,0.1,1,0
u2,2.0,0.0,0,1
u3,3.0,0.1,1,1
u4,4.0,0.0,0,0
u5,5.0,0.1,1,0
u6,6.0,0.0,0,1
u7,7.0,0.1,1,1
"""

COUNTS_CSV = """arm,total,positive
control,611000,109000
treated,60000000,12000000
"""

CONFIG = {
    "rho": 0.5,
    "alpha": 0.05,
    "mapping": {"kind": "threshold", "d_min": 2},
    "neighborhood": {"d": 3},
}


def read_dump(out):
    """The columns of a ``--dump-matrices`` directory's diag.csv and pairs.csv,
    by header name, each cell read by ``float``."""
    tables = []
    for name, header in (
        ("diag.csv", ["i", "joint", "excess", "row_excess"]),
        ("pairs.csv", ["i", "j", "joint", "excess"]),
    ):
        with open(out / name, newline="") as handle:
            head, *rows = csv.reader(handle)
        assert head == header
        cells = np.array([[float(cell) for cell in row] for row in rows]).reshape(len(rows), len(header))
        tables.append(dict(zip(header, cells.T)))
    return tables


def rebuild_joint(diag, pairs):
    """The dense joint matrix of a dump. Only an exact profile leaves pairs
    out, and its diagonal is p in every row, so an unlisted pair gets p^2."""
    n, p = diag["i"].size, diag["joint"][0]
    joint = np.full((n, n), p * p)
    np.fill_diagonal(joint, diag["joint"])
    rows, cols = pairs["i"].astype(int), pairs["j"].astype(int)
    joint[rows, cols] = joint[cols, rows] = pairs["joint"]
    return joint


@pytest.fixture
def units_file(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text(UNITS_CSV)
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


class TestLoadUnits:
    def test_valid_table(self, units_file):
        pop = pkgio.load_units(units_file, rho=0.5)
        assert pop.n == 6
        assert pop.ids == ("a", "b", "c", "d", "e", "f")
        assert pop.coords.shape == (6, 2)
        assert pop.treatment.tolist() == [1, 1, 0, 1, 1, 1]

    def test_single_coordinate_column(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("id,x,treatment,outcome\n1,0,1,2\n2,5,0,1\n")
        pop = pkgio.load_units(path, rho=0.4)
        assert pop.coords.shape == (2, 1)

    def test_numbered_coordinates(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("id,x1,x2,x3,treatment,outcome\n1,0,1,2,1,2\n2,5,0,1,0,1\n")
        pop = pkgio.load_units(path, rho=0.4)
        assert pop.coords.shape == (2, 3)

    def test_bad_treatment_names_row_and_column(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("id,x,treatment,outcome\n1,0,1,2\n2,5,2,1\n")
        with pytest.raises(ValidationError, match=r"row 3.*treatment"):
            pkgio.load_units(path, rho=0.4)

    def test_outcome_above_enrollment_rejected(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("id,x,treatment,outcome,enrollment\n1,0,1,5,10\n2,1,0,7,6\n")
        with pytest.raises(ValidationError, match=r"row 3.*enrollment"):
            pkgio.load_units(path, rho=0.4)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("id,x,treatment,outcome\n1,0,1,2\n1,5,0,1\n")
        with pytest.raises(ValidationError, match="unique"):
            pkgio.load_units(path, rho=0.4)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("id,x,outcome\n1,0,2\n")
        with pytest.raises(ValidationError, match="treatment"):
            pkgio.load_units(path, rho=0.4)


class TestLoadNeighborhoods:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "nbhd.json"
        path.write_text("[[0,1],[1,0],[2,1]]")
        nbhd = pkgio.load_neighborhoods(path)
        assert nbhd.k == 2

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "nbhd.json"
        path.write_text("[[0,1],[1],[2,1]]")
        with pytest.raises(ValidationError, match="same size"):
            pkgio.load_neighborhoods(path)


class TestRunConfig:
    def test_parse_valid(self):
        config = pkgio.parse_run_config(
            {
                "rho": 0.5,
                "alpha": 0.1,
                "mapping": {"kind": "threshold", "d_min": 2},
                "neighborhood": {"d": 3},
                "bonferroni": [[2, 3], [3, 6]],
                "p_method": {"kind": "mc", "samples": 1000, "seed": 4},
                "diagnostics": {"c": 1.5},
            }
        )
        assert config.mapping == ExposureMapping.threshold(2)
        assert config.d == 3
        assert config.bonferroni == ((2, 3), (3, 6))
        assert (config.mc_samples, config.mc_seed) == (1000, 4)
        assert config.variance_floor == 1.5

    def test_exact_profile_has_no_samples(self):
        for method in ({}, {"p_method": "exact"}):
            config = pkgio.parse_run_config({"rho": 0.5, "mapping": {"kind": "product"}, **method})
            assert config.mapping == ExposureMapping.product()
            assert config.mc_samples is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            pkgio.parse_run_config({"rho": 0.5, "mystery": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValidationError, match="config.mapping"):
            pkgio.parse_run_config({"rho": 0.5, "mapping": {"kind": "product", "extra": 2}})

    def test_product_with_d_min_rejected(self):
        with pytest.raises(ValidationError, match="product"):
            pkgio.parse_run_config({"rho": 0.5, "mapping": {"kind": "product", "d_min": 2}})

    def test_missing_rho_rejected(self):
        with pytest.raises(ValidationError, match="rho"):
            pkgio.parse_run_config({"alpha": 0.05})


class TestSimConfig:
    def test_parse_valid(self):
        config = pkgio.parse_sim_config(
            {
                "scenario": "adversarial",
                "layout": {"kind": "uniform_square", "n": 49, "seed": 7},
                "configs": [[1, 1]],
                "replicates": 100,
                "seed": 5,
            }
        )
        assert config.scenario == "adversarial"
        assert config.configs == ((1, 1),)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="scenario"):
            pkgio.parse_sim_config(
                {
                    "scenario": "chaos",
                    "layout": {"kind": "line", "n": 10},
                    "configs": [[1, 1]],
                    "replicates": 10,
                }
            )


class TestJsonRoundTrip:
    def test_floats_reparse_exactly(self):
        payload = {
            "a": 0.1 + 0.2,
            "b": 1.6448536269514722,
            "nested": [3.0694444444444438, 5.978957844372414],
        }
        assert json.loads(pkgio.dump_json(payload)) == payload


class TestCliEstimate:
    def test_json_output_and_exit_code(self, units_file, config_file, capsys):
        code = main(["estimate", "--config", str(config_file), "--data", str(units_file)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "estimate"
        [entry] = payload["configs"]
        assert entry["estimate"] == pytest.approx(4.0)
        assert entry["upper_bound"] == pytest.approx(5.978957844372414)
        assert entry["interval"][0] == 0.0
        assert entry["condition_ok"] is True
        assert code == 0

    def test_condition_failure_sets_exit_code(self, tmp_path, capsys):
        # singleton design with nearly-constant treated outcomes: the spread
        # is tiny relative to the level, so the validity condition fails
        rows = ["id,x,treatment,outcome"]
        for i in range(12):
            rows.append(f"u{i},{i}.0,{i % 2},{10 + (i == 1) * 0.01}")
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "config11.json"
        config.write_text(
            json.dumps({"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 1}, "neighborhood": {"d": 1}})
        )
        code = main(["estimate", "--config", str(config), "--data", str(data)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_conditions_met"] is False
        assert payload["configs"][0]["note"] == "singleton neighborhoods; spatial information is not used"
        assert code == 4

    def test_bonferroni_scan_levels(self, units_file, tmp_path, capsys):
        config = tmp_path / "scan.json"
        config.write_text(
            json.dumps({"rho": 0.5, "alpha": 0.05, "bonferroni": [[1, 1], [2, 2], [2, 3]]})
        )
        code = main(["estimate", "--config", str(config), "--data", str(units_file)])
        payload = json.loads(capsys.readouterr().out)
        assert [c["alpha"] for c in payload["configs"]] == pytest.approx([0.05 / 3] * 3)
        assert code in (0, 4)

    def test_explicit_neighborhood_file(self, units_file, tmp_path, capsys):
        nbhd_path = tmp_path / "nbhd.json"
        nbhd_path.write_text(json.dumps([[i, (i + 1) % 6] for i in range(6)]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rho": 0.5, "mapping": {"kind": "product"}, "neighborhood": {"d": 2}}))
        code = main(
            [
                "estimate",
                "--config", str(config),
                "--data", str(units_file),
                "--neighborhoods", str(nbhd_path),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["configs"][0]["p"] == pytest.approx(0.25)
        assert code in (0, 4)

    @pytest.mark.parametrize("neighborhood", [{"neighborhood": {"d": 3}}, {}])
    def test_explicit_neighborhoods_report_their_own_size(self, units_file, tmp_path, capsys, neighborhood):
        nbhd_path = tmp_path / "nbhd.json"
        nbhd_path.write_text(json.dumps([[i, (i + 1) % 6] for i in range(6)]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rho": 0.5, "mapping": {"kind": "product"}, **neighborhood}))
        main(["estimate", "--config", str(config), "--data", str(units_file), "--neighborhoods", str(nbhd_path)])
        [entry] = json.loads(capsys.readouterr().out)["configs"]
        assert (entry["d_min"], entry["d"]) == (None, 2)

    def test_singleton_note_follows_the_analysed_sets(self, units_file, tmp_path, capsys):
        nbhd_path = tmp_path / "nbhd.json"
        nbhd_path.write_text(json.dumps([[i] for i in range(6)]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(CONFIG, mapping={"kind": "threshold", "d_min": 1})))  # d: 3
        argv = ["estimate", "--config", str(config), "--data", str(units_file), "--neighborhoods", str(nbhd_path)]
        main(argv)
        [entry] = json.loads(capsys.readouterr().out)["configs"]
        assert (entry["d_min"], entry["d"]) == (1, 1)
        assert entry["note"] == "singleton neighborhoods; spatial information is not used"
        main(argv + ["--format", "text"])
        assert "note: singleton neighborhoods" in capsys.readouterr().out

    def test_missing_data_file_is_error(self, config_file, capsys):
        code = main(["estimate", "--config", str(config_file), "--data", "/nonexistent.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("column,value", [("outcome", "inf"), ("outcome", "nan"), ("x", "-inf")])
    def test_non_finite_value_is_error(self, tmp_path, config_file, capsys, column, value):
        rows = UNITS_CSV.splitlines()
        header = rows[0].split(",")
        fields = rows[2].split(",")
        fields[header.index(column)] = value
        rows[2] = ",".join(fields)
        data = tmp_path / "units.csv"
        data.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--config", str(config_file), "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""

    def test_empty_effective_set_is_error(self, tmp_path, capsys):
        rows = ["id,x,treatment,outcome"] + [f"u{i},{i}.0,0,1.0" for i in range(6)]
        data = tmp_path / "all_control.csv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps(CONFIG))
        code = main(["estimate", "--config", str(config), "--data", str(data)])
        assert code == 1
        assert "effectively treated" in capsys.readouterr().err

    def test_matrix_dump(self, units_file, config_file, tmp_path, capsys):
        out = tmp_path / "mats"
        main(["estimate", "--config", str(config_file), "--data", str(units_file), "--out", str(out), "--dump-matrices"])
        capsys.readouterr()
        assert (out / "estimate.json").exists()
        assert sorted(path.name for path in out.iterdir()) == ["diag.csv", "estimate.json", "pairs.csv"]
        diag, pairs = read_dump(out)
        assert diag["i"].tolist() == list(range(6))
        assert (pairs["i"] < pairs["j"]).all()

    def test_matrix_dump_with_scan_is_error(self, units_file, tmp_path, capsys):
        config = tmp_path / "scan.json"
        config.write_text(json.dumps({"rho": 0.5, "bonferroni": [[1, 1], [2, 2]]}))
        out = tmp_path / "mats"
        code = main(
            ["estimate", "--config", str(config), "--data", str(units_file), "--out", str(out), "--dump-matrices"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --dump-matrices cannot be combined with a bonferroni scan\n"
        assert not out.exists()

    def test_text_format_mentions_singleton_note(self, tmp_path, capsys):
        rows = ["id,x,treatment,outcome"] + [f"u{i},{i}.0,{i % 2},{i + 1}.0" for i in range(8)]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 1}, "neighborhood": {"d": 1}})
        )
        main(["estimate", "--config", str(config), "--data", str(data), "--format", "text"])
        assert "spatial information is not used" in capsys.readouterr().out


class TestCliContrast:
    def test_count_mode_reproduces_voting_interval(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS_CSV)
        code = main(["contrast", "--data", str(counts), "--count-mode"])
        payload = json.loads(capsys.readouterr().out)
        low, high = payload["treatment_split"]["two_sided"]
        assert low * 100 == pytest.approx(2.03, abs=0.01)
        assert high * 100 == pytest.approx(2.29, abs=0.01)
        assert code == 0

    def test_unit_level_with_exposure_split(self, tmp_path, capsys):
        data = tmp_path / "binary.csv"
        data.write_text(BINARY_CSV)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(CONFIG))
        code = main(["contrast", "--config", str(config), "--data", str(data)])
        payload = json.loads(capsys.readouterr().out)
        assert "exposure_split" in payload
        assert payload["exposure_split"]["lambda_1"] > 0
        assert code == 0

    def test_exposure_split_reports_the_eigenvalue_certificate(self, tmp_path, capsys):
        data = tmp_path / "binary.csv"
        data.write_text(BINARY_CSV)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(CONFIG))
        main(["contrast", "--config", str(config), "--data", str(data)])
        block = json.loads(capsys.readouterr().out)["exposure_split"]
        assert block["lambda_1_certificate"] == "exact"
        assert block["lambda_1_ritz"] <= block["lambda_1"]
        assert block["lambda_1_steps"] == 0  # the dense branch: n is below its cutoff
        main(["contrast", "--config", str(config), "--data", str(data), "--format", "text"])
        assert f"({block['lambda_1_certificate']} bound; Ritz value" in capsys.readouterr().out

    def test_treatment_split_has_no_eigenvalue_fields(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS_CSV)
        main(["contrast", "--data", str(counts), "--count-mode"])
        block = json.loads(capsys.readouterr().out)["treatment_split"]
        assert block["lambda_1"] is None
        assert not any(key.startswith("lambda_1_") for key in block)

    @pytest.mark.parametrize("keys", [("mapping",), ("neighborhood",), ("mapping", "neighborhood")])
    def test_count_mode_rejects_design_keys(self, tmp_path, capsys, keys):
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS_CSV)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value for key, value in CONFIG.items() if key in ("rho", *keys)}))
        code = main(["contrast", "--config", str(config), "--data", str(counts), "--count-mode"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: contrast --count-mode takes no config.mapping or config.neighborhood\n"

    def test_config_without_a_design_gives_the_treatment_split(self, tmp_path, capsys):
        data = tmp_path / "binary.csv"
        data.write_text(BINARY_CSV)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"rho": 0.5, "alpha": 0.1}))
        code = main(["contrast", "--config", str(config), "--data", str(data)])
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["alpha", "command", "treatment_split"]
        assert payload["treatment_split"]["alpha"] == 0.1
        assert code == 0

    def test_single_arm_is_error(self, tmp_path, capsys):
        data = tmp_path / "one_arm.csv"
        data.write_text("id,x,treatment,outcome\n1,0,1,1\n2,1,1,0\n")
        code = main(["contrast", "--data", str(data)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_nonbinary_outcome_is_error(self, units_file, capsys):
        code = main(["contrast", "--data", str(units_file)])
        assert code == 1
        assert "binary" in capsys.readouterr().err


class TestCliSimulate:
    def _config(self, tmp_path, replicates=40):
        path = tmp_path / "sim.json"
        path.write_text(
            json.dumps(
                {
                    "scenario": "adversarial",
                    "layout": {"kind": "uniform_square", "n": 49, "seed": 7},
                    "rho": 0.5,
                    "alpha": 0.05,
                    "configs": [[1, 1]],
                    "replicates": replicates,
                    "seed": 99,
                }
            )
        )
        return path

    def test_writes_deterministic_files(self, tmp_path, capsys):
        config = self._config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("coverage.csv", "coverage.txt", "coverage.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_zero_replicates_is_error(self, tmp_path, capsys):
        config = self._config(tmp_path, replicates=0)
        code = main(["simulate", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: replicates must be at least 1\n"

    @pytest.mark.parametrize("n", [12, 13])
    def test_two_cluster_metadata_splits_at_the_median_latitude(self, tmp_path, capsys, n):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "scenario": "no_effect_clustering", "layout": {"kind": "two_cluster", "n": n, "seed": 7},
            "configs": [[1, 1]], "replicates": 5,
        }))
        assert main(["simulate", "--config", str(path), "--format", "json"]) == 0
        layout = json.loads(capsys.readouterr().out)["metadata"]["layout"]
        assert layout == {"kind": "two_cluster", "n": n, "seed": 7, "south_north_split": [n - n // 2, n // 2]}

    def test_other_layouts_have_no_split(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(self._config(tmp_path)), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["layout"] == {
            "kind": "uniform_square", "n": 49, "seed": 7,
        }

    def test_seed_override_changes_output(self, tmp_path, capsys):
        config = self._config(tmp_path)
        main(["simulate", "--config", str(config), "--format", "csv"])
        first = capsys.readouterr().out
        main(["simulate", "--config", str(config), "--format", "csv", "--seed", "123"])
        second = capsys.readouterr().out
        assert first != second

    def test_csv_has_a_header_and_one_row_per_design(self, tmp_path, capsys):
        main(["simulate", "--config", str(self._config(tmp_path)), "--format", "csv"])
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.startswith("d_min,d,replicates,n_valid")
        assert len(rows) == 1 and rows[0].startswith("1,1,40,")


class TestCliProbcheck:
    def test_alpha_is_not_an_option(self, units_file, config_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["probcheck", "--config", str(config_file), "--data", str(units_file), "--alpha", "7"])
        assert info.value.code == 2
        assert "unrecognized arguments: --alpha 7" in capsys.readouterr().err

    def test_oracle_agreement_small_design(self, units_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "rho": 0.5,
                    "mapping": {"kind": "threshold", "d_min": 2},
                    "neighborhood": {"d": 3},
                    "p_method": {"kind": "mc", "samples": 20000, "seed": 3},
                }
            )
        )
        code = main(["probcheck", "--config", str(config), "--data", str(units_file), "--oracle"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["max_abs_diff_joint"] < 1e-12
        assert payload["mc"]["max_abs_diff_joint"] < 0.02
        assert payload["mc"]["n_within_4se"] == payload["mc"]["n_entries"]
        assert code == 0

    def test_comparison_equals_the_dense_matrices(self, rng):
        # The stored-form comparison reads the exact profile at the all-pairs
        # profile's pairs; the dense matrices are the reference, entry by entry.
        for _ in range(20):
            nbhd, mapping, rho = random_design(rng)
            exact = exact_profile(nbhd, mapping, rho)
            rows, cols = np.triu_indices(nbhd.n, 1)
            others = (monte_carlo_profile(nbhd, mapping, rho, 300, seed=4), enumerated_profile(nbhd, mapping, rho))
            for other in others:
                diff, truth = _compare(exact, other)
                dense = np.abs(other.joint - exact.joint)
                np.testing.assert_array_equal(diff, np.concatenate((np.diagonal(dense), dense[rows, cols])))
                np.testing.assert_array_equal(truth, np.concatenate((exact.diag, exact.joint[rows, cols])))

    def test_oracle_rejected_above_20_units(self, tmp_path, capsys):
        rows = ["id,x,treatment,outcome"] + [f"u{i},{i}.0,0,1.0" for i in range(25)]
        data = tmp_path / "big.csv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"rho": 0.5, "mapping": {"kind": "product"}, "neighborhood": {"d": 2}})
        )
        code = main(["probcheck", "--config", str(config), "--data", str(data), "--oracle"])
        assert code == 1
        assert "at most 20" in capsys.readouterr().err

    def test_matrix_dump(self, units_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(CONFIG))
        out = tmp_path / "mats"
        main(
            [
                "probcheck",
                "--config", str(config),
                "--data", str(units_file),
                "--out", str(out),
                "--dump-matrices",
            ]
        )
        capsys.readouterr()
        diag, pairs = read_dump(out)
        assert rebuild_joint(diag, pairs).shape == (6, 6)
        assert sorted(path.name for path in out.iterdir()) == ["diag.csv", "pairs.csv", "probcheck.json"]


@pytest.mark.parametrize("command", ["estimate", "probcheck"])
def test_matrix_dump_without_out_is_usage_error(units_file, config_file, capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(config_file), "--data", str(units_file), "--dump-matrices"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{command}: --dump-matrices needs --out" in captured.err


@pytest.mark.parametrize("command", ["estimate", "contrast", "probcheck"])
@pytest.mark.parametrize("drop", ["mapping", "neighborhood"])
def test_half_specified_exposure_design_is_error(tmp_path, capsys, command, drop):
    data = tmp_path / "binary.csv"
    data.write_text(BINARY_CSV)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: value for key, value in CONFIG.items() if key != drop}))
    code = main([command, "--config", str(config), "--data", str(data)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {command} needs config.mapping and config.neighborhood\n"


SCAN = {"bonferroni": [[1, 1], [2, 3]]}
DESIGN = {"mapping": {"kind": "threshold", "d_min": 9}, "neighborhood": {"d": 2}}
DESIGN_KEYS = "config.mapping or config.neighborhood"
SCAN_MESSAGE = f"a bonferroni scan takes no {DESIGN_KEYS}"
DIAGNOSTICS = {"diagnostics": {"c": 1.0}}
MC = {"p_method": {"kind": "mc", "samples": 100, "seed": 1}}


@pytest.mark.parametrize(
    "argv,config,message",
    [
        ("estimate --data units.csv", {**SCAN, **DESIGN}, SCAN_MESSAGE),
        ("estimate --data units.csv", {**SCAN, "mapping": DESIGN["mapping"]}, SCAN_MESSAGE),
        ("estimate --data units.csv", {**SCAN, "neighborhood": DESIGN["neighborhood"]}, SCAN_MESSAGE),
        ("contrast --data binary.csv", SCAN, "contrast takes no config.bonferroni"),
        ("contrast --data binary.csv", {**CONFIG, **SCAN}, "contrast takes no config.bonferroni"),
        ("contrast --data counts.csv --count-mode", SCAN, "contrast takes no config.bonferroni"),
        ("probcheck --data units.csv", {**CONFIG, **SCAN}, "probcheck takes no config.bonferroni"),
        ("contrast --data binary.csv", DIAGNOSTICS, "contrast takes no config.diagnostics"),
        ("contrast --data binary.csv", {**CONFIG, **DIAGNOSTICS}, "contrast takes no config.diagnostics"),
        ("contrast --data counts.csv --count-mode", DIAGNOSTICS, "contrast takes no config.diagnostics"),
        ("probcheck --data units.csv", {**CONFIG, **DIAGNOSTICS}, "probcheck takes no config.diagnostics"),
        ("contrast --data counts.csv --count-mode", MC, "contrast --count-mode takes no config.p_method"),
        ("contrast --data binary.csv", MC, "contrast without a design takes no config.p_method"),
        ("contrast --data counts.csv --count-mode", {**DESIGN, **MC}, f"contrast --count-mode takes no {DESIGN_KEYS}"),
    ],
)
def test_config_keys_the_command_would_ignore_are_errors(tmp_path, capsys, argv, config, message):
    for name, text in (("units.csv", UNITS_CSV), ("binary.csv", BINARY_CSV), ("counts.csv", COUNTS_CSV)):
        (tmp_path / name).write_text(text)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"rho": 0.5, **config}))
    words = [str(tmp_path / word) if word.endswith(".csv") else word for word in argv.split()]
    code = main(words + ["--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", ["contrast --data binary.csv", "estimate --config c.json --data units.csv"])
def test_alpha_flag_is_checked_as_a_config_value(tmp_path, capsys, argv):
    (tmp_path / "units.csv").write_text(UNITS_CSV)
    (tmp_path / "binary.csv").write_text(BINARY_CSV)
    (tmp_path / "c.json").write_text(json.dumps(CONFIG))
    words = [str(tmp_path / word) if "." in word else word for word in argv.split()]
    code = main(words + ["--alpha", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: config: alpha must lie in (0, 1), got 2.0\n"


@pytest.mark.parametrize("p_method", ["exact", {"kind": "mc", "samples": 500, "seed": 3}])
def test_matrix_dump_rebuilds_the_profile(units_file, tmp_path, capsys, p_method):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(dict(CONFIG, p_method=p_method)))
    out = tmp_path / "mats"
    main(["estimate", "--config", str(config), "--data", str(units_file), "--out", str(out), "--dump-matrices"])
    capsys.readouterr()
    pop = pkgio.load_units(units_file, CONFIG["rho"])
    nbhd = build_knn_neighborhoods(pop, CONFIG["neighborhood"]["d"])
    mapping = ExposureMapping.threshold(CONFIG["mapping"]["d_min"])
    if p_method == "exact":
        profile = exact_profile(nbhd, mapping, CONFIG["rho"])
    else:
        profile = monte_carlo_profile(nbhd, mapping, CONFIG["rho"], p_method["samples"], p_method["seed"])
    diag, pairs = read_dump(out)
    assert np.array_equal(rebuild_joint(diag, pairs), profile.joint)
    excess, _ = center_excess(profile.joint, profile.p)
    assert np.array_equal(diag["excess"], np.diagonal(excess))
    assert np.array_equal(pairs["excess"], excess[profile.rows, profile.cols])
    assert np.array_equal(diag["row_excess"], profile.row_excess)
    assert pairs["i"].size == profile.rows.size


def _option(action) -> tuple:
    """An option's default, choices, whether it is required, and what it reads: a type name, or "flag"."""
    kind = "flag" if action.nargs == 0 else getattr(action.type, "__name__", "str")
    return action.default, action.choices, action.required, kind


REQUIRED, OPTIONAL, SEED = (None, None, True, "str"), (None, None, False, "str"), (None, None, False, "int")
ALPHA, FLAG = (None, None, False, "float"), (False, None, False, "flag")
FORMATS = ("json", "text", "csv")
OPTIONS = {
    "estimate": {
        "--config": REQUIRED, "--data": REQUIRED, "--out": OPTIONAL, "--seed": SEED, "--alpha": ALPHA,
        "--neighborhoods": OPTIONAL, "--format": ("json", FORMATS, False, "str"), "--dump-matrices": FLAG,
    },
    "contrast": {
        "--config": OPTIONAL, "--data": REQUIRED, "--count-mode": FLAG, "--out": OPTIONAL, "--seed": SEED,
        "--alpha": ALPHA, "--format": ("json", FORMATS, False, "str"),
    },
    "simulate": {"--config": REQUIRED, "--out": OPTIONAL, "--seed": SEED, "--format": ("text", FORMATS, False, "str")},
    "probcheck": {
        "--config": REQUIRED, "--data": REQUIRED, "--out": OPTIONAL, "--seed": SEED, "--oracle": FLAG,
        "--format": ("json", ("json", "text"), False, "str"), "--dump-matrices": FLAG,
    },
}


def test_each_subcommand_takes_its_recorded_options():
    (commands,) = (action for action in build_parser()._actions if action.dest == "command")
    found = {
        name: {action.option_strings[-1]: _option(action) for action in sub._actions if action.dest != "help"}
        for name, sub in commands.choices.items()
    }
    assert found == OPTIONS
