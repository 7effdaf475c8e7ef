import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interfere as itf
from interfere.cli import main
from interfere.design import EffectiveTreatment, evaluate_exposure_many
from interfere.errors import ValidationError
from interfere import monotone
from interfere.monotone import _one_row, _score
from interfere.simulate import LAYOUT_KINDS, _adversarial_pool, _count_pool, _draw, _replicate_outcomes

from conftest import incidence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DESIGNS = ((1, 1), (2, 3), (3, 6), (5, 10))
SCALED_ADVERSARIAL = "ignore:adversarial scenario is defined at 49 units"


class TestSyntheticLayout:
    def test_line_is_integer_grid(self):
        layout = itf.synthetic_layout("line", 5)
        assert layout.shape == (5, 1)
        assert layout[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_uniform_square_deterministic(self):
        a = itf.synthetic_layout("uniform_square", 20, seed=3)
        b = itf.synthetic_layout("uniform_square", 20, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, itf.synthetic_layout("uniform_square", 20, seed=4))

    def test_two_cluster_split_counts(self):
        layout = itf.synthetic_layout("two_cluster", 49, seed=0)
        south = (layout[:, 1] < 5.0).sum()
        assert south == 24  # floor(49 / 2) around the southern center

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown layout"):
            itf.synthetic_layout("hexagon", 10)


@pytest.fixture(scope="module")
def square49():
    return itf.synthetic_layout("uniform_square", 49, seed=7)


class TestGenerateScenario:
    def test_no_effect_scenarios_set_outcome_to_counterfactual(self, square49):
        for kind in ("no_effect_no_clustering", "no_effect_clustering"):
            scenario = itf.Scenario(kind=kind, layout=square49, seed=1)
            pop, theta = itf.generate_scenario(scenario, 0)
            assert np.array_equal(pop.outcome, theta)

    def test_clustering_scenario_is_bimodal_split(self, square49):
        scenario = itf.Scenario(kind="no_effect_clustering", layout=square49, seed=1)
        _, theta = itf.generate_scenario(scenario, 0)
        latitude = square49[:, -1]
        south = latitude <= np.median(latitude)
        assert set(theta[south]) == {3.0}
        assert set(theta[~south]) == {15.0}
        assert south.sum() == 25  # median point included in the south

    def test_adversarial_pool_composition(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=1)
        _, theta = itf.generate_scenario(scenario, 3)
        values, counts = np.unique(theta, return_counts=True)
        assert values.tolist() == [0.0, 10.0, 20.0]
        assert counts.tolist() == [2, 44, 3]

    def test_adversarial_outcome_rule(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=1)
        pop, theta = itf.generate_scenario(scenario, 5)
        treated_zero = (pop.treatment > 0) & (theta == 0)
        assert np.all(pop.outcome[treated_zero] == 10.0)
        assert np.array_equal(pop.outcome[~treated_zero], theta[~treated_zero])

    def test_adversarial_other_sizes_scale_with_warning(self):
        layout = itf.synthetic_layout("uniform_square", 98, seed=2)
        scenario = itf.Scenario(kind="adversarial", layout=layout, seed=1)
        with pytest.warns(UserWarning, match="scaling"):
            _, theta = itf.generate_scenario(scenario, 0)
        values, counts = np.unique(theta, return_counts=True)
        assert values.tolist() == [0.0, 10.0, 20.0]
        assert counts.sum() == 98
        assert counts[0] == 4 and counts[2] == 6

    def test_exposure_model_matches_rule(self, square49):
        scenario = itf.Scenario(kind="exposure_model", layout=square49, seed=9)
        pop, theta = itf.generate_scenario(scenario, 2)
        nearest5 = itf.build_knn_neighborhoods(square49, 6)
        x = pop.treatment.astype(float)
        treated_neighbors = incidence(nearest5) @ x - x
        qualified = (pop.treatment > 0) & (treated_neighbors >= 2)
        assert np.array_equal(pop.outcome[qualified], theta[qualified])
        inflated = pop.outcome[~qualified] - theta[~qualified]
        assert np.all(inflated > 0)
        assert np.all(inflated <= scenario.spillover_max)

    def test_monotonicity_holds_in_every_scenario(self, square49):
        for kind in itf.SCENARIO_KINDS:
            scenario = itf.Scenario(kind=kind, layout=square49, seed=11)
            for replicate in range(5):
                pop, theta = itf.generate_scenario(scenario, replicate)
                assert np.all(theta <= pop.outcome + 1e-12)
                assert np.all(theta >= 0)

    def test_replicates_are_deterministic_and_distinct(self, square49):
        scenario = itf.Scenario(kind="no_effect_no_clustering", layout=square49, seed=4)
        pop_a, theta_a = itf.generate_scenario(scenario, 7)
        pop_b, theta_b = itf.generate_scenario(scenario, 7)
        assert np.array_equal(pop_a.treatment, pop_b.treatment)
        assert np.array_equal(theta_a, theta_b)
        pop_c, _ = itf.generate_scenario(scenario, 8)
        assert not np.array_equal(pop_a.treatment, pop_c.treatment)

    def test_count_pool_is_fixed_per_scenario(self, square49):
        scenario = itf.Scenario(kind="no_effect_no_clustering", layout=square49, seed=4)
        pool = _count_pool(scenario)
        assert np.array_equal(scenario.count_pool, pool)
        for replicate in range(4):
            _, theta = itf.generate_scenario(scenario, replicate)
            assert sorted(theta.tolist()) == sorted(pool.tolist())


class TestCoverageExperiment:
    def test_deterministic_given_seed(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        a = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 60)
        b = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 60)
        assert a == b

    def test_builds_neighborhoods_once_per_size(self, square49, monkeypatch):
        scenario = itf.Scenario(kind="exposure_model", layout=square49, seed=5)
        configs = [(1, 1), (2, 3), (4, 10), (5, 10), (3, 3)]
        expected = itf.run_coverage_experiment(scenario, configs, 0.05, 40)
        sizes = []

        def counting_knn(pop_or_coords, d):
            sizes.append(d)
            return itf.build_knn_neighborhoods(pop_or_coords, d)

        monkeypatch.setattr("interfere.exposure.build_knn_neighborhoods", counting_knn)
        assert itf.run_coverage_experiment(scenario, configs, 0.05, 40) == expected
        assert sorted(sizes) == [1, 3, 10]

    def test_adversarial_1_1_identical_across_layouts(self):
        # at singleton neighborhoods geometry is unused, so tables agree cell
        # by cell for equal seeds
        rows = []
        for layout in (
            itf.synthetic_layout("line", 49),
            itf.synthetic_layout("uniform_square", 49, seed=7),
        ):
            scenario = itf.Scenario(kind="adversarial", layout=layout, seed=33)
            rows.append(itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 100).rows[0])
        assert rows[0] == rows[1]

    def test_degenerate_replicates_are_tallied(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        table = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 200)
        row = table.rows[0]
        assert row.n_degenerate > 0
        assert row.n_valid == 200
        assert row.n_condition_met <= row.n_valid - row.n_degenerate

    def test_estimand_recorded(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        table = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 10)
        assert table.estimand == pytest.approx(500.0 / 49.0)

    def test_rejects_bad_arguments(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        with pytest.raises(ValidationError):
            itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 0)
        with pytest.raises(ValidationError):
            itf.run_coverage_experiment(scenario, [], 0.05, 10)

    def test_text_render(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        table = itf.run_coverage_experiment(scenario, [(1, 1), (2, 3)], 0.05, 30)
        assert "scenario=adversarial" in table.to_text()
        assert len(table.to_text().splitlines()) == 4

    def test_good_rows_cover_at_nominal_level(self, square49):
        # the three designs whose simulated coverage clears 95% in every
        # scenario; binomial error at 1000 replicates justifies the 0.93 floor
        configs = [(2, 3), (3, 6), (4, 10)]
        for kind in itf.SCENARIO_KINDS:
            scenario = itf.Scenario(kind=kind, layout=square49, seed=20260810)
            table = itf.run_coverage_experiment(scenario, configs, 0.05, 1000)
            for row in table.rows:
                assert row.coverage_given_condition is not None
                assert row.coverage_given_condition >= 0.93, (kind, row.d_min, row.d)


def reference_replicate(scenario, r):
    """(x, y, theta) of replicate r, drawn one replicate at a time as the
    harness drew them before batching (reference)."""
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(1, r)))
    n = scenario.n
    x = (rng.random(n) < scenario.rho).astype(np.int8)
    if scenario.kind == "no_effect_no_clustering":
        theta = rng.permutation(_count_pool(scenario))
        y = theta.copy()
    elif scenario.kind == "no_effect_clustering":
        latitude = scenario.layout[:, -1]
        theta = np.where(latitude <= np.median(latitude), 3.0, 15.0)
        y = theta.copy()
    elif scenario.kind == "exposure_model":
        theta = rng.permutation(_count_pool(scenario))
        spill = scenario.spillover_max * (1.0 - rng.random(n))
        nearest = incidence(itf.build_knn_neighborhoods(scenario.layout, 6))
        y = np.where((x > 0) & (nearest @ x >= 3), theta, theta + spill)
    else:
        theta = rng.permutation(_adversarial_pool(n))
        y = np.where((x > 0) & (theta == 0), 10.0, theta)
    return x, y, theta


def check_batch_against_scalar(scenario, alpha, replicates=25):
    """Require every per-replicate decision of the batched engine to equal
    ``evaluate_exposure`` + a one-row ``_score`` on ``generate_scenario``'s
    output, and its estimate, variance, condition and upper to be the same
    floats. Returns the skipped and degenerate replicates seen, summed over
    the designs."""
    x, y, theta = _draw(scenario, range(replicates))
    estimands = theta.mean(axis=1)
    seen = np.zeros(2, dtype=int)
    for d_min, d in DESIGNS:
        if d > scenario.n:
            continue
        nbhd = itf.build_knn_neighborhoods(scenario.layout, d)
        mapping = itf.ExposureMapping.threshold(d_min)
        profile = itf.exact_profile(nbhd, mapping, scenario.rho)
        z = evaluate_exposure_many(x, nbhd, mapping)
        decisions = _replicate_outcomes(y, z, estimands, profile, alpha)
        _, estimate, variance, condition, upper = _score(y, z, profile, alpha)
        for r in range(replicates):
            pop, theta_r = itf.generate_scenario(scenario, r)
            exposure = itf.evaluate_exposure(pop, nbhd, mapping)
            batched = tuple(bool(decision[r]) for decision in decisions)
            if exposure.count == 0:
                assert batched == (True, False, False, False)
                continue
            values = tuple(a[0] for a in _score(*_one_row(pop.outcome, exposure, profile, True), profile, alpha)[1:])
            covered = float(theta_r.mean()) <= values[3]
            assert batched == (False, values[1] == 0.0, values[2], covered), (d_min, d, r)
            assert (estimate[r], variance[r], condition[r], upper[r]) == values, (d_min, d, r)
        seen += [np.count_nonzero(decisions[0]), np.count_nonzero(decisions[1])]
    return seen


class TestBatchedReplicates:
    @pytest.mark.filterwarnings(SCALED_ADVERSARIAL)
    @pytest.mark.parametrize("kind", itf.SCENARIO_KINDS)
    @pytest.mark.parametrize("n", [6, 49, 500])
    def test_batch_draws_equal_generate_scenario(self, kind, n):
        layout = itf.synthetic_layout("uniform_square", n, seed=7)
        scenario = itf.Scenario(kind=kind, layout=layout, seed=3)
        x, y, theta = _draw(scenario, range(2, 7))
        estimands = theta.mean(axis=1)
        for row, r in enumerate(range(2, 7)):
            pop, theta_r = itf.generate_scenario(scenario, r)
            expected = reference_replicate(scenario, r)
            for drawn in ((x[row], y[row], theta[row]), (pop.treatment, pop.outcome, theta_r)):
                for got, want in zip(drawn, expected):
                    assert np.array_equal(got, want)
            assert estimands[row] == float(theta_r.mean())

    @pytest.mark.filterwarnings(SCALED_ADVERSARIAL)
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(itf.SCENARIO_KINDS),
        layout=st.sampled_from(LAYOUT_KINDS),
        n=st.integers(6, 60),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from((0.05, 0.2, 0.5)),
    )
    def test_batched_decisions_equal_scalar(self, kind, layout, n, seed, alpha):
        coords = itf.synthetic_layout(layout, n, seed=seed % 1000)
        check_batch_against_scalar(itf.Scenario(kind=kind, layout=coords, seed=seed), alpha)

    def test_sweep_reaches_skipped_and_degenerate_replicates(self, square49):
        adversarial = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        _, degenerate = check_batch_against_scalar(adversarial, 0.05, replicates=60)
        assert degenerate > 0  # the (1, 1) rows with equal exposed outcomes
        line = itf.Scenario(kind="no_effect_no_clustering", layout=itf.synthetic_layout("line", 6), seed=5)
        skipped, _ = check_batch_against_scalar(line, 0.05, replicates=60)
        assert skipped > 0  # (3, 6) with fewer than 3 treated

    def test_coverage_at_the_scalar_upper_bound(self, square49):
        # Estimands exactly at each replicate's scalar upper bound, and one
        # float above it: a last-bit difference between the batched and the
        # scalar bound would flip one of the two.
        scenario = itf.Scenario(kind="exposure_model", layout=square49, seed=8)
        x, y, _ = _draw(scenario, range(40))
        for d_min, d in DESIGNS[1:]:
            nbhd = itf.build_knn_neighborhoods(square49, d)
            mapping = itf.ExposureMapping.threshold(d_min)
            profile = itf.exact_profile(nbhd, mapping, scenario.rho)
            z = evaluate_exposure_many(x, nbhd, mapping)
            exposed = z.sum(axis=1) > 0
            uppers = np.array([
                _score(*_one_row(y[r], EffectiveTreatment(z[r], int(z[r].sum())), profile, True), profile, 0.05)[4][0]
                if exposed[r] else 0.0
                for r in range(len(z))
            ])
            for estimands, covered in ((uppers, exposed), (np.nextafter(uppers, np.inf), np.zeros_like(exposed))):
                assert np.array_equal(_replicate_outcomes(y, z, estimands, profile, 0.05)[3], covered)

    def test_equal_non_integer_outcomes(self, square49):
        # With equal exposed outcomes the variance is 0 or a rounding residue
        # such as 4e-32, depending on the order of summation: degeneracy is
        # decided the same way in a batch and alone.
        rng = np.random.default_rng(5)
        z = (rng.random((200, 49)) < 0.5).astype(np.int8)
        nbhd = itf.build_knn_neighborhoods(square49, 1)
        mapping = itf.ExposureMapping.threshold(1)
        profile = itf.exact_profile(nbhd, mapping, 0.5)
        for value in rng.random(5):
            y = np.full(z.shape, value)
            _, degenerate, met, _ = _replicate_outcomes(y, z, np.zeros(len(z)), profile, 0.05)
            for r in range(len(z)):
                _, _, variance, condition, _ = _score(
                    *_one_row(y[r], EffectiveTreatment(z[r], int(z[r].sum())), profile, True), profile, 0.05
                )
                assert (degenerate[r], met[r]) == (variance == 0.0, condition)

    @pytest.mark.parametrize("d_min, d", [(2, 3), (3, 6), (4, 10)])
    def test_scores_do_not_depend_on_the_batch(self, square49, monkeypatch, d_min, d):
        # Alone, in the full batch, in uneven sub-batches, and in steps of a
        # few rows: every replicate's floats are the same.
        scenario = itf.Scenario(kind="exposure_model", layout=square49, seed=4)
        x, y, _ = _draw(scenario, range(60))
        nbhd = itf.build_knn_neighborhoods(square49, d)
        mapping = itf.ExposureMapping.threshold(d_min)
        profile = itf.exact_profile(nbhd, mapping, scenario.rho)
        z = evaluate_exposure_many(x, nbhd, mapping)

        def scores(rows):
            return np.column_stack(_score(y[rows], z[rows], profile, 0.05))

        full = scores(slice(None))
        for cuts in ([1, 2, 9, 33], list(range(1, 60))):  # uneven sub-batches, then each replicate alone
            assert np.array_equal(np.concatenate([scores(rows) for rows in np.split(np.arange(60), cuts)]), full)
        monkeypatch.setattr(monotone, "_BLOCK", 3 * (49 + len(profile.rows)))
        assert np.array_equal(scores(slice(None)), full)

    def test_non_finite_outcomes_are_rejected(self, square49):
        scenario = itf.Scenario(kind="exposure_model", layout=square49, spillover_max=np.inf)
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            itf.run_coverage_experiment(scenario, [(2, 3)], 0.05, 5)


def test_benchmark_tables_match_recorded_sha256(tmp_path, monkeypatch):
    """The simulate tables of every seed recorded in
    perfbench/references.json (read only) are byte-identical to the ones
    recorded there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    seeds = workloads.load_references("simulate", workloads.SPECS["simulate"])["seeds"]
    assert sorted(seeds, key=int) == [str(seed) for seed in range(21)]
    for seed, recorded in seeds.items():
        recorded = recorded["sha256"]
        inputs = workloads.generate("simulate", int(seed), tmp_path / seed)
        assert sorted(call.label for call in inputs.calls) == sorted(recorded)
        for call in inputs.calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(call.argv)) == 0
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert digest == recorded[call.label], (seed, call.label)
