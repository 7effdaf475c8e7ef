import numpy as np
import pytest

import interfere as itf
from interfere.errors import ValidationError
from interfere.simulate import _count_pool


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
        treated_neighbors = nearest5.incidence() @ x - x
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
        for replicate in range(4):
            _, theta = itf.generate_scenario(scenario, replicate)
            assert sorted(theta.tolist()) == sorted(pool.tolist())


class TestCoverageExperiment:
    def test_deterministic_given_seed(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        a = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 60)
        b = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 60)
        assert a == b

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

    def test_csv_and_text_render(self, square49):
        scenario = itf.Scenario(kind="adversarial", layout=square49, seed=21)
        table = itf.run_coverage_experiment(scenario, [(1, 1), (2, 3)], 0.05, 30)
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0].startswith("d_min,d,replicates")
        assert len(csv_text.splitlines()) == 3
        assert "scenario=adversarial" in table.to_text()

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
