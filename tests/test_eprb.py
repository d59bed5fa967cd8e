"""Pair-experiment verification: statistics, decomposition, models, the
correlation ODE, and the seeded simulator."""

import math

import numpy as np
import pytest

from robustq import (CorrelationModel, OutcomeTable, RouterSetting,
                     accumulate_statistics, decompose, fisher_discrete,
                     model_correlation, pair_table,
                     pair_table_from_correlation, recompose, simulate_pairs,
                     simulate_pairs_from_table, solve_robust_ode)
from robustq.eprb import PAIR_OUTCOMES, pair_probabilities
from robustq.errors import (BranchError, EmptyDataError, InvalidModelError)
from robustq.sterngerlach import sg_probabilities


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestAccumulateStatistics:
    def test_two_event_tally(self):
        stats = accumulate_statistics([(1, -1), (-1, 1)])
        assert stats.mean_x == 0.0 and stats.mean_y == 0.0
        assert stats.correlation == -1.0
        assert stats.counts.as_tuple() == (0, 1, 1, 0)

    def test_constant_stream(self):
        stats = accumulate_statistics([(1, 1)] * 17)
        assert stats.mean_x == 1.0 and stats.mean_y == 1.0
        assert stats.correlation == 1.0

    def test_empty_stream_raises(self):
        with pytest.raises(EmptyDataError):
            accumulate_statistics([])

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            accumulate_statistics([(1, 2)])


class TestDecomposition:
    def test_uniform_table(self):
        dec = decompose(pair_table(math.pi / 2, CorrelationModel.singlet()))
        assert dec.e0 == 1.0
        assert abs(dec.e1) < 1e-16 and abs(dec.e2) < 1e-16
        assert abs(dec.e12) < 1e-15

    def test_perfect_anticorrelation(self):
        dec = decompose(pair_table(0.0, CorrelationModel.singlet()))
        assert dec.e12 == -1.0
        table = pair_table(0.0, CorrelationModel.singlet())
        assert table.prob_of((1, -1)) == 0.5
        assert table.prob_of((1, 1)) == 0.0

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = rng.dirichlet(np.ones(4))
            table = OutcomeTable(outcomes=PAIR_OUTCOMES, probs=tuple(p))
            back = recompose(decompose(table))
            np.testing.assert_allclose(back.probs, table.probs, rtol=0,
                                       atol=1e-15)


class TestPairTable:
    def test_uniform_at_right_angle(self):
        table = pair_table(math.pi / 2, CorrelationModel.singlet())
        np.testing.assert_allclose(table.probs, 0.25, rtol=0, atol=1e-16)

    def test_double_frequency_model_uniform_at_pi_over_four(self):
        table = pair_table(math.pi / 4, CorrelationModel.general(2, 0.0))
        np.testing.assert_allclose(table.probs, 0.25, rtol=0, atol=1e-15)

    def test_marginals_are_half(self):
        for theta in np.linspace(0, 2 * math.pi, 101):
            table = pair_table(theta, CorrelationModel.singlet())
            p = dict(zip(table.outcomes, table.probs))
            marginal_x = p[(1, 1)] + p[(1, -1)]
            marginal_y = p[(1, 1)] + p[(-1, 1)]
            assert marginal_x == 0.5
            assert marginal_y == 0.5
            assert sum(table.probs) == 1.0

    def test_correlation_bound_enforced(self):
        with pytest.raises(InvalidModelError):
            pair_table_from_correlation(1.0 + 1e-9)

    @pytest.mark.parametrize("probabilities,error", [
        (pair_probabilities, InvalidModelError),
        (sg_probabilities, ValueError)], ids=["pair", "sg"])
    def test_array_call_equals_scalar_calls(self, probabilities, error):
        # the scans build every angle's row in one call
        values = np.cos(np.linspace(0.0, math.pi, 257))
        values[[0, -1]] = [1.0, -1.0]
        rows = np.stack(probabilities(values), axis=1)
        for value, row in zip(values.tolist(), rows):
            assert row.tolist() == list(probabilities(value))
        for bad in (1.0 + 1e-9, -1.0 - 1e-9):
            with pytest.raises(error):
                probabilities(np.concatenate([values, [bad]]))
            with pytest.raises(error):
                probabilities(bad)

    def test_correlation_curve_stays_in_band(self):
        for model in (CorrelationModel.singlet(),
                      CorrelationModel.general(3, math.pi)):
            for theta in np.linspace(0, 2 * math.pi, 257):
                assert abs(model.correlation_vs_angle(theta)) <= 1.0


class TestModelCorrelation:
    def test_singlet_parallel_routers(self):
        setting = RouterSetting(unit([0, 0, 1]), unit([0, 0, 1]))
        assert model_correlation(setting, CorrelationModel.singlet()) == -1.0

    def test_triplet_along_y(self):
        setting = RouterSetting(unit([0, 1, 0]), unit([0, 1, 0]))
        assert model_correlation(setting,
                                 CorrelationModel.triplet_z0()) == -1.0

    def test_triplet_sign_pattern(self):
        rng = np.random.default_rng(9)
        model = CorrelationModel.triplet_z0()
        for _ in range(1000):
            a1 = unit(rng.normal(size=3))
            a2 = unit(rng.normal(size=3))
            expected = (a1[0] * a2[0] - a1[1] * a2[1] + a1[2] * a2[2])
            got = model_correlation(RouterSetting(a1, a2), model)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_singlet_rotation_invariance(self):
        rng = np.random.default_rng(17)
        a1 = unit([1.0, 0.2, -0.4])
        a2 = unit([-0.3, 1.0, 0.5])
        base = model_correlation(RouterSetting(a1, a2),
                                 CorrelationModel.singlet())
        for _ in range(100):
            rot = random_rotation(rng)
            rotated = RouterSetting(unit(rot @ a1), unit(rot @ a2))
            value = model_correlation(rotated, CorrelationModel.singlet())
            assert value == pytest.approx(base, abs=1e-12)


class TestRobustOde:
    def test_unit_fisher_anticorrelated_branch(self):
        grid = np.linspace(0, math.pi, 1001)
        curve = solve_robust_ode(1.0, math.pi, grid)
        assert np.max(np.abs(curve + np.cos(grid))) < 1e-6

    def test_fisher_four_double_frequency(self):
        grid = np.linspace(0, math.pi, 1001)
        curve = solve_robust_ode(4.0, 0.0, grid)
        assert np.max(np.abs(curve - np.cos(2 * grid))) < 1e-6

    def test_initial_condition_exact(self):
        curve = solve_robust_ode(1.0, 0.0, np.array([0.0, 0.5]))
        assert curve[0] == 1.0

    def test_generic_phase_branch(self):
        grid = np.linspace(0, 2.5, 500)
        curve = solve_robust_ode(2.0, math.pi / 2 + 1e-14, grid)
        target = np.cos(grid * math.sqrt(2.0) + math.pi / 2)
        assert np.max(np.abs(curve - target)) < 1e-6

    def test_rejects_nonpositive_fisher(self):
        with pytest.raises(ValueError):
            solve_robust_ode(0.0, 0.0, np.array([0.0, 1.0]))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            solve_robust_ode(1.0, 0.0, np.array([0.5, 0.2]))


class TestConstantFisherProperty:
    @pytest.mark.parametrize("model,expected", [
        (CorrelationModel.singlet(), 1.0),
        (CorrelationModel.general(2, 0.0), 4.0),
    ])
    def test_fisher_constant_along_curve(self, model, expected):
        thetas = np.linspace(0.0, math.pi, 50)
        for theta in thetas:
            if abs(model.correlation_vs_angle(theta)) > 1 - 1e-6:
                continue
            report = fisher_discrete(pair_table(theta, model))
            assert report.scalar() == pytest.approx(expected, abs=1e-6)


class TestSimulatePairs:
    def test_same_seed_identical(self):
        model = CorrelationModel.singlet()
        a = simulate_pairs(0.8, model, 5000, seed=123)
        b = simulate_pairs(0.8, model, 5000, seed=123)
        assert a == b

    def test_different_seed_differs(self):
        model = CorrelationModel.singlet()
        a = simulate_pairs(0.8, model, 5000, seed=123)
        b = simulate_pairs(0.8, model, 5000, seed=124)
        assert a != b

    def test_zero_probability_outcomes_never_drawn(self):
        counts = simulate_pairs(0.0, CorrelationModel.singlet(), 20000,
                                seed=77)
        assert counts.n_pp == 0
        assert counts.n_mm == 0
        assert counts.total == 20000

    def test_monte_carlo_matches_model(self):
        model = CorrelationModel.singlet()
        n = 10 ** 5
        counts = simulate_pairs(math.pi / 3, model, n, seed=2024)
        assert abs(counts.correlation() - (-0.5)) <= 4 / math.sqrt(n)

    def test_partitioned_trials_merge_to_serial_result(self):
        # the split point and total straddle the generator's internal
        # 65536-word blocks, so block-boundary bookkeeping is exercised
        table = pair_table(1.1, CorrelationModel.singlet())
        whole = simulate_pairs_from_table(table, 140000, seed=5)
        part1 = simulate_pairs_from_table(table, 70000, seed=5)
        part2 = simulate_pairs_from_table(table, 70000, seed=5,
                                          first_trial=70000)
        merged = tuple(a + b for a, b in zip(part1.as_tuple(),
                                             part2.as_tuple()))
        assert merged == whole.as_tuple()

    def test_convergence_rate(self):
        model = CorrelationModel.singlet()
        theta = 1.0
        target = model.correlation_vs_angle(theta)
        for n in (10 ** 4, 10 ** 5, 10 ** 6):
            counts = simulate_pairs(theta, model, n, seed=99)
            assert abs(counts.correlation() - target) <= 4 / math.sqrt(n)


class TestModelValidation:
    def test_zero_frequency_rejected(self):
        with pytest.raises(InvalidModelError):
            CorrelationModel.general(0, 0.0)

    def test_phase_restricted(self):
        with pytest.raises(InvalidModelError):
            CorrelationModel.general(1, 0.5)

    def test_router_setting_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            RouterSetting(np.array([1.0, 1.0, 0.0]), np.array([0, 0, 1.0]))


class TestBranchError:
    def test_unstable_step_reports_branch_failure(self):
        # absurdly large substeps destabilise the fourth-order update and
        # push the curve past the admissible band
        with pytest.raises(BranchError):
            solve_robust_ode(400.0, 0.0, np.linspace(0, 20, 5),
                             max_step=0.9)


class TestOdeModelConsistency:
    def test_triple_frequency_antiphase(self):
        grid = np.linspace(0, math.pi, 1501)
        curve = solve_robust_ode(9.0, math.pi, grid)
        model = CorrelationModel.general(3, math.pi)
        target = np.array([model.correlation_vs_angle(t) for t in grid])
        assert np.max(np.abs(curve - target)) < 1e-6


class TestSeedValidation:
    def test_seed_must_fit_in_64_bits(self):
        model = CorrelationModel.singlet()
        with pytest.raises(ValueError):
            simulate_pairs(0.4, model, 10, seed=2 ** 64)
        with pytest.raises(ValueError):
            simulate_pairs(0.4, model, 10, seed=-1)
        simulate_pairs(0.4, model, 10, seed=2 ** 64 - 1)  # top edge accepted
