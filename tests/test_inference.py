"""Inference-core verification: tables, multinomial probability, evidence,
Fisher information, and the multinomial-maximiser bounds.

Expected values tagged "oracle" below are produced by an independent route
(exhaustive enumeration, direct scalar arithmetic, closed forms) and then
asserted against the library.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustq import (CountRecord, OutcomeTable, evidence_bound_check,
                     evidence_quadratic, fisher_discrete,
                     frequency_maximizer_suite, log_evidence,
                     log_multinomial_iprob, multinomial_iprob, validate_table)
from robustq.errors import DomainError, ResourceError


def table_of(*probs, **kwargs):
    return OutcomeTable(outcomes=tuple(range(len(probs))), probs=probs,
                        **kwargs)


class TestValidateTable:
    def test_uniform_table_is_valid(self):
        assert validate_table(table_of(0.25, 0.25, 0.25, 0.25)) == []

    def test_normalisation_violation_reported(self):
        verdict = validate_table(table_of(0.5, 0.6))
        assert any("normalisation" in v for v in verdict)

    def test_boundary_probabilities_allowed(self):
        assert validate_table(table_of(1.0, 0.0)) == []

    def test_negative_probability_reported(self):
        verdict = validate_table(table_of(1.2, -0.2))
        assert any("nonnegativity" in v for v in verdict)

    def test_verdict_never_raises(self):
        assert validate_table(table_of(math.nan, 0.5))  # nonempty verdict


class TestMultinomialProbability:
    def test_binomial_direct(self):
        counts = CountRecord((0, 1), (2, 1))
        table = table_of(0.5, 0.5)
        assert multinomial_iprob(counts, table) == 0.375

    def test_certain_outcome(self):
        counts = CountRecord((0, 1, 2), (7, 0, 0))
        table = table_of(1.0, 0.0, 0.0)
        assert multinomial_iprob(counts, table) == 1.0

    def test_uniform_occupation_against_enumeration(self):
        # oracle: enumerate all 4^4 equally likely outcome sequences and
        # count those whose occupation numbers are (1, 1, 1, 1)
        hits = sum(1 for seq in itertools.product(range(4), repeat=4)
                   if sorted(seq) == [0, 1, 2, 3])
        expected = hits / 4 ** 4
        assert expected == 0.09375
        counts = CountRecord((0, 1, 2, 3), (1, 1, 1, 1))
        table = table_of(0.25, 0.25, 0.25, 0.25)
        assert multinomial_iprob(counts, table) == pytest.approx(expected,
                                                                 rel=1e-14)

    def test_zero_probability_observed_raises(self):
        counts = CountRecord((0, 1), (1, 1))
        table = table_of(1.0, 0.0)
        with pytest.raises(DomainError):
            multinomial_iprob(counts, table)
        assert log_multinomial_iprob(counts, table) == -math.inf

    def test_log_form_matches_linear_form_at_small_n(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            n = rng.multinomial(40, p)
            counts = CountRecord((0, 1, 2), tuple(int(v) for v in n))
            table = table_of(*p)
            lin = multinomial_iprob(counts, table)
            assert math.log(lin) == pytest.approx(
                log_multinomial_iprob(counts, table), abs=1e-10)

    def test_large_n_uses_log_space(self):
        counts = CountRecord((0, 1), (150, 150))
        table = table_of(0.5, 0.5)
        value = multinomial_iprob(counts, table)
        # oracle: central binomial ~ sqrt(2 / (pi N))
        assert value == pytest.approx(math.sqrt(2 / (math.pi * 300)),
                                      rel=1e-2)


class TestLogEvidence:
    def test_identical_tables_give_zero(self):
        counts = CountRecord((0, 1), (5, 3))
        table = table_of(0.4, 0.6)
        assert log_evidence(counts, table, table) == 0.0

    def test_direct_scalar_value(self):
        counts = CountRecord((0, 1), (3, 1))
        h1 = table_of(0.75, 0.25)
        h0 = table_of(0.5, 0.5)
        expected = 3 * math.log(1.5) + math.log(0.5)  # oracle
        value = log_evidence(counts, h1, h0)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(0.52325, abs=5e-6)
        # cross-check against the ratio of multinomial probabilities
        ratio = math.log(multinomial_iprob(counts, h1)
                         / multinomial_iprob(counts, h0))
        assert value == pytest.approx(ratio, rel=1e-12)

    def test_antisymmetry_is_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = rng.integers(2, 6)
            p1 = rng.dirichlet(np.ones(m))
            p0 = rng.dirichlet(np.ones(m))
            n = rng.multinomial(30, p1)
            counts = CountRecord(tuple(range(m)), tuple(int(v) for v in n))
            a = log_evidence(counts, table_of(*p1), table_of(*p0))
            b = log_evidence(counts, table_of(*p0), table_of(*p1))
            assert a == -b

    def test_zero_probability_raises(self):
        counts = CountRecord((0, 1), (1, 1))
        with pytest.raises(DomainError):
            log_evidence(counts, table_of(1.0, 0.0), table_of(0.5, 0.5))


def singlet_family_table(theta):
    from robustq.eprb import CorrelationModel, pair_table
    return pair_table(theta, CorrelationModel.singlet())


def bernoulli_family_table(theta):
    def gen(th):
        p = (1 + math.cos(th[0])) / 2
        return (p, 1 - p)
    return OutcomeTable.from_generator(gen, [theta], ("up", "down"))


class TestFisherDiscrete:
    def test_bernoulli_cosine_family_is_unit(self):
        # closed form: E'^2 / (1 - E^2) = sin^2 / sin^2 = 1 away from 0, pi
        for theta in np.linspace(0.3, math.pi - 0.3, 9):
            report = fisher_discrete(bernoulli_family_table(theta))
            assert report.scalar() == pytest.approx(1.0, abs=1e-8)
            assert report.excluded_outcomes == ()

    def test_constant_family_gives_zero_matrix(self):
        def gen(theta):
            return (0.3, 0.7)
        family = OutcomeTable.from_generator(gen, [0.4], (0, 1))
        report = fisher_discrete(family)
        np.testing.assert_allclose(report.matrix, 0.0, atol=1e-12)

    def test_double_frequency_family_gives_four(self):
        from robustq.eprb import CorrelationModel, pair_table
        model = CorrelationModel.general(2, 0.0)
        for theta in (0.31, 0.8, 1.2):
            report = fisher_discrete(pair_table(theta, model))
            assert report.scalar() == pytest.approx(4.0, abs=1e-6)

    def test_positive_semidefinite_on_random_families(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            amp = rng.normal(size=(m, d))
            phase = rng.uniform(0, 2 * math.pi, size=(m, d))

            def gen(theta, amp=amp, phase=phase):
                logits = (amp * np.sin(theta + phase)).sum(axis=1)
                w = np.exp(logits)
                return w / w.sum()

            theta0 = rng.uniform(-1, 1, size=d)
            family = OutcomeTable.from_generator(gen, theta0, tuple(range(m)))
            report = fisher_discrete(family)
            eigenvalues = np.linalg.eigvalsh(report.matrix)
            assert eigenvalues.min() >= -1e-10

    def test_excluded_outcomes_listed(self):
        def gen(theta):
            return (1.0 - 1e-15, 1e-15)
        family = OutcomeTable.from_generator(gen, [0.0], ("big", "tiny"))
        report = fisher_discrete(family)
        assert report.excluded_outcomes == ("tiny",)


class TestEvidenceQuadratic:
    def test_zero_displacement(self):
        report = evidence_quadratic(singlet_family_table(1.0), [1.0], [0.0],
                                    10 ** 4)
        assert report.log_evidence == 0.0
        assert report.quadratic_prediction == 0.0

    def test_prediction_ratio_approaches_one(self):
        # singlet family at theta = pi/2 has unit Fisher information
        family = singlet_family_table(math.pi / 2)
        n = 10 ** 6
        ratios = []
        for eps in (1e-2, 5e-3):
            report = evidence_quadratic(family, [math.pi / 2], [eps], n)
            assert report.quadratic_prediction == pytest.approx(
                -0.5 * n * eps ** 2, rel=1e-8)
            ratios.append(report.log_evidence / report.quadratic_prediction)
        assert abs(ratios[0] - 1.0) < 1e-2
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    def test_even_part_matches_prediction_to_cubic_order(self):
        family = singlet_family_table(math.pi / 3)
        n = 10 ** 4
        for eps in (1e-2, 5e-3):
            plus = evidence_quadratic(family, [math.pi / 3], [eps], n)
            minus = evidence_quadratic(family, [math.pi / 3], [-eps], n)
            even = 0.5 * (plus.log_evidence + minus.log_evidence)
            assert abs(even - plus.quadratic_prediction) <= 20 * n * eps ** 4

    def test_cubic_remainder_ratio_near_eight(self):
        # generic point: remainder is cubic, so halving eps divides it by ~8
        family = singlet_family_table(math.pi / 3)
        n = 10 ** 6
        remainders = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            report = evidence_quadratic(family, [math.pi / 3], [eps], n)
            remainders.append(abs(report.log_evidence
                                  - report.quadratic_prediction))
        for a, b in zip(remainders, remainders[1:]):
            assert 6.0 <= a / b <= 10.0

    def test_remainder_bound_holds(self):
        rng = np.random.default_rng(5)
        family = singlet_family_table(0.9)
        for _ in range(25):
            eps = float(rng.uniform(1e-4, 2e-2))
            report = evidence_quadratic(family, [0.9], [eps], 10 ** 5)
            actual = abs(report.log_evidence - report.quadratic_prediction)
            assert actual <= report.cubic_remainder_bound + 1e-12

    def test_floor_violation_raises(self):
        family = singlet_family_table(0.0)  # perfect anticorrelation: zeros
        with pytest.raises(DomainError):
            evidence_quadratic(family, [0.0], [1e-3], 100)

    @pytest.mark.parametrize("eps", [1e154, -1e154, 1e308])
    def test_non_finite_prediction_raises_silently(self, eps):
        # N eps' I eps overflows: the prediction was -inf, the bound nan,
        # and at 1e308 the matrix product warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                evidence_quadratic(singlet_family_table(1.0), [1.0], [eps],
                                   1000)


class TestEvidenceBoundCheck:
    def test_zero_displacement_passes(self):
        check = evidence_bound_check(singlet_family_table(1.1), [1.1], [0.0])
        assert check.passed
        assert check.quadratic_form == 0.0
        assert check.upper == 0.0

    def test_one_dimensional_bound_is_tight(self):
        check = evidence_bound_check(singlet_family_table(0.7), [0.7], [1e-2])
        assert check.passed
        assert check.quadratic_form == pytest.approx(check.upper, rel=1e-12)

    def test_sandwich_on_random_two_parameter_families(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            a = rng.uniform(0.5, 2.0, size=2)
            b = rng.uniform(0, 2 * math.pi, size=2)

            def gen(theta, a=a, b=b):
                p1 = (1 + math.cos(a[0] * theta[0] + b[0])) / 2
                p2 = (1 + math.cos(a[1] * theta[1] + b[1])) / 2
                return (p1 * p2, p1 * (1 - p2), (1 - p1) * p2,
                        (1 - p1) * (1 - p2))

            theta0 = rng.uniform(0.3, math.pi - 0.3, size=2)
            family = OutcomeTable.from_generator(gen, theta0,
                                                 tuple(range(4)))
            eps = rng.uniform(-1e-2, 1e-2, size=2)
            check = evidence_bound_check(family, theta0, eps)
            assert check.passed
            assert check.lower <= check.quadratic_form <= check.upper + 1e-12


class TestFrequencyMaximizerSuite:
    def test_fair_coin_three_trials_tie(self):
        report = frequency_maximizer_suite(np.array([0.5, 0.5]), 3, 2)
        assert set(report.maximizers) == {(1, 2), (2, 1)}
        assert report.bounds_satisfied
        assert report.n_compositions == 4

    def test_counts_input_yields_assignments(self):
        report = frequency_maximizer_suite(np.array([3, 1]), 4, 2)
        assert report.maximizers is None
        assignment = report.assignments[0]
        assert assignment.maximizing == (0.6, 0.2)
        assert assignment.frequencies == (0.75, 0.25)
        # the maximising assignment deliberately sums to N / (N + 1)
        assert sum(assignment.maximizing) == pytest.approx(4 / 5)

    def test_three_outcome_maximizer_and_bounds(self):
        report = frequency_maximizer_suite(np.array([1 / 2, 1 / 3, 1 / 6]),
                                           6, 3)
        assert (3, 2, 1) in report.maximizers
        assert report.bounds_satisfied
        assert report.n_compositions == 28

    def test_bounds_hold_exhaustively_on_random_tables(self):
        rng = np.random.default_rng(41)
        for m in (2, 3):
            for n in range(1, 13):
                for _ in range(10):
                    p = rng.dirichlet(np.ones(m)) + 1e-3
                    p /= p.sum()
                    report = frequency_maximizer_suite(p, n, m)
                    assert report.bound_violations == ()

    def test_composition_cap(self):
        # 20 of 40 equal outcomes hold one count: C(40, 20) = 1.4e11 candidates
        with pytest.raises(ResourceError):
            frequency_maximizer_suite(np.full(40, 1 / 40), 20, 40)

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(DomainError):
            frequency_maximizer_suite(np.array([1.0, 0.0]), 3, 2)

    @pytest.mark.parametrize("m,n_total,expected", [
        (3, 10 ** 7 + 1, 3), (2, 10 ** 7 + 1, 2), (4, 10 ** 7 + 2, 6)])
    def test_exact_ties_kept_at_large_n(self, m, n_total, expected):
        report = frequency_maximizer_suite(np.full(m, 1 / m), n_total, m)
        assert len(report.maximizers) == expected
        assert report.bounds_satisfied

    def test_bounds_hold_at_large_n(self):
        report = frequency_maximizer_suite(np.array([0.1, 0.2, 0.3, 0.4]),
                                           10 ** 6, 4)
        assert report.maximizers == ((100000, 200000, 300000, 400000),)
        assert report.bounds_satisfied

    @pytest.mark.parametrize("m,n_total", [(3, 10 ** 12), (2, 10 ** 400)],
                             ids=["thirds-1e12", "halves-1e400"])
    def test_unresolvable_ties_raise(self, m, n_total):
        # at 1e12, one-count steps of ~3e-12 in the log pmf lie within the
        # tie tolerance; beyond 2**53 counts are not exact as floats
        with pytest.raises(ResourceError):
            frequency_maximizer_suite(np.full(m, 1 / m), n_total, m)


def compositions(n, m):
    """Every weak composition of n into m parts, in lexicographic order."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def enumerated_maximizers(probs, n_total):
    """oracle: score every composition by its log pmf and keep those within
    1e-10 * max(1, |best|) of the best, in enumeration order."""
    log_p = [math.log(p) for p in probs]
    scored = [(comp, math.lgamma(n_total + 1)
               - sum(math.lgamma(k + 1) for k in comp)
               + sum(k * lp for k, lp in zip(comp, log_p) if k))
              for comp in compositions(n_total, len(probs))]
    best = max(lp for _, lp in scored)
    tol = 1e-10 * max(1.0, abs(best))
    return tuple(comp for comp, lp in scored if lp >= best - tol)


# tie-prone rational tables k / 12 and k / 60, Dirichlet draws, and positive
# weights that do not sum to 1
RATIONAL = st.tuples(
    st.sampled_from([12, 60]),
    st.lists(st.integers(1, 12), min_size=2, max_size=5)).map(
        lambda dk: [k / dk[0] for k in dk[1]])
DIRICHLET = st.tuples(st.integers(2, 5), st.integers(0, 2 ** 32 - 1)).map(
    lambda ms: list(np.random.default_rng(ms[1]).dirichlet(np.ones(ms[0]))))
WEIGHTS = st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=5)


class TestMaximizersAgainstEnumeration:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(probs=st.one_of(RATIONAL, DIRICHLET, WEIGHTS),
           n_total=st.integers(1, 24))
    def test_same_maximizers_in_the_same_order(self, probs, n_total):
        report = frequency_maximizer_suite(np.array(probs), n_total,
                                           len(probs))
        assert report.maximizers == enumerated_maximizers(probs, n_total)


def product_cosine_family(theta):
    """Two independent cosine coins; Fisher matrix is the 2x2 identity."""
    def gen(th):
        p1 = (1 + math.cos(th[0])) / 2
        p2 = (1 + math.cos(th[1])) / 2
        return (p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2))
    return OutcomeTable.from_generator(gen, theta, tuple(range(4)))


class TestMultiParameterEvidence:
    def test_fisher_matrix_is_identity(self):
        family = product_cosine_family([1.1, 2.0])
        report = fisher_discrete(family)
        np.testing.assert_allclose(report.matrix, np.eye(2), atol=1e-7)

    def test_quadratic_prediction_in_two_dimensions(self):
        family = product_cosine_family([1.1, 2.0])
        n = 10 ** 5
        eps = np.array([4e-3, -3e-3])
        report = evidence_quadratic(family, [1.1, 2.0], eps, n)
        expected = -0.5 * n * float(eps @ eps)  # identity Fisher matrix
        assert report.quadratic_prediction == pytest.approx(expected,
                                                            rel=1e-6)
        assert report.log_evidence == pytest.approx(expected,
                                                    abs=report.cubic_remainder_bound)

    def test_robust_counts_agree_with_count_record_route(self):
        # when N p_o(theta) are whole numbers, the evidence with robust
        # counts must equal log_evidence on the literal count record
        theta = math.pi / 2
        family = singlet_family_table(theta)
        n = 1000  # p = 1/4 each: counts of 250
        eps = 7e-3
        report = evidence_quadratic(family, [theta], [eps], n)
        counts = CountRecord(family.outcomes, (250, 250, 250, 250))
        displaced = OutcomeTable.from_generator(family.generator,
                                                [theta + eps],
                                                family.outcomes)
        direct = log_evidence(counts, displaced, family)
        assert report.log_evidence == pytest.approx(direct, rel=1e-12)
