"""Stationary-route verification: quadratures, Madelung transform, the
eigensolver, and the direct minimiser.

Oracles: Gaussian closed forms (Fisher information of a normal density is
1/sigma^2), analytic oscillator and box spectra, integration by parts
(2m(<V> - E0) = -hbar^2 I_F / 4 for a real ground state), and central
finite differences of the discrete objective for the gradient.
"""

import math

import numpy as np
import pytest

from robustq import (Grid1D, ScalarField, StationaryProblem, WaveField,
                     continuum_fisher, density_functional,
                     functional_gradient, hje_residual, madelung_join,
                     madelung_split, minimize_functional, normalized_wave,
                     shift_covariance_check, solve_eigen, wave_functional)
from robustq.errors import DomainError
from robustq.grid import gradient, gradient_adjoint


def grid_on(a, b, n):
    return Grid1D.from_interval(a, b, n)


def gaussian_density(grid, sigma, center=0.0):
    x = grid.nodes()
    values = np.exp(-(x - center) ** 2 / (2 * sigma ** 2))
    values /= grid.spacing * values.sum()
    return ScalarField(grid, values, kind="density")


def harmonic_problem(grid, energy=0.0, omega=1.0):
    x = grid.nodes()
    potential = ScalarField(grid, 0.5 * omega ** 2 * x ** 2, kind="potential")
    return StationaryProblem(potential=potential, energy=energy)


def zero_action(grid):
    return ScalarField(grid, np.zeros(grid.n_points), kind="action")


class TestContinuumFisher:
    def test_gaussian_closed_form(self):
        grid = grid_on(-10, 10, 2001)
        value = continuum_fisher(gaussian_density(grid, 0.5))
        assert value == pytest.approx(4.0, abs=1e-3)

    def test_translation_invariance(self):
        grid = grid_on(-10, 10, 2001)
        base = continuum_fisher(gaussian_density(grid, 0.7))
        moved = continuum_fisher(gaussian_density(grid, 0.7, center=1.3))
        assert moved == pytest.approx(base, abs=1e-10)

    def test_width_scaling(self):
        grid = grid_on(-12, 12, 2401)
        narrow = continuum_fisher(gaussian_density(grid, 0.5))
        wide = continuum_fisher(gaussian_density(grid, 1.0))
        assert wide == pytest.approx(narrow / 4.0, abs=1e-3)

    def test_all_nodes_excluded_raises(self):
        grid = grid_on(0, 1, 11)
        density = gaussian_density(grid, 0.3, center=0.5)
        with pytest.raises(DomainError):
            continuum_fisher(density, floor=1e3)


class TestHjeResidual:
    def test_free_constant_case(self):
        grid = grid_on(0, 1, 101)
        density = gaussian_density(grid, 10.0, center=0.5)
        potential = ScalarField(grid, np.full(101, 0.7), kind="potential")
        problem = StationaryProblem(potential=potential, energy=0.7)
        assert hje_residual(density, zero_action(grid), problem) == 0.0

    def test_plane_wave_classical_solution(self):
        grid = grid_on(-10, 10, 2001)
        k = 1.7
        density = gaussian_density(grid, 1.0)
        action = ScalarField(grid, k * grid.nodes(), kind="action")
        potential = ScalarField(grid, np.zeros(2001), kind="potential")
        problem = StationaryProblem(potential=potential, energy=k ** 2 / 2)
        assert abs(hje_residual(density, action, problem)) < 1e-10

    def test_ground_state_matches_fisher_identity(self):
        grid = grid_on(-10, 10, 2001)
        problem = harmonic_problem(grid)
        energy, wave = solve_eigen(problem, grid, 1)[0]
        density, _ = madelung_split(wave)
        at_energy = harmonic_problem(grid, energy=energy)
        residual = hje_residual(density, zero_action(grid), at_energy)
        target = -continuum_fisher(density) / at_energy.lam
        assert residual == pytest.approx(target, rel=1e-4)


class TestDensityFunctional:
    def test_vanishes_at_ground_pair(self):
        grid = grid_on(-10, 10, 2001)
        energy, wave = solve_eigen(harmonic_problem(grid), grid, 1)[0]
        density, _ = madelung_split(wave)
        problem = harmonic_problem(grid, energy=energy)
        value = density_functional(density, zero_action(grid), problem)
        assert abs(value) < 1e-3

    def test_global_action_shift_invariance(self):
        grid = grid_on(-8, 8, 801)
        density = gaussian_density(grid, 1.0)
        problem = harmonic_problem(grid, energy=0.5)
        action = ScalarField(grid, 0.3 * grid.nodes() ** 2, kind="action")
        shifted = ScalarField(grid, action.values + 5.0, kind="action")
        a = density_functional(density, action, problem)
        b = density_functional(density, shifted, problem)
        assert b == pytest.approx(a, abs=1e-12)

    def test_linear_in_trial_energy(self):
        grid = grid_on(-10, 10, 1001)
        density = gaussian_density(grid, 1.0)
        delta = 0.37
        base = density_functional(density, zero_action(grid),
                                  harmonic_problem(grid, energy=0.5))
        lowered = density_functional(density, zero_action(grid),
                                     harmonic_problem(grid, energy=0.5 - delta))
        problem = harmonic_problem(grid)
        assert lowered - base == pytest.approx(
            2 * problem.mass * problem.lam * delta, rel=1e-12)


class TestWaveFunctional:
    def test_vanishes_at_ground_pair(self):
        grid = grid_on(-10, 10, 2001)
        energy, wave = solve_eigen(harmonic_problem(grid), grid, 1)[0]
        problem = harmonic_problem(grid, energy=energy)
        assert abs(wave_functional(wave, problem)) < 1e-3

    def test_zero_energy_offset_value(self):
        grid = grid_on(-10, 10, 2001)
        energy, wave = solve_eigen(harmonic_problem(grid), grid, 1)[0]
        problem = harmonic_problem(grid, energy=0.0)
        # 2 m lambda <H> = lambda at m = hbar = omega = 1
        assert wave_functional(wave, problem) == pytest.approx(4.0, abs=1e-2)

    def test_quadrature_identity_with_energy_expectation(self):
        grid = grid_on(-10, 10, 1501)
        x = grid.nodes()
        psi = normalized_wave(grid, np.exp(-x ** 2 / 2) * np.exp(0.4j * x))
        problem = harmonic_problem(grid, energy=0.9)
        h = grid.spacing
        dpsi = np.gradient(psi.values, h)
        kinetic = 0.5 * np.trapezoid(np.abs(dpsi) ** 2, dx=h)
        potential = np.trapezoid(
            problem.potential.values * np.abs(psi.values) ** 2, dx=h)
        expected = 2 * problem.mass * problem.lam * (kinetic + potential - 0.9)
        assert wave_functional(psi, problem) == pytest.approx(expected,
                                                              abs=1e-10)

    def test_variational_minimum(self):
        grid = grid_on(-10, 10, 1001)
        energy, wave = solve_eigen(harmonic_problem(grid), grid, 1)[0]
        problem = harmonic_problem(grid, energy=energy)
        base = wave_functional(wave, problem)
        rng = np.random.default_rng(12)
        x = grid.nodes()
        for _ in range(100):
            bump = rng.normal() * np.exp(-(x - rng.uniform(-2, 2)) ** 2)
            perturbed = normalized_wave(grid,
                                        wave.values + 0.01 * bump)
            assert wave_functional(perturbed, problem) >= base - 1e-12


class TestMadelung:
    def test_real_positive_square_root(self):
        grid = grid_on(-8, 8, 801)
        density = gaussian_density(grid, 1.0)
        psi = madelung_join(density, zero_action(grid))
        np.testing.assert_allclose(psi.values.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(psi.values.real,
                                   np.sqrt(density.values), atol=1e-15)

    def test_plane_wave_phase_recovered(self):
        grid = grid_on(-8, 8, 1601)
        x = grid.nodes()
        k = 0.9
        lam = 4.0
        psi = normalized_wave(grid,
                              np.exp(-x ** 2 / 4)
                              * np.exp(1j * 0.5 * math.sqrt(lam) * k * x))
        _, action = madelung_split(psi, lam=lam)
        finite = np.isfinite(action.values)
        recovered = action.values[finite]
        target = k * x[finite]
        offset = recovered[len(recovered) // 2] - target[len(recovered) // 2]
        np.testing.assert_allclose(recovered - offset, target, atol=1e-9)

    def test_round_trip_global_phase(self):
        grid = grid_on(-6, 6, 601)
        x = grid.nodes()
        rng = np.random.default_rng(21)
        base = np.exp(-x ** 2 / 3) * (1.0 + 0.2 * np.cos(x))
        phase = 0.7 * x + 0.3 * np.sin(x)
        psi = normalized_wave(grid, base * np.exp(1j * phase))
        density, action = madelung_split(psi)
        back = madelung_join(density, action)
        ratio = back.values / psi.values
        np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-12)
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)

    def test_undefined_phase_marked(self):
        grid = grid_on(-1, 1, 21)
        values = np.linspace(-1, 1, 21).astype(complex)
        values[10] = 0.0  # exact zero amplitude mid-grid
        psi = normalized_wave(grid, values)
        _, action = madelung_split(psi)
        assert math.isnan(action.values[10])
        assert np.isfinite(action.values[9]) and np.isfinite(action.values[11])

    def test_unnormalised_field_rejected(self):
        grid = grid_on(-1, 1, 21)
        psi = WaveField(grid, np.ones(21, dtype=complex))
        with pytest.raises(ValueError):
            madelung_split(psi)


class TestSolveEigen:
    def test_oscillator_spectrum(self):
        grid = grid_on(-10, 10, 1001)
        states = solve_eigen(harmonic_problem(grid), grid, 2)
        assert states[0][0] == pytest.approx(0.5, abs=1e-4)
        assert states[1][0] == pytest.approx(1.5, abs=1e-3)

    def test_box_spectrum(self):
        grid = grid_on(0, 1, 1001)
        potential = ScalarField(grid, np.zeros(1001), kind="potential")
        problem = StationaryProblem(potential=potential, energy=0.0)
        states = solve_eigen(problem, grid, 3)
        for n, (energy, _) in enumerate(states, start=1):
            expected = n ** 2 * math.pi ** 2 / 2
            assert energy == pytest.approx(expected, rel=1e-3)

    def test_ground_density_matches_analytic_gaussian(self):
        grid = grid_on(-10, 10, 1001)
        _, wave = solve_eigen(harmonic_problem(grid), grid, 1)[0]
        x = grid.nodes()
        analytic = np.exp(-x ** 2) / math.sqrt(math.pi)
        assert np.max(np.abs(wave.density_values() - analytic)) < 1e-4

    def test_eigenvalues_ordered_and_functional_vanishes(self):
        grid = grid_on(-10, 10, 2001)
        states = solve_eigen(harmonic_problem(grid), grid, 4)
        energies = [e for e, _ in states]
        assert energies == sorted(energies)
        for energy, wave in states:
            problem = harmonic_problem(grid, energy=energy)
            assert abs(wave_functional(wave, problem)) < 5e-3

    def test_sign_convention_positive_first_antinode(self):
        grid = grid_on(-10, 10, 801)
        states = solve_eigen(harmonic_problem(grid), grid, 3)
        for _, wave in states:
            values = wave.values.real
            mag = np.abs(values)
            first_peak = next(i for i in range(1, 800)
                              if mag[i] >= mag[i - 1] and mag[i] >= mag[i + 1]
                              and mag[i] > 1e-8 * mag.max())
            assert values[first_peak] > 0


class TestShiftCovariance:
    def test_zero_shift_bitwise(self):
        grid = grid_on(-10, 10, 501)
        verdict = shift_covariance_check(harmonic_problem(grid), grid, 0.0)
        assert verdict.passed
        assert verdict.eigenvalue_diff == 0.0
        assert verdict.eigenfunction_diff == 0.0

    def test_nodal_shift_bitwise(self):
        grid = grid_on(-10, 10, 501)
        verdict = shift_covariance_check(harmonic_problem(grid), grid,
                                         5 * grid.spacing)
        assert verdict.passed

    def test_non_nodal_shift_rejected(self):
        grid = grid_on(-10, 10, 501)
        with pytest.raises(ValueError):
            shift_covariance_check(harmonic_problem(grid), grid,
                                   0.4999 * grid.spacing)

    def test_shifted_potential_on_enlarged_domain(self):
        # independent check: the same physical well centred at 0 and at 1
        # inside one enlarged box must share its spectrum and a nodally
        # translated ground density
        grid = grid_on(-11, 11, 2201)
        x = grid.nodes()
        shift = 1.0
        p0 = StationaryProblem(
            potential=ScalarField(grid, 0.5 * x ** 2, kind="potential"),
            energy=0.0)
        p1 = StationaryProblem(
            potential=ScalarField(grid, 0.5 * (x - shift) ** 2,
                                  kind="potential"),
            energy=0.0)
        (e0, w0), = solve_eigen(p0, grid, 1)
        (e1, w1), = solve_eigen(p1, grid, 1)
        assert e1 == pytest.approx(e0, abs=1e-8)
        steps = int(round(shift / grid.spacing))
        translated = np.zeros_like(w0.density_values())
        translated[steps:] = w0.density_values()[:-steps]
        assert np.max(np.abs(w1.density_values() - translated)) < 1e-10


class TestFunctionalEquivalence:
    def test_wave_and_density_forms_agree_to_second_order(self):
        # halving the spacing must shrink |F - Q| by about 4
        diffs = []
        for n in (1001, 2001, 4001):
            grid = grid_on(-10, 10, n)
            x = grid.nodes()
            psi = normalized_wave(grid,
                                  np.exp(-x ** 2 / (4 * 0.8 ** 2))
                                  * np.exp(1.3j * x))
            problem = harmonic_problem(grid, energy=0.7)
            density, action = madelung_split(psi)
            f_value = density_functional(density, action, problem)
            q_value = wave_functional(psi, problem)
            diffs.append(abs(f_value - q_value))
        for a, b in zip(diffs, diffs[1:]):
            assert 3.5 <= a / b <= 4.5


class TestGridStencils:
    """The derivative stencil and its transpose, probed at every node."""

    @pytest.mark.parametrize("n", [3, 4, 5, 131])
    def test_adjoint_identity(self, n):
        rng = np.random.default_rng(n)
        h = 0.37
        for _ in range(5):
            x, y = rng.normal(size=(2, n))
            lhs = float(gradient(x, h) @ y)
            rhs = float(x @ gradient_adjoint(y, h))
            scale = float(np.abs(gradient(x, h)).max() * np.abs(y).sum())
            assert abs(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [3, 4, 5, 131])
    def test_matches_numpy_gradient_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        real = rng.normal(size=n)
        wave = rng.normal(size=n) + 1j * rng.normal(size=n)
        for values in (real, wave, np.arange(n)):
            assert np.array_equal(gradient(values, 0.37),
                                  np.gradient(values, 0.37))

    @pytest.mark.parametrize("n", [3, 4, 5, 131])
    def test_stacked_rows_match_single_rows(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(2, n))
        stacked = gradient(rows, 0.37)
        back = gradient_adjoint(rows, 0.37)
        for k in range(2):
            assert np.array_equal(stacked[k], np.gradient(rows[k], 0.37))
            assert np.array_equal(back[k], gradient_adjoint(rows[k], 0.37))


class TestMinimizeFunctional:
    @staticmethod
    def setup_problem(n=131, half_width=3.25,
                      potential=lambda x: 0.5 * x ** 2):
        grid = grid_on(-half_width, half_width, n)
        field = ScalarField(grid, potential(grid.nodes()), kind="potential")
        energy, ground = solve_eigen(StationaryProblem(field, 0.0), grid, 1)[0]
        problem = StationaryProblem(field, energy)
        uniform = np.ones(n)
        uniform /= grid.spacing * uniform.sum()
        init = (ScalarField(grid, uniform, kind="density"),
                ScalarField(grid, np.zeros(n), kind="action"))
        return grid, problem, ground, init

    def assert_gradient_matches_fd(self, nodes):
        """functional_gradient against central finite differences of
        density_functional at ``nodes`` of a 61-node grid, for both fields."""
        grid, problem, _, _ = self.setup_problem(n=61, half_width=3.0)
        x = grid.nodes()
        density = gaussian_density(grid, 1.1)
        action = ScalarField(grid, 0.2 * np.sin(x), kind="action")
        grad_p, grad_s = functional_gradient(density, action, problem)
        h_fd = 1e-6
        base_p = np.array(density.values)
        base_s = np.array(action.values)

        def value_of(p_vals, s_vals):
            # raw field: probes move one node off the simplex, which the
            # unconstrained objective must still accept
            return density_functional(_raw_field(grid, p_vals),
                                      ScalarField(grid, s_vals,
                                                  kind="action"), problem)

        for node in nodes:
            for which, grad in (("p", grad_p), ("s", grad_s)):
                target = base_p if which == "p" else base_s
                up_vals = target.copy()
                up_vals[node] += h_fd
                dn_vals = target.copy()
                dn_vals[node] -= h_fd
                if which == "p":
                    up, dn = value_of(up_vals, base_s), value_of(dn_vals, base_s)
                else:
                    up, dn = value_of(base_p, up_vals), value_of(base_p, dn_vals)
                numeric = (up - dn) / (2 * h_fd)
                assert numeric == pytest.approx(grad[node], rel=1e-6,
                                                abs=1e-9), (which, node)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        self.assert_gradient_matches_fd(
            rng.choice(np.arange(5, 56), size=20, replace=False))

    def test_gradient_matches_finite_differences_at_edges(self):
        self.assert_gradient_matches_fd([0, 1, 2, 58, 59, 60])

    def test_default_config_converges_quickly(self):
        # the tise-minimize defaults: the same setup as acceptance criterion 10
        grid, problem, ground, init = self.setup_problem()
        result = minimize_functional(problem, grid, init)
        assert result.converged
        assert result.iterations <= 10_000
        assert np.max(np.abs(result.density.values
                             - ground.density_values())) <= 1e-3

    @pytest.mark.parametrize("potential,reference", [
        (lambda x: 0.5 * 2.0 ** 2 * x ** 2, 8.8714),
        (lambda x: 1.0 * x, -2.4361),
    ], ids=["harmonic-omega-2", "linear-slope-1"])
    def test_hard_potentials_beat_long_gradient_runs(self, potential,
                                                     reference):
        # reference: the objective that projected Barzilai-Borwein gradient
        # descent reaches after 200,000 iterations from the same start; the
        # quasi-Newton minimiser must get at least as low in 3,000
        grid, problem, _, init = self.setup_problem(potential=potential)
        result = minimize_functional(problem, grid, init, max_iter=3000)
        assert result.value <= reference
        assert np.all(np.diff(result.history) <= 0)
        assert result.density.values.min() >= 1e-12

    def test_history_is_monotone(self):
        grid, problem, _, init = self.setup_problem(n=81, half_width=3.0)
        result = minimize_functional(problem, grid, init, max_iter=2000)
        assert np.all(np.diff(result.history) <= 0)

    def test_restart_from_minimum_stops_immediately(self):
        grid, problem, _, init = self.setup_problem(n=81, half_width=3.0)
        first = minimize_functional(problem, grid, init, max_iter=30000,
                                    tol=1e-13)
        again = minimize_functional(problem, grid,
                                    (first.density, first.action),
                                    max_iter=100, tol=1e-13)
        assert again.converged
        assert again.iterations <= 2

    def test_unconverged_flag_on_tiny_budget(self):
        grid, problem, _, init = self.setup_problem(n=81, half_width=3.0)
        result = minimize_functional(problem, grid, init, max_iter=5,
                                     tol=0.0)
        assert not result.converged
        assert result.iterations == 5

    def test_wide_domain_at_the_floor_returns_a_normalised_density(self):
        # on [-1000, 1000] the floor nodes hold 2e-9 of mass, so the clamp
        # after renormalising moves h * sum P off 1 by more than the 1e-10
        # a density field accepts unless the result is renormalised
        grid = grid_on(-1000.0, 1000.0, 2001)
        x = grid.nodes()
        field = ScalarField(grid, 0.5 * x ** 2, kind="potential")
        problem = StationaryProblem(field, 0.5)
        spike = np.maximum(np.where(np.abs(x) < 5.0, np.exp(-x ** 2 / 8), 0.0),
                           1e-12)
        spike /= grid.spacing * spike.sum()
        init = (ScalarField(grid, spike, kind="density"),
                ScalarField(grid, np.zeros(grid.n_points), kind="action"))
        for max_iter in (1, 2):
            result = minimize_functional(problem, grid, init,
                                         max_iter=max_iter)
            mass = grid.spacing * result.density.values.sum()
            assert abs(mass - 1.0) <= 1e-13


def _raw_field(grid, values):
    """Density-shaped field without the normalisation check (finite
    difference probes move single nodes off the simplex)."""
    field = ScalarField.__new__(ScalarField)
    object.__setattr__(field, "grid", grid)
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    object.__setattr__(field, "values", arr)
    object.__setattr__(field, "kind", "density")
    return field


class TestNonDefaultUnits:
    def test_spectrum_scales_with_hbar(self):
        # hbar = 0.5 oscillator: E_n = hbar (n + 1/2); the solver reads the
        # kinetic coefficient from lambda = 4 / hbar^2
        grid = grid_on(-8, 8, 1601)
        x = grid.nodes()
        problem = StationaryProblem(
            potential=ScalarField(grid, 0.5 * x ** 2, kind="potential"),
            energy=0.0, hbar=0.5)
        assert problem.lam == pytest.approx(16.0)
        states = solve_eigen(problem, grid, 2)
        assert states[0][0] == pytest.approx(0.25, abs=1e-5)
        assert states[1][0] == pytest.approx(0.75, abs=1e-4)
