"""Propagation verification: unitarity, the free-packet width law,
stationary-state stability, gauge transformation, the averaged
Hamilton-Jacobi residual, the dynamic quadratic form, and operator reuse
against a stepper that builds and solves every step afresh."""

import math

import numpy as np
import pytest
import scipy.linalg

from robustq import (GaugeField, Grid1D, PropagatorConfig, ScalarField,
                     StationaryProblem, WaveField, avg_hje_residual, dynamic,
                     dynamic_wave_functional, gauge_transform,
                     normalized_wave, observables, propagate, solve_eigen)
from robustq.errors import LinearSolveError


def packet(grid, sigma=1.0, x0=0.0, k0=0.0):
    x = grid.nodes()
    return normalized_wave(grid, np.exp(-(x - x0) ** 2 / (4 * sigma ** 2))
                           * np.exp(1j * k0 * x))


def width_law(t, sigma0=1.0, hbar=1.0, mass=1.0):
    return sigma0 * math.sqrt(1 + (hbar * t / (2 * mass * sigma0 ** 2)) ** 2)


def harmonic_ground(grid):
    x = grid.nodes()
    problem = StationaryProblem(
        potential=ScalarField(grid, 0.5 * x ** 2, kind="potential"),
        energy=0.0)
    return solve_eigen(problem, grid, 1)[0]


class TestPropagatorConfig:
    def test_lambda_follows_hbar(self):
        grid = Grid1D.from_interval(-1, 1, 11)
        assert PropagatorConfig(grid=grid, dt=0.1, t_final=0.1,
                                hbar=2.0).lam == 1.0
        assert PropagatorConfig(grid=grid, dt=0.1, t_final=0.1, hbar=2.0,
                                lam=1.0).lam == 1.0

    @pytest.mark.parametrize("lam", [3.0, math.nan])
    def test_other_lambda_refused(self, lam):
        grid = Grid1D.from_interval(-1, 1, 11)
        with pytest.raises(ValueError, match="4 / hbar"):
            PropagatorConfig(grid=grid, dt=0.1, t_final=0.1, lam=lam)


class TestObservables:
    def test_gaussian_moments_and_fisher(self):
        grid = Grid1D.from_interval(-15, 15, 1501)
        sigma = 0.8
        obs = observables(packet(grid, sigma=sigma))
        assert obs.norm == pytest.approx(1.0, abs=1e-12)
        assert obs.mean_x == pytest.approx(0.0, abs=1e-10)
        assert obs.width == pytest.approx(sigma, abs=1e-4)
        assert obs.fisher_spatial == pytest.approx(1 / sigma ** 2, rel=1e-3)

    def test_global_phase_leaves_observables_unchanged(self):
        # the phase multiply perturbs each modulus by at most one ulp, so
        # the observables agree to rounding precision
        grid = Grid1D.from_interval(-10, 10, 801)
        psi = packet(grid, sigma=1.2, k0=0.4)
        twisted = normalized_wave(grid, psi.values * np.exp(0.77j))
        a, b = observables(psi), observables(twisted)
        assert b.norm == pytest.approx(a.norm, rel=1e-14)
        assert b.mean_x == pytest.approx(a.mean_x, abs=1e-14)
        assert b.width == pytest.approx(a.width, rel=1e-13)
        assert b.fisher_spatial == pytest.approx(a.fisher_spatial, rel=1e-12)

    def test_symmetric_density_centred(self):
        grid = Grid1D.from_interval(-7, 7, 701)
        obs = observables(packet(grid, sigma=0.9))
        assert abs(obs.mean_x - 0.0) < 1e-10


class TestFreePacket:
    def test_width_law_and_norm(self):
        grid = Grid1D.from_interval(-15, 15, 751)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.5,
                                  sample_stride=100)
        final, trace = propagate(packet(grid), GaugeField.free(), config)
        for t, w in zip(trace.times, trace.width):
            assert w == pytest.approx(width_law(t), rel=1e-3)
        assert np.max(np.abs(trace.norm - 1.0)) < 1e-10

    def test_time_reversal(self):
        grid = Grid1D.from_interval(-15, 15, 751)
        psi0 = packet(grid, sigma=0.9, k0=0.5)
        forward = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.05,
                                   sample_stride=10 ** 9)
        mid, _ = propagate(psi0, GaugeField.free(), forward)
        # conjugation reverses the propagation direction
        back, _ = propagate(normalized_wave(grid, np.conj(mid.values)),
                            GaugeField.free(), forward)
        assert np.max(np.abs(np.conj(back.values) - psi0.values)) < 1e-9


class TestStationaryState:
    def test_ground_state_density_is_static(self):
        # ten thousand steps: the unitarity contract and the stationarity
        # of a discrete eigenstate over t = 10
        grid = Grid1D.from_interval(-8, 8, 801)
        energy, wave = harmonic_ground(grid)
        fields = GaugeField(V=lambda x, t: 0.5 * np.asarray(x) ** 2)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=10.0,
                                  sample_stride=2000)
        final, trace = propagate(wave, fields, config)
        assert np.max(np.abs(final.density_values()
                             - wave.density_values())) < 1e-6
        assert np.max(np.abs(trace.norm - 1.0)) <= 1e-10

    def test_eigenstate_at_hbar_two_is_static(self):
        # the eigensolver and the propagator build one Hamiltonian from one
        # hbar: the eigenstate's density holds to criterion 13's tolerance
        grid = Grid1D.from_interval(-8, 8, 801)
        x = grid.nodes()
        problem = StationaryProblem(
            ScalarField(grid, 0.5 * x ** 2, kind="potential"), 0.0, hbar=2.0)
        energy, wave = solve_eigen(problem, grid, 1)[0]
        assert energy == pytest.approx(1.0, abs=1e-3)  # hbar omega / 2
        fields = GaugeField(V=lambda x, t: 0.5 * np.asarray(x) ** 2)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=1.0,
                                  sample_stride=10 ** 9, hbar=2.0)
        final, _ = propagate(wave, fields, config)
        assert np.max(np.abs(final.density_values()
                             - wave.density_values())) <= 1e-8

    def test_phase_advances_at_eigenfrequency(self):
        grid = Grid1D.from_interval(-8, 8, 801)
        energy, wave = harmonic_ground(grid)
        fields = GaugeField(V=lambda x, t: 0.5 * np.asarray(x) ** 2)
        config = PropagatorConfig(grid=grid, dt=1e-4, t_final=0.1,
                                  sample_stride=10 ** 9)
        final, _ = propagate(wave, fields, config)
        mid = grid.n_points // 2
        phase = -np.angle(final.values[mid] / wave.values[mid])
        assert phase / 0.1 == pytest.approx(energy, rel=1e-4)


class TestGaugeTransform:
    def test_constant_chi_changes_nothing_but_global_phase(self):
        grid = Grid1D.from_interval(-10, 10, 501)
        psi = packet(grid)
        fields = GaugeField.free()
        chi = lambda x, t: 3.0 * np.ones_like(np.asarray(x, dtype=float))
        new_psi, new_fields = gauge_transform(psi, fields, chi, 0.3)
        x = grid.nodes()
        np.testing.assert_allclose(new_fields.a_values(x, 0.3), 0.0,
                                   atol=1e-9)
        np.testing.assert_allclose(new_fields.v_values(x, 0.3), 0.0,
                                   atol=1e-9)
        ratio = new_psi.values / psi.values
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)

    def test_zero_chi_is_identity(self):
        grid = Grid1D.from_interval(-10, 10, 501)
        psi = packet(grid)
        chi = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        new_psi, new_fields = gauge_transform(psi, GaugeField.free(), chi, 1.0)
        np.testing.assert_array_equal(new_psi.values, psi.values)
        x = grid.nodes()
        np.testing.assert_allclose(new_fields.a_values(x, 1.0), 0.0,
                                   atol=1e-12)

    def test_modulus_preserved_to_rounding(self):
        grid = Grid1D.from_interval(-10, 10, 501)
        psi = packet(grid, sigma=0.7, k0=1.1)
        chi = lambda x, t: np.asarray(x, dtype=float) ** 2 * math.cos(t)
        new_psi, _ = gauge_transform(psi, GaugeField.free(), chi, 0.7)
        np.testing.assert_allclose(np.abs(new_psi.values),
                                   np.abs(psi.values), rtol=4e-16, atol=0)

    def test_evolve_then_transform_vs_transform_then_evolve(self):
        grid = Grid1D.from_interval(-20, 20, 2001)
        psi0 = packet(grid)
        fields = GaugeField.free()
        t_final = 0.25
        config = PropagatorConfig(grid=grid, dt=2e-3, t_final=t_final,
                                  sample_stride=10 ** 9)
        chi = lambda x, t: np.asarray(x, dtype=float) * math.sin(t)
        evolved, _ = propagate(psi0, fields, config)
        route_a, _ = gauge_transform(evolved, fields, chi, t_final)
        start_b, fields_b = gauge_transform(psi0, fields, chi, 0.0)
        route_b, _ = propagate(normalized_wave(grid, start_b.values),
                               fields_b, config)
        density_diff = np.max(np.abs(route_a.density_values()
                                     - route_b.density_values()))
        assert density_diff < 5e-8


class TestAveragedHjeResidual:
    def test_stationary_state_identity(self):
        grid = Grid1D.from_interval(-10, 10, 2001)
        energy, wave = harmonic_ground(grid)
        fields = GaugeField(V=lambda x, t: 0.5 * np.asarray(x) ** 2)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.02,
                                  sample_stride=1)
        _, trace = propagate(wave, fields, config)
        obs_fisher = trace.fisher_spatial[1:-1]
        residuals = trace.hje_residual[1:-1]
        target = -(config.hbar ** 2 / (8 * config.mass)) * obs_fisher
        np.testing.assert_allclose(residuals, target, rtol=1e-3)
        # the residual is also <V> - E0 for a stationary state
        np.testing.assert_allclose(residuals, energy / 2 - energy, rtol=1e-3)

    def test_snapshot_interface_matches_trace(self):
        grid = Grid1D.from_interval(-15, 15, 1001)
        fields = GaugeField.free()
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.02,
                                  sample_stride=1)
        psi0 = packet(grid)
        _, trace = propagate(psi0, fields, config)
        snapshots = [psi0]
        state = psi0
        for k in range(config.n_steps):
            cfg_one = PropagatorConfig(grid=grid, dt=config.dt,
                                       t_final=config.dt,
                                       sample_stride=10 ** 9)
            state, _ = propagate(state, fields, cfg_one)
            snapshots.append(state)
        times = config.dt * np.arange(len(snapshots))
        series = avg_hje_residual(snapshots, times, fields, config)
        np.testing.assert_allclose(series[1:-1], trace.hje_residual[1:-1],
                                   rtol=2e-7)

    def test_residual_of_slightly_unnormalised_snapshots(self):
        # a norm 1e-9 off unity, well inside propagate's 1e-6 drift abort
        grid = Grid1D.from_interval(-15, 15, 1001)
        fields = GaugeField.free()
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=1e-3,
                                  sample_stride=1)
        snapshots = [packet(grid, k0=0.5)]
        for _ in range(2):
            snapshots.append(propagate(snapshots[-1], fields, config)[0])
        scaled = [WaveField(grid, (1 + 5e-10) * s.values) for s in snapshots]
        series = avg_hje_residual(scaled, [0.0, 1e-3, 2e-3], fields, config)
        assert np.isfinite(series[1])

    def test_planck_scaling_of_residual(self):
        # shrink hbar tenfold while keeping the ground density fixed by
        # scaling the trap frequency: the residual must shrink a hundredfold
        values = {}
        for hbar in (1.0, 0.1):
            grid = Grid1D.from_interval(-8, 8, 1601)
            x = grid.nodes()
            omega = hbar  # sigma^2 = hbar/(2 m omega) = 0.5, independent of hbar
            problem = StationaryProblem(
                potential=ScalarField(grid, 0.5 * omega ** 2 * x ** 2,
                                      kind="potential"),
                energy=0.0, hbar=hbar)
            energy, wave = solve_eigen(problem, grid, 1)[0]
            fields = GaugeField(V=lambda x, t, w=omega: 0.5 * w ** 2
                                * np.asarray(x) ** 2)
            config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.01,
                                      sample_stride=1, hbar=hbar)
            _, trace = propagate(wave, fields, config)
            values[hbar] = trace.hje_residual[2]
        assert values[1.0] / values[0.1] == pytest.approx(100.0, rel=1e-2)


class TestDynamicWaveFunctional:
    @staticmethod
    def free_run(grid, dt, t_final, psi0, fields):
        config = PropagatorConfig(grid=grid, dt=dt, t_final=t_final,
                                  sample_stride=1)
        snaps = [psi0]
        state = psi0
        one = PropagatorConfig(grid=grid, dt=dt, t_final=dt,
                               sample_stride=10 ** 9)
        for _ in range(config.n_steps):
            state, _ = propagate(state, fields, one)
            snaps.append(state)
        times = dt * np.arange(len(snaps))
        return snaps, times, config

    def test_stationary_state_bookkeeping(self):
        grid = Grid1D.from_interval(-8, 8, 1201)
        energy, wave = harmonic_ground(grid)
        fields = GaugeField(V=lambda x, t: 0.5 * np.asarray(x) ** 2)
        snaps, times, config = self.free_run(grid, 1e-3, 0.05, wave, fields)
        breakdown = dynamic_wave_functional(snaps, times, fields, config,
                                            return_terms=True)
        window = times[-2] - times[1]
        expected_time_term = -2 * config.mass * config.lam * energy * window
        assert breakdown.time_term == pytest.approx(expected_time_term,
                                                    rel=1e-3)
        scale = 2 * config.mass * config.lam * energy * window
        assert abs(breakdown.total) <= 1e-3 * scale

    def test_first_variation_vanishes_quadratically(self):
        grid = Grid1D.from_interval(-15, 15, 1001)
        fields = GaugeField.free()
        snaps, times, config = self.free_run(grid, 1e-3, 0.04,
                                             packet(grid), fields)
        base = dynamic_wave_functional(snaps, times, fields, config)
        x = grid.nodes()
        bump = np.exp(-x ** 2)
        window = np.sin(math.pi * np.arange(len(snaps))
                        / (len(snaps) - 1)) ** 2
        deltas = []
        for eps in (0.08, 0.04):
            perturbed = [normalized_wave(grid,
                                         s.values + eps * w * bump)
                         for s, w in zip(snaps, window)]
            value = dynamic_wave_functional(perturbed, times, fields, config)
            deltas.append(abs(value - base))
        assert 3.0 <= deltas[0] / deltas[1] <= 5.0

    @pytest.mark.parametrize("n_times", [3, 7])
    def test_times_must_align_with_snapshots(self, n_times):
        grid = Grid1D.from_interval(-8, 8, 201)
        snaps = [packet(grid)] * 5
        config = PropagatorConfig(grid=grid, dt=0.01, t_final=0.04)
        with pytest.raises(ValueError, match="align"):
            dynamic_wave_functional(snaps, 0.01 * np.arange(n_times),
                                    GaugeField.free(), config)

    def test_gauge_invariance_of_quadrature(self):
        # analytic snapshots on a fine grid; the integrand is pointwise
        # gauge invariant, so the quadrature moves only at rounding level
        grid = Grid1D.from_interval(-8, 8, 16001)
        x = grid.nodes()
        dt = 0.01
        times = dt * np.arange(5)
        fields = GaugeField(A=lambda xs, t: 0.3 * np.cos(t)
                            * np.ones_like(np.asarray(xs, dtype=float)),
                            V=lambda xs, t: 0.1 * np.asarray(xs, dtype=float)
                            * math.sin(t),
                            charge=0.8, light_speed=1.3)
        config = PropagatorConfig(grid=grid, dt=dt, t_final=times[-1],
                                  sample_stride=1)
        snaps = [normalized_wave(grid,
                                 np.exp(-(x - 0.1 * t) ** 2 / 4)
                                 * np.exp(1j * (0.9 * x - 0.2 * t * x)))
                 for t in times]
        base = dynamic_wave_functional(snaps, times, fields, config)
        chi = lambda xs, t: np.sin(0.7 * np.asarray(xs, dtype=float)) \
            * math.cos(0.5 * t)
        transformed = []
        fields_t = None
        for snap, t in zip(snaps, times):
            new_psi, fields_t = gauge_transform(snap, fields, chi, float(t),
                                                lam=config.lam)
            transformed.append(normalized_wave(grid, new_psi.values))
        value = dynamic_wave_functional(transformed, times, fields_t, config)
        assert value == pytest.approx(base, abs=1e-6)


class TestResidualGaugeInvariance:
    def test_series_unchanged_by_gauge_transform(self):
        # the residual integrand [dS/dt + (S' - qA/c)^2/2m + V] P is
        # pointwise gauge invariant for any charge and light speed; the
        # computed series must agree between the two gauges
        grid = Grid1D.from_interval(-12, 12, 1201)
        fields = GaugeField(charge=0.7, light_speed=1.9)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.02,
                                  sample_stride=1)
        snaps = [packet(grid, k0=0.8)]
        one = PropagatorConfig(grid=grid, dt=config.dt, t_final=config.dt,
                               sample_stride=10 ** 9)
        state = snaps[0]
        for _ in range(config.n_steps):
            state, _ = propagate(state, fields, one)
            snaps.append(state)
        times = config.dt * np.arange(len(snaps))
        base = avg_hje_residual(snaps, times, fields, config)

        chi = lambda x, t: 0.4 * np.asarray(x, dtype=float) * math.cos(t)
        moved = []
        fields_t = None
        for snap, t in zip(snaps, times):
            psi_t, fields_t = gauge_transform(snap, fields, chi, float(t),
                                              lam=config.lam)
            moved.append(normalized_wave(grid, psi_t.values))
        transformed = avg_hje_residual(moved, times, fields_t, config)
        np.testing.assert_allclose(transformed[1:-1], base[1:-1], rtol=1e-6)


class TestMinimalCouplingDynamics:
    def test_uniform_vector_potential_drives_the_packet(self):
        # canonical momentum is conserved under a spatially uniform A(t), so
        # a packet starting at rest acquires <x>(t) = -(q/mc) * int_0^t A
        grid = Grid1D.from_interval(-15, 15, 1501)
        fields = GaugeField(A=lambda x, t: math.sin(t)
                            * np.ones_like(np.asarray(x, dtype=float)))
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=1.0,
                                  sample_stride=250)
        _, trace = propagate(packet(grid), fields, config)
        for t, mean in zip(trace.times, trace.mean_x):
            expected = -(1.0 - math.cos(t))  # q = m = c = 1
            assert mean == pytest.approx(expected, abs=2e-4)

    def test_coherent_state_oscillates_at_trap_frequency(self):
        grid = Grid1D.from_interval(-12, 12, 1201)
        x = grid.nodes()
        sigma = 1 / math.sqrt(2)  # ground-state width of the unit trap
        psi0 = normalized_wave(grid, np.exp(-(x - 1.0) ** 2
                                            / (4 * sigma ** 2)))
        fields = GaugeField(V=lambda xs, t: 0.5 * np.asarray(xs) ** 2)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=1.0,
                                  sample_stride=200)
        _, trace = propagate(psi0, fields, config)
        for t, mean in zip(trace.times, trace.mean_x):
            assert mean == pytest.approx(math.cos(t), abs=2e-4)


# ---------------------------------------------------------------------------
# operator reuse: bit-identical to building and solving every step afresh
# ---------------------------------------------------------------------------

def reference_hamiltonian(grid, fields, t, mass, hbar):
    """Tridiagonal H on interior nodes, built from the fields at t."""
    x = grid.nodes()[1:-1]
    h = grid.spacing
    kin = hbar ** 2 / (2.0 * mass)
    coupling = fields.charge / (hbar * fields.light_speed)
    mid = 0.5 * (x[:-1] + x[1:])
    link_phase = coupling * h * fields.a_values(mid, t)
    diag = (2.0 * kin / h ** 2 + fields.v_values(x, t)).astype(complex)
    upper = -(kin / h ** 2) * np.exp(-1j * link_phase)
    lower = -(kin / h ** 2) * np.exp(+1j * link_phase)
    return diag, upper, lower


def reference_cn_step(interior, fields, t_mid, config, cache=None):
    """One Crank-Nicolson step that builds the operator and solves with
    solve_banded every time; ``cache`` is ignored."""
    diag, upper, lower = reference_hamiltonian(config.grid, fields, t_mid,
                                               config.mass, config.hbar)
    r = 0.5j * config.dt / config.hbar
    rhs = (1.0 - r * diag) * interior
    rhs[:-1] -= r * upper * interior[1:]
    rhs[1:] -= r * lower * interior[:-1]
    n = interior.size
    bands = np.zeros((3, n), dtype=complex)
    bands[0, 1:] = r * upper
    bands[1, :] = 1.0 + r * diag
    bands[2, :-1] = r * lower
    try:
        out = scipy.linalg.solve_banded((1, 1), bands, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise LinearSolveError(f"tridiagonal solve failed: {exc}") from exc
    if not np.all(np.isfinite(out.view(float))):
        raise LinearSolveError("tridiagonal solve produced non-finite values")
    return out


def outcome(psi0, fields, config):
    """The bytes of a run's final state and trace, or its exception class."""
    try:
        final, trace = propagate(psi0, fields, config)
    except Exception as exc:  # compared by class against the reference
        return type(exc)
    return [final.values.tobytes()] + [
        getattr(trace, name).tobytes()
        for name in ("times", "norm", "mean_x", "width", "fisher_spatial",
                     "hje_residual")]


def reference_outcome(psi0, fields, config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(dynamic, "_cn_step", reference_cn_step)
        return outcome(psi0, fields, config)


def harmonic_v(x, t):
    return 0.5 * np.asarray(x, dtype=float) ** 2


def uniform_sin_a(x, t):
    return 0.8 * math.sin(3.0 * t) * np.ones_like(np.asarray(x, dtype=float))


def count_builds(monkeypatch):
    builds = []
    build = dynamic._cn_operator

    def counted(*args, **kwargs):
        builds.append(args[1].copy())  # the link values of A
        return build(*args, **kwargs)
    monkeypatch.setattr(dynamic, "_cn_operator", counted)
    return builds


class TestOperatorReuse:
    GRID = Grid1D.from_interval(-10, 10, 401)
    CONFIG = PropagatorConfig(grid=GRID, dt=1e-3, t_final=0.03,
                              sample_stride=4)
    FIELDS = {
        "zero": GaugeField(),
        "harmonic": GaugeField(V=harmonic_v),
        "driven": GaugeField(A=uniform_sin_a, V=harmonic_v),
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_bit_identical_to_fresh_operator(self, name, monkeypatch):
        psi0 = packet(self.GRID, sigma=0.9, k0=0.7)
        fields = self.FIELDS[name]
        expected = reference_outcome(psi0, fields, self.CONFIG, monkeypatch)
        builds = count_builds(monkeypatch)
        assert outcome(psi0, fields, self.CONFIG) == expected
        # fields that do not depend on t build one operator for 30 steps
        assert len(builds) == (30 if name == "driven" else 1)

    @pytest.mark.parametrize("chi", [
        lambda x, t: 0.6 * np.asarray(x, dtype=float) * math.sin(t),
        lambda x, t: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
    ], ids=["x_sin_t", "constant"])
    @pytest.mark.parametrize("name", ["zero", "harmonic"])
    def test_gauge_transformed_fields(self, chi, name, monkeypatch):
        psi, fields = gauge_transform(packet(self.GRID, sigma=0.9),
                                      self.FIELDS[name], chi, 0.0)
        psi0 = normalized_wave(self.GRID, psi.values)
        assert outcome(psi0, fields, self.CONFIG) == reference_outcome(
            psi0, fields, self.CONFIG, monkeypatch)

    @pytest.mark.parametrize("stride", [2, 10 ** 9])
    @pytest.mark.parametrize("n_points", [3, 4, 5])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_smallest_interiors(self, n_points, name, stride, monkeypatch):
        # 1 and 2 interior nodes go through solve_banded, 3 through ?gttrf;
        # sampling every other step fails alike (the residual finds no
        # phase on 1 or 2 interior nodes), sampling only the ends does not
        grid = Grid1D.from_interval(-1, 1, n_points)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.005,
                                  sample_stride=stride)
        hump = np.sin(np.pi * np.arange(n_points) / (n_points - 1))
        psi0 = normalized_wave(grid, hump * np.exp(0.3j * grid.nodes()))
        fields = self.FIELDS[name]
        assert outcome(psi0, fields, config) == reference_outcome(
            psi0, fields, config, monkeypatch)

    def test_negative_zero_does_not_share_an_operator(self, monkeypatch):
        # A = -0.0 on the first step and 0.0 after: equal values, other bits
        def signed_zero_a(x, t):
            sign = -0.0 if t < 1e-3 else 0.0
            return np.full(np.shape(x), sign)

        fields = GaugeField(A=signed_zero_a, V=harmonic_v)
        psi0 = packet(self.GRID, sigma=0.9, k0=0.7)
        expected = reference_outcome(psi0, fields, self.CONFIG, monkeypatch)
        builds = count_builds(monkeypatch)
        assert outcome(psi0, fields, self.CONFIG) == expected
        assert [np.signbit(a).all() for a in builds] == [True, False]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("n_points", [4, 401])
    def test_non_finite_field_fails_alike(self, bad, n_points, monkeypatch):
        grid = Grid1D.from_interval(-10, 10, n_points)
        config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.003)
        fields = GaugeField(V=lambda x, t: np.full(np.shape(x), bad))
        psi0 = normalized_wave(grid, np.exp(-grid.nodes() ** 2)
                               + 0.1 * np.ones(n_points))
        expected = reference_outcome(psi0, fields, config, monkeypatch)
        assert expected is LinearSolveError
        assert outcome(psi0, fields, config) is expected
