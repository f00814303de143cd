import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid
from vasosim import hemogrid as hg
from vasosim.errors import DomainError, SimulationError, StabilityError


class TestAreaRadius:
    def test_unit_radius(self):
        assert hg.area_from_radius(1.0) == pytest.approx(math.pi, rel=1e-12)

    def test_scaling(self):
        assert hg.area_from_radius(2.0) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_small_radius(self):
        d = hg.area_from_radius(1e-3)
        assert d == pytest.approx(math.pi * 1e-6, rel=1e-12)
        assert hg.radius_from_area(d) == pytest.approx(1e-3, rel=1e-12)

    def test_inverse_unit(self):
        assert hg.radius_from_area(math.pi) == pytest.approx(1.0, rel=1e-12)
        assert hg.radius_from_area(4 * math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(1e-4, 1e-2, 1000)
        back = hg.radius_from_area(hg.area_from_radius(r))
        assert np.max(np.abs(back - r) / r) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            hg.area_from_radius(bad)
        with pytest.raises(DomainError):
            hg.radius_from_area(bad)

    @given(st.floats(min_value=1e-4, max_value=1e-2))
    def test_round_trip_property(self, r):
        assert hg.radius_from_area(hg.area_from_radius(r)) == pytest.approx(
            r, rel=1e-12)


class TestTubeLaw:
    def test_baseline_area_gives_external_pressure(self, model):
        assert hg.tube_law(model.d0, model) == pytest.approx(model.p_ext, abs=1e-9)

    def test_hand_evaluation(self):
        model = hg.ArteryModel(beta=2.0, p_ext=0.0)
        d = (math.sqrt(model.d0) + 0.5) ** 2
        assert hg.tube_law(d, model) == pytest.approx(1.0, rel=1e-12)

    def test_monotone(self, model):
        d = np.linspace(0.5 * model.d0, 2 * model.d0, 50)
        p = hg.tube_law(d, model)
        assert np.all(np.diff(p) > 0)

    def test_nonpositive_area(self, model):
        with pytest.raises(DomainError):
            hg.tube_law(0.0, model)


class TestGrid:
    def test_cfl_rejected_at_construction(self):
        with pytest.raises(DomainError):
            hg.Grid(nx=8, nt=1, dx=1e-3, dt=1.0, s_max=5.0, cfl=0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(nx=1, nt=1, dx=1.0, dt=1e-9),
        dict(nx=8, nt=0, dx=1.0, dt=1e-9),
        dict(nx=8, nt=1, dx=-1.0, dt=1e-9),
        dict(nx=8, nt=1, dx=1.0, dt=1e-9, cfl=1.5),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            hg.Grid(**kwargs)


def _uniform_state(nx, d=1.0, u=0.0):
    return hg.FlowState(area=np.full(nx, d), velocity=np.full(nx, u),
                        pressure=np.zeros(nx))


class TestContinuity:
    def test_uniform_fields_unchanged(self):
        g = make_grid(32, dx=1.0 / 32, dt=1e-2, s_max=1.0)
        st0 = _uniform_state(32, d=2.0, u=0.7)
        st1 = hg.step_continuity(st0, g, bc="periodic")
        assert np.allclose(st1.area, 2.0, rtol=0, atol=1e-15)

    def test_zero_velocity_unchanged(self):
        g = make_grid(32, dx=1.0 / 32, dt=1e-2, s_max=1.0)
        st0 = hg.FlowState(area=1 + np.random.default_rng(0).uniform(0, 1, 32),
                           velocity=np.zeros(32), pressure=np.zeros(32))
        st1 = hg.step_continuity(st0, g, bc="periodic")
        assert np.array_equal(st1.area, st0.area)

    def test_runtime_cfl_violation(self):
        g = make_grid(32, dx=1.0 / 32, dt=1e-2, s_max=1.0)
        st0 = _uniform_state(32, u=10.0)
        with pytest.raises(StabilityError):
            hg.step_continuity(st0, g, bc="periodic")

    @staticmethod
    def advection_error(nx, cfl=0.5, sigma_frac=1 / 16):
        """L2 error of a periodic Gaussian bump advected half the domain,
        against the analytically shifted profile."""
        c = 1.0
        dx = 1.0 / nx
        dt = cfl * dx / c
        g = hg.Grid(nx=nx, nt=1, dx=dx, dt=dt, s_max=c, cfl=cfl)
        x = g.x
        sigma = sigma_frac
        d0 = 1.0 + 0.5 * np.exp(-0.5 * ((x - 0.25) / sigma) ** 2)
        state = hg.FlowState(area=d0.copy(), velocity=np.full(nx, c),
                             pressure=np.zeros(nx))
        nsteps = int(round(nx * dx / (2 * c) / dt))
        for _ in range(nsteps):
            state = hg.step_continuity(state, g, bc="periodic")
        shift = c * nsteps * dt
        arg = ((x - 0.25 - shift + 0.5) % 1.0) - 0.5
        exact = 1.0 + 0.5 * np.exp(-0.5 * (arg / sigma) ** 2)
        return float(np.linalg.norm(state.area - exact) / np.linalg.norm(exact))

    def test_advection_oracle(self):
        assert self.advection_error(256) < 0.02

    def test_first_order_convergence(self):
        coarse = self.advection_error(256)
        fine = self.advection_error(512)
        assert coarse / fine >= 1.8

    def test_periodic_conservation_1000_steps(self):
        rng = np.random.default_rng(3)
        nx = 128
        g = make_grid(nx, dx=1.0 / nx, dt=1e-3, s_max=1.0)
        state = hg.FlowState(area=1 + rng.uniform(0, 0.5, nx),
                             velocity=rng.uniform(-0.5, 0.5, nx),
                             pressure=np.zeros(nx))
        vol0 = state.area.sum() * g.dx
        for _ in range(1000):
            state = hg.step_continuity(state, g, bc="periodic")
        assert abs(state.area.sum() * g.dx - vol0) / vol0 < 1e-8


class TestMomentum:
    def test_no_forcing(self, model):
        g = make_grid(16, dx=1.0, dt=1e-3, s_max=1.0)
        st0 = hg.FlowState(area=np.ones(16), velocity=np.zeros(16),
                           pressure=np.full(16, 7.0))
        st1 = hg.step_momentum(st0, g, model, bc="fixed")
        assert np.array_equal(st1.velocity, np.zeros(16))

    def test_hand_computed_euler_step(self):
        # Re = 100, alpha^2 = 10, dp/dx = 0.1, dt = 0.01 -> u = -0.01
        model = hg.ArteryModel(alpha=math.sqrt(10), re=100.0)
        nx = 16
        g = make_grid(nx, dx=1.0, dt=0.01, s_max=1.0)
        p = 0.1 * np.arange(nx) * g.dx
        st0 = hg.FlowState(area=np.ones(nx), velocity=np.zeros(nx), pressure=p)
        st1 = hg.step_momentum(st0, g, model, bc="fixed")
        interior = st1.velocity[1:-1]
        assert np.max(np.abs(interior - (-0.01))) < 1e-14

    def test_diffusion_fourier_oracle(self):
        model = hg.ArteryModel(alpha=3.0, re=100.0)
        nx = 256
        dx = 1.0 / nx
        dt = 0.2 * model.alpha**2 * dx**2
        g = make_grid(nx, dx=dx, dt=dt, s_max=1.0)
        k = 2 * np.pi * 3
        state = hg.FlowState(area=np.ones(nx), velocity=np.sin(k * g.x),
                             pressure=np.zeros(nx))
        nsteps = 200
        for _ in range(nsteps):
            state = hg.step_momentum(state, g, model, bc="periodic",
                                     nonlinear=False)
        amp = np.max(np.abs(state.velocity))
        expect = math.exp(-k**2 * nsteps * dt / model.alpha**2)
        assert amp == pytest.approx(expect, rel=0.01)

    def test_diffusion_stability_error(self, model):
        g = make_grid(16, dx=1e-3, dt=1e-4, s_max=5.0)
        st0 = _uniform_state(16)
        with pytest.raises(StabilityError):
            hg.step_momentum(st0, g, model)


def _upwind_flux(u_l, u_r, d_l, d_r):
    uh = 0.5 * (u_l + u_r)
    return uh * d_l if uh >= 0 else uh * d_r


class TestBoundaries:
    """End cells against hand-written ghost-cell arithmetic: a fixed end
    copies its edge cell into the ghost, a periodic end wraps round."""

    DX, DT = 1.0, 0.01
    AREA = np.array([1.0, 1.4, 0.8, 1.2, 0.9])
    PRESSURE = np.array([0.5, -0.2, 0.3, 0.1, -0.4])
    # both signs at each end exercise both upwind branches
    VELOCITIES = [np.array([0.3, -0.2, 0.1, 0.4, -0.25]),
                  np.array([-0.3, 0.2, -0.1, -0.4, 0.25])]

    def _state(self, u):
        return hg.FlowState(area=self.AREA.copy(), velocity=u.copy(),
                            pressure=self.PRESSURE.copy())

    def _grid(self):
        return make_grid(self.AREA.size, dx=self.DX, dt=self.DT, s_max=1.0)

    def _momentum_cell(self, model, u_m, u, u_p, p_m, p_p):
        dudx = (u - u_m) / self.DX if u >= 0 else (u_p - u) / self.DX
        rhs = (-(p_p - p_m) / (2 * self.DX)
               + (u_p - 2 * u + u_m) / (model.re * self.DX**2) - u * dudx)
        return u + self.DT * model.re / model.alpha**2 * rhs

    @pytest.mark.parametrize("u", VELOCITIES)
    def test_fixed_end_areas(self, u):
        d = self.AREA
        st1 = hg.step_continuity(self._state(u), self._grid(), bc="fixed")
        left = d[0] - self.DT / self.DX * (
            _upwind_flux(u[0], u[1], d[0], d[1]) - u[0] * d[0])
        right = d[-1] - self.DT / self.DX * (
            u[-1] * d[-1] - _upwind_flux(u[-2], u[-1], d[-2], d[-1]))
        assert st1.area[0] == pytest.approx(left, rel=1e-14)
        assert st1.area[-1] == pytest.approx(right, rel=1e-14)

    @pytest.mark.parametrize("u", VELOCITIES)
    def test_periodic_wrap_areas(self, u):
        d = self.AREA
        st1 = hg.step_continuity(self._state(u), self._grid(), bc="periodic")
        wrap = _upwind_flux(u[-1], u[0], d[-1], d[0])
        left = d[0] - self.DT / self.DX * (
            _upwind_flux(u[0], u[1], d[0], d[1]) - wrap)
        right = d[-1] - self.DT / self.DX * (
            wrap - _upwind_flux(u[-2], u[-1], d[-2], d[-1]))
        assert st1.area[0] == pytest.approx(left, rel=1e-14)
        assert st1.area[-1] == pytest.approx(right, rel=1e-14)

    @pytest.mark.parametrize("u", VELOCITIES)
    def test_fixed_end_velocities(self, model, u):
        p = self.PRESSURE
        st1 = hg.step_momentum(self._state(u), self._grid(), model, bc="fixed")
        left = self._momentum_cell(model, u[0], u[0], u[1], p[0], p[1])
        right = self._momentum_cell(model, u[-2], u[-1], u[-1], p[-2], p[-1])
        assert st1.velocity[0] == pytest.approx(left, rel=1e-14)
        assert st1.velocity[-1] == pytest.approx(right, rel=1e-14)

    @pytest.mark.parametrize("u", VELOCITIES)
    def test_periodic_wrap_velocities(self, model, u):
        p = self.PRESSURE
        st1 = hg.step_momentum(self._state(u), self._grid(), model,
                               bc="periodic")
        left = self._momentum_cell(model, u[-1], u[0], u[1], p[-1], p[1])
        right = self._momentum_cell(model, u[-2], u[-1], u[0], p[-2], p[0])
        assert st1.velocity[0] == pytest.approx(left, rel=1e-14)
        assert st1.velocity[-1] == pytest.approx(right, rel=1e-14)


class TestSolveFlow:
    def test_equilibrium_fixed_point(self, model):
        g = make_grid(64, nt=200, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        radii, states = hg.solve_flow(model, g, bc="inlet")
        assert np.max(np.abs(radii.values - model.r0)) / model.r0 < 1e-12
        assert np.max(np.abs(states[-1].velocity)) < 1e-12

    def test_sinusoidal_inlet_dominant_frequency(self, model):
        g = make_grid(64, nt=4096, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        freq_bin = 16
        freq = freq_bin / (g.nt * g.dt)
        inlet = 20.0 * np.sin(2 * np.pi * freq * np.arange(g.nt) * g.dt)
        radii, _ = hg.solve_flow(model, g, inlet=inlet, bc="inlet")
        mid = radii.values[g.nx // 2, :] - model.r0
        spectrum = np.abs(np.fft.rfft(mid))
        spectrum[0] = 0.0
        assert int(np.argmax(spectrum)) == freq_bin

    def test_periodic_volume_conservation(self, model):
        g = make_grid(64, nt=1000, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        rng = np.random.default_rng(5)
        init = model.r0 * (1 + 0.05 * rng.uniform(-1, 1, g.nx))
        radii, states = hg.solve_flow(model, g, bc="periodic",
                                      initial_radii=init)
        vols = np.array([s.area.sum() * g.dx for s in states])
        assert np.max(np.abs(vols - vols[0])) / vols[0] < 1e-8

    def test_area_radius_consistency(self, model):
        g = make_grid(32, nt=100, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = 10.0 * np.sin(np.linspace(0, 2 * np.pi, g.nt))
        radii, states = hg.solve_flow(model, g, inlet=inlet, bc="inlet")
        for j, state in enumerate(states):
            expected = np.pi * radii.values[:, j] ** 2
            assert np.max(np.abs(state.area - expected) / expected) < 1e-12

    def test_recorded_states_share_no_memory(self, model):
        g = make_grid(32, nt=50, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = 10.0 * np.sin(np.linspace(0, 2 * np.pi, g.nt))
        _, states = hg.solve_flow(model, g, inlet=inlet, bc="inlet")
        assert len(states) == g.nt
        for a, b in zip(states, states[1:]):
            for name in ("area", "velocity", "pressure"):
                assert not np.shares_memory(getattr(a, name), getattr(b, name))

    def test_determinism(self, model):
        g = make_grid(32, nt=200, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = 15.0 * np.sin(np.linspace(0, 4 * np.pi, g.nt))
        a, _ = hg.solve_flow(model, g, inlet=inlet, bc="inlet")
        b, _ = hg.solve_flow(model, g, inlet=inlet, bc="inlet")
        assert np.array_equal(a.values, b.values)

    def test_divergence_reports_step_index(self, model):
        # an inlet pressure far below the collapse limit kills the lumen
        g = make_grid(32, nt=50, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = np.full(g.nt, -1e9)
        with pytest.raises(SimulationError) as err:
            hg.solve_flow(model, g, inlet=inlet, bc="inlet")
        assert err.value.step_index is not None


class TestRadiiCsv:
    def test_round_trip(self, model, tmp_path):
        g = make_grid(16, nt=4, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        rng = np.random.default_rng(7)
        values = model.r0 * (1 + 0.1 * rng.uniform(-1, 1, (16, 4)))
        field = hg.RadiiField(values=values, grid=g)
        path = tmp_path / "radii.csv"
        hg.write_radii_csv(path, field)
        back = hg.read_radii_csv(path)
        assert np.array_equal(back.values, field.values)
        assert back.grid.nx == 16 and back.grid.nt == 4

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        from vasosim.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            hg.read_radii_csv(path)
