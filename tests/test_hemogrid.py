import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid, stenotic_column
from vasosim import hemogrid as hg
from vasosim.errors import DomainError, SimulationError, StabilityError


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


# valid arguments for each dataclass whose float fields must reject NaN
NAN_VALID = {hg.Grid: dict(nx=8, nt=1, dx=1e-3, dt=5e-5), hg.ArteryModel: {}}


@pytest.mark.parametrize("cls, field", [
    (cls, f.name) for cls in NAN_VALID
    for f in dataclasses.fields(cls) if f.type == "float"],
    ids=lambda v: getattr(v, "__name__", v))
def test_nan_float_field_rejected(cls, field):
    cls(**NAN_VALID[cls])
    with pytest.raises(DomainError, match=field):
        cls(**{**NAN_VALID[cls], field: math.nan})


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
        x = (np.arange(nx) + 0.5) * dx  # cell centres
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
        # at this amplitude the advection term is about 5e-6 of the
        # diffusion term, so the linear decay rate holds
        model = hg.ArteryModel(alpha=3.0, re=100.0)
        nx = 256
        dx = 1.0 / nx
        dt = 0.2 * model.alpha**2 * dx**2
        g = make_grid(nx, dx=dx, dt=dt, s_max=1.0)
        k = 2 * np.pi * 3
        amp0 = 1e-6
        x = (np.arange(nx) + 0.5) * dx  # cell centres
        state = hg.FlowState(area=np.ones(nx), velocity=amp0 * np.sin(k * x),
                             pressure=np.zeros(nx))
        nsteps = 200
        for _ in range(nsteps):
            state = hg.step_momentum(state, g, model, bc="periodic")
        amp = np.max(np.abs(state.velocity))
        expect = amp0 * math.exp(-k**2 * nsteps * dt / model.alpha**2)
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
        radii, states = hg.solve_flow(model, g, np.zeros(g.nt))
        assert np.max(np.abs(radii.values - model.r0)) / model.r0 < 1e-12
        assert np.max(np.abs(states[-1].velocity)) < 1e-12

    def test_sinusoidal_inlet_dominant_frequency(self, model):
        g = make_grid(64, nt=4096, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        freq_bin = 16
        freq = freq_bin / (g.nt * g.dt)
        inlet = 20.0 * np.sin(2 * np.pi * freq * np.arange(g.nt) * g.dt)
        radii, _ = hg.solve_flow(model, g, inlet=inlet)
        mid = radii.values[g.nx // 2, :] - model.r0
        spectrum = np.abs(np.fft.rfft(mid))
        spectrum[0] = 0.0
        assert int(np.argmax(spectrum)) == freq_bin

    def test_interior_pressure_is_the_wall_closure(self):
        # the closure as the loop applies it: rest geometry is the initial
        # column, and only the inlet and outlet cells are overwritten
        model = hg.ArteryModel(p_ext=250.0)
        g = make_grid(32, nt=100, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        r_init = stenotic_column(model, g.nx, 16, 3.0, 0.3)
        inlet = 10.0 * np.sin(np.linspace(0, 2 * np.pi, g.nt))
        _, states = hg.solve_flow(model, g, inlet=inlet, initial_radii=r_init)
        for state in states:
            expected = model.p_ext + model.beta * (
                np.sqrt(state.area[1:-1]) - np.sqrt(np.pi) * r_init[1:-1])
            assert state.pressure[1:-1].tobytes() == expected.tobytes()
        moved = max(np.max(np.abs(s.pressure[1:-1] - model.p_ext))
                    for s in states)
        assert moved > 1.0

    def test_area_radius_consistency(self, model):
        g = make_grid(32, nt=100, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = 10.0 * np.sin(np.linspace(0, 2 * np.pi, g.nt))
        radii, states = hg.solve_flow(model, g, inlet=inlet)
        for j, state in enumerate(states):
            expected = np.pi * radii.values[:, j] ** 2
            assert np.max(np.abs(state.area - expected) / expected) < 1e-12

    def test_recorded_states_share_no_memory(self, model):
        g = make_grid(32, nt=50, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = 10.0 * np.sin(np.linspace(0, 2 * np.pi, g.nt))
        _, states = hg.solve_flow(model, g, inlet=inlet)
        assert len(states) == g.nt
        for a, b in zip(states, states[1:]):
            for name in ("area", "velocity", "pressure"):
                assert not np.shares_memory(getattr(a, name), getattr(b, name))

    def test_determinism(self, model):
        g = make_grid(32, nt=200, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = 15.0 * np.sin(np.linspace(0, 4 * np.pi, g.nt))
        a, _ = hg.solve_flow(model, g, inlet=inlet)
        b, _ = hg.solve_flow(model, g, inlet=inlet)
        assert np.array_equal(a.values, b.values)

    def test_divergence_reports_step_index(self, model):
        # an inlet pressure far below the collapse limit kills the lumen
        g = make_grid(32, nt=50, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        inlet = np.full(g.nt, -1e9)
        with pytest.raises(SimulationError) as err:
            hg.solve_flow(model, g, inlet=inlet)
        assert err.value.step_index is not None

    def test_initial_radii_length_checked(self, model):
        g = make_grid(32, nt=5, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        with pytest.raises(DomainError):
            hg.solve_flow(model, g, np.zeros(g.nt),
                          initial_radii=np.full(31, model.r0))


def _final_rows(model, g, stack, inlet):
    """solve_flow from each row of ``stack``: each run's last radii
    column, as a ``(rows, nx)`` array. If any row fails, the error of the
    earliest failing step over the rows is raised."""
    finals, errors = [], []
    for initial in stack:
        try:
            radii, _ = hg.solve_flow(model, g, inlet=inlet,
                                     initial_radii=initial)
        except SimulationError as exc:
            errors.append(exc)
        else:
            finals.append(radii.column(-1))
    if errors:
        raise min(errors, key=lambda exc: exc.step_index)
    return np.array(finals)


class TestPinnedKernel:
    """The step loop's own output, recorded from earlier forms of the loop
    (before it ran in place on ghosted buffers, and while it advanced a
    stack of rows together), so a change to its arithmetic shows here.
    Each stack runs through solve_flow one row at a time."""

    # SHA-256 of the gen-data-large stack's last columns, one row per
    # initial column, recorded with numpy 2.4 on x86-64
    LARGE_SHA256 = ("b79ab7efd01588a94c17c8588cebf58d"
                    "80e1190332e8652860a5a7e0d68ca750")

    @staticmethod
    def _large(model):
        """The flow run gen-data-large once made: 10 progressive-occlusion
        rows up to severity 0.5 at the centre of a 128-cell grid, 2000
        steps, and an inlet sine of amplitude 10 Pa."""
        g = make_grid(128, nt=2000, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
        stack = np.array([stenotic_column(model, g.nx, 64, 3.0, 0.5 * s / 9)
                          for s in range(10)])
        period = g.nt * g.dt
        sine = np.sin(2 * np.pi * np.arange(g.nt) * g.dt / period)
        return g, stack, sine

    def test_large_bytes_pinned(self, model):
        g, stack, sine = self._large(model)
        final = _final_rows(model, g, stack, 10.0 * sine)
        assert final.shape == stack.shape and final.flags.c_contiguous
        assert hashlib.sha256(final.tobytes()).hexdigest() == self.LARGE_SHA256

    @pytest.mark.parametrize("gain, step", [(100, 313), (300, 125),
                                            (1000, 61)])
    def test_large_failing_step_pinned(self, model, gain, step):
        g, stack, sine = self._large(model)
        with pytest.raises(SimulationError, match="advective Courant") as err:
            _final_rows(model, g, stack, 10.0 * gain * sine)
        assert err.value.step_index == step

    # SHA-256 of a whole run, the radii then every state's area, velocity
    # and pressure, recorded with numpy 2.4 on x86-64: simulate's 32x50
    # run at PINNED_SIMULATE's settings (uniform r0, a 10 Pa sine of one
    # period) and the 128x2000 run from the large stack's most stenotic row
    HISTORY_SHA256 = {
        "simulate-32x50": "cb8879d44cb487edb0b8d7f7cff492a5"
                          "e6ae05a062a50ac350ed79f277ff86e9",
        "stenotic-128x2000": "fc01c85267126eb72c0b341e8b3dddb0"
                             "0fc7d567240afc7390b8a404baa7edf5",
    }

    @pytest.mark.parametrize("case", HISTORY_SHA256)
    def test_history_bytes_pinned(self, model, case):
        if case == "simulate-32x50":
            g = make_grid(32, nt=50, dx=1e-3, dt=2e-6, s_max=5.0, cfl=0.5)
            initial = None
            freq = 1.0 / (g.nt * g.dt)
            inlet = 10.0 * np.sin(2 * np.pi * freq * np.arange(g.nt) * g.dt)
        else:
            g, stack, sine = self._large(model)
            initial, inlet = stack[-1], 10.0 * sine
        radii, states = hg.solve_flow(model, g, inlet=inlet,
                                      initial_radii=initial)
        digest = hashlib.sha256(radii.values.tobytes())
        for state in states:
            for field in (state.area, state.velocity, state.pressure):
                digest.update(field.tobytes())
        assert digest.hexdigest() == self.HISTORY_SHA256[case]

    # each of the loop's other checks, on a 32-cell stack of a healthy
    # and a stenotic row: (model, nx, nt, dx, radius scale, inlet, step,
    # reason)
    SINE = np.sin(2 * np.pi * np.arange(400) / 400)
    CHECKS = {
        "continuity-cfl": (dict(alpha=10.0), 1e-3, 1.0, 1e6 * SINE, 14,
                           "continuity CFL"),
        "inlet-collapse": ({}, 1e-3, 0.05, -1e5 * SINE, 2,
                           "collapses the lumen"),
        "diverged": ({}, 1e-3, 1.0, np.where(np.arange(400) == 7, np.nan,
                                             SINE), 7, "diverged"),
        "diffusion": ({}, 1e-4, 1.0, np.zeros(400), 0, "diffusion number"),
    }

    @pytest.mark.parametrize("case", CHECKS.values(), ids=CHECKS)
    def test_check_step_pinned(self, case):
        params, dx, scale, inlet, step, reason = case
        model = hg.ArteryModel(**params)
        g = make_grid(32, nt=400, dx=dx, dt=2e-6, s_max=5.0, cfl=0.5)
        stack = scale * np.array([np.full(32, model.r0),
                                  stenotic_column(model, 32, 16, 2.0, 0.4)])
        with pytest.raises(SimulationError, match=reason) as err:
            _final_rows(model, g, stack, inlet)
        assert err.value.step_index == step

    # SHA-256 of the advanced field after one single-column step on a
    # nonuniform 24-cell column whose velocity has both signs, so that
    # both upwind branches run; recorded with numpy 2.4 on x86-64. The
    # third key only names the case: True for the momentum step with its
    # advection term, None for continuity
    STEP_SHA256 = {
        ("momentum", "fixed", True): "fdae3528b81d158f0d0d5ce78535e58e"
                                     "6410747fa2b7425d7193c5e3bbe33bac",
        ("momentum", "periodic", True): "026264921571dd9c17896c0602959034"
                                        "8a8768bf03a953a2ffea4baee6ee38d4",
        ("continuity", "fixed", None): "5e453824c6255cd57f16f2602284b5a5"
                                       "37fd83af13cda0596dd4bb368bebaed4",
        ("continuity", "periodic", None): "3308cdec49fb3b12169e872effde1013"
                                          "afb662ba25b5ed87e46d3c0faac532c1",
    }

    @pytest.mark.parametrize("kernel, bc, advection", STEP_SHA256,
                             ids=lambda v: str(v).lower())
    def test_single_step_bytes_pinned(self, model, kernel, bc, advection):
        nx = 24
        i = np.arange(nx)
        state = hg.FlowState(
            area=1 + 0.3 * np.sin(2 * np.pi * i / nx) ** 2 + 0.05 * np.cos(i),
            velocity=(0.4 * np.sin(2 * np.pi * (i + 0.5) / nx)
                      + 0.03 * np.cos(3 * i)),
            pressure=2.0 * np.cos(2 * np.pi * i / nx) + 0.1 * i)
        assert (state.velocity > 0).any() and (state.velocity < 0).any()
        g = make_grid(nx, dx=1.0 / nx, dt=1e-3, s_max=1.0)
        if kernel == "momentum":
            out = hg.step_momentum(state, g, model, bc=bc).velocity
        else:
            out = hg.step_continuity(state, g, bc=bc).area
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert digest == self.STEP_SHA256[kernel, bc, advection]


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
