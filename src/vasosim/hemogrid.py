"""Discretized non-bifurcated artery model.

A single arterial segment is resolved on a uniform space-time grid. The
cross-sectional area field is advanced with a conservative first-order
upwind scheme for

    dD/dt + d(uD)/dx = 0

and the axial velocity with an explicit Euler step of the 1D axisymmetric
reduction of the nondimensional viscous momentum balance

    (alpha^2/Re) du/dt + u du/dx + dp/dx - (1/Re) d2u/dx2 = 0.

The system is closed by a linear-elastic tube law mapping area to pressure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    SimulationError,
    StabilityError,
)

__all__ = [
    "Grid",
    "ArteryModel",
    "RadiiField",
    "FlowState",
    "step_continuity",
    "step_momentum",
    "solve_flow",
    "final_radii",
    "write_radii_csv",
    "read_radii_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid for one arterial segment.

    ``s_max`` is the configured maximum signal speed used to enforce the
    CFL bound ``dt <= cfl * dx / s_max`` at construction time.
    """

    nx: int
    nt: int
    dx: float
    dt: float
    s_max: float = 5.0
    cfl: float = 0.5

    def __post_init__(self):
        if self.nx < 2:
            raise DomainError(f"nx must be >= 2, got {self.nx}")
        if self.nt < 1:
            raise DomainError(f"nt must be >= 1, got {self.nt}")
        if self.dx <= 0 or self.dt <= 0:
            raise DomainError("dx and dt must be positive")
        if not (0 < self.cfl <= 1):
            raise DomainError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.s_max <= 0:
            raise DomainError("s_max must be positive")
        limit = self.cfl * self.dx / self.s_max
        if self.dt > limit * (1 + 1e-12):
            raise DomainError(
                f"dt={self.dt} violates CFL bound {limit} "
                f"(cfl={self.cfl}, dx={self.dx}, s_max={self.s_max})"
            )

    @property
    def x(self):
        """Cell-center coordinates."""
        return (np.arange(self.nx) + 0.5) * self.dx


@dataclass(frozen=True)
class ArteryModel:
    """Physical parameters of the segment wall and the blood within it."""

    r0: float = 2e-3
    beta: float = 1.5e7  # gives pulse-wave speed sqrt(beta*sqrt(D0)/(2 rho)) ~ 5 m/s
    p_ext: float = 0.0
    rho: float = 1060.0
    mu: float = 3.5e-3
    alpha: float = 3.0
    re: float = 100.0
    c0: float = 1540.0

    def __post_init__(self):
        for name in ("r0", "beta", "rho", "mu", "alpha", "re", "c0"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


@dataclass(frozen=True)
class RadiiField:
    """Radius r(i, j) over the space-time grid, shape (nx, nt)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.nx, self.grid.nt):
            raise DomainError(
                f"radii shape {values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.nt})"
            )
        if not np.all(values > 0):
            raise DomainError("all radii must be positive")

    def column(self, j):
        """Radii at time index j."""
        return self.values[:, j].copy()


@dataclass
class FlowState:
    """Area, velocity and pressure fields at a single time index."""

    area: np.ndarray
    velocity: np.ndarray
    pressure: np.ndarray

    def __post_init__(self):
        self.area = np.asarray(self.area, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.pressure = np.asarray(self.pressure, dtype=float)
        if not (self.area.shape == self.velocity.shape == self.pressure.shape):
            raise DomainError("area, velocity and pressure must share a shape")
        if not np.all(self.area > 0):
            raise DomainError("area values must be positive")


def _tube_law(d, model, sqrt_d_rest):
    """Linear-elastic wall closure p = p_ext + beta*(sqrt(D) - sqrt(D_rest)),
    with ``sqrt_d_rest`` the root of each cell's rest area."""
    return model.p_ext + model.beta * (np.sqrt(d) - sqrt_d_rest)


def _ghost(a, bc):
    """``a`` with one ghost cell at each end of its last axis: wrapped round
    for ``bc == "periodic"``, otherwise a copy of the edge cell (zero
    gradient)."""
    if bc == "periodic":
        return np.concatenate((a[..., -1:], a, a[..., :1]), axis=-1)
    return np.concatenate((a[..., :1], a, a[..., -1:]), axis=-1)


def step_continuity(state: FlowState, grid: Grid, bc="periodic"):
    """Advance the area field one conservative upwind step.

    ``bc`` is ``"periodic"`` or ``"fixed"`` (zero-gradient ends), applied
    as ghost cells. With periodic boundaries the discrete total volume
    sum(D)*dx is conserved to rounding because the update is in
    flux-difference form.
    """
    d, u = state.area, state.velocity
    if d.shape != (grid.nx,):
        raise DomainError("state dimensions do not match grid")
    return FlowState(area=_continuity(d, u, grid, bc), velocity=u.copy(),
                     pressure=state.pressure.copy())


def _continuity(d, u, grid, bc):
    """Area after one step of :func:`step_continuity`, on bare arrays whose
    last axis runs along the segment; the CFL check covers every row."""
    courant = np.abs(u).max() * grid.dt / grid.dx
    if courant > 1:
        raise StabilityError(f"continuity CFL violated: |u|dt/dx = {courant:.3g} > 1")
    dg, ug = _ghost(d, bc), _ghost(u, bc)
    # upwind flux of F = u*D at the nx+1 cell interfaces
    uh = 0.5 * (ug[..., :-1] + ug[..., 1:])
    flux = np.where(uh >= 0, uh * dg[..., :-1], uh * dg[..., 1:])
    return d - (grid.dt / grid.dx) * (flux[..., 1:] - flux[..., :-1])


def step_momentum(state: FlowState, grid: Grid, model: ArteryModel,
                  bc="periodic", nonlinear=True):
    """Advance the velocity one explicit Euler step of the reduced momentum
    balance, with upwind advection and central pressure/diffusion stencils.

    Fields are treated in nondimensional form; the factor Re/alpha^2
    multiplies the whole right-hand side. ``bc`` is ``"periodic"`` or
    ``"fixed"``, applied as ghost cells as in :func:`step_continuity`.
    """
    u, p = state.velocity, state.pressure
    if u.shape != (grid.nx,):
        raise DomainError("state dimensions do not match grid")
    return FlowState(area=state.area.copy(),
                     velocity=_momentum(u, p, grid, model, bc, nonlinear),
                     pressure=p.copy())


def _momentum(u, p, grid, model, bc, nonlinear=True):
    """Velocity after one step of :func:`step_momentum`, on bare arrays
    whose last axis runs along the segment; the Courant check covers every
    row."""
    scale = model.re / model.alpha**2
    nu_eff = 1.0 / model.alpha**2  # (Re/alpha^2) * (1/Re)
    diff_number = nu_eff * grid.dt / grid.dx**2
    if diff_number > 0.5:
        raise StabilityError(
            f"momentum diffusion number {diff_number:.3g} exceeds 0.5"
        )
    adv_courant = scale * np.abs(u).max() * grid.dt / grid.dx
    if adv_courant > 1:
        raise StabilityError(
            f"momentum advective Courant number {adv_courant:.3g} exceeds 1"
        )

    ug, pg = _ghost(u, bc), _ghost(p, bc)
    u_p, u_m = ug[..., 2:], ug[..., :-2]

    dpdx = (pg[..., 2:] - pg[..., :-2]) / (2 * grid.dx)
    d2u = (u_p - 2 * u + u_m) / grid.dx**2
    rhs = -dpdx + (1.0 / model.re) * d2u
    if nonlinear:
        dudx_up = np.where(u >= 0, (u - u_m) / grid.dx, (u_p - u) / grid.dx)
        rhs = rhs - u * dudx_up
    return u + grid.dt * scale * rhs


def solve_flow(model: ArteryModel, grid: Grid, inlet=None,
               initial_radii=None):
    """Run the coupled continuity/momentum loop and record the radii history.

    Parameters
    ----------
    inlet : array of length nt, or None
        Gauge pressure imposed at x=0 (added to p_ext), which drives the
        first cell through the tube law; None holds it at 0. The outlet
        is zero-gradient.
    initial_radii : optional radii column, defaults to constant r0.

    Returns
    -------
    (RadiiField, list[FlowState])
        Radii history with column j the state after j steps, and the
        per-step flow states (the list has nt entries, index 0 initial).
        No state is written to after it is recorded.
    """
    if initial_radii is None:
        initial_radii = np.full(grid.nx, model.r0)
    initial_radii = np.asarray(initial_radii, dtype=float)
    if initial_radii.shape != (grid.nx,):
        raise DomainError("initial radii length must equal grid.nx")
    radii = np.empty((grid.nx, grid.nt))
    states = []
    for j, (area, velocity, pressure) in enumerate(
            _flow(model, grid, initial_radii[None], inlet)):
        radii[:, j] = np.sqrt(area[0] / np.pi)
        states.append(FlowState(area=area[0], velocity=velocity[0],
                                pressure=pressure[0]))
    return RadiiField(values=radii, grid=grid), states


def final_radii(model: ArteryModel, grid: Grid, initial_radii, inlet=None):
    """Radii after ``grid.nt - 1`` steps of :func:`solve_flow`, for a
    ``(rows, nx)`` stack of initial columns advanced together.

    Row i equals ``solve_flow(..., initial_radii=initial_radii[i])``'s last
    column bit for bit, and every row is driven by the same ``inlet``. No
    per-step state is kept. A failing step raises SimulationError naming
    that step, as :func:`solve_flow` does.
    """
    initial_radii = np.asarray(initial_radii, dtype=float)
    if initial_radii.ndim != 2 or initial_radii.shape[1] != grid.nx:
        raise DomainError("initial radii must be a (rows, grid.nx) stack")
    for area, _, _ in _flow(model, grid, initial_radii, inlet):
        pass
    return np.sqrt(area / np.pi)


def _flow(model, grid, initial_radii, inlet):
    """The one step loop: yields (area, velocity, pressure) as
    ``(rows, nx)`` arrays for each of the nt time indices, after that
    step's checks. Each step makes fresh arrays, so nothing yielded is
    written to again."""
    if not np.all(initial_radii > 0):
        raise DomainError("radii must be positive")
    # the initial column doubles as the rest geometry of the wall closure,
    # so every initial state is an equilibrium under zero forcing
    sqrt_d_rest = np.sqrt(np.pi) * initial_radii
    area = np.pi * initial_radii**2
    velocity = np.zeros_like(area)

    waveform = (np.zeros(grid.nt) if inlet is None
                else np.asarray(inlet, dtype=float))
    if waveform.shape != (grid.nt,):
        raise DomainError("inlet waveform length must equal nt")

    for j in range(grid.nt):
        # drive the inlet cell through the wall closure, zero-gradient outlet
        root = sqrt_d_rest[:, 0] + waveform[j] / model.beta
        if (root <= 0).any():
            raise SimulationError(
                f"inlet pressure collapses the lumen at step {j}",
                step_index=j)
        area[:, 0] = root * root
        area[:, -1] = area[:, -2]
        velocity[:, -1] = velocity[:, -2]
        # the step's one area check, which the tube law and the radii rely on
        if not (np.isfinite(area).all() and (area > 0).all()
                and np.isfinite(velocity).all()):
            raise SimulationError(f"solver diverged at step {j}", step_index=j)
        pressure = _tube_law(area, model, sqrt_d_rest)
        pressure[:, 0] = model.p_ext + waveform[j]
        pressure[:, -1] = pressure[:, -2]
        yield area, velocity, pressure
        if j == grid.nt - 1:
            break
        try:
            velocity = _momentum(velocity, pressure, grid, model, "fixed")
            area = _continuity(area, velocity, grid, "fixed")
        except StabilityError as exc:
            raise SimulationError(f"solver unstable at step {j}: {exc}",
                                  step_index=j) from exc


# ---------------------------------------------------------------------------
# file formats

def write_radii_csv(path, radii: RadiiField):
    """CSV with header '# nx,nt,dx,dt' then nt rows of nx radii in meters."""
    g = radii.grid
    with open(path, "w") as fh:
        fh.write(f"# {g.nx},{g.nt},{g.dx!r},{g.dt!r}\n")
        for j in range(g.nt):
            fh.write(",".join(f"{float(v)!r}" for v in radii.values[:, j]) + "\n")


def read_radii_csv(path, s_max=5.0, cfl=1.0):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ConfigurationError(f"{path}: missing '# nx,nt,dx,dt' header")
        try:
            nx_s, nt_s, dx_s, dt_s = header.lstrip("# ").split(",")
            nx, nt, dx, dt = int(nx_s), int(nt_s), float(dx_s), float(dt_s)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: malformed header {header!r}") from exc
        try:
            rows = [[float(v) for v in line.split(",")]
                    for line in map(str.strip, fh) if line]
            values = np.array(rows, dtype=float).T
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}: body is not a rectangle of numbers: {exc}") from exc
    if values.shape != (nx, nt):
        raise ConfigurationError(
            f"{path}: body shape {values.shape} does not match header ({nx}, {nt})"
        )
    if not (np.isfinite(values).all() and np.isfinite([dx, dt]).all()):
        raise ConfigurationError(f"{path}: non-finite number")
    grid = Grid(nx=nx, nt=nt, dx=dx, dt=dt, s_max=s_max, cfl=cfl)
    return RadiiField(values=values, grid=grid)
