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

import math
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
    "area_from_radius",
    "radius_from_area",
    "tube_law",
    "step_continuity",
    "step_momentum",
    "solve_flow",
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

    @property
    def d0(self):
        """Baseline cross-sectional area pi*r0^2."""
        return math.pi * self.r0 * self.r0


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


def area_from_radius(r):
    """Cross-sectional area D = pi*r^2 for positive radius (scalar or array)."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise DomainError("radius must be positive")
    out = np.pi * r * r
    return float(out) if out.ndim == 0 else out

def radius_from_area(d):
    """Inverse of :func:`area_from_radius`: r = sqrt(D/pi)."""
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0):
        raise DomainError("area must be positive")
    out = np.sqrt(d / np.pi)
    return float(out) if out.ndim == 0 else out


def tube_law(d, model: ArteryModel, sqrt_d_rest=None):
    """Linear-elastic wall closure p = p_ext + beta*(sqrt(D) - sqrt(D_rest)).

    ``sqrt_d_rest`` is the root of the rest area, a scalar or one value per
    cell; it defaults to sqrt(D0) of the uniform baseline lumen.
    """
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0):
        raise DomainError("area must be positive")
    if sqrt_d_rest is None:
        sqrt_d_rest = math.sqrt(model.d0)
    out = _tube_law(d, model, sqrt_d_rest)
    return float(out) if out.ndim == 0 else out


def _tube_law(d, model, sqrt_d_rest):
    return model.p_ext + model.beta * (np.sqrt(d) - sqrt_d_rest)


def _ghost(a, bc):
    """``a`` with one ghost cell at each end: wrapped round for
    ``bc == "periodic"``, otherwise a copy of the edge cell (zero gradient)."""
    if bc == "periodic":
        return np.concatenate((a[-1:], a, a[:1]))
    return np.concatenate((a[:1], a, a[-1:]))


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
    """Area after one step of :func:`step_continuity`, on bare arrays."""
    courant = np.max(np.abs(u)) * grid.dt / grid.dx
    if courant > 1:
        raise StabilityError(f"continuity CFL violated: |u|dt/dx = {courant:.3g} > 1")
    dg, ug = _ghost(d, bc), _ghost(u, bc)
    # upwind flux of F = u*D at the nx+1 cell interfaces
    uh = 0.5 * (ug[:-1] + ug[1:])
    flux = np.where(uh >= 0, uh * dg[:-1], uh * dg[1:])
    return d - (grid.dt / grid.dx) * (flux[1:] - flux[:-1])


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
    """Velocity after one step of :func:`step_momentum`, on bare arrays."""
    scale = model.re / model.alpha**2
    nu_eff = 1.0 / model.alpha**2  # (Re/alpha^2) * (1/Re)
    diff_number = nu_eff * grid.dt / grid.dx**2
    if diff_number > 0.5:
        raise StabilityError(
            f"momentum diffusion number {diff_number:.3g} exceeds 0.5"
        )
    adv_courant = scale * np.max(np.abs(u)) * grid.dt / grid.dx
    if adv_courant > 1:
        raise StabilityError(
            f"momentum advective Courant number {adv_courant:.3g} exceeds 1"
        )

    ug, pg = _ghost(u, bc), _ghost(p, bc)
    u_p, u_m = ug[2:], ug[:-2]

    dpdx = (pg[2:] - pg[:-2]) / (2 * grid.dx)
    d2u = (u_p - 2 * u + u_m) / grid.dx**2
    rhs = -dpdx + (1.0 / model.re) * d2u
    if nonlinear:
        dudx_up = np.where(u >= 0, (u - u_m) / grid.dx, (u_p - u) / grid.dx)
        rhs = rhs - u * dudx_up
    return u + grid.dt * scale * rhs


def solve_flow(model: ArteryModel, grid: Grid, inlet=None, bc="periodic",
               initial_radii=None):
    """Run the coupled continuity/momentum loop and record the radii history.

    Parameters
    ----------
    inlet : array of length nt, or None
        Gauge pressure imposed at x=0 (added to p_ext) when
        ``bc == "inlet"``. Ignored for periodic runs.
    bc : "periodic" or "inlet"
        "inlet" drives the first cell from the waveform through the tube
        law and applies a zero-gradient outlet.
    initial_radii : optional radii column, defaults to constant r0.

    Returns
    -------
    (RadiiField, list[FlowState])
        Radii history with column j the state after j steps, and the
        per-step flow states (the list has nt entries, index 0 initial).
        No state is written to after it is recorded.
    """
    if bc not in ("periodic", "inlet"):
        raise DomainError(f"unknown boundary condition {bc!r}")
    if initial_radii is None:
        initial_radii = np.full(grid.nx, model.r0)
    initial_radii = np.asarray(initial_radii, dtype=float)
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

    radii = np.empty((grid.nx, grid.nt))
    states = []
    step_bc = "periodic" if bc == "periodic" else "fixed"
    # each step makes fresh arrays, so no recorded state is written to again
    for j in range(grid.nt):
        if bc == "inlet":
            # drive the inlet cell through the wall closure, zero-gradient outlet
            root = sqrt_d_rest[0] + waveform[j] / model.beta
            if root <= 0:
                raise SimulationError(
                    f"inlet pressure collapses the lumen at step {j}",
                    step_index=j)
            area[0] = root * root
            area[-1] = area[-2]
            velocity[-1] = velocity[-2]
        # the step's one area check, which the tube law and the radii rely on
        if not (np.all(np.isfinite(area)) and np.all(area > 0)
                and np.all(np.isfinite(velocity))):
            raise SimulationError(f"solver diverged at step {j}", step_index=j)
        pressure = _tube_law(area, model, sqrt_d_rest)
        if bc == "inlet":
            pressure[0] = model.p_ext + waveform[j]
            pressure[-1] = pressure[-2]
        radii[:, j] = np.sqrt(area / np.pi)
        states.append(FlowState(area=area, velocity=velocity,
                                pressure=pressure))
        if j == grid.nt - 1:
            break
        try:
            velocity = _momentum(velocity, pressure, grid, model, step_bc)
            area = _continuity(area, velocity, grid, step_bc)
        except StabilityError as exc:
            raise SimulationError(f"solver unstable at step {j}: {exc}",
                                  step_index=j) from exc
    return RadiiField(values=radii, grid=grid), states


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
