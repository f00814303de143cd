"""Discretized non-bifurcated artery model.

A single arterial segment is resolved on a uniform space-time grid. The
cross-sectional area field is advanced with a conservative first-order
upwind scheme for

    dD/dt + d(uD)/dx = 0

and the axial velocity with an explicit Euler step of the 1D axisymmetric
reduction of the nondimensional viscous momentum balance

    (alpha^2/Re) du/dt + u du/dx + dp/dx - (1/Re) d2u/dx2 = 0.

The system is closed by a linear-elastic tube law mapping area to pressure.

Each stencil is coded once, as a plain NumPy expression on ghosted
columns, which run along the segment with one ghost cell at each end:
:func:`_continuity` returns the new interior area and :func:`_momentum`
the new interior velocity, each after its stability checks.
:func:`step_continuity` and :func:`step_momentum` ghost one column with
periodic or fixed ends; :func:`solve_flow`'s loop ghosts its fields with
fixed ends at every step. Each step makes fresh arrays, so the recorded
states share no memory. Every operation rounds in the order its stencil
is written: the upwind flux as ``where(uh >= 0, d_l, d_r) * uh`` with
``uh = (u_l + u_r) * 0.5``, the area as ``d - (flux_r - flux_l) *
(dt/dx)``, the momentum right-hand side as ``((u_p - 2u) + u_m) / dx**2 *
(1/Re) - dpdx``, less ``where(u >= 0, backward, forward) / dx * u``, the
velocity as ``u + rhs * (dt*Re/alpha**2)``, and the tube law as
``(sqrt(D) - sqrt(D_rest)) * beta + p_ext``. The pinned outputs rely on
that order.
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
        # every check is written so that NaN fails it
        if not self.nx >= 2:
            raise DomainError(f"nx must be >= 2, got {self.nx}")
        if not self.nt >= 1:
            raise DomainError(f"nt must be >= 1, got {self.nt}")
        if not (self.dx > 0 and self.dt > 0):
            raise DomainError("dx and dt must be positive")
        if not (0 < self.cfl <= 1):
            raise DomainError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.s_max > 0:
            raise DomainError("s_max must be positive")
        limit = self.cfl * self.dx / self.s_max
        if not self.dt <= limit * (1 + 1e-12):
            raise DomainError(
                f"dt={self.dt} violates CFL bound {limit} "
                f"(cfl={self.cfl}, dx={self.dx}, s_max={self.s_max})"
            )


@dataclass(frozen=True)
class ArteryModel:
    """Physical parameters of the segment wall and the blood within it."""

    r0: float = 2e-3
    beta: float = 1.5e7  # gives pulse-wave speed sqrt(beta*sqrt(D0)/(2 rho)) ~ 5 m/s
    p_ext: float = 0.0
    alpha: float = 3.0
    re: float = 100.0
    c0: float = 1540.0

    def __post_init__(self):
        # written so that NaN fails each check
        for name in ("r0", "beta", "alpha", "re", "c0"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")
        if not np.isfinite(self.p_ext):
            raise DomainError("p_ext must be finite")


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


def _ghost(a, bc):
    """Column ``a`` with one ghost cell at each end: wrapped round for
    ``bc == "periodic"``, otherwise a copy of the edge cell (zero
    gradient)."""
    left, right = (a[-1:], a[:1]) if bc == "periodic" else (a[:1], a[-1:])
    return np.concatenate((left, a, right))


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
    return FlowState(area=_continuity(_ghost(d, bc), _ghost(u, bc), grid),
                     velocity=u.copy(), pressure=state.pressure.copy())


def _continuity(d, u, grid):
    """The new interior area from the ghosted area and velocity columns
    ``d`` and ``u``, after the CFL check on the interior velocity."""
    courant = np.abs(u[1:-1]).max() * grid.dt / grid.dx
    if courant > 1:
        raise StabilityError(
            f"continuity CFL violated: |u|dt/dx = {courant:.3g} > 1")
    # upwind flux F = u*D at the nx+1 cell interfaces; every operation
    # rounds in the order written, which the pinned outputs rely on
    uh = (u[:-1] + u[1:]) * 0.5
    flux = np.where(uh >= 0, d[:-1], d[1:]) * uh
    return d[1:-1] - (flux[1:] - flux[:-1]) * (grid.dt / grid.dx)


def step_momentum(state: FlowState, grid: Grid, model: ArteryModel,
                  bc="periodic"):
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
                     velocity=_momentum(_ghost(u, bc), _ghost(p, bc), grid,
                                        model),
                     pressure=p.copy())


def _momentum(u, p, grid, model):
    """The new interior velocity from the ghosted velocity and pressure
    columns ``u`` and ``p``, after the explicit diffusion bound and the
    advective Courant check on the interior velocity."""
    nu_eff = 1.0 / model.alpha**2  # (Re/alpha^2) * (1/Re)
    diff_number = nu_eff * grid.dt / grid.dx**2
    if diff_number > 0.5:
        raise StabilityError(
            f"momentum diffusion number {diff_number:.3g} exceeds 0.5")
    scale = model.re / model.alpha**2
    u_m, u_c, u_p = u[:-2], u[1:-1], u[2:]
    adv_courant = scale * np.abs(u_c).max() * grid.dt / grid.dx
    if adv_courant > 1:
        raise StabilityError(
            f"momentum advective Courant number {adv_courant:.3g} exceeds 1")
    # u + dt*scale*(-dp/dx + (1/Re)*(u_p - 2u + u_m)/dx^2 - u*du/dx), each
    # operation rounded in the order written, with the upwind difference
    dpdx = (p[2:] - p[:-2]) / (2 * grid.dx)
    rhs = (u_p - 2.0 * u_c + u_m) / grid.dx**2 * (1.0 / model.re) - dpdx
    rhs = rhs - np.where(u_c >= 0, u_c - u_m, u_p - u_c) / grid.dx * u_c
    return u_c + rhs * (grid.dt * scale)


def solve_flow(model: ArteryModel, grid: Grid, inlet, initial_radii=None):
    """Run the coupled continuity/momentum loop and record the radii history.

    Parameters
    ----------
    inlet : array of length nt
        Gauge pressure imposed at x=0 (added to p_ext), which drives the
        first cell through the tube law. The outlet is zero-gradient.
    initial_radii : optional radii column, defaults to constant r0.

    Returns
    -------
    (RadiiField, list[FlowState])
        Radii history with column j the state after j steps, and the
        per-step flow states (the list has nt entries, index 0 initial).
        Each state holds its own arrays.
    """
    if initial_radii is None:
        initial_radii = np.full(grid.nx, model.r0)
    initial_radii = np.asarray(initial_radii, dtype=float)
    if initial_radii.shape != (grid.nx,):
        raise DomainError("initial radii length must equal grid.nx")
    if not np.all(initial_radii > 0):
        raise DomainError("radii must be positive")
    waveform = np.asarray(inlet, dtype=float)
    if waveform.shape != (grid.nt,):
        raise DomainError("inlet waveform length must equal nt")
    # the initial column doubles as the rest geometry of the wall closure,
    # so the initial state is an equilibrium under zero forcing
    sqrt_d_rest = np.sqrt(np.pi) * initial_radii
    # the inlet cell is driven through the wall closure, so its area at
    # every step is known; a root <= 0 collapses it
    roots = sqrt_d_rest[0] + waveform / model.beta
    inlet_area = roots * roots
    inlet_pressure = model.p_ext + waveform

    d, u = np.pi * initial_radii**2, np.zeros(grid.nx)
    radii = np.empty((grid.nx, grid.nt))
    states = []
    for j in range(grid.nt):
        if roots[j] <= 0:
            raise SimulationError(
                f"inlet pressure collapses the lumen at step {j}",
                step_index=j)
        d[0] = inlet_area[j]
        d[-1], u[-1] = d[-2], u[-2]  # zero-gradient outlet
        # the step's one area check, which the tube law and the radii rely
        # on; written so that NaN fails it
        if not (0 < d.min() and d.max() < np.inf and np.isfinite(u).all()):
            raise SimulationError(f"solver diverged at step {j}", step_index=j)
        # the linear-elastic tube law p = p_ext + beta*(sqrt(D) - sqrt(D_rest))
        p = (np.sqrt(d) - sqrt_d_rest) * model.beta + model.p_ext
        p[0] = inlet_pressure[j]
        p[-1] = p[-2]
        radii[:, j] = np.sqrt(d / np.pi)
        states.append(FlowState(area=d, velocity=u, pressure=p))
        if j == grid.nt - 1:
            break
        try:  # fixed ends: every ghost copies its edge cell
            u = _momentum(_ghost(u, "fixed"), _ghost(p, "fixed"), grid, model)
            d = _continuity(_ghost(d, "fixed"), _ghost(u, "fixed"), grid)
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
