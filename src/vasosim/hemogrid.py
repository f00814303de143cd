"""Discretized non-bifurcated artery model.

A single arterial segment is resolved on a uniform space-time grid. The
cross-sectional area field is advanced with a conservative first-order
upwind scheme for

    dD/dt + d(uD)/dx = 0

and the axial velocity with an explicit Euler step of the 1D axisymmetric
reduction of the nondimensional viscous momentum balance

    (alpha^2/Re) du/dt + u du/dx + dp/dx - (1/Re) d2u/dx2 = 0.

The system is closed by a linear-elastic tube law mapping area to pressure.

Each stencil is coded once, as a step bound to ghosted arrays whose
first axis runs along the segment with one ghost cell at each end: the
views, scratch arrays and constants are fixed when the step is built, so
each call only runs ufuncs in place. The step loop is cell-major: one
``(3, nx + 2, rows)`` buffer holds area, velocity and pressure for a stack
of columns advanced together, it builds its steps once per run over that
buffer, and each step overwrites it, so an array the loop yields is valid
until the next step. :func:`step_continuity` and :func:`step_momentum`
fill periodic or fixed ghost cells around one column and build and call
the same steps once. Binding changes no rounding: every operation runs in
the order the stencil is written.
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


def _abs_max(u):
    """max|u| from one min/max pair; NaN gives NaN, as np.abs(u).max()
    does."""
    return max(np.maximum.reduce(u, None), -np.minimum.reduce(u, None))


def _ghosted(bc, *columns):
    """The 1-D ``columns`` stacked, each with one ghost cell at each end:
    wrapped round for ``bc == "periodic"``, otherwise a copy of the edge
    cell (zero gradient)."""
    fields = np.empty((len(columns), columns[0].size + 2))
    fields[:, 1:-1] = columns
    left, right = (-2, 1) if bc == "periodic" else (1, -2)
    fields[:, 0], fields[:, -1] = fields[:, left], fields[:, right]
    return fields


def _scratch(shape):
    """Work arrays for :func:`_momentum_step` and :func:`_continuity_step`
    on ghosted fields of ``shape``: two floats per interface, two per cell
    and a mask per interface."""
    nx, rest = shape[0] - 2, shape[1:]
    return (np.empty((nx + 1, *rest)), np.empty((nx + 1, *rest)),
            np.empty((nx, *rest)), np.empty((nx, *rest)),
            np.empty((nx + 1, *rest), dtype=bool))


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
    area, velocity = _ghosted(bc, d, u)
    _continuity_step(area, velocity, grid, _scratch(area.shape))()
    return FlowState(area=area[1:-1], velocity=u.copy(),
                     pressure=state.pressure.copy())


def _continuity_step(D, U, grid, work):
    """One step of :func:`step_continuity`, bound to ``D``, ``U`` and
    ``work``: calling it advances the area ``D[1:-1]`` in place. ``D`` and
    ``U`` run along the segment on axis 0; their ghost cells must be filled
    before each call. The CFL check reads max|u| over ``U[1:-1]``."""
    uh, flux, dflux, _, upwind = work
    u, u_l, u_r = U[1:-1], U[:-1], U[1:]
    d, d_l, d_r = D[1:-1], D[:-1], D[1:]
    flux_l, flux_r = flux[:-1], flux[1:]
    # the constants as 0-d float64 arrays, which a ufunc takes faster than
    # Python floats, each rounded as in the expression it stands for
    half, zero, dt_dx = map(np.array, (0.5, 0.0, grid.dt / grid.dx))
    add, subtract, multiply = np.add, np.subtract, np.multiply
    greater_equal, copyto = np.greater_equal, np.copyto

    def step():
        courant = _abs_max(u) * grid.dt / grid.dx
        if courant > 1:
            raise StabilityError(
                f"continuity CFL violated: |u|dt/dx = {courant:.3g} > 1")
        # upwind flux of F = u*D at the nx+1 cell interfaces: pick the
        # upwind cell's area, then multiply; as in _momentum_step, the
        # operations keep the order of d - (dt/dx)*(flux_r - flux_l) with
        # flux = (0.5*(u_l + u_r))*D
        add(u_l, u_r, uh)
        multiply(uh, half, uh)
        greater_equal(uh, zero, upwind)
        copyto(flux, d_r)
        copyto(flux, d_l, where=upwind)
        multiply(flux, uh, flux)
        subtract(flux_r, flux_l, dflux)
        multiply(dflux, dt_dx, dflux)
        subtract(d, dflux, d)

    return step


def _check_diffusion(grid, model):
    """StabilityError if the grid breaks the momentum step's explicit
    diffusion bound."""
    nu_eff = 1.0 / model.alpha**2  # (Re/alpha^2) * (1/Re)
    diff_number = nu_eff * grid.dt / grid.dx**2
    if diff_number > 0.5:
        raise StabilityError(
            f"momentum diffusion number {diff_number:.3g} exceeds 0.5"
        )


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
    _check_diffusion(grid, model)
    velocity, pressure = _ghosted(bc, u, p)
    _momentum_step(velocity, pressure, grid, model,
                   _scratch(velocity.shape))(_abs_max(u))
    return FlowState(area=state.area.copy(), velocity=velocity[1:-1],
                     pressure=p.copy())


def _momentum_step(U, P, grid, model, work):
    """One step of :func:`step_momentum`, bound to ``U``, ``P`` and
    ``work``: calling it with ``u_max``, max|u| over every cell, advances
    the velocity ``U[1:-1]`` in place. ``U`` and ``P`` run along the
    segment on axis 0; their ghost cells must be filled before each call.
    ``u_max`` is for the advective Courant check; the diffusion bound is
    the caller's (:func:`_check_diffusion`)."""
    scale = model.re / model.alpha**2
    du, _, dpdx, rhs, upwind = work
    upwind = upwind[:-1]
    u, u_p, u_m, p_p, p_m = U[1:-1], U[2:], U[:-2], P[2:], P[:-2]
    du_r, du_l, u_r, u_l = du[1:], du[:-1], U[1:], U[:-1]
    # 0-d float64 constants, as in _continuity_step
    two, zero, two_dx, dx, dx2, inv_re, gain = map(np.array, (
        2.0, 0.0, 2 * grid.dx, grid.dx, grid.dx**2, 1.0 / model.re,
        grid.dt * scale))
    add, subtract, multiply, divide = (np.add, np.subtract, np.multiply,
                                       np.true_divide)
    greater_equal, copyto = np.greater_equal, np.copyto

    def step(u_max):
        adv_courant = scale * u_max * grid.dt / grid.dx
        if adv_courant > 1:
            raise StabilityError(
                f"momentum advective Courant number {adv_courant:.3g} "
                "exceeds 1")
        # u + dt*scale*(-dp/dx + (1/Re)*(u_p - 2u + u_m)/dx^2 - u*du/dx),
        # each operation rounded in the order written: the pinned outputs
        # rely on it
        subtract(p_p, p_m, dpdx)
        divide(dpdx, two_dx, dpdx)
        multiply(u, two, rhs)
        subtract(u_p, rhs, rhs)
        add(rhs, u_m, rhs)
        divide(rhs, dx2, rhs)
        multiply(rhs, inv_re, rhs)
        subtract(rhs, dpdx, rhs)
        # du[i] is cell i's backward difference and cell i-1's forward
        # one: pick the upwind difference, then divide
        subtract(u_r, u_l, du)
        greater_equal(u, zero, upwind)
        copyto(dpdx, du_r)
        copyto(dpdx, du_l, where=upwind)
        divide(dpdx, dx, dpdx)
        multiply(dpdx, u, dpdx)
        subtract(rhs, dpdx, rhs)
        multiply(rhs, gain, rhs)
        add(u, rhs, u)

    return step


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
        Each state holds its own copies of the step's fields.
    """
    if initial_radii is None:
        initial_radii = np.full(grid.nx, model.r0)
    initial_radii = np.asarray(initial_radii, dtype=float)
    if initial_radii.shape != (grid.nx,):
        raise DomainError("initial radii length must equal grid.nx")
    radii = np.empty((grid.nx, grid.nt))
    states = []
    for j, fields in enumerate(
            _flow(model, grid, initial_radii[None], inlet)):
        # the loop reuses its buffers, so each step's one column is copied
        area, velocity, pressure = (f[:, 0].copy() for f in fields)
        radii[:, j] = np.sqrt(area / np.pi)
        states.append(FlowState(area=area, velocity=velocity,
                                pressure=pressure))
    return RadiiField(values=radii, grid=grid), states


def final_radii(model: ArteryModel, grid: Grid, initial_radii, inlet):
    """Radii after ``grid.nt - 1`` steps of :func:`solve_flow`, for a
    ``(rows, nx)`` stack of initial columns advanced together.

    Row i equals ``solve_flow(..., initial_radii=initial_radii[i])``'s last
    column bit for bit, and every row is driven by the same ``inlet``. No
    per-step state is kept. A failing step raises SimulationError naming
    that step, as :func:`solve_flow` does. The result is a C-contiguous
    ``(rows, nx)`` array.
    """
    initial_radii = np.asarray(initial_radii, dtype=float)
    if initial_radii.ndim != 2 or initial_radii.shape[1] != grid.nx:
        raise DomainError("initial radii must be a (rows, grid.nx) stack")
    for area, _, _ in _flow(model, grid, initial_radii, inlet):
        pass
    return np.sqrt(area / np.pi).T.copy()


def _flow(model, grid, initial_radii, inlet):
    """The one step loop, on a ``(rows, nx)`` stack of initial columns.

    The fields are cell-major: one ``(3, nx + 2, rows)`` buffer holds
    area, velocity and pressure with cells on axis 1 and the stacked rows
    on axis 2, and one ghost cell at each end of the segment. Each step
    advances it in place and yields the ``(nx, rows)`` views (area,
    velocity, pressure) of its interior, after that step's checks, for
    each of the nt time indices. A yielded array is valid until the next
    step.

    The momentum and continuity steps and every view, scratch array,
    constant and ufunc a step uses are bound once per run, so each step
    only calls ufuncs on fixed arrays and allocates none. Every operation
    still rounds in the order its stencil is written.
    """
    if not np.all(initial_radii > 0):
        raise DomainError("radii must be positive")
    fields = np.zeros((3, grid.nx + 2, len(initial_radii)))
    area, velocity, pressure = fields
    d, u, p = fields[:, 1:-1]
    # the initial column doubles as the rest geometry of the wall closure,
    # so every initial state is an equilibrium under zero forcing
    sqrt_d_rest = np.ascontiguousarray(np.sqrt(np.pi) * initial_radii.T)
    d[:] = (np.pi * initial_radii**2).T

    waveform = np.asarray(inlet, dtype=float)
    if waveform.shape != (grid.nt,):
        raise DomainError("inlet waveform length must equal nt")
    # the inlet cell is driven through the wall closure, so its area at
    # every step, and the first step whose root collapses it, are known
    roots = sqrt_d_rest[0] + (waveform / model.beta)[:, None]
    collapsed = np.flatnonzero((roots <= 0).any(axis=1))
    collapse_step = collapsed[0] if collapsed.size else grid.nt
    inlet_area = roots * roots
    inlet_pressure = model.p_ext + waveform

    work = _scratch(fields.shape[1:])
    momentum = _momentum_step(velocity, pressure, grid, model, work)
    continuity = _continuity_step(area, velocity, grid, work)
    # every view, scratch array, constant and ufunc a step uses
    interior, lo, hi = fields[:2, 1:-1], np.empty(2), np.empty(2)
    outlet, before_outlet = fields[:2, -2], fields[:2, -3]
    ghost_l, edge_l, ghost_r, edge_r = (fields[:, i] for i in (0, 1, -1, -2))
    u_ghost_l, u_edge_l, u_ghost_r, u_edge_r = (
        ghost_l[1], edge_l[1], ghost_r[1], edge_r[1])
    d_in, p_in, p_out, p_before_out = d[0], p[0], p[-1], p[-2]
    beta, p_ext, inf = np.array(model.beta), np.array(model.p_ext), np.inf
    sqrt, subtract, multiply, add, copyto = (np.sqrt, np.subtract,
                                             np.multiply, np.add, np.copyto)
    minimum, maximum = np.minimum.reduce, np.maximum.reduce
    last = grid.nt - 1

    for j, (inlet_d, inlet_p) in enumerate(zip(inlet_area, inlet_pressure)):
        if j == collapse_step:
            raise SimulationError(
                f"inlet pressure collapses the lumen at step {j}",
                step_index=j)
        copyto(d_in, inlet_d)
        copyto(outlet, before_outlet)  # zero-gradient outlet area, velocity
        # the step's one area check, which the tube law and the radii rely
        # on; written so that NaN fails it
        minimum(interior, (1, 2), None, lo)
        maximum(interior, (1, 2), None, hi)
        (d_lo, u_lo), (d_hi, u_hi) = lo.tolist(), hi.tolist()
        if not (0 < d_lo and d_hi < inf and -inf < u_lo and u_hi < inf):
            raise SimulationError(f"solver diverged at step {j}", step_index=j)
        # the linear-elastic tube law p = p_ext + beta*(sqrt(D) - sqrt(D_rest))
        sqrt(d, p)
        subtract(p, sqrt_d_rest, p)
        multiply(p, beta, p)
        add(p, p_ext, p)
        copyto(p_in, inlet_p)
        copyto(p_out, p_before_out)
        yield d, u, p
        if j == last:
            break
        # fixed ends: every ghost copies its edge cell
        copyto(ghost_l, edge_l)
        copyto(ghost_r, edge_r)
        try:
            if j == 0:  # the diffusion number depends on the grid alone
                _check_diffusion(grid, model)
            momentum(max(u_hi, -u_lo))
            # the new velocity's ghosts, for the continuity fluxes
            copyto(u_ghost_l, u_edge_l)
            copyto(u_ghost_r, u_edge_r)
            continuity()
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
