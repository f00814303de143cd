"""Radii recovery by regularized nonlinear least squares.

The reference solver is projected gradient descent with backtracking line
search on

    J(r) = 0.5 ||F(r) - y||^2 + lambda ||L (r - prior)||^2

where F(r) = w(r) @ B is the single-scattering echo forward map of
:mod:`vasosim.acoustics` and L the interior second-difference operator.
Each problem builds the burst matrix B once; the gradient is exact, the
adjoint (dw/dr)^T B (F(r) - y) plus the penalty term, at the cost of one
forward evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .acoustics import (
    EchoTrace,
    PulseSpec,
    burst_matrix,
    reflectivity,
    reflectivity_adjoint,
    synthesize_echo,  # not called here; perfbench/spans.py wraps this name
)
from .errors import DomainError, NumericalError, SolverNotFoundError
from .hemogrid import ArteryModel, Grid

__all__ = [
    "InverseProblem",
    "SolverOptions",
    "InverseSolution",
    "objective",
    "gradient",
    "invert_radii",
    "SOLVER_NAME",
    "get_solver",
    "second_difference_matrix",
]


@dataclass(frozen=True)
class InverseProblem:
    observed: EchoTrace
    pulse: PulseSpec
    grid: Grid
    model: ArteryModel
    lam: float = 1e-4
    prior: np.ndarray | None = None
    bounds: tuple[float, float] = (1e-4, 1e-2)
    bursts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError("lambda must be nonnegative")
        r_min, r_max = self.bounds
        if not (0 < r_min < r_max):
            raise DomainError("bounds must satisfy 0 < r_min < r_max")
        prior = self.prior
        if prior is None:
            prior = np.full(self.grid.nx, self.model.r0)
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (self.grid.nx,):
            raise DomainError("prior length must equal grid.nx")
        if np.any(prior < r_min) or np.any(prior > r_max):
            raise DomainError("prior must lie within bounds")
        object.__setattr__(self, "prior", prior)
        bursts = burst_matrix(self.pulse, self.grid, self.observed.fs,
                              self.duration)
        bursts.setflags(write=False)
        object.__setattr__(self, "bursts", bursts)

    @property
    def duration(self):
        return self.observed.samples.size / self.observed.fs

    def forward(self, radii):
        """Forward map F: radii column -> echo samples, w(r) @ B."""
        return reflectivity(radii) @ self.bursts


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 500
    grad_tol: float = 1e-8   # relative to the initial gradient norm
    step_tol: float = 1e-12  # relative step size ||dr||/||r||
    fd_step: float = 1e-6    # relative step of central_gradient only

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.grad_tol <= 0 or self.step_tol <= 0 or self.fd_step <= 0:
            raise DomainError("tolerances must be positive")


# backtracking line search: step shrink factor and Armijo constant
LS_SHRINK = 0.5
LS_C1 = 1e-4
OBJ_FLOOR = 1e-20  # an objective at or below this counts as an exact fit


@dataclass(frozen=True)
class InverseSolution:
    radii: np.ndarray
    residual_norm: float
    objective_value: float
    iterations: int
    converged: bool
    gradient_norm_final: float

    def to_dict(self):
        return {
            "radii_m": [float(v) for v in self.radii],
            "residual_norm": self.residual_norm,
            "objective_value": self.objective_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm_final": self.gradient_norm_final,
        }


@lru_cache(maxsize=32)
def second_difference_matrix(n):
    """Second-difference smoothing operator with endpoint anchors.

    The two identity rows remove the null space of the interior stencil
    (linear ramps), so the penalty-dominated limit actually returns the
    prior. Shape (n, n).
    """
    L = np.zeros((n, n))
    L[0, 0] = 1.0
    L[-1, -1] = 1.0
    for i in range(n - 2):
        L[i + 1, i] = 1.0
        L[i + 1, i + 1] = -2.0
        L[i + 1, i + 2] = 1.0
    L.setflags(write=False)
    return L


def _check_radii(radii, problem):
    if radii.shape != (problem.grid.nx,):
        raise DomainError("radii column length must equal grid.nx")
    r_min, r_max = problem.bounds
    if np.any(radii < r_min - 1e-15) or np.any(radii > r_max + 1e-15):
        raise DomainError("radii outside bounds")


def objective(radii, problem: InverseProblem):
    """Data misfit plus smoothing penalty; see module docstring."""
    radii = np.asarray(radii, dtype=float)
    _check_radii(radii, problem)
    residual = problem.forward(radii) - problem.observed.samples
    data_term = 0.5 * float(residual @ residual)
    L = second_difference_matrix(problem.grid.nx)
    smooth = L @ (radii - problem.prior)
    return data_term + problem.lam * float(smooth @ smooth)


def gradient(radii, problem: InverseProblem, options: SolverOptions):
    """Exact gradient of :func:`objective` by the adjoint of the echo map.

    ``options`` is not read; it keeps the signature the solver calls.
    """
    radii = np.asarray(radii, dtype=float)
    _check_radii(radii, problem)
    residual = problem.forward(radii) - problem.observed.samples
    L = second_difference_matrix(problem.grid.nx)
    g = reflectivity_adjoint(radii, problem.bursts @ residual) \
        + 2 * problem.lam * (L.T @ (L @ (radii - problem.prior)))
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite gradient")
    return g


def central_gradient(radii, problem, options):
    """Central differences of :func:`objective` at relative step
    ``options.fd_step``; the validation oracle for :func:`gradient`."""
    radii = np.asarray(radii, dtype=float)
    g = np.empty(radii.size)
    r_min, r_max = problem.bounds
    for i in range(radii.size):
        h = options.fd_step * abs(radii[i])
        probe = radii.copy()
        probe[i] = radii[i] + h
        f_plus = objective(np.clip(probe, r_min, r_max), problem)
        probe[i] = radii[i] - h
        f_minus = objective(np.clip(probe, r_min, r_max), problem)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError(f"non-finite objective probing component {i}")
        g[i] = (f_plus - f_minus) / (2 * h)
    return g


def invert_radii(problem: InverseProblem, options: SolverOptions | None = None):
    """Projected gradient descent with backtracking line search.

    The projection clips iterates to the bound box. Accepted objective
    values are non-increasing; line-search failure is reported through
    ``converged=False`` rather than an exception.
    """
    if options is None:
        options = SolverOptions()
    r_min, r_max = problem.bounds
    x = np.clip(problem.prior.copy(), r_min, r_max)
    f = objective(x, problem)

    g = gradient(x, problem, options)
    g_norm0 = float(np.linalg.norm(g))
    g_norm = g_norm0

    def residual_norm(radii):
        return float(np.linalg.norm(problem.forward(radii)
                                    - problem.observed.samples))

    if f <= OBJ_FLOOR or g_norm0 == 0.0:
        return InverseSolution(radii=x, residual_norm=residual_norm(x),
                               objective_value=f, iterations=0, converged=True,
                               gradient_norm_final=g_norm0)

    # initial step sized so the first trial moves ~1% of the prior scale
    t = 0.01 * float(np.max(np.abs(x))) / float(np.max(np.abs(g)))
    converged = False
    it = 0
    for it in range(1, options.max_iter + 1):
        accepted = False
        t_try = t
        for _ in range(60):
            x_new = np.clip(x - t_try * g, r_min, r_max)
            step = x_new - x
            if np.all(step == 0):
                break
            f_new = objective(x_new, problem)
            # Armijo sufficient decrease on the projected step
            if f_new <= f + LS_C1 * float(g @ step):
                accepted = True
                break
            t_try *= LS_SHRINK
        if not accepted:
            break
        step_rel = float(np.linalg.norm(step)) / max(float(np.linalg.norm(x)), 1e-300)
        g_new = gradient(x_new, problem, options)
        # Barzilai-Borwein spectral step seeds the next line search
        dg = g_new - g
        sg = float(step @ dg)
        t = float(step @ step) / sg if sg > 0 else t_try / LS_SHRINK
        x, f, g = x_new, f_new, g_new
        g_norm = float(np.linalg.norm(g))
        if g_norm <= options.grad_tol * g_norm0 or f <= OBJ_FLOOR:
            converged = True
            break
        if step_rel < options.step_tol:
            converged = True
            break
    return InverseSolution(radii=x, residual_norm=residual_norm(x),
                           objective_value=f, iterations=it,
                           converged=converged, gradient_norm_final=g_norm)


SOLVER_NAME = "gauss-descent"


def get_solver(name):
    """The solver callable (problem, options) -> InverseSolution for ``name``.

    ``perfbench/spans.py`` wraps this lookup to time each solve.
    """
    if name != SOLVER_NAME:
        raise SolverNotFoundError(name)
    return invert_radii
