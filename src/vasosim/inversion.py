"""Radii recovery by regularized nonlinear least squares.

The solver minimizes

    J(r) = 0.5 ||F(r) - y||^2 + lambda ||D (r - prior) / r0||^2

where F(r) = w(r) @ B is the single-scattering echo forward map of
:mod:`vasosim.acoustics`, D the first differences of the column between
two endpoint-anchor rows (:func:`difference_matrix`) and r0 the model's
reference radius, so the penalty is dimensionless. Gamma depends only on
area ratios, so the anchors alone fix the absolute radius.

:func:`invert_radii` runs Levenberg-Marquardt on the exact Jacobian
B^T dw/dr, with every trial point clipped to the bound box. A problem
whose ``lam`` is None takes lambda from Morozov's discrepancy principle,
||F(r_lambda) - y||^2 = n (tau sigma)^2 over the n echo samples with
tau = :data:`DISCREPANCY_TAU`: a secant on log lambda from lambda = 1,
each solve warm-started from the previous one's radii. sigma comes from
the echo itself (:func:`noise_sigma`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .acoustics import (
    EchoTrace,
    PulseSpec,
    _interfaces,
    _jacobian,
    burst_matrix,
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
    "noise_sigma",
    "invert_radii",
    "SOLVER_NAME",
    "get_solver",
    "difference_matrix",
]


@dataclass(frozen=True)
class InverseProblem:
    """One echo to invert. ``lam`` None picks lambda by the discrepancy
    principle; a number fixes it."""

    observed: EchoTrace
    pulse: PulseSpec
    grid: Grid
    model: ArteryModel
    lam: float | None = None
    bounds: tuple[float, float] = (1e-4, 1e-2)
    # the uniform r0 column: the penalty's reference and the solve's start
    prior: np.ndarray = field(init=False, repr=False, compare=False)
    bursts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lam is not None and not self.lam >= 0:
            raise DomainError("lambda must be nonnegative")
        r_min, r_max = self.bounds
        if not (0 < r_min < r_max):
            raise DomainError("bounds must satisfy 0 < r_min < r_max")
        if not r_min <= self.model.r0 <= r_max:
            raise DomainError("prior must lie within bounds")
        object.__setattr__(self, "prior", np.full(self.grid.nx, self.model.r0))
        object.__setattr__(self, "bursts", burst_matrix(
            self.pulse, self.grid, self.observed.fs, self.duration))

    @property
    def duration(self):
        return self.observed.samples.size / self.observed.fs


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 500      # Levenberg-Marquardt trials per lambda
    # converged once g^T (H + mu diag H)^-1 g, the gradient's squared norm
    # in the damped Gauss-Newton metric, is at most grad_tol * objective
    grad_tol: float = 1e-8
    fd_step: float = 1e-6    # relative step of central_gradient only

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if not (self.grad_tol > 0 and self.fd_step > 0):
            raise DomainError("tolerances must be positive")


# Levenberg-Marquardt damping starts at, and never drops below, MU_MIN,
# so steps stay close to Gauss-Newton's while its model holds
MU_MIN = 1e-9
# The discrepancy principle's lambda search: its range, its target
# ||F(r) - y||^2 = (tau sigma)^2 n, how close the misfit must come to it,
# and at most how many solves. tau > 1 as in Morozov's principle: sigma
# rests on only n - (nx - 1) noise samples (17 at the default grid) and
# can come out low, and a target below the true noise floor drives lambda
# into directions the data do not determine, where the solves crawl.
LAMBDA_MIN, LAMBDA_MAX = 1e-6, 1e6
DISCREPANCY_TAU = 1.2
DISCREPANCY_RTOL = 0.1
MAX_LAMBDA_SOLVES = 30


@dataclass(frozen=True)
class InverseSolution:
    radii: np.ndarray
    residual_norm: float
    objective_value: float
    iterations: int
    converged: bool
    gradient_norm_final: float
    lam: float
    noise_sigma: float | None  # None when lambda was given

    def to_dict(self):
        return {
            "radii_m": [float(v) for v in self.radii],
            "residual_norm": self.residual_norm,
            "objective_value": self.objective_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm_final": self.gradient_norm_final,
            "lambda": self.lam,
            "noise_sigma": self.noise_sigma,
        }


@lru_cache(maxsize=32)
def difference_matrix(n):
    """Smoothing operator D of shape (n + 1, n): the n - 1 first
    differences r_{i+1} - r_i between two endpoint-anchor rows.

    The anchors remove the null space of the differences (a constant
    shift), so the penalty-dominated limit returns the prior.
    """
    D = np.zeros((n + 1, n))
    D[0, 0] = 1.0
    D[-1, -1] = 1.0
    i = np.arange(n - 1)
    D[i + 1, i] = -1.0
    D[i + 1, i + 1] = 1.0
    D.setflags(write=False)
    return D


def _check_radii(radii, problem):
    if radii.shape != (problem.grid.nx,):
        raise DomainError("radii column length must equal grid.nx")
    r_min, r_max = problem.bounds
    lo, hi = radii.min(), radii.max()
    # written so that NaN fails it
    if not (r_min - 1e-15 <= lo and hi <= r_max + 1e-15):
        raise DomainError("radii outside bounds")
    if not np.pi * lo**2 > 0:
        raise DomainError("areas must be positive")


def _lam(problem, lam=None):
    """``lam``, else the problem's; a problem that leaves lambda to the
    discrepancy principle has none to give."""
    lam = problem.lam if lam is None else lam
    if lam is None:
        raise DomainError("lambda is unset: the problem leaves it to the "
                          "discrepancy principle")
    return lam


def _evaluate(radii, problem, lam):
    """Objective at checked radii, and the pieces :func:`_linearize`
    reuses: Gamma, loss and the residual F(r) - y."""
    gammas, loss = _interfaces(radii)
    residual = (gammas * loss) @ problem.bursts - problem.observed.samples
    smooth = difference_matrix(problem.grid.nx) @ (radii - problem.prior) \
        / problem.model.r0
    f = 0.5 * float(residual @ residual) + lam * float(smooth @ smooth)
    return f, (gammas, loss, residual)


def _penalty_hessian(problem, lam):
    """P = (2 lambda / r0^2) D^T D, the Hessian of the smoothing penalty."""
    D = difference_matrix(problem.grid.nx)
    return (2 * lam / problem.model.r0**2) * (D.T @ D)


def _linearize(radii, problem, hess_penalty, pieces):
    """The echo map's Jacobian J = B^T dw/dr at ``radii`` and the exact
    gradient J^T (F(r) - y) + P (r - prior) of :func:`objective`, from the
    ``pieces`` of its evaluation and the penalty Hessian P."""
    gammas, loss, residual = pieces
    jac = problem.bursts.T @ _jacobian(radii, gammas, loss)
    g = jac.T @ residual + hess_penalty @ (radii - problem.prior)
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite gradient")
    return jac, g


def objective(radii, problem: InverseProblem, lam=None):
    """Data misfit plus smoothing penalty; see module docstring. ``lam``
    defaults to ``problem.lam``."""
    radii = np.asarray(radii, dtype=float)
    _check_radii(radii, problem)
    lam = _lam(problem, lam)
    return _evaluate(radii, problem, lam)[0]


def gradient(radii, problem: InverseProblem, options: SolverOptions):
    """Exact gradient of :func:`objective` from the echo map's Jacobian,
    as the Levenberg-Marquardt solve assembles it (:func:`_linearize`).

    ``options`` is not read; acceptance criterion 7 calls this with the
    options it passes to :func:`central_gradient`.
    """
    radii = np.asarray(radii, dtype=float)
    _check_radii(radii, problem)
    lam = _lam(problem)
    return _linearize(radii, problem, _penalty_hessian(problem, lam),
                      _evaluate(radii, problem, lam)[1])[1]


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


def noise_sigma(problem: InverseProblem):
    """Noise level of the observed echo, estimated from the echo itself.

    B has nx - 1 rows and more columns than that, so the part of y outside
    B's row space is pure noise:
    sigma^2 = ||y - B^T (B B^T)^-1 B y||^2 / (n_samples - (nx - 1)).
    """
    B, y = problem.bursts, problem.observed.samples
    dof = B.shape[1] - B.shape[0]
    if dof < 1:
        raise DomainError(
            f"an echo of {B.shape[1]} samples cannot show its noise level "
            f"behind {B.shape[0]} interfaces; set [solver] lambda")
    outside = y - np.linalg.solve(B @ B.T, B @ y) @ B
    return math.sqrt(float(outside @ outside) / dof)


def _levenberg_marquardt(x, lam, problem, options):
    """Minimize :func:`objective` at fixed ``lam`` from ``x``.

    Each trial solves (H + mu diag(H)) dr = -g, where H = J^T J + P is the
    Gauss-Newton Hessian with P the penalty's, and clips x + dr to the
    bounds. Radii on a bound that the gradient pushes outward stay there,
    and H and g are restricted to the others. A trial that does not lower
    the objective multiplies mu by 10. An accepted one divides mu by 10
    when the objective fell by more than 3/4 of the Gauss-Newton model's
    prediction, and multiplies it by 10 when by less than 1/4. The solve
    has converged once -g.dr, the gradient's squared norm in the damped
    Gauss-Newton metric, is at most ``options.grad_tol`` times the
    objective, or once the gradient vanishes. Returns x, its objective,
    residual F(x) - y and full gradient, the trial count and the
    converged flag.
    """
    r_min, r_max = problem.bounds
    hess_penalty = _penalty_hessian(problem, lam)
    f, pieces = _evaluate(x, problem, lam)
    mu = MU_MIN
    trials = 0
    while True:
        jac, grad = _linearize(x, problem, hess_penalty, pieces)
        free = ((x > r_min) | (grad < 0)) & ((x < r_max) | (grad > 0))
        g = grad[free]
        if not g.any():
            return x, f, pieces[2], grad, trials, True
        hess = (jac.T @ jac + hess_penalty)[np.ix_(free, free)]
        scale = np.diag(hess)
        while True:
            if trials == options.max_iter:
                return x, f, pieces[2], grad, trials, False
            trials += 1
            damped = hess.copy()
            damped.flat[::g.size + 1] += mu * scale
            step = np.linalg.solve(damped, -g)
            if -float(g @ step) <= options.grad_tol * f:
                return x, f, pieces[2], grad, trials, True
            x_new = x.copy()
            x_new[free] += step
            # the clipped point lies in the validated bounds: no check
            np.clip(x_new, r_min, r_max, out=x_new)
            f_new, pieces_new = _evaluate(x_new, problem, lam)
            if not np.isfinite(f_new):
                raise NumericalError("non-finite objective in a "
                                     "Levenberg-Marquardt trial")
            if f_new < f:
                break
            mu *= 10.0
        step = (x_new - x)[free]
        predicted = -float(g @ step + 0.5 * step @ hess @ step)
        gain = (f - f_new) / predicted if predicted > 0 else 0.0
        if gain > 0.75:
            mu = max(mu / 10.0, MU_MIN)
        elif gain < 0.25:
            mu *= 10.0
        x, f, pieces = x_new, f_new, pieces_new


def invert_radii(problem: InverseProblem, options: SolverOptions | None = None):
    """Bound-clipped Levenberg-Marquardt from the prior, at the problem's
    lambda or at the discrepancy principle's (see module docstring).

    ``iterations`` counts the Levenberg-Marquardt trials of every solve.
    ``converged`` means the last solve converged and, under the
    discrepancy principle, that the residual met its target or lambda
    stopped at an end of [LAMBDA_MIN, LAMBDA_MAX]. Non-convergence is
    reported, not raised; a non-finite value raises NumericalError.
    """
    if options is None:
        options = SolverOptions()
    x = problem.prior.copy()
    # the penalty vanishes at the prior, whatever lambda will be
    if not np.isfinite(objective(x, problem, lam=0.0)):
        raise NumericalError("non-finite objective at the start point")

    if problem.lam is not None:
        lam, sigma = problem.lam, None
        x, f, residual, g, iterations, converged = _levenberg_marquardt(
            x, lam, problem, options)
    else:
        sigma = noise_sigma(problem)
        target = problem.observed.samples.size * (DISCREPANCY_TAU * sigma)**2
        iterations = 0
        log_lam, prev = 0.0, None  # lambda = 1 first
        for _ in range(MAX_LAMBDA_SOLVES):
            lam = math.exp(log_lam)
            x, f, residual, g, trials, converged = _levenberg_marquardt(
                x, lam, problem, options)
            iterations += trials
            misfit = float(residual @ residual)
            if not converged or abs(misfit - target) <= \
                    DISCREPANCY_RTOL * target:
                break
            phi = math.log(misfit / target) if misfit > 0 and target > 0 \
                else math.copysign(math.inf, misfit - target)
            # secant on phi against log lambda, at slope 1 until two solves
            # show a positive one; an infinite phi moves one decade
            slope = 1.0
            if prev is not None:
                secant = (phi - prev[1]) / (log_lam - prev[0])
                if 0 < secant < math.inf:
                    slope = secant
            step = -phi / slope if math.isfinite(phi) \
                else -math.copysign(math.log(10.0), phi)
            new = min(max(log_lam + step, math.log(LAMBDA_MIN)),
                      math.log(LAMBDA_MAX))
            if new == log_lam:  # at an end of the range and pushing past it
                break
            prev, log_lam = (log_lam, phi), new
        else:
            converged = False
    return InverseSolution(
        radii=x, residual_norm=float(np.linalg.norm(residual)),
        objective_value=f, iterations=iterations, converged=converged,
        gradient_norm_final=float(np.linalg.norm(g)), lam=lam,
        noise_sigma=sigma)


SOLVER_NAME = "levenberg-marquardt"


def get_solver(name):
    """The solver callable (problem, options) -> InverseSolution for ``name``.

    ``perfbench/spans.py`` wraps this lookup to time each solve.
    """
    if name != SOLVER_NAME:
        raise SolverNotFoundError(name)
    return invert_radii
