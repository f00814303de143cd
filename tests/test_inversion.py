import dataclasses

import numpy as np
import pytest

from conftest import make_grid, stenotic_column
from vasosim import acoustics as ac
from vasosim import inversion as inv
from vasosim.errors import DomainError, NumericalError, SolverNotFoundError

FS = 8e5


def make_problem(model, pulse, truth, lam=1e-4, noise=0.0, seed=0, **kwargs):
    nx = truth.size
    grid = make_grid(nx)
    duration = 2.4 * nx * grid.dx / pulse.c
    obs = ac.synthesize_echo(truth, pulse, grid, model, fs=FS,
                             duration=duration)
    samples = obs.samples
    if noise > 0:
        rng = np.random.default_rng(seed)
        rms = np.sqrt(np.mean(samples**2))
        samples = samples + rng.normal(0, noise * rms, samples.size)
    observed = ac.EchoTrace(samples=samples, fs=FS)
    return inv.InverseProblem(observed=observed, pulse=pulse, grid=grid,
                              model=model, lam=lam, **kwargs)


class TestObjective:
    def test_zero_at_truth_noiseless(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=0.0)
        assert inv.objective(truth, problem) < 1e-20

    def test_prior_value_is_data_misfit(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=0.0)
        echo = ac.synthesize_echo(problem.prior, pulse, problem.grid, model,
                                  fs=FS, duration=problem.duration)
        residual = echo.samples - problem.observed.samples
        expected = 0.5 * float(residual @ residual)
        assert inv.objective(problem.prior, problem) == pytest.approx(
            expected, rel=1e-12)

    def test_monotone_in_lambda(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        radii = stenotic_column(model, 32, 10, 3.0, 0.1)
        values = [inv.objective(radii, make_problem(model, pulse, truth,
                                                    lam=lam))
                  for lam in (0.0, 1.0, 10.0)]
        assert values[0] < values[1] < values[2]

    def test_bounds_enforced(self, model, pulse):
        truth = stenotic_column(model, 16, 8, 2.0, 0.1)
        problem = make_problem(model, pulse, truth)
        with pytest.raises(DomainError):
            inv.objective(np.full(16, 1e-6), problem)

    def test_nan_radii_rejected(self, model, pulse):
        truth = stenotic_column(model, 16, 8, 2.0, 0.1)
        problem = make_problem(model, pulse, truth)
        radii = truth.copy()
        radii[5] = np.nan
        with pytest.raises(DomainError, match="bounds"):
            inv.objective(radii, problem)
        with pytest.raises(DomainError, match="bounds"):
            inv.gradient(radii, problem, inv.SolverOptions())


class TestForward:
    def test_matches_synthesize_echo_bitwise(self, model, pulse):
        # synthesis and inversion share one forward map: with no penalty the
        # objective is synthesize_echo's misfit to the last bit
        rng = np.random.default_rng(5)
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=0.0)
        columns = [truth, stenotic_column(model, 64, 20, 3.0, 0.5)] + [
            model.r0 * (1 + 0.2 * rng.uniform(-1, 1, 64)) for _ in range(5)]
        for radii in columns:
            echo = ac.synthesize_echo(radii, pulse, problem.grid, model,
                                      fs=FS, duration=problem.duration)
            residual = echo.samples - problem.observed.samples
            assert inv.objective(radii, problem) \
                == 0.5 * float(residual @ residual)


class TestGradient:
    def test_stationary_at_noiseless_minimum(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=0.0)
        g = inv.gradient(truth, problem, inv.SolverOptions())
        # scale: gradient of the data term at the prior
        g_prior = inv.gradient(problem.prior, problem, inv.SolverOptions())
        # the observed echo is forward(truth) bit for bit, so the residual
        # and with it the exact gradient vanish here
        assert np.linalg.norm(g) < 1e-5 * np.linalg.norm(g_prior)

    def test_adjoint_vs_central_random_problems(self, model, pulse):
        rng = np.random.default_rng(0)
        options = inv.SolverOptions(fd_step=3e-8)
        for _ in range(20):
            truth = model.r0 * (1 + 0.15 * rng.uniform(-1, 1, 16))
            problem = make_problem(model, pulse, truth)
            x = model.r0 * (1 + 0.1 * rng.uniform(-1, 1, 16))
            gf = inv.gradient(x, problem, options)
            gc = inv.central_gradient(x, problem, options)
            denom = np.maximum(np.abs(gc), 1e-6 * np.max(np.abs(gc)))
            assert np.max(np.abs(gf - gc) / denom) < 1e-4

    def test_adjoint_vs_central_noisy_penalized(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=1e2, noise=0.01,
                               seed=4)
        rng = np.random.default_rng(1)
        options = inv.SolverOptions(fd_step=3e-8)
        for _ in range(5):
            x = model.r0 * (1 + 0.1 * rng.uniform(-1, 1, 64))
            g = inv.gradient(x, problem, options)
            gc = inv.central_gradient(x, problem, options)
            denom = np.maximum(np.abs(gc), 1e-6 * np.max(np.abs(gc)))
            assert np.max(np.abs(g - gc) / denom) < 1e-4

    def test_pure_penalty_closed_form(self, model, pulse):
        # observed echo generated at the evaluation point, so the data term
        # is stationary there and only the penalty gradient remains
        lam = 1e8
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=lam)
        gf = inv.gradient(truth, problem, inv.SolverOptions())
        D = inv.difference_matrix(64)
        expected = 2 * lam / model.r0**2 * (D.T @ D @ (truth - problem.prior))
        rel = np.linalg.norm(gf - expected) / np.linalg.norm(expected)
        assert rel < 1e-6


class TestInvertRadii:
    def test_fixed_point_at_truth(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=0.0)
        _, _, residual, _, trials, converged = inv._levenberg_marquardt(
            truth.copy(), 0.0, problem, inv.SolverOptions())
        assert converged
        assert trials == 0
        assert np.linalg.norm(residual) < 1e-10

    def test_single_stenosis_recovery(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=1e-4)
        sol = inv.invert_radii(problem)
        err = np.linalg.norm(sol.radii - truth) / np.linalg.norm(truth)
        assert err < 0.05

    def test_noise_robustness(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=1e-4, noise=0.01,
                               seed=123)
        sol = inv.invert_radii(problem)
        err = np.linalg.norm(sol.radii - truth) / np.linalg.norm(truth)
        assert err < 0.10

    def test_reported_values_match_public_functions(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=1e-4, noise=0.01,
                               seed=123)
        opts = inv.SolverOptions(max_iter=60)
        sol = inv.invert_radii(problem, opts)
        assert sol.iterations > 0
        assert sol.objective_value == inv.objective(sol.radii, problem)
        assert sol.gradient_norm_final == np.linalg.norm(
            inv.gradient(sol.radii, problem, opts))

    def test_non_finite_trial_raises(self, model, pulse, monkeypatch):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        problem = make_problem(model, pulse, truth)
        evaluate = inv._evaluate
        calls = []

        def nan_after_start(radii, problem, lam):
            calls.append(None)
            f, pieces = evaluate(radii, problem, lam)
            return (f if len(calls) < 4 else np.nan), pieces

        monkeypatch.setattr(inv, "_evaluate", nan_after_start)
        with pytest.raises(NumericalError, match="Levenberg-Marquardt"):
            inv.invert_radii(problem, inv.SolverOptions(max_iter=20))
        # the start check, the solve's start point and its first trial take
        # one evaluation each, so the second trial is the one that raised
        assert len(calls) == 4

    def test_penalty_dominated_limit(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=1e10)
        sol = inv.invert_radii(problem, inv.SolverOptions(max_iter=200))
        dev = np.linalg.norm(sol.radii - problem.prior) \
            / np.linalg.norm(problem.prior)
        assert dev < 1e-3

    def test_monotone_descent_and_feasibility(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.3)
        problem = make_problem(model, pulse, truth, lam=1e-4)
        sol = inv.invert_radii(problem, inv.SolverOptions(max_iter=40))
        r_min, r_max = problem.bounds
        assert np.all(sol.radii >= r_min) and np.all(sol.radii <= r_max)
        # re-run step by step with shrinking iteration caps: each prefix
        # objective must be non-increasing
        prev = None
        for cap in (1, 5, 10, 20, 40):
            s = inv.invert_radii(problem, inv.SolverOptions(max_iter=cap))
            if prev is not None:
                assert s.objective_value <= prev + 1e-18
            prev = s.objective_value

    def test_determinism(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        problem = make_problem(model, pulse, truth)
        a = inv.invert_radii(problem, inv.SolverOptions(max_iter=30))
        b = inv.invert_radii(problem, inv.SolverOptions(max_iter=30))
        assert np.array_equal(a.radii, b.radii)


class TestDiscrepancyPrinciple:
    @pytest.mark.parametrize("nx", [16, 32, 64])
    def test_noise_sigma_recovers_known_noise(self, model, pulse, nx):
        # signals in B's row space plus noise of known sigma; one echo of
        # the default length has only n_samples - (nx - 1) = nx/4 + 1
        # samples of pure noise, so the estimate is pooled over 20 echoes
        grid = make_grid(nx)
        duration = 2.4 * nx * grid.dx / pulse.c
        bursts = ac.burst_matrix(pulse, grid, FS, duration)
        sigma = 0.01
        estimates = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            samples = rng.normal(0, 0.1, nx - 1) @ bursts \
                + rng.normal(0, sigma, bursts.shape[1])
            problem = inv.InverseProblem(
                observed=ac.EchoTrace(samples=samples, fs=FS), pulse=pulse,
                grid=grid, model=model)
            estimates.append(inv.noise_sigma(problem))
        pooled = np.sqrt(np.mean(np.square(estimates)))
        assert abs(pooled - sigma) < 0.3 * sigma

    def test_noise_sigma_ignores_signal(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.3)
        problem = make_problem(model, pulse, truth, lam=None)
        scale = np.max(np.abs(problem.observed.samples))
        assert inv.noise_sigma(problem) < 1e-12 * scale

    def test_short_echo_rejected(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        grid = make_grid(32)
        duration = 2 * 32 * grid.dx / pulse.c  # 21 samples, 31 interfaces
        obs = ac.synthesize_echo(truth, pulse, grid, model, fs=FS / 1.6,
                                 duration=duration)
        problem = inv.InverseProblem(observed=obs, pulse=pulse, grid=grid,
                                     model=model)
        with pytest.raises(DomainError, match="lambda"):
            inv.invert_radii(problem)

    def test_noise_free_lambda_on_floor(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        sol = inv.invert_radii(make_problem(model, pulse, truth, lam=None))
        assert sol.converged
        assert sol.lam == pytest.approx(inv.LAMBDA_MIN)
        err = np.linalg.norm(sol.radii - truth) / np.linalg.norm(truth)
        assert err < 0.05  # criterion 8's noise-free bound

    def test_noisy_residual_meets_target(self, model, pulse):
        truth = stenotic_column(model, 64, 32, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=None, noise=0.01,
                               seed=123)
        sol = inv.invert_radii(problem)
        assert sol.converged
        assert inv.LAMBDA_MIN < sol.lam < inv.LAMBDA_MAX
        target = problem.observed.samples.size \
            * (inv.DISCREPANCY_TAU * sol.noise_sigma)**2
        assert abs(sol.residual_norm**2 - target) \
            <= inv.DISCREPANCY_RTOL * target
        assert sol.objective_value == inv.objective(sol.radii, problem,
                                                    lam=sol.lam)
        assert sol.gradient_norm_final == np.linalg.norm(inv.gradient(
            sol.radii, dataclasses.replace(problem, lam=sol.lam),
            inv.SolverOptions()))
        err = np.linalg.norm(sol.radii - truth) / np.linalg.norm(truth)
        assert err < 0.10  # criterion 8's noisy bound
        record = sol.to_dict()
        assert (record["lambda"], record["noise_sigma"]) \
            == (sol.lam, sol.noise_sigma)

    def test_fixed_lambda_reports_no_sigma(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        sol = inv.invert_radii(make_problem(model, pulse, truth, lam=0.5))
        assert (sol.lam, sol.noise_sigma) == (0.5, None)

    def test_objective_needs_a_lambda(self, model, pulse):
        truth = stenotic_column(model, 32, 16, 2.0, 0.2)
        problem = make_problem(model, pulse, truth, lam=None)
        with pytest.raises(DomainError, match="lambda"):
            inv.objective(truth, problem)
        # the penalty vanishes at the prior
        assert inv.objective(problem.prior, problem, lam=1.0) \
            == inv.objective(problem.prior, problem, lam=0.0) > 0


class TestRegistry:
    def test_reference_registered(self):
        assert inv.SOLVER_NAME == "levenberg-marquardt"
        assert inv.get_solver("levenberg-marquardt") is inv.invert_radii

    def test_unknown_name(self):
        with pytest.raises(SolverNotFoundError):
            inv.get_solver("no-such-solver")


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs", [
        dict(max_iter=0),
        dict(grad_tol=0.0),
    ])
    def test_invalid_options(self, kwargs):
        with pytest.raises(DomainError):
            inv.SolverOptions(**kwargs)

    def test_invalid_problem_params(self, model, pulse):
        truth = stenotic_column(model, 16, 8, 2.0, 0.2)
        with pytest.raises(DomainError):
            make_problem(model, pulse, truth, lam=-1.0)
        with pytest.raises(DomainError):
            make_problem(model, pulse, truth, bounds=(1e-2, 1e-4))
        with pytest.raises(DomainError, match="prior must lie within bounds"):
            make_problem(model, pulse, truth, bounds=(3e-3, 1e-2))
        with pytest.raises(TypeError):
            make_problem(model, pulse, truth, prior=truth)
