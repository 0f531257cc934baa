"""patseg's L-BFGS loop against scipy's L-BFGS-B, which it follows.

scipy is the oracle here only: it is imported by the tests, never by
``patseg.lbfgs``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from patseg import lbfgs
from patseg.crf import CrfModel, TrainConfig, build_registry, log_likelihood_and_gradient

from test_crf import toy_training_instances


def toy_crf():
    """The negated toy CRF objective at l2 = 0.1, and its dimension."""
    instances = toy_training_instances()
    registry = build_registry(instances)

    def fun(w):
        value, gradient = log_likelihood_and_gradient(CrfModel(registry, w, TrainConfig(l2=0.1)), instances)
        return -value, -gradient

    return fun, registry.n_weights


def quadratic(seed=0, n=40, condition=1e3):
    """A convex quadratic whose Hessian has eigenvalues from 1 to
    ``condition``, and its minimizer, at which the gradient is exactly 0."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    hessian = (basis * np.logspace(0, math.log10(condition), n)) @ basis.T
    optimum = rng.normal(size=n)
    b = hessian @ optimum

    def fun(x):
        gradient = hessian @ x - b
        return 0.5 * float(x @ hessian @ x) - float(b @ x), gradient

    return fun, optimum


def rosenbrock(x):
    return float(scipy.optimize.rosen(x)), scipy.optimize.rosen_der(x)


ROSENBROCK_START = np.array([-1.2, 1.0, -0.5, 2.0, 1.5, -1.0])


def scipy_lbfgsb(fun, x0, max_iterations, tolerance, **options):
    return scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": lbfgs.GRADIENT_TOLERANCE, "maxcor": lbfgs.MEMORY,
                 **options},
    )


def assert_same_run(fun, x0, max_iterations, tolerance, **options):
    """patseg's run equals L-BFGS-B's, given ``options`` besides the ones
    both share."""
    expected = scipy_lbfgsb(fun, x0, max_iterations, tolerance, **options)
    got = lbfgs.minimize(fun, x0, max_iterations, tolerance)
    assert (got.nit, got.nfev, got.message, got.success) == (
        expected.nit, expected.nfev, expected.message, expected.success)
    assert np.max(np.abs(got.x - expected.x)) <= 1e-10 * np.max(np.abs(expected.x))
    return got


class TestAgainstLbfgsb:
    def test_toy_crf_at_the_iteration_cap(self):
        fun, n = toy_crf()
        got = assert_same_run(fun, np.zeros(n), 5, 1e-6)
        assert got.message == lbfgs.ITERATION_LIMIT and not got.success

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-6])
    def test_toy_crf_at_the_relative_reduction_test(self, tolerance):
        fun, n = toy_crf()
        got = assert_same_run(fun, np.zeros(n), 1000, tolerance)
        assert got.message == lbfgs.CONVERGED_REDUCTION and got.success

    def test_toy_crf_started_at_its_optimum(self):
        fun, n = toy_crf()
        optimum = scipy_lbfgsb(fun, np.zeros(n), 1000, 0.0).x
        assert_same_run(fun, optimum, 1000, 1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadratic_at_the_iteration_cap(self, seed):
        fun, optimum = quadratic(seed)
        got = assert_same_run(fun, np.zeros(len(optimum)), 20, 1e-6)
        assert got.message == lbfgs.ITERATION_LIMIT

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadratic_at_the_relative_reduction_test(self, seed):
        fun, optimum = quadratic(seed)
        got = assert_same_run(fun, np.zeros(len(optimum)), 1000, 1e-6)
        # long enough to reuse every row of the ring buffers
        assert got.message == lbfgs.CONVERGED_REDUCTION and got.nit > 2 * lbfgs.MEMORY

    def test_quadratic_started_at_its_optimum_stops_before_iterating(self):
        fun, optimum = quadratic()
        got = assert_same_run(fun, optimum, 1000, 1e-6)
        assert (got.nit, got.nfev, got.message) == (0, 1, lbfgs.CONVERGED_GRADIENT)
        assert np.array_equal(got.x, optimum)

    def test_a_gradient_that_disagrees_with_the_value_stops_abnormally(self):
        def uphill(x):
            return float(x @ x), -2.0 * x

        got = lbfgs.minimize(uphill, np.ones(3), 20, 1e-6)
        assert got.message == lbfgs.ABNORMAL and not got.success and got.nit == 0
        assert np.array_equal(got.x, np.ones(3))

    def test_failed_line_searches_empty_the_memory_before_stopping(self, monkeypatch):
        """With one evaluation per search, a search that fails with pairs
        stored retries along -g; only one that fails with none stops."""
        monkeypatch.setattr(lbfgs, "MAX_LINE_SEARCH_EVALUATIONS", 1)
        got = assert_same_run(rosenbrock, ROSENBROCK_START, 1000, 1e-6, maxls=1)
        assert got.message == lbfgs.ABNORMAL and got.nit > 0

    @pytest.mark.parametrize("cap", [5, 10, 30])
    def test_rosenbrock_at_the_evaluation_cap(self, monkeypatch, cap):
        monkeypatch.setattr(lbfgs, "MAX_EVALUATIONS", cap)
        got = assert_same_run(rosenbrock, ROSENBROCK_START, 1000, 1e-12, maxfun=cap)
        assert got.message == lbfgs.EVALUATION_LIMIT and got.nfev > cap

    def test_a_step_onto_the_minimizer_stops_at_the_gradient_test(self):
        # |g(0)| = 1, so the first trial step, 1 / |g|, lands on the minimizer
        c = np.full(4, 0.5)
        got = assert_same_run(lambda x: (0.5 * float((x - c) @ (x - c)), x - c), np.zeros(4), 100, 1e-6)
        assert (got.nit, got.message) == (1, lbfgs.CONVERGED_GRADIENT)
        assert np.array_equal(got.x, c)

    def test_a_pair_without_curvature_is_not_stored(self, monkeypatch):
        """Along a linear function the gradient never changes, so s'y = 0
        and no pair is stored: every direction is -g."""
        def no_pairs(*args):
            raise AssertionError("a pair was stored")

        monkeypatch.setattr(lbfgs, "_two_loop", no_pairs)
        got = assert_same_run(lambda x: (-float(x.sum()), -np.ones_like(x)), np.zeros(2), 3, 1e-6)
        assert got.message == lbfgs.ITERATION_LIMIT


def test_the_callback_sees_every_iterate():
    fun, optimum = quadratic()
    seen = []
    got = lbfgs.minimize(fun, np.zeros(len(optimum)), 15, 1e-6, callback=lambda x, f: seen.append((x.copy(), f)))
    assert len(seen) == got.nit == 15
    assert np.array_equal(seen[-1][0], got.x) and seen[-1][1] == got.fun == fun(got.x)[0]


# Moré and Thuente (1994), section 5: test functions 1 and 2, searched
# with the paper's parameters (and an xtol that never ends a search);
# function 1 also with L-BFGS-B's.
def more_thuente_1(step, beta=2.0):
    return -step / (step**2 + beta), (step**2 - beta) / (step**2 + beta) ** 2


def more_thuente_2(step, beta=0.004):
    return (step + beta) ** 5 - 2 * (step + beta) ** 4, 5 * (step + beta) ** 4 - 8 * (step + beta) ** 3


@pytest.mark.parametrize("phi, ftol, gtol, xtol", [
    (more_thuente_1, 1e-3, 0.1, 1e-10),
    (more_thuente_2, 0.1, 0.1, 1e-10),
    (more_thuente_1, 1e-3, 0.9, 0.1),
])
@pytest.mark.parametrize("first_step", [1e-3, 1e-1, 1e1, 1e3])
def test_line_search_meets_the_strong_wolfe_conditions(phi, ftol, gtol, xtol, first_step):
    f0, g0 = phi(0.0)
    step, f, g, reason = lbfgs.line_search(phi, f0, g0, first_step, ftol=ftol, gtol=gtol, xtol=xtol)
    assert reason == "CONVERGENCE"
    assert (f, g) == phi(step)
    assert f <= f0 + ftol * step * g0
    assert abs(g) <= gtol * abs(g0)


def test_line_search_gives_up_after_its_evaluations():
    def uphill(step):
        return step, -1.0

    calls = []
    assert lbfgs.line_search(lambda step: calls.append(step) or uphill(step), 0.0, -1.0, 1.0) is None
    assert len(calls) == lbfgs.MAX_LINE_SEARCH_EVALUATIONS


def test_importing_the_optimizer_loads_no_scipy():
    code = "import json, sys\nimport patseg.lbfgs\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
