"""Limited-memory BFGS without bounds, in numpy alone.

The loop is L-BFGS-B's (Byrd, Lu, Nocedal and Zhu 1995, version 3.0 of
Morales and Nocedal 2011, as scipy ships it) in the case with no bounds,
so it takes the same iterations, makes the same evaluations and stops
with the same message; the iterates agree to rounding.  (The two-loop
recursion rounds differently from L-BFGS-B's compact form, so over
hundreds of ill-conditioned iterations the two can drift apart.)

- The direction is ``-H g`` from the two-loop recursion (Nocedal 1980)
  over the last ``MEMORY`` (10) pairs ``s = x_new - x``, ``y = g_new - g``,
  with ``H0 = (s'y / y'y) I`` from the newest pair.  With no pairs it is
  ``-g``.
- The step comes from Moré and Thuente's line search (MINPACK-2
  ``dcsrch`` and ``dcstep``) with ftol 1e-3, gtol 0.9 and xtol 0.1.  It
  tries ``1 / |g|`` first in the first iteration and 1 after that, and
  evaluates at most 20 points.
- A pair is stored only if ``s'y > eps * (-g's)``.  A line search that
  fails, or a direction that is not downhill, empties the memory and
  retries from the same point along ``-g``; if the memory was already
  empty, the run stops ``ABNORMAL``.
- After every iteration the stop tests run in L-BFGS-B's order: the
  iteration cap, the evaluation cap, ``max |g_i| <= 1e-12``, and
  ``f_old - f <= tolerance * max(|f_old|, |f|, 1)``.  A start whose
  gradient passes the third test stops before the first iteration.
  Evaluating the point evaluated last is not counted again.

The pairs live in two ring buffers of ``MEMORY`` rows, allocated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

EPS = float(np.finfo(np.float64).eps)
MEMORY = 10
GRADIENT_TOLERANCE = 1e-12
MAX_EVALUATIONS = 15000
MAX_LINE_SEARCH_EVALUATIONS = 20
STEP_MAX = 1e10

CONVERGED_GRADIENT = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
CONVERGED_REDUCTION = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
ITERATION_LIMIT = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
EVALUATION_LIMIT = "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT"
ABNORMAL = "ABNORMAL: "


@dataclass(frozen=True)
class Result:
    """Where a run stopped: the point and its value, the iterations and
    evaluations taken, and why it stopped."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    message: str
    success: bool


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iterations: int,
    tolerance: float,
    callback: Callable[[np.ndarray, float], None] | None = None,
) -> Result:
    """Minimize ``fun``, which returns the value and the gradient, from
    ``x0``.  ``callback(x, f)`` is called after every iteration."""
    x = np.array(x0, dtype=np.float64)
    n = len(x)
    last = None  # point, value and gradient of the last evaluation
    nfev = 0

    def evaluate(point: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        nonlocal last, nfev
        if last is None or not np.array_equal(point, last[0]):
            value, gradient = fun(point)
            last = point, float(value), np.asarray(gradient, dtype=np.float64)
            nfev += 1
        return last

    def stop(message: str) -> Result:
        return Result(x, f, nit, nfev, message, message.startswith("CONVERGENCE"))

    x, f, g = evaluate(x)
    nit = 0
    if _largest(g) <= GRADIENT_TOLERANCE:
        return stop(CONVERGED_GRADIENT)
    # L-BFGS-B takes factr = tolerance / eps and tests against factr * eps
    reduction_tolerance = tolerance / EPS * EPS
    s_ring, y_ring = np.empty((MEMORY, n)), np.empty((MEMORY, n))
    rho = np.empty(MEMORY)
    pairs = []  # ring rows, oldest first
    h0 = 1.0
    while True:
        # step 1 tries z = x + d; with no pairs, z is L-BFGS-B's Cauchy
        # point x - g, and d = z - x exactly as it computes it
        if pairs:
            d = _two_loop(g, s_ring, y_ring, rho, pairs, h0)
            z = x + d
        else:
            z = x - g
            d = z - x
        gd_start = float(g @ d)
        accepted = None
        if gd_start < 0:
            step = min(1.0 / math.sqrt(d @ d), STEP_MAX) if nit == 0 else 1.0

            def phi(step: float) -> tuple[float, float]:
                _, f_step, g_step = evaluate(z if step == 1.0 else x + step * d)
                return f_step, float(g_step @ d)

            accepted = line_search(phi, f, gd_start, step)
        if accepted is None:
            if not pairs:
                return stop(ABNORMAL)
            pairs.clear()
            continue
        # the search ends at the point it evaluated last
        step, gd = accepted[0], accepted[2]
        f_old, g_old = f, g
        x, f, g = last
        nit += 1
        if callback is not None:
            callback(x, f)
        if nit >= max_iterations:
            return stop(ITERATION_LIMIT)
        if nfev > MAX_EVALUATIONS:
            return stop(EVALUATION_LIMIT)
        if _largest(g) <= GRADIENT_TOLERANCE:
            return stop(CONVERGED_GRADIENT)
        if f_old - f <= reduction_tolerance * max(abs(f_old), abs(f), 1.0):
            return stop(CONVERGED_REDUCTION)
        # s'y from the directional derivatives, as L-BFGS-B computes it
        sy, curvature = (gd - gd_start) * step, -gd_start * step
        if sy <= EPS * curvature:
            continue
        slot = pairs.pop(0) if len(pairs) == MEMORY else len(pairs)
        np.multiply(d, step, out=s_ring[slot])
        y = np.subtract(g, g_old, out=y_ring[slot])
        rho[slot] = 1.0 / sy
        h0 = sy / float(y @ y)
        pairs.append(slot)


def _largest(g: np.ndarray) -> float:
    return max(float(g.max()), -float(g.min()))


def _two_loop(g, s_ring, y_ring, rho, pairs, h0) -> np.ndarray:
    """``-H g`` by the two-loop recursion over the stored pairs."""
    q = np.negative(g)
    alpha = []
    for i in reversed(pairs):
        a = rho[i] * float(s_ring[i] @ q)
        q -= a * y_ring[i]
        alpha.append(a)
    q *= h0
    for i, a in zip(pairs, reversed(alpha)):
        b = rho[i] * float(y_ring[i] @ q)
        q += (a - b) * s_ring[i]
    return q


def line_search(
    phi: Callable[[float], tuple[float, float]],
    f0: float,
    g0: float,
    step: float,
    ftol: float = 1e-3,
    gtol: float = 0.9,
    xtol: float = 0.1,
) -> tuple[float, float, float, str] | None:
    """Moré and Thuente's search (MINPACK-2 ``dcsrch``) for a step along
    a descent direction.

    ``phi(step)`` gives the value and the directional derivative at a
    step, ``f0`` and ``g0 < 0`` those at zero.  Returns the step last
    evaluated with its value, derivative and the reason it was accepted:
    ``"CONVERGENCE"`` when it meets the strong Wolfe conditions
    ``f <= f0 + ftol * step * g0`` and ``|g| <= gtol * |g0|``, or a
    ``"WARNING: ..."`` when rounding, the interval width or a step bound
    ends the search.  Steps stay in ``[0, STEP_MAX]``.  Returns None if
    ``MAX_LINE_SEARCH_EVALUATIONS`` evaluations do not end the search.
    """
    if not g0 < 0:
        raise ValueError("the search direction must be a descent direction")
    bracketed, stage = False, 1
    g_test = ftol * g0
    width = STEP_MAX
    width1 = width / 0.5
    # x: the best step so far; y: the other end of the interval
    stx, fx, gx = 0.0, f0, g0
    sty, fy, gy = 0.0, f0, g0
    lo, hi = 0.0, step + 4.0 * step
    for _ in range(MAX_LINE_SEARCH_EVALUATIONS):
        f, g = phi(step)
        f_test = f0 + step * g_test
        if stage == 1 and f <= f_test and g >= 0:
            stage = 2
        reason = ""
        if bracketed and (step <= lo or step >= hi):
            reason = "WARNING: ROUNDING ERRORS PREVENT PROGRESS"
        if bracketed and hi - lo <= xtol * hi:
            reason = "WARNING: XTOL TEST SATISFIED"
        if step == STEP_MAX and f <= f_test and g <= g_test:
            reason = "WARNING: STP = STPMAX"
        if step == 0.0 and (f > f_test or g >= g_test):
            reason = "WARNING: STP = STPMIN"
        if f <= f_test and abs(g) <= gtol * -g0:
            reason = "CONVERGENCE"
        if reason:
            return step, f, g, reason
        if stage == 1 and fx >= f > f_test:
            # while the decrease is not yet sufficient, step on the
            # function minus its sufficient-decrease line
            stx, fxm, gxm, sty, fym, gym, step, bracketed = _step(
                stx, fx - stx * g_test, gx - g_test, sty, fy - sty * g_test, gy - g_test,
                step, f - step * g_test, g - g_test, bracketed, lo, hi,
            )
            fx, fy = fxm + stx * g_test, fym + sty * g_test
            gx, gy = gxm + g_test, gym + g_test
        else:
            stx, fx, gx, sty, fy, gy, step, bracketed = _step(
                stx, fx, gx, sty, fy, gy, step, f, g, bracketed, lo, hi
            )
        if bracketed:
            # bisect if the interval did not shrink enough
            if abs(sty - stx) >= 0.66 * width1:
                step = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            lo, hi = min(stx, sty), max(stx, sty)
        else:
            lo, hi = step + 1.1 * (step - stx), step + 4.0 * (step - stx)
        step = min(max(step, 0.0), STEP_MAX)
        if bracketed and (step <= lo or step >= hi or hi - lo <= xtol * hi):
            step = stx
    return None


def _step(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: a safeguarded cubic or quadratic step, and
    the interval ``[stx, sty]`` updated by the trial ``stp``.  Returns
    ``(stx, fx, dx, sty, fy, dy, new step, bracketed)``.  Square roots are
    clamped at zero against rounding (``dcstep`` does so only in its third
    case)."""
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:
        # a higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif sgnd < 0:
        # a lower value and derivatives of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        # a lower value, derivatives of one sign, the derivative shrinking
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif bracketed:
        # a lower value, derivatives of one sign, the derivative not shrinking
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dy / s) * (dp / s)))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed
