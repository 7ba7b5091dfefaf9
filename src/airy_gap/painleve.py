"""The one-point hard gap F(x; 0) from the Hastings-McLeod solution of Painleve II.

F(x; 0) = exp(-integral_x^inf (t - x) q(t)^2 dt), where q solves
q'' = t q + 2 q^3 with q(t) ~ Ai(t) as t -> +inf (Tracy-Widom 1994).  q is
computed as a boundary-value problem on [LEFT, RIGHT] by Chebyshev
collocation and Newton's method.  Its linearization -d^2/dt^2 + t + 6 q^2 is
positive on the whole line, so errors in the boundary data decay into the
interior; the initial-value route from Ai at the right end is unstable
(Bornemann 2010).  Nothing is subtracted from 1, so deep gaps lose no
accuracy to the spectral gap of I - K the Nystrom route suffers from.

One solve per Chebyshev order serves every x; it runs on the first call and
is cached for the process as one read-only record (_order): the Chebyshev
points t_k, q there, the barycentric columns (w q, w), the tail integrals of
q^2 and (t - t_k) q^2 from each t_k to RIGHT, the GAP_NODES-point rule on
(0, 1), and a table with one row per gap between neighbouring points.  A
row holds the Chebyshev coefficients of the integral from x to the gap's
right end, fitted once from that rule (gap_table), so a value is one
bisection and one Clenshaw sum in Python floats: O(1), about 2 us per value
and order on a 2-CPU x86-64 VM.  Interpolation rounds on the scale
max|q| = 7.7, so toward RIGHT the relative error grows as about
eps max|q|/q(x): 5e-14 at x = 3.94, 1e-12 at 5, 2e-11 at 7, while the
absolute error stays below 1e-20.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from . import specfun
from .specfun import DomainError, NumericalError

#: collocation interval: 20 below the Airy domain edge, so the left boundary
#: data sit far from every x served; the tail beyond RIGHT adds under 1e-13
LEFT = -120.0
RIGHT = 8.0
#: Chebyshev orders log_det runs, the second ceil(1.5 n) of the first.  250
#: resolves q to ~1e-11 and 375 to rounding, so their gap bounds the error:
#: below 3e-11 on [-100, 8), at most 4e-16 relative.  Rounding in the
#: second-derivative matrix grows like n^4; Newton stalls near n = 600
RUNGS = (250, 375)
#: Newton stops after a step below this; convergence is quadratic, so the
#: iterate is then at the rounding level (~1e-14)
NEWTON_TOL = 1e-11
NEWTON_MAX_STEPS = 20
#: Gauss-Legendre points per gap between neighbouring Chebyshev points in the
#: tail integrals; 12 match 24 to 4.4e-16 relative on [-100, -2]
GAP_NODES = 12
#: target points per interpolation in tail_integrals and gap_table: one matrix
#: for all (n - 1) GAP_NODES points would take 13.5 MB at n = 375, blocks of
#: 128 take 0.4 MB and run faster
INTERPOLATION_BLOCK = 128
#: Chebyshev terms per gap in gap_table: at either order of RUNGS every
#: term from the tenth on is below 2e-14 where the first reaches 30, the
#: rounding level of the samples
GAP_TERMS = 20
#: first-kind Chebyshev points per gap of the local interpolant gap_table
#: samples: degree 23 on a gap at most 0.81 long (0.54 at n = 375)
LOCAL_POINTS = 24


def _left_value(t: float) -> float:
    """q(t) for t -> -inf: sqrt(-t/2) (1 + 1/(8t^3) - 73/(128t^6) + 10657/(1024t^9))."""
    return math.sqrt(-t / 2.0) * (1.0 + 1.0 / (8.0 * t ** 3) - 73.0 / (128.0 * t ** 6)
                                  + 10657.0 / (1024.0 * t ** 9))


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Chebyshev-Lobatto points on [-1, 1], ascending, and their
    differentiation matrix (Trefethen, Spectral Methods in MATLAB, cheb),
    built in place: two n x n arrays live, no identity or diagonal matrix."""
    k = np.arange(n)
    x = -np.cos(np.pi * k / (n - 1))
    c = np.where((k == 0) | (k == n - 1), 2.0, 1.0) * (-1.0) ** k
    difference = x[:, None] - x[None, :]
    difference.reshape(-1)[::n + 1] = 1.0  # a strided view of the diagonal
    D = np.outer(c, 1.0 / c)
    D /= difference
    del difference
    D.reshape(-1)[::n + 1] -= D.sum(axis=1)
    return x, D


def hastings_mcleod(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points t on [LEFT, RIGHT] and the Hastings-McLeod q(t) there.

    Dirichlet data q(RIGHT) = Ai(RIGHT) and q(LEFT) from the four-term
    expansion; Newton starts from sqrt(max(-t, 0)/2) smoothed at 0 and raises
    NumericalError when its step does not fall below NEWTON_TOL.  One n x n
    matrix serves every step: the second-derivative matrix with the boundary
    rows of the Dirichlet data, whose interior diagonal each step restores, to
    read the residual, and then lowers by t + 6 q^2 into the Jacobian.
    """
    x, D = _chebyshev(n)
    t = 0.5 * (RIGHT - LEFT) * (x + 1.0) + LEFT
    jacobian = D @ D
    del D
    jacobian *= (2.0 / (RIGHT - LEFT)) ** 2
    diagonal = jacobian.reshape(-1)[::n + 1]  # a strided view
    second_derivative = diagonal[1:-1].copy()
    jacobian[[0, -1]] = 0.0  # the boundary rows keep q(LEFT), q(RIGHT)
    diagonal[[0, -1]] = 1.0
    q = np.sqrt((np.sqrt(t * t + 1.0) - t) / 4.0)
    q[0] = _left_value(LEFT)
    q[-1] = float(specfun.airy_real(RIGHT)[0])
    for _ in range(NEWTON_MAX_STEPS):
        diagonal[1:-1] = second_derivative
        residual = jacobian @ q - t * q - 2.0 * q ** 3
        residual[[0, -1]] = 0.0
        diagonal[1:-1] -= (t + 6.0 * q * q)[1:-1]
        step = np.linalg.solve(jacobian, residual)
        q -= step
        if np.max(np.abs(step)) < NEWTON_TOL:
            break
    else:
        raise NumericalError(f"Painleve II Newton iteration at n={n} did not converge: "
                             f"last step {np.max(np.abs(step)):.3g}")
    return t, q


def _interpolate(columns: np.ndarray, d: np.ndarray) -> np.ndarray:
    """q at points s_i from d[i, j] = s_i - t_j, none of them 0: the
    numerator and denominator of the barycentric formula are one matmul."""
    numerator, denominator = ((1.0 / d) @ columns).T
    return numerator / denominator


def _interpolate_blocks(columns: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """q at points, none of them a t_k, INTERPOLATION_BLOCK at a time."""
    return np.concatenate([_interpolate(columns, points[i:i + INTERPOLATION_BLOCK, None] - t)
                           for i in range(0, points.size, INTERPOLATION_BLOCK)])


def tail_integrals(t: np.ndarray, columns: np.ndarray, u: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(t_k) = integral_{t_k}^RIGHT q^2 and G(t_k) = integral_{t_k}^RIGHT
    (t - t_k) q^2 at the Chebyshev points t_k, q the interpolant of the
    barycentric columns (w q, w).

    Each gap [t_k, t_k+1] takes the rule (u, weights) on (0, 1), and the sums
    run from the right: J(t_k) = J(t_k+1) + integral q^2 and G(t_k) =
    G(t_k+1) + (t_k+1 - t_k) J(t_k+1) + integral (t - t_k) q^2 over the gap.
    Every term is positive, so both keep their relative accuracy.
    """
    h = np.diff(t)
    offsets = h[:, None] * u  # t - t_k at the rule points of gap k
    p = _interpolate_blocks(columns, t, (t[:-1, None] + offsets).ravel())
    q2 = h[:, None] * weights * p.reshape(offsets.shape) ** 2
    J = np.zeros(t.size)
    G = np.zeros(t.size)
    J[:-1] = np.cumsum(q2.sum(axis=1)[::-1])[::-1]
    G[:-1] = np.cumsum(((q2 * offsets).sum(axis=1) + h * J[1:])[::-1])[::-1]
    return J, G


def _first_kind(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The angles theta_j = (j + 1/2) pi / m and the m first-kind Chebyshev
    points (1 + cos theta_j) / 2 on (0, 1), descending."""
    theta = np.pi * (np.arange(m) + 0.5) / m
    return theta, 0.5 * (1.0 + np.cos(theta))


def gap_table(t: np.ndarray, columns: np.ndarray, u: np.ndarray,
              weights: np.ndarray) -> np.ndarray:
    """The GAP_TERMS Chebyshev coefficients on (0, 1) of S(z) = h^-2
    integral_x^{t_k} (t - x) q^2 dt, h = t_k - x = z (t_k - t_k-1), one row
    per gap (t_k-1, t_k) for k = 1, ..., n - 1.

    S is sampled at GAP_TERMS first-kind Chebyshev points by the rule
    (u, weights) on (0, 1) scaled by h.  Its q comes from a local
    interpolant: LOCAL_POINTS first-kind points inside each gap, none of them
    a t_k, their values interpolated from the barycentric columns (w q, w)
    by _interpolate_blocks.  The rule points x + h u_i sit at
    1 - z (1 - u_i) of the gap in every gap, so one matrix maps every gap's
    local values onto them.
    """
    theta, sigma = _first_kind(LOCAL_POINTS)
    width = np.diff(t)
    local = _interpolate_blocks(columns, t, (t[:-1, None] + width[:, None] * sigma).ravel())
    angle, z = _first_kind(GAP_TERMS)
    rule_points = (1.0 - z[:, None] * (1.0 - u)).ravel()
    # (-1)^j sin theta_j are the barycentric weights of first-kind points
    basis = (-1.0) ** np.arange(LOCAL_POINTS) * np.sin(theta) / (rule_points[:, None] - sigma)
    basis /= basis.sum(axis=1, keepdims=True)
    q = local.reshape(width.size, LOCAL_POINTS) @ basis.T
    np.square(q, out=q)
    samples = q.reshape(width.size, GAP_TERMS, GAP_NODES) @ (weights * u)
    coefficients = samples @ np.cos(np.outer(angle, np.arange(GAP_TERMS))) * (2.0 / GAP_TERMS)
    coefficients[:, 0] *= 0.5
    return coefficients


class Order(NamedTuple):
    """Everything log_hard_gap reads of one Chebyshev order, and what built it."""

    t: np.ndarray  # the Chebyshev points t_k on [LEFT, RIGHT], ascending
    q: np.ndarray  # the Hastings-McLeod q at t
    columns: np.ndarray  # (w q, w), the barycentric columns of q
    J: np.ndarray  # integral_{t_k}^RIGHT q^2
    G: np.ndarray  # integral_{t_k}^RIGHT (t - t_k) q^2
    u: np.ndarray  # the GAP_NODES-point Gauss-Legendre rule on (0, 1): nodes
    weights: np.ndarray  # and weights
    #: one row of Python floats per gap (t_k-1, t_k), k = 1, ..., n - 1:
    #: t_k, G(t_k), J(t_k), 2 / (t_k - t_k-1) and gap_table's coefficients
    table: tuple[tuple[float, ...], ...]


@functools.lru_cache(maxsize=8)
def _order(n: int) -> Order:
    """The order-n record, built once per process by the uncached solve, tail
    integrals and gap table.  Every array is read-only and the table a tuple:
    every caller shares them."""
    t, q = hastings_mcleod(n)
    w = np.ones(n)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    columns = np.column_stack((w * q, w))
    u, weights = specfun.gauss_legendre_rule(GAP_NODES).mapped(0.0, 1.0)
    J, G = tail_integrals(t, columns, u, weights)
    rows = np.column_stack((t[1:], G[1:], J[1:], 2.0 / np.diff(t), gap_table(t, columns, u, weights)))
    order = Order(t, q, columns, J, G, u, weights, tuple(map(tuple, rows.tolist())))
    for a in order[:-1]:
        a.flags.writeable = False
    return order


_POINT = operator.itemgetter(0)


def log_hard_gap(x: float, n: int) -> float:
    """log F(x; 0) for specfun.AIRY_REAL_MIN <= x < RIGHT from the order-n record.

    With t_k the first Chebyshev point at or above x, log F = -(G(t_k) +
    (t_k - x) J(t_k) + h^2 S(z)), h = t_k - x and z = h / (t_k - t_k-1), which
    is -G(t_k) when x is t_k.  One bisection finds the row of the gap, and
    one Clenshaw sum of its coefficients in Python floats gives S(z): O(1) per
    value, about 2 us at either order of RUNGS on a 2-CPU x86-64 VM.  The
    domain is the Nystrom route's, so every hard gap has one edge.  Toward
    RIGHT the relative error grows as eps max|q|/q(x), 2e-11 at x = 7
    (absolute < 1e-20).
    """
    x = float(x)
    if not specfun.AIRY_REAL_MIN <= x < RIGHT:
        raise DomainError(f"the hard gap supports {specfun.AIRY_REAL_MIN} <= x < {RIGHT}, got {x}")
    table = _order(n).table
    row = table[bisect.bisect_left(table, x, key=_POINT)]
    h = row[0] - x
    y = h * row[3] - 1.0  # 2 z - 1 on [-1, 1)
    y2 = y + y
    b1 = b2 = 0.0
    for c in row[:4:-1]:  # the coefficients from the last down to c_1
        b1, b2 = c + y2 * b1 - b2, b1
    return -(row[1] + h * row[2] + h * h * (row[4] + y * b1 - b2))
