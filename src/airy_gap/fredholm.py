"""Airy-kernel Fredholm determinants with jump discontinuities.

The operator acts on (x_m, +infinity) with piecewise weight 1 - s_j on each
interval (x_j, x_{j-1}); its determinant is the generating function of the
counting statistics of the Airy point process.  Discretization is panel-wise
Gauss-Legendre (Nystrom), panels at most 4 long where Ai oscillates (u < 0)
and 12 where it only decays.  A scheme is geometry: nodes, rule weights and
Airy values from one builder, _layout_scheme, for determinants, traces and
the s_m identity alike.  The factor 1 - s_j enters at assembly, in the
symmetrized A_ik = sqrt(w_i w_k) K(xi_i, xi_k), whose numerator is one
product of the stacks of sqrt(w) Ai and sqrt(w) Ai'.  One double Cholesky
factorization of I - A gives log det(I - A) wherever it certifies itself:
every s_j is at least NEAR_ONE_GAP (the weights keep the spectrum of A that
far below 1), or
det(I - A) >= DEEP_GAP_THRESHOLD, a lower bound on the spectral gap since A
is positive semidefinite.  Every other configuration is a deep gap: the
same assembly runs on 80-bit nodes, a pivoted Cholesky of its double
rounding stops at the numerical rank r (10-18 for x_1 in [-12, -6],
whatever N), LAPACK eigh of the r x r Gram matrix of that factor gives the
eigenvectors, and the eigenvalues near 1 are recomputed by an 80-bit
Rayleigh-Ritz step on them.  A ladder picks its precision once: where s_1 = 0
and the tail asymptotics.log_F_m1_s0(x_1) is below log DEEP_GAP_THRESHOLD
(x_1 < -5.4469) every rung runs that path, its schemes built on 80-bit nodes
alone, since each block is at most F(x_1; 0): a double Cholesky there would
fail the certificate unless the value straddles the threshold, where the two
differ by ~1e-12.  Every other ladder runs double rungs, each escalating on
its own.  That path loses accuracy with depth and refuses near
x = -13, so log_det sends the one-point hard gap F(x; 0) at its default
resolution to the Painleve II solve of the painleve module instead: ~1e-13
relative down to x = -100, ~eps max|q|/q(x) near RIGHT.
The determinant of the first k points sits in the trailing block of A on
(x_k, x_{k-1}), ..., (x_1, x_0), so log_E0's F(x_1; 0) walks its ladder on
the blocks of F(x; s): one layout, scheme and assembly per rung serve both,
and on the 80-bit path one pivoted Cholesky of the widest block, whose rows
from a block's first node factor that block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import asymptotics, painleve, specfun
from .specfun import NumericalError, check_endpoints, check_weights


DEFAULT_NODES_PER_PANEL = 48
#: rule orders log_det walks when given no nodes_per_panel, each ceil(1.5 n)
#: of the last; it stops at the first refinement gap below CONVERGENCE_TOL
DEFAULT_LADDER = (16, 24, 36, 54, 81)
PANEL_MAX_LENGTH = 4.0
#: largest discretization built; one double N x N matrix at the cap is 512 MiB
MAX_NODES = 8192
#: Ai(u)^2 < 1e-24 for u >= this; the half-line truncation point never sits
#: below it because deep determinants amplify truncation error by the inverse
#: spectral gap (measured: 8e-2 shift at x = -10 when truncating at x + 14).
TRUNCATION_POINT_MIN = 12.5
MIN_TAIL_LENGTH = 8.0
#: a double Cholesky det(I - A) at least this certifies min(1 - lambda) >= it;
#: below it the float128 pipeline runs, refusing such gaps on plain double
DEEP_GAP_THRESHOLD = 1e-6
_LOG_DEEP_GAP_THRESHOLD = math.log(DEEP_GAP_THRESHOLD)
#: min s at least this keeps the spectrum of A at most 1 - min s; eigenvalues
#: with 1 - lambda below this get the 80-bit Rayleigh-Ritz correction, the
#: double log1p of the rest loses at most ~1e-13 each
NEAR_ONE_GAP = 1e-3
#: the Cholesky's rounding noise grows like 1/min s: up to 728 ulps of |log F|
#: at s = 1e-3 against an 80-bit Cholesky, x down to -40 (see _ladder)
SMALL_WEIGHT_NOISE = 0.09
CONVERGENCE_TOL = 1e-8
#: est_error of log_det, on either route, is at least ROUNDING_FLOOR
#: max(|log F|, 1), since two rungs can round alike to a gap of 0.  32 ulps
#: is 3.5x the 2e-15 relative painleve's cached sums keep to the n-point rule
#: on [x, painleve.RIGHT] for x <= -2, 2.7x the 12 ulps the Painleve value
#: sits from the four-term tail at x = -16, and 2.7x the 12 ulps between the
#: Cholesky and eigenvalue log determinants of thinned configurations
ROUNDING_FLOOR = 32 * math.ulp(1.0)

_LD = np.longdouble
#: False where np.longdouble is plain double (e.g. MSVC builds), so the
#: 80-bit escalation could not resolve anything double does not
EXTENDED_PRECISION = bool(np.finfo(_LD).eps < 1e-18)

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# problem instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapConfig:
    """Endpoints x_1 > ... > x_m and thinning weights s_1, ..., s_m.

    s_j in [0, 1]; only s_1 may vanish (an interior s_j = 0 puts the
    determinant in a different asymptotic regime this package does not
    cover).  asymptotics.beta_from_s maps s to the jump parameters.
    """

    x: tuple[float, ...]
    s: tuple[float, ...]

    def __init__(self, x, s):
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(x)))
        object.__setattr__(self, "s", tuple(float(v) for v in np.atleast_1d(s)))
        if len(self.x) != len(self.s) or not self.x:
            raise ValueError("x and s must be equal-length, non-empty sequences")
        check_endpoints(self.x)
        check_weights(self.s)

    @property
    def m(self) -> int:
        return len(self.x)


def default_tail_length(a: float) -> float:
    """Length T kept of (a, inf): T >= MIN_TAIL_LENGTH, a + T >= TRUNCATION_POINT_MIN."""
    return max(MIN_TAIL_LENGTH, TRUNCATION_POINT_MIN - a)


# ---------------------------------------------------------------------------
# quadrature scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Flattened panel Gauss-Legendre nodes xi, rule weights w and (Ai, Ai') at xi on one
    _panel_layout, and nothing of s: the kernel's assembly applies 1 - s_j (_thinned_weights)."""

    layout: tuple[np.ndarray, np.ndarray, np.ndarray]  # _panel_layout's (lo, hi, position)
    nodes_per_panel: int
    xi: np.ndarray
    w: np.ndarray
    airy: tuple[np.ndarray, np.ndarray]

    @property
    def size(self) -> int:
        return self.xi.size

    @property
    def panels(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.layout[0].tolist(), self.layout[1].tolist()))

    @property
    def interval_index(self) -> np.ndarray:
        """Each node's interval by its position in the list the layout covers, ascending
        (x_m, x_{m-1}), ..., (x_1, x_0) for a determinant."""
        return self.layout[2].repeat(self.nodes_per_panel)


def _stretch(u: float) -> float:
    """phi(u) = u/4 below 0, u/12 above: a panel spans at most 1 in phi, so it is at most
    4 long where Ai oscillates and 12 where it only decays."""
    return u / (PANEL_MAX_LENGTH if u < 0.0 else 3.0 * PANEL_MAX_LENGTH)


def _panel_layout(intervals, nodes_per_panel: int, top: int | None = None):
    """Every panel's edges lo, hi in u and the position of its interval in `intervals`, the
    same for every rule order: ceil(phi(b) - phi(a)) panels per interval, edges spaced in phi
    as np.linspace would.  Each interval's own ends are its first and last edges; only the
    interior ones are mapped back to u, which by 12 is not exact.  ValueError before any
    array is built below 4 nodes per panel, or for a top rung (by default nodes_per_panel)
    above MAX_RULE_ORDER or needing N > MAX_NODES."""
    top = nodes_per_panel if top is None else top
    if nodes_per_panel < 4:
        raise ValueError(f"nodes_per_panel must be at least 4, got {nodes_per_panel}")
    if top > specfun.MAX_RULE_ORDER:
        raise ValueError(f"rule order {top} is above MAX_RULE_ORDER = {specfun.MAX_RULE_ORDER}")
    spans = [(_stretch(a), _stretch(b)) for a, b in intervals]
    counts = [max(1, math.ceil(q - p - 1e-12)) for p, q in spans]
    size = sum(counts) * top
    if size > MAX_NODES:
        raise ValueError(f"the discretization needs N = {size} nodes, above MAX_NODES = {MAX_NODES}")
    lo, hi, position = [], [], []
    for i, ((a, b), (p, q), count) in enumerate(zip(intervals, spans, counts)):
        step = (q - p) / count
        lo.append(a)
        for k in range(1, count):  # an interior edge ends one panel and starts the next
            t = p + k * step
            t *= PANEL_MAX_LENGTH if t < 0.0 else 3.0 * PANEL_MAX_LENGTH
            lo.append(t)
            hi.append(t)
        hi.append(b)
        position += [i] * count
    return np.array(lo), np.array(hi), np.array(position, np.int32)


def _halfline_cut(a: float, tail_length: float | None = None) -> float:
    """a + T, the one cut of a half-line (a, inf), T = default_tail_length(a) unless given."""
    T = default_tail_length(a) if tail_length is None else tail_length
    if not MIN_TAIL_LENGTH <= T < math.inf:
        raise ValueError(f"tail_length must be finite and at least {MIN_TAIL_LENGTH:g}")
    return a + T


def _scheme_intervals(config: GapConfig, tail_length: float | None):
    """The intervals (x_m, x_{m-1}), ..., (x_1, x_0) with x_0 = _halfline_cut(x_1)."""
    ends = config.x[::-1] + (_halfline_cut(config.x[0], tail_length),)  # x_m < ... < x_1 < x_0
    return list(zip(ends, ends[1:]))


def build_scheme(config: GapConfig, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
                 tail_length: float | None = None, dtype=np.float64) -> QuadratureScheme:
    """Panelized Gauss-Legendre scheme on the intervals of `config`.

    _panel_layout covers each interval (x_j, x_{j-1}) and the tail (x_1, x_1 + T);
    the weights s do not enter.  When tail_length is omitted it is chosen so
    the truncation point clears TRUNCATION_POINT_MIN.  A tail_length that puts
    the cut x_1 + T below TRUNCATION_POINT_MIN discretizes the truncated
    operator, whose determinant is not F(x; s); it is meant only for
    truncation studies.
    """
    layout = _panel_layout(_scheme_intervals(config, tail_length), nodes_per_panel)
    return _layout_scheme(layout, (nodes_per_panel,), dtype)[0]


def _layout_scheme(layout, orders, dtype=np.float64) -> list[QuadratureScheme]:
    """A scheme for each rule order in `orders` on one _panel_layout, the one map of rules
    onto panels: each order's Gauss-Legendre rule mapped onto every panel by one broadcast
    of QuadRule.mapped's arithmetic (80-bit nodes on the same double edges), whose C order
    is the scheme's, one _airy_pair call on every order's nodes, and each scheme taking its
    run of the values."""
    lo, hi, _ = layout
    a, b = lo.astype(dtype, copy=False)[:, None], hi.astype(dtype, copy=False)[:, None]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    rules = [specfun.gauss_legendre_rule(n, dtype=dtype) for n in orders]
    xi = [(half * rule.nodes + mid).ravel() for rule in rules]
    ai, aip = _airy_pair(np.concatenate(xi))
    ends = list(accumulate((0, *(x.size for x in xi))))
    return [QuadratureScheme(layout, rule.order, x, (half * rule.weights).ravel(), (ai[i:j], aip[i:j]))
            for rule, x, i, j in zip(rules, xi, ends, ends[1:])]


def _thinned_weights(config: GapConfig, scheme: QuadratureScheme) -> np.ndarray:
    """The scheme's weights times 1 - s_j on (x_j, x_{j-1}), the weights A is assembled with."""
    thinning = np.array([1.0 - v for v in config.s[::-1]], dtype=scheme.w.dtype)
    return scheme.w * thinning.take(scheme.interval_index)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def airy_kernel(u: float, v: float) -> float:
    """Airy two-point kernel (Ai(u)Ai'(v) - Ai'(u)Ai(v)) / (u - v).

    Within 1e-7 of the diagonal the confluent form Ai'(t)^2 - t Ai(t)^2 is
    used at the midpoint t = (u + v)/2.  It evaluates scipy's Airy, so it stays
    an independent check of specfun.airy_real.
    """
    from scipy import special

    u = float(u)
    v = float(v)
    if abs(u - v) < 1e-7:
        t = 0.5 * (u + v)
        ai, aip, _, _ = special.airy(t)
        return float(aip * aip - t * ai * ai)
    aiu, aipu, _, _ = special.airy(u)
    aiv, aipv, _, _ = special.airy(v)
    return float((aiu * aipv - aipu * aiv) / (u - v))


def _airy_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') at real nodes in their dtype.

    Both take specfun.airy_real's one Taylor step off its row table: double
    nodes sum the float64 rows, within 4 eps of the exact pair relative to
    |Ai| + |Ai'|; 80-bit nodes sum the 80-bit rows (~3e-17) and go through
    specfun.airy_ai_real_xp, the call a profiler wraps to count escalations.
    """
    return (specfun.airy_ai_real_xp if x.dtype == _LD else specfun.airy_real)(x)


def _kernel_matrix(xi: np.ndarray, w: np.ndarray, airy=None) -> np.ndarray:
    """Dense sqrt(w_i w_k) K(xi_i, xi_k) on distinct nodes, its diagonal by the
    confluent form; the precision follows the dtype of xi, so double and 80-bit
    determinants assemble alike; airy is _airy_pair(xi) if known.

    sqrt(w) is folded into Ai and Ai' first, as the rows of one (3, N) array
    [Ai; Ai'; -Ai], so the antisymmetric numerator Ai_i Ai'_k - Ai'_i Ai_k is
    one product of its (N, 2) view [Ai, Ai'] with its (2, N) view [Ai'; -Ai],
    by np.einsum, which adds the two rounded products to 0 in either precision
    and so gives each entry of an outer product less its transpose (np.dot
    would hand double to BLAS, whose fused multiply-add moves the entries).
    Then the differences xi_i - xi_k and one division: three N^2 passes.
    """
    ai, aip = _airy_pair(xi) if airy is None else airy
    sw = np.sqrt(w)
    rows = np.empty((3, xi.size), xi.dtype)
    ai, aip = np.multiply(ai, sw, out=rows[0]), np.multiply(aip, sw, out=rows[1])
    np.negative(ai, out=rows[2])
    A = np.einsum("ji,jk->ik", rows[:2], rows[1:])
    den = np.subtract.outer(xi, xi)
    diagonal = slice(None, None, xi.size + 1)  # of a C-contiguous N x N array, flattened
    den.reshape(-1)[diagonal] = 1.0
    A /= den
    A.reshape(-1)[diagonal] = aip * aip - xi * ai * ai
    return A


# ---------------------------------------------------------------------------
# log determinant
# ---------------------------------------------------------------------------

def _cholesky_logdet_ld(M) -> np.ndarray:
    """log det of a small symmetric positive definite float128 matrix M, or of each in a
    list M of them, by one Cholesky loop over their stack, each padded with the identity
    to the largest order.

    Reads the lower triangle only, like LAPACK potrf with uplo='L'.  Each pivot and column
    is summed in one matrix's own order and a padded pivot is exactly 1, so every value is
    the bits of its matrix factored alone.  A non-positive pivot raises NumericalError for
    the first matrix in the list that has one, its position in the error's `index`.
    Returns one value for one matrix, else an array of one per matrix.
    """
    matrices = [M] if isinstance(M, np.ndarray) else M
    orders = [m.shape[0] for m in matrices]
    k = max(orders, default=0)
    S = np.zeros((len(matrices), k, k), _LD)
    S.reshape(len(S), -1)[:, ::k + 1] = 1.0  # the identity under every matrix
    for padded, m, n in zip(S, matrices, orders):
        padded[:n, :n] = m
    L, pivots = np.zeros_like(S), np.ones((len(S), k + 1), _LD)  # pivots[:, 0] stays 1
    with np.errstate(divide="ignore", invalid="ignore"):  # a refused matrix goes on in NaN alone
        for j in range(k):
            # column j from the pivot down, each dot summed as the one-matrix loop sums it;
            # L[j, j] = d / sqrt(d) here, but no later column reads it
            column = S[:, j:, j] - (L[:, j:, :j] @ L[:, j, :j, None])[..., 0]
            pivots[:, j + 1] = column[:, 0]
            L[:, j:, j] = column / np.sqrt(column[:, :1])
    refused = ~(pivots > 0.0)
    if refused.any():
        i = int(refused.any(axis=1).argmax())
        j = int(refused[i].argmax())  # pivots[i, j] is that of column j - 1
        error = NumericalError(f"non-positive Cholesky pivot {float(pivots[i, j]):.3g} at {j - 1} "
                               f"of {orders[i]}")
        error.index = i
        raise error
    # accumulate adds the logs one by one to log 1 = 0, as the one-matrix loop did
    logdet = np.add.accumulate(np.log(pivots), axis=1)[:, -1]
    return logdet[0] if isinstance(M, np.ndarray) else logdet


def _numerical_range(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A ~ L L^T for a symmetric positive semidefinite A, by a pivoted Cholesky
    (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62 (2012)) stopped once
    every residual diagonal entry is at most N eps max diag A.  Returns L, N x r
    with r the numerical rank, and the diagonal of the residual A - L L^T, whose
    trace bounds its norm; O(N r^2) work, r independent of N on a resolved grid.
    The residual is positive semidefinite, so L[t:] factors A[t:, t:] with the
    residual's trailing block, of trace sum(diagonal[t:])."""
    n = A.shape[0]
    d = np.diagonal(A).copy()
    tol = n * np.finfo(A.dtype).eps * d.max()
    rows = np.empty_like(A)  # rows[:r] is L^T
    r, p = 0, d.argmax()
    while r < n and d[p] > tol:
        row = rows[r]  # each row is written in place
        np.subtract(A[p], np.dot(rows[:r, p], rows[:r], out=row), out=row)
        row /= math.sqrt(d[p])
        d -= row * row
        r, p = r + 1, d.argmax()
    return rows[:r].T, d


def _ritz_logdet(A: np.ndarray, offsets=(0,)) -> np.ndarray:
    """log det(I - A[t:, t:]) for each t in `offsets` (0 first), A a symmetric positive
    semidefinite float128 matrix with eigenvalues below ~1: one value per offset.

    One _numerical_range of A rounded to double gives A ~ L L^T, and L[t:] factors each
    trailing block.  One stacked eigh of the blocks' r x r L[t:]^T L[t:] = U diag(lambda)
    U^T gives each its nonzero spectrum, with eigenvectors L[t:] U lambda^(-1/2).
    Eigenvalues with 1 - lambda >= NEAR_ONE_GAP enter through log1p in double, the
    residual (eigenvalues below N eps) through its trace.  The k eigenvectors V of the
    rest span a nearly invariant subspace, and the product of their eigenvalues of I - A
    is recomputed in float128 as the Rayleigh-Ritz ratio det(V^T (I - A) V) / det(V^T V),
    every block's two matrices by one _cholesky_logdet_ld, so a refusal names the first
    block that has one.  Its error is second order in the double eigenvector error, and
    it does not depend on how eigh mixes eigenvectors inside a cluster of near-1
    eigenvalues.  Where np.longdouble is plain double, a gap under DEEP_GAP_THRESHOLD
    raises.
    """
    L, residual = _numerical_range(A.astype(np.float64))  # residual: its diagonal
    evals, vecs = np.linalg.eigh(np.concatenate([(L[t:].T @ L[t:])[None] for t in offsets]))
    blocks, matrices = [], []
    for t, lam, U in zip(offsets, evals, vecs):
        gap = 1.0 - lam[-1]
        if gap < DEEP_GAP_THRESHOLD and not EXTENDED_PRECISION:
            raise NumericalError(f"spectral gap {gap:.3g} of I - A needs the 80-bit path, but "
                                 f"np.longdouble is plain double here (eps {np.finfo(_LD).eps:.3g})")
        near = 1.0 - lam < NEAR_ONE_GAP
        bulk = np.sum(np.log1p(-lam[~near])) - np.sum(residual[t:])
        V = (L[t:] @ (U[:, near] / np.sqrt(lam[near]))).astype(_LD)
        # np.dot sums in matmul's order, but faster: numpy's longdouble matmul is a plain loop
        matrices += [np.dot(V.T, V - np.dot(A[t:, t:], V)), np.dot(V.T, V)]
        blocks.append((bulk, A.shape[0] - t, V.shape[1], gap))
        _log.info("80-bit log det: N=%d, k=%d eigenvalues within %g of 1, numerical rank r=%d, "
                  "min(1-lambda)=%.3g", A.shape[0] - t, V.shape[1], NEAR_ONE_GAP, L.shape[1], gap)
    try:
        logdets = _cholesky_logdet_ld(matrices)
    except NumericalError as exc:
        _, n, k, gap = blocks[exc.index // 2]
        raise NumericalError(
            f"{exc} in the 80-bit Rayleigh-Ritz step (N={n}, k={k}, double min(1-lambda)={gap:.3g}) "
            f"on numerical rank r={L.shape[1]}: 80-bit arithmetic cannot resolve a spectral gap "
            "of I - A this small") from exc
    return np.array([float(_LD(bulk) + ritz - gram)
                     for (bulk, *_), ritz, gram in zip(blocks, logdets[::2], logdets[1::2])])


def logdet_single(config: GapConfig, scheme: QuadratureScheme) -> float:
    """log det(I - A) at one resolution: _logdet_blocks with the one block of all of A, on
    the double path or, given a scheme on 80-bit nodes, straight on the 80-bit one."""
    return _logdet_blocks(config, scheme, (0,))[0]


def _certified(s, value: float) -> bool:
    """Whether value = log det(I - A) of a determinant with weights s certifies itself as
    a double Cholesky value: every s_j >= NEAR_ONE_GAP, or det(I - A) >= DEEP_GAP_THRESHOLD."""
    return value >= _LOG_DEEP_GAP_THRESHOLD or min(s) >= NEAR_ONE_GAP


def _logdet_blocks(config: GapConfig, scheme: QuadratureScheme, starts) -> list[float]:
    """log det(I - A_k) at one resolution for the trailing block A_k of A from each node in
    `starts`, widest first.  A block from the first node of (x_k, x_{k-1}) covers (x_k,
    x_{k-1}), ..., (x_1, x_0): the determinant of config's first k points, whose own scheme
    has the same panels, nodes and entries.  Only the widest block is assembled, entry for
    entry as in A, in 80-bit too: a block escalates only with every wider one, whose
    determinant its own bounds (a Schur complement of I - A is at most I).

    On a double scheme, 2 sum log diag L of one double Cholesky I - A_k = L L^T,
    kept when it certifies itself (_certified).  Every s_j >= NEAR_ONE_GAP keeps
    the eigenvalues of A = S^(1/2) A_0 S^(1/2) (A_0 unthinned, a projection;
    S = diag(1 - s_j)) at most 1 - min s on a resolved grid, and a failed
    factorization (a grid too coarse) raises NumericalError.  Else A is a
    positive semidefinite Gram matrix, so det(I - A) <= min(1 - lambda) and a
    value of at least DEEP_GAP_THRESHOLD is kept.  I - A is formed in place, so
    each I - A_k is its trailing block, no copy.  The blocks left escalate: the
    same call on the scheme's own layout mapped in 80-bit.  On an 80-bit scheme
    (an escalation, or every rung of a ladder the tail of F(x_1; 0) puts on this
    path) the widest block is assembled once and one _ritz_logdet serves every
    block: one pivoted Cholesky of the widest, each narrower block taking its
    rows from the block's first node, so only a narrower block's bits differ
    from its own scheme's.
    """
    n, t0 = scheme.nodes_per_panel, starts[0]
    ai, aip = scheme.airy  # the widest block's nodes, from t0 on
    A = _kernel_matrix(scheme.xi[t0:], _thinned_weights(config, scheme)[t0:], (ai[t0:], aip[t0:]))
    if A.dtype == _LD:
        return _ritz_logdet(A, [t - t0 for t in starts]).tolist()
    np.negative(A, out=A)  # I - A in place
    A.reshape(-1)[::A.shape[0] + 1] += 1.0  # a strided view of the diagonal
    values, deep = [], []
    for i, t in enumerate(starts):
        s = config.s[:config.m - int(scheme.layout[2][t // n])]
        try:
            value = 2.0 * float(np.log(np.linalg.cholesky(A[t - t0:, t - t0:]).diagonal()).sum())
        except np.linalg.LinAlgError as exc:
            if min(s) >= NEAR_ONE_GAP:
                raise NumericalError(
                    f"I - A is not positive definite (N={scheme.size - t}, {n} nodes per panel, "
                    f"min s={min(s):g}): the grid does not resolve "
                    "this configuration") from exc
            value = -math.inf
        values.append(value)
        if not _certified(s, value):
            deep.append(i)
    if deep:
        del A
        extended = _layout_scheme(scheme.layout, (n,), _LD)[0]
        for i, value in zip(deep, _logdet_blocks(config, extended, [starts[i] for i in deep])):
            values[i] = value
    return values


@dataclass(frozen=True)
class DeterminantReport:
    """log F plus the refinement history that produced it.

    route is "nystrom" (resolutions hold nodes per panel) or "painleve"
    (resolutions hold Chebyshev orders of the Painleve II solve).
    """

    resolutions: tuple[tuple[int, float], ...]
    est_error: float
    route: str

    @property
    def log_f(self) -> float:
        return self.resolutions[-1][1]

    @property
    def converged(self) -> bool:
        return self.est_error < CONVERGENCE_TOL


def _ladder(configs, rungs, values_at, route: str) -> list[DeterminantReport]:
    """One report per config from values_at(n, live) over the rungs: the values at rung n
    of configs[i] for each i in live, each config leaving live at its own first gap below
    CONVERGENCE_TOL.

    est_error is the last gap, but at least the rounding noise of one rung:
    ROUNDING_FLOOR max(|log F|, 1), since part of it does not shrink
    with |log F|, times max(1, SMALL_WEIGHT_NOISE / s) where s, the least
    positive s_j (s_1 = 0 leaves the conditioning to min_{j>=2} s_j), is at
    least NEAR_ONE_GAP.
    """
    resolutions = [[] for _ in configs]
    gaps = [math.inf] * len(configs)
    live = list(range(len(configs)))
    for n in rungs:
        for i, value in zip(live, values_at(n, live)):
            if resolutions[i]:
                gaps[i] = abs(value - resolutions[i][-1][1])
            resolutions[i].append((int(n), value))
        live = [i for i in live if not gaps[i] < CONVERGENCE_TOL]
        if not live:
            break
    reports = []
    for config, steps, gap in zip(configs, resolutions, gaps):
        s = min(config.s) or min(config.s[1:], default=0.0)  # only s_1 may vanish
        floor = ROUNDING_FLOOR * (max(1.0, SMALL_WEIGHT_NOISE / s) if s >= NEAR_ONE_GAP else 1.0)
        reports.append(DeterminantReport(tuple(steps), float(max(gap, floor * max(abs(steps[-1][1]), 1.0))),
                                         route))
    return reports


def log_det(config: GapConfig, *,
            nodes_per_panel: int | None = None,
            tail_length: float | None = None) -> DeterminantReport:
    """log F(x; s), by Painleve II for a default one-point hard gap, else by Nystrom.

    A one-point hard gap (m = 1, s = (0,)) with x below painleve.RIGHT and
    neither argument given takes the Hastings-McLeod route: the Chebyshev
    orders painleve.RUNGS.  It has no 1 - lambda cancellation, so it stays
    accurate down to x = specfun.AIRY_REAL_MIN.  Every other call runs the
    Nystrom rule orders, each ceil(1.5 n) of the one before: DEFAULT_LADDER,
    or (n, ceil(1.5 n)) given nodes_per_panel = n.  Both routes walk _ladder.
    The first rung is checked against the lower bound and the top rung against
    MAX_RULE_ORDER and MAX_NODES before any scheme is built; the first two
    rungs are built together, a later rung only when it runs.
    tail_length is build_scheme's.
    """
    if (config.m == 1 and config.s == (0.0,) and nodes_per_panel is None
            and tail_length is None and config.x[0] < painleve.RIGHT):
        x = config.x[0]
        report, = _ladder((config,), painleve.RUNGS, lambda n, _: (painleve.log_hard_gap(x, n),), "painleve")
        _log.info("Painleve II hard gap: x=%g, Chebyshev orders %s, est_error=%.3g",
                  x, painleve.RUNGS, report.est_error)
        return report
    return _nystrom_log_det(config, nodes_per_panel, tail_length)


def _nystrom_log_det(config: GapConfig, nodes_per_panel: int | None = None,
                     tail_length: float | None = None) -> DeterminantReport:
    """log_det's Nystrom ladder, whatever the configuration: _nystrom_ladders' full one."""
    return _nystrom_ladders(config, False, nodes_per_panel, tail_length)[0]


def _nystrom_ladders(config: GapConfig, reference: bool, nodes_per_panel: int | None = None,
                     tail_length: float | None = None) -> list[DeterminantReport]:
    """The Nystrom ladder of F(x; s), and given `reference` that of F(x_1; s_1) on the
    trailing blocks of the same rungs, the full one first.  Each stops at its own first gap
    below CONVERGENCE_TOL, and an unconverged one logs a WARNING.  The rule orders are
    DEFAULT_LADDER, or (n, ceil(1.5 n)) given nodes_per_panel = n, all on one _panel_layout,
    checked for the top rung first (every escalation maps it again in 80-bit).  The ladder
    has one precision, chosen before its first rung: 80-bit where s_1 = 0 and the tail
    log_F_m1_s0(x_1) is below log DEEP_GAP_THRESHOLD, since every block is then at most
    F(x_1; 0) (a Schur complement of I - A is at most I) and a double pass could certify
    only where the tail is off by its ~3e-4, within ~1e-4 of the crossing in x_1; each of
    its rungs logs that at INFO.  Else double, each rung escalating in _logdet_blocks.  The
    first two rungs always run, so one _layout_scheme call builds both (each node's Airy
    value is its own); a later rung is built only when it runs.  A rung runs
    _logdet_blocks once for the blocks still walking; the full block alone is
    logdet_single, the call a profiler wraps."""
    n = nodes_per_panel
    orders = DEFAULT_LADDER if n is None else (n, math.ceil(1.5 * n))
    layout = _panel_layout(_scheme_intervals(config, tail_length), orders[0], orders[-1])
    configs, panels = [config], [0]
    if reference:
        configs.append(GapConfig(config.x[:1], config.s[:1]))
        panels.append(int(np.count_nonzero(layout[2] < config.m - 1)))  # panels below x_1
    tail = asymptotics.log_F_m1_s0(config.x[0]) if config.s[0] == 0.0 and config.x[0] < 0.0 else 0.0
    dtype = _LD if tail < _LOG_DEEP_GAP_THRESHOLD else np.float64
    schemes = dict(zip(orders[:2], _layout_scheme(layout, orders[:2], dtype)))  # both always run

    def values_at(k, live):
        if dtype is _LD and _log.isEnabledFor(logging.INFO):
            _log.info("rung %d nodes per panel starts on the 80-bit path: x=%s has the tail "
                      "log F(x_1; 0) = %.6g < log DEEP_GAP_THRESHOLD", k,
                      ", ".join(str(configs[i].x) for i in live), tail)
        scheme = schemes.pop(k) if k in schemes else _layout_scheme(layout, (k,), dtype)[0]
        if live == [0]:
            return [logdet_single(config, scheme)]
        return _logdet_blocks(config, scheme, [panels[i] * k for i in live])

    reports = _ladder(configs, orders, values_at, "nystrom")
    for block, report in zip(configs, reports):
        if not report.converged:
            _log.warning("Nystrom ladder unconverged: x=%s, s=%s, top rung %d nodes per panel, "
                         "est_error=%.3g", block.x, block.s, report.resolutions[-1][0], report.est_error)
    return reports


def log_E(config: GapConfig, **kwargs) -> float:
    """log of the joint Laplace-type generating functional, s_1 > 0 branch."""
    if config.s[0] == 0.0:
        raise ValueError("s_1 = 0: use log_E0 for the conditioned quantity")
    return log_det(config, **kwargs).log_f


def log_E0(config: GapConfig, **kwargs) -> float:
    """log of the generating functional conditioned on an empty (x_1, inf).

    Equals log F(x; s) - log F(x_1; 0), both determinants by the Nystrom
    ladder even when F(x_1; 0) alone would take the Painleve II route.  The
    double-rounded pi in the 80-bit Airy anchor biases both Nystrom values,
    partly alike; pairing one of them with the unbiased Painleve value
    would move deep conditioned values by up to ~1e-8.  F(x_1; 0) is
    discretized on the panels of the tail (x_1, x_0) of F(x; s), so it is
    the trailing block of the same matrix: one layout, one scheme and one
    assembly per rung serve both, all of them 80-bit for x_1 below -5.4469,
    where the tail of F(x_1; 0) rules out double for the whole ladder, and
    else double, with one more of each in 80-bit on a rung where either
    escalates; a rung F(x_1; 0) walks alone assembles its block only.
    F(x; s) is the bits of its own ladder.  So is F(x_1; 0), but on a rung
    where both run the 80-bit path: there it reads its factor off the full
    block's pivoted Cholesky, within the 80-bit Ritz noise of its own (6e-13
    at (-8, -12), 3.5e-11 at (-8.5, -11), ~1e-8 near x_1 = -10).  Given
    nodes_per_panel = n, both run the same rungs (n, ceil(1.5 n)); otherwise
    each walks DEFAULT_LADDER and stops where it converges on its own.
    """
    if config.s[0] != 0.0:
        raise ValueError("log_E0 requires s_1 = 0")
    if config.m < 2:
        raise ValueError("log_E0 requires m >= 2")
    full, ref = _nystrom_ladders(config, True, **kwargs)
    return full.log_f - ref.log_f


# ---------------------------------------------------------------------------
# the s_m trace identity
# ---------------------------------------------------------------------------

def weight_derivative_identity_gap(config: GapConfig, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL
                                   ) -> tuple[float, float, float]:
    """Residual of d/ds_m log F = (1 - s_m)^(-1) integral of R(x, x) over (x_m, x_{m-1}).

    R is the kernel of (I - K)^(-1) K.  Returns (finite_difference,
    resolvent_value, |difference|).  The central step is 1e-5 * max(s_m, 0.1),
    balancing truncation against determinant noise.  The resolvent and both
    determinants run on one scheme, whose nodes do not depend on s.
    """
    s_m = config.s[-1]
    if s_m == 1.0 or s_m == 0.0:
        raise ValueError("identity check needs s_m in (0, 1)")
    step = 1e-5 * max(s_m, 0.1)
    scheme = build_scheme(config, nodes_per_panel)
    A = _kernel_matrix(scheme.xi, _thinned_weights(config, scheme), scheme.airy)
    try:
        B = np.linalg.solve(np.eye(A.shape[0]) - A, A)  # the Nystrom resolvent (I - A)^(-1) A
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular I - A in resolvent solve: {exc}") from exc
    # R(xi_i, xi_i) = B_ii / w_i, so the quadrature of R over (x_m, x_{m-1}) sums B_ii there
    resolvent_value = float(np.sum(np.diagonal(B)[scheme.interval_index == 0])) / (1.0 - s_m)

    def at(sm: float) -> float:
        return logdet_single(GapConfig(config.x, config.s[:-1] + (sm,)), scheme)

    fd = (at(s_m + step) - at(s_m - step)) / (2.0 * step)
    return fd, resolvent_value, abs(fd - resolvent_value)


# ---------------------------------------------------------------------------
# counting statistics by kernel traces
# ---------------------------------------------------------------------------

def _normalize_intervals(intervals) -> list[tuple[float, float]]:
    """A non-empty list of pairs (a, b), finite a < b (b may be inf), no overlap."""
    out = [(float(a), float(b)) for a, b in intervals]
    if not out or not all(-math.inf < a < b for a, b in out):
        raise ValueError(f"intervals need finite a < b, b = inf allowed; got {intervals!r}")
    ordered = sorted(out)  # an overlap shows between neighbours in order of a
    if any(c < b for (_, b), (c, _) in zip(ordered, ordered[1:])):
        raise ValueError("intervals overlap")
    return out


def _set_scheme(intervals, nodes_per_panel: int) -> QuadratureScheme:
    """The determinants' scheme on an interval set, a half-line (a, inf) cut at _halfline_cut(a)."""
    cut = [(a, _halfline_cut(a) if math.isinf(b) else b) for a, b in _normalize_intervals(intervals)]
    return _layout_scheme(_panel_layout(cut, nodes_per_panel), (nodes_per_panel,))[0]


def mean_count(intervals, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Expected particle count on a finite union of intervals.

    Computes the trace integral of K(u, u); half-lines (a, inf) are truncated
    where the kernel has decayed below 1e-24.
    """
    scheme = _set_scheme(intervals, nodes_per_panel)
    ai, aip = scheme.airy
    return float(scheme.w @ (aip * aip - scheme.xi * ai * ai))


def var_count(intervals, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Variance of the particle count, tr A - ||A||_F^2 on the determinants' weighted kernel
    A = W^(1/2) K W^(1/2); one below -ROUNDING_FLOOR tr A raises NumericalError."""
    scheme = _set_scheme(intervals, nodes_per_panel)
    A = _kernel_matrix(scheme.xi, scheme.w, scheme.airy)
    linear = float(np.trace(A))
    variance = linear - float(np.vdot(A, A))
    if variance < -ROUNDING_FLOOR * linear:
        raise NumericalError(f"negative count variance {variance:.3g} on {intervals} "
                             f"at {nodes_per_panel} nodes per panel: the rule is too coarse")
    return variance


def cov_count(intervals_a, intervals_b,
              nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Covariance of counts on disjoint sets: -tr(1_A K 1_B K) = -||A_ab||_F^2, A_ab the
    A-by-B block of the weighted kernel on their union."""
    sa = _normalize_intervals(intervals_a)
    # one node set for A then B: the overlap check and MAX_NODES apply to the union
    scheme = _set_scheme(sa + _normalize_intervals(intervals_b), nodes_per_panel)
    na = np.count_nonzero(scheme.interval_index < len(sa))
    block = _kernel_matrix(scheme.xi, scheme.w, scheme.airy)[:na, na:]
    return -float(np.vdot(block, block))


def cov_halflines(x1: float, x2: float,
                  nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Covariance of N_(x1, inf) and N_(x2, inf) for finite x1 > x2.

    Splits the nested half-lines as Cov(N1, N1) + Cov(N1, N_(x2, x1)) so only
    disjoint-set traces are needed.
    """
    check_endpoints((x1, x2), "x1, x2")
    return (var_count([(x1, math.inf)], nodes_per_panel)
            + cov_count([(x1, math.inf)], [(x2, x1)], nodes_per_panel))
