"""Airy-kernel Fredholm determinants with jump discontinuities.

The operator acts on (x_m, +infinity) with piecewise weight 1 - s_j on each
interval (x_j, x_{j-1}); its determinant is the generating function of the
counting statistics of the Airy point process.  Discretization is panel-wise
Gauss-Legendre (Nystrom) with the symmetrized weighting
A_ik = sqrt(w_i w_k) K(xi_i, xi_k) and a symmetric-eigenvalue log
determinant.  Deep gaps, where the top eigenvalue of A comes within ~1e-6 of
1 and double assembly noise would dominate, escalate automatically: A is
assembled in 80-bit floats, LAPACK eigh of its double rounding gives the
eigenvectors, and the eigenvalues near 1 are recomputed by an 80-bit
Rayleigh-Ritz step on that subspace.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .specfun import NumericalError


DEFAULT_NODES_PER_PANEL = 48
PANEL_MAX_LENGTH = 4.0
#: largest discretization built; one double N x N matrix at the cap is 512 MiB
MAX_NODES = 8192
#: Ai(u)^2 < 1e-24 for u >= this; the half-line truncation point never sits
#: below it because deep determinants amplify truncation error by the inverse
#: spectral gap (measured: 8e-2 shift at x = -10 when truncating at x + 14).
TRUNCATION_POINT_MIN = 12.5
MIN_TAIL_LENGTH = 8.0
#: escalate to the float128 pipeline when min eig(I - A) drops below this
DEEP_GAP_THRESHOLD = 1e-6
#: eigenvalues with 1 - lambda below this get the 80-bit Rayleigh-Ritz
#: correction; the double log1p of the rest loses at most ~1e-13 each
NEAR_ONE_GAP = 1e-3
CONVERGENCE_TOL = 1e-8

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
        if any(b >= a for a, b in zip(self.x, self.x[1:])) or not all(map(math.isfinite, self.x)):
            raise ValueError("endpoints must be strictly decreasing and finite")
        if any(not 0.0 <= v <= 1.0 for v in self.s):
            raise ValueError("weights must lie in [0, 1]")
        if any(v == 0.0 for v in self.s[1:]):
            raise ValueError("only s_1 may be zero (interior vanishing weights unsupported)")

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
    """Flattened panel Gauss-Legendre discretization of the weighted operator.

    w_plain are the geometric quadrature weights; w_eff carry the extra
    (1 - s_j) factor of the interval each node falls in.
    """

    panels: tuple[tuple[float, float], ...]
    nodes_per_panel: int
    tail_length: float
    xi: np.ndarray
    w_plain: np.ndarray
    w_eff: np.ndarray
    interval_index: np.ndarray  # 1-based j of (x_j, x_{j-1}) containing each node

    @property
    def size(self) -> int:
        return self.xi.size


def _panelize(intervals, nodes_per_panel: int, dtype=np.float64):
    """Gauss-Legendre panels of length <= PANEL_MAX_LENGTH over each interval.

    Returns the panels, the nodes, their weights and, per node, the position
    of its interval in `intervals`.  Raises ValueError, before building
    anything, when the node count N would exceed MAX_NODES.
    """
    intervals = list(intervals)
    counts = [max(1, math.ceil((b - a) / PANEL_MAX_LENGTH - 1e-12)) for a, b in intervals]
    size = sum(counts) * nodes_per_panel
    if size > MAX_NODES:
        raise ValueError(f"the discretization needs N = {size} nodes, above MAX_NODES = {MAX_NODES}")
    rule = specfun.gauss_legendre_rule(nodes_per_panel, dtype=dtype)
    panels, xs, ws, pos = [], [], [], []
    for p, ((a, b), count) in enumerate(zip(intervals, counts)):
        edges = np.linspace(a, b, count + 1)
        for pa, pb in zip(edges[:-1], edges[1:]):
            nodes, weights = rule.mapped(dtype(pa), dtype(pb))
            panels.append((float(pa), float(pb)))
            xs.append(nodes)
            ws.append(weights)
            pos.append(np.full(nodes.size, p, dtype=np.int32))
    return tuple(panels), np.concatenate(xs), np.concatenate(ws), np.concatenate(pos)


def build_scheme(config: GapConfig, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
                 tail_length: float | None = None, dtype=np.float64) -> QuadratureScheme:
    """Panelized Gauss-Legendre scheme for the operator of `config`.

    One run of panels per interior interval (x_j, x_{j-1}) and
    ceil(T / 4) tail panels on (x_1, x_1 + T).  Panels never exceed length 4
    so the Airy oscillation (wavelength ~ pi/sqrt|x|) stays resolved.  When
    tail_length is omitted it is chosen so the truncation point clears
    TRUNCATION_POINT_MIN.
    """
    if nodes_per_panel < 4:
        raise ValueError("nodes_per_panel must be at least 4")
    if tail_length is None:
        tail_length = default_tail_length(config.x[0])
    if not MIN_TAIL_LENGTH <= tail_length < math.inf:
        raise ValueError(f"tail_length must be finite and at least {MIN_TAIL_LENGTH:g}")
    ends = config.x[::-1] + (config.x[0] + tail_length,)  # x_m < ... < x_1 < x_0
    panels, xi, w, pos = _panelize(zip(ends, ends[1:]), nodes_per_panel, dtype)
    interval_index = np.int32(config.m) - pos
    thinning = np.array([1.0 - v for v in config.s], dtype=dtype)
    return QuadratureScheme(
        panels=panels,
        nodes_per_panel=int(nodes_per_panel),
        tail_length=float(tail_length),
        xi=xi,
        w_plain=w,
        w_eff=w * thinning[interval_index - 1],
        interval_index=interval_index,
    )


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
    """(Ai, Ai') at real nodes in their dtype; 80-bit nodes go through
    specfun.airy_ai_real_xp, the call a profiler wraps to count escalations."""
    return (specfun.airy_ai_real_xp if x.dtype == _LD else specfun.airy_real)(x)


def _kernel_matrix(xa: np.ndarray, xb: np.ndarray | None = None) -> np.ndarray:
    """Dense K(xa_i, xb_k) on nodes disjoint from each other.

    Without xb it is the square block on the distinct nodes xa, its diagonal
    by the confluent form.  The precision follows the dtype of the nodes.
    """
    ai, aip = _airy_pair(xa)
    bi, bip = (ai, aip) if xb is None else _airy_pair(xb)
    K = np.outer(ai, bip)
    K -= np.outer(aip, bi)
    den = xa[:, None] - (xa if xb is None else xb)[None, :]
    if xb is None:
        np.fill_diagonal(den, 1.0)
        np.fill_diagonal(K, aip * aip - xa * ai * ai)
    K /= den
    return K


def _symmetrized_matrix(scheme: QuadratureScheme) -> np.ndarray:
    K = _kernel_matrix(scheme.xi)
    sw = np.sqrt(scheme.w_eff)
    K *= sw[:, None]
    K *= sw[None, :]
    return K


# ---------------------------------------------------------------------------
# log determinant
# ---------------------------------------------------------------------------

def _cholesky_logdet_ld(M: np.ndarray) -> np.longdouble:
    """log det of a small symmetric positive definite float128 matrix.

    Reads the lower triangle only, like LAPACK potrf with uplo='L'.
    """
    k = M.shape[0]
    L = np.zeros_like(M)
    logdet = _LD(0.0)
    for j in range(k):
        d = M[j, j] - L[j, :j] @ L[j, :j]
        if not d > 0.0:
            raise NumericalError(f"non-positive Cholesky pivot {float(d):.3g} at {j} of {k}")
        L[j, j] = np.sqrt(d)
        L[j + 1:, j] = (M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
        logdet += np.log(d)
    return logdet


def _ritz_logdet(A: np.ndarray) -> float:
    """log det(I - A) of a symmetric float128 A with eigenvalues below ~1.

    LAPACK eigh of A rounded to double gives the spectrum; eigenvalues with
    1 - lambda >= NEAR_ONE_GAP enter through log1p in double.  The k
    eigenvectors V of the rest span a nearly invariant subspace, and the
    product of their eigenvalues of I - A is recomputed in float128 as the
    Rayleigh-Ritz ratio det(V^T (I - A) V) / det(V^T V).  Its error is
    second order in the double eigenvector error, and it does not depend on
    how eigh mixes eigenvectors inside a cluster of near-1 eigenvalues.
    """
    evals, vecs = np.linalg.eigh(A.astype(np.float64))
    near = 1.0 - evals < NEAR_ONE_GAP
    bulk = np.sum(np.log1p(-evals[~near]))
    V = vecs[:, near].astype(_LD)
    del vecs
    ritz = V.T @ (V - A @ V)
    gram = V.T @ V
    _log.info("80-bit log det: N=%d, k=%d eigenvalues within %g of 1, min(1-lambda)=%.3g",
              A.shape[0], V.shape[1], NEAR_ONE_GAP, 1.0 - evals[-1])
    try:
        ritz_logdet, gram_logdet = _cholesky_logdet_ld(ritz), _cholesky_logdet_ld(gram)
    except NumericalError as exc:
        raise NumericalError(
            f"{exc} in the 80-bit Rayleigh-Ritz step (N={A.shape[0]}, k={V.shape[1]}, "
            f"double min(1-lambda)={1.0 - evals[-1]:.3g}): 80-bit arithmetic cannot "
            "resolve a spectral gap of I - A this small") from exc
    return float(_LD(bulk) + ritz_logdet - gram_logdet)


def _logdet_extended(config: GapConfig, scheme: QuadratureScheme) -> float:
    xscheme = build_scheme(config, scheme.nodes_per_panel, scheme.tail_length, dtype=_LD)
    return _ritz_logdet(_symmetrized_matrix(xscheme))


def logdet_single(config: GapConfig, scheme: QuadratureScheme) -> float:
    """log det(I - A) at one resolution.

    LAPACK symmetric eigenvalues in double, escalating to the 80-bit path
    (float128 assembly, double eigh, float128 Rayleigh-Ritz correction of the
    eigenvalues within NEAR_ONE_GAP of 1) when the spectral gap of I - A
    falls under DEEP_GAP_THRESHOLD.  Raises NumericalError instead of
    escalating where np.longdouble is no wider than double.
    """
    A = _symmetrized_matrix(scheme)
    evals = np.linalg.eigvalsh(A)
    del A
    gap = 1.0 - evals[-1]
    if gap < DEEP_GAP_THRESHOLD:
        if not EXTENDED_PRECISION:
            raise NumericalError(
                f"spectral gap {gap:.3g} of I - A needs the 80-bit path, but "
                f"np.longdouble is plain double here (eps {np.finfo(_LD).eps:.3g})")
        return _logdet_extended(config, scheme)
    return float(np.sum(np.log1p(-evals)))


@dataclass(frozen=True)
class DeterminantReport:
    """log F plus the refinement history that produced it."""

    log_f: float
    resolutions: tuple[tuple[int, float], ...]
    converged: bool
    est_error: float


def log_det(config: GapConfig, *,
            nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
            tail_length: float | None = None,
            refine: int = 1) -> DeterminantReport:
    """log F(x; s) with `refine` node-doubling refinements.

    The report keeps every resolution; est_error is the last refinement gap
    and the run is flagged converged when it drops below 1e-8.  Every scheme
    is built before any determinant, so a finest resolution above MAX_NODES
    fails at once.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    if nodes_per_panel > specfun.MAX_RULE_ORDER >> refine:  # i.e. nodes_per_panel * 2**refine
        raise ValueError(f"refine={refine} needs rule orders above {specfun.MAX_RULE_ORDER}")
    trivial = all(v == 1.0 for v in config.s)  # zero operator: log F = 0 exactly
    schemes = [build_scheme(config, nodes_per_panel * 2 ** k, tail_length) for k in range(refine + 1)]
    resolutions = [(scheme.nodes_per_panel, 0.0 if trivial else logdet_single(config, scheme))
                   for scheme in schemes]
    est_error = abs(resolutions[-1][1] - resolutions[-2][1])
    return DeterminantReport(
        log_f=resolutions[-1][1],
        resolutions=tuple(resolutions),
        converged=bool(est_error < CONVERGENCE_TOL),
        est_error=float(est_error),
    )


def log_E(config: GapConfig, **kwargs) -> float:
    """log of the joint Laplace-type generating functional, s_1 > 0 branch."""
    if config.s[0] == 0.0:
        raise ValueError("s_1 = 0: use log_E0 for the conditioned quantity")
    return log_det(config, **kwargs).log_f


def log_E0(config: GapConfig, **kwargs) -> float:
    """log of the generating functional conditioned on an empty (x_1, inf).

    Equals log F(x; s) - log F(x_1; 0), both at matched resolution.
    """
    if config.s[0] != 0.0:
        raise ValueError("log_E0 requires s_1 = 0")
    if config.m < 2:
        raise ValueError("log_E0 requires m >= 2")
    full = log_det(config, **kwargs)
    ref = log_det(GapConfig((config.x[0],), (0.0,)), **kwargs)
    return full.log_f - ref.log_f


# ---------------------------------------------------------------------------
# resolvent diagonal and the s_m trace identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ResolventDiag:
    """Samples of the resolvent kernel diagonal R(xi, xi) on quadrature nodes."""

    xi: np.ndarray
    values: np.ndarray
    weights: np.ndarray  # plain quadrature weights of the sampled nodes

    def integral(self) -> float:
        return float(self.weights @ self.values)


def _last_interval(config: GapConfig, scheme: QuadratureScheme) -> tuple[float, float]:
    """(x_m, x_{m-1}), with x_0 = x_1 + T the truncation point of the scheme."""
    ends = (config.x[0] + scheme.tail_length,) + config.x
    return ends[-1], ends[-2]


def resolvent_diag(config: GapConfig, scheme: QuadratureScheme,
                   window: tuple[float, float]) -> ResolventDiag:
    """Diagonal of the resolvent (I - K)^(-1) K over a window in (x_m, x_{m-1}).

    The symmetrized Nystrom resolvent B = (I - A)^(-1) A maps back to kernel
    samples through R(xi_i, xi_i) = B_ii / w_plain_i.
    """
    a, b = float(window[0]), float(window[1])
    lower, upper = _last_interval(config, scheme)
    if not (lower <= a < b <= upper):
        raise ValueError(f"window must sit inside ({lower}, {upper})")
    A = _symmetrized_matrix(scheme)
    try:
        B = np.linalg.solve(np.eye(A.shape[0]) - A, A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular I - A in resolvent solve: {exc}") from exc
    mask = (scheme.xi >= a) & (scheme.xi <= b)
    values = np.diag(B)[mask] / scheme.w_plain[mask]
    return ResolventDiag(scheme.xi[mask], values, scheme.w_plain[mask])


def weight_derivative_identity_gap(config: GapConfig, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL
                                   ) -> tuple[float, float, float]:
    """Residual of d/ds_m log F = (1 - s_m)^(-1) integral of R over (x_m, x_{m-1}).

    Returns (finite_difference, resolvent_value, |difference|).  The central
    step is 1e-5 * max(s_m, 0.1), balancing truncation against determinant
    noise.
    """
    s_m = config.s[-1]
    if s_m == 1.0 or s_m == 0.0:
        raise ValueError("identity check needs s_m in (0, 1)")
    step = 1e-5 * max(s_m, 0.1)
    scheme = build_scheme(config, nodes_per_panel)
    res = resolvent_diag(config, scheme, _last_interval(config, scheme))
    resolvent_value = res.integral() / (1.0 - s_m)

    def at(sm: float) -> float:
        cfg = GapConfig(config.x, config.s[:-1] + (sm,))
        sch = build_scheme(cfg, nodes_per_panel, scheme.tail_length)
        return logdet_single(cfg, sch)

    fd = (at(s_m + step) - at(s_m - step)) / (2.0 * step)
    return fd, resolvent_value, abs(fd - resolvent_value)


# ---------------------------------------------------------------------------
# counting statistics by kernel traces
# ---------------------------------------------------------------------------

def _normalize_intervals(intervals) -> list[tuple[float, float]]:
    if np.isscalar(intervals[0]):
        intervals = [intervals]
    out = []
    for a, b in intervals:
        a = float(a)
        b = float(b)
        if not b > a:
            raise ValueError(f"empty interval ({a}, {b})")
        out.append((a, b))
    for i, (a, b) in enumerate(out):
        for c, d in out[i + 1:]:
            if max(a, c) < min(b, d):
                raise ValueError("intervals overlap")
    return out


def _set_nodes(intervals, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights; a half-line (a, inf) is cut at a + default_tail_length(a)."""
    cut = [(a, a + default_tail_length(a) if math.isinf(b) else b)
           for a, b in _normalize_intervals(intervals)]
    return _panelize(cut, nodes_per_panel)[1:3]


def mean_count(intervals, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Expected particle count on a finite union of intervals.

    Computes the trace integral of K(u, u); half-lines (a, inf) are truncated
    where the kernel has decayed below 1e-24.
    """
    xi, w = _set_nodes(intervals, nodes_per_panel)
    ai, aip = _airy_pair(xi)
    return float(w @ (aip * aip - xi * ai * ai))


def var_count(intervals, nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Variance of the particle count: tr(K 1_A) - tr((1_A K 1_A)^2)."""
    xi, w = _set_nodes(intervals, nodes_per_panel)
    K = _kernel_matrix(xi)
    linear = float(w @ np.diag(K))
    quad = float(w @ (K * K) @ w)
    return linear - quad


def cov_count(intervals_a, intervals_b,
              nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Covariance of counts on disjoint sets: -tr(1_A K 1_B K)."""
    sa = _normalize_intervals(intervals_a)
    sb = _normalize_intervals(intervals_b)
    _normalize_intervals(sa + sb)  # raises when the two sets overlap
    xa, wa = _set_nodes(sa, nodes_per_panel)
    xb, wb = _set_nodes(sb, nodes_per_panel)
    K = _kernel_matrix(xa, xb)
    return -float(wa @ (K * K) @ wb)


def cov_halflines(x1: float, x2: float,
                  nodes_per_panel: int = DEFAULT_NODES_PER_PANEL) -> float:
    """Covariance of N_(x1, inf) and N_(x2, inf) for x2 < x1.

    Splits the nested half-lines as Cov(N1, N1) + Cov(N1, N_(x2, x1)) so only
    disjoint-set traces are needed.
    """
    if not x2 < x1:
        raise ValueError("requires x2 < x1")
    return (var_count([(x1, math.inf)], nodes_per_panel)
            + cov_count([(x1, math.inf)], [(x2, x1)], nodes_per_panel))
