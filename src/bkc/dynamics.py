"""Vacuum-quench propagation and long-time averaging of entanglement data.

Every average (``time_series``, ``page_curve``, ``profiles``) takes the
``FRAME_EXACT`` route, which ``build_propagator(params, None)`` always picks:

* Away from g == delta it conjugates the exact mode rotation through the
  squeezing frame, S(t) = G^{-1} B(t) G with B(t) block-diagonal rotations
  at the frequencies J cos(pi n / (N+1)). Single-site rows come from one
  GEMM with the N x N modes; block rows need Psi2 G, the one 2N x 2N array,
  built at the first block request.
* On g == delta the bond block delta [[1, 1], [-1, -1]] is nilpotent and
  the map has a closed form. With Z the shift (Z_{j,j+1} = 1),
  T_w = (w/2)(Z^T - Z), T_c = (Z + Z^T)/2 and per-site u = (q+p)/sqrt2,
  v = (q-p)/sqrt2, the chain obeys u' = T_w u and v' = T_w v + 2 delta T_c u,
  so u(t) = U u(0) and v(t) = V u(0) + U v(0) with

      U(t) = D Psi E Psi D*,  V(t) = (2 delta / w) D Psi (E K - K E) Psi D*,

  D = diag(i^j), E = diag(e^{-i w c_n t}), c_n = cos(pi n / (N+1)), Psi the
  (symmetric) sine modes and K_nm = a_nm / (c_m - c_n), K_nn = 0, with
  a = Psi (Z - Z^T) Psi / 2. Both stay bounded in t. The rows returned are
  those of W = S(t) P, P = [[1, 1], [1, -1]] / sqrt2 per site, so
  W W^T = S S^T: whole-site entropies and Gram blocks are the lab ones.

``LAB_EXPONENTIAL`` exponentiates the equation-of-motion generator M densely
(Padé-13 scaling and squaring in numpy), one expm per time. ``evolve`` and
``build_propagator`` use it on request: it is the oracle of the tests, and no
average reaches it.

One sampler draws the grid in chunks of consecutive indices: a chunk holds
at most ``_CHUNK_BYTES`` of entropy-map rows (and the arrays that reducing
them needs), never crosses a convergence check, and is one stacked call for
the rows and one batched factorization for their entropies. Its rows go
into one buffer that the thread reuses from chunk to chunk and from one
average to the next. No average builds the full map S(t).

The covariance of the evolved vacuum is sigma(t) = S(t) S(t)^T.
"""
from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import OVERFLOW_LIMIT, NonConvergence, OverflowGuard
from .gaussian import (
    CovarianceMatrix,
    quadrature_indices,
    site_correlators,
    subsystem_entropy_from_rows,
    thermal_entropy,
)
from .model import (
    ModelParams,
    PhaseRegime,
    SqueezingFrame,
    bdg_matrices,
    classify_phase,
    frame_hopping_sign,
    squeezing_frame,
    tight_binding_spectrum,
)

# Memory budget of one chunk of samples: its map rows plus the arrays of the
# same size that factoring them needs (``stacks`` in _sample).
_CHUNK_BYTES = 4 * 2 ** 20
# This thread's spare rows buffer, reused by the next average; see _sample.
_spare_rows = threading.local()
# P per site: (q, p) -> (u, v) = ((q+p), (q-p)) / sqrt2, its own inverse.
_HALF_TURN = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class PropagationMode(enum.Enum):
    """Route of a Propagator.

    ``FRAME_EXACT``: the exact mode rotation in the squeezing frame, or on
    g == delta the closed form; every average takes it. ``LAB_EXPONENTIAL``:
    a dense matrix exponential of the generator per time, the oracle.
    """

    FRAME_EXACT = "frame"
    LAB_EXPONENTIAL = "lab"


@dataclass(frozen=True)
class AveragingProtocol:
    """Deterministic late-time sampling grid and convergence policy.

    Samples are taken at t_k = t_min + k dt. The estimate starts from
    ``initial_samples`` values and is extended in ``batch_samples`` steps
    until the standard error of the mean drops below ``rel_threshold``
    times |mean|, or ``max_samples`` is reached (NonConvergence).
    """

    t_min: float
    dt: float
    initial_samples: int = 1000
    batch_samples: int = 500
    max_samples: int = 20000
    rel_threshold: float = 1e-3

    def __post_init__(self):
        if self.t_min < 0 or self.dt <= 0:
            raise ValueError("need t_min >= 0 and dt > 0")
        if not 0 < self.initial_samples <= self.max_samples:
            raise ValueError("initial_samples must be in (0, max_samples]")
        if self.batch_samples <= 0 or self.rel_threshold <= 0:
            raise ValueError("batch_samples and rel_threshold must be positive")

    @classmethod
    def for_params(cls, params: ModelParams, **overrides) -> "AveragingProtocol":
        """Late-time grid scaled by the effective hopping: t_min = 10 N / J, dt = 10 / J."""
        hop = params.hopping
        kwargs = {"t_min": 10.0 * params.n_sites / hop, "dt": 10.0 / hop}
        kwargs.update(overrides)
        return cls(**kwargs)

    def time(self, k: int) -> float:
        return self.t_min + k * self.dt

    def times(self, k0: int, k1: int) -> np.ndarray:
        """Grid times t_k for k0 <= k < k1, equal to ``time(k)`` bit for bit."""
        return self.t_min + np.arange(k0, k1) * self.dt


@dataclass(frozen=True, eq=False)
class TimeAverageResult:
    """Converged (or capped) time average of a scalar entanglement quantity."""

    mean: float
    stderr: float
    n_samples: int
    converged: bool
    values: np.ndarray = field(repr=False)


# Padé-13 numerator coefficients and the 1-norm up to which r_13(A) is exp(A)
# to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152
# Entries below this are flushed to zero. A GEMM slows by an order of
# magnitude on subnormal operands and on products that underflow into the
# subnormal range; the product of two entries above 2^-511 never does. The
# maps exponentiated here are symplectic (norm >= 1), so what is dropped lies
# far below rounding.
_FLUSH_BELOW = 2.0 ** -511


def _flush_small(mat: np.ndarray) -> np.ndarray:
    mag = np.abs(mat)
    mat[mag < _FLUSH_BELOW] = 0.0
    return mag


def _expm(mat: np.ndarray) -> np.ndarray:
    """exp(mat) by Padé-13 scaling and squaring, with tiny entries flushed to zero.

    Overflow is left as inf or NaN entries, which _check_finite rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(mat, 1))
        if not norm < math.inf:
            return np.full_like(mat, math.inf)
        squarings = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
        a = mat / 2.0 ** squarings
        b = _PADE_13
        ident = np.eye(a.shape[0])
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
        out = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            if not _flush_small(out).max() < math.inf:
                break
            out = out @ out
        _flush_small(out)
    return out


def _check_finite(arr: np.ndarray, t) -> np.ndarray:
    # max and min propagate NaN, so two reductions cover every entry
    # without a temporary array of the stack's size
    peak = max(float(arr.max()), -float(arr.min()))
    if not peak <= OVERFLOW_LIMIT:
        raise OverflowGuard(f"propagation overflowed float64 range at t = {t}")
    return arr


def _critical_columns(params: ModelParams, modes: np.ndarray,
                      cosines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The g == delta map's precomputed columns, one N x 2h array per site parity.

    Columns k of parity p (h of them) hold [kappa_k Psi[:, k] | kappa_k Phi[:, k]]
    with kappa_k = (-1)^floor(k/2) and Phi = (2 delta / w) K Psi. K is
    symmetric (a is antisymmetric, and so is c_m - c_n), so the second term
    of V reads Phi as well: (Psi K)_jn = Phi_nj.
    """
    n = params.n_sites
    hop = modes[:, :-1] @ modes[:, 1:].T
    gap = cosines[None, :] - cosines[:, None]
    k_mat = np.divide(0.5 * (hop - hop.T), gap, out=np.zeros((n, n)),
                      where=~np.eye(n, dtype=bool))
    coupled = (2.0 * params.delta / params.w) * (k_mat @ modes)
    kappa = 1.0 - 2.0 * (np.arange(n) // 2 % 2)
    return tuple(np.hstack([modes[:, p::2] * kappa[p::2], coupled[:, p::2] * kappa[p::2]])
                 for p in (0, 1))


class Propagator:
    """Symplectic map of the quench, sampled at arbitrary times."""

    def __init__(self, params: ModelParams, mode: PropagationMode):
        self.params = params
        self.mode = mode
        self.generator: np.ndarray | None = None
        self.frame: SqueezingFrame | None = None
        if mode is PropagationMode.LAB_EXPONENTIAL:
            h, omega = bdg_matrices(params)
            self.generator = omega @ h
            return
        spectrum = tight_binding_spectrum(params)
        if classify_phase(params) is PhaseRegime.CRITICAL:
            n = params.n_sites
            cosines = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
            self.frequencies = params.w * cosines
            self.columns = _critical_columns(params, spectrum.modes, cosines)
        else:
            self.frame = squeezing_frame(params)
            self.modes = spectrum.modes
            # +-J cos(pi n / (N+1)) with the frame's hopping sign; halving is exact
            self.frequencies = (-0.5 * frame_hopping_sign(self.frame)) * spectrum.energies

    @functools.cached_property
    def mode_map(self) -> np.ndarray:
        """Psi2 G, the one 2N x 2N array of the frame route; built at the first block request.

        With Psi2 = modes (x) I2 and G block diagonal, entry (2i+a, 2j+b) is
        the single product modes[i, j] G_j[a, b], so this equals the dense
        product bit for bit.
        """
        n = self.params.n_sites
        return (self.modes[:, None, :, None]
                * self.frame.site_factors.transpose(1, 0, 2)).reshape(2 * n, 2 * n)

    def _mode_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows of Psi2^T: row 2j+b holds modes[i, j] at column 2i+b, zeros elsewhere."""
        n = self.params.n_sites
        out = np.zeros((rows.size, n, 2))
        out[np.arange(rows.size), :, rows % 2] = self.modes[:, rows // 2].T
        return out.reshape(rows.size, 2 * n)

    def _site_rows(self, site: int, times: np.ndarray, out: np.ndarray) -> None:
        """Rows 2j, 2j+1 of W(t) = Psi2^T B(t) G for j = ``site`` at every time, into
        ``out`` (K x 2 x 2N).

        With C_jk, S_jk = sum_i m_ij m_ik (cos, sin)(omega_i t), one GEMM of the
        weighted mode column with the modes, row 2j holds C_jk G_k[0] +
        S_jk G_k[1] and row 2j+1 holds C_jk G_k[1] - S_jk G_k[0].
        """
        n, k = self.params.n_sites, times.size
        weights = np.empty((2, k, n))
        phase = np.multiply.outer(times, self.frequencies, out=weights[1])
        np.cos(phase, out=weights[0])
        np.sin(phase, out=weights[1])
        weights *= self.modes[:, site]
        cos_part, sin_part = (weights.reshape(2 * k, n) @ self.modes).reshape(2, k, n)
        # one (K, N) slice per output column keeps the inner loops N long; the
        # weights are spent, so their two halves serve as the scratch
        factor = np.ascontiguousarray(self.frame.site_factors.transpose(1, 2, 0))
        left, right = weights
        out = out.reshape(k, 2, n, 2)   # a view: out is C-contiguous
        for b in range(2):
            np.multiply(cos_part, factor[0, b], out=left)
            np.multiply(sin_part, factor[1, b], out=right)
            np.add(left, right, out=out[:, 0, :, b])
            np.multiply(cos_part, factor[1, b], out=left)
            np.multiply(sin_part, factor[0, b], out=right)
            np.subtract(left, right, out=out[:, 1, :, b])

    def _critical_rows(self, sites: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
        """Rows 2j, 2j+1 of W(t) = S(t) P for every j in ``sites`` at every time, into
        ``out`` (K x 2l x 2N), on g == delta.

        U_jk = kappa_j kappa_k times C_jk if j = k mod 2, +S_jk if j is odd and
        k even, -S_jk if j is even and k odd, with (C, S)_jk = sum_n psi_nj
        psi_nk (cos, sin)(w c_n t); V follows the same rule with psi_nj Phi_nk
        - Phi_nj psi_nk in the sums. So the columns of parity p take the cosine
        weights of the sites of parity p and the +-sine weights of the others:
        per parity one GEMM with [kappa Psi_p | kappa Phi_p] gives U and the
        first term of V, one with kappa Psi_p the second. Row 2j is
        (U_jk + V_jk, U_jk) / sqrt2 and row 2j+1 (U_jk - V_jk, -U_jk) / sqrt2 in
        the per-site (u, v) columns.
        """
        n, k, l = self.params.n_sites, times.size, sites.size
        parity = sites % 2
        # each site's psi and Phi columns, with the 1/sqrt2 of the rows folded in
        scale = 1.0 / math.sqrt(2.0)
        psi_w, phi_w = np.empty((l, n)), np.empty((l, n))
        for p, cols in enumerate(self.columns):
            half, idx = cols.shape[1] // 2, sites[parity == p] // 2
            psi_w[parity == p] = scale * cols[:, idx].T
            phi_w[parity == p] = scale * cols[:, half + idx].T
        trig = np.empty((k, 3, n))   # cos, sin, -sin
        np.multiply.outer(times, self.frequencies, out=trig[:, 2])
        np.cos(trig[:, 2], out=trig[:, 0])
        np.sin(trig[:, 2], out=trig[:, 1])
        np.negative(trig[:, 1], out=trig[:, 2])
        weights = np.empty((2, k, l, n))
        out = out.reshape(k, l, 2, n, 2)   # a view: out is C-contiguous
        for p, cols in enumerate(self.columns):
            half = cols.shape[1] // 2
            # own parity: cos; an odd site into even columns: +sin; even into odd: -sin
            np.take(trig, np.where(parity == p, 0, 2 - parity), axis=1, out=weights[0])
            np.multiply(weights[0], phi_w, out=weights[1])
            weights[0] *= psi_w
            u_v1 = weights[0].reshape(k * l, n) @ cols
            v_part = u_v1[:, half:]
            v_part -= weights[1].reshape(k * l, n) @ cols[:, :half]
            u_part = u_v1[:, :half].reshape(k, l, half)
            v_part = v_part.reshape(k, l, half)
            np.add(u_part, v_part, out=out[:, :, 0, p::2, 0])
            out[:, :, 0, p::2, 1] = u_part
            np.subtract(u_part, v_part, out=out[:, :, 1, p::2, 0])
            np.negative(u_part, out=out[:, :, 1, p::2, 1])

    def _rotated_map(self, t: float) -> np.ndarray:
        """B(t) G without materializing B: paired-row rotation of G, written in place."""
        cos_t = np.cos(self.frequencies * t)[:, None]
        sin_t = np.sin(self.frequencies * t)[:, None]
        pairs = self.mode_map.reshape(cos_t.size, 2, -1)
        out = np.empty_like(pairs)
        scratch = sin_t * pairs[:, 1]
        np.multiply(cos_t, pairs[:, 0], out=out[:, 0])
        out[:, 0] += scratch
        np.multiply(sin_t, pairs[:, 0], out=scratch)
        np.multiply(cos_t, pairs[:, 1], out=out[:, 1])
        out[:, 1] -= scratch
        return out.reshape(self.mode_map.shape)

    def symplectic(self, t: float) -> np.ndarray:
        """Full quadrature map S(t) with sigma(t) = S S^T from the vacuum."""
        n = self.params.n_sites
        if t == 0.0:
            return np.eye(2 * n)
        if self.mode is PropagationMode.LAB_EXPONENTIAL:
            return _check_finite(_expm(self.generator * t), float(t))
        w_map = self.entropy_map(t)
        if self.frame is None:
            # S = W P, and P is its own inverse
            return (w_map.reshape(-1, 2) @ _HALF_TURN).reshape(2 * n, 2 * n)
        # S = F^-1 W(t), one 2 x 2 site factor per pair of rows
        w_rows = w_map.reshape(n, 2, 2 * n)
        return _check_finite((self.frame.inverse_factors() @ w_rows).reshape(2 * n, 2 * n),
                             float(t))

    def subsystem_rows(self, t: float, rows: np.ndarray) -> np.ndarray:
        """Rows of S(t) for the quadratures listed in ``rows``."""
        return self.symplectic(t)[rows]

    def entropy_map(self, t: float) -> np.ndarray:
        """Every row of entropy_rows(t); see that method for the frame choice."""
        return self.entropy_rows(t, np.arange(2 * self.params.n_sites))

    def entropy_rows(self, t, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Rows of a quadrature map whose state has the subsystem entropies of S(t).

        Away from g == delta the frame route returns rows of
        W(t) = Psi2^T B(t) G = F S(t), i.e. the evolved state written in the
        squeezing frame F. Site blocks of W W^T differ from the lab ones only
        by per-site symplectic factors, which leave every whole-site
        subsystem entropy unchanged but strip the e^{r (j - j0)}
        local-squeezing amplification. Without that rescaling the lab-frame
        site blocks at large N carry entries so far above the symplectic
        eigenvalues that the eigensolver's floating-point floor swallows the
        entropy entirely. On g == delta it returns rows of W = S(t) P, whose
        site blocks of W W^T are the lab ones (module docstring). The lab
        route returns rows of S(t) itself, one expm per time.

        ``t`` is a time, which gives the 2l x 2N rows, or a 1-D array of K
        times, which gives a K x 2l x 2N stack; a time is a batch of one. On
        the frame route a single site takes its mode sums C and S for the
        whole stack from one GEMM with the N x N modes and scales them by
        the 2 x 2 site factors of G (``_site_rows``); larger blocks keep the
        per-time order Psi2^T[rows] (B(t) G), which the 1e-12 references fix
        for the ill-conditioned g = 0 quarter. ``out``, a C-contiguous
        K x 2l x 2N array, receives the stack instead of a new array.
        """
        times = np.atleast_1d(np.asarray(t, dtype=float))
        shape = (times.size, rows.size, 2 * self.params.n_sites)
        if out is None:
            stack = np.empty(shape)
        elif out.shape == shape and out.flags.c_contiguous:
            stack = out
        else:
            raise ValueError(f"out must be a C-contiguous {shape} array, got {out.shape}")
        if self.mode is PropagationMode.LAB_EXPONENTIAL:
            for i, s in enumerate(times):
                stack[i] = self.symplectic(s)[rows]
        elif self.frame is None:
            sites = rows[::2] // 2
            if np.array_equal(rows, (2 * sites[:, None] + [0, 1]).ravel()):
                self._critical_rows(sites, times, stack)
            else:
                # rows that are not whole sites: take them from their sites' pairs
                pairs = np.empty((times.size, 2 * rows.size, shape[2]))
                self._critical_rows(rows // 2, times, pairs)
                stack[:] = pairs[:, 2 * np.arange(rows.size) + rows % 2]
        elif rows.size == 2 and rows[0] % 2 == 0 and rows[1] == rows[0] + 1:
            self._site_rows(rows[0] // 2, times, stack)
        else:
            factor = self._mode_rows(rows)
            for i, s in enumerate(times):
                np.matmul(factor, self._rotated_map(s), out=stack[i])
        _check_finite(stack, (float(times[0]), float(times[-1])))
        return stack if np.ndim(t) else stack[0]


@functools.lru_cache(maxsize=32)
def build_propagator(params: ModelParams, mode: PropagationMode | None = None) -> Propagator:
    """Construct (and memoize) the propagator for these couplings.

    ``mode=None`` is ``FRAME_EXACT``, which covers every regime.
    """
    return Propagator(params, mode or PropagationMode.FRAME_EXACT)


def evolve(params: ModelParams, t: float, mode: PropagationMode | None = None) -> CovarianceMatrix:
    """Covariance of the evolved vacuum at time t."""
    s_mat = build_propagator(params, mode).symplectic(t)
    return CovarianceMatrix(s_mat @ s_mat.T)


def lab_exponential_evolve(params: ModelParams, t: float) -> CovarianceMatrix:
    """Covariance at time t computed through expm only; works in every regime."""
    return evolve(params, t, PropagationMode.LAB_EXPONENTIAL)


def _standard_error(values: np.ndarray) -> np.ndarray:
    """Standard error of the mean along axis 0; inf with fewer than two samples."""
    if values.shape[0] < 2:
        return np.full(values.shape[1:], math.inf)
    return values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def _converge_series(sample, protocol: AveragingProtocol) -> tuple[np.ndarray, bool]:
    """Extend the series batchwise until every component meets the protocol target.

    ``sample(k0, k1)`` returns the values at grid indices k0 <= k < k1
    along axis 0, a scalar or a vector per index. Each call is one draw:
    the initial samples, then one batch per failed convergence check.
    """
    parts: list[np.ndarray] = []
    drawn = 0
    target = protocol.initial_samples
    while True:
        parts.append(sample(drawn, target))
        drawn = target
        arr = np.concatenate(parts)
        if np.all(_standard_error(arr) <= protocol.rel_threshold * np.abs(arr.mean(axis=0))):
            return arr, True
        if drawn >= protocol.max_samples:
            return arr, False
        target = min(drawn + protocol.batch_samples, protocol.max_samples)


def _take_rows_buffer(size: int) -> np.ndarray:
    """A flat float64 buffer of at least ``size`` entries: the thread's spare or a new one.

    The spare is handed out once, so an average run inside a ``reduce``
    gets a buffer of its own.
    """
    buffer = getattr(_spare_rows, "buffer", None)
    _spare_rows.buffer = None
    return buffer if buffer is not None and buffer.size >= size else np.empty(size)


def _keep_rows_buffer(buffer: np.ndarray) -> None:
    """Keep ``buffer`` as the thread's spare if it fits the rows share of
    _CHUNK_BYTES and is larger than the spare already kept."""
    spare = getattr(_spare_rows, "buffer", None)
    if 2 * buffer.nbytes <= _CHUNK_BYTES and (spare is None or spare.size < buffer.size):
        _spare_rows.buffer = buffer


def _sample(params: ModelParams, subsystem, reduce, protocol: AveragingProtocol | None,
            stacks: int = 2) -> tuple[np.ndarray, bool]:
    """Sampler behind every average: ``reduce`` of the subsystem's rows on the grid.

    ``reduce`` maps a K x 2l x 2N stack of entropy-map rows to K values (a
    scalar or an array each). Returns the values and whether they
    converged. The propagator is ``build_propagator(params, None)``, the
    key under which it is cached.

    A draw is taken in chunks that fit ``stacks`` arrays of a chunk's size
    (by default the rows and their QR copy) in _CHUNK_BYTES. Every chunk
    writes its rows into one buffer, which the thread keeps for its next
    average (``_take_rows_buffer``), and the reduced values are copied out
    before the next chunk. A new multi-MiB array per chunk or per average,
    freed before the next, lets the allocator hand its pages back to the
    system, and faulting them in again is slow, varies with the load on the
    machine and, through the allocator's state, with the order of the
    averages.
    """
    if protocol is None:
        protocol = AveragingProtocol.for_params(params)
    rows = quadrature_indices(subsystem, params.n_sites)
    if rows.size == 0:
        raise ValueError("subsystem must contain at least one site")
    prop = build_propagator(params, None)
    width = rows.size * 2 * params.n_sites
    chunk = max(1, _CHUNK_BYTES // (stacks * width * 8))

    def draw(k0: int, k1: int) -> np.ndarray:
        buffer = _take_rows_buffer(chunk * width)
        values = []
        try:
            for c0 in range(k0, k1, chunk):
                c1 = min(k1, c0 + chunk)
                out = buffer[:(c1 - c0) * width].reshape(c1 - c0, rows.size, -1)
                stack = prop.entropy_rows(protocol.times(c0, c1), rows, out=out)
                # reduce may return a view of the rows, which the next chunk overwrites
                values.append(np.array(reduce(stack)))
        finally:
            _keep_rows_buffer(buffer)
        return np.concatenate(values)

    return _converge_series(draw, protocol)


def time_series(
    params: ModelParams,
    subsystem,
    reduce,
    protocol: AveragingProtocol | None = None,
) -> TimeAverageResult:
    """Average of ``reduce`` over the entropy-map rows of ``subsystem`` on the grid.

    ``reduce`` maps a K x 2l x 2N stack of rows to K values. Sampling
    follows the protocol; the result says whether it converged.
    """
    values, converged = _sample(params, subsystem, reduce, protocol)
    return TimeAverageResult(mean=float(values.mean()), stderr=float(_standard_error(values)),
                             n_samples=int(values.size), converged=converged, values=values)


def time_averaged_entropy(
    params: ModelParams,
    subsystem,
    protocol: AveragingProtocol | None = None,
) -> TimeAverageResult:
    """Long-time average of the entanglement entropy of ``subsystem``.

    ``subsystem`` is an iterable of 0-based site indices. Raises
    NonConvergence (with the partial estimate attached) if the sample cap
    is reached first.
    """
    result = time_series(params, subsystem, subsystem_entropy_from_rows, protocol)
    if not result.converged:
        raise NonConvergence(
            f"entropy mean not converged after {result.n_samples} samples", result=result
        )
    return result


def series_fluctuation_ratio(values) -> float:
    """RMS fluctuation of a series about its mean, relative to the mean."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or arr.mean() == 0.0:
        raise ValueError("fluctuation ratio needs a nonzero-mean series")
    return float(arr.std(ddof=0) / abs(arr.mean()))


def fluctuation_ratio(
    params: ModelParams,
    subsystem,
    protocol: AveragingProtocol | None = None,
) -> float:
    """Relative RMS of the entropy time series on the converged sample set."""
    result = time_averaged_entropy(params, subsystem, protocol)
    return series_fluctuation_ratio(result.values)


@dataclass(frozen=True, eq=False)
class PageCurve:
    """Time-averaged entropy of every left block, sharing one sample grid."""

    lengths: np.ndarray
    entropies: np.ndarray
    stderrs: np.ndarray
    n_samples: int
    converged: bool


def page_curve(
    params: ModelParams,
    protocol: AveragingProtocol | None = None,
) -> PageCurve:
    """Entropy of the leftmost l sites for every cut l = 1..N-1.

    All cuts share the same deterministic time grid; sampling stops when
    every cut individually meets the protocol target. One QR per sample,
    W^T = Q R, serves every cut: R[:2l, :2l]^T has the Gram matrix of W[:2l]
    (QR column-prefix property), and its own QR returns it unchanged.
    """
    n = params.n_sites
    lengths = np.arange(1, n)

    def reduce(stack: np.ndarray) -> np.ndarray:
        r_mat = np.linalg.qr(np.swapaxes(stack, -1, -2), mode="r")
        return np.stack([subsystem_entropy_from_rows(np.swapaxes(r_mat[:, :2 * l, :2 * l], -1, -2))
                         for l in lengths], axis=1)

    # a chunk holds its rows, their QR copy, R and the per-cut temporaries
    values, converged = _sample(params, range(n), reduce, protocol, stacks=8)
    curve = PageCurve(lengths=lengths, entropies=values.mean(axis=0),
                      stderrs=_standard_error(values), n_samples=values.shape[0],
                      converged=converged)
    if not converged:
        raise NonConvergence(
            f"page curve not converged after {values.shape[0]} samples", result=curve
        )
    return curve


@dataclass(frozen=True, eq=False)
class SiteProfiles:
    """Site-resolved time averages from one shared sampling run.

    ``occupations`` and ``pair_amplitudes`` are the site correlators of the
    time-averaged covariance; ``mean_blocks`` holds its 2x2 site blocks.
    """

    entropies: np.ndarray
    stderrs: np.ndarray
    occupations: np.ndarray
    pair_amplitudes: np.ndarray
    mean_blocks: np.ndarray
    n_samples: int
    converged: bool

    def thermal_entropies(self) -> np.ndarray:
        """Thermal proxy per site: entropy of a thermal mode at the same density.

        The densities are the lab-frame occupations of the time-averaged
        covariance. Entropy is concave and a thermal mode has the largest
        entropy at a given occupation, so the proxy bounds the time-averaged
        ``entropies`` from above at every site; deep in the non-reciprocal
        phase the occupations follow the e^(2r|j - j0|) squeezing profile
        and the proxy rises by 2r per site away from the frame centre j0.
        """
        return np.array([thermal_entropy(max(n, 0.0)) for n in self.occupations])


def profiles(
    params: ModelParams,
    protocol: AveragingProtocol | None = None,
) -> SiteProfiles:
    """Single-site entropy and averaged correlators for every site.

    Each chunk of entropy maps W gives the site entropies in one batched
    factorization and adds its site Gram blocks W_j W_j^T into one sum. Away
    from g == delta W = F S, so the averaged lab blocks F_j^-1 Xbar_j F_j^-T
    are mapped once from the averaged Gram Xbar_j, which keeps more digits
    than mapping every sample's rows to the lab frame first. On g == delta
    W = S P and the Gram blocks are the lab ones.
    """
    n = params.n_sites
    gram_sum = np.zeros((n, 2, 2))

    def reduce(stack: np.ndarray) -> np.ndarray:
        site_rows = stack.reshape(-1, n, 2, 2 * n)
        gram_sum[:] += np.einsum("knar,knbr->nab", site_rows, site_rows)
        return subsystem_entropy_from_rows(stack.reshape(-1, 2, 2 * n)).reshape(-1, n)

    values, converged = _sample(params, range(n), reduce, protocol)
    mean_blocks = gram_sum / values.shape[0]
    frame = build_propagator(params, None).frame
    if frame is not None:
        inverse = frame.inverse_factors()
        mean_blocks = inverse @ mean_blocks @ inverse.transpose(0, 2, 1)
    occs = np.empty(n)
    pairs = np.empty(n, dtype=complex)
    for j in range(n):
        occs[j], pairs[j] = site_correlators(mean_blocks[j], 0)
    result = SiteProfiles(entropies=values.mean(axis=0), stderrs=_standard_error(values),
                          occupations=occs, pair_amplitudes=pairs, mean_blocks=mean_blocks,
                          n_samples=values.shape[0], converged=converged)
    if not converged:
        raise NonConvergence(
            f"site profiles not converged after {values.shape[0]} samples", result=result
        )
    return result
