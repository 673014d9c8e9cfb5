"""Vacuum-quench propagation and long-time averaging of entanglement data.

Every average takes the ``FRAME_EXACT`` route, which
``build_propagator(params, None)`` always picks:

* Away from g == delta it conjugates the exact mode rotation through the
  squeezing frame, S(t) = G^{-1} B(t) G with B(t) block-diagonal rotations
  at the frequencies J cos(pi n / (N+1)). A single site takes its mode sums
  from one phase per +-omega pair of this chiral spectrum and two GEMMs with
  halves of the N x N modes; its averages square them into the site's 2 x 2
  Gram block (no rows, no QR). Block rows keep one phase per mode and need
  Psi2 G, the one 2N x 2N array, built at the first block request.
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
  Entropies need no rows: in (u, v), S = [[U, 0], [V, U]] with U orthogonal,
  and S J S^T = J makes H = V U^T symmetric. A block A has
  sigma_A = [[I, H_AA], [H_AA, I + V_A V_A^T]], and the shear
  v_A -> v_A - H_AA u_A, symplectic as H_AA is symmetric, takes it to
  diag(I, I + Y Y^T) with Y = V_A - H_AA U_A. So nu^2 = 1 + eig(Y Y^T), one
  l x l eigensolve.

The package has no matrix exponential: the tests check both forms against
``scipy.linalg.expm`` of the generator Omega h.

One sampler, the door of every average, checks the sites (``site_indices``) and
the grid (``_check_grid``); the averages extend its draw until it converges,
``log_correction`` takes one. Entropy averages and ``log_correction`` take
``Propagator.spectrum``, the one place that picks a route. On both routes a cut of
more than N/2 sites takes its complement's spectrum (the state is pure,
``_route_sites``); the rest take a frame site's Gram block, a frame block's rows and
QR (as ``subsystem_entropy_from_rows``) or the shear on g == delta. Page curves
(l > N/2 too), profiles and ``time_series`` reduce the rows of the sites asked for,
``entropy_rows``. No average builds the full map S(t). A draw runs in chunks of
consecutive grid indices, one ``evaluate`` call each and none across a convergence
check, that hold at most ``_CHUNK_BYTES`` of rows (and what reducing them needs):
the 2l rows reduced, or those of the min(l, N - l) sites the route reads. A chunk
is a grid batch, k0 <= k < k1: with k = a B + b (B = 32), single sites and the
g == delta route take e^{i omega t_k} = e^{i omega t_aB} e^{i omega b dt} from
float64 trig at the anchors t_aB, a table of the offsets made once per average, and
angle addition (``_phases``). So a phase depends on its grid index alone, never on
the chunk. Explicit times and frame block rows keep the trig of fl(omega t).

The covariance of the evolved vacuum is sigma(t) = S(t) S(t)^T.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, within_limit
from .gaussian import (
    OMEGA2,
    _entropy_from_spectrum,
    _gram_nu,
    entropy_from_factor,
    entropy_kernel,
    site_correlators,
    site_indices,
    subsystem_entropy_from_rows,
    symplectic_eigenvalues_from_rows,
)
from .model import (
    ModelParams,
    PhaseRegime,
    SqueezingFrame,
    classify_phase,
    frame_hopping_sign,
    squeezing_frame,
    tight_binding_spectrum,
)

# Memory budget of one chunk of samples: its map rows plus the arrays of the
# same size that factoring them needs (``stacks`` in _sampler).
_CHUNK_BYTES = 4 * 2 ** 20
# P per site: (q, p) -> (u, v) = ((q+p), (q-p)) / sqrt2, its own inverse.
_HALF_TURN = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# Absolute stderr floor of the stopping rule (AveragingProtocol).
_STDERR_FLOOR = 1e-12
# Grid stride B between anchors of direct trig; offsets b < B share one table (_phases).
_ANCHOR_STRIDE = 32
# Largest rounding J t eps of a grid phase, rad, that a sampled grid may have.
_PHASE_RESOLUTION = 1e-6


class PropagationMode(enum.Enum):
    """Route of a Propagator: only ``FRAME_EXACT``, the frame's mode rotation or on g == delta
    the closed form. ``Propagator.mode`` stays for the benchmark's tracer, not the run records."""

    FRAME_EXACT = "frame"


@dataclass(frozen=True)
class AveragingProtocol:
    """Deterministic late-time sampling grid and convergence policy.

    Samples are taken at t_k = t_min + k dt. The estimate starts from
    ``initial_samples`` values and is extended in ``batch_samples`` steps
    until the standard error of the mean drops below the larger of
    ``rel_threshold`` times |mean| and an absolute floor of 1e-12, or
    ``max_samples`` is reached (NonConvergence). The floor is a module
    constant, not a field, at the rounding level of an entropy: at
    delta == 0 the vacuum stays the vacuum, and every entropy is noise of
    about 1e-15 with no relative error to reach. An entropy that is not
    rounding noise has a far larger relative target. ``_check_grid`` rejects, in
    ``for_params`` and in every average, grids whose last time t has J t 2^-52 >
    1e-6 rad: |omega| <= J, so past that a float64 phase keeps too few digits.
    """

    t_min: float
    dt: float
    initial_samples: int = 1000
    batch_samples: int = 500
    max_samples: int = 20000
    rel_threshold: float = 1e-3

    def __post_init__(self):
        if not (0 <= self.t_min < math.inf and 0 < self.dt < math.inf):
            raise ValueError("need finite t_min >= 0 and finite dt > 0")
        if not 0 < self.initial_samples <= self.max_samples:
            raise ValueError("initial_samples must be in (0, max_samples]")
        if self.batch_samples <= 0 or not 0 < self.rel_threshold < math.inf:
            raise ValueError("need batch_samples > 0 and finite rel_threshold > 0")

    @classmethod
    def for_params(cls, params: ModelParams, **overrides) -> "AveragingProtocol":
        """Late-time grid scaled by the effective hopping: t_min = 10 N / J, dt = 10 / J."""
        hop = params.hopping
        kwargs = {"t_min": 10.0 * params.n_sites / hop, "dt": 10.0 / hop}
        kwargs.update(overrides)
        return _check_grid(cls(**kwargs), params)

    def time(self, k: int) -> float:
        return self.t_min + k * self.dt

    def times(self, k0: int, k1: int) -> np.ndarray:
        """Grid times t_k for k0 <= k < k1, equal to ``time(k)`` bit for bit."""
        return self.t_min + np.arange(k0, k1) * self.dt


def _check_grid(protocol: AveragingProtocol, params: ModelParams) -> AveragingProtocol:
    """``protocol``, unless its last phase J t rounds by more than ``_PHASE_RESOLUTION``."""
    slip = params.hopping * protocol.time(protocol.max_samples - 1) * 2.0 ** -52
    if slip > _PHASE_RESOLUTION:
        raise ValueError(f"grid phases past float64 resolution: J t eps = {slip:.3g} rad")
    return protocol


class _GridBatch:
    """Grid indices k0 <= k < k1 of one chunk, their ``protocol.times`` and the average's
    ``offsets``: cos and sin of omega b dt, 2 x B x m, by m."""

    def __init__(self, protocol: AveragingProtocol, k0: int, k1: int, offsets: dict):
        self.protocol, self.k0, self.k1, self.offsets = protocol, k0, k1, offsets
        self.times, self.size = protocol.times(k0, k1), k1 - k0

    def __getitem__(self, i):
        return self.times[i]


def _as_times(t):
    """``t`` as K times: a ``_GridBatch`` as it is, one time or many as a 1-D float array."""
    return t if isinstance(t, _GridBatch) else np.atleast_1d(np.asarray(t, dtype=float))


def _phases(frequencies: np.ndarray, times) -> np.ndarray:
    """cos and sin of omega t for the m ``frequencies`` at every time, 2 x K x m: trig of
    fl(omega t), or a ``_GridBatch``'s anchored rotations (module docstring). A batch's
    average keeps one offset table, made at its first use, per m."""
    if not isinstance(times, _GridBatch):
        phase = np.multiply.outer(times, frequencies)
        return np.stack([np.cos(phase), np.sin(phase)])
    m, grid = frequencies.size, times.protocol
    anchors = np.arange(times.k0 // _ANCHOR_STRIDE, (times.k1 - 1) // _ANCHOR_STRIDE + 1)
    anchor_times = grid.t_min + anchors * _ANCHOR_STRIDE * grid.dt
    cos_a, sin_a = _phases(frequencies, anchor_times)[:, :, None]
    if m not in times.offsets:
        times.offsets[m] = _phases(frequencies, np.arange(_ANCHOR_STRIDE) * grid.dt)
    cos_b, sin_b = times.offsets[m]
    out, scratch = np.empty((2, anchors.size, _ANCHOR_STRIDE, m)), np.multiply(sin_a, sin_b)
    np.subtract(np.multiply(cos_a, cos_b, out=out[0]), scratch, out=out[0])
    np.add(np.multiply(sin_a, cos_b, out=out[1]), np.multiply(cos_a, sin_b, out=scratch), out=out[1])
    first = anchors[0] * _ANCHOR_STRIDE
    return out.reshape(2, -1, m)[:, times.k0 - first:times.k1 - first]


@dataclass(frozen=True, eq=False)
class TimeAverageResult:
    """Converged (or capped) time average of a scalar entanglement quantity."""

    mean: float
    stderr: float
    n_samples: int
    converged: bool
    values: np.ndarray = field(repr=False)


def _route_sites(sites: np.ndarray, n: int) -> np.ndarray:
    """The sites ``Propagator.spectrum`` reads for a cut: past N/2 its complement (purity)."""
    return np.setdiff1d(np.arange(n), sites) if 2 * sites.size > n else sites


def _critical_columns(params: ModelParams, modes: np.ndarray,
                      cosines: np.ndarray) -> np.ndarray:
    """The g == delta map's precomputed columns, one row per site: N x 2N.

    Row k holds kappa_k [Psi[:, k] | Phi[:, k]] with kappa_k = (-1)^floor(k/2)
    and Phi = (2 delta / w) K Psi. K is symmetric (a is antisymmetric, and so
    is c_m - c_n), so the second term of V reads Phi as well: (Psi K)_jn = Phi_nj.
    """
    n = params.n_sites
    hop = modes[:, :-1] @ modes[:, 1:].T
    gap = cosines[None, :] - cosines[:, None]
    k_mat = np.divide(0.5 * (hop - hop.T), gap, out=np.zeros((n, n)),
                      where=~np.eye(n, dtype=bool))
    coupled = (2.0 * params.delta / params.w) * (k_mat @ modes)
    kappa = 1.0 - 2.0 * (np.arange(n) // 2 % 2)
    return np.ascontiguousarray((np.vstack([modes, coupled]) * kappa).T)


class Propagator:
    """Symplectic map of the quench, sampled at arbitrary times."""

    mode = PropagationMode.FRAME_EXACT

    def __init__(self, params: ModelParams):
        self.params = params
        self.frame: SqueezingFrame | None = None
        spectrum, n = tight_binding_spectrum(params), params.n_sites
        if classify_phase(params) is PhaseRegime.CRITICAL:
            cosines = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
            self.frequencies = params.w * cosines
            self.columns = _critical_columns(params, spectrum.modes, cosines)
        else:
            self.frame = squeezing_frame(params)
            # m_ij (mode i, site j) of the even and odd sites j, contiguous for _site_sums' GEMMs
            self.modes = [np.ascontiguousarray(spectrum.modes[:, p::2]) for p in (0, 1)]
            # +-J cos(pi n / (N+1)) with the frame's hopping sign; halving is exact
            self.frequencies = (-0.5 * frame_hopping_sign(self.frame)) * spectrum.energies

    @functools.cached_property
    def mode_map(self) -> np.ndarray:
        """Psi2 G, the one 2N x 2N array of the frame route; built at the first block request.

        With Psi2 = modes (x) I2 and G block diagonal, entry (2i+a, 2j+b) is
        the single product m_ij G_j[a, b], so this equals the dense
        product bit for bit.
        """
        n = self.params.n_sites
        return (self._site_modes(range(n)).T[:, None, :, None]
                * self.frame.site_factors.transpose(1, 0, 2)).reshape(2 * n, 2 * n)

    def _site_modes(self, sites) -> np.ndarray:
        """m_ij for every j in ``sites``, one row per site: l x N."""
        return np.array([self.modes[j % 2][:, j // 2] for j in sites])

    def _mode_rows(self, sites: np.ndarray) -> np.ndarray:
        """Rows 2j, 2j+1 of Psi2^T for every j in ``sites``: row 2j+b holds m_ij at
        column 2i+b, zeros elsewhere."""
        n, l = self.params.n_sites, sites.size
        out = np.zeros((l, 2, n, 2))
        out[:, 0, :, 0] = out[:, 1, :, 1] = self._site_modes(sites)
        return out.reshape(2 * l, 2 * n)

    def _site_sums(self, site: int, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mode sums C_jk, S_jk = sum_i m_ij m_ik (cos, sin)(omega_i t) of j = ``site``.

        As omega_{N-1-i} = -omega_i, m_{N-1-i,j} = (-1)^j m_ij and an odd N's
        middle omega is 0, C_jk = 0 unless j = k mod 2 and S_jk = 0 unless not:
        the sums run over the h = N // 2 lowest modes with weights 2 m_ij and
        one phase (``_phases``) per pair. Returns C for the columns k of the
        site's parity and S for the others, K x N/2 each.
        """
        n, h = self.params.n_sites, self.params.n_sites // 2
        own_modes, other_modes = self.modes[site % 2], self.modes[1 - site % 2]
        weights = _phases(self.frequencies[:h], times)
        weights *= 2.0 * own_modes[:h, site // 2]
        cos_part = weights[0] @ own_modes[:h]
        sin_part = weights[1] @ other_modes[:h]
        if n % 2:
            cos_part += own_modes[h, site // 2] * own_modes[h]
        return cos_part, sin_part

    def _site_rows(self, site: int, times: np.ndarray, out: np.ndarray) -> None:
        """Rows 2j, 2j+1 of W(t) = Psi2^T B(t) G for j = ``site`` at every time, into
        ``out`` (K x 2 x 2N): C_jk G_k[0] + S_jk G_k[1] and C_jk G_k[1] - S_jk G_k[0]
        with the ``_site_sums``, exactly 0 where the model makes them zero."""
        n, k = self.params.n_sites, times.size
        own, other = site % 2, 1 - site % 2
        cos_part, sin_part = self._site_sums(site, times)
        # one (K, N/2) slice per output column keeps the inner loops long
        factor = self.frame.site_factors.transpose(1, 2, 0)
        out = out.reshape(k, 2, n, 2)   # a view: out is C-contiguous
        for b in range(2):
            np.multiply(cos_part, factor[0, b, own::2], out=out[:, 0, own::2, b])
            np.multiply(sin_part, factor[1, b, other::2], out=out[:, 0, other::2, b])
            np.multiply(cos_part, factor[1, b, own::2], out=out[:, 1, own::2, b])
            np.multiply(sin_part, -factor[0, b, other::2], out=out[:, 1, other::2, b])

    def _site_gram(self, site: int, times: np.ndarray) -> np.ndarray:
        """Gram blocks W_j W_j^T of the ``_site_rows`` of j = ``site``, K x 2 x 2.

        Site k's 2 x 2 part of the rows is C_jk G_k (own parity) or
        S_jk Omega G_k (other parity), so the blocks are two (K x N/2) by
        (N/2 x 4) products, of C^2 with G_k G_k^T and of S^2 with
        Omega G_k G_k^T Omega^T. The overflow guard checks the blocks.
        """
        own, other = site % 2, 1 - site % 2
        cos_part, sin_part = self._site_sums(site, times)
        with np.errstate(over="ignore", invalid="ignore"):
            grams = self.frame.site_factors @ self.frame.site_factors.transpose(0, 2, 1)
            turned = OMEGA2 @ grams @ OMEGA2.T
            blocks = (np.square(cos_part, out=cos_part) @ grams[own::2].reshape(-1, 4)
                      + np.square(sin_part, out=sin_part) @ turned[other::2].reshape(-1, 4))
        return within_limit(blocks.reshape(-1, 2, 2), f"propagation to t = {times[0]}..{times[-1]}")

    def _critical_uv(self, sites: np.ndarray, times: np.ndarray, scale: float,
                     work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``scale`` times the rows ``sites`` of U(t) and V(t) at every time, on g == delta:
        K x l x N each, even sites' columns first, in ``work`` (4 K l N floats, one
        allocation rather than one per GEMM) with the GEMM weights after them.

        U_jk = kappa_j kappa_k times C_jk if j = k mod 2, +S_jk if j is odd and
        k even, -S_jk if j is even and k odd, with (C, S)_jk = sum_n psi_nj
        psi_nk (cos, sin)(w c_n t); V follows the same rule with psi_nj Phi_nk
        - Phi_nj psi_nk in the sums. So the columns of parity p take the cosine
        weights of the sites of parity p and the +-sine weights of the others.
        Per parity p, the weighted [-kappa Phi | kappa psi] site rows times
        kappa Psi_p give U and times [kappa Psi_p; kappa Phi_p] give V.
        """
        n, k, l = self.params.n_sites, times.size, sites.size
        size = k * l * n
        u_mat, v_mat = work[:size].reshape(k * l, n), work[size:2 * size].reshape(k * l, n)
        weights = work[2 * size:4 * size].reshape(k, l, 2 * n)
        parity = sites % 2
        site_rows = scale * np.hstack([-self.columns[sites, n:], self.columns[sites, :n]])
        cos, sin = _phases(self.frequencies, times)
        # cos, sin, -sin, each over both halves of a site row
        trig = np.tile(np.stack([cos, sin, -sin], axis=1), 2)
        for p, part in enumerate((slice(None, (n + 1) // 2), slice((n + 1) // 2, None))):
            # own parity: cos; an odd site into even columns: +sin; even into odd: -sin
            np.take(trig, np.where(parity == p, 0, 2 - parity), axis=1, out=weights, mode="clip")
            weights *= site_rows
            cols = self.columns[p::2].T   # [kappa Psi_p; kappa Phi_p]
            np.matmul(weights.reshape(k * l, 2 * n)[:, n:], cols[:n], out=u_mat[:, part])
            np.matmul(weights.reshape(k * l, 2 * n), cols, out=v_mat[:, part])
        return u_mat.reshape(k, l, n), v_mat.reshape(k, l, n)

    def _critical_rows(self, sites: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
        """Rows 2j, 2j+1 of W(t) = S(t) P for every j in ``sites`` at every time, into
        ``out`` (K x 2l x 2N), on g == delta: row 2j is (U_jk + V_jk, U_jk) / sqrt2
        and row 2j+1 (U_jk - V_jk, -U_jk) / sqrt2 in the per-site (u, v) columns."""
        k, l, n = times.size, sites.size, self.params.n_sites
        work = np.empty(4 * k * l * n)
        u_mat, v_mat = self._critical_uv(sites, times, 1.0 / math.sqrt(2.0), work)
        out = out.reshape(k, l, 2, n, 2)   # a view: out is C-contiguous
        for p, part in enumerate((slice(None, (n + 1) // 2), slice((n + 1) // 2, None))):
            u_part, v_part = u_mat[..., part], v_mat[..., part]
            np.add(u_part, v_part, out=out[:, :, 0, p::2, 0])
            out[:, :, 0, p::2, 1] = u_part
            np.subtract(u_part, v_part, out=out[:, :, 1, p::2, 0])
            np.negative(u_part, out=out[:, :, 1, p::2, 1])

    def spectrum(self, sites: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
        """nu (K x l) of the whole sites ``sites`` at K ``times`` (as in ``entropy_rows``),
        unclamped, and its floor scale ||W_A||^2 (K), by the cut's route (module docstring).

        On both routes a cut of more than N/2 sites takes its complement's nu and scale and
        2l - N more nu at exactly 1 (the state is pure), the whole chain nu = 1 and scale 0;
        only ``page_curve`` and the row methods keep a large cut's own rows, whose 2l - N
        spurious nu near 1 add 25 % to S for the 3N/4 frame cut at g = 0, delta = 0.9,
        N = 64. On g == delta nu = 0 for eig(Y Y^T) < -1.
        """
        sites, times = site_indices(sites, self.params.n_sites), _as_times(times)
        n, l, k = self.params.n_sites, sites.size, times.size
        read = _route_sites(sites, n)
        if read.size < l:
            nu, scale = self.spectrum(read, times) if read.size else (np.ones((k, 0)), np.zeros(k))
            return np.hstack([np.ones((k, l - read.size)), nu]), scale
        if self.frame is not None:
            if l == 1:
                nu, trace = _gram_nu(self._site_gram(sites[0], times))
                return nu[:, None], trace
            rows = self.entropy_rows(times, sites)
            return symplectic_eigenvalues_from_rows(rows), np.einsum("...ij,...ij->...", rows, rows)
        what = f"propagation to t = {times[0]}..{times[-1]}"
        work = np.empty(4 * k * l * n)
        u_mat, v_mat = self._critical_uv(sites, times, 1.0, work)
        within_limit(work[:2 * u_mat.size], what)   # U_A and V_A
        scale = 2.0 * l + np.einsum("kij,kij->k", v_mat, v_mat)
        with np.errstate(over="ignore", invalid="ignore"):
            # Y = V_A - H_AA U_A in place of V_A; the weights' space takes H_AA U_A
            v_mat -= np.matmul(v_mat @ u_mat.transpose(0, 2, 1), u_mat,
                               out=work[2 * u_mat.size:3 * u_mat.size].reshape(u_mat.shape))
            gram = within_limit(v_mat @ v_mat.transpose(0, 2, 1), what)
        return np.sqrt(np.maximum(1.0 + np.linalg.eigvalsh(gram), 0.0)), scale

    def _rotated_map(self, t: float) -> np.ndarray:
        """B(t) G without materializing B: paired-row rotation of G, written in place."""
        cos_t, sin_t = _phases(self.frequencies, [t])[:, 0, :, None]
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
        w_map = self.entropy_map(t)
        if self.frame is None:
            # S = W P, and P is its own inverse
            return (w_map.reshape(-1, 2) @ _HALF_TURN).reshape(2 * n, 2 * n)
        # S = F^-1 W(t), one 2 x 2 site factor per pair of rows
        w_rows = w_map.reshape(n, 2, 2 * n)
        return within_limit((self.frame.inverse_factors() @ w_rows).reshape(2 * n, 2 * n),
                            f"propagation to t = {t}")

    def subsystem_rows(self, t: float, sites) -> np.ndarray:
        """Rows 2j, 2j+1 of S(t) for every j in ``sites``."""
        n = self.params.n_sites
        sites = site_indices(sites, n)
        return self.symplectic(t).reshape(n, 2, 2 * n)[sites].reshape(-1, 2 * n)

    def entropy_map(self, t: float) -> np.ndarray:
        """Every row of entropy_rows(t); see that method for the frame choice."""
        return self.entropy_rows(t, np.arange(self.params.n_sites))

    def entropy_rows(self, t, sites) -> np.ndarray:
        """Rows 2j, 2j+1 of a quadrature map whose state has the subsystem entropies of
        S(t), for every j in ``sites``.

        Away from g == delta these are rows of W(t) = Psi2^T B(t) G = F S(t), the
        evolved state in the squeezing frame F: its site blocks differ from the
        lab ones by per-site symplectic factors, which keep every whole-site
        entropy but strip the e^{r (j - j0)} local squeezing that would bury the
        lab blocks' nu under the eigensolver's floor at large N. On g == delta
        they are rows of W = S(t) P, whose site blocks are the lab ones.

        One time ``t`` gives the 2l x 2N rows; K times (a sequence, a 1-D array or a
        grid batch) give a K x 2l x 2N stack. A single frame site's rows come
        from paired phases (``_site_rows``), anchored on a grid batch
        (``_phases``), off the full map's fl(t omega) by up to 7e-12 rad at
        N = 512, k < 1000 (1e-10 by k = 20,000). Larger blocks keep one phase per
        mode and the per-time order Psi2^T[rows] (B(t) G), which the 1e-12
        references fix for the ill-conditioned g = 0 quarter (pairing moved its
        N = 256 value by 1.8e-5).
        """
        times, sites = _as_times(t), site_indices(sites, self.params.n_sites)
        stack = np.empty((times.size, 2 * sites.size, 2 * self.params.n_sites))
        if self.frame is None:
            self._critical_rows(sites, times, stack)
        elif sites.size == 1:
            self._site_rows(sites[0], times, stack)
        else:
            factor = self._mode_rows(sites)
            for i in range(times.size):
                np.matmul(factor, self._rotated_map(times[i]), out=stack[i])
        within_limit(stack, f"propagation to t = {times[0]}..{times[-1]}")
        return stack if isinstance(t, _GridBatch) or np.ndim(t) else stack[0]


@functools.lru_cache(maxsize=32)
def build_propagator(params: ModelParams, mode: None = None) -> Propagator:
    """Construct (and memoize) the propagator for these couplings.

    Callers pass ``(params, None)``, the key under which the averages find
    it cached; ``mode`` takes no other value (ValueError).
    """
    if mode is not None:
        raise ValueError(f"build_propagator takes mode=None only, got {mode!r}")
    return Propagator(params)


def evolve(params: ModelParams, t: float) -> np.ndarray:
    """Covariance sigma(t) = S S^T of the evolved vacuum at time t."""
    s_mat = build_propagator(params, None).symplectic(t)
    return s_mat @ s_mat.T


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
    parts, drawn, target = [], 0, protocol.initial_samples
    while True:
        parts.append(sample(drawn, target))
        drawn = target
        arr = np.concatenate(parts)
        target_err = np.maximum(protocol.rel_threshold * np.abs(arr.mean(axis=0)), _STDERR_FLOOR)
        if np.all(_standard_error(arr) <= target_err):
            return arr, True
        if drawn >= protocol.max_samples:
            return arr, False
        target = min(drawn + protocol.batch_samples, protocol.max_samples)


def _sampler(params: ModelParams, subsystem, evaluate, protocol: AveragingProtocol | None,
             rows: int = 0):
    """Check the sites and the grid; return ``draw(k0, k1)``, the values at grid indices
    k0 <= k < k1 along axis 0, and the protocol (``for_params`` if None).

    ``evaluate(prop, sites, batch)`` maps ``build_propagator(params, None)`` (the
    key under which it is cached), the subsystem's sorted sites and a chunk's
    ``_GridBatch`` of K grid indices to K values (a scalar or an array each). A chunk
    fits in _CHUNK_BYTES ``rows`` arrays of the subsystem's 2l rows (``_of_rows``) or,
    for a spectrum (``rows`` 0), two of the route's (``_route_sites``): the rows and
    their QR copy, or U, V and their weights.
    """
    sites = np.sort(site_indices(subsystem, params.n_sites))
    protocol = _check_grid(protocol or AveragingProtocol.for_params(params), params)
    prop = build_propagator(params, None)
    width = sites.size if rows else max(1, _route_sites(sites, params.n_sites).size)
    chunk = max(1, _CHUNK_BYTES // ((rows or 2) * 2 * width * 2 * params.n_sites * 8))
    offsets: dict = {}   # the offset tables of this average (_phases)

    def draw(k0: int, k1: int) -> np.ndarray:
        return np.concatenate([
            evaluate(prop, sites, _GridBatch(protocol, c0, min(k1, c0 + chunk), offsets))
            for c0 in range(k0, k1, chunk)])

    return draw, protocol


def _of_rows(reduce):
    """``evaluate`` for _sampler: ``reduce`` of the K x 2l x 2N entropy-map rows, copied
    out (a view of the rows would keep the whole chunk alive)."""
    return lambda prop, sites, batch: np.array(reduce(prop.entropy_rows(batch, sites)))


def _converged(result, what: str):
    """``result``, or NonConvergence carrying it if its sampling hit the cap."""
    if result.converged:
        return result
    raise NonConvergence(f"{what} not converged after {result.n_samples} samples", result=result)


def _series_result(values: np.ndarray, converged: bool) -> TimeAverageResult:
    return TimeAverageResult(mean=float(values.mean()), stderr=float(_standard_error(values)),
                             n_samples=int(values.size), converged=converged, values=values)


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
    return _series_result(*_converge_series(*_sampler(params, subsystem, _of_rows(reduce),
                                                      protocol, rows=2)))


def time_averaged_entropy(
    params: ModelParams,
    subsystem,
    protocol: AveragingProtocol | None = None,
) -> TimeAverageResult:
    """Long-time average of the entanglement entropy of ``subsystem``.

    ``subsystem`` is an iterable of 0-based site indices. Raises
    NonConvergence (with the partial estimate attached) if the sample cap
    is reached first. Each sample takes the ``Propagator.spectrum`` route of
    the cut.
    """
    return _converged(_series_result(*_converge_series(*_sampler(
        params, subsystem,
        lambda prop, sites, batch: _entropy_from_spectrum(*prop.spectrum(sites, batch)),
        protocol))), "entropy mean")


def series_fluctuation_ratio(values) -> float:
    """RMS fluctuation of a series about its mean, relative to the mean."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or arr.mean() == 0.0:
        raise ValueError("fluctuation ratio needs a nonzero-mean series")
    return float(arr.std(ddof=0) / abs(arr.mean()))


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
    W^T = Q T, serves every cut: the leading 2l x 2l block of T is the
    factor of W[:2l]^T (QR column-prefix property), and cut l reads its
    spectrum off it in ``entropy_from_factor``, with no second factorization.
    """
    n = params.n_sites
    lengths = np.arange(1, n)

    def reduce(stack: np.ndarray) -> np.ndarray:
        r_mat = np.linalg.qr(np.swapaxes(stack, -1, -2), mode="r")
        return np.stack([entropy_from_factor(r_mat[:, :2 * l, :2 * l]) for l in lengths], axis=1)

    # a chunk holds its rows, their QR copy, R and the per-cut temporaries
    values, converged = _converge_series(*_sampler(params, range(n), _of_rows(reduce), protocol,
                                                   rows=8))
    return _converged(PageCurve(lengths=lengths, entropies=values.mean(axis=0),
                                stderrs=_standard_error(values), n_samples=values.shape[0],
                                converged=converged), "page curve")


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
        return entropy_kernel(2.0 * np.maximum(self.occupations, 0.0) + 1.0)


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

    values, converged = _converge_series(*_sampler(params, range(n), _of_rows(reduce), protocol,
                                                   rows=2))
    mean_blocks = gram_sum / values.shape[0]
    frame = build_propagator(params, None).frame
    if frame is not None:
        inverse = frame.inverse_factors()
        mean_blocks = inverse @ mean_blocks @ inverse.transpose(0, 2, 1)
    occs, pairs = site_correlators(mean_blocks)
    return _converged(SiteProfiles(
        entropies=values.mean(axis=0), stderrs=_standard_error(values), occupations=occs,
        pair_amplitudes=pairs, mean_blocks=mean_blocks, n_samples=values.shape[0],
        converged=converged), "site profiles")
