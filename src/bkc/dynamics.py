"""Vacuum-quench propagation and long-time averaging of entanglement data.

Every average takes the ``FRAME_EXACT`` route, which
``build_propagator(params, None)`` always picks:

* Away from g == delta it conjugates the exact mode rotation through the
  squeezing frame, S(t) = G^{-1} B(t) G with B(t) block-diagonal rotations
  at the frequencies J c_n (below). A single site takes its mode sums from
  one phase per kept mode and two GEMMs with halves of the N x N modes; its
  averages square them into the site's 2 x 2 Gram block (no rows, no QR).
  At g > delta the frame has r = 0, so the state's only non-vacuum part is
  the pairing matrix P = u(t) diag(2 m_j) u(t)^T of the passive unitary u,
  with 2 m_j = i sinh(2 r0) e^{-2 i phi j} read off G_j G_j^T;
  P / sinh(2 r0) is unitary, so a block A with complement B has
  nu_k^2 = 1 + sigma_k(P_AB)^2 (``_cross_spectrum``; u from one Toeplitz-minus-
  Hankel table per chunk, ``_unitary_rows``). Blocks at g < delta keep rows: one
  phase per mode and Psi2 G, the one 2N x 2N array, built at their first request.
* On g == delta the bond block delta [[1, 1], [-1, -1]] is nilpotent and
  the map has a closed form. With Z the shift (Z_{j,j+1} = 1),
  T_w = (w/2)(Z^T - Z), T_c = (Z + Z^T)/2 and per-site u = (q+p)/sqrt2,
  v = (q-p)/sqrt2, the chain obeys u' = T_w u and v' = T_w v + 2 delta T_c u,
  so u(t) = U u(0) and v(t) = V u(0) + U v(0) with

      U(t) = D Psi E Psi D*,  V(t) = (2 delta / w) D Psi (E K - K E) Psi D*,

  D = diag(i^j), E = diag(e^{-i w c_n t}), c_n = cos(pi n / (N+1)), Psi the
  (symmetric) sine modes and K_nm = a_nm / (c_m - c_n), K_nn = 0, with
  a = Psi (Z - Z^T) Psi / 2. Both stay bounded in t. The spectrum pairs
  c_{N+1-n} = -c_n with psi_{N+1-n,j} = (-1)^(j+1) psi_nj (1-based), and
  Phi = (2 delta / w) K Psi pairs the same way, as K_{n'm'} = K_nm where a_{n'm'} = -a_nm;
  so U and V are sums over the kept modes by the rule below (``_critical_uv``). The
  rows returned are those of S(t) itself: with q = (u + v) / sqrt2 and
  p = (u - v) / sqrt2, row q_j is (U_jk + V_jk / 2, V_jk / 2) and row p_j
  (-V_jk / 2, U_jk - V_jk / 2) in site k's (q, p).
  Entropies need no rows: in (u, v), S = [[U, 0], [V, U]] with U orthogonal, and
  S J S^T = J makes H = V U^T symmetric. A block A has sigma_A = [[I, H_AA], [H_AA,
  I + V_A V_A^T]], and the shear v_A -> v_A - H_AA u_A, symplectic as H_AA is symmetric,
  takes it to diag(I, I + Y Y^T) with Y = V_A - H_AA U_A. As V V^T = H^2, Y Y^T =
  H_AB H_AB^T for the complement B: the pairing law with H for P (``_cross_spectrum``),
  one l x l eigensolve. A block takes its Y, a Page curve one H per sample.

Both routes read the open chain's chiral spectrum, c_n = cos(pi n / (N+1)) with
c_{N+1-n} = -c_n, by one half-spectrum rule (``Propagator.pairs``): the m = N - N // 2
kept modes are the h = N // 2 lowest, weighed 2 each for their +-omega pair, and an odd
N's middle mode, weighed 1, whose c is exactly 0.0, so it is exactly still (grid phase
exactly (1, 0)); the frame's block rows also take it still. The weights sit inside each
kernel's GEMMs (``_site_sums``, ``_unitary_rows``, ``_critical_uv``).

The package has no matrix exponential: the tests check both forms against
``scipy.linalg.expm`` of the generator Omega h.

One sampler, the door of every average, checks the sites (``site_indices``) and the
grid (``_check_grid``); the averages extend its draw until it converges,
``log_correction`` takes one. ``_route`` names the branch that runs, ``Propagator.spectrum``
and ``page_curve`` dispatch on that name and each average's result records it (``route``).
A cut of more than N/2 sites takes its complement's spectrum, the only nu other than 1 it
carries (the state is pure, ``_route_sites``); the sites read take "gram" (a frame site's
Gram block), "rows" (a g < delta block's rows and QR, as ``subsystem_entropy_from_rows``),
"pairing" (P_AB at g > delta) or "closed-form" (the shear on g == delta). Page curves read
every cut off one N x N P or H per sample, or on "rows" (l > N/2 too) reduce the rows
of the whole chain, as profiles and ``time_series`` do (``entropy_rows``: "rows", or
"closed-form" on g == delta). No average builds the full map S(t). A draw runs in chunks of
consecutive grid indices, one ``evaluate`` call each and none across a convergence check, that
hold at most ``_CHUNK_BYTES`` (``_sample_bytes``): the 2l rows reduced, or what the route
builds for the min(l, N - l) sites it reads. A chunk is a grid batch, k0 <= k < k1: with
k = a B + b (B = 32), single sites, the table of u(t) and the g == delta route take
e^{i omega t_k} = e^{i omega t_aB} e^{i omega b dt} from float64 trig at the anchors t_aB, a
table of the offsets made once per average, and angle addition (``_phases``). So a phase
depends on its grid index alone, never on the chunk. Explicit times and frame block rows keep
the trig of fl(omega t).

The covariance of the evolved vacuum is sigma(t) = S(t) S(t)^T.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NonConvergence, within_limit
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
    squeezing_frame,
    tight_binding_spectrum,
)

# Memory budget of one chunk of samples: what its route builds (_sample_bytes).
_CHUNK_BYTES = 4 * 2 ** 20
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
    """``t`` as K times, the one time check: a ``_GridBatch`` as it is, one time or a 1-D
    list of them as floats. DomainError if empty, nested, NaN or infinite; t < 0 is valid."""
    if isinstance(t, _GridBatch):
        return t
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise DomainError(f"expected one finite time or a non-empty 1-D list of them, got {t!r}")
    return times


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
    route: str | None = field(default=None, repr=False)   # the branch that ran (_route)


def _complement(sites: np.ndarray, n: int) -> np.ndarray:
    """Sorted sites of the chain not in ``sites``, by a mask: np.setdiff1d imports numpy.ma."""
    rest = np.ones(n, dtype=bool)
    rest[sites] = False
    return np.flatnonzero(rest)


def _route_sites(sites: np.ndarray, n: int) -> np.ndarray:
    """The sites ``Propagator.spectrum`` reads for a cut: past N/2 its complement (purity)."""
    return _complement(sites, n) if 2 * sites.size > n else sites


def _route(params: ModelParams, sites) -> str:
    """The branch of ``Propagator.spectrum`` for the sites that the cut ``sites`` reads
    (``_route_sites``), as run records name it: "closed-form" on g == delta, else "gram" for
    one site (its Gram block), "rows" for a block at g < delta (rows and QR), "pairing" at
    g > delta (P_AB). The whole chain reads none: its name, by regime, is ``page_curve``'s."""
    regime = classify_phase(params)
    if regime is PhaseRegime.CRITICAL:
        return "closed-form"
    if _route_sites(np.asarray(sites), params.n_sites).size == 1:
        return "gram"
    return "rows" if regime is PhaseRegime.NONRECIPROCAL else "pairing"


def _sample_bytes(params: ModelParams, sites: np.ndarray, rows: int) -> int:
    """Bytes of one sample in a chunk, the sampler's one chunk rule: ``rows`` arrays of the
    cut's 2l x 2N rows (a Page curve counts eight of the whole chain's on "rows", two on its
    cross routes), or for a spectrum (``rows`` 0) what its ``_route`` builds for the w sites
    it reads: on "pairing" the rows of u (N x N complex) and P_AB (w x (N - w) complex), else
    two arrays of 2w x 2N rows (rows and QR copy; site sums), plus on "closed-form" the trig
    table, 6m floats for the m = N - N // 2 kept modes. There a sample holds per site U, V,
    their weights (``_critical_uv``, 2N + 2m floats) and the shear's H_AA U_A (N), half the
    8N counted, so a quarter's chunk peaks near half the budget and a site's, in the kernel
    with the table, phases and their stack (11m floats), at about 0.8 of it."""
    n = params.n_sites
    if rows:
        return rows * 2 * sites.size * 2 * n * 8
    width, route = max(1, _route_sites(sites, n).size), _route(params, sites)
    if route == "pairing":
        return 16 * (n * n + width * (n - width))
    return 2 * 2 * width * 2 * n * 8 + (6 * (n - n // 2) * 8 if route == "closed-form" else 0)


def _critical_columns(params: ModelParams, modes: np.ndarray,
                      cosines: np.ndarray) -> np.ndarray:
    """The g == delta map's table on the paired half spectrum, one row per site: N x 2m.

    Row k holds kappa_k [Psi[:m, k] | Phi[:m, k]] for the m = N - N // 2 kept modes (the
    h = N // 2 lowest and an odd N's middle one), with kappa_k = (-1)^floor(k/2) and
    Phi = (2 delta / w) K Psi. K is symmetric (a is antisymmetric, and so is c_m - c_n),
    so the second term of V reads Phi as well: (Psi K)_jn = Phi_nj. Only the kept rows
    of K are formed; ``_critical_uv`` weighs them by ``Propagator.pairs``.
    """
    n, m = params.n_sites, params.n_sites - params.n_sites // 2
    hop = modes[:m, :-1] @ modes[:, 1:].T - modes[:m, 1:] @ modes[:, :-1].T
    gap = cosines[None, :] - cosines[:m, None]
    k_rows = np.divide(0.5 * hop, gap, out=np.zeros((m, n)), where=~np.eye(m, n, dtype=bool))
    coupled = (2.0 * params.delta / params.w) * (k_rows @ modes)
    kappa = 1.0 - 2.0 * (np.arange(n) // 2 % 2)
    return np.ascontiguousarray((np.vstack([modes[:m], coupled]) * kappa).T)


def _cross_spectrum(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nu and floor scale of a cut from the K x a x b block X coupling it to the rest of a
    pure state (P_AB; H_AB or the shear's Y on g == delta): nu^2 = 1 + eig of X's Gram on
    its smaller side l = min(a, b), with no 1 - x cancellation; scale 2 l + tr Gram, guarded."""
    if cross.shape[1] > cross.shape[2]:
        cross = cross.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = cross @ cross.conj().transpose(0, 2, 1)   # conj() of a real X is X: a syrk
    trace = within_limit(np.trace(gram, axis1=1, axis2=2).real, "subsystem spectrum")
    return np.sqrt(np.maximum(1.0 + np.linalg.eigvalsh(gram), 0.0)), 2.0 * cross.shape[1] + trace


class Propagator:
    """Symplectic map of the quench, sampled at arbitrary times."""

    mode = PropagationMode.FRAME_EXACT

    def __init__(self, params: ModelParams):
        self.params = params
        self.frame: SqueezingFrame | None = None
        spectrum, n, h = tight_binding_spectrum(params), params.n_sites, params.n_sites // 2
        cosines = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        cosines[h:n - h] = 0.0   # an odd N's still mode, where float64 cos gives 6e-17-3e-16
        # the half-spectrum rule: the m = N - h kept modes weigh 2 per +-omega pair, 1 still
        self.pairs = np.full(n - h, 2.0)
        self.pairs[h:] = 1.0
        if classify_phase(params) is PhaseRegime.CRITICAL:
            self.columns = _critical_columns(params, spectrum.modes, cosines)
            self.frequencies = params.w * cosines[:n - h]   # the kept modes
        else:
            self.frame = squeezing_frame(params)
            # m_ij (mode i, site j) of the even and odd sites j, contiguous for _site_sums' GEMMs
            self.modes = [np.ascontiguousarray(spectrum.modes[:, p::2]) for p in (0, 1)]
            # _site_gram's G_k G_k^T and Omega G_k G_k^T Omega^T of the even and odd sites k,
            # N/2 x 4 each; squares past float range reach the blocks' guard as inf
            with np.errstate(over="ignore", invalid="ignore"):
                grams = self.frame.site_factors @ self.frame.site_factors.transpose(0, 2, 1)
                self.grams, self.turned = ([a[p::2].reshape(-1, 4) for p in (0, 1)]
                                           for a in (grams, OMEGA2 @ grams @ OMEGA2.T))
            self.frequencies = params.hopping * cosines   # all N modes: _rotated_map

    @functools.cached_property
    def mode_map(self) -> np.ndarray:
        """Psi2 G, the one 2N x 2N array of the frame route; built at the first ``entropy_rows``
        of two or more sites: a g < delta block's ``spectrum`` or Page curve and, at any
        g != delta, ``profiles``, ``time_series`` of a block and the dense-map methods. A
        spectrum or Page curve at g > delta never builds it.

        With Psi2 = modes (x) I2 and G block diagonal, entry (2i+a, 2j+b) is
        the single product m_ij G_j[a, b], so this equals the dense
        product bit for bit.
        """
        n = self.params.n_sites
        return (self._site_modes(range(n)).T[:, None, :, None]
                * self.frame.site_factors.transpose(1, 0, 2)).reshape(2 * n, 2 * n)

    @functools.cached_property
    def pairing_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights of ``_unitary_rows``' table and the pairings 2 m_j, built at the first
        reciprocal block request: (pairs_n / (N+1)) cos(pi n m/(N+1)) for the kept modes n
        (``pairs``) and the even m <= N+1, the same negated for the odd m (N - N // 2 rows
        each), and 2 m_j = (s_qq - s_pp) / 2 + i s_qp of each site's G_j G_j^T (N complex)."""
        n = self.params.n_sites
        cycles = np.outer(np.arange(1, self.pairs.size + 1), np.arange(n + 2)) % (2 * n + 2)
        weights = (self.pairs[:, None] / (n + 1)) * np.cos(np.pi * cycles / (n + 1))
        pairings = np.empty(n, dtype=complex)
        for p in (0, 1):
            qq, qp, pq, pp = self.grams[p].T
            pairings[p::2] = (qq - pp) / 2.0 + 0.5j * (qp + pq)
        return (np.ascontiguousarray(weights[:, 0::2]), -np.ascontiguousarray(weights[:, 1::2]),
                pairings)

    def _unitary_rows(self, times, *cuts: np.ndarray) -> list[np.ndarray]:
        """Rows of the frame's passive unitary u(t) at K ``times``, K x l x N complex, for each
        sorted site array of ``cuts``, all from one table.

        The modes are sines, so u_jk = c_|j-k| - c_{j+k+2} (0-based sites) with
        c_m = (1/(N+1)) sum_n cos(pi n m/(N+1)) e^{-i omega_n t} and c_{2N+2-m} = c_m: a
        Toeplitz minus a Hankel matrix, both sliding windows of the m = 0..N+1 table. As
        omega_{N+1-n} = -omega_n, even m are real cosine sums and odd m imaginary sine sums
        over the kept modes, one phase per pair and an odd N's still (1, 0) (``_phases``):
        two real GEMMs with the ``pairing_table`` weights, which carry ``pairs``. Each run of
        consecutive sites is one slice of the windows.
        """
        n = self.params.n_sites
        even, odd, _ = self.pairing_table
        cos, sin = _phases(self.frequencies[:self.pairs.size], times)
        table = np.zeros((cos.shape[0], n + 2), dtype=complex)
        table.real[:, 0::2] = cos @ even
        table.imag[:, 1::2] = sin @ odd
        # T_jk = e[N-1-j+k] of e = c_{N-1}..c_1 c_0..c_{N-1},
        # H_jk = f[j+k] of f = c_2..c_{N+1} c_N..c_2
        toeplitz = sliding_window_view(np.hstack([table[:, n - 1:0:-1], table[:, :n]]), n,
                                       axis=1)[:, ::-1]
        hankel = sliding_window_view(np.hstack([table[:, 2:], table[:, n:1:-1]]), n, axis=1)
        out = []
        for cut in cuts:
            rows = np.empty((cos.shape[0], cut.size, n), dtype=complex)
            starts = np.flatnonzero(np.diff(cut, prepend=-2) != 1)
            for a, b in zip(starts, [*starts[1:], cut.size]):
                run = slice(cut[a], cut[b - 1] + 1)
                np.subtract(toeplitz[:, run], hankel[:, run], out=rows[:, a:b])
            out.append(rows)
        return out

    def _pairing_block(self, times, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The block P[rows, cols] = (u_rows diag(2 m)) u_cols^T of the pairing matrix at K
        ``times``, K x |rows| x |cols| complex; the rows of u are freed on return."""
        u_rows, u_cols = self._unitary_rows(times, rows, cols)
        u_rows *= self.pairing_table[2]
        return u_rows @ u_cols.transpose(0, 2, 1)

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
        the sums run over the m = N - N // 2 kept modes with weights ``pairs`` m_ij
        and one phase (``_phases``) per pair, (1, 0) for the still mode. Returns C
        for the columns k of the site's parity and S for the others, K x N/2 each.
        """
        m = self.pairs.size
        own_modes, other_modes = self.modes[site % 2], self.modes[1 - site % 2]
        weights = _phases(self.frequencies[:m], times)
        weights *= self.pairs * own_modes[:m, site // 2]
        return weights[0] @ own_modes[:m], weights[1] @ other_modes[:m]

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
        (N/2 x 4) products, of C^2 with ``grams`` and of S^2 with ``turned``. The
        overflow guard checks the blocks.
        """
        cos_part, sin_part = self._site_sums(site, times)
        blocks = (np.square(cos_part, out=cos_part) @ self.grams[site % 2]
                  + np.square(sin_part, out=sin_part) @ self.turned[1 - site % 2])
        return within_limit(blocks.reshape(-1, 2, 2), f"propagation to t = {times[0]}..{times[-1]}")

    def _critical_uv(self, sites: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
        """The rows ``sites`` of U(t) and V(t) at every time, on g == delta: K x l x N
        each, even sites' columns first, views of one K l (2N + 2m) allocation that also
        holds the GEMM weights, K x l x 2m, after them.

        U_jk = kappa_j kappa_k times C_jk if j = k mod 2, +S_jk if j is odd and
        k even, -S_jk if j is even and k odd, with (C, S)_jk = sum_n psi_nj
        psi_nk (cos, sin)(w c_n t); V follows the same rule with psi_nj Phi_nk
        - Phi_nj psi_nk in the sums. So the columns of parity p take the cosine
        weights of the sites of parity p and the +-sine weights of the others.
        As c_{N+1-n} = -c_n and psi, Phi_{N+1-n, j} = (-1)^(j+1) psi, Phi_nj (1-based), each
        of those sums is twice its sum over the h = N // 2 lowest modes, plus an odd N's
        still mode (c = 0, phase (1, 0)) once: the site rows carry the weights ``pairs``
        of the m = N - h kept modes. Per parity p, the weighted [-kappa Phi | kappa psi] site
        rows times kappa Psi_p give U (inner width m) and times [kappa Psi_p; kappa Phi_p]
        give V (2m), of the m kept modes of the table ``columns``.
        """
        n, k, l = self.params.n_sites, times.size, sites.size
        m, size = self.pairs.size, k * l * n
        work = np.empty(2 * size + 2 * k * l * m)
        u_mat, v_mat = work[:size].reshape(k * l, n), work[size:2 * size].reshape(k * l, n)
        weights = work[2 * size:].reshape(k, l, 2 * m)
        parity = sites % 2
        site_rows = np.hstack([-self.columns[sites, m:] * self.pairs,
                               self.columns[sites, :m] * self.pairs])
        cos, sin = _phases(self.frequencies, times)
        # cos, sin, -sin, each over both halves of a site row
        trig = np.tile(np.stack([cos, sin, -sin], axis=1), 2)
        for p, part in enumerate((slice(None, (n + 1) // 2), slice((n + 1) // 2, None))):
            # own parity: cos; an odd site into even columns: +sin; even into odd: -sin
            np.take(trig, np.where(parity == p, 0, 2 - parity), axis=1, out=weights, mode="clip")
            weights *= site_rows
            cols = self.columns[p::2].T   # [kappa Psi_p; kappa Phi_p]
            np.matmul(weights.reshape(k * l, 2 * m)[:, m:], cols[:m], out=u_mat[:, part])
            np.matmul(weights.reshape(k * l, 2 * m), cols, out=v_mat[:, part])
        return u_mat.reshape(k, l, n), v_mat.reshape(k, l, n)

    def _critical_rows(self, sites: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
        """Rows 2j, 2j+1 of S(t) for every j in ``sites`` at every time, into ``out``
        (K x 2l x 2N), on g == delta: in site k's (q, p) columns row q_j is
        (U_jk + V_jk / 2, V_jk / 2) and row p_j (-V_jk / 2, U_jk - V_jk / 2)."""
        n = self.params.n_sites
        u_mat, v_mat = self._critical_uv(sites, times)
        v_mat *= 0.5   # exact
        out = out.reshape(*u_mat.shape[:2], 2, n, 2)   # a view: out is C-contiguous
        for p, part in enumerate((slice(None, (n + 1) // 2), slice((n + 1) // 2, None))):
            u_part, v_part = u_mat[..., part], v_mat[..., part]
            np.add(u_part, v_part, out=out[:, :, 0, p::2, 0])
            out[:, :, 0, p::2, 1] = v_part
            np.negative(v_part, out=out[:, :, 1, p::2, 0])
            np.subtract(u_part, v_part, out=out[:, :, 1, p::2, 1])

    def spectrum(self, sites: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
        """nu (K x min(l, N - l)) of the whole sites ``sites`` at K ``times`` (as in
        ``entropy_rows``), unclamped, and its floor scale (K), by the name ``_route`` gives.

        The state is pure, so only min(l, N - l) nu can differ from 1 (Botero & Reznik, PRA
        67, 052311 (2003)): a cut of more than N/2 sites returns its complement's nu and
        scale as they are, the whole chain K x 0 nu and scale 0. Only ``page_curve`` at
        g < delta and the row methods keep a large cut's own rows, whose 2l - N spurious nu
        near 1 add 25 % to S for the 3N/4 frame cut at g = 0, delta = 0.9, N = 64. The
        sites read then take one branch: "gram" a frame site's Gram block, "rows" a g < delta
        block's rows and QR; "pairing" P_AB = (u_A diag(2 m) u_B^T), with no Psi2 G, and
        "closed-form" the shear residual Y give ``_cross_spectrum`` their cross block.
        """
        sites, times = site_indices(sites, self.params.n_sites), _as_times(times)
        n, l, k = self.params.n_sites, sites.size, times.size
        read = _route_sites(sites, n)
        if read.size < l:
            return self.spectrum(read, times) if read.size else (np.ones((k, 0)), np.zeros(k))
        route = _route(self.params, sites)
        if route == "gram":
            nu, trace = _gram_nu(self._site_gram(sites[0], times))
            return nu[:, None], trace
        if route == "rows":
            rows = self.entropy_rows(times, sites)
            return symplectic_eigenvalues_from_rows(rows), np.einsum("...ij,...ij->...", rows, rows)
        if route == "pairing":
            sites = np.sort(sites)
            return _cross_spectrum(self._pairing_block(times, sites, _complement(sites, n)))
        u_mat, v_mat = self._critical_uv(sites, times)
        with np.errstate(over="ignore", invalid="ignore"):
            v_mat -= (v_mat @ u_mat.transpose(0, 2, 1)) @ u_mat   # Y = V_A - H_AA U_A
        return _cross_spectrum(v_mat)

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
        if t == 0.0:
            return np.eye(2 * self.params.n_sites)
        return self.subsystem_rows(t, range(self.params.n_sites))

    def subsystem_rows(self, t: float, sites) -> np.ndarray:
        """Rows 2j, 2j+1 of S(t) for every j in ``sites``: the ``entropy_rows``, away from
        g == delta mapped to the lab by each site's 2 x 2 F_j^-1."""
        sites = site_indices(sites, self.params.n_sites)
        rows = self.entropy_rows(t, sites)
        if self.frame is None:
            return rows
        site_rows = rows.reshape(-1, sites.size, 2, rows.shape[-1])
        return within_limit((self.frame.inverse_factors()[sites] @ site_rows).reshape(rows.shape),
                            f"propagation to t = {t}")

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
        they are rows of S(t) itself (``_critical_rows``).

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
    for a spectrum (``rows`` 0), what its route builds (``_sample_bytes``).
    """
    sites = np.sort(site_indices(subsystem, params.n_sites))
    protocol = _check_grid(protocol or AveragingProtocol.for_params(params), params)
    prop = build_propagator(params, None)
    chunk = max(1, _CHUNK_BYTES // _sample_bytes(params, sites, rows))
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


def _series_result(values: np.ndarray, converged: bool, route: str) -> TimeAverageResult:
    return TimeAverageResult(float(values.mean()), float(_standard_error(values)),
                             int(values.size), converged, values, route)


def time_series(
    params: ModelParams,
    subsystem,
    reduce,
    protocol: AveragingProtocol | None = None,
) -> TimeAverageResult:
    """Average of ``reduce`` over the entropy-map rows of ``subsystem`` on the grid.

    ``reduce`` maps a K x 2l x 2N stack of rows to K values. Sampling follows the protocol;
    the result says whether it converged; its route is "rows" ("closed-form" on g == delta).
    """
    route = "closed-form" if classify_phase(params) is PhaseRegime.CRITICAL else "rows"
    return _series_result(*_converge_series(*_sampler(params, subsystem, _of_rows(reduce),
                                                      protocol, rows=2)), route)


def time_averaged_entropy(
    params: ModelParams,
    subsystem,
    protocol: AveragingProtocol | None = None,
) -> TimeAverageResult:
    """Long-time average of the entanglement entropy of ``subsystem``.

    ``subsystem`` is an iterable of 0-based site indices. Raises
    NonConvergence (with the partial estimate attached) if the sample cap
    is reached first. Each sample takes the ``Propagator.spectrum`` route of
    the cut, which the result names (``_route``).
    """
    sites = site_indices(subsystem, params.n_sites)
    return _converged(_series_result(*_converge_series(*_sampler(
        params, sites,
        lambda prop, sites, batch: _entropy_from_spectrum(*prop.spectrum(sites, batch)),
        protocol)), _route(params, sites)), "entropy mean")


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
    route: str | None = field(default=None, repr=False)   # the branch that ran (_route)


def page_curve(
    params: ModelParams,
    protocol: AveragingProtocol | None = None,
) -> PageCurve:
    """Entropy of the leftmost l sites for every cut l = 1..N-1.

    All cuts share the same deterministic time grid; sampling stops when every cut meets
    the protocol target. The route is the whole chain's ``_route``. On "pairing" and
    "closed-form" one symmetric N x N cross matrix X per sample, P = u diag(2 m) u^T or
    H = V U^T, serves every cut: cut l reads the Gram of X[:l, l:] on its smaller side
    (``_cross_spectrum``), so a cut and its complement share one spectrum and no large
    side is read off its own rows. On "rows" (g < delta) one QR per sample, W^T = Q T, serves
    every cut: the leading 2l x 2l block of T is the factor of W[:2l]^T (QR column-prefix
    property), and cut l reads its spectrum off it in ``entropy_from_factor``.
    """
    n = params.n_sites
    lengths, route = np.arange(1, n), _route(params, range(n))

    def reduce(stack: np.ndarray) -> np.ndarray:
        r_mat = np.linalg.qr(np.swapaxes(stack, -1, -2), mode="r")
        return np.stack([entropy_from_factor(r_mat[:, :2 * l, :2 * l]) for l in lengths], axis=1)

    def cross(prop: Propagator, sites: np.ndarray, batch: _GridBatch) -> np.ndarray:
        if route == "closed-form":
            u_mat, v_mat = prop._critical_uv(sites, batch)
            matrix = v_mat @ u_mat.transpose(0, 2, 1)   # H = V U^T
        else:
            matrix = prop._pairing_block(batch, sites, sites)
        return np.stack([_entropy_from_spectrum(*_cross_spectrum(matrix[:, :l, l:]))
                         for l in lengths], axis=1)

    # a rows chunk holds eight arrays of rows (256 N^2 bytes a sample: rows, QR copy, R, per-cut
    # temporaries), a cross chunk two (64 N^2: u twice and P 48 N^2, or U, V, weights, H 32 N^2)
    evaluate, rows = (_of_rows(reduce), 8) if route == "rows" else (cross, 2)
    values, converged = _converge_series(*_sampler(params, range(n), evaluate, protocol, rows))
    return _converged(PageCurve(lengths=lengths, entropies=values.mean(axis=0),
                                stderrs=_standard_error(values), n_samples=values.shape[0],
                                converged=converged, route=route), "page curve")


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
    route: str | None = field(default=None, repr=False)   # "rows" or "closed-form"

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

    Each chunk of entropy maps W gives the site entropies in one batched factorization
    and adds its site Gram blocks W_j W_j^T into one sum. On "rows" (g != delta) W = F S,
    so the averaged lab blocks F_j^-1 Xbar_j F_j^-T are mapped once from the averaged Gram
    Xbar_j, which keeps more digits than mapping every sample's rows to the lab frame
    first. On "closed-form" (g == delta) W = S and the Gram blocks are the lab ones.
    """
    n = params.n_sites
    route = "closed-form" if classify_phase(params) is PhaseRegime.CRITICAL else "rows"
    gram_sum = np.zeros((n, 2, 2))

    def reduce(stack: np.ndarray) -> np.ndarray:
        site_rows = stack.reshape(-1, n, 2, 2 * n)
        gram_sum[:] += np.einsum("knar,knbr->nab", site_rows, site_rows)
        return subsystem_entropy_from_rows(stack.reshape(-1, 2, 2 * n)).reshape(-1, n)

    values, converged = _converge_series(*_sampler(params, range(n), _of_rows(reduce), protocol,
                                                   rows=2))
    mean_blocks = gram_sum / values.shape[0]
    if route == "rows":
        inverse = build_propagator(params, None).frame.inverse_factors()
        mean_blocks = inverse @ mean_blocks @ inverse.transpose(0, 2, 1)
    occs, pairs = site_correlators(mean_blocks)
    return _converged(SiteProfiles(
        entropies=values.mean(axis=0), stderrs=_standard_error(values), occupations=occs,
        pair_amplitudes=pairs, mean_blocks=mean_blocks, n_samples=values.shape[0],
        converged=converged, route=route), "site profiles")
