"""Reference entropies of the N = 32, g = 0.2 state at t_min for ``test_dynamics.py``.

    python tests/page_reference.py [--dps 50]

Evaluates the quench of the vacuum at w = 1, delta = 0.25, g = 0.2 (g < delta), N = 32,
at the first time of the default grid, in mpmath with ``--dps`` significant digits. Its
inputs are float64 values, each taken exactly: the couplings; t_min = 10 N / J with
J = sqrt(w^2 + g^2 - delta^2), as ``AveragingProtocol.for_params`` computes it in float64
(printed, so a test can check that the package samples the same time); and for the
second state the |omega| of the 16 lowest modes as the package holds them
(``FREQUENCIES``). Two states are evaluated:

* exact phases: S(t) = expm(M t) of the lab generator M = Omega h, with h and Omega as in
  ``bkc.model.bdg_matrices``, built here again from the couplings;
* paired float64 phases: S = V diag(e^{i phi}) V^-1 from the eigenvectors V of M, where
  an eigenvalue i c takes phi = sign(c) fl(|omega| t_min) of its frequency in
  ``FREQUENCIES``, so a +-omega pair has exactly opposite phases, as in the package's
  site sums. With phi = c t the same formula gives the first state (printed as a check).

For each it prints S of site 0 (nu = sqrt(det sigma_0), sigma = S S^T) and of sites
1..31 (nu from the Cholesky factor L of sigma_A: the eigenvalues nu^2 of
(L^T Omega_A L)^T (L^T Omega_A L), each twice), each rounded once to float64. The state
is pure, so the two agree. The tests hold the printed values as literals, so they never
import mpmath. It takes about 40 s at 50 digits.
"""
from __future__ import annotations

import argparse
import math

import mpmath

W, DELTA, G, N = 1.0, 0.25, 0.2, 32
T_MIN = 10.0 * N / math.sqrt(W ** 2 + G ** 2 - DELTA ** 2)
FREQUENCIES = (
    0.9842091499204567, 0.9708191527064172, 0.9486372669104034, 0.9178643751251342,
    0.8787791614239172, 0.8317355875545257, 0.7771596874067984, 0.7155457087837604,
    0.6474516374169826, 0.5734941437613903, 0.49434299833212986, 0.4107150061590664,
    0.3233675152894344, 0.23309155812664298, 0.14070468771833602, 0.047043573869391654,
)


def omega(n: int) -> mpmath.matrix:
    """The symplectic form of n modes, [[0, 1], [-1, 0]] per mode."""
    out = mpmath.zeros(2 * n, 2 * n)
    for a in range(n):
        out[2 * a, 2 * a + 1], out[2 * a + 1, 2 * a] = 1, -1
    return out


def generator() -> mpmath.matrix:
    """Omega h of the open chain in the ordering (q_1, p_1, ..., q_N, p_N), exact."""
    w, delta, g = mpmath.mpf(W), mpmath.mpf(DELTA), mpmath.mpf(G)
    bond = [[g / 2, (w + delta) / 2], [(delta - w) / 2, g / 2]]
    h = mpmath.zeros(2 * N, 2 * N)
    for a in range(N - 1):
        for i in range(2):
            for j in range(2):
                h[2 * a + i, 2 * a + 2 + j] = bond[i][j]
                h[2 * a + 2 + j, 2 * a + i] = bond[i][j]
    return omega(N) * h


def entropy(nu) -> mpmath.mpf:
    """s(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2), s(1) = 0."""
    v = (nu - 1) / 2
    return (v + 1) * mpmath.log(v + 1) - (v * mpmath.log(v) if v > 0 else 0)


def entropies(s_map: mpmath.matrix) -> tuple[mpmath.mpf, mpmath.mpf]:
    """S of site 0 and of sites 1..N-1 of the state sigma = S S^T."""
    sigma = s_map * s_map.T
    site = entropy(mpmath.sqrt(sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]))
    block = sigma[2:, 2:]
    chol = mpmath.cholesky(block)
    k_mat = chol.T * omega(N - 1) * chol
    squares = mpmath.eigsy(k_mat.T * k_mat, eigvals_only=True)
    nus = sorted(mpmath.sqrt(max(x, 1)) for x in squares)[::2]
    return site, mpmath.fsum(entropy(nu) for nu in nus)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dps", type=int, default=50)
    mpmath.mp.dps = parser.parse_args().dps
    m_mat, t = generator(), mpmath.mpf(T_MIN)
    print(f"t_min = {T_MIN!r}")
    exact = entropies(mpmath.expm(m_mat * t))
    values, vectors = mpmath.eig(m_mat)
    inverse = mpmath.inverse(vectors)

    def phased(phases) -> mpmath.matrix:
        rotated = vectors * mpmath.diag([mpmath.expj(phi) for phi in phases]) * inverse
        return rotated.apply(mpmath.re)

    check = entropies(phased([mpmath.im(c) * t for c in values]))
    paired = []
    for c in values:
        nearest = min(FREQUENCIES, key=lambda f: abs(f - abs(float(mpmath.im(c)))))
        paired.append(mpmath.sign(mpmath.im(c)) * mpmath.mpf(nearest * T_MIN))
    paired = entropies(phased(paired))
    for name, (site, rest) in (("exact phases", exact), ("paired float64 phases", paired)):
        print(f"{name}: S(site 0) = {float(site)!r}, S(sites 1..{N - 1}) = {float(rest)!r}, "
              f"difference {mpmath.nstr(site - rest, 3)}")
    print(f"eigenvector form on exact phases against expm: "
          f"{mpmath.nstr(max(abs(check[0] - exact[0]), abs(check[1] - exact[1])), 3)}")


if __name__ == "__main__":
    main()
