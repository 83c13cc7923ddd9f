"""Reference computations made apart from spinflip's engines.

Everything here is built from first principles with numpy/scipy: dense
generators assembled state by state from `RateModel.rate`, `scipy.linalg.expm`,
closed forms for independent flips, a dense `L^n` on a ring, and a
Walsh-Hadamard transform to read monomial coefficients back off a dense
vector.  None of it calls the semigroup engine, the concentration or
entropy helpers, or the symbolic expansion.

Conventions follow the package: state bit i set means spin +1 at site i.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply


def spins(states, site):
    """+-1 spin at `site` for an array of state indices."""
    return 2.0 * ((states >> np.int64(site)) & 1) - 1.0


def monomial(states, sites):
    out = np.ones(states.shape)
    for s in sites:
        out = out * spins(states, s)
    return out


def rate_array(rates, n_sites):
    """c[i, s] for every site and state, one `rates.rate` call per entry."""
    return np.array([[rates.rate(i, s) for s in range(1 << n_sites)] for i in range(n_sites)])


def dense_generator(c):
    """Q[s, s^i] = c[i, s], rows summing to zero (acts on functions)."""
    n_sites, n_states = c.shape
    q = np.zeros((n_states, n_states))
    states = np.arange(n_states)
    for i in range(n_sites):
        q[states, states ^ (1 << i)] = c[i]
    q[states, states] = -c.sum(axis=0)
    return q


def gamma_from_rates(c):
    """Gamma_ij = max_s (c(i, s^j) - c(i, s)), diagonal included."""
    n_sites, n_states = c.shape
    states = np.arange(n_states)
    return np.array(
        [[float(np.max(c[i, states ^ (1 << j)] - c[i])) for j in range(n_sites)] for i in range(n_sites)]
    )


def k_of_t(gamma, t):
    """||e^{t Gamma}||_{2->2}^2."""
    return float(np.linalg.norm(expm(t * gamma), 2) ** 2)


def k_squared_integral(gamma, t, nodes=64):
    """int_0^t K(s)^2 ds by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * t * (x + 1.0)
    return float(0.5 * t * sum(wi * k_of_t(gamma, si) ** 2 for si, wi in zip(s, w)))


def lipschitz_dense(values, n_sites):
    """delta_i f = max_s |f(s^i) - f(s)| for a function on all 2^N states;
    `values` may hold one function or a batch of columns."""
    states = np.arange(1 << n_sites)
    out = []
    for i in range(n_sites):
        diff = np.abs(values[states ^ (1 << i)] - values)
        out.append(diff.max(axis=0))
    return np.array(out)


def log_moment(probs, values):
    """log E e^{v - E v} under one distribution."""
    mean = float(probs @ values)
    shifted = values - mean
    top = float(shifted.max())
    return float(np.log(probs @ np.exp(shifted - top)) + top)


def relative_entropy(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def marginal(probs, sites):
    states = np.arange(probs.size)
    key = np.zeros(probs.size, dtype=np.int64)
    for j, s in enumerate(sorted(sites)):
        key |= ((states >> s) & 1) << j
    return np.bincount(key, weights=probs, minlength=1 << len(sites))


def glauber_ising_rates(sides, beta):
    """c[i, s] = exp(-beta sigma_i sum_{j ~ i} sigma_j) on a periodic 2D box,
    the detailed-balance rate exp(-(H(s^i) - H(s)) / 2) for
    H = -beta sum_{<ij>} sigma_i sigma_j."""
    rows, cols = sides
    n = rows * cols
    states = np.arange(1 << n, dtype=np.int64)
    out = np.empty((n, states.size))
    for r in range(rows):
        for col in range(cols):
            i = r * cols + col
            nbrs = {((r + 1) % rows) * cols + col, ((r - 1) % rows) * cols + col,
                    r * cols + (col + 1) % cols, r * cols + (col - 1) % cols}
            field = sum(spins(states, j) for j in nbrs)
            out[i] = np.exp(-beta * spins(states, i) * field)
    return out


# ---------------------------------------------------------------- symbolic


def ring_rates(shapes, ring, states):
    """Per-site rates c_i(s) = sum_B lambda(B) sigma_{B+i}(s) on a ring of
    `ring` sites, for a 1D generator given as {frozenset of (x,): lambda}."""
    out = []
    for i in range(ring):
        c = np.zeros(states.shape)
        for shape, lam in shapes.items():
            c += float(lam) * monomial(states, [(i + b[0]) % ring for b in shape])
        out.append(c)
    return out


def ring_generator_apply(c, values, ring):
    """(L f)(s) = sum_i c_i(s) (f(s^i) - f(s))."""
    states = np.arange(values.size, dtype=np.int64)
    out = np.zeros(values.size)
    for i in range(ring):
        out += c[i] * (values[states ^ (1 << i)] - values)
    return out


def ring_generator_sparse(c, ring):
    n_states = c[0].size
    states = np.arange(n_states)
    rows = np.concatenate([states] * (ring + 1))
    cols = np.concatenate([states ^ (1 << i) for i in range(ring)] + [states])
    data = np.concatenate(list(c) + [-sum(c)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n_states, n_states))


def semigroup_on_ring(c, values, ring, t):
    return expm_multiply(t * ring_generator_sparse(c, ring), values)


def walsh_coefficients(values):
    """Coefficients c_S with values = sum_S c_S sigma_S, keyed by site mask.

    The Walsh-Hadamard transform gives the expansion in chi_S(x) =
    (-1)^{popcount(S & x)}; with bit 1 meaning spin +1, sigma_S =
    (-1)^{|S|} chi_S."""
    a = np.asarray(values, dtype=float).copy()
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        a = np.stack([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]], axis=1).reshape(n)
        h *= 2
    a /= n
    masks = np.arange(n, dtype=np.int64)
    sign = np.where(np.bitwise_count(masks) & 1, -1.0, 1.0)
    return a * sign


def polynomial_on_ring(coeffs, ring, origin, states):
    """Dense values of sum_A coeff_A sigma_A for coordinate keys (x,),
    placing coordinate x at ring site x - origin."""
    out = np.zeros(states.shape)
    for key, coeff in coeffs.items():
        out += float(coeff) * monomial(states, [x[0] - origin for x in key])
    return out


def loccast_bound(shapes, n, a_size):
    """2^n M^n |bb|^n (|A| + K)^n n!, in exact integers/fractions."""
    m = max(abs(lam) for lam in shapes.values())
    k = max(len(b) for b in shapes)
    return 2**n * m**n * len(shapes) ** n * (a_size + k) ** n * math.factorial(n)


def tail_combinatorial_sum(psi_values, n):
    """sum over (k_1..k_n) in [0, K]^n of prod_j (1 + k_1 + ... + k_j)
    prod_m psi(k_m), by a dictionary recursion over the partial sum."""
    level = {0: 1.0}
    for _ in range(n):
        nxt = {}
        for partial, weight in level.items():
            for k, p in enumerate(psi_values):
                s = partial + k
                nxt[s] = nxt.get(s, 0.0) + weight * p * (1.0 + s)
        level = nxt
    return math.fsum(level.values())
