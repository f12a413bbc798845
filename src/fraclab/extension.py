"""Weighted extension problem in one extra variable.

Both fractional forms admit an elliptic realization: minimize the weighted
energy  integral of y^(1-2s) |grad w|^2  over the half-cylinder above the
domain, with trace u at y = 0.  The *navier* variant clamps w = 0 on the
lateral boundary of Omega; the *dirichlet* variant extends over the whole
box.  The minimizing energy reproduces the corresponding quadratic form up
to the constant factor 2s/C_s with C_s = 4^s Gamma(1+s)/Gamma(1-s), and the
fractional operator itself is C_s/(2s) times the Dirichlet-to-Neumann map
u -> -lim y^(1-2s) dw/dy at y = 0, the co-normal trace.

Discretization: expand in the eigenbasis of the in-plane Laplacian (the
energy decouples mode by mode), and solve a piecewise-linear finite element
problem in y on a graded mesh y_k = Y (k/M)^gamma.  A mode's problem depends
only on its in-plane eigenvalue and is linear in its datum coefficient, so
it is solved once per distinct eigenvalue with unit datum, by one sigma sweep
(sigma_i = phi_{i-1}/phi_i - 1, a sum of positive terms) for both variants,
streamed a block of layers at a time from checkpoints; the energy, the
discrete Dirichlet-to-Neumann map E_h(lam), is read off sigma_1, and every
block checks its residual.  Each block is gathered into modes, scaled and
synthesized: the navier one through Omega's eigenvectors, the dirichlet one on
Omega's bounding box only, at Omega's nodes.  ``compare_extensions``, the
layer's one entry point, certifies the navier energy identity and the
ordering w_dirichlet >= w_navier of one datum this way, and forms no solution.
The singular weight y^(1-2s) is integrated exactly over every cell; the
in-plane stiffness term uses the layer-lumped cell weights, which keeps the
assembled system an M-matrix: the discrete maximum principle, and with it
w_dirichlet >= w_navier for u >= 0, is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import imul

import numpy as np

from .domain import BoxGrid, SubDomain, _interval_eigenbasis
from .operators import Certificate, _certify, _fields, _navier_form
from .operators import dirichlet_operator  # noqa: F401  perfbench's tracer test wraps it here

__all__ = [
    "ExtensionMesh",
    "graded_mesh",
    "default_grading",
    "cell_stiffness",
    "compare_extensions",
    "extension_constant",
]

_LAYER_BLOCK = 64  # y-layers per cache-sized block of the lattice passes
_RESIDUAL_TOL = 1e-10  # a profile residual's bound, relative to max(max|D|, 1): 0 < phi <= 1


def extension_constant(s: float) -> float:
    """The extension normalization C_s = 4^s Gamma(1+s)/Gamma(1-s) (= 1 at s = 1/2)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {s}")
    return 4.0**s * math.gamma(1.0 + s) / math.gamma(1.0 - s)


@dataclass(frozen=True)
class ExtensionMesh:
    """Strictly increasing y-nodes 0 = y_0 < ... < y_M = Y, graded toward 0."""

    y: np.ndarray
    gamma: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise ValueError("mesh needs at least two y-nodes")
        if y[0] != 0.0:
            raise ValueError("mesh must start at y = 0")
        if not np.all(np.diff(y) > 0):  # a NaN node fails too
            raise ValueError("y-nodes must be strictly increasing")
        if y[-1] == np.inf:  # from 0 and increasing, only the last node can be infinite
            raise ValueError(f"y-node {y.size - 1} is inf, not finite")
        _check_grading(self.gamma)
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @property
    def layers(self) -> int:
        return self.y.size - 1

    @property
    def height(self) -> float:
        return float(self.y[-1])


def _check_grading(gamma: float) -> None:
    if not gamma >= 1.0:
        raise ValueError(f"grading exponent must be >= 1, got {gamma}")


def default_grading(s: float) -> float:
    """Grading exponent resolving the y^(2s) boundary layer: max(2, 3/(2s) + 0.1), just above
    the 3/(2s) of Nochetto, Otarola and Salgado (Found. Comput. Math. 15, 2015)."""
    return max(2.0, 3.0 / (2.0 * s) + 0.1)


def graded_mesh(layers: int, height: float, gamma: float) -> ExtensionMesh:
    """Graded mesh y_k = Y (k/M)^gamma with M layers; Y and gamma are checked first, NaN too."""
    if layers < 1:
        raise ValueError("need at least one layer")
    if not 0 < height < math.inf:
        raise ValueError("truncation height must be positive and finite")
    _check_grading(gamma)
    k = np.arange(layers + 1, dtype=float) / layers
    return ExtensionMesh(y=height * k**gamma, gamma=float(gamma))


def _cell_weights(y: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact integrals of y^(1-2s) against 1, the left hat and the right hat
    on every cell [y_k, y_{k+1}].  The weight is integrable for 0 < s < 1, so
    the first cell (touching y = 0) needs no regularization."""
    a, b = y[:-1], y[1:]
    d = b - a
    p = 2.0 - 2.0 * s
    mu = (b**p - a**p) / p
    q = 3.0 - 2.0 * s
    w_right = ((b**q - a**q) / q - a * mu) / d
    w_left = mu - w_right
    return mu, w_left, w_right


def cell_stiffness(mesh: ExtensionMesh, s: float) -> np.ndarray:
    """The stiffness mu_k/d_k^2 of every cell.  An OverflowError if a cell's weights or squared
    width overflow, as at a large height Y; a ValueError if a stiffness is not a positive double,
    as when a steep mesh's y_1 = Y M^-gamma makes mu_0 underflow to 0 or mu_0/d_0^2 overflow."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        *weights, d2 = *_cell_weights(mesh.y, s), np.diff(mesh.y) ** 2
        k = weights[0] / d2
    finite = np.isfinite([*weights, d2]).all(axis=0)
    if not finite.all():
        cell = int(np.argmin(finite))
        raise OverflowError(f"cell {cell} below y = {mesh.y[cell + 1]:g} has weights or squared "
                            "width beyond floating point")
    cell = int(np.argmin((k > 0) & (k < np.inf)))  # the first that fails, NaN included
    if not 0 < k[cell] < np.inf:
        raise ValueError(f"cell {cell} has stiffness {float(k[cell])!r}")
    return k


def _sweep(modes, mesh: ExtensionMesh, s: float):
    """The unit-datum profiles phi of every set (lam, c0, synthesize) of ``modes``, streamed.

    Mode j of a set minimizes sum_k mu_k ((c_{k+1}-c_k)/d_k)^2 + lam_j sum_k (wl_k c_k^2 + wr_k
    c_{k+1}^2) with c_0 given and c_M = 0 (M >= 4): it is c0_j times the profile of its lam_j
    (exact equality), of energy c0_j^2 E_h(lam_j).  With sigma_i = phi_{i-1}/phi_i - 1 the rows
    D_i phi_i = k_{i-1} phi_{i-1} + k_i phi_{i+1} read k_{i-1} sigma_i = k_i sigma_{i+1}/(1 +
    sigma_{i+1}) + lam w_i (the factor 1 at i = M - 1): no term cancels.  It runs backward on
    v_i = k_{i-1} sigma_i/k_i = lam w_i/k_i + v_{i+1}/(k_i/k_{i+1} + v_{i+1}), three ufunc calls
    per layer on a row of the sets' distinct lam, keeping v at the first layer of each block of
    at least _LAYER_BLOCK layers below M (one if fewer); each later block recomputes its rows
    from there, and phi_i = phi_{i-1}/(1 + sigma_i) runs forward; 0 < phi <= 1.  E_h(lam) =
    k_0 sigma_1/(1 + sigma_1) + lam wl_0 tends to d_s lam^s, d_s = 2^(1-2s) Gamma(1-s)/Gamma(s).
    Returns each set's flux c0_j E_h(lam_j) and a generator of (ks, values), values[v] the
    synthesis of c0_j phi[ks, lam_j] over set v's modes; then each set's residual is held to its
    own 1e-10 max(max|D|, 1), w_i lam > 0 (max|phi| = phi_0 = 1), and a FloatingPointError
    raised if the profile of the least lam, above every other, underflows to 0 below layer M.
    """
    m, k = mesh.layers, cell_stiffness(mesh, s)
    _, w_left, w_right = _cell_weights(mesh.y, s)
    wsum = w_right[:-1] + w_left[1:]
    c, g = wsum / k[1:], k[1:] / k[:-1]  # at i - 1: layer i's factor of lam, and k_i/k_{i-1}
    lam, inv = np.unique(np.concatenate([mode[0] for mode in modes]), return_inverse=True)
    invs = np.split(inv, np.cumsum([mode[0].size for mode in modes])[:-1])
    blocks = max(m // _LAYER_BLOCK, 1)
    edges = [m * b // blocks for b in range(blocks + 1)]
    # block b holds layers a <= i < e; buf[t] holds its layer a - 1 + t, up to layer e
    buf = np.empty((max(np.diff(edges)) + 2, lam.size))
    tops = np.empty((blocks - 1, lam.size))  # tops[b] = v_e

    def backward(b):  # v_i into buf[i - a + 1] for a <= i < e, from v_e; phi_0 = 1 at i = 0
        a, e = edges[b], edges[b + 1]
        lo, buf[1] = max(a, 1), 1.0
        buf[lo - a + 1:e - a + 1] = lam
        buf[lo - a + 1:e - a + 1] *= c[lo - 1:e - 1, None]  # one broadcast operand per call
        if e == m:
            buf[m - a] += 1.0  # phi_M = 0: sigma_M is infinite
        buf[e - a + 1], tmp = 0.0 if e == m else tops[b], np.empty(lam.size)
        for i in range(min(e, m - 1) - 1, lo - 1, -1):
            np.add(buf[i - a + 2], k[i] / k[i + 1], out=tmp)
            np.divide(buf[i - a + 2], tmp, out=tmp)
            buf[i - a + 1] += tmp

    for b in range(blocks - 1, 0, -1):
        backward(b)
        tops[b - 1] = buf[1]
    backward(0)  # and the stream starts from its rows
    e_unit = k[0] * buf[2] / (k[0] / k[1] + buf[2]) + lam * w_left[0]

    def stream():
        err = np.zeros(lam.size)
        for b in range(blocks):
            a, e = edges[b], edges[b + 1]
            if b:
                backward(b)
            lo, hi = max(a, 1), min(e, m - 1)
            sigma = buf[lo - a + 1:hi - a + 2]  # 1 + sigma_i for lo <= i <= hi
            sigma *= g[lo - 1:hi, None]
            sigma += 1.0
            for t in range(lo - a + 1, hi - a + 2):
                np.divide(buf[t - 1], buf[t], out=buf[t])
            _residual(buf[lo - a:e - a + 2], lam, k, wsum, lo, err)
            # each set's scaled block is handed over unreferenced: its synthesis frees it early
            yield slice(a, e), [synthesize(imul(buf[1:e - a + 1].take(iv, axis=1), c0))
                                for (_, c0, synthesize), iv in zip(modes, invs)]
            buf[0] = buf[e - a]  # phi_{e-1}, the next block's first neighbour
        for (lam_v, _, _), iv in zip(modes, invs):
            res, d_max = float(err[iv].max()), np.max(k[:-1] + k[1:] + wsum * lam_v.max())
            bound = _RESIDUAL_TOL * max(float(d_max), 1.0)
            if not res <= bound:
                raise RuntimeError(f"extension solve residual {res!r} exceeds tolerance {bound!r}")
        if not buf[0, 0] > 0:  # phi_{M-1} of the least lam: every profile is 0 there
            raise FloatingPointError(f"every profile underflows to 0 below layer {m}")

    return [c0 * e_unit[iv] for (_, c0, _), iv in zip(modes, invs)], stream()


def _residual(phi, lam, k, wsum, i0, err):
    """Raise err, per column, to |D_i phi_i - k_{i-1} phi_{i-1} - k_i phi_{i+1}|, D_i = (k_{i-1} +
    k_i) + w_i lam, over layers i0 <= i < i0 + n of ``phi`` (layers i0 - 1 to i0 + n), an eighth
    at a time in one buffer; a NaN propagates."""
    n = len(phi) - 2
    step = -(-n // 8)
    scratch = np.empty((2, step, lam.size))
    for r in range(0, n, step):
        p, i, h = phi[r:r + step + 2], i0 + r, min(step, n - r)
        (res, term), below, at = scratch[:, :h], k[i - 1:i - 1 + h], k[i:i + h]
        res[...] = lam  # one broadcast operand per ufunc call: each costs a buffer
        res *= wsum[i - 1:i - 1 + h, None]
        res += (below + at)[:, None]
        res *= p[1:-1]
        res -= np.multiply(p[:-2], below[:, None], out=term)
        res -= np.multiply(p[2:], at[:, None], out=term)
        np.maximum(err, np.abs(res, out=res).max(axis=0), out=err)


def _box_analysis(datum: np.ndarray, grid: BoxGrid) -> tuple[np.ndarray, np.ndarray]:
    """Box-mode eigenvalues and coefficients of a datum on the whole box: q1^T X q1
    (q1^T x in 1D), X the datum on the N x N lattice and q1 the cached 1D sine basis,
    O(N^3) instead of O(N^4) through the dense N^2 x N^2 basis.  Mode (a, b) sits at
    flat index a N + b with eigenvalue lam_a + lam_b, unsorted."""
    lam1, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    coef = q.T @ datum.reshape(grid.shape)
    for _ in range(1, grid.dim):  # the second axis
        coef = coef @ q
    return reduce(np.add.outer, [lam1] * grid.dim).ravel(), coef.ravel()


def _box_synthesis(grid: BoxGrid, rows: np.ndarray):
    """The synthesis at the box nodes ``rows``: a function giving, as a (rows.size, L) array, the
    values of L layers of box-mode coefficients ``block`` (L, N^dim), layer k being q1[I] C_k
    q1[J]^T (q1[I] c_k in 1D), C_k the box lattice of block[k] and I, J the axis ranges of the
    bounding box of ``rows``, by one batched matmul per axis."""
    _, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    idx = np.unravel_index(rows, grid.shape)
    lo, hi = [int(i.min()) for i in idx], [int(i.max()) + 1 for i in idx]
    local = np.ravel_multi_index([i - i0 for i, i0 in zip(idx, lo)], np.subtract(hi, lo))

    def synthesize(block):
        block = block.reshape((-1,) + grid.shape)
        for a in range(grid.dim - 1):  # the first axis: [k, i, b]
            block = np.matmul(q[lo[a]:hi[a]], block)
        block = np.matmul(block, q[lo[-1]:hi[-1]].T)  # [k, i, j]
        return block.reshape(block.shape[0], -1)[:, local].T
    return synthesize


def _analyses(u: np.ndarray, domain: SubDomain, s: float, mesh: ExtensionMesh):
    """The checked datum u and the dirichlet and the navier (lam, c0, synthesize), in that order:
    each variant's in-plane modes and their synthesis, by the box's sine basis (dirichlet) or
    Omega's eigenvectors (navier)."""
    extension_constant(s)  # refuses s outside (0, 1)
    if mesh.layers < 4:
        raise ValueError(f"mesh too coarse: {mesh.layers} layers < 4")
    vals = np.array(u, dtype=float)
    if vals.shape != (domain.node_count,):
        raise ValueError(f"expected {domain.node_count} boundary values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("boundary values must be finite")
    datum = np.zeros(domain.grid.size)
    datum[domain.mask] = vals
    q = domain.eigen.eigenvectors
    return vals, [(*_box_analysis(datum, domain.grid), _box_synthesis(domain.grid, domain.indices)),
                  (domain.eigen.eigenvalues, q.T @ vals, lambda block: q @ block.T)]


def _energy_identity(domain, s, datum, energy) -> Certificate:
    """The Navier form of the datum against (C_s/2s) times its extension energy: the relative gap,
    the margin (energy_identity), is the y-mesh error.  One row: s, both sides and their gap."""
    form = _navier_form(domain, s, datum)
    rhs = extension_constant(s) / (2.0 * s) * energy
    rel_gap = abs(form - rhs) / max(abs(form), 1e-300)
    return _certify({"energy_identity": rel_gap}, s=s, form_value=form, energy_value=rhs,
                    rel_gap=rel_gap)


def _ordering(datum, s, blocks) -> Certificate:
    """The ordering certificate of a datum u >= 0 at s off blocks W = w_dirichlet - w_navier of
    the layers from y = 0 up to Y, exclusive (W = 0 there); y = 0 is not interior."""
    if np.any(datum < 0):
        raise ValueError("boundary datum must be entrywise nonnegative")
    lattice, interior = 0.0, np.inf
    for b, w_diff in enumerate(blocks):
        lattice = np.minimum(lattice, w_diff.min())
        interior = np.minimum(interior, w_diff[:, int(b == 0):].min())
    return _certify({"ordering_lattice": lattice, "ordering_interior": interior}, s=s,
                    ordering_lattice_min=lattice, ordering_interior_min=interior)


def compare_extensions(u: np.ndarray, domain: SubDomain, s: float,
                       mesh: ExtensionMesh) -> Certificate:
    """The energy identity of the navier extension of ``u`` and the ordering of both, joined, from
    one sweep of both variants: the navier energy is read off sigma_1, and the ordering minima
    of W = w_dirichlet - w_navier a block of layers at a time; no solution is formed."""
    vals, modes = _analyses(u, domain, s, mesh)
    (_, flux), blocks = _sweep(modes, mesh, s)
    order = _ordering(vals, float(s), (np.subtract(*w, out=w[0]) for _, w in blocks))
    energy = float(domain.grid.h ** domain.grid.dim * (modes[1][1] @ flux))
    ident = _energy_identity(domain, float(s), vals, energy)
    return _certify(ident.margins | order.margins, **_fields(ident.rows) | _fields(order.rows))
