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
it is solved once per distinct eigenvalue with unit datum, by a sigma sweep
(sigma_i = phi_{i-1}/phi_i - 1, a sum of positive terms) on one layer-major
lattice of profiles, whose energy, the discrete Dirichlet-to-Neumann map
E_h(lam), is read off sigma_1; one pass over small blocks of layers checks
its residual.  Both syntheses read that lattice a block of layers at a time,
gathered into modes and scaled: the navier one through Omega's eigenvectors,
the dirichlet one on Omega's bounding box only; both solutions hold Omega's
nodes, and the same synthesis of c0_j E_h(lam_j) gives the co-normal trace.
The singular weight y^(1-2s) is integrated exactly over every cell; the
in-plane stiffness term uses the layer-lumped cell weights, which keeps the
assembled system an M-matrix: the discrete maximum principle, and with it
w_dirichlet >= w_navier for u >= 0, is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .domain import BoxGrid, SubDomain, _interval_eigenbasis, extend_by_zero
from .operators import (_KINDS as VARIANTS, Certificate, _certify, _fields, _form, _navier_form,
                        _restricted_matrix)
from .operators import dirichlet_operator  # noqa: F401  perfbench's tracer test wraps it here

__all__ = [
    "ExtensionMesh",
    "ExtensionSolution",
    "graded_mesh",
    "default_grading",
    "cell_stiffness",
    "solve_extension",
    "energy_identity_check",
    "trace_limit",
    "extension_ordering_check",
    "compare_extensions",
    "extension_constant",
]

_LAYER_BLOCK = 64  # y-layers per cache-sized block of the lattice passes
_RESIDUAL_TOL = 1e-10  # a profile residual's bound, relative to max(max|D| max|phi|, 1)


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
        if np.any(np.diff(y) <= 0):
            raise ValueError("y-nodes must be strictly increasing")
        if self.gamma < 1.0:
            raise ValueError(f"grading exponent must be >= 1, got {self.gamma}")
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @property
    def layers(self) -> int:
        return self.y.size - 1

    @property
    def height(self) -> float:
        return float(self.y[-1])


def default_grading(s: float) -> float:
    """Grading exponent resolving the y^(2s) boundary layer: max(2, 3/(2s) + 0.1), just above
    the 3/(2s) of Nochetto, Otarola and Salgado (Found. Comput. Math. 15, 2015)."""
    return max(2.0, 3.0 / (2.0 * s) + 0.1)


def graded_mesh(layers: int, height: float, gamma: float) -> ExtensionMesh:
    """Graded mesh y_k = Y (k/M)^gamma with M layers."""
    if layers < 1:
        raise ValueError("need at least one layer")
    if height <= 0:
        raise ValueError("truncation height must be positive")
    k = np.arange(layers + 1, dtype=float) / layers
    return ExtensionMesh(y=height * k**gamma, gamma=float(gamma))


@dataclass(frozen=True)
class ExtensionSolution:
    """Solution lattice of one extension solve, its weighted energy and its co-normal trace.

    ``datum`` is the trace u on Omega's nodes exactly as given.
    ``values[i, k]`` is w at Omega's i-th node and y-layer k, for either
    variant.  ``values[:, 0]`` reproduces the datum to roundoff and
    ``values[:, -1]`` is zero (truncation).  ``dtn`` is the discrete
    Dirichlet-to-Neumann map applied to the datum, sum_j c0_j E_h(lam_j) q_j
    on Omega's nodes, and ``energy`` is h^dim sum_j c0_j^2 E_h(lam_j).
    """

    variant: str
    s: float
    domain: SubDomain
    mesh: ExtensionMesh
    datum: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    dtn: np.ndarray = field(repr=False)
    energy: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (self.energy >= 0.0 and math.isfinite(self.energy)):
            raise ValueError(f"energy must be finite and nonnegative, got {self.energy}")
        self.datum.flags.writeable = False
        self.values.flags.writeable = False
        self.dtn.flags.writeable = False


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
    """The stiffness mu_k/d_k^2 of every cell; a ValueError if one is not a positive double, as
    when a steep mesh's y_1 = Y M^-gamma makes mu_0 underflow to 0 or mu_0/d_0^2 overflow."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = _cell_weights(mesh.y, s)[0] / np.diff(mesh.y) ** 2
    cell = int(np.argmin((k > 0) & (k < np.inf)))  # the first that fails, NaN included
    if not 0 < k[cell] < np.inf:
        raise ValueError(f"cell {cell} has stiffness {float(k[cell])!r}")
    return k


def _solve_modes(lam: np.ndarray, mesh: ExtensionMesh, s: float):
    """Per-mode tridiagonal solves by a sigma sweep, vectorized over distinct eigenvalues.

    Mode j minimizes sum_k mu_k ((c_{k+1}-c_k)/d_k)^2 + lam_j sum_k (wl_k c_k^2 + wr_k c_{k+1}^2)
    with c_0 given and c_M = 0 (M >= 4): it is c0_j times the unit-datum profile phi of its
    distinct lam_j (exact equality), of energy c0_j^2 E_h(lam_j).  With sigma_i =
    phi_{i-1}/phi_i - 1 the rows D_i phi_i = k_{i-1} phi_{i-1} + k_i phi_{i+1} read k_{i-1} sigma_i
    = k_i sigma_{i+1}/(1 + sigma_{i+1}) + lam w_i (the factor 1 at i = M - 1): no term cancels.
    It runs backward on v_i = k_{i-1} sigma_i/k_i = lam w_i/k_i + v_{i+1}/(k_i/k_{i+1} + v_{i+1}),
    three ufunc calls per layer on rows of the layer-major (M+1, n_distinct) lattice, then
    phi_i = phi_{i-1}/(1 + sigma_i) forward, one call per layer; 0 < phi <= 1.  The energy is
    the discrete Dirichlet-to-Neumann map E_h(lam) = k_0 sigma_1/(1 + sigma_1) + lam wl_0, a
    Stieltjes continued fraction in lam tending to d_s lam^s, d_s = 2^(1-2s) Gamma(1-s)/Gamma(s).
    Returns the lattice (row 0 ones, row M +0.0), ``inv`` (lam = unique(lam)[inv]) and E_h.
    """
    m = mesh.layers
    _, w_left, w_right = _cell_weights(mesh.y, s)
    k = cell_stiffness(mesh, s)
    lam_u, inv = np.unique(lam, return_inverse=True)
    phi = np.empty((m + 1, lam_u.size))
    phi[0], phi[m] = 1.0, 0.0
    # interior row i holds v_i, then 1 + sigma_i, then phi_i; one broadcast operand per
    # ufunc call, since each such operand costs a buffer of up to 64 KB
    phi[1:m] = lam_u
    phi[1:m] *= ((w_right[:-1] + w_left[1:]) / k[1:])[:, None]
    phi[m - 1] += 1.0  # phi_M = 0: sigma_M is infinite
    rows, tmp = list(phi), np.empty(lam_u.size)
    for i in range(m - 2, 0, -1):
        np.add(rows[i + 1], k[i] / k[i + 1], out=tmp)
        np.divide(rows[i + 1], tmp, out=tmp)
        rows[i] += tmp
    e_unit = k[0] * rows[1] / (k[0] / k[1] + rows[1]) + lam_u * w_left[0]
    phi[1:m] *= (k[1:] / k[:-1])[:, None]
    phi[1:m] += 1.0
    for i in range(1, m):
        np.divide(rows[i - 1], rows[i], out=rows[i])
    del rows, tmp  # before the residual pass's buffer
    _residual_check(phi, lam_u, k, w_left, w_right)
    return phi, inv, e_unit


def _residual_check(phi, lam, k, w_left, w_right):
    """Check that the residual D_i phi_i - k_{i-1} phi_{i-1} - k_i phi_{i+1} of the layer-major
    profiles, D_i = (k_{i-1} + k_i) + w_i lam, stays within 1e-10 max(max|D| max|phi|, 1); D_i
    is monotone in lam (w_i > 0), so max|D| is read off the least and the largest lam.  The
    residual of an eighth of min(M - 1, _LAYER_BLOCK) layers at a time and its products go
    into one preallocated buffer; each ufunc call broadcasts at most one operand, whose buffer
    is transient."""
    m = phi.shape[0] - 1
    ksum, wsum = k[:-1] + k[1:], w_right[:-1] + w_left[1:]
    d_max = np.max(np.abs(ksum[:, None] + np.outer(wsum, [lam.min(), lam.max()])))
    # np.maximum: a NaN entry propagates and fails the check
    err, phi_max = 0.0, np.maximum(np.max(phi), -np.min(phi))
    step = -(-min(m - 1, _LAYER_BLOCK) // 8)
    buf = np.empty((2, step, lam.size))
    for r0 in range(1, m, step):
        r1 = min(r0 + step, m)
        res, term = buf[0, :r1 - r0], buf[1, :r1 - r0]
        res[...] = lam
        res *= wsum[r0 - 1:r1 - 1, None]
        res += ksum[r0 - 1:r1 - 1, None]
        res *= phi[r0:r1]
        np.multiply(phi[r0 - 1:r1 - 1], k[r0 - 1:r1 - 1, None], out=term)
        res -= term
        np.multiply(phi[r0 + 1:r1 + 1], k[r0:r1, None], out=term)
        res -= term
        err = np.maximum(err, np.max(np.abs(res, out=res)))
    err, bound = float(err), _RESIDUAL_TOL * max(float(d_max * phi_max), 1.0)
    if not err <= bound:
        raise RuntimeError(f"extension solve residual {err!r} exceeds tolerance {bound!r}")


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


def _scaled_blocks(phi, inv, c0):
    """Yield (ks, C) over blocks ks of at least _LAYER_BLOCK y-layers below M (all if fewer),
    C[:, j] = c0_j phi[ks, inv_j] contiguous and layer-major; row M (w = 0) is left out."""
    layers = phi.shape[0] - 1
    blocks = max(layers // _LAYER_BLOCK, 1)
    for b in range(blocks):
        ks = slice(layers * b // blocks, layers * (b + 1) // blocks)
        block = phi[ks].take(inv, axis=1)
        block *= c0
        yield ks, block
        del block  # before the next gather


def _box_synthesis(grid: BoxGrid, rows: np.ndarray):
    """The synthesis at the box nodes ``rows``: a function writing into ``out`` (rows.size, L)
    the values of L layers of box-mode coefficients ``block`` (L, N^dim), layer k being
    q1[I] C_k q1[J]^T (q1[I] c_k in 1D), C_k the box lattice of block[k] and I, J the axis
    ranges of the bounding box of ``rows``, by one batched matmul per axis."""
    _, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    idx = np.unravel_index(rows, grid.shape)
    lo, hi = [int(i.min()) for i in idx], [int(i.max()) + 1 for i in idx]
    local = np.ravel_multi_index([i - i0 for i, i0 in zip(idx, lo)], np.subtract(hi, lo))

    def synthesize(block, out):
        block = block.reshape((-1,) + grid.shape)
        for a in range(grid.dim - 1):  # the first axis: [k, i, b]
            block = np.matmul(q[lo[a]:hi[a]], block)
        block = np.matmul(block, q[lo[-1]:hi[-1]].T)  # [k, i, j]
        out[...] = block.reshape(block.shape[0], -1)[:, local].T
    return synthesize


def solve_extension(u: np.ndarray, domain: SubDomain, variant: str, s: float,
                    mesh: ExtensionMesh) -> ExtensionSolution:
    """Minimize the weighted extension energy with trace u and w(., Y) = 0.

    ``u`` holds values on Omega's nodes and Y is the mesh height.  The
    navier variant solves on Omega's nodes with zero lateral values; the
    dirichlet variant zero-extends u and solves over the whole box.  The
    layers and the Dirichlet-to-Neumann map of the datum come out of one
    synthesis: Omega's eigenvectors (navier) or the box's sine basis (dirichlet).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {s}")
    if mesh.layers < 4:
        raise ValueError(f"mesh too coarse: {mesh.layers} layers < 4")
    vals = np.array(u, dtype=float)
    if vals.shape != (domain.node_count,):
        raise ValueError(f"expected {domain.node_count} boundary values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("boundary values must be finite")

    if variant == "dirichlet":
        lam, c0 = _box_analysis(extend_by_zero(vals, domain).values, domain.grid)
        synthesize = _box_synthesis(domain.grid, domain.indices)
    else:
        q = domain.eigen.eigenvectors
        lam, c0 = domain.eigen.eigenvalues, q.T @ vals

        def synthesize(block, out):
            np.matmul(q, block.T, out=out)
    phi, inv, e_unit = _solve_modes(lam, mesh, s)
    w = np.zeros((domain.node_count, mesh.layers + 1))
    for ks, block in _scaled_blocks(phi, inv, c0):
        synthesize(block, w[:, ks])
    flux, dtn = c0 * e_unit[inv], np.empty((domain.node_count, 1))
    synthesize(flux[None], dtn)
    energy = float(domain.grid.h ** domain.grid.dim * (c0 @ flux))
    return ExtensionSolution(variant=variant, s=float(s), domain=domain, mesh=mesh,
                             datum=vals, values=w, dtn=dtn[:, 0], energy=energy)


def energy_identity_check(sol: ExtensionSolution) -> Certificate:
    """Compare the fractional quadratic form with (C_s/2s) times the extension energy.

    The form is that of ``sol.variant`` at ``sol.s`` on ``sol.domain``,
    evaluated at the solution's datum.  The two sides agree in the
    continuum; discretely the relative gap, the margin (energy_identity), is
    the y-mesh error and must shrink under simultaneous refinement.  One row:
    s, the form, the energy side and their relative gap.
    """
    s, domain = sol.s, sol.domain
    if sol.variant == "navier":
        form = _navier_form(domain, s, sol.datum)
    else:
        form = _form(_restricted_matrix(domain, s), sol.datum, domain.grid)
    rhs = extension_constant(s) / (2.0 * s) * sol.energy
    rel_gap = abs(form - rhs) / max(abs(form), 1e-300)
    return _certify({"energy_identity": rel_gap}, s=s, form_value=form, energy_value=rhs,
                    rel_gap=rel_gap)


def trace_limit(sol: ExtensionSolution) -> np.ndarray:
    """The fractional operator applied to the datum, read off the discrete DtN map.

    Returns (C_s/2s) sum_j c0_j E_h(lam_j) q_j on Omega's nodes: the
    co-normal trace of the solution, which tends to A^s u as the y-mesh is
    refined, since (C_s/2s) d_s lam^s = lam^s.
    """
    return extension_constant(sol.s) / (2.0 * sol.s) * sol.dtn


def extension_ordering_check(navier: ExtensionSolution,
                             dirichlet: ExtensionSolution) -> Certificate:
    """Pointwise ordering of the two extensions of one nonnegative trace.

    Takes a navier and a dirichlet solution of the same domain, exponent,
    mesh and datum u >= 0.  Its margins are the minima of
    W = w_dirichlet - w_navier over Omega's closed y-lattice (ordering_lattice)
    and over the interior layers 0 < y < Y (ordering_interior), and its one
    row holds s and both.  The discrete maximum principle makes W >= 0,
    with strict sign inside whenever u is not identically zero, up to solver
    roundoff.
    """
    if (navier.variant, dirichlet.variant) != ("navier", "dirichlet"):
        raise ValueError(f"expected a navier and a dirichlet solution, in that order, "
                         f"got {navier.variant!r} and {dirichlet.variant!r}")
    if navier.domain is not dirichlet.domain:
        raise ValueError("the two solutions belong to different domains")
    if navier.s != dirichlet.s:
        raise ValueError(f"the two solutions have exponents {navier.s} and {dirichlet.s}")
    if not np.array_equal(navier.mesh.y, dirichlet.mesh.y):
        raise ValueError("the two solutions were solved on different y-meshes")
    if not np.array_equal(navier.datum, dirichlet.datum):
        raise ValueError("the two solutions have different data")
    if np.any(navier.datum < 0):
        raise ValueError("boundary datum must be entrywise nonnegative")
    w_diff = dirichlet.values - navier.values
    lattice, interior = w_diff.min(), w_diff[:, 1:-1].min()
    return _certify({"ordering_lattice": lattice, "ordering_interior": interior}, s=navier.s,
                    ordering_lattice_min=lattice, ordering_interior_min=interior)


def compare_extensions(u: np.ndarray, domain: SubDomain, s: float,
                       mesh: ExtensionMesh) -> Certificate:
    """The energy identity of the navier extension of ``u`` and the ordering of both, joined.

    Least memory: the dirichlet solve runs with no solution alive, and the
    identity check with the navier solution alone.
    """
    dirichlet = solve_extension(u, domain, "dirichlet", s, mesh)
    navier = solve_extension(u, domain, "navier", s, mesh)
    order = extension_ordering_check(navier, dirichlet)
    del dirichlet
    ident = energy_identity_check(navier)
    del navier
    return _certify({**ident.margins, **order.margins},
                    **{**_fields(ident.rows), **_fields(order.rows)})
