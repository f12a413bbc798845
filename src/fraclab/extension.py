"""Weighted extension problem in one extra variable.

Both fractional forms admit an elliptic realization: minimize the weighted
energy  integral of y^(1-2s) |grad w|^2  over the half-cylinder above the
domain, with trace u at y = 0.  The *navier* variant clamps w = 0 on the
lateral boundary of Omega; the *dirichlet* variant extends over the whole
box.  The minimizing energy reproduces the corresponding quadratic form up
to the constant factor 2s/C_s with C_s = 4^s Gamma(1+s)/Gamma(1-s), and the
fractional operator itself is recovered from the y -> 0 boundary layer,
where w(x, y) ~ u(x) + c(x) y^(2s).

Discretization: expand in the eigenbasis of the in-plane Laplacian (the
energy decouples mode by mode), and solve a piecewise-linear finite element
problem in y on a graded mesh y_k = Y (k/M)^gamma.  A mode's problem depends
only on its in-plane eigenvalue and is linear in its datum coefficient, so
it is solved once per distinct eigenvalue with unit datum and scaled, by a
ratio sweep (the UL factorization, three ufunc calls per layer).  Its
residual check and energies take one pass over cache-sized blocks of
layers; the dirichlet variant's box synthesis fills its lattice a block of
layers at a time.  The singular weight y^(1-2s) is integrated exactly over
every cell; the in-plane stiffness term uses the layer-lumped cell weights,
which keeps the assembled system an M-matrix so the discrete maximum
principle (and with it the ordering w_dirichlet >= w_navier for u >= 0)
holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import extension_constant
from .domain import SubDomain, extend_by_zero
from .operators import (_LAYER_BLOCK, _box_analysis, _box_synthesis, dirichlet_operator,
                        navier_operator)

__all__ = [
    "ExtensionMesh",
    "ExtensionSolution",
    "IdentityCheck",
    "OrderingCheck",
    "graded_mesh",
    "default_grading",
    "solve_extension",
    "energy_identity_check",
    "trace_limit",
    "extension_ordering_check",
]

VARIANTS = ("navier", "dirichlet")


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
    """Grading exponent resolving the y^(2s) boundary layer: max(2, 1/(1-s))."""
    return max(2.0, 1.0 / (1.0 - s))


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
    """Solution lattice of one extension solve and its weighted energy.

    ``datum`` is the trace u on Omega's nodes exactly as given.
    ``values[i, k]`` is w at the i-th in-plane node and y-layer k; the rows
    are Omega's nodes for the navier variant and the whole box for the
    dirichlet variant.  ``values[:, 0]`` reproduces the datum to roundoff
    and ``values[:, -1]`` is zero (truncation).
    """

    variant: str
    s: float
    domain: SubDomain
    mesh: ExtensionMesh
    datum: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    energy: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (self.energy >= 0.0 and math.isfinite(self.energy)):
            raise ValueError(f"energy must be finite and nonnegative, got {self.energy}")
        self.datum.flags.writeable = False
        self.values.flags.writeable = False


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


def _solve_modes(lam: np.ndarray, c0: np.ndarray, mesh: ExtensionMesh, s: float):
    """Per-mode tridiagonal solves: a ratio sweep, vectorized over distinct eigenvalues.

    Each eigenmode with in-plane eigenvalue lam_j minimizes
    sum_k mu_k ((c_{k+1}-c_k)/d_k)^2 + lam_j sum_k (wl_k c_k^2 + wr_k c_{k+1}^2)
    subject to c_0 given and c_M = 0 (M >= 4).  The sweep, its residual check
    and the energy sums run once per distinct lam_j (exact equality) on the
    unit-datum profile phi, and mode j gets c0_j phi and c0_j^2 E(phi).  The
    ratio sweep, the UL factorization of the M-matrix rows
    D_i phi_i = k_{i-1} phi_{i-1} + k_i phi_{i+1}, runs
    tau_i = phi_{i-1}/phi_i = D_i/k_{i-1} - (k_i/k_{i-1})/tau_{i+1} backward
    (tau_M = inf), then phi_i = phi_{i-1}/tau_i forward: three ufunc calls per
    layer on rows of the layer-major (M+1, n_distinct) lattice.  Diagonal
    dominance keeps tau_i >= 1 + lam w_i/k_{i-1}, so 0 < phi <= 1 (Higham,
    Accuracy and Stability, 9.5).  Returns the mode-major (n_modes, M+1)
    coefficient lattice, last column +0.0, and the per-mode energies.
    """
    m = mesh.layers
    mu, w_left, w_right = _cell_weights(mesh.y, s)
    k = mu / np.diff(mesh.y) ** 2
    lam_u, inv = np.unique(lam, return_inverse=True)
    phi = np.empty((m + 1, lam_u.size))
    phi[0], phi[m] = 1.0, 0.0
    # interior row i holds D_i/k_{i-1}, then tau_i, then phi_i
    np.multiply.outer((w_right[:-1] + w_left[1:]) / k[:-1], lam_u, out=phi[1:m])
    phi[1:m] += ((k[:-1] + k[1:]) / k[:-1])[:, None]
    rows, tmp = list(phi), np.empty(lam_u.size)
    for i in range(m - 2, 0, -1):
        np.divide(k[i] / k[i - 1], rows[i + 1], out=tmp)
        np.subtract(rows[i], tmp, out=rows[i])
    for i in range(1, m):
        np.divide(rows[i - 1], rows[i], out=rows[i])
    del rows  # row views: the transpose below then frees the layer-major profiles
    e_unit = _residual_and_energies(phi, lam_u, k, w_left, w_right)
    phi = np.ascontiguousarray(phi.T)
    coef = phi[inv]
    coef *= c0[:, None]
    coef[:, -1] = 0.0  # 0.0 * c0 is -0.0 where c0 < 0
    return coef, c0**2 * e_unit[inv]


def _residual_and_energies(phi, lam, k, w_left, w_right, tol=1e-10):
    """Check the layer-major profiles' residual and return their energies, in one
    pass over cache-sized blocks of _LAYER_BLOCK layers.  The residual
    D_i phi_i - k_{i-1} phi_{i-1} - k_i phi_{i+1}, D_i = (k_{i-1} + k_i) + w_i lam,
    must stay within tol * max(max|D| max|phi|, 1); D_i is monotone in lam
    (w_i > 0), so max|D| is read off the least and the largest lam."""
    m = phi.shape[0] - 1
    ksum, wsum = k[:-1] + k[1:], w_right[:-1] + w_left[1:]
    d_max = np.max(np.abs(ksum[:, None] + np.outer(wsum, [lam.min(), lam.max()])))
    w_node = np.concatenate([w_left[:1], wsum])  # the weight of phi_i^2 in E (phi_M = 0)
    err = phi_max = 0.0
    grad, mass = np.zeros(lam.size), np.zeros(lam.size)
    for b0 in range(0, m, _LAYER_BLOCK):
        b1 = min(b0 + _LAYER_BLOCK, m)
        lo = max(b0, 1)  # interior layers lo..b1-1 and cells b0..b1-1
        res = ksum[lo - 1:b1 - 1, None] + np.outer(wsum[lo - 1:b1 - 1], lam)
        res *= phi[lo:b1]
        res -= k[lo - 1:b1 - 1, None] * phi[lo - 1:b1 - 1]
        res -= k[lo:b1, None] * phi[lo + 1:b1 + 1]
        err = max(err, np.max(np.abs(res)))
        block = phi[b0:b1 + 1]
        phi_max = max(phi_max, np.max(np.abs(block)))
        grad += k[b0:b1] @ np.diff(block, axis=0) ** 2
        mass += w_node[b0:b1] @ (block[:-1] * block[:-1])
    err, scale = float(err), max(float(d_max * phi_max), 1.0)
    if err > tol * scale:
        raise RuntimeError(f"extension solve residual {err!r} exceeds tolerance {tol * scale!r}")
    return grad + lam * mass


def solve_extension(
    u: np.ndarray,
    domain: SubDomain,
    variant: str,
    s: float,
    mesh: ExtensionMesh,
) -> ExtensionSolution:
    """Minimize the weighted extension energy with trace u and w(., Y) = 0.

    ``u`` holds values on Omega's nodes and Y is the mesh height.  The
    navier variant solves on Omega's nodes with zero lateral values; the
    dirichlet variant zero-extends u and solves over the whole box.
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

    if variant == "navier":
        lam, q = domain.eigen.eigenvalues, domain.eigen.eigenvectors
        c0 = q.T @ vals
    else:
        lam, c0 = _box_analysis(extend_by_zero(vals, domain).values, domain.grid)
    coef, energies = _solve_modes(lam, c0, mesh, s)
    w = q @ coef if variant == "navier" else _box_synthesis(coef, domain.grid)
    energy = float(domain.grid.h ** domain.grid.dim * energies.sum())
    return ExtensionSolution(variant=variant, s=float(s), domain=domain, mesh=mesh,
                             datum=vals, values=w, energy=max(energy, 0.0))


class IdentityCheck(NamedTuple):
    form_value: float
    energy_value: float
    rel_gap: float


def energy_identity_check(sol: ExtensionSolution) -> IdentityCheck:
    """Compare the fractional quadratic form with (C_s/2s) times the extension energy.

    The form is that of ``sol.variant`` at ``sol.s`` on ``sol.domain``,
    evaluated at the solution's datum.  The two sides agree in the
    continuum; discretely the relative gap is the y-mesh error and must
    shrink under simultaneous refinement.
    """
    s, domain = sol.s, sol.domain
    if sol.variant == "navier":
        form = navier_operator(domain, s).form(sol.datum)
    else:
        form = dirichlet_operator(domain, domain.grid, s).form(sol.datum)
    rhs = extension_constant(s) / (2.0 * s) * sol.energy
    denom = max(abs(form), 1e-300)
    return IdentityCheck(form_value=form, energy_value=rhs, rel_gap=abs(form - rhs) / denom)


def trace_limit(sol: ExtensionSolution, fit_layers: int = 4) -> np.ndarray:
    """Recover the fractional operator applied to the datum from the y -> 0 layer.

    Fits w(x, y) ~ u(x) + c(x) y^(2s) by least squares over the first
    ``fit_layers`` y-layers and returns -C_s c(x) on Omega's nodes.  Fewer
    than 3 usable layers make the one-parameter fit meaningless and raise.
    """
    usable = min(fit_layers, sol.mesh.layers - 1)
    if usable < 3:
        raise ValueError(f"trace fit ill-conditioned: only {usable} usable layers (< 3)")
    w = sol.values if sol.variant == "navier" else sol.values[sol.domain.indices]
    yk = sol.mesh.y[1 : usable + 1]
    basis = yk ** (2.0 * sol.s)
    coeff = ((w[:, 1 : usable + 1] - sol.datum[:, None]) @ basis) / np.sum(basis**2)
    return -extension_constant(sol.s) * coeff


class OrderingCheck(NamedTuple):
    lattice_min: float
    interior_min: float


def extension_ordering_check(
    navier: ExtensionSolution, dirichlet: ExtensionSolution
) -> OrderingCheck:
    """Pointwise ordering of the two extensions of one nonnegative trace.

    Takes a navier and a dirichlet solution of the same domain, exponent,
    mesh and datum u >= 0, and returns the minimum of
    W = w_dirichlet - w_navier over Omega's closed y-lattice and over the
    interior layers 0 < y < Y.  The discrete maximum principle makes W >= 0,
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
    w_diff = dirichlet.values[navier.domain.indices] - navier.values
    return OrderingCheck(
        lattice_min=float(w_diff.min()),
        interior_min=float(w_diff[:, 1:-1].min()),
    )
