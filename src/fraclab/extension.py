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
it is solved once per distinct eigenvalue with unit datum and scaled.  The
singular weight y^(1-2s) is integrated exactly over every cell; the
in-plane stiffness term uses the layer-lumped cell weights, which keeps the
assembled system an M-matrix so the discrete maximum principle (and with it
the ordering w_dirichlet >= w_navier for u >= 0) holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import extension_constant
from .domain import SubDomain, extend_by_zero
from .operators import _box_analysis, _box_synthesis, dirichlet_operator, navier_operator

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
    """Per-mode tridiagonal solves (Thomas, vectorized over distinct eigenvalues).

    Each eigenmode with in-plane eigenvalue lam_j minimizes
    sum_k mu_k ((c_{k+1}-c_k)/d_k)^2 + lam_j sum_k (wl_k c_k^2 + wr_k c_{k+1}^2)
    subject to c_0 given and c_M = 0, for M >= 4 layers as solve_extension
    requires.  The system depends on lam_j alone and c_0 enters linearly, so
    the sweep, its residual check and the energy sums run once per distinct
    eigenvalue (exact equality; the box's lam_a + lam_b repeats each value
    about twice) on the unit-datum profile phi (c_0 = 1), and mode j gets
    c0_j phi and c0_j^2 E(phi).  The sweep works layer-major, on
    (M+1, n_distinct) arrays, so each step reads and writes one contiguous
    row.  Returns the mode-major (n_modes, M+1) coefficient lattice, whose
    last column is +0.0, and the per-mode energies.
    """
    y = mesh.y
    m = mesh.layers
    mu, w_left, w_right = _cell_weights(y, s)
    k = mu / np.diff(y) ** 2
    lam_u, inv = np.unique(lam, return_inverse=True)
    nm = lam_u.size
    diag = (k[:-1] + k[1:])[:, None] + np.outer(w_right[:-1] + w_left[1:], lam_u)
    off = -k[1:-1]
    phi = np.zeros((m + 1, nm))
    phi[0] = 1.0
    dp = phi[1:-1]  # forward values, overwritten in place by the solution
    cp = np.empty((m - 2, nm))
    den, tmp = np.empty(nm), np.empty(nm)
    np.divide(k[0], diag[0], out=dp[0])
    np.divide(off[0], diag[0], out=cp[0])
    for i in range(1, m - 1):
        np.subtract(diag[i], np.multiply(off[i - 1], cp[i - 1], out=den), out=den)
        if i < m - 2:
            np.divide(off[i], den, out=cp[i])
        np.subtract(0.0, np.multiply(off[i - 1], dp[i - 1], out=tmp), out=tmp)
        np.divide(tmp, den, out=dp[i])
    for i in range(m - 3, -1, -1):
        np.subtract(dp[i], np.multiply(cp[i], dp[i + 1], out=tmp), out=dp[i])
    del cp, dp  # dp views phi: the transpose below then frees the layer-major profiles
    _residual_check(diag, k, phi)
    del diag
    phi = np.ascontiguousarray(phi.T)
    steps = np.diff(phi, axis=1)
    e_unit = (steps**2) @ k + lam_u * ((phi[:, :-1] ** 2) @ w_left + (phi[:, 1:] ** 2) @ w_right)
    coef = phi[inv]
    coef *= c0[:, None]
    coef[:, -1] = 0.0  # 0.0 * c0 is -0.0 where c0 < 0
    return coef, c0**2 * e_unit[inv]


def _residual_check(diag, k, coef, tol=1e-10):
    """Verify the layer-major sweep solved its tridiagonal systems to the advertised residual."""
    res = diag * coef[1:-1] - k[:-1, None] * coef[:-2] - k[1:, None] * coef[2:]
    scale = max(float(np.max(np.abs(diag)) * np.max(np.abs(coef), initial=0.0)), 1.0)
    err = float(np.max(np.abs(res)))
    if err > tol * scale:
        raise RuntimeError(f"extension solve residual {err:.3e} exceeds tolerance")


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
    hdim = domain.grid.h ** domain.grid.dim
    energy = float(hdim * energies.sum())
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
