"""Discrete Laplacian and the two fractional operators built from it.

Two inequivalent fractional Laplacians act on functions supported in a
subdomain Omega of a box grid:

* the *spectral* ("Navier") operator, the s-th power of Omega's own
  Dirichlet Laplacian A_Omega, with quadratic form sum_j lambda_j^s (u, q_j)^2;
* the *restricted* ("Dirichlet") operator P B^s P^T, the s-th power of the
  ambient box Laplacian B compressed back to Omega by the restriction P.

Because A_Omega = P B P^T exactly (the five-point stencil restricted to the
mask), operator concavity of t -> t^s makes the spectral form dominate the
restricted one at the matrix level, so domination, eigenvalue ordering and
the domain-monotonicity chain are exact here up to roundoff and can be
tested sharply.  An FFT-based periodic multiplier form provides an
independent cross-check of the restricted form.

Quadratic forms returned by :meth:`SymOperator.form` carry the h^dim volume
weight, so they discretize integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import BoxGrid, GridFunction, SubDomain, _interval_eigenbasis
from .linalg import EigenDecomposition, eigendecompose, spectral_power, sym_matrix

__all__ = [
    "SymOperator",
    "SpectrumComparison",
    "assemble_laplacian",
    "navier_operator",
    "dirichlet_operator",
    "fourier_form",
    "difference_operator",
    "compare_spectra",
    "monotonicity_check",
]

_KINDS = ("laplacian", "navier", "dirichlet", "difference")


@dataclass(frozen=True)
class SymOperator:
    """Symmetric operator matrix with its eigendecomposition computed eagerly.

    ``kind`` is one of laplacian/navier/dirichlet/difference; the first three
    must be positive definite, the difference kind is expected semidefinite
    and carries whatever spectrum the comparison produced.
    """

    matrix: np.ndarray = field(repr=False)
    eigen: EigenDecomposition = field(repr=False)
    kind: str
    domain: SubDomain
    s: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind != "difference" and self.eigen.eigenvalues[0] <= 0:
            raise ValueError(
                f"{self.kind} operator must be positive definite; "
                f"min eigenvalue = {self.eigen.eigenvalues[0]:.3e}"
            )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigen.eigenvalues[0])

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(u, dtype=float)

    def form(self, u: np.ndarray) -> float:
        """Volume-weighted quadratic form h^dim * u^T M u."""
        v = np.asarray(u, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        return self.domain.grid.h ** self.domain.grid.dim * float(v @ (self.matrix @ v))


@dataclass(frozen=True)
class SpectrumComparison:
    """Ascending eigenvalue pairs of the two fractional operators on Omega."""

    s: float
    navier: np.ndarray
    dirichlet: np.ndarray

    def __post_init__(self):
        if self.navier.shape != self.dirichlet.shape:
            raise ValueError("spectra have different lengths")

    @property
    def margins(self) -> np.ndarray:
        return self.navier - self.dirichlet

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.navier.tolist(), self.dirichlet.tolist()))


def _as_subdomain(domain: SubDomain | BoxGrid) -> SubDomain:
    if isinstance(domain, BoxGrid):
        return SubDomain(grid=domain, mask=np.ones(domain.size, dtype=bool), shape="box")
    return domain


def assemble_laplacian(domain: SubDomain | BoxGrid) -> SymOperator:
    """Discrete Dirichlet Laplacian of the (sub)domain as a positive definite operator."""
    sd = _as_subdomain(domain)
    return SymOperator(matrix=sd.laplacian, eigen=sd.eigen, kind="laplacian", domain=sd, s=None)


def _check_s(s: float) -> float:
    s = float(s)
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional exponent must lie in (0, 1], got {s}")
    return s


def navier_operator(domain: SubDomain | BoxGrid, s: float) -> SymOperator:
    """Spectral fractional Laplacian of Omega: the s-th power of A_Omega.

    At s = 1 this is the Laplacian matrix itself, returned exactly rather
    than through the eigenbasis, so coincidence tests see identical entries.
    """
    s = _check_s(s)
    sd = _as_subdomain(domain)
    eigen = sd.eigen
    if s == 1.0:
        matrix = sd.laplacian
    else:
        matrix = spectral_power(eigen, s)
    powered = EigenDecomposition(
        eigenvalues=np.ascontiguousarray(eigen.eigenvalues**s),
        eigenvectors=eigen.eigenvectors,
    )
    return SymOperator(matrix=matrix, eigen=powered, kind="navier", domain=sd, s=s)


def _embedded_indices(domain: SubDomain, box: BoxGrid) -> np.ndarray:
    """Flat indices of Omega's nodes inside the box grid (must be aligned)."""
    if domain.grid == box:
        return domain.indices
    emb = domain.grid.embed_indices(box)
    return emb[domain.mask]


# Values per block of restricted rows (16 MB): bounds the working set of
# _restricted_power while keeping its products large enough for BLAS.
_ROWS_BLOCK_VALUES = 1 << 21


def _restricted_power(idx: np.ndarray, box: BoxGrid, s: float) -> np.ndarray:
    """P B^s P^T for the box nodes ``idx``, from the cached 1D sine basis.

    The box eigenvectors are the products q[i, a] q[j, b] of the 1D basis,
    with eigenvalues lam_a + lam_b, so in 2D Omega's rows of the box basis
    are formed a block of first-axis modes a at a time, scaled by
    (lam_a + lam_b)^(s/2), and summed as R R^T: the work is |Omega|^2 N^2
    and the working set |Omega|^2 plus one block, never the N^2 x N^2 box
    basis.  The sum does not depend on the order of the modes, so nothing
    is sorted.
    """
    n = box.nodes_per_axis
    lam, q = _interval_eigenbasis(n, box.h)
    if box.dim == 1:
        rows = q[idx]
        return (rows * lam**s) @ rows.T
    i, j = np.divmod(idx, n)
    qi, qj = q[i], q[j]
    half_power = (lam[:, None] + lam[None, :]) ** (0.5 * s)
    step = max(1, _ROWS_BLOCK_VALUES // (idx.size * n))
    out = np.zeros((idx.size, idx.size))
    for a in range(0, n, step):
        block = qi[:, a : a + step, None] * (qj[:, None, :] * half_power[a : a + step])
        rows = block.reshape(idx.size, -1)
        out += rows @ rows.T
    return out


def _box_analysis(datum: np.ndarray, grid: BoxGrid) -> tuple[np.ndarray, np.ndarray]:
    """Box-mode eigenvalues and coefficients of a datum on the whole box.

    The box eigenvectors are products of the cached 1D sine basis q1, so the
    coefficients are q1^T X q1 with X the datum on the N x N lattice: O(N^3)
    instead of O(N^4) through the dense N^2 x N^2 basis.  Mode (a, b) sits
    at flat index a N + b with eigenvalue lam_a + lam_b, unsorted.
    """
    lam1, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    if grid.dim == 1:
        return lam1, q.T @ datum
    n = grid.nodes_per_axis
    lam = (lam1[:, None] + lam1[None, :]).ravel()
    return lam, (q.T @ datum.reshape(n, n) @ q).ravel()


def _box_synthesis(coef: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Box nodal values from box-mode coefficients, one y-layer at a time.

    Each layer k is q1 C_k q1^T on the N x N lattice, contracted one axis at
    a time: O(N^3) per layer.
    """
    _, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    if grid.dim == 1:
        return q @ coef
    n = grid.nodes_per_axis
    first = np.tensordot(q, coef.reshape(n, n, -1), axes=(1, 0))  # [i, b, k]
    return (q @ first).reshape(n * n, -1)


def dirichlet_operator(domain: SubDomain, box: BoxGrid, s: float) -> SymOperator:
    """Restricted fractional Laplacian: P B^s P^T with B the box Laplacian.

    Omega must live on (or embed into) the box lattice.  At s = 1 the power
    of the stencil restricts exactly, so the Laplacian matrix of Omega is
    returned directly.
    """
    s = _check_s(s)
    try:
        idx = _embedded_indices(domain, box)
    except ValueError as exc:
        raise ValueError(f"domain is not embedded in the box grid: {exc}") from exc
    sd = domain if domain.grid == box else domain.on_grid(box)
    if s == 1.0:
        # the power of the stencil restricts exactly, so reuse the mask basis
        # and the assembled matrix; coincidence with the spectral operator is
        # then bitwise, not merely within roundoff
        matrix = sd.laplacian
        eigen = sd.eigen
    else:
        matrix = sym_matrix(_restricted_power(idx, box, s))
        eigen = eigendecompose(matrix)
    return SymOperator(matrix=matrix, eigen=eigen, kind="dirichlet", domain=sd, s=s)


def difference_operator(domain: SubDomain, box: BoxGrid, s: float) -> SymOperator:
    """The gap operator: spectral minus restricted fractional Laplacian on Omega.

    Positive semidefinite up to roundoff for 0 < s <= 1; its smallest
    eigenvalue decays geometrically with the mask thickness, so the strict
    sign is only resolvable in double precision for modest masks.
    """
    nav = navier_operator(domain, s)
    dir_ = dirichlet_operator(domain, box, s)
    matrix = sym_matrix(nav.matrix - dir_.matrix)
    return SymOperator(matrix=matrix, eigen=eigendecompose(matrix), kind="difference",
                       domain=dir_.domain, s=s)


def compare_spectra(domain: SubDomain, box: BoxGrid, s: float) -> SpectrumComparison:
    """Ascending eigenvalues of both fractional operators and their margins."""
    nav = navier_operator(domain, s)
    dir_ = dirichlet_operator(domain, box, s)
    return SpectrumComparison(
        s=float(s),
        navier=np.sort(nav.eigen.eigenvalues),
        dirichlet=np.sort(dir_.eigen.eigenvalues),
    )


def monotonicity_check(
    inner: SubDomain, outer: SubDomain, box: BoxGrid, s: float, u: np.ndarray
) -> tuple[float, float, float]:
    """The chain (restricted form, spectral form on Omega', spectral form on Omega).

    For u supported in Omega and Omega inside Omega' inside the box, the
    triple is nondecreasing left to right, exactly at matrix level.
    """
    idx_inner = _embedded_indices(inner, box)
    outer_on_box = outer if outer.grid == box else outer.on_grid(box)
    if not outer_on_box.mask[idx_inner].all():
        raise ValueError("masks are not nested: inner domain must lie inside the outer one")
    v = np.asarray(u, dtype=float)
    if v.shape != (inner.node_count,):
        raise ValueError(f"expected {inner.node_count} values on the inner mask")
    q_inner = navier_operator(inner, s).form(v)
    v_outer = np.zeros(outer_on_box.node_count)
    v_outer[np.searchsorted(outer_on_box.indices, idx_inner)] = v
    q_outer = navier_operator(outer_on_box, s).form(v_outer)
    q_restricted = dirichlet_operator(inner, box, s).form(v)
    return q_restricted, q_outer, q_inner


def fourier_form(u: GridFunction, box: BoxGrid, s: float) -> float:
    """Periodic Fourier-multiplier quadratic form sum_k |xi_k|^(2s) |u_hat_k|^2.

    The grid function is zero-padded into the box (its lattice must align),
    the box is treated as one period, and xi runs over the integer
    frequencies scaled by pi/L; the zero mode contributes nothing.  For u
    supported well inside the box this is an independent discretization of
    the restricted form; the periodization error shrinks as the box margin
    grows.
    """
    s = _check_s(s)
    try:
        offset = u.grid.embed_offset(box)
    except ValueError as exc:
        raise ValueError(f"support violation: function grid does not embed in the box: {exc}") from exc
    n_small, n_big = u.grid.nodes_per_axis, box.nodes_per_axis
    m = n_big + 1  # period in nodes; node 0 sits on the box edge and is zero
    h = box.h
    if box.dim == 1:
        p = np.zeros(m)
        p[offset + 1 : offset + 1 + n_small] = u.values
    else:
        p = np.zeros((m, m))
        sl = slice(offset + 1, offset + 1 + n_small)
        p[sl, sl] = u.values.reshape(n_small, n_small)
    freq = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    if box.dim == 1:
        xi_sq = freq**2
    else:
        xi_sq = freq[:, None] ** 2 + freq[None, :] ** 2
    mult = xi_sq**s
    mult.flat[0] = 0.0
    f = np.fft.fftn(p)
    return float((h / m) ** box.dim * np.sum(mult * np.abs(f) ** 2))
