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
from .linalg import EigenDecomposition, eigendecompose, eigenvalues, spectral_power, sym_matrix

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


def _require_positive_definite(kind: str, least: float) -> None:
    if least <= 0:
        raise ValueError(f"{kind} operator must be positive definite; min eigenvalue = {least:.3e}")


@dataclass(frozen=True, eq=False)
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
        if self.kind != "difference":
            _require_positive_definite(self.kind, self.eigen.eigenvalues[0])

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
    matrix = sd.laplacian if s == 1.0 else spectral_power(sd.eigen, s)
    powered = EigenDecomposition(eigenvalues=np.ascontiguousarray(sd.eigen.eigenvalues**s),
                                 eigenvectors=sd.eigen.eigenvectors)
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
    """P B^s P^T for the box nodes ``idx`` as a sym_matrix, from the 1D sine basis.

    Omega's rows R of the box basis, scaled by the eigenvalues to the power
    s/2, give the symmetric product R R^T (a BLAS syrk).  In 1D R = q[idx]
    lam^(s/2); in 2D the box eigenvectors are q[i, a] q[j, b], with
    eigenvalues lam_a + lam_b, and R is formed a block of first-axis modes a
    at a time: the work is |Omega|^2 N^2 and the working set |Omega|^2 plus
    one block, never the N^2 x N^2 box basis.  The sum does not depend on
    the order of the modes, so nothing is sorted.
    """
    n = box.nodes_per_axis
    lam, q = _interval_eigenbasis(n, box.h)
    if box.dim == 1:
        rows = q[idx] * lam ** (0.5 * s)
        return sym_matrix(rows @ rows.T)
    i, j = np.divmod(idx, n)
    qi, qj = q[i], q[j]
    half_power = (lam[:, None] + lam[None, :]) ** (0.5 * s)
    step = max(1, _ROWS_BLOCK_VALUES // (idx.size * n))
    out = np.zeros((idx.size, idx.size))
    for a in range(0, n, step):
        block = qi[:, a : a + step, None] * (qj[:, None, :] * half_power[a : a + step])
        rows = block.reshape(idx.size, -1)
        out += rows @ rows.T
    return sym_matrix(out)


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
    """Box nodal values from box-mode coefficients, all y-layers at once.

    Layer k is q1 C_k q1^T on the N x N lattice; one tensordot and one
    batched matmul form every layer: O(N^3) per layer.
    """
    _, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    if grid.dim == 1:
        return q @ coef
    n = grid.nodes_per_axis
    first = np.tensordot(q, coef.reshape(n, n, -1), axes=(1, 0))  # [i, b, k]
    return (q @ first).reshape(n * n, -1)


def _on_box(domain: SubDomain, box: BoxGrid) -> tuple[SubDomain, np.ndarray]:
    """Omega on the box lattice, and the box indices of its nodes."""
    try:
        idx = _embedded_indices(domain, box)
    except ValueError as exc:
        raise ValueError(f"domain is not embedded in the box grid: {exc}") from exc
    return (domain if domain.grid == box else domain.on_grid(box)), idx


def dirichlet_operator(domain: SubDomain, box: BoxGrid, s: float) -> SymOperator:
    """Restricted fractional Laplacian: P B^s P^T with B the box Laplacian.

    Omega must live on (or embed into) the box lattice.  At s = 1 the power
    of the stencil restricts exactly, so Omega's Laplacian matrix and cached
    basis are returned, and coincidence with the spectral operator is bitwise.
    """
    s = _check_s(s)
    sd, idx = _on_box(domain, box)
    matrix = sd.laplacian if s == 1.0 else _restricted_power(idx, box, s)
    eigen = sd.eigen if s == 1.0 else eigendecompose(matrix)
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
    """Ascending eigenvalues of both fractional operators and their margins.

    Neither operator is built: the spectral eigenvalues are Omega's cached
    ones to the power s, the restricted ones those of P B^s P^T alone.
    """
    s = _check_s(s)
    sd, idx = _on_box(domain, box)
    dirichlet = sd.eigen.eigenvalues if s == 1.0 else eigenvalues(_restricted_power(idx, box, s))
    _require_positive_definite("dirichlet", dirichlet[0])
    # no-op sorts, kept: dropping them raised the peak RSS through heap layout
    return SpectrumComparison(s=s, navier=np.sort(domain.eigen.eigenvalues**s),
                              dirichlet=np.sort(dirichlet))


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
