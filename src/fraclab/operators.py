"""The two fractional Laplacians of a subdomain and the checks that compare them.

Two inequivalent fractional Laplacians act on functions supported in a
subdomain Omega of a box grid:

* the *spectral* ("Navier") operator, the s-th power of Omega's own
  Dirichlet Laplacian A_Omega, with quadratic form sum_j lambda_j^s (u, q_j)^2;
* the *restricted* ("Dirichlet") operator P B^s P^T, the s-th power of the
  ambient box Laplacian B compressed back to Omega by the restriction P.

The sine basis diagonalizes the box, so B^s is Toeplitz minus Hankel with
the cosine transform of lambda^s as its symbol (the discrete form of
int |xi|^(2s) |u_hat|^2); P B^s P^T is gathered from that per-(box, s) kernel.

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
from functools import lru_cache, reduce

import numpy as np

from .domain import BoxGrid, GridFunction, SubDomain, _interval_eigenbasis, _interval_eigenvalues
from .linalg import (EigenDecomposition, check_spectrum, eigendecompose, eigenvalues,
                     spectral_power, sym_matrix)

__all__ = [
    "SymOperator",
    "SpectrumComparison",
    "navier_operator",
    "dirichlet_operator",
    "fourier_form",
    "difference_operator",
    "compare_spectra",
    "monotonicity_check",
]

_KINDS = ("navier", "dirichlet")
_LAYER_BLOCK = 64  # y-layers per cache-sized block of the extension's lattice passes


def _require_positive_definite(kind: str, least: float) -> None:
    if least <= 0:
        raise ValueError(f"{kind} operator must be positive definite; min eigenvalue = {least:.3e}")


@dataclass(frozen=True, eq=False)
class SymOperator:
    """A fractional Laplacian of Omega at exponent ``s`` with its eigenbasis.

    ``kind`` is navier (spectral) or dirichlet (restricted); either must be
    positive definite.
    """

    matrix: np.ndarray = field(repr=False)
    eigen: EigenDecomposition = field(repr=False)
    kind: str
    domain: SubDomain
    s: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        _require_positive_definite(self.kind, self.eigen.eigenvalues[0])

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(u, dtype=float)

    def form(self, u: np.ndarray) -> float:
        """Volume-weighted quadratic form h^dim * u^T M u."""
        v = np.asarray(u, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        return _form(self.matrix, v, self.domain.grid)


def _form(matrix: np.ndarray, v: np.ndarray, grid: BoxGrid) -> float:
    return grid.h**grid.dim * float(v @ (matrix @ v))


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


def _check_s(s: float) -> float:
    s = float(s)
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional exponent must lie in (0, 1], got {s}")
    return s


def navier_operator(domain: SubDomain, s: float) -> SymOperator:
    """Spectral fractional Laplacian of Omega: the s-th power of A_Omega.

    At s = 1 this is the Laplacian matrix itself, returned exactly rather
    than through the eigenbasis, so coincidence tests see identical entries.
    """
    s = _check_s(s)
    matrix = domain.laplacian if s == 1.0 else spectral_power(domain.eigen, s)
    powered = EigenDecomposition(eigenvalues=np.ascontiguousarray(domain.eigen.eigenvalues**s),
                                 eigenvectors=domain.eigen.eigenvectors)
    return SymOperator(matrix=matrix, eigen=powered, kind="navier", domain=domain, s=s)


@lru_cache(maxsize=1)
def _restricted_kernel(box: BoxGrid, s: float) -> np.ndarray:
    """The symbol of B^s: the cosine transform of the box spectrum to the power s.

    In 1D B^s[x, y] = c[|x - y|] - c[x + y + 2] with
    c[k] = sum_j lam_j^s cos(k j pi/(N+1))/(N+1); in 2D the spectrum
    lam_a + lam_b gives a two-index K (see :func:`_restricted_entries`).
    One real FFT per axis, last axis first, k = 0..N+1: Hankel indices
    k > N+1 read 2(N+1) - k, so B^s is exactly centrosymmetric.  Read-only;
    only the last (box, s) is kept, since the monotonicity runs form one
    restricted matrix per chain check under an outer loop over s.
    """
    lam = _interval_eigenvalues(box.nodes_per_axis, box.h)
    kernel = reduce(np.add.outer, [lam] * box.dim) ** s
    for axis in reversed(range(box.dim)):
        kernel = _cosine_sums(kernel, axis)
    kernel.flags.writeable = False
    return kernel


def _cosine_sums(f: np.ndarray, axis: int) -> np.ndarray:
    """sum_j f_j cos(k j pi/(n+1))/(n+1) along ``axis``, k = 0..n+1, from the
    real FFT of the even extension (0, f, 0, reversed f) of length 2(n+1)."""
    zero = np.zeros_like(np.take(f, [0], axis=axis))
    even = np.concatenate([zero, f, zero, np.flip(f, axis=axis)], axis=axis)
    return np.fft.rfft(even, axis=axis).real / even.shape[axis]


def _lags(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Toeplitz lags |x - y| and folded Hankel lags of x + y + 2 on an n-node axis."""
    toeplitz = np.subtract.outer(rows, cols)
    np.abs(toeplitz, out=toeplitz)
    hankel = np.add.outer(rows, cols + (1 - n))
    np.abs(hankel, out=hankel)
    np.subtract(n + 1, hankel, out=hankel)
    return toeplitz, hankel


def _restricted_entries(kernel: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        box: BoxGrid) -> np.ndarray:
    """Entries of B^s between the box nodes ``rows`` and ``cols``, gathered from the kernel.

    Each axis gives a Toeplitz (d) and a Hankel (h) lag, and the entry sums
    the kernel over every choice of lag per axis, with a minus sign for each
    Hankel one, the first axis's choice varying fastest: K[d] - K[h] in 1D,
    K[di, dj] - K[hi, dj] - K[di, hj] + K[hi, hj] in 2D, node (i, j) at flat
    index i N + j.  The order of the terms fixes the rounding.  The entry is
    symmetric in the two nodes, so rows = cols gives an exactly symmetric
    matrix.
    """
    lags = [_lags(r, c, box.nodes_per_axis)
            for r, c in zip(np.unravel_index(rows, box.shape), np.unravel_index(cols, box.shape))]
    entries = kernel[tuple(d for d, _ in lags)]
    for k in range(1, 2**box.dim):
        hankel = [k >> axis & 1 for axis in range(box.dim)]
        term = kernel[tuple(lag[b] for lag, b in zip(lags, hankel))]
        if sum(hankel) % 2:
            entries -= term
        else:
            entries += term
    return entries


def _restricted_matrix(domain: SubDomain, s: float) -> np.ndarray:
    """P B^s P^T for Omega and the box it is made on, as a sym_matrix.

    At s = 1 the power of the stencil restricts exactly, so Omega's own
    Laplacian matrix is returned and coincidence stays bitwise.
    """
    if s == 1.0:
        return domain.laplacian
    box, idx = domain.grid, domain.indices
    return sym_matrix(_restricted_entries(_restricted_kernel(box, s), idx, idx, box))


def _restricted_blocks(idx: np.ndarray, box: BoxGrid,
                       s: float) -> tuple[list[np.ndarray], tuple[float, float, float]]:
    """P B^s P^T split by the first-axis reflection, with its trace, ||.||_F^2 and max|entry|.

    When the reflection i -> N-1-i maps Omega onto itself, M is exactly
    centrosymmetric and splits into an even and an odd block of about
    |Omega|/2, gathered from the kernel.  With L the nodes below the mirror
    line, F those on it (last in ``even``) and pi the reflection,

        even = W (M[L+F, L+F] + M[L+F, pi(L+F)]) W,  W = 1 on L, 1/sqrt(2) on F,
        odd  = M[L, L] - M[L, pi L].

    Any other mask gives one block, M itself.  The invariants are read off
    the rows of L + F, each row of L standing for its mirror row too, apart
    from how the blocks are assembled, so the merged spectrum is checked
    against the whole M.
    """
    kernel = _restricted_kernel(box, s)
    n = box.nodes_per_axis
    stride = n ** (box.dim - 1)  # flat step along the first axis
    twice = 2 * (idx // stride) - (n - 1)  # twice the first-axis offset from the mirror line
    mirror = idx - twice * stride
    if not np.array_equal(np.sort(mirror), idx):
        whole = sym_matrix(_restricted_entries(kernel, idx, idx, box))
        return [whole], (float(np.trace(whole)), float(np.vdot(whole, whole)),
                         float(np.max(np.abs(whole))))
    low, fixed = twice < 0, twice == 0
    rows = np.concatenate([idx[low], idx[fixed]])
    k = np.count_nonzero(low)
    near = _restricted_entries(kernel, rows, rows, box)
    far = _restricted_entries(kernel, rows, np.concatenate([mirror[low], idx[fixed]]), box)
    paired = np.arange(rows.size) < k
    w = np.where(paired, 1.0, np.sqrt(0.5))
    even = near + far
    even *= np.outer(w, w)
    blocks = [even, near[:k, :k] - far[:k, :k]] if k else [even]
    for block in blocks:  # exactly symmetric: frozen, sym_matrix checks them without a copy
        block.flags.writeable = False
    blocks = [sym_matrix(block) for block in blocks]
    copies = np.where(paired, 2.0, 1.0)
    squares = np.sum(near * near, axis=1) + np.sum(far[:, :k] * far[:, :k], axis=1)
    scale = max(np.max(np.abs(near)), np.max(np.abs(far[:, :k]), initial=0.0))
    return blocks, (float(copies @ np.diagonal(near)), float(copies @ squares), float(scale))


def _box_analysis(datum: np.ndarray, grid: BoxGrid) -> tuple[np.ndarray, np.ndarray]:
    """Box-mode eigenvalues and coefficients of a datum on the whole box.

    The box eigenvectors are products of the cached 1D sine basis q1, so the
    coefficients are q1^T X q1 with X the datum on the N x N lattice (q1^T x
    in 1D): O(N^3) instead of O(N^4) through the dense N^2 x N^2 basis.  Mode (a, b) sits
    at flat index a N + b with eigenvalue lam_a + lam_b, unsorted.
    """
    lam1, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    coef = q.T @ datum.reshape(grid.shape)
    for _ in range(1, grid.dim):  # the second axis
        coef = coef @ q
    return reduce(np.add.outer, [lam1] * grid.dim).ravel(), coef.ravel()


def _box_synthesis(coef: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Box nodal values from box-mode coefficients, a block of y-layers at a time.

    Layer k is q1 C_k q1^T on the N x N lattice (q1 c_k in 1D): O(N^3) per
    layer.  A tensordot and a batched matmul (a matmul in 1D) write each block
    of at least _LAYER_BLOCK layers (unless there are fewer: no matrix-vector
    rounding) into the preallocated output.
    """
    _, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    layers = coef.shape[1]
    values = np.empty((grid.size, layers))
    blocks = max(layers // _LAYER_BLOCK, 1)
    edges = [layers * b // blocks for b in range(blocks + 1)]
    for l0, l1 in zip(edges, edges[1:]):
        block = coef.reshape(grid.shape + (layers,))[..., l0:l1]
        for _ in range(1, grid.dim):  # the first axis: [i, b, k]
            block = np.tensordot(q, block, axes=(1, 0))
        np.matmul(q, block, out=values.reshape(grid.shape + (layers,))[..., l0:l1])  # [i, j, k]
    return values


def _on_box(domain: SubDomain, box: BoxGrid) -> np.ndarray:
    """The box indices of Omega's nodes; Omega must be made on the box itself."""
    if domain.grid != box:
        raise ValueError(f"domain is not embedded in the box grid: it lives on {domain.grid}, "
                         f"not on {box}")
    return domain.indices


def dirichlet_operator(domain: SubDomain, box: BoxGrid, s: float) -> SymOperator:
    """Restricted fractional Laplacian: P B^s P^T with B the box Laplacian.

    Omega must be made on the box itself.  The matrix is
    gathered from the box's closed-form kernel (:func:`_restricted_kernel`).
    At s = 1 the power of the stencil restricts exactly, so Omega's Laplacian
    matrix and cached basis are returned, and coincidence with the spectral
    operator is bitwise.
    """
    s = _check_s(s)
    _on_box(domain, box)
    matrix = _restricted_matrix(domain, s)
    eigen = domain.eigen if s == 1.0 else eigendecompose(matrix)
    return SymOperator(matrix=matrix, eigen=eigen, kind="dirichlet", domain=domain, s=s)


def difference_operator(domain: SubDomain, box: BoxGrid, s: float) -> np.ndarray:
    """The gap N - D, spectral minus restricted fractional Laplacian on Omega, as a sym_matrix.

    Positive semidefinite up to roundoff for 0 < s <= 1; its smallest
    eigenvalue decays geometrically with the mask thickness, so the strict
    sign is only resolvable in double precision for modest masks.  N - D is
    never eigendecomposed; the restricted matrix comes from the kernel.
    """
    nav = navier_operator(domain, s)
    _on_box(domain, box)
    return sym_matrix(nav.matrix - _restricted_matrix(domain, nav.s))


def compare_spectra(domain: SubDomain, box: BoxGrid, s: float) -> SpectrumComparison:
    """Ascending eigenvalues of both fractional operators and their margins.

    Neither operator is built: the spectral eigenvalues are Omega's cached
    ones to the power s, the restricted ones those of the reflection blocks
    of P B^s P^T (:func:`_restricted_blocks`), each solved and checked on its
    own, then merged and checked against the whole matrix's trace and
    Frobenius norm.
    """
    s = _check_s(s)
    idx = _on_box(domain, box)
    if s == 1.0:
        dirichlet = domain.eigen.eigenvalues
    else:
        blocks, invariants = _restricted_blocks(idx, box, s)
        dirichlet = np.concatenate([eigenvalues(block) for block in blocks])
    _require_positive_definite("dirichlet", np.min(dirichlet))
    if s != 1.0:
        check_spectrum(dirichlet, *invariants)
    # the spectral sort is a no-op, kept: dropping it raised the peak RSS through heap layout
    return SpectrumComparison(s=s, navier=np.sort(domain.eigen.eigenvalues**s),
                              dirichlet=np.sort(dirichlet))


def monotonicity_check(
    inner: SubDomain, outer: SubDomain, box: BoxGrid, s: float, u: np.ndarray
) -> tuple[float, float, float]:
    """The chain (restricted form, spectral form on Omega', spectral form on Omega).

    For u supported in Omega and Omega inside Omega' inside the box, the
    triple is nondecreasing left to right, exactly at matrix level.  Only
    the restricted matrix is formed for the restricted form, from the kernel.
    """
    idx_inner, idx_outer = _on_box(inner, box), _on_box(outer, box)
    if not outer.mask[idx_inner].all():
        raise ValueError("masks are not nested: inner domain must lie inside the outer one")
    v = np.asarray(u, dtype=float)
    if v.shape != (inner.node_count,):
        raise ValueError(f"expected {inner.node_count} values on the inner mask")
    q_inner = navier_operator(inner, s).form(v)
    v_outer = np.zeros(outer.node_count)
    v_outer[np.searchsorted(idx_outer, idx_inner)] = v
    q_outer = navier_operator(outer, s).form(v_outer)
    q_restricted = _form(_restricted_matrix(inner, s), v, box)
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
    m = box.nodes_per_axis + 1  # period in nodes; node 0 sits on the box edge and is zero
    h = box.h
    p = np.zeros((m,) * box.dim)
    sl = slice(offset + 1, offset + 1 + u.grid.nodes_per_axis)
    p[(sl,) * box.dim] = u.values.reshape(u.grid.shape)
    freq = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    mult = reduce(np.add.outer, [freq**2] * box.dim) ** s
    mult.flat[0] = 0.0
    f = np.fft.fftn(p)
    return float((h / m) ** box.dim * np.sum(mult * np.abs(f) ** 2))
