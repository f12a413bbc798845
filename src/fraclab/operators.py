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

import weakref
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .domain import BoxGrid, GridFunction, SubDomain, _interval_eigenvalues
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
    kernel = reduce(np.add.outer, [lam] * box.dim)
    kernel **= s
    for axis in reversed(range(box.dim)):  # each array dropped before the next is made
        zero = np.zeros_like(np.take(kernel, [0], axis=axis))
        kernel = np.concatenate([zero, kernel, zero, np.flip(kernel, axis=axis)], axis=axis)
        kernel = np.fft.rfft(kernel, axis=axis)  # of the even extension (0, f, 0, reversed f)
        kernel = kernel.real / (2 * kernel.shape[axis] - 2)
    kernel.flags.writeable = False
    return kernel


def _lags(rows: np.ndarray, cols: np.ndarray, box: BoxGrid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the Toeplitz lags |x - y| and folded Hankel lags of x + y + 2 of two node sets,
    in the narrowest of int16, int32 and int64 that holds N + 1, the largest lag (int16 on every
    box the CLI accepts); every signed intermediate lies within +-(N + 1) too."""
    n, lags = box.nodes_per_axis, []
    dtype = next(t for t in (np.int16, np.int32, np.int64) if n + 1 <= np.iinfo(t).max)
    for r, c in zip(np.unravel_index(rows, box.shape), np.unravel_index(cols, box.shape)):
        r, c = r.astype(dtype), c.astype(dtype)
        toeplitz = np.subtract.outer(r, c)
        np.abs(toeplitz, out=toeplitz)
        hankel = np.add.outer(r, c + (1 - n))
        np.abs(hankel, out=hankel)
        np.subtract(n + 1, hankel, out=hankel)
        toeplitz.flags.writeable = hankel.flags.writeable = False  # a domain's split keeps its table
        lags.append((toeplitz, hankel))
    return lags


def _restricted_entries(kernel: np.ndarray,
                        lags: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Entries of B^s between two sets of box nodes, gathered from the kernel at their lags.

    Each axis gives a Toeplitz (d) and a Hankel (h) lag (:func:`_lags`), and
    the entry sums the kernel over every choice of lag per axis, with a
    minus sign for each Hankel one, the first axis's choice varying fastest:
    K[d] - K[h] in 1D, K[di, dj] - K[hi, dj] - K[di, hj] + K[hi, hj] in 2D,
    node (i, j) at flat index i N + j.  The order of the terms fixes the
    rounding.  The entry is symmetric in the two nodes, so equal sets give
    an exactly symmetric matrix.
    """
    entries = kernel[tuple(d for d, _ in lags)]
    for k in range(1, 2 ** len(lags)):
        hankel = [k >> axis & 1 for axis in range(len(lags))]
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
    return sym_matrix(_restricted_entries(_restricted_kernel(box, s), _lags(idx, idx, box)))


_SPLITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # a domain's split dies with it


def _reflection_split(domain: SubDomain) -> tuple[int, list] | None:
    """The count k of Omega's nodes L below the first-axis mirror line and the lag table of L then
    the nodes F on it, made once per domain and kept while it lives; None if the mirror does not
    map Omega onto itself."""
    if domain not in _SPLITS:
        box, idx = domain.grid, domain.indices
        stride = box.nodes_per_axis ** (box.dim - 1)  # flat step along the first axis
        twice = 2 * (idx // stride) - (box.nodes_per_axis - 1)  # twice the offset from the mirror
        if np.array_equal(np.sort(idx - twice * stride), idx):
            rows = np.concatenate([idx[twice < 0], idx[twice == 0]])
            _SPLITS[domain] = int(np.count_nonzero(twice < 0)), _lags(rows, rows, box)
        else:
            _SPLITS[domain] = None
    return _SPLITS[domain]


def _restricted_blocks(domain: SubDomain,
                       s: float) -> tuple[list[np.ndarray], tuple[float, float, float]]:
    """P B^s P^T split by the first-axis reflection, with its trace, ||.||_F^2 and max|entry|.

    When the reflection i -> N-1-i maps Omega onto itself, M is exactly
    centrosymmetric and splits into an even and an odd block of about
    |Omega|/2, gathered from the kernel at the lags of the domain's
    :func:`_reflection_split`.  With L the nodes below the mirror line, F
    those on it (last in ``even``) and pi the reflection,

        even = W (M[L+F, L+F] + M[L+F, pi(L+F)]) W,  W = 1 on L, 1/sqrt(2) on F,
        odd  = M[L, L] - M[L, pi L].

    The mirror maps the first axis's lags (t, h) to (N+1-h, N+1-t), so
    M[., pi .] reads the kernel flipped along that axis at M's own lags,
    those two swapped.  Any other mask gives one block, M itself.  The
    invariants are read off the rows of L + F, each row of L standing for
    its mirror row too, apart from how the blocks are assembled (the even
    one in place), so the merged spectrum is checked against the whole M.
    """
    split, kernel = _reflection_split(domain), _restricted_kernel(domain.grid, s)
    if split is None:
        whole = _restricted_matrix(domain, s)
        return [whole], (float(np.trace(whole)), float(np.vdot(whole, whole)),
                         float(np.max(np.abs(whole))))
    k, lags = split
    near = _restricted_entries(kernel, lags)
    far = _restricted_entries(np.flip(kernel, axis=0), [lags[0][::-1]] + lags[1:])
    copies = np.where(np.arange(near.shape[0]) < k, 2.0, 1.0)
    squares, scale = np.empty(near.shape[0]), 0.0
    for i in range(0, near.shape[0], 64):  # 64 rows at a time: no |Omega|^2 temporaries
        r = slice(i, i + 64)
        squares[r] = np.sum(near[r] * near[r], axis=1) + np.sum(far[r, :k] * far[r, :k], axis=1)
        scale = max(scale, np.max(np.abs(near[r])), np.max(np.abs(far[r, :k]), initial=0.0))
    invariants = (float(copies @ np.diagonal(near)), float(copies @ squares), float(scale))
    blocks = [near, near[:k, :k] - far[:k, :k]] if k else [near]
    near += far  # the even block, in place
    del far
    w = np.sqrt(0.5)  # W on F: the products of np.outer(W, W), applied where W != 1
    near[k:, :k] *= w
    near[:k, k:] *= w
    near[k:, k:] *= w * w
    for block in blocks:  # exactly symmetric by construction; eigenvalues() refuses any that is not
        block.flags.writeable = False
    return blocks, invariants


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
    spectrum to the power s (no eigenbasis on a rectangle), the restricted
    ones those of the reflection blocks of P B^s P^T (:func:`_restricted_blocks`),
    each solved and checked on its own, then merged and checked against the
    whole matrix's trace and Frobenius norm.
    """
    s = _check_s(s)
    _on_box(domain, box)
    if s == 1.0:
        dirichlet = domain.spectrum
    else:
        blocks, invariants = _restricted_blocks(domain, s)
        dirichlet = np.concatenate([eigenvalues(block) for block in blocks])
    _require_positive_definite("dirichlet", np.min(dirichlet))
    if s != 1.0:
        check_spectrum(dirichlet, *invariants)
    return SpectrumComparison(s=s, navier=domain.spectrum**s,
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
