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

Quadratic forms carry the h^dim volume weight, so they discretize
integrals: the claims read the spectral one off Omega's cached eigenbasis
(:func:`_navier_form`) and the restricted one off its matrix (:func:`_form`).
Operators are sym_matrix arrays and functions are arrays of nodal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .domain import BoxGrid, SubDomain, _interval_eigenvalues, random_nested_masks
from .linalg import check_spectrum, eigendecompose, eigenvalues, spectral_power, sym_matrix

__all__ = [
    "Certificate",
    "navier_operator",
    "dirichlet_operator",
    "fourier_form",
    "difference_operator",
    "compare_spectra",
    "positivity_check",
    "monotonicity_check",
    "monotone_chain",
]


def _require_positive_definite(kind: str, least: float) -> None:
    if least <= 0:
        raise ValueError(f"{kind} operator must be positive definite; min eigenvalue = {least:.3e}")


def _form(matrix: np.ndarray, v: np.ndarray, grid: BoxGrid) -> float:
    return grid.h**grid.dim * float(v @ (matrix @ v))


@dataclass(frozen=True, eq=False)
class Certificate:
    """One claim at one exponent: ``margins`` maps the name of each of its checks to its signed
    margin, in print order, and ``rows`` is the witness they are read from, the claim's typed
    report rows (a NumPy structured array whose field names are the report's columns)."""

    rows: np.ndarray
    margins: dict[str, float]


def _certify(margins: dict, **columns) -> Certificate:
    """Certify ``margins`` over ``columns``: arrays as long as the rows, or scalars repeated."""
    columns = {name: np.asarray(v) for name, v in columns.items()}
    rows = np.empty(max(v.size for v in columns.values()),
                    dtype=[(name, v.dtype) for name, v in columns.items()])
    for name, v in columns.items():
        rows[name] = v
    return Certificate(rows=rows, margins={name: float(m) for name, m in margins.items()})


def _fields(rows: np.ndarray) -> dict[str, np.ndarray]:
    return {name: rows[name] for name in rows.dtype.names}


def _check_s(s: float) -> float:
    s = float(s)
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional exponent must lie in (0, 1], got {s}")
    return s


def navier_operator(domain: SubDomain, s: float) -> np.ndarray:
    """Spectral fractional Laplacian of Omega, the s-th power of A_Omega, as a sym_matrix.

    At s = 1 this is the Laplacian matrix itself, returned exactly rather
    than through the eigenbasis, so coincidence tests see identical entries.
    """
    s = _check_s(s)
    return domain.laplacian if s == 1.0 else spectral_power(domain.eigen, s)


def _navier_form(domain: SubDomain, s: float, v: np.ndarray) -> float:
    """The spectral form h^dim sum_j lambda_j^s (q_j^T v)^2 of ``v``, read off Omega's cached
    eigenbasis without forming A^s; at s = 1 the Laplacian's own form, as :func:`navier_operator`."""
    if (s := _check_s(s)) == 1.0:
        return _form(domain.laplacian, v, domain.grid)
    c = v @ domain.eigen.eigenvectors
    return domain.grid.h**domain.grid.dim * float(domain.eigen.eigenvalues**s @ (c * c))


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


_ROW_BLOCK = 64  # rows of P B^s P^T gathered at a time: no |Omega|^2 temporaries


def _lags(rows: np.ndarray, cols: np.ndarray, box: BoxGrid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the Toeplitz lags |x - y| and folded Hankel lags of x + y + 2 of two node sets, in
    the narrowest of int16, int32 and int64 that holds N + 1, bounding every lag and partial sum."""
    n, lags = box.nodes_per_axis, []
    dtype = next(t for t in (np.int16, np.int32, np.int64) if n + 1 <= np.iinfo(t).max)
    for r, c in zip(np.unravel_index(rows, box.shape), np.unravel_index(cols, box.shape)):
        r, c = r.astype(dtype), c.astype(dtype)
        lags.append((np.abs(np.subtract.outer(r, c)), n + 1 - np.abs(np.add.outer(r, c + (1 - n)))))
    return lags


def _row_blocks(nodes: np.ndarray, box: BoxGrid):
    """Each block of _ROW_BLOCK rows of the matrix on ``nodes``: its slice and its own lag table."""
    for i in range(0, nodes.size, _ROW_BLOCK):
        yield slice(i, i + _ROW_BLOCK), _lags(nodes[i:i + _ROW_BLOCK], nodes, box)


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
    """P B^s P^T for Omega and the box it is made on, as a sym_matrix filled a row block at a
    time; at s = 1 Omega's own Laplacian, as the stencil's power restricts exactly (bitwise)."""
    if s == 1.0:
        return domain.laplacian
    matrix, kernel = np.empty((domain.node_count,) * 2), _restricted_kernel(domain.grid, s)
    for rows, lags in _row_blocks(domain.indices, domain.grid):
        matrix[rows] = _restricted_entries(kernel, lags)
    matrix.flags.writeable = False  # exactly symmetric, so sym_matrix keeps it without a copy
    return sym_matrix(matrix)


def _reflection_split(domain: SubDomain) -> tuple[int, np.ndarray] | None:
    """The count k of Omega's nodes L below the first-axis mirror line and the row order L then
    the nodes F on it, O(|Omega|) a call; None if the mirror does not map Omega onto itself."""
    box, idx = domain.grid, domain.indices
    stride = box.nodes_per_axis ** (box.dim - 1)  # flat step along the first axis
    twice = 2 * (idx // stride) - (box.nodes_per_axis - 1)  # twice the offset from the mirror
    if not np.array_equal(np.sort(idx - twice * stride), idx):
        return None
    return int(np.count_nonzero(twice < 0)), np.concatenate([idx[twice < 0], idx[twice == 0]])


def _restricted_blocks(domain: SubDomain,
                       s: float) -> tuple[list[np.ndarray], tuple[float, float, float]]:
    """P B^s P^T split by the first-axis reflection, with its trace, ||.||_F^2 and max|entry|.

    When the reflection i -> N-1-i maps Omega onto itself, M is exactly centrosymmetric and
    splits into an even and an odd block of about |Omega|/2.  With L and F the rows of
    :func:`_reflection_split` and pi the reflection,

        even = W (M[L+F, L+F] + M[L+F, pi(L+F)]) W,  W = 1 on L, 1/sqrt(2) on F,
        odd  = M[L, L] - M[L, pi L];

    the mirror maps the first axis's lags (t, h) to (N+1-h, N+1-t), so M[., pi .] reads the
    kernel flipped along that axis at M's own lags, those two swapped.  Each row block of both
    is written into the blocks and gives its rows' share of the invariants, a row of L standing
    for its mirror row too, so the merged spectrum is checked against the whole M.  Any other
    mask gives one block, M itself.
    """
    if (split := _reflection_split(domain)) is None:
        whole = _restricted_matrix(domain, s)
        return [whole], (float(np.trace(whole)), float(np.vdot(whole, whole)),
                         float(np.max(np.abs(whole))))
    (k, nodes), kernel, w = split, _restricted_kernel(domain.grid, s), np.sqrt(0.5)  # w: W on F
    even, odd = np.empty((nodes.size, nodes.size)), np.empty((k, k))
    # strided as np.diagonal is, so the trace's dot sums it in the order a whole matrix's would
    diagonal, squares, scale = np.empty((nodes.size, 2))[:, 0], np.empty(nodes.size), 0.0
    for rows, lags in _row_blocks(nodes, domain.grid):
        near = _restricted_entries(kernel, lags)
        far = _restricted_entries(kernel[::-1], [lags[0][::-1]] + lags[1:])  # M[., pi .]
        diagonal[rows] = np.diagonal(near, offset=rows.start)
        squares[rows] = np.sum(near * near, axis=1) + np.sum(far[:, :k] * far[:, :k], axis=1)
        scale = max(scale, np.max(np.abs(near)), np.max(np.abs(far[:, :k]), initial=0.0))
        low = min(max(k - rows.start, 0), len(near))  # the rows of L in this block
        np.subtract(near[:low, :k], far[:low, :k], out=odd[rows])
        block = np.add(near, far, out=even[rows])
        block[:low, k:] *= w  # the products of np.outer(W, W), applied where W != 1
        block[low:, :k] *= w
        block[low:, k:] *= w * w
    copies = np.where(np.arange(nodes.size) < k, 2.0, 1.0)
    even.flags.writeable = odd.flags.writeable = False  # exactly symmetric: eigenvalues() checks
    invariants = (float(copies @ diagonal), float(copies @ squares), float(scale))
    return ([even, odd] if k else [even]), invariants


def dirichlet_operator(domain: SubDomain, box: BoxGrid, s: float) -> np.ndarray:
    """Restricted fractional Laplacian P B^s P^T, B the box Laplacian, as a sym_matrix.

    Omega must be made on the box itself.  The matrix is gathered from the
    box's closed-form kernel (:func:`_restricted_kernel`) and refused unless
    positive definite.  At s = 1 the power of the stencil restricts exactly,
    so Omega's Laplacian matrix is returned, with no eigensolve, and
    coincidence with the spectral operator is bitwise.
    """
    s = _check_s(s)
    if domain.grid != box:
        raise ValueError(f"domain is not embedded in the box grid: it lives on {domain.grid}, "
                         f"not on {box}")
    matrix = _restricted_matrix(domain, s)
    # perfbench/test_perfbench.py pins this signature, eigensolve and two re-exports: ROADMAP 21
    if s != 1.0:
        _require_positive_definite("dirichlet", eigendecompose(matrix).eigenvalues[0])
    return matrix


def difference_operator(domain: SubDomain, s: float) -> np.ndarray:
    """The gap N - D, spectral minus restricted fractional Laplacian on Omega's own box,
    as a sym_matrix.

    Positive semidefinite up to roundoff for 0 < s <= 1; its smallest
    eigenvalue decays geometrically with the mask thickness, so the strict
    sign is only resolvable in double precision for modest masks.  N - D is
    never eigendecomposed; the restricted matrix comes from the kernel.
    """
    return sym_matrix(navier_operator(domain, s) - _restricted_matrix(domain, s))


def compare_spectra(domain: SubDomain, s: float) -> Certificate:
    """Eigenvalue domination lambda_j(D) < lambda_j(N) on Omega's own box, or coincidence at s = 1.

    Neither operator is built: the spectral eigenvalues are Omega's cached
    spectrum to the power s (no eigenbasis on a rectangle), the restricted
    ones those of the reflection blocks of P B^s P^T (:func:`_restricted_blocks`),
    each solved and checked on its own, then merged and checked against the
    whole matrix's trace and Frobenius norm.  Certified by :func:`_spectra_certificate`.
    """
    s = _check_s(s)
    if s == 1.0:  # D is A_Omega, whose spectrum is positive by construction
        dirichlet = domain.spectrum
    else:
        blocks, invariants = _restricted_blocks(domain, s)
        dirichlet = np.concatenate([eigenvalues(block) for block in blocks])
        _require_positive_definite("dirichlet", np.min(dirichlet))
        check_spectrum(dirichlet, *invariants)
    return _spectra_certificate(s, domain.spectrum**s, np.sort(dirichlet))


def _spectra_certificate(s: float, navier: np.ndarray, dirichlet: np.ndarray) -> Certificate:
    """Rows j, lambda_N,j, lambda_D,j and their margin lambda_N,j - lambda_D,j, both spectra
    ascending; the check's margin is the least of those, or the largest |.| at s = 1."""
    margin = navier - dirichlet
    claim = ({"coincidence": np.max(np.abs(margin))} if s == 1.0
             else {"eigenvalue_domination": np.min(margin)})
    return _certify(claim, s=s, j=np.arange(1, margin.size + 1), lambda_navier=navier,
                    lambda_dirichlet=dirichlet, margin=margin)


def positivity_check(domain: SubDomain, s: float) -> Certificate:
    """N - D maps every u >= 0 to (N - D)u >= 0 exactly when its least entry is >= 0.

    The row holds that entry (the margin, positivity_preserving) and the box nodes of its row
    and column, the first in row-major order (row <= col); a NaN entry is the least.
    """
    diff = difference_operator(domain, s)
    i, j = np.unravel_index(np.argmin(diff), diff.shape)
    return _certify({"positivity_preserving": diff[i, j]}, s=s, least_entry=diff[i, j],
                    row=domain.indices[i], col=domain.indices[j])


def monotonicity_check(inner: SubDomain, outer: SubDomain, s: float,
                       u: np.ndarray) -> Certificate:
    """The chain q_D(Omega) <= q_N(Omega') <= q_N(Omega) of the forms of u, Omega inside Omega'.

    For u supported in Omega and Omega inside Omega' inside their common box
    the chain holds exactly at matrix level.  One row: the three forms and
    both slacks; the margin (monotone_chain) is the lesser slack.  The spectral forms are read
    off each eigenbasis (:func:`_navier_form`); only the restricted matrix is formed, from the kernel.
    """
    if inner.grid != outer.grid:
        raise ValueError(f"masks are made on different boxes: the inner one on {inner.grid}, "
                         f"the outer one on {outer.grid}")
    idx_inner, idx_outer = inner.indices, outer.indices
    if not outer.mask[idx_inner].all():
        raise ValueError("masks are not nested: inner domain must lie inside the outer one")
    v = np.asarray(u, dtype=float)
    if v.shape != (inner.node_count,):
        raise ValueError(f"expected {inner.node_count} values on the inner mask")
    q_inner = _navier_form(inner, s, v)
    v_outer = np.zeros(outer.node_count)
    v_outer[np.searchsorted(idx_outer, idx_inner)] = v
    q_outer = _navier_form(outer, s, v_outer)
    q_restricted = _form(_restricted_matrix(inner, s), v, inner.grid)
    lower, upper = q_outer - q_restricted, q_inner - q_outer
    return _certify({"monotone_chain": np.minimum(lower, upper)}, q_dirichlet=q_restricted,
                    q_navier_outer=q_outer, q_navier_inner=q_inner, slack_lower=lower,
                    slack_upper=upper)


_CHAIN_GROWTH = {1: 6, 2: 10}  # G per dimension: see monotone_chain


def monotone_chain(box: BoxGrid, s: float, trials: int, rng: np.random.Generator) -> Certificate:
    """:func:`monotonicity_check` on ``trials`` random nested mask pairs of ``box``.

    Each trial draws from ``rng``, in this order, the size of Omega (2 to G
    nodes), that of Omega' (1 to G + 1 nodes more), both masks, and a
    standard normal u on Omega.  One row per trial; the margin is the least slack.
    """
    grow, pairs = _CHAIN_GROWTH[box.dim], []
    for _ in range(trials):
        inner_size = int(rng.integers(2, grow + 1))
        outer_size = inner_size + int(rng.integers(1, grow + 2))
        inner, outer = random_nested_masks(box, inner_size, outer_size, rng)
        pairs.append(monotonicity_check(inner, outer, s, rng.standard_normal(inner.node_count)))
    return _certify({"monotone_chain": np.min([c.margins["monotone_chain"] for c in pairs])},
                    s=s, trial=np.arange(trials),
                    **_fields(np.concatenate([c.rows for c in pairs])))


def fourier_form(u: np.ndarray, box: BoxGrid, s: float) -> float:
    """Periodic Fourier-multiplier quadratic form sum_k |xi_k|^(2s) |u_hat_k|^2.

    ``u``, a (k,) * dim lattice at the box's step centred in it (k <= N, N - k even), is
    zero-padded into the box, the box is treated as one period, and xi runs over the integer
    frequencies scaled by pi/L; the zero mode contributes nothing.  For u supported well inside
    the box this is an independent discretization of the restricted form; the periodization
    error shrinks as the box margin grows.
    """
    s = _check_s(s)
    u = np.asarray(u, dtype=float)
    n, k = box.nodes_per_axis, u.shape[0] if u.ndim else 0
    if u.shape != (k,) * box.dim or k > n or (n - k) % 2:
        raise ValueError(f"support violation: a lattice of shape {u.shape} does not centre in the "
                         f"{box.shape} box")
    m, h = n + 1, box.h  # the period in nodes; node 0 sits on the box edge and is zero
    p = np.zeros((m,) * box.dim)
    sl = slice((n - k) // 2 + 1, (n + k) // 2 + 1)
    p[(sl,) * box.dim] = u
    freq = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    mult = reduce(np.add.outer, [freq**2] * box.dim) ** s
    mult.flat[0] = 0.0
    f = np.fft.fftn(p)
    return float((h / m) ** box.dim * np.sum(mult * np.abs(f) ** 2))
