"""Dense symmetric linear algebra: validated symmetric matrices, checked
eigensolves, with or without eigenvectors, and spectral matrix powers.

Symmetric matrices are plain float64 ndarrays that have passed through
:func:`sym_matrix`, which enforces exact symmetry and marks the storage
read-only.  Everything downstream (operators, extension solves) relies on
that contract, so construct matrices through this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "sym_matrix",
    "eigendecompose",
    "eigenvalues",
    "spectral_power",
]

# Gross asymmetry beyond this relative level is a construction bug, not noise.
_ASYM_REL_TOL = 1e-8


def sym_matrix(entries: np.ndarray) -> np.ndarray:
    """Validate and freeze a square symmetric matrix.

    Returns an exactly symmetric, read-only float64 copy, or the input itself
    when it already is one and owns its storage (a :func:`sym_matrix`
    output).  Tiny asymmetry (roundoff from prior arithmetic) is symmetrized
    away; anything beyond ``1e-8`` relative is rejected.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    scale = np.max(np.abs(m))
    asym = np.max(np.abs(m - m.T))
    if scale > 0 and asym > _ASYM_REL_TOL * scale:
        raise ValueError(f"matrix is not symmetric: max|M - M^T| = {asym:.3e}")
    if asym == 0 and m.flags.owndata and not m.flags.writeable:
        return m
    out = 0.5 * (m + m.T)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and an orthonormal eigenvector basis.

    ``eigenvectors[:, j]`` belongs to ``eigenvalues[j]``.  Both arrays are
    read-only.  For degenerate eigenvalues any orthonormal basis of the
    eigenspace may appear; downstream spectral functions are basis-invariant.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def eigendecompose(matrix: np.ndarray, tol: float = 1e-10) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Verifies orthogonality of the basis (``max|Q^T Q - I| <= tol``) and the
    reconstruction residual (``max|Q L Q^T - M| <= max(tol, 1e-8) * max|M|``)
    and raises with the offending residual if the backend failed to converge
    to those tolerances.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = sym_matrix(matrix)
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
    w = np.ascontiguousarray(w)
    q = np.ascontiguousarray(q)
    orth = np.max(np.abs(q.T @ q - np.eye(m.shape[0])))
    if orth > tol:
        raise RuntimeError(f"eigenvector basis not orthonormal: residual {orth:.3e} > {tol:.1e}")
    scale = max(np.max(np.abs(m)), 1.0)
    recon = np.max(np.abs((q * w) @ q.T - m))
    recon_tol = max(tol, 1e-8) * scale
    if recon > recon_tol:
        raise RuntimeError(f"eigendecomposition residual {recon:.3e} exceeds {recon_tol:.1e}")
    return EigenDecomposition(eigenvalues=w, eigenvectors=q)


def eigenvalues(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Ascending eigenvalues of an exactly symmetric matrix, without eigenvectors.

    The spectrum must reproduce the trace and the squared Frobenius norm to
    ``tol`` relative to ``n max|M|`` and ``||M||_F^2``; roundoff leaves 1e-13.
    """
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("matrix is not exactly symmetric; pass it through sym_matrix")
    try:
        w = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solve did not converge: {exc}") from exc
    check_spectrum(w, float(np.trace(matrix)), float(np.vdot(matrix, matrix)),
                   float(np.max(np.abs(matrix))), tol)
    return w


def check_spectrum(w: np.ndarray, trace: float, frob: float, scale: float,
                   tol: float = 1e-10) -> None:
    """Raise unless eigenvalues ``w`` reproduce a symmetric matrix's invariants.

    ``trace`` and ``frob`` are the matrix's trace and squared Frobenius norm,
    ``scale`` its largest entry in magnitude; ``sum(w)`` must meet the trace
    to ``tol len(w) scale`` and ``w @ w`` the norm to ``tol frob``.
    """
    checks = {"trace": (abs(np.sum(w) - trace), tol * len(w) * scale),
              "squared Frobenius norm": (abs(w @ w - frob), tol * frob)}
    for name, (gap, bound) in checks.items():
        if not gap <= bound:
            raise RuntimeError(f"eigenvalues miss the {name} by {gap:.3e} > {bound:.1e}")


def spectral_power(eigen: EigenDecomposition, s: float) -> np.ndarray:
    """Matrix power M^s = Q diag(lambda^s) Q^T through a decomposition.

    Requires strictly positive eigenvalues for non-integer exponents; the
    exponent range of interest here is 0 <= s <= 1.
    """
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    if s != round(s) and eigen.eigenvalues[0] <= 0:
        raise ValueError(
            f"fractional power needs positive spectrum; min eigenvalue = {eigen.eigenvalues[0]:.3e}"
        )
    q = eigen.eigenvectors
    return sym_matrix((q * eigen.eigenvalues**s) @ q.T)

