"""Special functions and Sobolev-constant machinery.

The critical embedding H^s -> L_{2*} with 2* = 2n/(n-2s) has an explicit
best constant on the whole space,

    S = (4 pi)^s * Gamma((n+2s)/2)/Gamma((n-2s)/2) * [Gamma(n/2)/Gamma(n)]^(2s/n),

attained (up to dilation, translation and scaling) by the profile
U(x) = (1 + |x|^2)^((2s-n)/2).  This module evaluates the constant and the
profile, computes discrete L_p norms and Rayleigh quotients, certifies the
FFT quotient of the profile against the constant, minimizes the quotient
over a subdomain by normalized gradient descent, and sweeps dilations
alpha*Omega, where the spectral form decreases toward the restricted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BoxGrid, SubDomain, dilate, make_box
from .operators import Certificate, _certify, _form, _navier_form, _restricted_matrix, fourier_form
from .operators import navier_operator  # noqa: F401  perfbench's tracer test wraps it here

__all__ = [
    "SobolevSetup",
    "QuotientResult",
    "gamma",
    "sobolev_constant_closed_form",
    "extremal_function",
    "lp_norm",
    "rayleigh_quotient",
    "sobolev_check",
    "minimize_quotient",
    "dilation_sweep",
]


def gamma(x: float) -> float:
    """Gamma function for positive arguments (relative error ~1e-15)."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"gamma requires a positive finite argument, got {x}")
    return math.gamma(x)


@dataclass(frozen=True)
class SobolevSetup:
    """Dimension and exponent of a subcritical embedding (requires n > 2s)."""

    n: int
    s: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"exponent must lie in (0, 1), got {self.s}")
        if self.n <= 2.0 * self.s:
            raise ValueError(f"embedding requires n > 2s, got n={self.n}, s={self.s}")

    @property
    def critical_exponent(self) -> float:
        return 2.0 * self.n / (self.n - 2.0 * self.s)


def sobolev_constant_closed_form(n: int, s: float) -> float:
    """Best whole-space constant of the critical embedding (see module docstring)."""
    setup = SobolevSetup(n=n, s=s)  # validates n > 2s
    n_, s_ = float(setup.n), setup.s
    return (
        (4.0 * math.pi) ** s_
        * gamma((n_ + 2.0 * s_) / 2.0)
        / gamma((n_ - 2.0 * s_) / 2.0)
        * (gamma(n_ / 2.0) / gamma(n_)) ** (2.0 * s_ / n_)
    )


def extremal_function(grid: BoxGrid, s: float) -> np.ndarray:
    """The optimizer profile U(x) = (1+|x|^2)^((2s-n)/2), n = grid.dim, at the grid's nodes."""
    setup = SobolevSetup(n=grid.dim, s=s)
    r2 = np.sum(grid.node_coords() ** 2, axis=1)
    return (1.0 + r2) ** ((2.0 * setup.s - setup.n) / 2.0)


def lp_norm(u: np.ndarray, grid: BoxGrid, p: float) -> float:
    """Discrete L_p norm (h^dim * sum |u_i|^p)^(1/p) of values u at nodes of ``grid``."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((grid.h**grid.dim * np.sum(np.abs(u) ** p)) ** (1.0 / p))


def rayleigh_quotient(form_value: float, u: np.ndarray, grid: BoxGrid, p: float) -> float:
    """Quotient form_value / ||u||_{L_p}^2; invariant under scaling of u."""
    denom = lp_norm(u, grid, p) ** 2
    if denom == 0.0:
        raise ZeroDivisionError("Rayleigh quotient undefined for u = 0")
    return float(form_value) / denom


def _fft_quotient(dim: int, s: float, halfwidth: float, nodes: int, pad: int) -> float:
    """The quotient of the profile sampled on the box of ``halfwidth`` and ``nodes`` per axis,
    its form the Fourier multiplier form on a box ``pad`` times as wide."""
    grid = make_box(dim, halfwidth, nodes)
    u = extremal_function(grid, s)
    form = fourier_form(u.reshape(grid.shape),
                        make_box(dim, pad * halfwidth, pad * (nodes + 1) - 1), s)
    return rayleigh_quotient(form, u, grid, SobolevSetup(n=dim, s=s).critical_exponent)


def sobolev_check(dim: int, s: float, halfwidth: float, nodes: int, pad: int) -> Certificate:
    """The FFT quotient of the optimizer profile against the closed-form constant.

    The profile is sampled on the box of ``halfwidth`` and ``nodes`` per
    axis, then on the doubled box (2 halfwidth, 2 (nodes + 1) - 1 nodes).
    Rows: the constant, then each quotient with its relative gap to it.  The
    margins are the first gap (quotient_near_constant) and how much doubling
    the box shrinks it (gap_shrinks_with_box).
    """
    reference = sobolev_constant_closed_form(dim, s)
    q1 = _fft_quotient(dim, s, halfwidth, nodes, pad)
    q2 = _fft_quotient(dim, s, 2.0 * halfwidth, 2 * (nodes + 1) - 1, pad)
    gap1, gap2 = abs(q1 - reference) / reference, abs(q2 - reference) / reference
    return _certify({"quotient_near_constant": gap1, "gap_shrinks_with_box": gap1 - gap2},
                    record=["closed_form", "quotient", "quotient_doubled"], s=s,
                    parameter=[dim, halfwidth, 2.0 * halfwidth], value=[reference, q1, q2],
                    reference=reference, rel_gap=[0.0, gap1, gap2])


@dataclass(frozen=True)
class QuotientResult:
    """Outcome of a quotient minimization: the minimizer's values on Omega, normalized in L_p."""

    value: float
    minimizer: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"quotient value must be positive and finite, got {self.value}")


def minimize_quotient(
    matrix: np.ndarray,
    largest: float,
    domain: SubDomain,
    p: float,
    seed: np.ndarray,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> QuotientResult:
    """Minimize  h^dim u^T M u / ||u||_{L_p}^2  over u on Omega by normalized descent.

    From a first step of 1/``largest``, M's largest eigenvalue, each step moves against the
    constrained gradient M u - q |u|^(p-2) u, renormalizes in L_p, and halves the step on any
    non-decrease, so the value sequence is nonincreasing.  For p = 2 the minimum is the smallest
    eigenvalue of M.  Convergence flag: relative decrease fell below ``tol``.
    """
    if matrix.shape != (domain.node_count,) * 2:
        raise ValueError("operator size does not match the domain's node count")
    if p < 2:
        # the constrained gradient carries |u|^(p-2), singular below p = 2
        raise ValueError(f"p must be >= 2, got {p}")
    u0 = np.asarray(seed, dtype=float)
    if u0.shape != matrix.shape[:1]:
        raise ValueError(f"seed must have length {len(matrix)}, got shape {u0.shape}")
    if not np.any(u0):
        raise ValueError("seed must be nonzero")
    grid = domain.grid
    hdim = grid.h**grid.dim

    def normalize(v):
        return v / (hdim * np.sum(np.abs(v) ** p)) ** (1.0 / p)

    u = normalize(u0)
    mu = matrix @ u
    q = hdim * float(u @ mu)
    eta = 1.0 / float(largest)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        grad = mu - q * np.abs(u) ** (p - 2.0) * u
        while True:
            v = normalize(u - eta * grad)
            mv = matrix @ v
            qv = hdim * float(v @ mv)
            if qv <= q or eta < 1e-18:
                break
            eta *= 0.5
        rel_drop = (q - qv) / q if q > 0 else 0.0
        u, mu, q = v, mv, qv
        eta *= 1.25
        if 0.0 <= rel_drop < tol:
            converged = True
            break
    return QuotientResult(value=q, minimizer=u, iterations=iterations, converged=converged)


def dilation_sweep(
    u: np.ndarray, domain: SubDomain, s_values: list[float], alphas: list[float]
) -> list[Certificate]:
    """Spectral form on alpha*Omega versus the restricted form, one certificate per exponent.

    Omega is a named shape; ``u`` lives on its nodes and is zero-extended
    into each dilate.  Every dilate is made once, on Omega's own box, serves
    every exponent through its eigenbasis (:func:`_navier_form`), and is
    dropped before the next is made; one that comes within h of its boundary raises.
    Rows run over the dilations.  Ratios are >= 1 up to roundoff
    (ratio_lower_bound: the least ratio - 1), equal 1 at s = 1
    (ratio_coincidence: the largest |ratio - 1|), and decrease toward 1
    (final_ratio: the last one), strictly only while the lattice resolves
    each dilate (ratio_decreasing at s < 1: the least drop from one factor to
    the next), so two factors that give the same mask raise.
    """
    alphas = [float(a) for a in alphas]
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("dilation factors must be strictly increasing")
    vals = np.asarray(u, dtype=float)
    if vals.shape != (domain.node_count,):
        raise ValueError(f"expected {domain.node_count} values on the mask")
    base_idx, previous = domain.indices, None
    q_navs = np.empty((len(s_values), len(alphas)))
    for k, alpha in enumerate(alphas):  # one dilate, and its eigenbasis, alive at a time
        try:
            dil = dilate(domain, alpha)
        except ValueError as exc:
            raise ValueError(f"grid/box capacity exceeded at alpha={alpha}: {exc}") from exc
        if not dil.mask[base_idx].all():
            raise ValueError(f"dilate by alpha={alpha} does not contain the base domain")
        if previous is not None and np.array_equal(dil.mask, previous):
            raise ValueError(f"alpha={alphas[k - 1]:g} and alpha={alpha:g} give the same "
                             f"{dil.node_count}-node mask on this lattice; refine the grid")
        v = np.zeros(dil.node_count)
        v[np.searchsorted(dil.indices, base_idx)] = vals
        q_navs[:, k] = [_navier_form(dil, s, v) for s in s_values]
        previous = dil.mask
    certificates = []
    for s, q_nav in zip(s_values, q_navs):
        q_dir = _form(_restricted_matrix(domain, s), vals, domain.grid)
        ratio = q_nav / q_dir
        margins = {"ratio_lower_bound": ratio.min() - 1.0, "final_ratio": ratio[-1]}
        if s == 1.0:
            margins["ratio_coincidence"] = np.max(np.abs(ratio - 1.0))
        elif ratio.size > 1:
            margins["ratio_decreasing"] = np.min(ratio[:-1] - ratio[1:])
        certificates.append(_certify(margins, s=s, alpha=alphas, q_navier=q_nav,
                                     q_dirichlet=q_dir, ratio=ratio))
    return certificates
