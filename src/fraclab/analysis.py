"""Special functions and Sobolev-constant machinery.

The critical embedding H^s -> L_{2*} with 2* = 2n/(n-2s) has an explicit
best constant on the whole space,

    S = (4 pi)^s * Gamma((n+2s)/2)/Gamma((n-2s)/2) * [Gamma(n/2)/Gamma(n)]^(2s/n),

attained (up to dilation, translation and scaling) by the profile
U(x) = (1 + |x|^2)^((2s-n)/2).  This module evaluates the constant and the
profile, computes discrete L_p norms and Rayleigh quotients, minimizes the
quotient over a subdomain by normalized gradient descent, and sweeps
dilations alpha*Omega, where the spectral form decreases toward the
restricted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import BoxGrid, GridFunction, SubDomain, dilate, extend_by_zero
from .operators import SymOperator, _form, _restricted_matrix, navier_operator

__all__ = [
    "SobolevSetup",
    "QuotientResult",
    "SweepRow",
    "gamma",
    "sobolev_constant_closed_form",
    "extremal_function",
    "lp_norm",
    "rayleigh_quotient",
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


def extremal_function(grid: BoxGrid, n: int, s: float) -> GridFunction:
    """The optimizer profile U(x) = (1+|x|^2)^((2s-n)/2) sampled at the grid nodes."""
    setup = SobolevSetup(n=n, s=s)
    if grid.dim != setup.n:
        raise ValueError(f"grid dimension {grid.dim} != n = {setup.n}")
    r2 = np.sum(grid.node_coords() ** 2, axis=1)
    return GridFunction(grid=grid, values=(1.0 + r2) ** ((2.0 * setup.s - setup.n) / 2.0))


def lp_norm(u: GridFunction, p: float) -> float:
    """Discrete L_p norm (h^dim * sum |u_i|^p)^(1/p) on u's grid."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    hdim = u.grid.h**u.grid.dim
    return float((hdim * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def rayleigh_quotient(form_value: float, u: GridFunction, p: float) -> float:
    """Quotient form_value / ||u||_{L_p}^2; invariant under scaling of u."""
    denom = lp_norm(u, p) ** 2
    if denom == 0.0:
        raise ZeroDivisionError("Rayleigh quotient undefined for u = 0")
    return float(form_value) / denom


@dataclass(frozen=True)
class QuotientResult:
    """Outcome of a quotient minimization (minimizer normalized in L_p)."""

    value: float
    minimizer: GridFunction
    iterations: int
    converged: bool

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"quotient value must be positive and finite, got {self.value}")


def minimize_quotient(
    operator: SymOperator,
    domain: SubDomain,
    p: float,
    seed: np.ndarray,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> QuotientResult:
    """Minimize  h^dim u^T M u / ||u||_{L_p}^2  over u on Omega by normalized descent.

    Each step moves against the constrained gradient M u - q |u|^(p-2) u,
    renormalizes in L_p, and halves the step on any non-decrease, so the
    value sequence is nonincreasing.  For p = 2 the minimum is the smallest
    eigenvalue of M.  Convergence flag: relative decrease fell below ``tol``.
    """
    if operator.n != domain.node_count:
        raise ValueError("operator size does not match the domain's node count")
    if p < 2:
        # the constrained gradient carries |u|^(p-2), singular below p = 2
        raise ValueError(f"p must be >= 2, got {p}")
    u0 = np.asarray(seed, dtype=float)
    if u0.shape != (operator.n,):
        raise ValueError(f"seed must have length {operator.n}, got shape {u0.shape}")
    if not np.any(u0):
        raise ValueError("seed must be nonzero")
    grid = domain.grid
    hdim = grid.h**grid.dim

    def normalize(v):
        return v / (hdim * np.sum(np.abs(v) ** p)) ** (1.0 / p)

    u = normalize(u0)
    mu = operator.apply(u)
    q = hdim * float(u @ mu)
    eta = 1.0 / float(np.max(np.abs(operator.eigen.eigenvalues)))
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        grad = mu - q * np.abs(u) ** (p - 2.0) * u
        while True:
            v = normalize(u - eta * grad)
            mv = operator.apply(v)
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
    return QuotientResult(
        value=q,
        minimizer=extend_by_zero(u, domain),
        iterations=iterations,
        converged=converged,
    )


class SweepRow(NamedTuple):
    s: float
    alpha: float
    q_navier: float
    q_dirichlet: float
    ratio: float


def dilation_sweep(
    u: np.ndarray, domain: SubDomain, s_values: list[float], alphas: list[float]
) -> list[SweepRow]:
    """Spectral form on alpha*Omega versus the restricted form, per exponent and dilation.

    Omega is a named shape; ``u`` lives on its nodes and is zero-extended
    into each dilate.  Every dilate is made once, on Omega's own box, and
    serves every exponent; one that comes within h of its boundary raises.
    Rows run over the dilations for each exponent in turn.  Ratios are >= 1
    up to roundoff and decrease toward 1, strictly only while the lattice
    resolves each dilate, so two factors that give the same mask raise.
    """
    alphas = [float(a) for a in alphas]
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("dilation factors must be strictly increasing")
    vals = np.asarray(u, dtype=float)
    if vals.shape != (domain.node_count,):
        raise ValueError(f"expected {domain.node_count} values on the mask")
    base_idx = domain.indices
    dilates = []
    for alpha in alphas:
        try:
            dil = dilate(domain, alpha)
        except ValueError as exc:
            raise ValueError(f"grid/box capacity exceeded at alpha={alpha}: {exc}") from exc
        if not dil.mask[base_idx].all():
            raise ValueError(f"dilate by alpha={alpha} does not contain the base domain")
        if dilates and np.array_equal(dil.mask, dilates[-1][1].mask):
            raise ValueError(f"alpha={dilates[-1][0]:g} and alpha={alpha:g} give the same "
                             f"{dil.node_count}-node mask on this lattice; refine the grid")
        v = np.zeros(dil.node_count)
        v[np.searchsorted(dil.indices, base_idx)] = vals
        dilates.append((alpha, dil, v))
    rows = []
    for s in s_values:
        q_dir = _form(_restricted_matrix(domain, s), vals, domain.grid)
        for alpha, dil, v in dilates:
            q_nav = navier_operator(dil, s).form(v)
            rows.append(SweepRow(s, alpha, q_nav, q_dir, q_nav / q_dir))
    return rows
