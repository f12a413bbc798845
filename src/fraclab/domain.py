"""Grid and domain model.

A :class:`BoxGrid` is a uniform tensor grid of interior nodes on the open
box (-L, L)^dim with step h = 2L/(N+1); it stands in for the whole space
once L is large.  Its nodes form the lattice ``shape = (N,) * dim``, a
node's flat index being its row-major position there, and every grid
helper is written once over the axes for both dimensions.  A
:class:`SubDomain` marks the nodes of its box strictly inside a named
shape (interval, square, L-shape, disk) or a seeded random mask, and owns
Omega's Laplacian A_Omega, its spectrum and eigenbasis, built once on first use.
Functions are arrays of nodal values on Omega's nodes, or on the whole grid,
vanishing off the mask when "supported in Omega" (``values[mask]`` reads them).

Dilation alpha*Omega keeps the box and its step h and enlarges the
shape, so discrete operators on Omega and on alpha*Omega act on the same
lattice and can be compared node by node.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .linalg import EigenDecomposition, eigendecompose, sym_matrix

__all__ = [
    "BoxGrid",
    "SubDomain",
    "make_box",
    "make_shape",
    "parse_shape_spec",
    "dilate",
    "random_connected_mask",
    "random_nested_masks",
]

@dataclass(frozen=True)
class BoxGrid:
    """Uniform grid of N^dim interior nodes on the box (-L, L)^dim."""

    dim: int
    halfwidth: float
    nodes_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.halfwidth > 0 and np.isfinite(self.halfwidth)):
            raise ValueError(f"halfwidth must be positive, got {self.halfwidth}")
        if self.nodes_per_axis < 1:
            raise ValueError(f"nodes_per_axis must be >= 1, got {self.nodes_per_axis}")
        big = np.finfo(float).max ** 0.125  # sums of h^4 or 1/h^4 (squared 1/h^2 entries) stay finite
        if not 1.0 / big < self.h < big:
            raise ValueError(f"step h = {self.h!r} is outside the usable (1/{big:.3g}, {big:.3g})")

    @property
    def h(self) -> float:
        return 2.0 * self.halfwidth / (self.nodes_per_axis + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        """The node lattice ``(N,) * dim``; flat node indices are row-major in it."""
        return (self.nodes_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.nodes_per_axis**self.dim

    def axis_nodes(self) -> np.ndarray:
        """Interior node coordinates along one axis, strictly inside (-L, L)."""
        n = self.nodes_per_axis
        return -self.halfwidth + np.arange(1, n + 1) * self.h

    def node_coords(self) -> np.ndarray:
        """Coordinates of all nodes, shape (size, dim), in flat-index order."""
        axes = np.meshgrid(*[self.axis_nodes()] * self.dim, indexing="ij")
        return np.column_stack([x.ravel() for x in axes])

    def neighbors(self, f: int) -> list[int]:
        """Flat indices of node ``f``'s neighbours in the grid graph.

        The order is fixed: down, then up, along each axis, first axis first
        (f-n, f+n, f-1, f+1 in 2D; f-1, f+1 in 1D), with off-grid nodes
        dropped.  Random mask growth draws from this list, so the order is
        part of every seeded result.
        """
        n = self.nodes_per_axis
        out = []
        for k in reversed(range(self.dim)):
            stride = n**k
            i = f // stride % n
            if i > 0:
                out.append(f - stride)
            if i < n - 1:
                out.append(f + stride)
        return out


def _interval_eigenvalues(m: int, h: float) -> np.ndarray:
    """lambda_j = (2 - 2 cos(j pi/(m+1)))/h^2, j = 1..m: the m-node second difference's spectrum."""
    j = np.arange(1, m + 1, dtype=float)
    return (2.0 - 2.0 * np.cos(j * np.pi / (m + 1))) / h**2


@lru_cache(maxsize=64)
def _interval_eigenbasis(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectrum of the m-node second-difference matrix.

    :func:`_interval_eigenvalues` with discrete sine eigenvectors; exact up
    to rounding, no iterative eigensolve needed.
    """
    j = np.arange(1, m + 1, dtype=float)
    lam = _interval_eigenvalues(m, h)
    i = np.arange(1, m + 1, dtype=float)[:, None]
    q = np.sqrt(2.0 / (m + 1)) * np.sin(i * j[None, :] * np.pi / (m + 1))
    lam.flags.writeable = False
    q.flags.writeable = False
    return lam, q


@dataclass(frozen=True, eq=False)
class SubDomain:
    """Node mask identifying a domain Omega inside a box grid.

    Omega's Laplacian and its eigenbasis are computed on first use and kept
    with the instance, which is immutable; equality and hashing therefore go
    by identity, not by mask contents.
    """

    grid: BoxGrid
    mask: np.ndarray
    shape: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.grid.size,):
            raise ValueError(f"mask has shape {mask.shape}, expected ({self.grid.size},)")
        if not mask.any():
            raise ValueError("empty mask: no grid node falls inside the shape")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def coords(self) -> np.ndarray:
        return self.grid.node_coords()[self.mask]

    @cached_property
    def laplacian(self) -> np.ndarray:
        """A_Omega, the second-order central-difference Laplacian on the mask.

        Row stencil (-1, 2, -1)/h^2 in 1D, the five-point stencil in 2D, with
        homogeneous exterior values; equals the box matrix compressed to the
        mask.  Symmetric and read-only.
        """
        grid = self.grid
        h2 = grid.h**2
        idx = self.indices
        pos = np.full(grid.size, -1, dtype=int)
        pos[idx] = np.arange(idx.size)
        a = np.zeros((idx.size, idx.size))
        np.fill_diagonal(a, 2.0 * grid.dim / h2)
        for f_i, f in enumerate(idx.tolist()):
            for g in grid.neighbors(f):
                if pos[g] >= 0:
                    a[f_i, pos[g]] = -1.0 / h2
        return sym_matrix(a)

    def _rectangle_sides(self) -> list[int] | None:
        """Nodes per axis of Omega's bounding box, or None unless Omega fills that box."""
        sides = [int(np.ptp(axis)) + 1 for axis in np.nonzero(self.mask.reshape(self.grid.shape))]
        return sides if np.prod(sides) == self.node_count else None

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of :attr:`laplacian`, bitwise ``eigen.eigenvalues``; a
        rectangle's are the sorted Kronecker sum of 1D ones, made without its eigenbasis."""
        sides = self._rectangle_sides()
        if sides is None:
            return self.eigen.eigenvalues
        lam = reduce(np.add.outer, [_interval_eigenvalues(m, self.grid.h) for m in sides])
        lam = np.sort(lam, None, kind="stable")  # the sort eigen's argsort uses
        lam.flags.writeable = False
        return lam

    @cached_property
    def eigen(self) -> EigenDecomposition:
        """Ascending eigenbasis of :attr:`laplacian`, shared by every exponent.

        A rectangle mask (one that fills its bounding box) has a Laplacian that is
        a tensor product of second-difference matrices, so its basis is the
        Kronecker product of 1D sine bases in :attr:`spectrum`'s order; other
        masks go to LAPACK.
        """
        sides = self._rectangle_sides()
        if sides is None:
            return eigendecompose(self.laplacian)
        lams, qs = zip(*(_interval_eigenbasis(m, self.grid.h) for m in sides))
        lam, q = reduce(np.add.outer, lams).ravel(), reduce(np.kron, qs)
        if np.any(np.diff(lam) < 0):  # an ascending spectrum keeps the cached basis uncopied
            q = q[:, np.argsort(lam, kind="stable")]
        return EigenDecomposition(eigenvalues=self.spectrum, eigenvectors=np.ascontiguousarray(q))


def make_box(dim: int, halfwidth: float, nodes_per_axis: int) -> BoxGrid:
    """Uniform box grid with step h = 2*halfwidth/(nodes_per_axis + 1)."""
    return BoxGrid(dim=dim, halfwidth=float(halfwidth), nodes_per_axis=int(nodes_per_axis))


# Shape registry: membership tests use strict interior (open shapes), matching
# homogeneous Dirichlet exterior values; each entry also knows its extent
# (max |coordinate|).  Each is given about the origin, so dilate scales all
# of its parameters alike.

def _interval_inside(coords, a, b):
    x = coords[:, 0]
    return (x > a) & (x < b)


def _square_inside(coords, side):
    return np.max(np.abs(coords), axis=1) < side / 2.0


def _lshape_inside(coords, side):
    inside = np.max(np.abs(coords), axis=1) < side / 2.0
    notch = (coords[:, 0] >= 0.0) & (coords[:, 1] <= 0.0)
    return inside & ~notch


def _disk_inside(coords, r):
    return np.hypot(coords[:, 0], coords[:, 1]) < r


_SHAPES = {
    "interval": dict(dim=1, nparams=2, inside=_interval_inside,
                     extent=lambda a, b: max(abs(a), abs(b))),
    "square": dict(dim=2, nparams=1, inside=_square_inside, extent=lambda side: side / 2.0),
    "lshape": dict(dim=2, nparams=1, inside=_lshape_inside, extent=lambda side: side / 2.0),
    "disk": dict(dim=2, nparams=1, inside=_disk_inside, extent=lambda r: r),
}


def parse_shape_spec(spec: str) -> tuple[str, tuple[float, ...]]:
    """Parse a CLI shape string like ``interval:-0.5,0.5`` or ``disk:0.3``."""
    name, sep, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in _SHAPES:
        raise ValueError(f"unknown shape {name!r}; expected one of {sorted(_SHAPES)}")
    if not sep or not rest.strip():
        raise ValueError(f"shape {name!r} needs {_SHAPES[name]['nparams']} parameter(s)")
    try:
        params = tuple(float(tok) for tok in rest.split(","))
    except ValueError as exc:
        raise ValueError(f"bad shape parameters in {spec!r}: {exc}") from exc
    if len(params) != _SHAPES[name]["nparams"]:
        raise ValueError(f"shape {name!r} needs {_SHAPES[name]['nparams']} parameter(s), got {len(params)}")
    return name, params


def _check_connected(grid: BoxGrid, mask: np.ndarray) -> None:
    """Warn (not raise) if the mask is disconnected as a grid graph."""
    members = set(np.flatnonzero(mask).tolist())
    seen = {min(members)}
    queue = deque(seen)
    while queue:
        for g in grid.neighbors(queue.popleft()):
            if g in members and g not in seen:
                seen.add(g)
                queue.append(g)
    if len(seen) != len(members):
        warnings.warn("subdomain mask is not connected as a grid graph", stacklevel=3)


def make_shape(grid: BoxGrid, shape: str, params: tuple[float, ...]) -> SubDomain:
    """Mask of the grid nodes lying strictly inside the given named open shape.

    The shape must not exceed the box; callers should keep a margin of at
    least h for the ambient-box comparisons to make sense.  An arbitrary
    mask is a ``SubDomain(grid=..., mask=...)``.
    """
    if shape not in _SHAPES:
        raise ValueError(f"unknown shape {shape!r}; expected one of {sorted(_SHAPES)}")
    info = _SHAPES[shape]
    if info["dim"] != grid.dim:
        raise ValueError(f"shape {shape!r} is {info['dim']}-dimensional, grid is {grid.dim}-dimensional")
    if len(params) != info["nparams"]:
        raise ValueError(f"shape {shape!r} needs {info['nparams']} parameter(s), got {len(params)}")
    extent = info["extent"](*params)
    if extent <= 0:
        raise ValueError(f"degenerate shape {shape!r} with parameters {params}")
    # hard limit: the shape may not leak out of the box; staying a full step h
    # away from the boundary is the caller's (soft) obligation
    if extent > grid.halfwidth * (1.0 + 1e-9):
        raise ValueError(f"shape extent {extent:g} exceeds the box halfwidth {grid.halfwidth:g}")
    inside = info["inside"](grid.node_coords(), *params)
    sd = SubDomain(grid=grid, mask=inside, shape=shape, params=tuple(float(p) for p in params))
    _check_connected(grid, sd.mask)
    return sd


def dilate(domain: SubDomain, alpha: float) -> SubDomain:
    """The dilated named shape alpha*Omega = {alpha x : x in Omega} on Omega's own box.

    The grid and its step h stay fixed, so alpha*Omega lies on Omega's
    lattice.  Raises if the dilate comes within h of the box boundary
    (naming the halfwidth it would need) or if Omega is not a named shape.
    """
    if alpha < 1.0:
        raise ValueError(f"dilation factor must be >= 1, got {alpha}")
    if domain.shape not in _SHAPES:
        raise ValueError(f"only named shapes dilate, not a {domain.shape!r} mask")
    grid = domain.grid
    h = grid.h
    new_params = tuple(alpha * p for p in domain.params)
    extent = _SHAPES[domain.shape]["extent"](*new_params)
    if extent > grid.halfwidth - h:
        needed = extent + 2.0 * h
        steps = int(np.ceil((needed - grid.halfwidth) / h))
        raise ValueError(
            f"dilated shape needs box halfwidth {grid.halfwidth + steps * h:g}, "
            f"exceeding the configured maximum {grid.halfwidth:g}"
        )
    return make_shape(grid, domain.shape, new_params)


def _grow(grid: BoxGrid, mask: np.ndarray, cells: list[int], size: int,
          rng: np.random.Generator) -> SubDomain:
    """Grow the connected ``mask`` to ``size`` nodes, one random neighbour at a time.

    ``cells`` lists the mask's nodes; each attempt draws one of them, then one
    of its grid neighbours, and adds that neighbour if it is new.  Both the
    order of ``cells`` and that of :meth:`BoxGrid.neighbors` fix which nodes a
    seed yields.  Raises if 100 * size attempts leave the mask short.
    """
    attempts = 0
    while len(cells) < size:
        if attempts == 100 * size:
            raise RuntimeError(f"mask growth stalled at {len(cells)} of {size} nodes "
                               f"after {attempts} attempts")
        attempts += 1
        valid = grid.neighbors(cells[int(rng.integers(len(cells)))])
        g = valid[int(rng.integers(len(valid)))]
        if not mask[g]:
            mask[g] = True
            cells.append(g)
    return SubDomain(grid=grid, mask=mask, shape="custom", params=())


def random_connected_mask(grid: BoxGrid, size: int, rng: np.random.Generator) -> SubDomain:
    """Random connected mask of the requested node count, grown from a random node."""
    if not 1 <= size <= grid.size:
        raise ValueError(f"mask size {size} out of range [1, {grid.size}]")
    start = int(rng.integers(grid.size))
    mask = np.zeros(grid.size, dtype=bool)
    mask[start] = True
    return _grow(grid, mask, [start], size, rng)


def random_nested_masks(
    grid: BoxGrid, inner_size: int, outer_size: int, rng: np.random.Generator
) -> tuple[SubDomain, SubDomain]:
    """A random connected pair Omega inside Omega' with the given node counts.

    Omega' is Omega grown further, drawing from Omega's nodes in index order.
    """
    if inner_size > outer_size:
        raise ValueError("inner mask cannot be larger than the outer mask")
    if outer_size > grid.size:
        raise ValueError(f"outer mask size {outer_size} exceeds the grid's {grid.size} nodes")
    inner = random_connected_mask(grid, inner_size, rng)
    outer = _grow(grid, inner.mask.copy(), inner.indices.tolist(), outer_size, rng)
    return inner, outer
