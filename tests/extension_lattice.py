"""One variant's extension lattice, energy and Dirichlet-to-Neumann trace, for the tests.

``compare_extensions`` forms no solution: it streams both variants through one sweep and keeps
only its certificate.  The tests that hold the extension to closed forms, dense oracles and the
maximum principle gather one variant's whole lattice here instead, from the same
``extension._analyses`` and ``extension._sweep`` the certificate reads.
"""

from typing import NamedTuple

import numpy as np

from fraclab import extension


class Lattice(NamedTuple):
    values: np.ndarray  # w at Omega's i-th node and y-layer k; values[:, -1] = 0 (truncation)
    energy: float  # h^dim sum_j c0_j^2 E_h(lam_j), the weighted extension energy
    dtn: np.ndarray  # sum_j c0_j E_h(lam_j) q_j on Omega's nodes: the discrete DtN map of u


def solve(u, domain, variant, s, mesh) -> Lattice:
    """The extension of ``u`` of one variant, "navier" or "dirichlet", on ``mesh``."""
    _, modes = extension._analyses(u, domain, s, mesh)
    lam, c0, synthesize = modes[("dirichlet", "navier").index(variant)]
    (flux,), blocks = extension._sweep([(lam, c0, synthesize)], mesh, s)
    values = np.zeros((domain.node_count, mesh.layers + 1))
    for ks, (block,) in blocks:
        values[:, ks] = block
    energy = float(domain.grid.h ** domain.grid.dim * (c0 @ flux))
    return Lattice(values, energy, synthesize(flux[None])[:, 0])

