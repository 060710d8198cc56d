"""Distance matrix operators: the distance matrix D, its Laplacian
L = diag(tr) - D and its signless Laplacian Q = diag(tr) + D, as one exact
int64 array. Their spectra come from one linalg.eig_symmetric call on the
rows a caller reads: the soundness sweep (certify.violations) solves L and
Q, and compute_all_bounds D, L and Q, whose D spectrum a report prints.
The rank-one Brauer shift of L is built only on the graphs whose L_N1
bound meets the Laplacian radius (certify.diagnose)."""

from __future__ import annotations

import numpy as np


def build_operators(dd):
    """D, L and Q of a connected graph's distance data as one (3, n, n)
    int64 array, or of a batch's as (3, B, N, N). L is singular with zero
    row sums; a padded row and column is 0 in all three."""
    d = dd.dist
    size = d.shape[-1]
    ops = np.array((d, -d, d))
    # the transmissions on the diagonals of L and Q, where D is 0
    ops[1:].reshape(2, -1, size * size)[..., ::size + 1] += dd.tr
    return ops
