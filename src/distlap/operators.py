"""Distance matrix operators: the distance matrix D, its Laplacian
L = diag(tr) - D and its signless Laplacian Q = diag(tr) + D, as one exact
int64 array. The rank-one Brauer shift of L is built only on the graphs
whose L_N1 bound meets the Laplacian radius (certify.diagnose)."""

from __future__ import annotations

import numpy as np

from .linalg import eig_symmetric


def build_operators(dd):
    """D, L and Q of a connected graph's distance data as one (3, n, n)
    int64 array, or of a batch's as (3, B, N, N), in the order
    operator_spectra solves them. L is singular with zero row sums; a padded
    row and column is 0 in all three."""
    d = dd.dist
    t = dd.tr[..., None] * np.eye(d.shape[-1], dtype=d.dtype)
    return np.stack((d, t - d, t + d))


def operator_spectra(dd):
    """The operators of a batch's distance data and their spectra:
    (ops, spectra), ops the (3, B, N, N) array of build_operators and
    spectra the (3, B, N) float64 array of descending D, L and Q spectra,
    solved by one eig_symmetric call on the padded stack: every eigenvalue
    is the one the graph gets alone, graph b's spectrum fills the first
    n[b] entries, and 0 pads the rest."""
    ops = build_operators(dd)
    return ops, eig_symmetric(ops, dd.n)
