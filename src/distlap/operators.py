"""Distance matrix operators: Laplacian, signless Laplacian, Brauer shift."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eig_symmetric


@dataclass
class OperatorBundle:
    """Integer matrices built from one distance matrix, or (B, n, n) stacks
    of them built from a batch.

    d_mat: the distance matrix itself
    l_mat: diag(tr) - d_mat (singular, row sums zero)
    q_mat: diag(tr) + d_mat
    b_mat: l_mat + ones * p^T, the rank-one shift whose extra eigenvalue is
           the eccentricity sum while the rest of the l_mat spectrum carries
           over (b_mat is generally not symmetric)
    """

    d_mat: np.ndarray
    l_mat: np.ndarray
    q_mat: np.ndarray
    b_mat: np.ndarray

    def row(self, i):
        """Matrix i of each stack, as one graph's bundle."""
        return OperatorBundle(d_mat=self.d_mat[i], l_mat=self.l_mat[i],
                              q_mat=self.q_mat[i], b_mat=self.b_mat[i])


def build_operators(dd):
    """Exact integer operator matrices for a connected graph's distance data,
    or (B, N, N) stacks of them for a batch, whose padded rows and columns
    are 0 in d_mat, l_mat and q_mat."""
    d = dd.dist
    t = dd.tr[..., None] * np.eye(d.shape[-1], dtype=d.dtype)
    l = t - d
    q = t + d
    b = l + dd.p[..., None, :]
    return OperatorBundle(d_mat=d, l_mat=l, q_mat=q, b_mat=b)


def operator_spectra(dd):
    """The operator stacks of a batch's distance data and their spectra:
    (bundle, spectra), spectra the (3, B, N) float64 array of descending D, L
    and Q spectra. D, L and Q of the graphs on k vertices are solved in one
    stacked eigensolve of their unpadded k x k matrices, one per k in the
    batch, so every eigenvalue is the one the graph gets alone; graph b's
    spectrum fills the first n[b] entries, and 0 pads the rest."""
    bundle = build_operators(dd)
    stacked = np.array((bundle.d_mat, bundle.l_mat, bundle.q_mat),
                       dtype=np.float64)
    sizes = set(dd.n.tolist())
    spectra = np.zeros(stacked.shape[:-1])
    for k in sizes:
        # one size is every row, a view rather than a copy of the stack
        rows = dd.n == k if len(sizes) > 1 else slice(None)
        spectra[:, rows, :k] = eig_symmetric(stacked[:, rows, :k, :k])
    return bundle, spectra


def polynomial_row_sums(q_mat, coeffs):
    """Row sums of p(q_mat) for a polynomial p of degree at most 2.

    coeffs is (c0, c1, c2...) lowest degree first, at most three entries.
    For a (B, n, n) stack each coefficient may also be one value per matrix.
    Computed with matrix-vector products against the all-ones vector only;
    the matrix power is never formed. Integer inputs give exact integer
    output.
    """
    if len(coeffs) == 0 or len(coeffs) > 3:
        raise ValueError(
            f"need 1 to 3 coefficients (degree <= 2), got {len(coeffs)}")
    q = np.asarray(q_mat)
    if q.ndim < 2 or q.shape[-1] != q.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    exact = q.dtype.kind in "iu" and all(
        np.asarray(c).dtype.kind in "iu" for c in coeffs)
    dtype = np.int64 if exact else np.float64
    v = np.ones(q.shape[:-1], dtype=dtype)
    out = np.asarray(coeffs[0])[..., None] * v
    power = v
    for c in coeffs[1:]:
        power = (q @ power[..., None])[..., 0]
        out = out + np.asarray(c)[..., None] * power
    return out
