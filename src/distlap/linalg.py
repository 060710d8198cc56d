"""Symmetric eigensolving, eigenvalue multiplicities, irreducibility. A
spectrum is a descending float64 array; a stack's lie along its last axis."""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .graphs import _reach_levels


def eig_symmetric(m, n=None):
    """Full spectrum of an exactly symmetric real matrix, as a descending
    float64 array, or the spectra of a (..., B, N, N) stack.

    n holds the vertex count of each of the B matrices along the stack's
    third-last axis, each padded with zero rows and columns up to N; None
    stands for no padding. The matrices of one size are solved in one
    eigvalsh call on their unpadded k x k blocks, so every eigenvalue is the
    one the matrix gets alone; matrix b's spectrum fills the first n[b]
    entries, and 0 pads the rest. Each run of one size, in stack order, is
    a slice of the stack and one eigvalsh call: a sweep's tail chunk, whose
    sizes ascend, makes one call per size.

    Rejects non-square, non-finite or non-symmetric input (entry-for-entry
    equality is required, which integer-built matrices always satisfy; an
    integer matrix is finite, and is not scanned for it). Cross-checks each
    matrix's eigenvalue sum against its trace to 1e-9 * ||m||_F before
    returning; the first matrix of a stack that drifts raises. Each check
    runs once over the whole stack, padding included, which adds zeros to
    every side of it.
    """
    integer = np.asarray(m).dtype.kind in "biu"
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("empty matrix")
    if not (integer or np.isfinite(a).all()):
        raise ValueError("matrix contains non-finite entries")
    if not (a == np.swapaxes(a, -1, -2)).all():
        raise ValueError("matrix is not symmetric")
    size = a.shape[-1]
    # the sizes as a list: a few Python steps over B ints cost less than
    # the numpy calls that would find their runs
    sizes = [] if n is None else n.tolist()
    if all(k == size for k in sizes):  # no padding
        w = np.ascontiguousarray(np.linalg.eigvalsh(a)[..., ::-1])
    else:
        w = np.zeros(a.shape[:-1])
        # each run of one size is a slice of the stack, a view of a
        cuts = [b for b in range(1, len(sizes)) if sizes[b] != sizes[b - 1]]
        for lo, hi in zip([0, *cuts], [*cuts, len(sizes)]):
            k = sizes[lo]
            w[..., lo:hi, :k] = np.linalg.eigvalsh(
                a[..., lo:hi, :k, :k])[..., ::-1]
    drift = np.abs(w.sum(axis=-1) - a.trace(axis1=-2, axis2=-1))
    drifted = drift > 1e-9 * np.sqrt((a * a).sum(axis=(-2, -1))) + 1e-12
    if drifted.any():
        raise ConsistencyError(
            f"eigenvalue sum drifted from trace by {drift[drifted][0]:.3e}")
    return w


def is_irreducible(m, n=None):
    """True iff the directed nonzero-entry pattern of a square matrix is
    strongly connected, or one flag per matrix of a (B, N, N) stack.

    n holds each matrix's size, padded up to N; None stands for no padding.
    The pattern of a padded row or column is ignored, whatever it holds.
    Checked as every vertex reaching every other along the pattern's
    directed edges, by the reach doubling of graphs.connected_distances on
    the whole stack; a non-zero diagonal entry is no such edge, so it
    neither makes nor breaks irreducibility. A 1x1 matrix is irreducible
    iff its entry is nonzero (the usual convention).
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("empty matrix")
    stack = a.reshape(-1, *a.shape[-2:])
    size = stack.shape[-1]
    n = np.full(len(stack), size) if n is None else n
    real = np.arange(size) < n[:, None]
    pattern = (stack != 0) & real[:, :, None] & real[:, None, :]
    flags = np.where(n == 1, pattern[:, 0, 0], _reach_levels(pattern, n)[2])
    return bool(flags[0]) if a.ndim == 2 else flags


def multiplicity(values, value, tol=None):
    """Count of the eigenvalues in the array values within tol of value; for
    a stack of spectra, one count per spectrum against one value per spectrum.

    Default tol is 1e-6 * (1 + |value|).
    """
    if tol is None:
        tol = 1e-6 * (1.0 + np.abs(value))
    near = (np.abs(values - np.asarray(value)[..., None])
            <= np.asarray(tol)[..., None])
    return near.sum(axis=-1)
