"""Symmetric eigensolving, eigenvalue multiplicities, irreducibility. A
spectrum is a descending float64 array; a stack's lie along its last axis."""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .graphs import _reach_levels


def frobenius_norm(m):
    """Frobenius norm of a matrix, or one per matrix of a (..., n, n) stack."""
    a = np.asarray(m, dtype=float)
    return np.sqrt((a * a).sum(axis=(-2, -1)))


def eig_symmetric(m):
    """Full spectrum of an exactly symmetric real matrix, as a descending
    float64 array, or the spectra of a (..., n, n) stack in one eigvalsh call.

    Rejects non-square or non-symmetric input (entry-for-entry equality is
    required, which integer-built matrices always satisfy). Cross-checks each
    matrix's eigenvalue sum against its trace to 1e-9 * ||m||_F before
    returning; the first matrix of a stack that drifts raises.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if not (a == np.swapaxes(a, -1, -2)).all():
        raise ValueError("matrix is not symmetric")
    w = np.ascontiguousarray(np.linalg.eigvalsh(a)[..., ::-1])
    drift = np.abs(w.sum(axis=-1) - np.trace(a, axis1=-2, axis2=-1))
    drifted = drift > 1e-9 * frobenius_norm(a) + 1e-12
    if drifted.any():
        raise ConsistencyError(
            f"eigenvalue sum drifted from trace by {drift[drifted][0]:.3e}")
    return w


def is_irreducible(m):
    """True iff the directed nonzero-entry pattern is strongly connected.

    Checked as every vertex reaching every other along the pattern's
    directed edges, by the reach doubling of graphs.connected_distances on
    the pattern as a batch of one; a non-zero diagonal entry is no such
    edge, so it neither makes nor breaks irreducibility. A 1x1 matrix is
    irreducible iff its entry is nonzero (the usual convention).
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    pattern = a != 0
    if a.shape[0] == 1:
        return bool(pattern[0, 0])
    return bool(_reach_levels(pattern[None])[1][0])


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
