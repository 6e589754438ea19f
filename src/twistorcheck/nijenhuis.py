"""Nijenhuis tensor of an almost complex structure, by two independent routes.

Route 1 (coordinate brackets) expands
N(X, Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY] on coordinate vector fields,
where every bracket reduces to first derivatives of J alone.  It never touches
the metric or the connection.

Route 2 (connection coefficients) assembles the frame values
N(e_i, e_j) = sum_k (d_{ijk} e_k - d'_{ijk} e_{k+n}) from the structure
coefficients of the connection forms and fills the remaining slots with the
symmetries N(Y, X) = -N(X, Y) and N(JX, Y) = -J N(X, Y) = N(X, JY).

The two routes share no code path, so their gap (``route_gap``, which
``theorem_report`` measures at every point and every command gates at
``ROUTE_REL_TOL``) is a genuine cross-check of every sign convention in
between.
They may share input: both read J and dJ from the same ``PointJet``, since a
second evaluation of the J jet at the same point would return the same
numbers.
"""

from __future__ import annotations

import numpy as np

from .geometry import PointJet

ROUTE_REL_TOL = 1e-6


def nijenhuis_coordinates(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Coordinate components N[..., c, a, b] = N(d_a, d_b)^c from J and its jet.

    ``J[..., a, b]`` is the field value and ``dJ[..., c, a, b] = d_c J^a_b``
    its first derivatives at each point.  Coordinate fields have vanishing
    mutual brackets, so the four brackets in the definition collapse to
    contractions of J with dJ.  The metric never enters, which keeps this
    route independent of the connection machinery.
    """
    J = np.asarray(J, dtype=float)
    dJ = np.asarray(dJ, dtype=float)
    dim = J.shape[-1]
    flat = dJ.shape[:-3] + (dim, dim * dim)
    # X[c, a, b] = sum_d J^d_a d_d J^c_b
    X = np.swapaxes((np.swapaxes(J, -1, -2) @ dJ.reshape(flat)).reshape(dJ.shape), -3, -2)
    # Z[c, a, b] = sum_e J^c_e d_a J^e_b
    Z = (J @ np.swapaxes(dJ, -3, -2).reshape(flat)).reshape(dJ.shape)
    N = X - np.swapaxes(X, -1, -2)
    N += np.swapaxes(Z, -1, -2)
    N -= Z
    return N


def frame_components_from_coordinates(
    coord: np.ndarray, E: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Convert N^c_{ab} to frame components using E^{-1} = E^T g.

    Nf[C, A, B] = (E^-1)_{Cc} (E^T N^c E)_{AB}, as two fixed pairwise
    contractions of cost O(dim^4) per point.  ``E`` may carry a wider batch
    than ``coord`` and ``g`` (rotated frames of the same points).
    """
    dim = E.shape[-1]
    Einv = np.swapaxes(E, -1, -2) @ g
    upper = Einv @ coord.reshape(coord.shape[:-3] + (dim, dim * dim))
    upper = upper.reshape(upper.shape[:-1] + (dim, dim))
    return np.swapaxes(E, -1, -2)[..., None, :, :] @ upper @ E[..., None, :, :]


def nijenhuis_frame(d: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Frame components Nf[..., C, A, B] assembled from the structure coefficients d and d'.

    Slots with both arguments in the first half come straight from the d and
    d' tensors; the rest follow from the J-symmetries, matching the factor-4
    bookkeeping of the squared-norm formula.
    """
    n = d.shape[-1]
    # V[C, i, j] = components of N(e_i, e_j); -J0 V moves its halves
    V = np.concatenate([np.moveaxis(d, -1, -3), -np.moveaxis(dp, -1, -3)], axis=-3)
    mJ0V = np.concatenate([V[..., n:, :, :], -V[..., :n, :, :]], axis=-3)
    Nf = np.empty(V.shape[:-3] + (2 * n, 2 * n, 2 * n), dtype=V.dtype)
    Nf[..., :, :n, :n] = V
    Nf[..., :, n:, :n] = mJ0V  # N(J e_i, e_j) = -J N(e_i, e_j)
    Nf[..., :, :n, n:] = mJ0V  # N(e_i, J e_j) = -J N(e_i, e_j)
    Nf[..., :, n:, n:] = -V  # N(J e_i, J e_j) = -N(e_i, e_j)
    return Nf


def nijenhuis_tensor(jet: PointJet) -> np.ndarray:
    """Frame components Nf[..., C, A, B] by the coordinate route at the jet's points.

    The coordinate components come from the jet's J and dJ and change to the
    jet's frame; neither the metric's derivatives nor the connection enter.
    """
    frame = jet.frame
    coord = nijenhuis_coordinates(frame.J, jet.dJ)
    return frame_components_from_coordinates(coord, frame.E, frame.g)


def route_gap(N: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Relative gap between two routes' frame components N[..., C, A, B], per point.

    The gap is max |N - reference| relative to max(1, max |reference|); the
    routes agree where it is at most ``ROUTE_REL_TOL``.
    """
    scale = np.maximum(1.0, np.abs(reference).max(axis=(-3, -2, -1)))
    return np.abs(N - reference).max(axis=(-3, -2, -1)) / scale


def norm_from_coefficients(d: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Squared Nijenhuis norm 4 sum_{i,j,k} (d_ijk^2 + d'_ijk^2), per point."""
    axes = (-3, -2, -1)
    return 4.0 * ((d**2).sum(axis=axes) + (dp**2).sum(axis=axes))


def nijenhuis_norm(N: np.ndarray) -> np.ndarray:
    """Squared norm |N|^2 = sum_{A,B} |N(e_A, e_B)|^2 of frame components N[..., C, A, B], per point."""
    return (N**2).sum(axis=(-3, -2, -1))
