"""Central differences for the tests: an oracle that shares no code with the
complex-step derivatives of the package."""

import numpy as np


def stencil_points(u, h):
    """The (..., 2 dim, dim) stack of points u + h e_c, then u - h e_c."""
    u = np.asarray(u, dtype=float)
    shift = h * np.eye(u.shape[-1])
    return np.concatenate([u[..., None, :] + shift, u[..., None, :] - shift], axis=-2)


def stencil_difference(values, h, axis):
    """D[..., c, :] = (f(u + h e_c) - f(u - h e_c)) / (2h) from ``values`` = f(stencil_points(u, h)).

    ``axis`` is the stencil axis of ``values`` (u.ndim - 1 for points u).
    """
    dim = values.shape[axis] // 2
    lead = (slice(None),) * axis
    return (values[lead + (slice(0, dim),)] - values[lead + (slice(dim, 2 * dim),)]) / (2.0 * h)
