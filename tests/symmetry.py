"""The J-symmetries of the Nijenhuis tensor, as residuals: an oracle for the
coordinate route that shares no code with the package."""

import numpy as np


def symmetry_residuals(N, J):
    """Max-norm residuals of N(Y,X) = -N(X,Y) and N(JX,Y) = -J N(X,Y) = N(X,JY), per point.

    ``N[..., c, a, b]`` are coordinate components and ``J[..., a, b]`` the
    field at the same points.  For a genuine almost complex structure all
    three residuals sit at the rounding floor; a corrupted J (J^2 != -Id)
    drives the J-slot ones up, which makes this the designated negative
    control.
    """
    dim = J.shape[-1]
    axes = (-3, -2, -1)
    # jn[c, a, b] = J^c_e N^e_{ab}
    jn = (J @ N.reshape(N.shape[:-3] + (dim, dim * dim))).reshape(N.shape)
    # first slot: J^d_a N^c_{db}; second slot: N^c_{ad} J^d_b
    return {
        "antisymmetry": np.abs(N + np.swapaxes(N, -1, -2)).max(axis=axes),
        "j_first_slot": np.abs(np.swapaxes(J, -1, -2)[..., None, :, :] @ N + jn).max(axis=axes),
        "j_second_slot": np.abs(N @ J[..., None, :, :] + jn).max(axis=axes),
    }
