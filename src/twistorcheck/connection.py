"""Levi-Civita connection 1-forms in an adapted frame, and their validation.

Convention: nabla_X e_B = sum_A omega_{BA}(X) e_A, i.e.
omega_{BA}(X) = g(nabla_X e_B, e_A).  With the wedge
(eta ^ zeta)(X, Y) = eta(X) zeta(Y) - eta(Y) zeta(X) this makes the coframe
satisfy d theta_A = sum_B theta_B ^ omega_{BA}, which is checked numerically
by ``structure_equation_residual``; the check fails loudly if the sign
convention drifts.  Curvature is read off the second structure equation as
R = omega ^ omega - d omega, so the round unit sphere comes out with
R_{AB} = theta_A ^ theta_B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    COMPLEX_STEP,
    AdaptedFrame,
    ManifoldPatch,
    PointJet,
    _complex_points,
    _readonly,
    christoffel,
    complex_step_frames,
    j0_matrix,
    point_jet,
)


def coordinate_connection(g: np.ndarray, E: np.ndarray, dE: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """Coordinate slices w[..., a, A, B] = omega_{AB}(d/du^a) of the connection forms.

    ``E`` holds frames built from the metric ``g``, ``dE[..., c, :, :]`` the
    derivatives d_c E of their frame field and ``Gamma[..., a, :, :]`` the
    Christoffel matrices Gamma_a (``christoffel``), all at the same points;
    nothing is evaluated here.
    """
    # (nabla_{d_a} e_B)^c = d_a E^c_B + Gamma^c_{ab} E^b_B: the matrices d_a E + Gamma_a E
    cov = dE + Gamma @ E[..., None, :, :]
    # w[a, B, A] = g(nabla_{d_a} e_B, e_A)
    return np.swapaxes(cov, -1, -2) @ (g @ E)[..., None, :, :]


@dataclass(frozen=True)
class FrameFieldJet:
    """The adapted frame field at a batch of points, differentiated once.

    ``jet`` is the point jet there (``frame`` and ``Gamma`` read it);
    ``shifted`` the complex E of the same field at u + i h e_c, batch
    (..., c, 2n, 2n) (``complex_step_frames``); ``dE`` and ``dT`` the
    complex-step derivatives Im(.) / h of E and of g E, indexed [..., c, :, :];
    ``w`` is ``coordinate_connection`` from them and the jet's Christoffel
    matrices ``Gamma[..., a, :, :]`` = Gamma_a, the matrices omega(d_a)
    indexed [..., a, A, B].
    The structure equation, curvature and the Chern identity all read this
    one object; build it with ``frame_field_jet``.
    """

    jet: PointJet
    shifted: np.ndarray
    dE: np.ndarray
    dT: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("shifted", "dE", "dT", "w"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def frame(self) -> AdaptedFrame:
        return self.jet.frame

    @property
    def Gamma(self) -> np.ndarray:
        return self.jet.Gamma


def frame_field_jet(patch: ManifoldPatch, point: np.ndarray) -> FrameFieldJet:
    """``point_jet(patch, point)``, real frames and all, and its frame field
    differentiated by the complex step, to rounding with no step to choose."""
    jet = point_jet(patch, point)
    g, E = complex_step_frames(patch, jet.frame)
    dE = E.imag / COMPLEX_STEP
    dT = (g @ E).imag / COMPLEX_STEP
    w = coordinate_connection(jet.frame.g, jet.frame.E, dE, jet.Gamma)
    return FrameFieldJet(jet=jet, shifted=E, dE=dE, dT=dT, w=w)


def connection_coefficients(w: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Connection table omega[..., C, A, B] = omega_{AB}(e_C) = sum_a E^a_C w[..., a, A, B].

    ``w`` holds coordinate slices (``coordinate_connection``) and ``E`` frames
    at the same points; a rotated ``E`` may carry a wider batch than ``w``,
    so the product sets the batch.  Each slice is skew in (A, B).
    """
    dim = E.shape[-1]
    omega = np.swapaxes(E, -1, -2) @ w.reshape(w.shape[:-3] + (dim, dim * dim))
    return omega.reshape(omega.shape[:-1] + (dim, dim))


def nabla_j_connection(jet: PointJet) -> np.ndarray:
    """The sigma part sigma[..., C, A, B] of the connection table, read off nabla J at the jet's points.

    Reads the jet's frame with its g and J, the J jet dJ[..., c, :, :] and
    the Christoffel matrices Gamma[..., c, :, :] = Gamma_c; the frame field
    is never differentiated.  The covariant derivative along each coordinate
    is the matrix
    nabla_c J = d_c J + Gamma_c J - J Gamma_c, indexed [..., c, :, :].
    In an adapted frame nabla_{e_C} J has frame matrix
    K_C = E^-1 (nabla_{e_C} J) E = [J0, omega(e_C)], and the bracket only
    sees the J0-anticommuting part sigma of omega, so sigma(e_C) = 1/2 K_C J0.
    It is formed as 1/4 (K_C J0 - J0 K_C), equal for an exact K_C and
    anticommuting with J0 exactly even though dJ carries rounding.

    The u(n) part of the returned table is therefore zero.  That loses
    nothing the certificate reads: a u(n) slice [[a, -b], [b, a]] cancels in
    alpha = omega_{i,j+n} + omega_{i+n,j} and beta = omega_{i+n,j+n} - omega_ij,
    commutes with J0 in P = [J0, omega], and cancels against J0 omega J0 =
    -omega in Q = omega + J0 omega J0.  The structure equation, curvature and
    the Chern identity need the full omega and take it from
    ``frame_field_jet`` instead.
    """
    frame = jet.frame
    E, Et = frame.E, np.swapaxes(frame.E, -1, -2)
    J = frame.J[..., None, :, :]
    nabla = jet.dJ + (jet.Gamma @ J - J @ jet.Gamma)
    # K[C] = E^-1 (nabla_{e_C} J) E with E^-1 = E^T g; a rotated E may
    # carry a wider batch than nabla, so the product sets the batch
    along = Et @ nabla.reshape(nabla.shape[:-3] + (E.shape[-1], E.shape[-1] ** 2))
    along = along.reshape(along.shape[:-1] + nabla.shape[-2:])
    K = (Et @ frame.g)[..., None, :, :] @ along @ E[..., None, :, :]
    J0 = j0_matrix(frame.n)
    # sigma = 1/4 (K J0 - J0 K), formed in place: a batch holds few temporaries
    sigma = K @ J0
    sigma -= J0 @ K
    sigma *= 0.25
    return sigma


def sigma_part(omega: np.ndarray) -> np.ndarray:
    """The J0-anticommuting part sigma(e_C) = 1/2 (w_C + J0 w_C J0) of each slice omega[..., C, :, :]."""
    J0 = j0_matrix(omega.shape[-1] // 2)
    return 0.5 * (omega + J0 @ omega @ J0)


def structure_equation_residual(jet: FrameFieldJet) -> np.ndarray:
    """Max residual of d theta_A = sum_B theta_B ^ omega_{BA} on coordinate pairs, per point.

    The connection side is the jet's slices ``w[..., b, :, :]``, which
    differentiate the complex frames' E; the coframe side is the jet's
    ``dT[..., a, :, :]``, the derivatives of their g E, so the two sides share
    frames but no derivative.  A jet whose ``w`` has the wrong sign must drive
    the residual far from zero on any patch with a nonzero connection, which
    is how tests pin the sign convention.
    """
    # theta_A(d_a) = g(d_a, e_A) = (g E)_{aA}
    T0 = jet.frame.g @ jet.frame.E
    # dtheta[a, b, A] = d_a theta_A(d_b) - d_b theta_A(d_a)
    dtheta = jet.dT - np.swapaxes(jet.dT, -3, -2)
    # X[b, a, A] = sum_B theta_B(d_a) omega_{BA}(d_b)
    X = T0[..., None, :, :] @ jet.w
    rhs = np.swapaxes(X, -3, -2) - X
    return np.abs(dtheta - rhs).max(axis=(-3, -2, -1))


def connection_derivative(patch: ManifoldPatch, jet: FrameFieldJet) -> np.ndarray:
    """d omega[..., c, a, A, B] = d_c w[..., a, A, B] - d_a w[..., c, A, B] at the jet's points.

    With w_a = P_a^T g E and P_a = d_a E + Gamma_a E, as in
    ``coordinate_connection``, the second derivatives d_c d_a E cancel:
    d omega(d_c, d_a) = ((d_c Gamma_a - d_a Gamma_c) E + Gamma_a d_c E - Gamma_c d_a E)^T g E
    + P_a^T d_c(g E) - P_c^T d_a(g E).  Every factor is a complex-step first
    derivative: ``dE``, ``dT`` and Im Gamma / h at the complex points (one
    metric-jet call, which the patch must have), indexed
    dGamma[..., c, a, :, :] = d_c Gamma_a; no frame is built.
    """
    frame, dE = jet.frame, jet.dE
    dGamma = christoffel(patch, _complex_points(frame.point), jet.shifted).imag / COMPLEX_STEP
    P = dE + jet.Gamma @ frame.E[..., None, :, :]
    # d_c P_a less d_c d_a E, [c, a, :, B]: (d_c Gamma_a) E + Gamma_a d_c E
    Q = dGamma @ frame.E[..., None, None, :, :] + jet.Gamma[..., None, :, :, :] @ dE[..., :, None, :, :]
    # X[c, a, B, A] = d_c w_a less (d_c d_a E)^T g E, which is symmetric in (c, a)
    X = np.swapaxes(Q, -1, -2) @ (frame.g @ frame.E)[..., None, None, :, :]
    X += np.swapaxes(P, -1, -2)[..., None, :, :, :] @ jet.dT[..., :, None, :, :]
    return X - np.swapaxes(X, -4, -3)


def curvature_forms(jet: FrameFieldJet, dw: np.ndarray) -> np.ndarray:
    """Curvature table R[..., A, B, C, D] = R_{AB}(e_C, e_D) from R = omega ^ omega - d omega.

    ``dw`` is ``connection_derivative(patch, jet)``.
    """
    # Both terms indexed [a, b, A, B]; w[a] is the matrix omega(d_a).
    w = jet.w
    products = w[..., :, None, :, :] @ w[..., None, :, :, :]
    wedge = products - np.swapaxes(products, -4, -3)
    pairs = np.moveaxis(wedge - dw, (-2, -1), (-4, -3))
    E = jet.frame.E[..., None, None, :, :]
    return np.swapaxes(E, -1, -2) @ pairs @ E


def round_sphere_curvature_residual(R: np.ndarray) -> np.ndarray:
    """Distance of a curvature table from R_{AB}(e_C, e_D) = theta_A ^ theta_B, per point."""
    eye = np.eye(R.shape[-1])
    expected = np.einsum("AC,BD->ABCD", eye, eye) - np.einsum("AD,BC->ABCD", eye, eye)
    return np.abs(R - expected).max(axis=(-4, -3, -2, -1))
