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

from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    DEFAULT_FD_STEP,
    AdaptedFrame,
    ManifoldPatch,
    PointJet,
    _jet_of_frame,
    _readonly,
    adapt_frame,
    christoffel,
    j0_matrix,
    require_interior,
    require_pivots,
    stencil_difference,
    stencil_points,
)


def _slices(table: np.ndarray) -> np.ndarray:
    """The matrices omega(X_C) of a table [..., A, B, C], indexed [..., C, A, B]."""
    return np.moveaxis(table, -1, -3)


def _gamma_times(Gamma: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(Gamma_a X)[..., a, c, B] = sum_b Gamma^c_{ab} X^b_B for Gamma[..., c, a, b] and square X."""
    dim = X.shape[-1]
    GX = Gamma.reshape(Gamma.shape[:-3] + (dim * dim, dim)) @ X
    return np.swapaxes(GX.reshape(GX.shape[:-2] + (dim, dim, dim)), -3, -2)


def coordinate_connection(g: np.ndarray, E: np.ndarray, dE: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """Coordinate slices w[..., A, B, a] = omega_{AB}(d/du^a) of the connection forms.

    ``E`` holds frames built from the metric ``g``, ``dE[..., c, :, :]`` the
    derivatives d_c E of their frame field and ``Gamma`` the Christoffel
    symbols, all at the same points; nothing is evaluated here.
    """
    # (nabla_{d_a} e_B)^c = d_a E^c_B + Gamma^c_{ab} E^b_B, indexed [a, c, B]
    cov = dE + _gamma_times(Gamma, E)
    # w[B, A, a] = g(nabla_{d_a} e_B, e_A)
    lowered = np.swapaxes(cov, -1, -2) @ (g @ E)[..., None, :, :]
    return np.moveaxis(lowered, -3, -1)


@dataclass(frozen=True)
class FrameFieldJet:
    """The adapted frame field at a batch of points, differentiated once.

    ``jet`` is the point jet there at ``step`` (``frame`` and ``Gamma`` read
    it); ``stencil`` holds the frames of the same field at
    ``stencil_points(point, step)``, with the g and J they were built from;
    ``dE`` and ``dT`` are the first differences of their E and of the
    coframe components g E, formed once; ``w`` is ``coordinate_connection``
    from them and the jet's Christoffel symbols.  The structure equation,
    curvature and the Chern identity all read this one object; build it
    with ``frame_field_jet``.
    """

    jet: PointJet
    step: float
    stencil: AdaptedFrame
    dE: np.ndarray
    dT: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("dE", "dT", "w"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def frame(self) -> AdaptedFrame:
        return self.jet.frame

    @property
    def Gamma(self) -> np.ndarray:
        return self.jet.Gamma


def _frames_at(frames: AdaptedFrame, at: tuple) -> AdaptedFrame:
    """The frames at the batch index ``at``."""
    return replace(frames, **{name: getattr(frames, name)[at] for name in ("point", "E", "g", "J", "pivots")})


def frame_field_jet(patch: ManifoldPatch, point: np.ndarray, step: float = DEFAULT_FD_STEP) -> FrameFieldJet:
    """Build the point jet at ``point`` (..., 2n) and differentiate its frame field at ``step``.

    Each point and its ``stencil_points`` form one (..., 1 + 2 dim, dim)
    stack, and one ``adapt_frame`` call builds every frame; the stencil
    frames must keep their point's pivot sequence.  A point's values do not
    depend on its batch, so ``.jet`` is bitwise ``point_jet(patch, point,
    step)``.
    """
    u = require_interior(patch, point, margin=2.0 * step)
    frames = adapt_frame(patch, np.concatenate([u[..., None, :], stencil_points(u, step)], axis=-2))
    lead = (slice(None),) * (u.ndim - 1)
    frame, stencil = _frames_at(frames, lead + (0,)), _frames_at(frames, lead + (slice(1, None),))
    jet = _jet_of_frame(patch, frame, step)
    require_pivots(stencil, frame.pivots[..., None, :])
    dE = stencil_difference(stencil.E, step, u.ndim - 1)
    dT = stencil_difference(stencil.g @ stencil.E, step, u.ndim - 1)
    w = coordinate_connection(frame.g, frame.E, dE, jet.Gamma)
    return FrameFieldJet(jet=jet, step=step, stencil=stencil, dE=dE, dT=dT, w=w)


def connection_coefficients(jet: FrameFieldJet) -> np.ndarray:
    """Connection table omega[..., A, B, C] = omega_{AB}(e_C) of the jet's frames, skew in (A, B)."""
    return jet.w @ jet.frame.E[..., None, :, :]


def nabla_j_connection(jet: PointJet) -> np.ndarray:
    """The sigma part of the connection table, read off nabla J at the jet's points.

    Reads the jet's frame with its g and J, the J jet and the Christoffel
    symbols; the frame field is never differentiated.  In an adapted frame
    nabla_{e_C} J has frame matrix K_C = E^-1 (nabla_{e_C} J) E =
    [J0, omega(e_C)], and the bracket only sees the J0-anticommuting part
    sigma of omega, so
    sigma(e_C) = 1/2 K_C J0 with nabla_c J = d_c J + Gamma_c J - J Gamma_c.
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
    nabla = _nabla_j(frame.J, jet.dJ, jet.Gamma)
    # K[C] = E^-1 (nabla_{e_C} J) E with E^-1 = E^T g; a rotated E may
    # carry a wider batch than nabla, so the product sets the batch
    along = Et @ nabla.reshape(nabla.shape[:-3] + (E.shape[-1], -1))
    along = along.reshape(along.shape[:-1] + nabla.shape[-2:])
    K = (Et @ frame.g)[..., None, :, :] @ along @ E[..., None, :, :]
    J0 = j0_matrix(frame.n)
    # sigma = 1/4 (K J0 - J0 K), formed in place: a batch holds few temporaries
    sigma = K @ J0
    sigma -= J0 @ K
    sigma *= 0.25
    return np.moveaxis(sigma, -3, -1)


def _nabla_j(J: np.ndarray, dJ: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """(nabla_c J)^a_b = d_c J^a_b + Gamma^a_{cd} J^d_b - Gamma^d_{cb} J^a_d, as [..., c, a, b]."""
    dim = J.shape[-1]
    # [a, c, b]: sum_d J^a_d Gamma^d_{cb}
    JGamma = (J @ Gamma.reshape(Gamma.shape[:-3] + (dim, dim * dim))).reshape(Gamma.shape)
    return dJ + (_gamma_times(Gamma, J) - np.swapaxes(JGamma, -3, -2))


def sigma_part(omega: np.ndarray) -> np.ndarray:
    """The J0-anticommuting part sigma(e_C) = 1/2 (w_C + J0 w_C J0) of each slice of a table."""
    J0 = j0_matrix(omega.shape[-1] // 2)
    slices = _slices(omega)
    return np.moveaxis(0.5 * (slices + J0 @ slices @ J0), -3, -1)


def structure_equation_residual(jet: FrameFieldJet) -> np.ndarray:
    """Max residual of d theta_A = sum_B theta_B ^ omega_{BA} on coordinate pairs, per point.

    The connection side is the jet's ``w``, which differentiates the stencil
    frames' E; the coframe side is the jet's ``dT``, the difference of their
    g E, so the two sides share frames but no difference.  A jet whose ``w``
    has the wrong sign must drive the residual far from zero on any patch
    with a nonzero connection, which is how tests pin the sign convention.
    """
    frame, w = jet.frame, jet.w
    dim = frame.E.shape[-1]

    # theta_A(d_a) = g(d_a, e_A) = (g E)_{aA}
    T0 = frame.g @ frame.E
    # dtheta[A, a, b] = d_a theta_A(d_b) - d_b theta_A(d_a)
    dtheta = np.moveaxis(jet.dT, -1, -3)
    dtheta = dtheta - np.swapaxes(dtheta, -1, -2)
    # X[A, a, b] = sum_B theta_B(d_a) omega_{BA}(d_b)
    X = (T0 @ w.reshape(w.shape[:-3] + (dim, dim * dim))).reshape(w.shape)
    X = np.swapaxes(X, -3, -2)
    rhs = X - np.swapaxes(X, -1, -2)
    return np.abs(dtheta - rhs).max(axis=(-3, -2, -1))


def connection_derivative(patch: ManifoldPatch, jet: FrameFieldJet) -> np.ndarray:
    """d omega[..., c, a, A, B] = d_c w[..., A, B, a] - d_a w[..., A, B, c] at the jet's points.

    With w_a = P_a^T g E and P_a = d_a E + Gamma_a E, as in
    ``coordinate_connection``, the second derivatives d_c d_a E cancel:
    d omega(d_c, d_a) = ((d_c Gamma_a - d_a Gamma_c) E + Gamma_a d_c E - Gamma_c d_a E)^T g E
    + P_a^T d_c(g E) - P_c^T d_a(g E).  Every factor is a first difference
    at the jet's step: the jet's ``dE`` and ``dT``, and the difference of the
    Christoffel symbols of the stencil frames (one metric-jet call); no
    frame is built.
    """
    frame, stencil, step, dE = jet.frame, jet.stencil, jet.step, jet.dE
    dGamma = stencil_difference(christoffel(patch, stencil, step=step), step, frame.point.ndim - 1)
    P = dE + _gamma_times(jet.Gamma, frame.E)
    # d_c P_a less d_c d_a E, [c, a, :, B]: (d_c Gamma_a) E + Gamma_a d_c E
    Q = _gamma_times(dGamma, frame.E[..., None, :, :]) + _gamma_times(jet.Gamma[..., None, :, :, :], dE)
    # X[c, a, B, A] = d_c w_a less (d_c d_a E)^T g E, which is symmetric in (c, a)
    X = np.swapaxes(Q, -1, -2) @ (frame.g @ frame.E)[..., None, None, :, :]
    X += np.swapaxes(P, -1, -2)[..., None, :, :, :] @ jet.dT[..., :, None, :, :]
    return X - np.swapaxes(X, -4, -3)


def curvature_forms(jet: FrameFieldJet, dw: np.ndarray) -> np.ndarray:
    """Curvature table R[..., A, B, C, D] = R_{AB}(e_C, e_D) from R = omega ^ omega - d omega.

    ``dw`` is ``connection_derivative(patch, jet)``.
    """
    # Both terms indexed [a, b, A, B]; slices[a] is the matrix omega(d_a).
    slices = _slices(jet.w)
    products = slices[..., :, None, :, :] @ slices[..., None, :, :, :]
    wedge = products - np.swapaxes(products, -4, -3)
    pairs = np.moveaxis(wedge - dw, (-2, -1), (-4, -3))
    E = jet.frame.E[..., None, None, :, :]
    return np.swapaxes(E, -1, -2) @ pairs @ E


def round_sphere_curvature_residual(R: np.ndarray) -> np.ndarray:
    """Distance of a curvature table from R_{AB}(e_C, e_D) = theta_A ^ theta_B, per point."""
    eye = np.eye(R.shape[-1])
    expected = np.einsum("AC,BD->ABCD", eye, eye) - np.einsum("AD,BC->ABCD", eye, eye)
    return np.abs(R - expected).max(axis=(-4, -3, -2, -1))
