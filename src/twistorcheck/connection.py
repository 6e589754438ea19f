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
    DEFAULT_FD_STEP,
    AdaptedFrame,
    ManifoldPatch,
    PointJet,
    central_difference,
    christoffel,
    evaluate_frame_field,
    j0_matrix,
    require_interior,
    stencil_difference,
    stencil_points,
)

# Nested differences amplify rounding as eps/h^2, so the outer step for
# derivatives of the connection field is larger than the first-order step.
DEFAULT_SECOND_ORDER_STEP = 1e-4


def _slices(table: np.ndarray) -> np.ndarray:
    """The matrices omega(X_C) of a table [..., A, B, C], indexed [..., C, A, B]."""
    return np.moveaxis(table, -1, -3)


def coordinate_connection(
    patch: ManifoldPatch, point: np.ndarray, g: np.ndarray, E: np.ndarray, dE: np.ndarray, step: float
) -> np.ndarray:
    """Coordinate slices w[..., A, B, a] = omega_{AB}(d/du^a) of the connection forms.

    ``E`` holds frames at ``point`` with the metric ``g`` they were built
    from, and ``dE[..., c, :, :]`` the derivatives d_c E of their frame field;
    only the metric derivatives (at ``step``) are evaluated here.
    """
    Gamma = christoffel(patch, point, g, step=step)
    dim = patch.dim
    # (nabla_{d_a} e_B)^c = d_a E^c_B + Gamma^c_{ab} E^b_B, indexed [a, c, B]
    GE = (Gamma.reshape(Gamma.shape[:-3] + (dim * dim, dim)) @ E).reshape(Gamma.shape)
    cov = dE + np.swapaxes(GE, -3, -2)
    # w[B, A, a] = g(nabla_{d_a} e_B, e_A)
    lowered = np.swapaxes(cov, -1, -2) @ (g @ E)[..., None, :, :]
    return np.moveaxis(lowered, -3, -1)


@dataclass(frozen=True)
class FrameFieldJet:
    """The adapted frame field through ``frame``, differentiated once at its points.

    ``stencil`` holds the frames of that field at ``stencil_points(point,
    step)``, one batched call, with the g and J they were built from; ``w``
    is ``coordinate_connection`` from them.  The structure equation, the
    d omega block, curvature and the Chern identity all read this one
    object; build it with ``frame_field_jet``.
    """

    frame: AdaptedFrame
    stencil: AdaptedFrame
    w: np.ndarray
    step: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


def frame_field_jet(
    patch: ManifoldPatch, frame: AdaptedFrame, step: float = DEFAULT_FD_STEP
) -> FrameFieldJet:
    """Differentiate the frame field through ``frame`` (same seed, pivots and rotation) at its points."""
    u = require_interior(patch, frame.point, margin=step)
    stencil = evaluate_frame_field(patch, frame, stencil_points(u, step))
    dE = stencil_difference(stencil.E, step, u.ndim - 1)
    w = coordinate_connection(patch, u, frame.g, frame.E, dE, step)
    return FrameFieldJet(frame=frame, stencil=stencil, w=w, step=step)


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
    # K[C] = E^-1 (nabla_{e_C} J) E with E^-1 = E^T g
    along = Et @ nabla.reshape(nabla.shape[:-3] + (E.shape[-1], -1))
    K = (Et @ frame.g)[..., None, :, :] @ along.reshape(nabla.shape) @ E[..., None, :, :]
    J0 = j0_matrix(frame.n)
    # sigma = 1/4 (K J0 - J0 K), formed in place: a batch holds few temporaries
    sigma = K @ J0
    sigma -= J0 @ K
    sigma *= 0.25
    return np.moveaxis(sigma, -3, -1)


def _nabla_j(J: np.ndarray, dJ: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """(nabla_c J)^a_b = d_c J^a_b + Gamma^a_{cd} J^d_b - Gamma^d_{cb} J^a_d, as [..., c, a, b]."""
    dim = J.shape[-1]
    # [a, c, b]: sum_d Gamma^a_{cd} J^d_b - J^a_d Gamma^d_{cb}
    bracket = (Gamma.reshape(Gamma.shape[:-3] + (dim * dim, dim)) @ J).reshape(Gamma.shape)
    bracket -= (J @ Gamma.reshape(Gamma.shape[:-3] + (dim, dim * dim))).reshape(Gamma.shape)
    return dJ + np.swapaxes(bracket, -3, -2)


def sigma_part(omega: np.ndarray) -> np.ndarray:
    """The J0-anticommuting part sigma(e_C) = 1/2 (w_C + J0 w_C J0) of each slice of a table."""
    J0 = j0_matrix(omega.shape[-1] // 2)
    slices = _slices(omega)
    return np.moveaxis(0.5 * (slices + J0 @ slices @ J0), -3, -1)


def structure_equation_residual(jet: FrameFieldJet) -> np.ndarray:
    """Max residual of d theta_A = sum_B theta_B ^ omega_{BA} on coordinate pairs, per point.

    The connection side is the jet's ``w``, which differentiates the stencil
    frames' E; the coframe side differentiates their g E itself, so the two
    sides share frames but no difference.  A jet whose ``w`` has the wrong
    sign must drive the residual far from zero on any patch with a nonzero
    connection, which is how tests pin the sign convention.
    """
    frame, stencil, w = jet.frame, jet.stencil, jet.w
    dim = frame.E.shape[-1]

    # theta_A(d_a) = g(d_a, e_A) = (g E)_{aA}
    T0 = frame.g @ frame.E
    dT = stencil_difference(stencil.g @ stencil.E, jet.step, frame.point.ndim - 1)
    # dtheta[A, a, b] = d_a theta_A(d_b) - d_b theta_A(d_a)
    dtheta = np.moveaxis(dT, -1, -3)
    dtheta = dtheta - np.swapaxes(dtheta, -1, -2)
    # X[A, a, b] = sum_B theta_B(d_a) omega_{BA}(d_b)
    X = (T0 @ w.reshape(w.shape[:-3] + (dim, dim * dim))).reshape(w.shape)
    X = np.swapaxes(X, -3, -2)
    rhs = X - np.swapaxes(X, -1, -2)
    return np.abs(dtheta - rhs).max(axis=(-3, -2, -1))


def connection_derivative(patch: ManifoldPatch, jet: FrameFieldJet) -> np.ndarray:
    """The d omega block dw[..., c, A, B, a] = d_c w[..., A, B, a] at the jet's points.

    The central difference of the connection field at the outer step
    ``DEFAULT_SECOND_ORDER_STEP``; at each of its 2 dim points the slices
    are differentiated at the jet's step, with those points and their
    stencils one batch of frames.  Curvature and the Chern identity both
    read d omega from this one block and w from the jet.
    """
    step, inner = DEFAULT_SECOND_ORDER_STEP, jet.step
    require_interior(patch, jet.frame.point, margin=step + 2.0 * inner)

    def slices(v):
        frames = evaluate_frame_field(patch, jet.frame, stencil_points(v, inner, centre=True))
        E0, dE = stencil_difference(frames.E, inner, v.ndim - 1, centre=True)
        return coordinate_connection(patch, v, frames.g[..., 0, :, :], E0, dE, inner)

    return central_difference(slices, jet.frame.point, step)


def curvature_forms(jet: FrameFieldJet, dw: np.ndarray) -> np.ndarray:
    """Curvature table R[..., A, B, C, D] = R_{AB}(e_C, e_D) from R = omega ^ omega - d omega.

    ``dw`` is ``connection_derivative(patch, jet)``.
    """
    # Both terms indexed [a, b, A, B]; slices[a] is the matrix omega(d_a).
    slices = _slices(jet.w)
    products = slices[..., :, None, :, :] @ slices[..., None, :, :, :]
    wedge = products - np.swapaxes(products, -4, -3)
    # domega[a, b, A, B] = d_a omega_{AB}(d_b) - d_b omega_{AB}(d_a)
    dslices = _slices(dw)
    domega = dslices - np.swapaxes(dslices, -4, -3)
    pairs = np.moveaxis(wedge - domega, (-2, -1), (-4, -3))
    E = jet.frame.E[..., None, None, :, :]
    return np.swapaxes(E, -1, -2) @ pairs @ E


def round_sphere_curvature_residual(R: np.ndarray) -> float:
    """Distance of a curvature table from R_{AB}(e_C, e_D) = theta_A ^ theta_B."""
    eye = np.eye(R.shape[-1])
    expected = np.einsum("AC,BD->ABCD", eye, eye) - np.einsum("AD,BC->ABCD", eye, eye)
    return float(np.abs(R - expected).max())


def first_bianchi_residual(R: np.ndarray) -> float:
    """Max over indices of the cyclic sum R_{AB}(e_C,e_D) + R_{AC}(e_D,e_B) + R_{AD}(e_B,e_C)."""
    cyc = R + np.moveaxis(R, -3, -1) + np.moveaxis(R, -1, -3)
    return float(np.abs(cyc).max())
