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
    adapt_frame,
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


@dataclass(frozen=True)
class ConnectionTable:
    """Frame components omega[..., A, B, C] = omega_{AB}(e_C), skew in (A, B)."""

    omega: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)

    @property
    def n(self) -> int:
        return self.omega.shape[-1] // 2

    def antisymmetry_residual(self) -> float:
        return float(np.abs(self.omega + np.swapaxes(self.omega, -3, -2)).max())


@dataclass(frozen=True)
class CurvatureTable:
    """Frame components R[..., A, B, C, D] = R_{AB}(e_C, e_D)."""

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        R.flags.writeable = False
        object.__setattr__(self, "R", R)

    def antisymmetry_residuals(self) -> tuple:
        r1 = float(np.abs(self.R + np.swapaxes(self.R, -4, -3)).max())
        r2 = float(np.abs(self.R + np.swapaxes(self.R, -2, -1)).max())
        return r1, r2


def _slices(table: np.ndarray) -> np.ndarray:
    """The matrices omega(X_C) of a table [..., A, B, C], indexed [..., C, A, B]."""
    return np.moveaxis(table, -1, -3)


def frame_stencil(
    patch: ManifoldPatch,
    frame: AdaptedFrame,
    step: float = DEFAULT_FD_STEP,
    point: np.ndarray | None = None,
) -> AdaptedFrame:
    """The adapted frame field through ``frame`` on the difference stencil of ``point``.

    ``point`` defaults to the frame's own base point and then the stencil is
    ``stencil_points(point, step)``; an explicit ``point``, which may carry
    extra batch axes after the frame's, gets its centre in front
    (``centre=True``), because the field's value there is not ``frame.E``.
    The frames come from one batched call and carry the g and J they were
    built from, so the connection and the coframe of the structure equation
    both read them.
    """
    u = require_interior(patch, frame.point if point is None else point, margin=step)
    return evaluate_frame_field(patch, frame, stencil_points(u, step, centre=point is not None))


def coordinate_connection(
    patch: ManifoldPatch,
    frame: AdaptedFrame,
    point: np.ndarray | None = None,
    step: float = DEFAULT_FD_STEP,
    stencil: AdaptedFrame | None = None,
) -> np.ndarray:
    """Coordinate slices w[..., A, B, a] = omega_{AB}(d/du^a) of the connection forms.

    Differentiates the adapted frame field determined by ``frame`` (same seed,
    same pivot sequence, same trailing rotation) at ``point``, defaulting to
    the frame's own base point, where the frame field's value is ``frame.E``.
    ``point`` may carry extra batch axes after the frame's; the frames at the
    points and at their stencils are then built in one batched call, and the
    metric at the points is the one those frames were built from.
    ``stencil`` is ``frame_stencil(patch, frame, step, point)``, built here
    unless the caller already holds it.
    """
    if stencil is None:
        stencil = frame_stencil(patch, frame, step, point)
    if point is None:
        u = frame.point
        g, E0 = frame.g, frame.E
        dE = stencil_difference(stencil.E, step, u.ndim - 1)
    else:
        u = np.asarray(point, dtype=float)
        E0, dE = stencil_difference(stencil.E, step, u.ndim - 1, centre=True)
        g = stencil.g[(slice(None),) * (u.ndim - 1) + (0,)]
    Gamma = christoffel(patch, u, g, step=step)
    dim = patch.dim
    # (nabla_{d_a} e_B)^c = d_a E^c_B + Gamma^c_{ab} E^b_B, indexed [a, c, B]
    GE = (Gamma.reshape(Gamma.shape[:-3] + (dim * dim, dim)) @ E0).reshape(Gamma.shape)
    cov = dE + np.swapaxes(GE, -3, -2)
    # w[B, A, a] = g(nabla_{d_a} e_B, e_A)
    lowered = np.swapaxes(cov, -1, -2) @ (g @ E0)[..., None, :, :]
    return np.moveaxis(lowered, -3, -1)


def connection_coefficients(
    patch: ManifoldPatch, frame: AdaptedFrame, step: float = DEFAULT_FD_STEP
) -> ConnectionTable:
    """Connection table omega_{AB}(e_C) for the given adapted frames."""
    w = coordinate_connection(patch, frame, step=step)
    return ConnectionTable(omega=w @ frame.E[..., None, :, :])


def nabla_j_connection(jet: PointJet) -> ConnectionTable:
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
    ``coordinate_connection`` instead.
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
    return ConnectionTable(omega=np.moveaxis(sigma, -3, -1))


def _nabla_j(J: np.ndarray, dJ: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """(nabla_c J)^a_b = d_c J^a_b + Gamma^a_{cd} J^d_b - Gamma^d_{cb} J^a_d, as [..., c, a, b]."""
    dim = J.shape[-1]
    # [a, c, b]: sum_d Gamma^a_{cd} J^d_b - J^a_d Gamma^d_{cb}
    bracket = (Gamma.reshape(Gamma.shape[:-3] + (dim * dim, dim)) @ J).reshape(Gamma.shape)
    bracket -= (J @ Gamma.reshape(Gamma.shape[:-3] + (dim, dim * dim))).reshape(Gamma.shape)
    return dJ + np.swapaxes(bracket, -3, -2)


def sigma_part(table: ConnectionTable) -> ConnectionTable:
    """The J0-anticommuting part sigma(e_C) = 1/2 (w_C + J0 w_C J0) of each slice."""
    J0 = j0_matrix(table.n)
    slices = _slices(table.omega)
    return ConnectionTable(omega=np.moveaxis(0.5 * (slices + J0 @ slices @ J0), -3, -1))


def structure_equation_residual(
    patch: ManifoldPatch,
    point: np.ndarray,
    step: float = DEFAULT_FD_STEP,
    frame: AdaptedFrame | None = None,
    omega_sign: float = 1.0,
    w: np.ndarray | None = None,
    stencil: AdaptedFrame | None = None,
) -> float:
    """Max residual of d theta_A = sum_B theta_B ^ omega_{BA} on coordinate pairs, per point.

    ``frame`` is the adapted frame at ``point`` (built here when omitted),
    ``stencil`` is ``frame_stencil(patch, frame, step)`` and ``w`` is
    ``coordinate_connection(patch, frame, step=step, stencil=stencil)``; each
    is computed here unless the caller already holds it.  The connection
    differentiates the stencil's E and the coframe side differentiates its
    g E, so the two sides share frames but no difference.  ``omega_sign``
    exists as a deliberate tripwire: passing -1 must drive the residual far
    from zero on any patch with a nonzero connection, which is how tests pin
    the sign convention.
    """
    u = require_interior(patch, point, margin=2.0 * step)
    if frame is None:
        frame = adapt_frame(patch, u)
    if stencil is None:
        stencil = frame_stencil(patch, frame, step)
    if w is None:
        w = coordinate_connection(patch, frame, step=step, stencil=stencil)
    w = omega_sign * w
    dim = patch.dim

    # theta_A(d_a) = g(d_a, e_A) = (g E)_{aA}
    T0 = frame.g @ frame.E
    dT = stencil_difference(stencil.g @ stencil.E, step, frame.point.ndim - 1)
    # dtheta[A, a, b] = d_a theta_A(d_b) - d_b theta_A(d_a)
    dtheta = np.moveaxis(dT, -1, -3)
    dtheta = dtheta - np.swapaxes(dtheta, -1, -2)
    # X[A, a, b] = sum_B theta_B(d_a) omega_{BA}(d_b)
    X = (T0 @ w.reshape(w.shape[:-3] + (dim, dim * dim))).reshape(w.shape)
    X = np.swapaxes(X, -3, -2)
    rhs = X - np.swapaxes(X, -1, -2)
    return np.abs(dtheta - rhs).max(axis=(-3, -2, -1))


def connection_derivative(
    patch: ManifoldPatch,
    frame: AdaptedFrame,
    w0: np.ndarray,
    step: float = DEFAULT_SECOND_ORDER_STEP,
    inner_step: float = DEFAULT_FD_STEP,
) -> tuple:
    """The d omega block (w0, dw) of an adapted frame at its base point.

    w0[..., A, B, a] = omega_{AB}(d_a) is ``coordinate_connection(patch,
    frame, step=inner_step)``, which the caller already holds;
    dw[..., c, A, B, a] = d_c w0 is the central difference of the connection
    field at the outer ``step``, whose 2 dim points and their inner stencils
    are one batch.  Curvature and the Chern identity both read d omega from
    this one block.
    """
    dw = central_difference(
        lambda v: coordinate_connection(patch, frame, v, step=inner_step), frame.point, step
    )
    return w0, dw


def curvature_forms(
    patch: ManifoldPatch,
    point: np.ndarray,
    step: float = DEFAULT_SECOND_ORDER_STEP,
    inner_step: float = DEFAULT_FD_STEP,
    frame: AdaptedFrame | None = None,
    block: tuple | None = None,
) -> CurvatureTable:
    """Curvature table R_{AB}(e_C, e_D) from R = omega ^ omega - d omega.

    ``block`` is ``connection_derivative(patch, frame, w0, step, inner_step)``,
    computed here unless the caller already holds it.
    """
    u = require_interior(patch, point, margin=step + 2.0 * inner_step)
    if frame is None:
        frame = adapt_frame(patch, u)
    if block is None:
        w0 = coordinate_connection(patch, frame, step=inner_step)
        block = connection_derivative(patch, frame, w0, step, inner_step)
    w0, dw = block
    # Both terms indexed [a, b, A, B]; slices[a] is the matrix omega(d_a).
    slices = _slices(w0)
    products = slices[..., :, None, :, :] @ slices[..., None, :, :, :]
    wedge = products - np.swapaxes(products, -4, -3)
    # domega[a, b, A, B] = d_a omega_{AB}(d_b) - d_b omega_{AB}(d_a)
    dslices = _slices(dw)
    domega = dslices - np.swapaxes(dslices, -4, -3)
    pairs = np.moveaxis(wedge - domega, (-2, -1), (-4, -3))
    E = frame.E[..., None, None, :, :]
    return CurvatureTable(R=np.swapaxes(E, -1, -2) @ pairs @ E)


def round_sphere_curvature_residual(table: CurvatureTable) -> float:
    """Distance of a curvature table from R_{AB}(e_C, e_D) = theta_A ^ theta_B."""
    eye = np.eye(table.R.shape[-1])
    expected = np.einsum("AC,BD->ABCD", eye, eye) - np.einsum("AD,BC->ABCD", eye, eye)
    return float(np.abs(table.R - expected).max())


def first_bianchi_residual(table: CurvatureTable) -> float:
    """Max over indices of the cyclic sum R_{AB}(e_C,e_D) + R_{AC}(e_D,e_B) + R_{AD}(e_B,e_C)."""
    R = table.R
    cyc = R + np.moveaxis(R, -3, -1) + np.moveaxis(R, -1, -3)
    return float(np.abs(cyc).max())
