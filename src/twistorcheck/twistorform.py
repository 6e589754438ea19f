"""The pulled-back twistor 2-form, its non-degeneracy margin, and the bound chain.

Starting from the connection table omega[..., C, A, B] = omega_AB(e_C) of an
adapted frame, one skew matrix per frame vector, this module builds the
coefficient tensors

    alpha_ij = omega_{i,j+n} + omega_{i+n,j}      beta_ij = omega_{i+n,j+n} - omega_{ij}
    C_ijk = alpha_jk(e_{i+n}) + beta_jk(e_i)      C'_ijk = alpha_jk(e_i) - beta_jk(e_{i+n})
    d_ijk = C_ijk - C_jik                         d'_ijk = C'_ijk - C'_jik

with sum A^2 = sum_ijk (C_ijk^2 + C'_ijk^2), and the 2-form

    phi = 1/2 sum_ij alpha_ij ^ beta_ij + sum_i theta_i ^ theta_{i+n}

by two formulas: the coefficient expansion above and the trace pairing
phi(X, Y) = -1/4 tr((J0 w(X) - w(X) J0)(w(Y) + J0 w(Y) J0)) - theta(X) J0 . theta(Y),
which must agree to machine precision; ``phi_formula_gap`` compares them.
``sigma_report`` reads only the sigma part of the table and certifies the
inequality chain

    margin >= 1 - 1/4 sum A^2 >= 1 - c |N|^2 ,   c = 5/64 (n >= 3), 1/16 (n = 2),

together with: |N|^2 below the critical constant implies phi non-degenerate,
a determinant verdict (``nondegenerate``) that no Pfaffian sign enters.
``theorem_report`` is that certificate at the points of a jet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import WrongPatch
from .geometry import ManifoldPatch, PointJet, j0_matrix
from .connection import FrameFieldJet, connection_coefficients, nabla_j_connection
from .nijenhuis import nijenhuis_frame, nijenhuis_norm, nijenhuis_tensor, route_gap

# Critical squared-norm thresholds of the non-degeneracy statement.
C0_HIGH = 64.0 / 5.0  # n >= 3
C0_N2 = 16.0  # n = 2

# The slack every link (a)-(c) of the chain allows, wherever a report is made:
# a fixed contract, which no caller or flag overrides.
CHAIN_TOL = 1e-8
NONDEGENERACY_THRESHOLD = 1e-12
# Frame entries of phi below this are indistinguishable from the rounding
# noise of an identically vanishing form (the nearly Kahler
# six-sphere realizes phi == 0), so such forms classify as degenerate.
ZERO_FORM_FLOOR = 1e-8


def critical_constant(n: int) -> float:
    """Threshold c0 below which |N|^2 forces phi to be non-degenerate."""
    if n < 2:
        raise ValueError("the non-degeneracy statement needs n >= 2")
    return C0_N2 if n == 2 else C0_HIGH


def alpha_beta(omega: np.ndarray) -> tuple:
    """(alpha, beta) with alpha[..., A, i, j] = alpha_ij(e_A), read off a table omega[..., C, A, B]."""
    n = omega.shape[-1] // 2
    alpha = omega[..., :n, n:] + omega[..., n:, :n]
    beta = omega[..., n:, n:] - omega[..., :n, :n]
    return alpha, beta


def structure_coefficients(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """(C, C', d, d'): the structure coefficients of tables alpha[..., A, i, j], indexed [..., i, j, k].

    C_ijk = alpha_jk(e_{i+n}) + beta_jk(e_i) and C'_ijk = alpha_jk(e_i) - beta_jk(e_{i+n}).
    """
    n = alpha.shape[-1]
    C = alpha[..., n:, :, :] + beta[..., :n, :, :]
    Cp = alpha[..., :n, :, :] - beta[..., n:, :, :]
    d = C - np.swapaxes(C, -3, -2)
    dp = Cp - np.swapaxes(Cp, -3, -2)
    return C, Cp, d, dp


def phi_matrix(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Twistor form F[..., A, B] = phi(e_A, e_B) from tables alpha[..., A, i, j] and beta.

    F_{AB} = 1/2 sum_ij (alpha_ij^A beta_ij^B - alpha_ij^B beta_ij^A) - (J0)_{AB},
    the last term being theta_i ^ theta_{i+n} written as a matrix.  The double
    sum runs over all ordered pairs (i, j), which together with the 1/2 factor
    reproduces phi(e_i, e_{i+n}) = 1 on a flat patch.
    """
    n = alpha.shape[-1]
    rows = alpha.shape[:-2] + (n * n,)
    S = alpha.reshape(rows) @ np.swapaxes(beta.reshape(rows), -1, -2)
    return 0.5 * (S - np.swapaxes(S, -1, -2)) - j0_matrix(n)


def phi_via_bundle_formula(omega: np.ndarray) -> np.ndarray:
    """Twistor form F[..., A, B] from the trace pairing on so(2n) plus the canonical-form term.

    Evaluates, for X = e_A and Y = e_B with w_C = omega[..., C, :, :] the skew
    matrix omega(e_C) and theta(e_A) the A-th standard basis vector,

        F_{AB} = 1/4 (-tr(P_A Q_B)) - (e_A J0) . e_B ,
        P_A = J0 w_A - w_A J0 ,   Q_B = w_B + J0 w_B J0 .

    Mathematically identical to ``phi_matrix``; computed through disjoint
    index paths so the pair acts as a bookkeeping oracle.
    """
    dim = omega.shape[-1]
    J0 = j0_matrix(dim // 2)
    P = J0 @ omega - omega @ J0
    Q = omega + J0 @ omega @ J0
    # tr(P_A Q_B) = sum_xy P_A[x, y] Q_B[y, x]
    rows = omega.shape[:-2] + (dim * dim,)
    trace = P.reshape(rows) @ np.swapaxes(np.swapaxes(Q, -1, -2).reshape(rows), -1, -2)
    return -0.25 * trace - J0


def phi_formula_gap(sigma: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The two phi formulas' oracle: max |F - phi_via_bundle_formula| of each table
    sigma[..., C, A, B] and its ``phi_matrix`` F (a report's), formed only where read."""
    return np.abs(F - phi_via_bundle_formula(sigma)).max(axis=(-2, -1))


def margin(F: np.ndarray) -> np.ndarray:
    """Minimum of phi(X, JX) over frame-unit X.

    In frame components J acts as J0 and phi(X, JX) = x^T F J0 x, so the
    minimum over the unit sphere is the smallest eigenvalue of the symmetric
    part of F J0.
    """
    M = F @ j0_matrix(F.shape[-1] // 2)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    return np.linalg.eigvalsh(M).min(axis=-1)


def nondegenerate(F: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """The link-(d) verdict: is each skew frame matrix (..., 2n, 2n) non-degenerate?

    The determinant is compared against NONDEGENERACY_THRESHOLD * scale^{2n}
    with scale = max |F_{AB}|, separating rounding noise from a genuine
    kernel; a matrix whose scale itself sits below ZERO_FORM_FLOOR is a
    vanishing form seen through rounding noise and classifies as
    degenerate.  ``det`` is ``np.linalg.det`` of the matrices, computed here
    unless the caller already holds it.
    """
    scale = np.abs(F).max(axis=(-2, -1))
    if det is None:
        det = np.linalg.det(F)
    return (scale > ZERO_FORM_FLOOR) & (np.abs(det) > NONDEGENERACY_THRESHOLD * scale ** F.shape[-1])


def pfaffian_sign(F: np.ndarray, nondeg: np.ndarray) -> np.ndarray:
    """Pfaffian sign of each skew frame matrix (..., 2n, 2n) where ``nondeg`` holds, else 0.

    The sign is taken in the interleaved basis (e_1, J e_1, e_2, J e_2, ...),
    where the flat form -J0 has sign +1.  There an eigenvector a + ib of the
    Hermitian iF for a positive eigenvalue l gives F a = l b and F b = -l a:
    the n positive ones make the columns (b_1, a_1, b_2, a_2, ...) of Q
    orthogonal and Q^T F Q block diagonal with positive Pfaffian, so
    Pf(Q^T F Q) = det Q Pf F makes the sign that of det Q.  The selected
    matrices share one ``eigh`` and one ``slogdet``, and none runs if none is.
    """
    sign = np.zeros(np.shape(nondeg), dtype=int)
    if np.any(nondeg):
        n = F.shape[-1] // 2
        interleave = np.arange(2 * n).reshape(2, n).T.ravel()
        G = F[nondeg][..., interleave, :][..., interleave]
        V = np.linalg.eigh(1j * G)[1][..., n:]
        Q = np.empty(G.shape)
        Q[..., 0::2] = V.imag
        Q[..., 1::2] = V.real
        sign[nondeg] = np.linalg.slogdet(Q)[0]
    return sign[()]


@dataclass(frozen=True)
class ChainChecks:
    """Outcome of the four inequalities certified at each point (one boolean per point).

    a: margin >= 1 - 1/4 sum A^2
    b: sum C^2 <= 5/4 sum d^2 and primed (n >= 3), or the n = 2 equalities
       sum C^2 = sum d^2 = 2 (d_121^2 + d_212^2) and primed
    c: 1 - 1/4 sum A^2 >= 1 - (5/64)|N|^2 (n >= 3) resp. 1 - |N|^2/16 (n = 2)
    d: |N|^2 < c0 implies the form is non-degenerate
    """

    a: bool
    b: bool
    c: bool
    d: bool

    @property
    def all_ok(self) -> bool:
        return self.a & self.b & self.c & self.d

    def to_dict(self) -> dict:
        """The four booleans of a single point."""
        return {name: bool(getattr(self, name)) for name in "abcd"}


@dataclass(frozen=True)
class TheoremReport:
    """Every quantity of the non-degeneracy certificate, one value per point.

    For a single point the fields are scalars; for a batch of points of
    shape S they are arrays of shape S (``sigma`` and ``N`` of shape
    S + (2n,) * 3, the form ``F`` = phi(e_A, e_B) of shape S + (2n, 2n)).
    ``sigma`` holds the table sigma[..., C, A, B] = sigma_AB(e_C) it was
    computed from, ``N`` the frame components N[..., C, A, B] of the Nijenhuis
    tensor by the connection route, and ``n_route_mismatch`` the relative gap
    to the coordinate route's, None when the report was computed from sigma alone.
    """

    normN2: float
    margin: float
    sumA2: float
    bound_quarterA: float
    bound_paper: float
    chain_ok: ChainChecks
    nondegenerate: bool
    det_F: float
    sigma: np.ndarray
    N: np.ndarray
    F: np.ndarray
    n_route_mismatch: float | None = None


def _total(a: np.ndarray) -> np.ndarray:
    """Sum of the squares of a per-point tensor [..., i, j, k]."""
    return (a**2).sum(axis=(-3, -2, -1))


def sigma_report(sigma: np.ndarray) -> TheoremReport:
    """Certify the bound chain for sigma tables sigma[..., C, A, B] = sigma_AB(e_C).

    Every quantity of the certificate is a function of sigma alone: alpha
    and beta, the structure coefficients, N by the connection route, phi by
    the coefficient expansion, the margin, the determinant and the non-degeneracy verdict.
    Every quantity is computed for the whole batch at once, and each table's
    values are those of the table computed alone.  The report carries
    per-inequality booleans so sweeps can count violations; a violation on
    valid input is a bug detector, never an expected outcome.
    """
    n = sigma.shape[-1] // 2
    alpha, beta = alpha_beta(sigma)
    C, Cp, d, dp = structure_coefficients(alpha, beta)
    N = nijenhuis_frame(d, dp)
    normN2 = nijenhuis_norm(N)

    F = phi_matrix(alpha, beta)
    mrg = margin(F)
    det_F = np.linalg.det(F)
    nondeg = nondegenerate(F, det=det_F)

    sum_c2 = _total(C)
    sum_cp2 = _total(Cp)
    sumA2 = sum_c2 + sum_cp2
    bound_quarterA = 1.0 - 0.25 * sumA2
    c0 = critical_constant(n)
    bound_paper = 1.0 - (1.0 / c0) * normN2

    sum_d2 = _total(d)
    sum_dp2 = _total(dp)
    ok_a = mrg >= bound_quarterA - CHAIN_TOL
    if n >= 3:
        ok_b = (sum_c2 <= 1.25 * sum_d2 + CHAIN_TOL) & (sum_cp2 <= 1.25 * sum_dp2 + CHAIN_TOL)
    else:
        two_diag = 2.0 * (d[..., 0, 1, 0] ** 2 + d[..., 1, 0, 1] ** 2)
        two_diag_p = 2.0 * (dp[..., 0, 1, 0] ** 2 + dp[..., 1, 0, 1] ** 2)
        ok_b = (
            (np.abs(sum_c2 - sum_d2) <= CHAIN_TOL)
            & (np.abs(sum_c2 - two_diag) <= CHAIN_TOL)
            & (np.abs(sum_cp2 - sum_dp2) <= CHAIN_TOL)
            & (np.abs(sum_cp2 - two_diag_p) <= CHAIN_TOL)
        )
    ok_c = bound_quarterA >= bound_paper - CHAIN_TOL
    ok_d = (normN2 >= c0) | nondeg
    return TheoremReport(
        normN2=normN2,
        margin=mrg,
        sumA2=sumA2,
        bound_quarterA=bound_quarterA,
        bound_paper=bound_paper,
        chain_ok=ChainChecks(a=ok_a, b=ok_b, c=ok_c, d=ok_d),
        nondegenerate=nondeg,
        det_F=det_F,
        sigma=sigma,
        N=N,
        F=F,
    )


def theorem_report(jet: PointJet) -> TheoremReport:
    """``sigma_report`` of the jet's sigma table, with the Nijenhuis route gap.

    The jet's dJ feeds both the sigma table (``nabla_j_connection``, kept as
    ``sigma`` in the report) and the coordinate Nijenhuis route, whose frame
    components' relative gap to the report's ``N`` is ``n_route_mismatch``
    (``route_gap``), one value per point for the caller to gate; nothing here
    evaluates a field.
    """
    rep = sigma_report(nabla_j_connection(jet))
    gap = route_gap(rep.N, nijenhuis_tensor(jet))
    return replace(rep, n_route_mismatch=gap)


def chern_identity_residual(patch: ManifoldPatch, jet: FrameFieldJet, dw: np.ndarray) -> np.ndarray:
    """Residual of sum_i d omega_{i,i+n} = -phi at the jet's points, on the unit round sphere patch.

    Only meaningful where the curvature terms R_{i,i+n} equal
    theta_i ^ theta_{i+n}, i.e. on a patch flagged ``unit_round_sphere``;
    any other patch raises WrongPatch.  ``dw`` is
    ``connection_derivative(patch, jet)``.
    """
    if "unit_round_sphere" not in patch.attributes:
        raise WrongPatch(
            f"patch {patch.label!r} lacks the unit_round_sphere attribute; "
            "the identity only holds at constant curvature one"
        )
    frame = jet.frame
    n = frame.n
    # sum_i d omega_{i,i+n}(d_a, d_b)
    diagonal = np.arange(n)
    dsum = dw[..., diagonal, n + diagonal].sum(axis=-1)
    F = phi_matrix(*alpha_beta(connection_coefficients(jet.w, frame.E)))
    T = frame.g @ frame.E  # theta_A(d_a) = T[a, A]
    phi_coord = T @ F @ np.swapaxes(T, -1, -2)
    return np.abs(dsum + phi_coord).max(axis=(-2, -1))
