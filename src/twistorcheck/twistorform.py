"""The pulled-back twistor 2-form, its non-degeneracy margin, and the bound chain.

Starting from the connection table of an adapted frame this module builds the
coefficient tensors

    alpha_ij = omega_{i,j+n} + omega_{i+n,j}      beta_ij = omega_{i+n,j+n} - omega_{ij}
    C_ijk = alpha_jk(e_{i+n}) + beta_jk(e_i)      C'_ijk = alpha_jk(e_i) - beta_jk(e_{i+n})
    d_ijk = C_ijk - C_jik                         d'_ijk = C'_ijk - C'_jik
    A_ij  = sqrt(sum_k (C_kij^2 + C'_kij^2))

and the 2-form

    phi = 1/2 sum_ij alpha_ij ^ beta_ij + sum_i theta_i ^ theta_{i+n}

by two formulas: the coefficient expansion above and the trace pairing
phi(X, Y) = -1/4 tr((J0 w(X) - w(X) J0)(w(Y) + J0 w(Y) J0)) - theta(X) J0 . theta(Y),
which must agree to machine precision.  ``theorem_report`` runs the whole
pipeline at a point and certifies the inequality chain

    margin >= 1 - 1/4 sum A^2 >= 1 - c |N|^2 ,   c = 5/64 (n >= 3), 1/16 (n = 2),

together with: |N|^2 below the critical constant implies phi non-degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainViolation, WrongPatch
from .geometry import ManifoldPatch, PointJet, first_index, j0_matrix
from .connection import FrameFieldJet, connection_coefficients, nabla_j_connection
from .nijenhuis import nijenhuis_norm, nijenhuis_tensor

# Critical squared-norm thresholds of the non-degeneracy statement.
C0_HIGH = 64.0 / 5.0  # n >= 3
C0_N2 = 16.0  # n = 2

CHAIN_TOL = 1e-8
NONDEGENERACY_THRESHOLD = 1e-12
# Frame entries of phi below this are indistinguishable from the finite
# difference noise of an identically vanishing form (the nearly Kahler
# six-sphere realizes phi == 0), so such forms classify as degenerate.
ZERO_FORM_FLOOR = 1e-8


def critical_constant(n: int) -> float:
    """Threshold c0 below which |N|^2 forces phi to be non-degenerate."""
    if n < 2:
        raise ValueError("the non-degeneracy statement needs n >= 2")
    return C0_N2 if n == 2 else C0_HIGH


@dataclass(frozen=True)
class StructureCoefficients:
    """The C, C', d, d' tensors and the row norms A_ij."""

    C: np.ndarray
    Cp: np.ndarray
    d: np.ndarray
    dp: np.ndarray
    Arow: np.ndarray

    def __post_init__(self):
        for name in ("C", "Cp", "d", "dp", "Arow"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def alpha_beta(omega: np.ndarray) -> tuple:
    """(alpha, beta) with alpha[..., i, j, A] = alpha_ij(e_A), read off a connection table."""
    n = omega.shape[-1] // 2
    alpha = omega[..., :n, n:, :] + omega[..., n:, :n, :]
    beta = omega[..., n:, n:, :] - omega[..., :n, :n, :]
    return alpha, beta


def structure_coefficients(alpha: np.ndarray, beta: np.ndarray) -> StructureCoefficients:
    """Assemble C, C', d, d' and the row norms A_ij from the alpha/beta tables."""
    n = alpha.shape[-3]
    # [j, k, i] -> [i, j, k]
    alpha = np.moveaxis(alpha, -1, -3)
    beta = np.moveaxis(beta, -1, -3)
    C = alpha[..., n:, :, :] + beta[..., :n, :, :]
    Cp = alpha[..., :n, :, :] - beta[..., n:, :, :]
    d = C - np.swapaxes(C, -3, -2)
    dp = Cp - np.swapaxes(Cp, -3, -2)
    Arow = np.sqrt((C**2).sum(axis=-3) + (Cp**2).sum(axis=-3))
    return StructureCoefficients(C=C, Cp=Cp, d=d, dp=dp, Arow=Arow)


def phi_matrix(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Twistor form F[..., A, B] = phi(e_A, e_B) from the coefficient expansion.

    F_{AB} = 1/2 sum_ij (alpha_ij^A beta_ij^B - alpha_ij^B beta_ij^A) - (J0)_{AB},
    the last term being theta_i ^ theta_{i+n} written as a matrix.  The double
    sum runs over all ordered pairs (i, j), which together with the 1/2 factor
    reproduces phi(e_i, e_{i+n}) = 1 on a flat patch.
    """
    n = alpha.shape[-3]
    pairs = alpha.shape[:-3] + (n * n, 2 * n)
    S = np.swapaxes(alpha.reshape(pairs), -1, -2) @ beta.reshape(pairs)
    return 0.5 * (S - np.swapaxes(S, -1, -2)) - j0_matrix(n)


def phi_via_bundle_formula(omega: np.ndarray) -> np.ndarray:
    """Twistor form F[..., A, B] from the trace pairing on so(2n) plus the canonical-form term.

    Evaluates, for X = e_A and Y = e_B with w_C = omega(e_C) the skew matrix
    slice and theta(e_A) the A-th standard basis vector,

        F_{AB} = 1/4 (-tr(P_A Q_B)) - (e_A J0) . e_B ,
        P_A = J0 w_A - w_A J0 ,   Q_B = w_B + J0 w_B J0 .

    Mathematically identical to ``phi_matrix``; computed through disjoint
    index paths so the pair acts as a bookkeeping oracle.
    """
    dim = omega.shape[-1]
    J0 = j0_matrix(dim // 2)
    w = np.moveaxis(omega, -1, -3)  # w[..., A] is the matrix omega(e_A)
    P = J0 @ w - w @ J0
    Q = w + J0 @ w @ J0
    # tr(P_A Q_B) = sum_xy P_A[x, y] Q_B[y, x]
    rows = w.shape[:-2] + (dim * dim,)
    trace = P.reshape(rows) @ np.swapaxes(np.swapaxes(Q, -1, -2).reshape(rows), -1, -2)
    return -0.25 * trace - J0


def margin(F: np.ndarray) -> np.ndarray:
    """Minimum of phi(X, JX) over frame-unit X.

    In frame components J acts as J0 and phi(X, JX) = x^T F J0 x, so the
    minimum over the unit sphere is the smallest eigenvalue of the symmetric
    part of F J0.
    """
    M = F @ j0_matrix(F.shape[-1] // 2)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    return np.linalg.eigvalsh(M).min(axis=-1)


def _pfaffian(A: np.ndarray) -> float:
    """Pfaffian of a real skew matrix by the Parlett-Reid tridiagonalization."""
    A = np.array(A, dtype=float)
    m = A.shape[0]
    if m % 2 == 1:
        return 0.0
    pf = 1.0
    for k in range(0, m - 1, 2):
        kp = k + 1 + int(np.abs(A[k + 1 :, k]).argmax())
        if kp != k + 1:
            A[[k + 1, kp], k:] = A[[kp, k + 1], k:]
            A[k:, [k + 1, kp]] = A[k:, [kp, k + 1]]
            pf = -pf
        if A[k + 1, k] == 0.0:
            return 0.0
        pf *= A[k, k + 1]
        if k + 2 < m:
            tau = A[k, k + 2 :] / A[k, k + 1]
            A[k + 2 :, k + 2 :] += np.outer(tau, A[k + 2 :, k + 1]) - np.outer(
                A[k + 2 :, k + 1], tau
            )
    return pf


def nondegenerate(F: np.ndarray, det: np.ndarray | None = None) -> tuple:
    """(non-degenerate?, sign of the Pfaffian) for skew frame matrices (..., 2n, 2n).

    The determinant is compared against NONDEGENERACY_THRESHOLD * scale^{2n}
    with scale = max |F_{AB}|, separating finite-difference noise from a
    genuine kernel; a matrix whose scale itself sits below ZERO_FORM_FLOOR is
    a vanishing form seen through finite-difference noise (no sign of such a
    matrix survives a frame rotation) and classifies as degenerate.  The sign
    is computed in the interleaved basis (e_1, J e_1, e_2, J e_2, ...), the
    orientation in which the flat form -J0 is the reference block form with
    sign +1; the Pfaffian runs only at the points that pass the determinant
    test.  ``det`` is ``np.linalg.det`` of the matrices, computed here unless
    the caller already holds it.
    """
    dim = F.shape[-1]
    n = dim // 2
    scale = np.abs(F).max(axis=(-2, -1))
    if det is None:
        det = np.linalg.det(F)
    nondeg = (scale > ZERO_FORM_FLOOR) & (np.abs(det) > NONDEGENERACY_THRESHOLD * scale**dim)
    interleave = np.arange(dim).reshape(2, n).T.ravel()
    sign = np.zeros(nondeg.shape, dtype=int)
    for idx in np.ndindex(nondeg.shape):
        if nondeg[idx]:
            sign[idx] = np.sign(_pfaffian(F[idx][np.ix_(interleave, interleave)]))
    return nondeg, sign[()]


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

    def first_failure(self, index: tuple = ()) -> str | None:
        """Name of the first failed inequality at the point ``index`` of the batch."""
        for name in "abcd":
            if not np.asarray(getattr(self, name))[index]:
                return name
        return None


@dataclass(frozen=True)
class TheoremReport:
    """Every quantity of the non-degeneracy certificate, one value per point.

    For a single point the fields are scalars; for a batch of points of
    shape S they are arrays of shape S (``sigma`` of shape S + (2n,) * 3).
    ``n_route_mismatch`` is the relative gap between the frame components of
    N from the coordinate route and from the connection route.
    """

    point: np.ndarray
    n: int
    normN2: float
    margin: float
    sumA2: float
    bound_quarterA: float
    bound_paper: float
    chain_ok: ChainChecks
    nondegenerate: bool
    pfaffian_sign: int
    det_F: float
    phi_formula_mismatch: float
    n_route_mismatch: float
    sigma: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "point", p)


def _total(a: np.ndarray) -> np.ndarray:
    """Sum of the squares of a per-point tensor [..., i, j, k]."""
    return (a**2).sum(axis=(-3, -2, -1))


def theorem_report(jet: PointJet, tol: float = CHAIN_TOL, strict: bool = False) -> TheoremReport:
    """Run the full pipeline at the jet's points and certify the bound chain.

    The jet's dJ feeds both the sigma table (``nabla_j_connection``, kept as
    ``sigma`` in the report) and the coordinate Nijenhuis route; nothing here
    evaluates a field.  Every quantity is computed for the whole batch at
    once, and each point's values are those of the point computed alone.

    With ``strict`` the first failed inequality (at the first failing point)
    raises ChainViolation; the default returns the report with
    per-inequality booleans so sweeps can count violations.  A violation on
    valid input is a bug detector, never an expected outcome.
    """
    u = jet.frame.point
    n = jet.frame.n
    sigma = nabla_j_connection(jet)
    alpha, beta = alpha_beta(sigma)
    coeffs = structure_coefficients(alpha, beta)
    tensor = nijenhuis_tensor(jet, coeffs)
    normN2 = nijenhuis_norm(tensor)

    F = phi_matrix(alpha, beta)
    phi_mismatch = np.abs(F - phi_via_bundle_formula(sigma)).max(axis=(-2, -1))
    mrg = margin(F)
    det_F = np.linalg.det(F)
    nondeg, pf_sign = nondegenerate(F, det=det_F)

    sumA2 = (coeffs.Arow**2).sum(axis=(-2, -1))
    bound_quarterA = 1.0 - 0.25 * sumA2
    c0 = critical_constant(n)
    factor = 5.0 / 64.0 if n >= 3 else 1.0 / 16.0
    bound_paper = 1.0 - factor * normN2

    sum_c2 = _total(coeffs.C)
    sum_cp2 = _total(coeffs.Cp)
    sum_d2 = _total(coeffs.d)
    sum_dp2 = _total(coeffs.dp)
    ok_a = mrg >= bound_quarterA - tol
    if n >= 3:
        ok_b = (sum_c2 <= 1.25 * sum_d2 + tol) & (sum_cp2 <= 1.25 * sum_dp2 + tol)
    else:
        two_diag = 2.0 * (coeffs.d[..., 0, 1, 0] ** 2 + coeffs.d[..., 1, 0, 1] ** 2)
        two_diag_p = 2.0 * (coeffs.dp[..., 0, 1, 0] ** 2 + coeffs.dp[..., 1, 0, 1] ** 2)
        ok_b = (
            (np.abs(sum_c2 - sum_d2) <= tol)
            & (np.abs(sum_c2 - two_diag) <= tol)
            & (np.abs(sum_cp2 - sum_dp2) <= tol)
            & (np.abs(sum_cp2 - two_diag_p) <= tol)
        )
    ok_c = bound_quarterA >= bound_paper - tol
    ok_d = (normN2 >= c0) | nondeg
    chain = ChainChecks(a=ok_a, b=ok_b, c=ok_c, d=ok_d)

    bad = first_index(~chain.all_ok) if strict else None
    if bad is not None:
        raise ChainViolation(
            f"inequality ({chain.first_failure(bad)}) failed at {u[bad].tolist()}: "
            f"margin={mrg[bad]:.12g} quarterA={bound_quarterA[bad]:.12g} "
            f"paper={bound_paper[bad]:.12g} normN2={normN2[bad]:.12g} nondeg={bool(nondeg[bad])}"
        )
    return TheoremReport(
        point=u,
        n=n,
        normN2=normN2,
        margin=mrg,
        sumA2=sumA2,
        bound_quarterA=bound_quarterA,
        bound_paper=bound_paper,
        chain_ok=chain,
        nondegenerate=nondeg,
        pfaffian_sign=pf_sign,
        det_F=det_F,
        phi_formula_mismatch=phi_mismatch,
        n_route_mismatch=tensor.route_gap,
        sigma=sigma,
    )


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
    dsum = dw[..., diagonal, n + diagonal, :].sum(axis=-2)
    dsum = dsum - np.swapaxes(dsum, -1, -2)
    F = phi_matrix(*alpha_beta(connection_coefficients(jet)))
    T = frame.g @ frame.E  # theta_A(d_a) = T[a, A]
    phi_coord = T @ F @ np.swapaxes(T, -1, -2)
    return np.abs(dsum + phi_coord).max(axis=(-2, -1))
