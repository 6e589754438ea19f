"""Nijenhuis tensor of an almost complex structure, by two independent routes.

Route 1 (coordinate brackets) expands
N(X, Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY] on coordinate vector fields,
where every bracket reduces to first derivatives of J alone.  It never touches
the metric or the connection.

Route 2 (connection coefficients) assembles the frame values
N(e_i, e_j) = sum_k (d_{ijk} e_k - d'_{ijk} e_{k+n}) from the structure
coefficients of the connection forms and fills the remaining slots with the
symmetries N(Y, X) = -N(X, Y) and N(JX, Y) = -J N(X, Y) = N(X, JY).

The two routes share no code path, so their agreement (enforced whenever both
are available) is a genuine cross-check of every sign convention in between.
They may share input: both read J and dJ from the same ``PointJet``, since a
second stencil at the same point would return the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CrossPathMismatch
from .geometry import ManifoldPatch, PointJet, j0_matrix

if TYPE_CHECKING:
    from .twistorform import StructureCoefficients

ROUTE_REL_TOL = 1e-6


@dataclass(frozen=True)
class NijenhuisTensor:
    """Coordinate components N^c_{ab} and frame components Nf^C_{AB} at a point."""

    coord: np.ndarray
    frame: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        for name in ("coord", "frame", "point"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def nijenhuis_coordinates(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Coordinate components N[c, a, b] = N(d_a, d_b)^c from J and its jet.

    ``J`` is the field value and ``dJ[c, a, b] = d_c J^a_b`` its first
    derivatives at one point.  Coordinate fields have vanishing mutual
    brackets, so the four brackets in the definition collapse to contractions
    of J with dJ.  The metric never enters, which keeps this route
    independent of the connection machinery.
    """
    return (
        np.einsum("da,dcb->cab", J, dJ)
        - np.einsum("db,dca->cab", J, dJ)
        + np.einsum("ce,bea->cab", J, dJ)
        - np.einsum("ce,aeb->cab", J, dJ)
    )


def frame_components_from_coordinates(
    coord: np.ndarray, E: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Convert N^c_{ab} to frame components using E^{-1} = E^T g."""
    Einv = E.T @ g
    return np.einsum("Cc,cab,aA,bB->CAB", Einv, coord, E, E)


def nijenhuis_frame(coeffs: "StructureCoefficients") -> np.ndarray:
    """Frame components Nf[C, A, B] assembled from connection structure coefficients.

    Slots with both arguments in the first half come straight from the d and
    d' tensors; the rest follow from the J-symmetries, matching the factor-4
    bookkeeping of the squared-norm formula.
    """
    d = np.asarray(coeffs.d, dtype=float)
    dp = np.asarray(coeffs.dp, dtype=float)
    n = d.shape[0]
    J0 = j0_matrix(n)
    # V[C, i, j] = components of N(e_i, e_j)
    V = np.concatenate([d.transpose(2, 0, 1), -dp.transpose(2, 0, 1)], axis=0)
    mJ0V = np.einsum("CD,Dij->Cij", -J0, V)
    Nf = np.empty((2 * n, 2 * n, 2 * n))
    Nf[:, :n, :n] = V
    Nf[:, n:, :n] = mJ0V  # N(J e_i, e_j) = -J N(e_i, e_j)
    Nf[:, :n, n:] = mJ0V  # N(e_i, J e_j) = -J N(e_i, e_j)
    Nf[:, n:, n:] = -V  # N(J e_i, J e_j) = -N(e_i, e_j)
    return Nf


def nijenhuis_tensor(jet: PointJet, coeffs: "StructureCoefficients | None" = None) -> NijenhuisTensor:
    """Nijenhuis tensor at the jet's point, with frame components cross-checked.

    The coordinate components come from the jet's J and dJ and change to the
    jet's frame.  When ``coeffs`` is given, the frame components come from
    the connection route and must agree with that frame change to relative
    ``ROUTE_REL_TOL``; disagreement raises CrossPathMismatch.
    """
    frame = jet.frame
    coord = nijenhuis_coordinates(frame.J, jet.dJ)
    converted = frame_components_from_coordinates(coord, frame.E, frame.g)
    if coeffs is None:
        framec = converted
    else:
        framec = nijenhuis_frame(coeffs)
        scale = max(1.0, float(np.abs(converted).max()))
        resid = float(np.abs(framec - converted).max())
        if resid > ROUTE_REL_TOL * scale:
            raise CrossPathMismatch(
                f"frame components from connection coefficients differ from the "
                f"coordinate route by {resid:.3e} (scale {scale:.3e})"
            )
    return NijenhuisTensor(coord=coord, frame=framec, point=frame.point)


def norm_from_coefficients(coeffs: "StructureCoefficients") -> float:
    """Squared Nijenhuis norm 4 sum_{i,j,k} (d_ijk^2 + d'_ijk^2)."""
    d = np.asarray(coeffs.d, dtype=float)
    dp = np.asarray(coeffs.dp, dtype=float)
    return 4.0 * float((d**2).sum() + (dp**2).sum())


def nijenhuis_norm(
    tensor: NijenhuisTensor,
    coeffs: "StructureCoefficients | None" = None,
    rel_tol: float = ROUTE_REL_TOL,
) -> float:
    """Squared norm |N|^2 = sum_{A,B} |N(e_A, e_B)|^2 in frame components.

    With ``coeffs`` supplied the value is additionally checked against
    4 sum (d^2 + d'^2) and against 4 sum_{i,j<=n} |N(e_i, e_j)|^2; a mismatch
    raises CrossPathMismatch, the signature of a convention bug.
    """
    Nf = tensor.frame
    n = Nf.shape[0] // 2
    total = float((Nf**2).sum())
    quarter = 4.0 * float((Nf[:, :n, :n] ** 2).sum())
    if abs(total - quarter) > rel_tol * max(1.0, total):
        raise CrossPathMismatch(
            f"|N|^2 = {total:.12e} but 4 sum_(i,j<=n) gives {quarter:.12e}; "
            "the J-symmetry bookkeeping is broken"
        )
    if coeffs is not None:
        via_d = norm_from_coefficients(coeffs)
        if abs(total - via_d) > rel_tol * max(1.0, total):
            raise CrossPathMismatch(
                f"|N|^2 = {total:.12e} from frame components but {via_d:.12e} "
                "from 4 sum (d^2 + d'^2)"
            )
    return total


@dataclass(frozen=True)
class SymmetryResiduals:
    """Max-norm residuals of the three Nijenhuis symmetries at a point."""

    antisymmetry: float
    j_first_slot: float
    j_second_slot: float

    def max(self) -> float:
        return max(self.antisymmetry, self.j_first_slot, self.j_second_slot)


def symmetry_residuals(
    tensor: NijenhuisTensor, patch: ManifoldPatch, point: np.ndarray
) -> SymmetryResiduals:
    """Evaluate N(Y,X) = -N(X,Y) and N(JX,Y) = -J N(X,Y) = N(X,JY) on coordinate slots.

    For a genuine almost complex structure all three residuals sit at the
    finite-difference noise floor; a corrupted J (J^2 != -Id) drives them up,
    which makes this the designated negative control.
    """
    N = tensor.coord
    J = np.asarray(patch.j_field(np.asarray(point, dtype=float)), dtype=float)
    anti = float(np.abs(N + N.transpose(0, 2, 1)).max())
    jn = np.einsum("ce,eab->cab", J, N)
    first = float(np.abs(np.einsum("da,cdb->cab", J, N) + jn).max())
    second = float(np.abs(np.einsum("db,cad->cab", J, N) + jn).max())
    return SymmetryResiduals(antisymmetry=anti, j_first_slot=first, j_second_slot=second)
