"""Coordinate patches of almost Hermitian manifolds and adapted frames.

A patch is a box in R^{2n} together with a metric field g(u) and an almost
complex field J(u), both given as plain callables returning 2n x 2n arrays.
Everything downstream (connection forms, Nijenhuis tensor, twistor 2-form)
is computed from frames adapted to J, i.e. orthonormal frames with
e_{n+k} = J e_k, built here by a deterministic metric Gram-Schmidt sweep.

Field derivatives come from analytic jets when a patch supplies them and
from central finite differences otherwise.  ``point_jet`` gathers everything
the certificate at one point reads: the adapted frame (with g and J), the J
jet and the Christoffel symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    BoundaryProximity,
    DegeneratePivot,
    FrameDiscontinuity,
    IncompatibleStructure,
    SingularMetric,
)

# Central differences: h^2 truncation vs eps/h rounding balance for first
# derivatives of O(1) fields in double precision.
DEFAULT_FD_STEP = 1e-5
PIVOT_TOL = 1e-8
STRUCTURE_TOL = 1e-10
FRAME_ORTHO_TOL = 1e-9
METRIC_COND_LIMIT = 1e12

FieldMap = Callable[[np.ndarray], np.ndarray]

# A point is a plain float vector of length 2n; operations validate interiority
# against the patch domain instead of wrapping coordinates in a class.
PointCoords = np.ndarray


def j0_matrix(n: int) -> np.ndarray:
    """Reference complex structure [[0, -I_n], [I_n, 0]] on R^{2n}."""
    J0 = np.zeros((2 * n, 2 * n))
    J0[:n, n:] = -np.eye(n)
    J0[n:, :n] = np.eye(n)
    return J0


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``; an array that already is one is kept as is."""
    if isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable and a.flags.owndata:
        return a
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ManifoldPatch:
    """Local chart of an almost Hermitian manifold of real dimension 2n.

    ``metric_field`` and ``j_field`` map a coordinate vector u to the matrices
    g_{ab}(u) and J^a_b(u) in the coordinate basis.  ``domain`` holds per-axis
    (lower, upper) bounds.  Optional jets return the third-order arrays of
    first derivatives, indexed [c, a, b] = d_c(field)_{ab}; when present they
    take precedence over finite differencing.
    """

    n: int
    domain: np.ndarray
    metric_field: FieldMap
    j_field: FieldMap
    metric_jet: FieldMap | None = None
    j_jet: FieldMap | None = None
    label: str = ""
    attributes: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("half-dimension n must be a positive integer")
        dom = np.asarray(self.domain, dtype=float)
        if dom.shape != (2 * self.n, 2):
            raise ValueError(f"domain must have shape ({2 * self.n}, 2)")
        if np.any(dom[:, 0] >= dom[:, 1]):
            raise ValueError("domain bounds must satisfy lower < upper")
        object.__setattr__(self, "domain", _readonly(dom))
        object.__setattr__(self, "attributes", frozenset(self.attributes))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def contains(self, point: np.ndarray, margin: float = 0.0) -> bool:
        u = np.asarray(point, dtype=float)
        return bool(
            u.shape == (self.dim,)
            and np.all(u > self.domain[:, 0] + margin)
            and np.all(u < self.domain[:, 1] - margin)
        )


def require_interior(patch: ManifoldPatch, point: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Return the point as a float vector, or raise BoundaryProximity."""
    u = np.asarray(point, dtype=float)
    if u.shape != (patch.dim,):
        raise BoundaryProximity(
            f"point has shape {u.shape}, expected ({patch.dim},) for patch {patch.label!r}"
        )
    if not patch.contains(u, margin):
        raise BoundaryProximity(
            f"point {u.tolist()} is not interior to patch {patch.label!r} "
            f"with margin {margin:g}"
        )
    return u


def _field_residuals(g: np.ndarray, J: np.ndarray) -> dict:
    eye = np.eye(g.shape[0])
    return {
        "metric_symmetry": float(np.abs(g - g.T).max()),
        "metric_min_eigenvalue": float(np.linalg.eigvalsh(0.5 * (g + g.T)).min()),
        "j_square": float(np.abs(J @ J + eye).max()),
        "compatibility": float(np.abs(J.T @ g @ J - g).max()),
    }


def patch_residuals(patch: ManifoldPatch, point: np.ndarray) -> dict:
    """Max-norm residuals of the pointwise patch invariants at ``point``."""
    u = np.asarray(point, dtype=float)
    g = np.asarray(patch.metric_field(u), dtype=float)
    J = np.asarray(patch.j_field(u), dtype=float)
    return _field_residuals(g, J)


def validate_patch(patch: ManifoldPatch, point: np.ndarray) -> tuple:
    """Raise IncompatibleStructure unless g is symmetric positive definite,
    J^2 = -Id and J^T g J = g.

    Returns the checked field values ``(g, J)`` at ``point``, so a caller that
    needs them evaluates each field once.
    """
    u = np.asarray(point, dtype=float)
    g = np.asarray(patch.metric_field(u), dtype=float)
    J = np.asarray(patch.j_field(u), dtype=float)
    res = _field_residuals(g, J)
    if res["metric_min_eigenvalue"] <= 0.0:
        raise IncompatibleStructure(
            f"metric not positive definite at {u.tolist()} "
            f"(min eigenvalue {res['metric_min_eigenvalue']:.3e})"
        )
    for key in ("metric_symmetry", "j_square", "compatibility"):
        if res[key] >= STRUCTURE_TOL:
            raise IncompatibleStructure(
                f"{key} residual {res[key]:.3e} exceeds {STRUCTURE_TOL:g} at {u.tolist()}"
            )
    return g, J


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal frame with e_{n+k} = J e_k at a point.

    Column A of ``E`` holds the coordinate components of the frame vector e_A,
    so E^T g E = Id; ``g`` and ``J`` are the validated field values at
    ``point`` it was built from.  ``pivots`` records which seed columns
    survived each Gram-Schmidt step; displaced re-evaluations compare it to
    detect a discontinuous frame field.  ``rotation`` is an optional constant
    U(n) element applied on the right after orthogonalization.
    """

    point: np.ndarray
    E: np.ndarray
    g: np.ndarray
    J: np.ndarray
    pivots: tuple = ()
    seed: np.ndarray | None = None
    rotation: np.ndarray | None = None

    def __post_init__(self):
        for name in ("point", "E", "g", "J", "seed", "rotation"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.E.shape[0] // 2


def _gram_schmidt_adapted(g: np.ndarray, J: np.ndarray, seed: np.ndarray, n: int):
    """Deterministic J-adapted Gram-Schmidt. Returns (E, consumed pivots)."""
    accepted: list[np.ndarray] = []
    columns: list[np.ndarray] = []
    available = list(range(2 * n))
    pivots = []
    for _ in range(n):
        chosen = None
        for idx in available:
            v = seed[:, idx].astype(float)
            # Two projection passes keep the g-orthogonality near machine
            # precision without changing the deterministic pivot order.
            for _pass in range(2):
                for w in accepted:
                    v = v - (v @ g @ w) * w
            nrm = float(np.sqrt(max(v @ g @ v, 0.0)))
            if nrm >= PIVOT_TOL:
                chosen = (idx, v / nrm)
                break
        if chosen is None:
            raise DegeneratePivot(
                f"all {len(available)} remaining seed columns project below {PIVOT_TOL:g}"
            )
        idx, e = chosen
        available.remove(idx)
        pivots.append(idx)
        je = J @ e
        accepted.extend([e, je])
        columns.append((e, je))
    E = np.empty((2 * n, 2 * n))
    for k, (e, je) in enumerate(columns):
        E[:, k] = e
        E[:, n + k] = je
    return E, tuple(pivots)


def adapt_frame(
    patch: ManifoldPatch, point: np.ndarray, seed: np.ndarray | None = None
) -> AdaptedFrame:
    """Build the J-adapted orthonormal frame at ``point``.

    The construction is deterministic: identical inputs give a bitwise
    identical frame.  The default seed is the identity, so on a flat Kahler
    patch the frame is the coordinate basis itself.
    """
    u = require_interior(patch, point)
    g, J = validate_patch(patch, u)
    seed_arr = np.eye(patch.dim) if seed is None else np.array(seed, dtype=float)
    if seed_arr.shape != (patch.dim, patch.dim):
        raise ValueError(f"seed must have shape ({patch.dim}, {patch.dim})")
    E, pivots = _gram_schmidt_adapted(g, J, seed_arr, patch.n)
    resid = float(np.abs(E.T @ g @ E - np.eye(patch.dim)).max())
    if resid > FRAME_ORTHO_TOL:
        raise DegeneratePivot(
            f"orthonormality residual {resid:.3e} after Gram-Schmidt; "
            "seed is too ill-conditioned for a reliable frame"
        )
    return AdaptedFrame(point=u, E=E, g=g, J=J, pivots=pivots, seed=None if seed is None else seed_arr)


def rotate_frame(frame: AdaptedFrame, U: np.ndarray) -> AdaptedFrame:
    """Replace the frame by E U for a constant U(n) element U.

    U must be orthogonal and commute with J0; the result is again adapted.
    """
    n = frame.n
    U = np.asarray(U, dtype=float)
    J0 = j0_matrix(n)
    if np.abs(U.T @ U - np.eye(2 * n)).max() > 1e-10 or np.abs(U @ J0 - J0 @ U).max() > 1e-10:
        raise ValueError("rotation must be orthogonal and commute with J0")
    combined = U if frame.rotation is None else frame.rotation @ U
    return replace(frame, E=frame.E @ U, rotation=combined)


def evaluate_frame_field(patch: ManifoldPatch, frame: AdaptedFrame, point: np.ndarray) -> np.ndarray:
    """Evaluate the adapted frame field through ``frame`` at a nearby point.

    Re-runs the Gram-Schmidt sweep with the same seed (and trailing rotation)
    and demands the same pivot sequence, so finite differences of the frame
    field are differences of one smooth matrix-valued function.
    """
    moved = adapt_frame(patch, point, seed=frame.seed)
    if moved.pivots != frame.pivots:
        raise FrameDiscontinuity(
            f"pivot sequence changed from {frame.pivots} to {moved.pivots} "
            f"at {np.asarray(point).tolist()}"
        )
    E = moved.E
    if frame.rotation is not None:
        E = E @ frame.rotation
    return E


def central_difference(f: FieldMap, u: np.ndarray, h: float) -> np.ndarray:
    """D[c] = (f(u + h e_c) - f(u - h e_c)) / (2h): the package's one difference stencil."""
    D = []
    for c in range(u.shape[0]):
        up = u.copy()
        dn = u.copy()
        up[c] += h
        dn[c] -= h
        D.append((np.asarray(f(up), dtype=float) - np.asarray(f(dn), dtype=float)) / (2.0 * h))
    return np.array(D)


def field_derivative(
    patch: ManifoldPatch,
    point: np.ndarray,
    which: str = "metric",
    step: float = DEFAULT_FD_STEP,
    richardson: bool = False,
) -> np.ndarray:
    """First derivatives D[c, a, b] = d_c (field)_{ab} of the metric or J field.

    Uses the analytic jet when the patch provides one; otherwise symmetric
    differences with the given step (O(step^2) accurate).  ``richardson``
    combines steps h and h/2 into an O(step^4) estimate.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if which == "metric":
        fn, jet = patch.metric_field, patch.metric_jet
    elif which == "j":
        fn, jet = patch.j_field, patch.j_jet
    else:
        raise ValueError("which must be 'metric' or 'j'")
    u = require_interior(patch, point, margin=step)
    if jet is not None:
        return np.asarray(jet(u), dtype=float)
    if richardson:
        return (4.0 * central_difference(fn, u, step / 2.0) - central_difference(fn, u, step)) / 3.0
    return central_difference(fn, u, step)


def christoffel(
    patch: ManifoldPatch, point: np.ndarray, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Levi-Civita Christoffel symbols Gamma[c, a, b] = Gamma^c_{ab} at a point."""
    u = require_interior(patch, point, margin=step)
    g = np.asarray(patch.metric_field(u), dtype=float)
    if np.linalg.cond(g) > METRIC_COND_LIMIT:
        raise SingularMetric(f"metric condition number exceeds {METRIC_COND_LIMIT:g} at {u.tolist()}")
    gi = np.linalg.inv(g)
    dg = field_derivative(patch, u, which="metric", step=step)
    return 0.5 * (
        np.einsum("cd,adb->cab", gi, dg)
        + np.einsum("cd,bda->cab", gi, dg)
        - np.einsum("cd,dab->cab", gi, dg)
    )


@dataclass(frozen=True)
class PointJet:
    """What the certificate at one point reads: an adapted frame, with the g
    and J it was built from, the J jet dJ[c, a, b] = d_c J^a_b and the
    Christoffel symbols Gamma[c, a, b] = Gamma^c_{ab}.
    """

    frame: AdaptedFrame
    dJ: np.ndarray
    Gamma: np.ndarray

    def __post_init__(self):
        for name in ("dJ", "Gamma"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    def rotated(self, U: np.ndarray) -> PointJet:
        """The same jet in the frame E U; only the frame changes."""
        return replace(self, frame=rotate_frame(self.frame, U))


def point_jet(patch: ManifoldPatch, point: np.ndarray, step: float = DEFAULT_FD_STEP) -> PointJet:
    """Evaluate the fields and their first derivatives at ``point``, once.

    The frame validates g and J, ``step`` is the stencil of the J jet and of
    the metric derivatives, and the point must lie 2 step inside the patch.
    """
    u = require_interior(patch, point, margin=2.0 * step)
    return PointJet(
        frame=adapt_frame(patch, u),
        dJ=field_derivative(patch, u, which="j", step=step),
        Gamma=christoffel(patch, u, step=step),
    )


def random_unitary_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random U(n) element as a 2n x 2n orthogonal matrix commuting with J0.

    Exponentiates a random u(n) generator: the real embedding of a complex
    skew-Hermitian matrix X + iY with X skew and Y symmetric.
    """
    X = rng.standard_normal((n, n))
    X = X - X.T
    Y = rng.standard_normal((n, n))
    Y = 0.5 * (Y + Y.T)
    H = X + 1j * Y
    w, V = np.linalg.eigh(1j * H)
    Uc = (V * np.exp(-1j * w)) @ V.conj().T
    U = np.zeros((2 * n, 2 * n))
    U[:n, :n] = Uc.real
    U[:n, n:] = -Uc.imag
    U[n:, :n] = Uc.imag
    U[n:, n:] = Uc.real
    return U
