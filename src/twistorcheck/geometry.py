"""Coordinate patches of almost Hermitian manifolds and adapted frames.

A patch is a box in R^{2n} together with a metric field g(u) and an almost
complex field J(u).  Both are callables on batches of points: they map an
array of shape (..., 2n) to an array of shape (..., 2n, 2n), so a whole grid
chunk, or the complex-step points of one, is one call.  A callable written
for one point at a time is wrapped by ``pointwise``.  Everything downstream
(connection forms, Nijenhuis tensor, twistor 2-form) is computed from frames
adapted to J, i.e. orthonormal frames with e_{n+k} = J e_k, built here by a
deterministic metric Gram-Schmidt sweep of the coordinate vectors that runs on
every point of a batch at once.

Every function of the point pipeline takes leading batch axes; a single point
is a batch of shape ().  Each point is computed with the same sequence of
per-point operations whatever batch it sits in, so its values do not depend
on the batch, and every validation runs at every point and names the first
point (in C order) that fails it.

Field derivatives come from analytic jets when a patch supplies them and
otherwise from the complex step d_c f(u) = Im f(u + i h e_c) / h, exact to
rounding.  ``point_jet`` gathers everything the certificate at a point
reads: the adapted frame (with g and J), the J jet and the Christoffel
symbols.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# h of every complex-step derivative Im f(u + i h e_c) / h (Squire and Trapp,
# SIAM Rev. 40(1), 1998): nothing is subtracted, so no rounding grows as h shrinks.
COMPLEX_STEP = 1e-30
PIVOT_TOL = 1e-8
STRUCTURE_TOL = 1e-10
FRAME_ORTHO_TOL = 1e-9
METRIC_COND_LIMIT = 1e12

FieldMap = Callable[[np.ndarray], np.ndarray]


def j0_matrix(n: int) -> np.ndarray:
    """Reference complex structure [[0, -I_n], [I_n, 0]] on R^{2n}."""
    J0 = np.zeros((2 * n, 2 * n))
    J0[:n, n:] = -np.eye(n)
    J0[n:, :n] = np.eye(n)
    return J0


def _real_or_complex(a) -> type:
    """complex for complex input, such as the points of a complex step, else float."""
    return complex if np.iscomplexobj(a) else float


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float (or complex) copy of ``a``; an array that already is one is kept as is."""
    if isinstance(a, np.ndarray) and a.dtype in (float, complex) and not a.flags.writeable and a.flags.owndata:
        return a
    a = np.array(a, dtype=_real_or_complex(a))
    a.flags.writeable = False
    return a


def first_index(mask) -> tuple | None:
    """Batch index of the first point (in C order) where ``mask`` holds, or None."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return None
    return np.unravel_index(int(np.argmax(mask)), mask.shape)


def pointwise(f: FieldMap) -> FieldMap:
    """Loop adapter: a field on (..., 2n) arrays from a callable on one point.

    ``f`` takes a single coordinate vector of length 2n; the adapter calls it
    once per point of the batch, in C order, and stacks the results; complex
    points and values pass through.
    """

    @functools.wraps(f)
    def batched(u):
        u = np.asarray(u, dtype=_real_or_complex(u))
        points = np.array(u.reshape(-1, u.shape[-1]))
        values = np.stack([np.asarray(f(p), dtype=u.dtype) for p in points])
        return values.reshape(u.shape[:-1] + values.shape[1:])

    return batched


@dataclass(frozen=True, eq=False)
class ManifoldPatch:
    """Local chart of an almost Hermitian manifold of real dimension 2n.

    ``metric_field`` and ``j_field`` map points u of shape (..., 2n) to the
    matrices g_{ab}(u) and J^a_b(u) in the coordinate basis, of shape
    (..., 2n, 2n); wrap a per-point callable in ``pointwise``.  ``domain``
    holds per-axis (lower, upper) bounds.  Optional jets return the arrays of
    first derivatives, of shape (..., 2n, 2n, 2n) and indexed
    [..., c, a, b] = d_c(field)_{ab}; when present they take precedence over
    the complex step.  The frame route evaluates both fields at complex
    points u + i h e_c, so they must be complex-analytic in u (no abs,
    ``.real``, cast to float or branch on u).  ``unit_round_sphere`` marks a
    chart of the unit round sphere, where the curvature and Chern identities
    hold.
    """

    n: int
    domain: np.ndarray
    metric_field: FieldMap
    j_field: FieldMap
    metric_jet: FieldMap | None = None
    j_jet: FieldMap | None = None
    label: str = ""
    unit_round_sphere: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("half-dimension n must be a positive integer")
        dom = np.asarray(self.domain, dtype=float)
        if dom.shape != (2 * self.n, 2):
            raise ValueError(f"domain must have shape ({2 * self.n}, 2)")
        if np.any(dom[:, 0] >= dom[:, 1]):
            raise ValueError("domain bounds must satisfy lower < upper")
        object.__setattr__(self, "domain", _readonly(dom))

    @property
    def dim(self) -> int:
        return 2 * self.n


def require_interior(patch: ManifoldPatch, point: np.ndarray) -> np.ndarray:
    """Return the points as a float or complex array (..., 2n), or raise ValueError.

    A complex point is interior when its real part is."""
    u = np.asarray(point, dtype=_real_or_complex(point))
    if u.ndim == 0 or u.shape[-1] != patch.dim:
        raise ValueError(
            f"point has shape {u.shape}, expected (..., {patch.dim}) for patch {patch.label!r}"
        )
    inside = (u.real > patch.domain[:, 0]) & (u.real < patch.domain[:, 1])
    bad = first_index(~inside.all(axis=-1))
    if bad is not None:
        raise ValueError(f"point {u[bad].tolist()} is not interior to patch {patch.label!r}")
    return u


def _call_field(fn: FieldMap, u: np.ndarray, name: str, rank: int) -> np.ndarray:
    """Evaluate a field or jet callable on the points ``u`` and check its shape and finiteness.

    On complex points, a callable that casts them to float, which would make
    every complex-step derivative zero, raises ValueError.
    """
    if not np.iscomplexobj(u):
        value = np.asarray(fn(u), dtype=float)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            try:
                value = np.asarray(fn(u), dtype=complex)
            except np.exceptions.ComplexWarning:
                message = f"{name} casts complex points to float; a field must be complex-analytic in u"
                raise ValueError(message) from None
    expected = u.shape[:-1] + (u.shape[-1],) * rank
    if value.shape != expected:
        raise ValueError(
            f"{name} returned shape {value.shape} for points of shape {u.shape}, "
            f"expected {expected}; wrap a per-point callable in geometry.pointwise"
        )
    bad = first_index(~np.isfinite(value).all(axis=tuple(range(-rank, 0))))
    if bad is not None:
        raise ValueError(f"{name} is not finite at {u[bad].tolist()}")
    return value


def _field_residuals(g: np.ndarray, J: np.ndarray) -> dict:
    """Max-norm residuals of the pointwise invariants, one value per point, and
    the ascending eigenvalues of the symmetric part of g at each point."""
    eye = np.eye(g.shape[-1])
    gT = np.swapaxes(g, -1, -2)
    return {
        "metric_symmetry": np.abs(g - gT).max(axis=(-2, -1)),
        "metric_spectrum": np.linalg.eigvalsh(0.5 * (g + gT)),
        "j_square": np.abs(J @ J + eye).max(axis=(-2, -1)),
        "compatibility": np.abs(np.swapaxes(J, -1, -2) @ g @ J - g).max(axis=(-2, -1)),
    }


def validate_patch(patch: ManifoldPatch, point: np.ndarray) -> tuple:
    """Raise ValueError unless, at every point, g is symmetric
    positive definite, J^2 = -Id and J^T g J = g.

    Returns the checked field values ``(g, J)`` at ``point`` and the
    ascending eigenvalues of g there (all positive), so a caller that needs
    them evaluates each field once and decomposes g once.
    """
    u = np.asarray(point, dtype=float)
    g = _call_field(patch.metric_field, u, "metric_field", 2)
    J = _call_field(patch.j_field, u, "j_field", 2)
    res = _field_residuals(g, J)
    spectrum = res["metric_spectrum"]
    keys = ("metric_symmetry", "j_square", "compatibility")
    not_pd = spectrum[..., 0] <= 0.0
    bad = first_index(np.any([not_pd] + [res[key] >= STRUCTURE_TOL for key in keys], axis=0))
    if bad is None:
        return g, J, spectrum
    if not_pd[bad]:
        raise ValueError(
            f"metric not positive definite at {u[bad].tolist()} "
            f"(min eigenvalue {spectrum[bad][0]:.3e})"
        )
    key = next(key for key in keys if res[key][bad] >= STRUCTURE_TOL)
    raise ValueError(
        f"{key} residual {res[key][bad]:.3e} exceeds {STRUCTURE_TOL:g} at {u[bad].tolist()}"
    )


@dataclass(frozen=True, eq=False)
class AdaptedFrame:
    """Orthonormal frames with e_{n+k} = J e_k at a batch of points.

    Column A of ``E[...]`` holds the coordinate components of the frame
    vector e_A, so E^T g E = Id; ``g`` and ``J`` are the validated field
    values at ``point`` it was built from.  ``pivots[..., k]`` records which
    coordinate vector Gram-Schmidt step k took.  A rotated frame
    (``rotate_frame``) changes E alone, whose batch may then be wider than
    the points'.
    """

    point: np.ndarray
    E: np.ndarray
    g: np.ndarray
    J: np.ndarray
    pivots: np.ndarray

    def __post_init__(self):
        for name in ("point", "E", "g", "J"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        pivots = np.array(self.pivots, dtype=np.intp)
        pivots.flags.writeable = False
        object.__setattr__(self, "pivots", pivots)

    @property
    def n(self) -> int:
        return self.E.shape[-1] // 2


def _project_twice(W: np.ndarray, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v - W W^T g v for g-orthonormal columns W, run twice to reach machine
    precision ("twice is enough"); an empty W returns v."""
    Wt = np.swapaxes(W, -1, -2)
    v = v - W @ (Wt @ (g @ v))
    v -= W @ (Wt @ (g @ v))
    return v


def _gram_schmidt_adapted(g: np.ndarray, J: np.ndarray, u: np.ndarray):
    """Deterministic J-adapted Gram-Schmidt at every point. Returns (E, pivots).

    The accepted vectors e_0, J e_0, e_1, J e_1, ... are the columns of
    ``accepted``, in that order; E holds the same columns as
    (e_0 ... e_{n-1}, J e_0 ... J e_{n-1}).  Step k projects all coordinate
    vectors at once against the first 2k of them, W, by block classical
    Gram-Schmidt run twice (``_project_twice`` on the identity).  It takes
    the available vector with the largest share |V e_i|_g / sqrt(g_ii) of its
    g-norm (the lowest index on a tie) among those whose g-norm reaches
    PIVOT_TOL.
    """
    dim = g.shape[-1]
    n = dim // 2
    batch = g.shape[:-2]
    g = g.reshape((-1, dim, dim))
    J = J.reshape((-1, dim, dim))
    rows = np.arange(len(g))
    own = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
    available = np.ones((len(g), dim), dtype=bool)
    accepted = np.empty((len(g), dim, dim))
    pivots = np.empty((len(g), n), dtype=np.intp)
    for k in range(n):
        V = _project_twice(accepted[:, :, : 2 * k], g, np.eye(dim))
        nrm = np.sqrt(np.maximum(np.einsum("bij,bij->bj", V, g @ V), 0.0))
        usable = available & (nrm >= PIVOT_TOL)
        idx = np.argmax(np.where(usable, nrm / own, -1.0), axis=-1)
        stuck = first_index(~usable[rows, idx].reshape(batch))
        if stuck is not None:
            raise ValueError(
                f"all {dim - k} remaining coordinate vectors project below {PIVOT_TOL:g} at {u[stuck].tolist()}"
            )
        e = V[rows, :, idx] / nrm[rows, idx][:, None]
        available[rows, idx] = False
        pivots[:, k] = idx
        accepted[:, :, 2 * k] = e
        accepted[:, :, 2 * k + 1] = (J @ e[:, :, None])[:, :, 0]
    E = accepted[:, :, np.r_[0:dim:2, 1:dim:2]]
    return E.reshape(batch + (dim, dim)), pivots.reshape(batch + (n,))


def _gram_schmidt_pivoted(g: np.ndarray, J: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """E of the J-adapted sweep that takes ``pivots`` (..., n), at every point.

    Step k projects coordinate vector ``pivots[..., k]`` by the projection of
    ``_gram_schmidt_adapted``, with no choice, no norm test, conjugate or
    abs: on complex g and J it is the analytic continuation of the real
    sweep with those pivots.  ``pivots`` broadcasts against the batch of g.
    """
    dim = g.shape[-1]
    accepted = np.empty(g.shape, dtype=np.result_type(g, J))
    columns = np.eye(dim)[pivots][..., None]
    for k in range(dim // 2):
        v = _project_twice(accepted[..., : 2 * k], g, columns[..., k, :, :])
        v = v / np.sqrt(np.swapaxes(v, -1, -2) @ (g @ v))
        accepted[..., 2 * k] = v[..., 0]
        accepted[..., 2 * k + 1] = (J @ v)[..., 0]
    return accepted[..., np.r_[0:dim:2, 1:dim:2]]


def adapt_frame(patch: ManifoldPatch, point: np.ndarray) -> AdaptedFrame:
    """Build the J-adapted orthonormal frame at every point of ``point`` (..., 2n).

    The construction is deterministic: identical inputs give a bitwise
    identical frame.  Each Gram-Schmidt step takes the coordinate vector
    that keeps the largest share of its g-norm, the lowest index on a tie,
    so on a flat Kahler patch the frame is the coordinate basis.  After the
    sweep, g's condition number must pass a gate read off the spectrum that
    ``validate_patch`` computed, or a ValueError names the point: the
    frame factors g^-1 = E E^T for ``christoffel``.
    """
    u = require_interior(patch, point)
    g, J, spectrum = validate_patch(patch, u)
    E, pivots = _gram_schmidt_adapted(g, J, u)
    resid = np.abs(np.swapaxes(E, -1, -2) @ g @ E - np.eye(patch.dim)).max(axis=(-2, -1))
    bad = first_index(resid > FRAME_ORTHO_TOL)
    if bad is not None:
        raise ValueError(
            f"orthonormality residual {resid[bad]:.3e} after Gram-Schmidt at {u[bad].tolist()}; "
            "the metric is too ill-conditioned for a reliable frame"
        )
    # cond_2 of the positive definite g is max lambda / min lambda, compared
    # without a division
    bad = first_index(~(spectrum[..., -1] <= METRIC_COND_LIMIT * spectrum[..., 0]))
    if bad is not None:
        raise ValueError(f"metric condition number exceeds {METRIC_COND_LIMIT:g} at {u[bad].tolist()}")
    return AdaptedFrame(point=u, E=E, g=g, J=J, pivots=pivots)


def rotate_frame(frame: AdaptedFrame, U: np.ndarray) -> AdaptedFrame:
    """Replace the frame by E U for a constant U(n) element U.

    U must be orthogonal and commute with J0; the result is again adapted.
    ``U`` may be a stack (..., 2n, 2n), one rotation per point, that
    broadcasts against the frame's batch; E then has the broadcast batch,
    while point, g, J and pivots stay the frame's own, one per point.
    """
    n = frame.n
    U = np.asarray(U, dtype=float)
    J0 = j0_matrix(n)
    orthogonal = np.abs(np.swapaxes(U, -1, -2) @ U - np.eye(2 * n)).max(axis=(-2, -1))
    commutes = np.abs(U @ J0 - J0 @ U).max(axis=(-2, -1))
    # written so that a NaN rotation fails the gate
    bad = first_index(~((orthogonal <= 1e-10) & (commutes <= 1e-10)))
    if bad is not None:
        which = f" {tuple(int(i) for i in bad)}" if U.ndim > 2 else ""
        raise ValueError(f"rotation{which} must be orthogonal and commute with J0")
    return replace(frame, E=frame.E @ U)


def evaluate_frame_field(patch: ManifoldPatch, frame: AdaptedFrame, point: np.ndarray) -> AdaptedFrame:
    """Evaluate the adapted frame field through ``frame`` at nearby points.

    ``point`` has the frame's batch axes, then any number of extra axes, then
    2n.  Re-runs the validated Gram-Schmidt sweep, each point deciding its
    own pivots, and raises ValueError at the first point whose pivot
    sequence differs from that of the frame it came from, so the frames are
    values of one smooth matrix-valued function.  Returns the unrotated
    frames at ``point``, with their g and J; the field through a rotated
    frame E U is theirs times U.
    """
    moved = adapt_frame(patch, point)
    lead = frame.pivots.shape[:-1]
    extra = moved.pivots.ndim - 1 - len(lead)
    if extra < 0:
        raise ValueError(f"points of shape {moved.point.shape} lack the frame's batch axes {lead}")
    changed = first_index(np.any(moved.pivots != frame.pivots.reshape(lead + (1,) * extra + (-1,)), axis=-1))
    if changed is not None:
        raise ValueError(
            f"pivot sequence changed from {tuple(frame.pivots[changed[: len(lead)]].tolist())} to "
            f"{tuple(moved.pivots[changed].tolist())} at {moved.point[changed].tolist()}"
        )
    return moved


def _complex_points(u: np.ndarray) -> np.ndarray:
    """The (..., dim, dim) stack of complex points u + i h e_c, h = ``COMPLEX_STEP``."""
    return u[..., None, :] + (1j * COMPLEX_STEP) * np.eye(u.shape[-1])


def field_derivative(patch: ManifoldPatch, point: np.ndarray, which: str = "metric") -> np.ndarray:
    """First derivatives D[..., c, a, b] = d_c (field)_{ab} of the metric or J field.

    Uses the analytic jet when the patch provides one; otherwise the complex
    step Im field(u + i h e_c) / h from one field call, which cannot be taken
    again at complex points: there a patch without the jet raises ValueError.
    """
    if which == "metric":
        field, jet = patch.metric_field, patch.metric_jet
    elif which == "j":
        field, jet = patch.j_field, patch.j_jet
    else:
        raise ValueError("which must be 'metric' or 'j'")
    u = require_interior(patch, point)
    if jet is not None:
        return _call_field(jet, u, f"{which}_jet", 3)
    if np.iscomplexobj(u):
        raise ValueError(f"patch {patch.label!r} has no {which} jet, which a derivative at complex points needs")
    return _call_field(field, _complex_points(u), f"{which}_field", 2).imag / COMPLEX_STEP


def complex_step_frames(patch: ManifoldPatch, frame: AdaptedFrame) -> tuple:
    """The arrays ``(g, E)`` of the field through the unrotated ``frame`` at u + i h e_c, batch (..., c).

    One g and one J call; each E takes its point's pivots, so Im E / h is
    d_c E to rounding.  Nothing is validated: a complex symmetric g has no
    spectrum to gate.
    """
    z = _complex_points(frame.point)
    g = _call_field(patch.metric_field, z, "metric_field", 2)
    J = _call_field(patch.j_field, z, "j_field", 2)
    return g, _gram_schmidt_pivoted(g, J, frame.pivots[..., None, :])


def christoffel(patch: ManifoldPatch, point: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Levi-Civita Christoffel symbols at ``point`` as a stack of matrices:
    Gamma[..., a, :, :] = Gamma_a, with (Gamma_a)^c_b = Gamma^c_{ab}.

    ``E`` holds frames of the metric there, E^T g E = Id, so g^-1 = E E^T
    (also for a rotated E U, and with no conjugate for complex frames); only
    the metric derivatives are evaluated, and no matrix is decomposed or
    inverted.  ``adapt_frame`` has gated g's condition number.
    """
    gi = E @ np.swapaxes(E, -1, -2)
    dg = field_derivative(patch, point, which="metric")
    dim = E.shape[-1]
    # T[d, a, b] = d_a g_{db} + d_b g_{da} - d_d g_{ab}, then Gamma^c_{ab} = 1/2 g^{cd} T[d, a, b]
    X = np.swapaxes(dg, -3, -2)
    T = X + np.swapaxes(X, -1, -2) - dg
    Gamma = gi @ T.reshape(T.shape[:-3] + (dim, dim * dim))
    # [c, a, b] -> [a, c, b]: the matrix Gamma_a for each slot a
    return np.swapaxes(0.5 * Gamma.reshape(Gamma.shape[:-1] + (dim, dim)), -3, -2)


@dataclass(frozen=True, eq=False)
class PointJet:
    """What the certificate at a batch of points reads: adapted frames, with
    the g and J they were built from, the J jet dJ[..., c, a, b] = d_c J^a_b
    and the Christoffel symbols Gamma[..., a, c, b] = (Gamma_a)^c_b = Gamma^c_{ab}
    (``christoffel``), both stacks of matrices indexed by their slot first.
    """

    frame: AdaptedFrame
    dJ: np.ndarray
    Gamma: np.ndarray

    def __post_init__(self):
        for name in ("dJ", "Gamma"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    def rotated(self, U: np.ndarray) -> PointJet:
        """The same jet in the frame E U; only the frame's E changes.

        ``U`` may be a stack of rotations (..., 2n, 2n) that broadcasts
        against the jet's batch; dJ and Gamma stay one per point.
        """
        return replace(self, frame=rotate_frame(self.frame, U))


def point_jet(patch: ManifoldPatch, point: np.ndarray) -> PointJet:
    """Evaluate the fields and their first derivatives at the points, once.

    ``point`` is one point (2n,) or a batch (..., 2n); the frame validates g and J.
    """
    frame = adapt_frame(patch, point)
    dJ = field_derivative(patch, frame.point, which="j")
    return PointJet(frame=frame, dJ=dJ, Gamma=christoffel(patch, frame.point, frame.E))


def random_unitary_rotation(n: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Random U(n) elements as 2n x 2n orthogonal matrices commuting with J0, shape + (2n, 2n).

    Exponentiates a random u(n) generator: the real embedding of a complex
    skew-Hermitian matrix X + iY with X skew and Y symmetric.  Each element
    draws its X, then its Y, in C order over ``shape`` from one call of the
    stream, so a stack holds the matrices that as many single draws give.
    """
    X, Y = np.moveaxis(rng.standard_normal(shape + (2, n, n)), -3, 0)
    X = X - np.swapaxes(X, -1, -2)
    Y = 0.5 * (Y + np.swapaxes(Y, -1, -2))
    H = X + 1j * Y
    w, V = np.linalg.eigh(1j * H)
    Uc = (V * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)
    U = np.zeros(shape + (2 * n, 2 * n))
    U[..., :n, :n] = Uc.real
    U[..., :n, n:] = -Uc.imag
    U[..., n:, :n] = Uc.imag
    U[..., n:, n:] = Uc.real
    return U
