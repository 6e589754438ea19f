"""Benchmark patches: flat, conformal Hermitian, round six-sphere, perturbed torus.

Each entry packages a ``ManifoldPatch``, with its attribute flags, under the
identifier the command line resolves.
The six-sphere entry carries the canonical almost complex structure built
from the seven-dimensional cross product; the patch invariants J^2 = -Id and
metric compatibility double as a certificate that the multiplication table
is a genuine octonion table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .geometry import ManifoldPatch, j0_matrix

# Axis bound of the nk-s6 box, whose corners have |u| = 0.35 sqrt(6) < 0.86.
# J and its jet hold on all of R^6 (s = 1 + |u|^2 >= 1), so the bound only
# fixes where points are sampled and scanned.
S6_BOX_BOUND = 0.35

# Oriented multiplication triples e_a e_b = e_c: the quaternion line (1,2,3)
# doubled by e_4 so that e_1 e_4 = e_5, e_2 e_4 = e_6, e_3 e_4 = e_7; the
# remaining lines follow from the doubling construction.
_OCTONION_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (1, 7, 6), (2, 5, 7), (3, 6, 5))


def _cross_structure_constants() -> np.ndarray:
    f = np.zeros((7, 7, 7))
    for a, b, c in _OCTONION_TRIPLES:
        a, b, c = a - 1, b - 1, c - 1
        for (i, j, k), s in (
            ((a, b, c), 1.0),
            ((b, c, a), 1.0),
            ((c, a, b), 1.0),
            ((b, a, c), -1.0),
            ((a, c, b), -1.0),
            ((c, b, a), -1.0),
        ):
            f[i, j, k] = s
    return f


_CROSS_F = _cross_structure_constants()


def _norm2(u: np.ndarray) -> np.ndarray:
    """|u|^2 along the last axis."""
    return (u * u).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A benchmark patch, which carries the attribute flags; its catalog id is the patch's label."""

    patch: ManifoldPatch

    @property
    def id(self) -> str:
        return self.patch.label


def _box(bound_per_axis, dim: int) -> np.ndarray:
    return np.array([bound_per_axis] * dim, dtype=float)


def _constant(value: np.ndarray):
    """A field (or jet) that takes ``value`` at every point of a batch."""
    value = np.array(value, dtype=float)
    value.flags.writeable = False
    return lambda u: np.broadcast_to(value, np.shape(u)[:-1] + value.shape)


def _radial_jet(coef: np.ndarray, dim: int) -> np.ndarray:
    """Jet of a conformal metric: [..., c, a, b] = coef[..., c] delta_ab."""
    return coef[..., :, None, None] * np.eye(dim)


def flat_kahler(n: int) -> CatalogEntry:
    """Euclidean metric with the constant reference complex structure."""
    if n < 2:
        raise ValueError("n must be at least 2")
    dim = 2 * n
    zero_jet = _constant(np.zeros((dim, dim, dim)))
    patch = ManifoldPatch(
        n=n,
        domain=_box((-1.0, 1.0), dim),
        metric_field=_constant(np.eye(dim)),
        j_field=_constant(j0_matrix(n)),
        metric_jet=zero_jet,
        j_jet=zero_jet,
        label=f"flat:{n}",
        attributes=frozenset({"integrable", "flat"}),
    )
    return CatalogEntry(patch=patch)


def conformal_hermitian() -> CatalogEntry:
    """Integrable non-Kahler regime: g = |u|^{-2} Id on a box away from the origin.

    J is the constant reference structure, so the Nijenhuis tensor vanishes,
    but the conformal factor makes the connection forms (hence alpha, beta)
    nonzero at generic points.
    """
    n = 2
    dim = 4

    def metric(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        return np.eye(dim) / _norm2(u)[..., None, None]

    def metric_jet(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        r2 = _norm2(u)[..., None]
        return _radial_jet(-2.0 * u / r2**2, dim)

    patch = ManifoldPatch(
        n=n,
        domain=_box((0.5, 2.5), dim),
        metric_field=metric,
        j_field=_constant(j0_matrix(n)),
        metric_jet=metric_jet,
        j_jet=_constant(np.zeros((dim, dim, dim))),
        label="conformal4",
        attributes=frozenset({"integrable"}),
    )
    return CatalogEntry(patch=patch)


def _s6_metric(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    s = (1.0 + _norm2(u))[..., None, None]
    return (4.0 / s**2) * np.eye(6)


def _s6_metric_jet(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    s = 1.0 + _norm2(u)[..., None]
    return _radial_jet(-16.0 * u / s**3, 6)


def _s6_cross_forms(u: np.ndarray):
    """(2/s, alpha, v, G, K) at each point of a batch, the terms that J and its jet share.

    With s = 1 + |u|^2, alpha = (2/s) u, v = (u, -1), the alternating
    cross-product form f(x, y, z) = sum_ijk f_ijk x_i y_j z_k and
    G_pq = f(v, e_p, e_q), K is the skew K_ab = alpha_a G_b7 - G_a7 alpha_b -
    f_7ab.  Since s >= 1, the forms hold at every point of R^6.
    """
    batch = u.shape[:-1]
    scale = 2.0 / (1.0 + _norm2(u))[..., None]
    alpha = scale * u
    v = np.concatenate([u, np.full(batch + (1,), -1.0)], axis=-1)
    G = (v[..., None, :] @ _CROSS_F.reshape(7, 49)).reshape(batch + (7, 7))
    K = alpha[..., :, None] * G[..., None, :6, 6]
    K -= np.swapaxes(K, -1, -2)
    K -= _CROSS_F[6, :6, :6]
    return scale, alpha, v, G, K


def _s6_j(u: np.ndarray) -> np.ndarray:
    """The cross-product J in closed form: J_ab = K_ab - (2/s) G_ab (see ``_s6_j_jet``)."""
    scale, _, _, G, K = _s6_cross_forms(np.asarray(u))
    return K - scale[..., None] * G[..., :6, :6]


def _s6_j_jet(u: np.ndarray) -> np.ndarray:
    """Closed-form jet dJ[..., c, a, b] = d_c J^a_b of ``_s6_j``, from the same v, G and K.

    J is X -> p x X on the sphere pulled back by the chart.  The reflection
    H = I_7 - 2 v v^T / s has columns P_y = e_y - alpha_y v, alpha_y =
    2 v_y / s; the stereographic Jacobian is (2/s) H[:, :6] and the base
    point P_7, so J_ab = T[7, a, b] for T[x, a, b] = f(P_x, P_b, P_a).  Only
    the terms of T with at most one v survive: J_ab = K_ab - (2/s) G_ab and
    T_cab = alpha_c G_ab - f_cab - alpha_b G_ac - alpha_a G_cb.  Since
    H d_c H = (2/s)(v e_c^T - e_c v^T),
    d_c J_ab = (2/s) [T_cab - u_a J_cb - u_b J_ac - delta_ca w_b + delta_cb w_a]
    with w = J u.  Collecting the u_a and u_b terms,
    d_c J_ab = (2/s) [alpha_c G_ab - f_cab - Q_cab + Q_cba],
    Q_cab = u_a K_cb + delta_ca w_b.
    """
    u = np.asarray(u)
    batch = u.shape[:-1]
    scale, alpha, v, G, K = _s6_cross_forms(u)
    w = ((K - scale[..., None] * G[..., :6, :6]) @ u[..., :, None])[..., 0]
    # (2/s)(alpha_c G_ab - f_cab) = sum_i Z_ci f_iab
    Z = alpha[..., :, None] * v[..., None, :]
    Z[..., :6] -= np.eye(6)
    Z *= scale[..., None]
    dJ = (Z @ _CROSS_F[:, :6, :6].reshape(7, 36)).reshape(batch + (6, 6, 6))
    Q = alpha[..., None, :, None] * K[..., :, None, :]  # (2/s) Q
    diagonal = np.arange(6)
    Q[..., diagonal, diagonal, :] += (scale * w)[..., None, :]
    dJ -= Q
    dJ += np.swapaxes(Q, -1, -2)
    return dJ


def nearly_kahler_s6() -> CatalogEntry:
    """Unit round six-sphere with the cross-product almost complex structure.

    The chart is the stereographic one, and J pushes tangent vectors to the
    sphere in R^7, rotates them by X -> p x X at the base point p and pulls
    them back.  Both J fields, ``_s6_j`` and its jet ``_s6_j_jet``, evaluate
    that pull-back's closed form from the same v, G and K; the metric and its
    jet are closed-form too.
    """
    patch = ManifoldPatch(
        n=3,
        domain=_box((-S6_BOX_BOUND, S6_BOX_BOUND), 6),
        metric_field=_s6_metric,
        j_field=_s6_j,
        metric_jet=_s6_metric_jet,
        j_jet=_s6_j_jet,
        label="nk-s6",
        attributes=frozenset({"unit_round_sphere", "nearly_kahler"}),
    )
    return CatalogEntry(patch=patch)


def perturbed_torus(eps: float = 0.05, freq: int = 1) -> CatalogEntry:
    """Flat metric with J rotated out of the constant orbit along the first axis.

    J(u) = R(u) J0 R(u)^T with R(u) = exp(t G), t = eps sin(freq u_1), for the
    fixed skew generator G = e_1 e_3^T - e_3 e_1^T, which does not commute
    with J0; the squared Nijenhuis norm grows like eps^2.  R commutes with
    G, so the J jet is closed-form: only d_1 J = t' (G J - J G) is nonzero,
    with t' = eps freq cos(freq u_1), exact at any freq.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError("eps must lie in [0, 0.5]")
    if freq < 1 or int(freq) != freq:
        raise ValueError("freq must be a positive integer")
    n = 3
    dim = 6
    eye = np.eye(dim)
    J0 = j0_matrix(n)
    G = np.zeros((dim, dim))
    G[0, 2] = 1.0
    G[2, 0] = -1.0
    P = np.zeros((dim, dim))
    P[0, 0] = P[2, 2] = 1.0  # G^2 = -P, so exp(tG) has a closed form

    def rotation(t: np.ndarray) -> np.ndarray:
        t = t[..., None, None]
        return eye - (1.0 - np.cos(t)) * P + np.sin(t) * G

    def j_field(u: np.ndarray) -> np.ndarray:
        R = rotation(eps * np.sin(freq * np.asarray(u)[..., 0]))
        return R @ J0 @ np.swapaxes(R, -1, -2)

    def j_jet(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        J = j_field(u)
        rate = eps * freq * np.cos(freq * u[..., 0])
        jet = np.zeros(u.shape[:-1] + (dim, dim, dim), dtype=np.result_type(u, float))
        jet[..., 0, :, :] = rate[..., None, None] * (G @ J - J @ G)
        return jet

    patch = ManifoldPatch(
        n=n,
        domain=_box((-np.pi, np.pi), dim),
        metric_field=_constant(eye),
        j_field=j_field,
        metric_jet=_constant(np.zeros((dim, dim, dim))),
        j_jet=j_jet,
        # repr: the shortest text that reads back as eps, so the id resolves to this torus
        label=f"torus:eps={float(eps)!r},freq={freq}",
    )
    return CatalogEntry(patch=patch)


def default_entries() -> list:
    """The benchmark suite exercised by scans and acceptance checks."""
    return [
        flat_kahler(2),
        flat_kahler(3),
        flat_kahler(4),
        conformal_hermitian(),
        nearly_kahler_s6(),
        perturbed_torus(eps=0.05, freq=1),
    ]


_TORUS_RE = re.compile(r"^torus:eps=([0-9.eE+-]+),freq=([0-9]+)$")


def resolve(manifold_id: str) -> CatalogEntry:
    """Look up a catalog entry by its CLI identifier.

    Recognized forms: ``flat:<n>``, ``conformal4``, ``nk-s6``,
    ``torus:eps=<r>,freq=<k>``, each matched whole with ASCII digits; any
    other id raises ValueError.
    """
    if manifold_id == "conformal4":
        return conformal_hermitian()
    if manifold_id == "nk-s6":
        return nearly_kahler_s6()
    if manifold_id.startswith("flat:"):
        m = re.fullmatch(r"flat:([0-9]+)", manifold_id)
        if not m:
            raise ValueError(f"bad flat manifold id {manifold_id!r}")
        return flat_kahler(int(m.group(1)))
    m = _TORUS_RE.fullmatch(manifold_id)
    if m:
        try:
            eps = float(m.group(1))
        except ValueError:
            raise ValueError(f"bad torus manifold id {manifold_id!r}") from None
        return perturbed_torus(eps=eps, freq=int(m.group(2)))
    raise ValueError(f"unknown manifold id {manifold_id!r}")


# Fractions of each axis length kept clear of the boundary by grid_points and
# sample_points; their values fix the points of every scan and verify-geometry run.
GRID_INSET = 0.05
SAMPLE_INSET = 0.1


def grid_points(patch: ManifoldPatch, per_axis: int) -> np.ndarray:
    """Deterministic grid of interior points, row-major over axes.

    Each axis is sampled at ``per_axis`` equally spaced values inset from the
    boundary by ``GRID_INSET`` times the axis length (a single point sits at
    the center).
    """
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    axes = []
    for lo, hi in patch.domain:
        pad = GRID_INSET * (hi - lo)
        if per_axis == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
        else:
            axes.append(np.linspace(lo + pad, hi - pad, per_axis))
    # Point k takes on each axis the matching digit of k in base per_axis, the
    # last axis varying fastest; np.meshgrid would refuse more than 32 axes.
    powers = per_axis ** np.arange(patch.dim - 1, -1, -1)
    digits = np.arange(per_axis**patch.dim)[:, None] // powers % per_axis
    return np.array(axes)[np.arange(patch.dim), digits]


def sample_points(patch: ManifoldPatch, count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform interior points, inset from the boundary by ``SAMPLE_INSET``."""
    lo = patch.domain[:, 0]
    hi = patch.domain[:, 1]
    pad = SAMPLE_INSET * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(count, patch.dim))
