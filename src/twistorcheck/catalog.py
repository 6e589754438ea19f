"""Benchmark patches: flat, conformal Hermitian, round six-sphere, perturbed torus.

Each entry packages a ``ManifoldPatch`` with attribute flags and the handful
of quantities known in closed form (used by tests as frozen expectations).
The six-sphere entry carries the canonical almost complex structure built
from the seven-dimensional cross product; the patch invariants J^2 = -Id and
metric compatibility double as a certificate that the multiplication table
is a genuine octonion table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartOverflow
from .geometry import ManifoldPatch, first_index, j0_matrix

S6_CHART_RADIUS = 0.9
# Axis bound chosen so every corner of the box satisfies |u| <= 0.35 sqrt(6) < 0.9,
# leaving finite-difference stencils strictly inside the chart.
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


def cross7(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Seven-dimensional cross product of imaginary octonions (batched over leading axes)."""
    return (_cross_operator(x) @ np.asarray(y, dtype=float)[..., None])[..., 0]


def _cross_operator(p: np.ndarray) -> np.ndarray:
    """Matrices of X -> p x X, L[..., k, j] = sum_i f_ijk p_i."""
    p = np.asarray(p, dtype=float)
    L = (p[..., None, :] @ _CROSS_F.reshape(7, 49)).reshape(p.shape[:-1] + (7, 7))
    return np.swapaxes(L, -1, -2)


def _norm2(u: np.ndarray) -> np.ndarray:
    """|u|^2 along the last axis."""
    return (u * u).sum(axis=-1)


def stereographic_point(u: np.ndarray) -> np.ndarray:
    """Inverse stereographic map of the unit six-sphere, chart origin at a pole."""
    u = np.asarray(u, dtype=float)
    r2 = _norm2(u)[..., None]
    s = 1.0 + r2
    return np.concatenate([2.0 * u / s, (r2 - 1.0) / s], axis=-1)


def stereographic_jacobian(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    s = (1.0 + _norm2(u))[..., None, None]
    D = np.zeros(u.shape[:-1] + (7, 6))
    D[..., :6, :] = (2.0 / s) * (np.eye(6) - 2.0 * (u[..., :, None] * u[..., None, :]) / s)
    D[..., 6, :] = 4.0 * u / s[..., 0] ** 2
    return D


@dataclass(frozen=True)
class CatalogEntry:
    """A benchmark patch, which carries the attribute flags, plus its known quantities."""

    id: str
    patch: ManifoldPatch
    expected: dict = field(default_factory=dict)


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
    return CatalogEntry(
        id=f"flat:{n}",
        patch=patch,
        expected={"normN2": 0.0, "margin": 1.0},
    )


def conformal_hermitian() -> CatalogEntry:
    """Integrable non-Kahler regime: g = |u|^{-2} Id on a box away from the origin.

    J is the constant reference structure, so the Nijenhuis tensor vanishes,
    but the conformal factor makes the connection forms (hence alpha, beta)
    nonzero at generic points.
    """
    n = 2
    dim = 4

    def metric(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.eye(dim) / _norm2(u)[..., None, None]

    def metric_jet(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
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
    return CatalogEntry(id="conformal4", patch=patch, expected={"normN2": 0.0})


def _s6_metric(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    s = (1.0 + _norm2(u))[..., None, None]
    return (4.0 / s**2) * np.eye(6)


def _s6_metric_jet(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    s = 1.0 + _norm2(u)[..., None]
    return _radial_jet(-16.0 * u / s**3, 6)


def _s6_j(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    r2 = _norm2(u)
    bad = first_index(r2 >= S6_CHART_RADIUS**2)
    if bad is not None:
        raise ChartOverflow(
            f"|u| = {np.sqrt(r2[bad]):.4f} >= {S6_CHART_RADIUS} at {u[bad].tolist()}; "
            "point left the chart"
        )
    s = 1.0 + r2
    D = stereographic_jacobian(u)
    J = np.swapaxes(D, -1, -2) @ (_cross_operator(stereographic_point(u)) @ D)
    # pinv(D) = (s^2/4) D^T because D^T D = (4/s^2) Id
    J *= (s**2 / 4.0)[..., None, None]
    return J


def nearly_kahler_s6() -> CatalogEntry:
    """Unit round six-sphere with the cross-product almost complex structure.

    The chart is the stereographic one; tangent vectors are pushed to the
    sphere in R^7, rotated by X -> p x X at the base point p, and pulled back.
    """
    patch = ManifoldPatch(
        n=3,
        domain=_box((-S6_BOX_BOUND, S6_BOX_BOUND), 6),
        metric_field=_s6_metric,
        j_field=_s6_j,
        metric_jet=_s6_metric_jet,
        j_jet=None,
        label="nk-s6",
        attributes=frozenset({"unit_round_sphere", "nearly_kahler"}),
    )
    return CatalogEntry(
        id="nk-s6",
        patch=patch,
        expected={"normN2_at_least": 64.0 / 5.0, "normN2_constant_rel": 1e-4},
    )


def perturbed_torus(eps: float = 0.05, freq: int = 1) -> CatalogEntry:
    """Flat metric with J rotated out of the constant orbit along the first axis.

    J(u) = R(u) J0 R(u)^T with R(u) = exp(t G), t = eps sin(freq u_1), for the
    fixed skew generator G = e_1 e_3^T - e_3 e_1^T, which does not commute
    with J0; the squared Nijenhuis norm grows like eps^2.
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
        R = rotation(eps * np.sin(freq * np.asarray(u, dtype=float)[..., 0]))
        return R @ J0 @ np.swapaxes(R, -1, -2)

    patch = ManifoldPatch(
        n=n,
        domain=_box((-np.pi, np.pi), dim),
        metric_field=_constant(eye),
        j_field=j_field,
        metric_jet=_constant(np.zeros((dim, dim, dim))),
        j_jet=None,
        label=f"torus:eps={eps:g},freq={freq}",
    )
    return CatalogEntry(
        id=f"torus:eps={eps:g},freq={freq}",
        patch=patch,
        expected={"generator": "e1 e3^T - e3 e1^T", "eps": eps, "freq": freq},
    )


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
    ``torus:eps=<r>,freq=<k>``.
    """
    if manifold_id == "conformal4":
        return conformal_hermitian()
    if manifold_id == "nk-s6":
        return nearly_kahler_s6()
    if manifold_id.startswith("flat:"):
        try:
            n = int(manifold_id.split(":", 1)[1])
        except ValueError:
            raise KeyError(f"bad flat manifold id {manifold_id!r}") from None
        return flat_kahler(n)
    m = _TORUS_RE.match(manifold_id)
    if m:
        return perturbed_torus(eps=float(m.group(1)), freq=int(m.group(2)))
    raise KeyError(f"unknown manifold id {manifold_id!r}")


def grid_points(patch: ManifoldPatch, per_axis: int, inset: float = 0.05) -> np.ndarray:
    """Deterministic grid of interior points, row-major over axes.

    Each axis is sampled at ``per_axis`` equally spaced values inset from the
    boundary by ``inset`` times the axis length (a single point sits at the
    center), keeping finite-difference stencils inside the domain.
    """
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    axes = []
    for lo, hi in patch.domain:
        pad = inset * (hi - lo)
        if per_axis == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
        else:
            axes.append(np.linspace(lo + pad, hi - pad, per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def sample_points(
    patch: ManifoldPatch, count: int, rng: np.random.Generator, inset: float = 0.1
) -> np.ndarray:
    """Seeded uniform interior points, inset from the boundary like grid_points."""
    lo = patch.domain[:, 0]
    hi = patch.domain[:, 1]
    pad = inset * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(count, patch.dim))
