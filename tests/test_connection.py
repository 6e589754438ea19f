"""Connection tables, structure equations, curvature, and the sign tripwire."""

import dataclasses

import numpy as np
import pytest

from twistorcheck import (
    FrameDiscontinuity,
    PointJet,
    adapt_frame,
    christoffel,
    conformal_hermitian,
    connection_coefficients,
    connection_derivative,
    curvature_forms,
    default_entries,
    field_derivative,
    flat_kahler,
    frame_field_jet,
    j0_matrix,
    nearly_kahler_s6,
    random_unitary_rotation,
    rotate_frame,
    structure_equation_residual,
)
from twistorcheck.catalog import sample_points
from twistorcheck.connection import (
    first_bianchi_residual,
    nabla_j_connection,
    round_sphere_curvature_residual,
    sigma_part,
)
from twistorcheck.geometry import evaluate_frame_field

CONFORMAL_POINT = np.array([1.3, 0.9, 1.1, 1.7])


def field_jet(patch, point):
    """The frame-field jet of the adapted frame at ``point``."""
    return frame_field_jet(patch, adapt_frame(patch, point))


def table_at(patch, frame):
    return connection_coefficients(frame_field_jet(patch, frame))


def structure_residual(patch, point):
    return structure_equation_residual(field_jet(patch, point))


def curvature_at(patch, point):
    jet = field_jet(patch, point)
    return curvature_forms(jet, connection_derivative(patch, jet))


def test_flat_connection_vanishes():
    patch = flat_kahler(3).patch
    frame = adapt_frame(patch, np.zeros(6))
    assert np.abs(table_at(patch, frame)).max() == 0.0


def test_conformal_antisymmetry_and_magnitude():
    patch = conformal_hermitian().patch
    omega = table_at(patch, adapt_frame(patch, CONFORMAL_POINT))
    assert np.abs(omega + omega.transpose(1, 0, 2)).max() < 1e-9
    assert np.abs(omega).max() > 0.1  # guards against a degenerate test


def test_structure_equation_on_catalog():
    assert structure_residual(flat_kahler(2).patch, np.zeros(4)) < 1e-12
    assert structure_residual(conformal_hermitian().patch, CONFORMAL_POINT) < 1e-6
    assert (
        structure_residual(nearly_kahler_s6().patch, np.array([0.1, 0.05, -0.12, 0.03, 0.2, -0.07]))
        < 1e-6
    )


def test_sign_flip_tripwire():
    # The first structure equation pins the sign convention of omega: flipping
    # it must push the residual far from the noise floor.
    jet = field_jet(conformal_hermitian().patch, CONFORMAL_POINT)
    res = structure_equation_residual(dataclasses.replace(jet, w=-jet.w))
    assert res > 1e-3


def test_round_sphere_curvature_identity_at_origin():
    patch = nearly_kahler_s6().patch
    R = curvature_at(patch, np.zeros(6))
    assert round_sphere_curvature_residual(R) < 1e-4
    assert np.abs(R + R.transpose(1, 0, 2, 3)).max() < 1e-6
    assert np.abs(R + R.transpose(0, 1, 3, 2)).max() < 1e-6


def test_round_sphere_curvature_identity_elsewhere():
    # Constant curvature: the frame components repeat at a second point.
    patch = nearly_kahler_s6().patch
    u = np.full(6, 0.5 / np.sqrt(6.0))  # |u| = 0.5
    assert round_sphere_curvature_residual(curvature_at(patch, u)) < 1e-4


def test_flat_curvature_vanishes():
    assert np.abs(curvature_at(flat_kahler(2).patch, np.zeros(4))).max() < 1e-12


def test_first_bianchi_on_catalog():
    for patch, point in (
        (conformal_hermitian().patch, CONFORMAL_POINT),
        (nearly_kahler_s6().patch, np.array([0.1, -0.05, 0.0, 0.12, 0.08, -0.1])),
    ):
        assert first_bianchi_residual(curvature_at(patch, point)) < 1e-4


def test_structure_equation_across_catalog():
    rng = np.random.default_rng(19)
    for entry in default_entries():
        worst = max(
            structure_residual(entry.patch, point)
            for point in sample_points(entry.patch, 5, rng)
        )
        assert worst < 1e-6, f"{entry.id}: structure residual {worst:.3e}"


def test_metric_compatibility_via_antisymmetry():
    # d g(e_A, e_B) = 0 along coordinate directions is exactly the skewness of
    # the coordinate slices of omega.
    patch = nearly_kahler_s6().patch
    u = np.array([0.15, -0.1, 0.05, 0.0, 0.2, 0.1])
    w = field_jet(patch, u).w
    assert np.abs(w + w.transpose(1, 0, 2)).max() < 1e-9


def nabla_j_table(patch, frame):
    """sigma from nabla J in ``frame``, with dJ and Gamma evaluated at its point."""
    u = frame.point
    jet = PointJet(
        frame=frame, dJ=field_derivative(patch, u, which="j"), Gamma=christoffel(patch, u, frame.g)
    )
    return nabla_j_connection(jet)


def test_connection_encodes_nabla_j():
    # In an adapted frame, nabla_{e_C} J has frame matrix [J0, omega(e_C)].
    # The table read off nabla J never differentiates the frame field, so
    # agreement of the brackets certifies the frame-differentiated table.
    cases = (
        (nearly_kahler_s6().patch, np.zeros(6)),
        (nearly_kahler_s6().patch, np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])),
        (conformal_hermitian().patch, CONFORMAL_POINT),
    )
    for patch, point in cases:
        frame = adapt_frame(patch, point)
        J0 = j0_matrix(patch.n)

        def bracket(om):
            return np.einsum("xz,zyC->Cxy", J0, om) - np.einsum("xzC,zy->Cxy", om, J0)

        om = table_at(patch, frame)
        sigma = nabla_j_table(patch, frame)
        assert np.abs(bracket(om) - bracket(sigma)).max() < 1e-8


def test_nabla_j_route_matches_sigma_part_on_catalog():
    rng = np.random.default_rng(23)
    for entry in default_entries():
        patch = entry.patch
        for point in sample_points(patch, 2, rng):
            frame = adapt_frame(patch, point)
            for fr in (frame, rotate_frame(frame, random_unitary_rotation(patch.n, rng))):
                full = table_at(patch, fr)
                sigma = nabla_j_table(patch, fr)
                gap = np.abs(sigma_part(full) - sigma).max()
                assert gap < 1e-8, f"{entry.id}: sigma routes differ by {gap:.3e}"
                # sigma anticommutes with J0 slice by slice: its u(n) part is zero
                assert np.array_equal(sigma_part(sigma), sigma)


def test_nabla_j_route_rejects_flipped_sigma():
    patch = conformal_hermitian().patch
    frame = adapt_frame(patch, CONFORMAL_POINT)
    sigma = nabla_j_table(patch, frame)
    reference = sigma_part(table_at(patch, frame))
    assert np.abs(reference + sigma).max() > 1e-3


def test_nearly_kahler_connection_carries_the_torsion():
    # No adapted frame on the unit nearly Kahler sphere can have omega = 0 at
    # a point: that would force nabla J = 0 there, while |nabla J|^2 = 24
    # everywhere.  The metric (Christoffel) part alone does vanish at the
    # chart origin, which is what the symmetry of the conformal factor gives.
    patch = nearly_kahler_s6().patch
    frame = adapt_frame(patch, np.zeros(6))
    # K_C = -2 sigma_C J0 with J0 orthogonal, so |nabla J|^2 = 4 |sigma|^2.
    sigma = nabla_j_table(patch, frame)
    assert abs(4.0 * float((sigma**2).sum()) - 24.0) < 1e-6
    assert np.abs(table_at(patch, frame)).max() > 0.5


def test_frame_discontinuity_guard():
    patch = conformal_hermitian().patch
    frame = adapt_frame(patch, CONFORMAL_POINT)
    doctored = dataclasses.replace(frame, pivots=(1, 0))
    with pytest.raises(FrameDiscontinuity):
        evaluate_frame_field(patch, doctored, frame.point)


def test_structure_equation_shares_the_stencil_frames(monkeypatch):
    # The connection differentiates the stencil frames' E and the coframe
    # their g E: one batched frame call on the 2 dim stencil, whose g and J
    # are the only field values the residual evaluates.
    from twistorcheck import geometry

    patch = nearly_kahler_s6().patch
    u = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
    frame = adapt_frame(patch, u)
    jet = frame_field_jet(patch, frame)
    assert jet.stencil.E.shape == (12, 6, 6)
    assert np.array_equal(jet.w, frame_field_jet(patch, frame).w)
    expected = structure_equation_residual(jet)

    calls = {"frame": 0, "g": 0, "J": 0}
    original = geometry.adapt_frame

    def counting_frame(*args, **kwargs):
        calls["frame"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "adapt_frame", counting_frame)

    def counted(key, field):
        def call(v):
            calls[key] += 1
            return field(v)
        return call

    counting = dataclasses.replace(
        patch, metric_field=counted("g", patch.metric_field), j_field=counted("J", patch.j_field)
    )
    assert structure_equation_residual(frame_field_jet(counting, frame)) == expected
    assert calls == {"frame": 1, "g": 1, "J": 1}


def test_connection_at_displaced_points_reads_the_frames_metric():
    """The d omega block at displaced points evaluates g only inside its one frame call."""
    from twistorcheck.connection import DEFAULT_SECOND_ORDER_STEP
    from twistorcheck.geometry import stencil_difference, stencil_points

    patch = nearly_kahler_s6().patch
    u = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
    jet = frame_field_jet(patch, adapt_frame(patch, u[None]))
    g_calls = 0

    def counting(v):
        nonlocal g_calls
        g_calls += 1
        return patch.metric_field(v)

    dw = connection_derivative(dataclasses.replace(patch, metric_field=counting), jet)
    assert g_calls == 1
    outer = stencil_points(u, DEFAULT_SECOND_ORDER_STEP)
    alone = np.stack([field_jet(patch, v).w for v in outer])
    assert np.array_equal(dw[0], stencil_difference(alone, DEFAULT_SECOND_ORDER_STEP, 0))
