"""Connection tables, structure equations, curvature, and the sign tripwire."""

import dataclasses

import numpy as np
import pytest

from twistorcheck import (
    FrameDiscontinuity,
    adapt_frame,
    conformal_hermitian,
    connection_coefficients,
    connection_derivative,
    curvature_forms,
    default_entries,
    flat_kahler,
    frame_field_jet,
    j0_matrix,
    nearly_kahler_s6,
    point_jet,
    random_unitary_rotation,
    rotate_frame,
    structure_equation_residual,
)
from twistorcheck.catalog import sample_points
from twistorcheck.connection import (
    coordinate_connection,
    nabla_j_connection,
    round_sphere_curvature_residual,
    sigma_part,
)
from twistorcheck.geometry import (
    christoffel,
    evaluate_frame_field,
    require_interior,
    stencil_difference,
    stencil_points,
)

CONFORMAL_POINT = np.array([1.3, 0.9, 1.1, 1.7])


def field_jet(patch, point):
    """The frame-field jet at ``point``."""
    return frame_field_jet(patch, point)


def table_at(patch, point):
    return connection_coefficients(frame_field_jet(patch, point))


def rotated_table(table, U):
    """The connection table of the frame E U for a constant U(n) element U: a
    tensor in all three slots."""
    return np.einsum("abc,aA,bB,cC->ABC", table, U, U, U)


def counting_frames(monkeypatch, calls):
    """Count adapt_frame calls in ``calls["frame"]``, from every module that imports it."""
    from twistorcheck import connection, geometry

    original = geometry.adapt_frame

    def counting_frame(*args, **kwargs):
        calls["frame"] += 1
        return original(*args, **kwargs)

    for module in (geometry, connection):
        monkeypatch.setattr(module, "adapt_frame", counting_frame)


def structure_residual(patch, point):
    return structure_equation_residual(field_jet(patch, point))


def first_bianchi_residual(R):
    """Max over indices of the cyclic sum R_{AB}(e_C,e_D) + R_{AC}(e_D,e_B) + R_{AD}(e_B,e_C)."""
    cyc = R + np.moveaxis(R, -3, -1) + np.moveaxis(R, -1, -3)
    return float(np.abs(cyc).max())


def curvature_at(patch, point):
    jet = field_jet(patch, point)
    return curvature_forms(jet, connection_derivative(patch, jet))


def test_flat_connection_vanishes():
    patch = flat_kahler(3).patch
    assert np.abs(table_at(patch, np.zeros(6))).max() == 0.0


def test_conformal_antisymmetry_and_magnitude():
    patch = conformal_hermitian().patch
    omega = table_at(patch, CONFORMAL_POINT)
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
        jet = point_jet(patch, point)
        J0 = j0_matrix(patch.n)

        def bracket(om):
            return np.einsum("xz,zyC->Cxy", J0, om) - np.einsum("xzC,zy->Cxy", om, J0)

        om = table_at(patch, point)
        sigma = nabla_j_connection(jet)
        assert np.abs(bracket(om) - bracket(sigma)).max() < 1e-8


def test_nabla_j_route_matches_sigma_part_on_catalog():
    rng = np.random.default_rng(23)
    for entry in default_entries():
        patch = entry.patch
        for point in sample_points(patch, 2, rng):
            jet, table = point_jet(patch, point), table_at(patch, point)
            U = random_unitary_rotation(patch.n, rng)
            for rotated, full in ((jet, table), (jet.rotated(U), rotated_table(table, U))):
                sigma = nabla_j_connection(rotated)
                gap = np.abs(sigma_part(full) - sigma).max()
                assert gap < 1e-8, f"{entry.id}: sigma routes differ by {gap:.3e}"
                # sigma anticommutes with J0 slice by slice: its u(n) part is zero
                assert np.array_equal(sigma_part(sigma), sigma)


def test_nabla_j_route_rejects_flipped_sigma():
    patch = conformal_hermitian().patch
    jet = point_jet(patch, CONFORMAL_POINT)
    sigma = nabla_j_connection(jet)
    reference = sigma_part(table_at(patch, CONFORMAL_POINT))
    assert np.abs(reference + sigma).max() > 1e-3


def test_nearly_kahler_connection_carries_the_torsion():
    # No adapted frame on the unit nearly Kahler sphere can have omega = 0 at
    # a point: that would force nabla J = 0 there, while |nabla J|^2 = 24
    # everywhere.  The metric (Christoffel) part alone does vanish at the
    # chart origin, which is what the symmetry of the conformal factor gives.
    patch = nearly_kahler_s6().patch
    jet = point_jet(patch, np.zeros(6))
    # K_C = -2 sigma_C J0 with J0 orthogonal, so |nabla J|^2 = 4 |sigma|^2.
    sigma = nabla_j_connection(jet)
    assert abs(4.0 * float((sigma**2).sum()) - 24.0) < 1e-6
    assert np.abs(table_at(patch, np.zeros(6))).max() > 0.5


def test_frame_discontinuity_guard():
    patch = conformal_hermitian().patch
    frame = adapt_frame(patch, CONFORMAL_POINT)
    doctored = dataclasses.replace(frame, pivots=(1, 0))
    with pytest.raises(FrameDiscontinuity):
        evaluate_frame_field(patch, doctored, frame.point)


def test_structure_equation_shares_the_stencil_frames(monkeypatch):
    # The connection differentiates the stencil frames' E and the coframe
    # their g E: one batched frame call on the point and its 2 dim stencil,
    # whose g and J are the only field values the residual evaluates, and
    # one metric jet for the point jet's Christoffel symbols.
    patch = nearly_kahler_s6().patch
    u = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
    jet = frame_field_jet(patch, u)
    assert jet.stencil.E.shape == (12, 6, 6)
    assert np.array_equal(jet.w, frame_field_jet(patch, u).w)
    expected = structure_equation_residual(jet)

    calls = {"frame": 0, "g": 0, "J": 0, "dg": 0}
    counting_frames(monkeypatch, calls)

    def counted(key, field):
        def call(v):
            calls[key] += 1
            return field(v)
        return call

    counting = dataclasses.replace(
        patch,
        metric_field=counted("g", patch.metric_field),
        j_field=counted("J", patch.j_field),
        metric_jet=counted("dg", patch.metric_jet),
    )
    assert structure_equation_residual(frame_field_jet(counting, u)) == expected
    assert calls == {"frame": 1, "g": 1, "J": 1, "dg": 1}


def two_call_build(patch, point, step):
    """The frame-field jet as two frame calls: the point jet's frames, then
    the frame field through them at the stencil points."""
    jet = point_jet(patch, point, step)
    stencil = evaluate_frame_field(patch, jet.frame, stencil_points(jet.frame.point, step))
    axis = jet.frame.point.ndim - 1
    dE = stencil_difference(stencil.E, step, axis)
    dT = stencil_difference(stencil.g @ stencil.E, step, axis)
    return jet, stencil, dE, dT, coordinate_connection(jet.frame.g, jet.frame.E, dE, jet.Gamma)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(), (3, 2)])
@pytest.mark.parametrize("entry", default_entries(), ids=lambda entry: entry.id)
def test_one_frame_batch_is_bitwise_the_two_call_build(entry, shape):
    """frame_field_jet builds the point's frame and its stencil frames in one
    call; its point jet is bitwise point_jet, and its stencil frames and
    differences are bitwise those of the two-call build."""
    patch, step = entry.patch, 1e-5
    count = int(np.prod(shape))
    u = sample_points(patch, count, np.random.default_rng(29)).reshape(shape + (patch.dim,))
    field = frame_field_jet(patch, u, step)
    jet, stencil, dE, dT, w = two_call_build(patch, u, step)
    assert field.step == step
    for name in ("point", "E", "g", "J", "pivots"):
        assert same_bits(getattr(field.frame, name), getattr(jet.frame, name)), name
        assert same_bits(getattr(field.stencil, name), getattr(stencil, name)), name
    for name in ("dJ", "Gamma"):
        assert same_bits(getattr(field.jet, name), getattr(jet, name)), name
    assert same_bits(field.Gamma, jet.Gamma)
    for name, expected in (("dE", dE), ("dT", dT), ("w", w)):
        assert same_bits(getattr(field, name), expected), name


def test_frame_field_jet_owns_read_only_slices():
    """Like AdaptedFrame and PointJet, the jet's w is a read-only array of its own."""
    patch = nearly_kahler_s6().patch
    jet = field_jet(patch, np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05]))
    assert jet.w.flags.owndata and not jet.w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        jet.w[...] = 0.0


def test_connection_at_displaced_points_reads_the_frames_metric(monkeypatch):
    """d omega at the stencil points reads the stencil frames' g: it builds no
    frame, evaluates no g and makes one metric-jet call."""
    patch = nearly_kahler_s6().patch
    u = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
    jet = field_jet(patch, u[None])
    expected = connection_derivative(patch, jet)
    calls = {"frame": 0, "g": 0, "dg": 0}
    counting_frames(monkeypatch, calls)

    def counted(key, field):
        def call(v):
            calls[key] += 1
            return field(v)
        return call

    counting = dataclasses.replace(
        patch, metric_field=counted("g", patch.metric_field), metric_jet=counted("dg", patch.metric_jet)
    )
    dw = connection_derivative(counting, jet)
    assert calls == {"frame": 0, "g": 0, "dg": 1}
    assert np.array_equal(dw, expected)
    assert dw.shape == (1, 6, 6, 6, 6)
    assert np.array_equal(dw[0], connection_derivative(patch, field_jet(patch, u)))


def round_sphere_residuals(patch, u, step):
    """(curvature, Chern) residuals per point of u, from the jets at ``step``."""
    from twistorcheck.twistorform import chern_identity_residual

    frames = frame_field_jet(patch, u, step)
    dw = connection_derivative(patch, frames)
    return round_sphere_curvature_residual(curvature_forms(frames, dw)), chern_identity_residual(patch, frames, dw)


def test_round_sphere_residuals_fall_fourfold_per_halving():
    """d omega is a first difference at the jet's step: halving that step
    quarters the curvature and Chern residuals at every point, so they
    measure the O(h^2) truncation error and not rounding."""
    patch = nearly_kahler_s6().patch
    u = sample_points(patch, 10, np.random.default_rng(0))
    coarse, fine = (round_sphere_residuals(patch, u, step) for step in (2e-4, 1e-4))
    for ratio in (coarse[0] / fine[0], coarse[1] / fine[1]):
        assert ratio.shape == (10,)
        assert np.all((3.5 <= ratio) & (ratio <= 4.5)), ratio


def test_round_sphere_residuals_fall_with_the_step_down_to_the_default():
    """From jet step 1e-4 to the default 1e-5 the residuals still fall as h^2,
    by at least 50 times at every point: no rounding floor above 1e-5."""
    patch = nearly_kahler_s6().patch
    u = sample_points(patch, 10, np.random.default_rng(0))
    coarse, fine = (round_sphere_residuals(patch, u, step) for step in (1e-4, 1e-5))
    for ratio in (coarse[0] / fine[0], coarse[1] / fine[1]):
        assert ratio.shape == (10,)
        assert np.all(ratio >= 50.0), ratio


def reference_connection_derivative(patch, frame, step, U=None):
    """The nested d omega block, d_c w[..., A, B, a] as [..., c, A, B, a]: the
    connection slices at each outer stencil point, from that point's own
    stencil frames and Christoffel symbols, differenced again, one step at
    both levels and all 2 dim (1 + 2 dim) frames built.  ``U``, one constant
    rotation per point, turns the block's frames into those of the field E U."""
    u = require_interior(patch, frame.point, margin=2.0 * step)
    outer = stencil_points(u, step)
    block = np.concatenate([outer[..., None, :], stencil_points(outer, step)], axis=-2)
    frames = evaluate_frame_field(patch, frame, block)
    E = frames.E if U is None else frames.E @ U[..., None, None, :, :]
    g = frames.g[..., 0, :, :]
    dE = stencil_difference(E[..., 1:, :, :], step, outer.ndim - 1)
    w = coordinate_connection(g, E[..., 0, :, :], dE, christoffel(patch, adapt_frame(patch, outer), step=step))
    return stencil_difference(w, step, u.ndim - 1)


@pytest.mark.parametrize("case", ["batch", "single", "rotated"])
@pytest.mark.parametrize("manifold", ["nk-s6", "conformal4"])
def test_connection_derivative_matches_the_nested_block(manifold, case):
    """The product-rule d omega agrees with the antisymmetrised nested block
    to O(h^2), for a batch, a single point and rotated frames.  The frame
    field through E U is E U for a constant U, so d omega rotates as
    U^T d omega U; the block differentiates the rotated field itself."""
    from twistorcheck import catalog

    step = 1e-4
    patch = catalog.resolve(manifold).patch
    rng = np.random.default_rng(5)
    u = sample_points(patch, 4, rng)
    jet = frame_field_jet(patch, u[1] if case == "single" else u, step)
    dw = connection_derivative(patch, jet)
    frame, U = jet.frame, None
    if case == "rotated":
        U = random_unitary_rotation(patch.n, rng, (4,))
        frame = rotate_frame(frame, U)
        dw = np.swapaxes(U, -1, -2)[:, None, None] @ dw @ U[:, None, None]
    nested = np.moveaxis(reference_connection_derivative(patch, frame, step, U), -1, -3)
    expected = nested - np.swapaxes(nested, -4, -3)
    assert dw.shape == expected.shape == frame.point.shape[:-1] + (patch.dim,) * 4
    assert np.abs(dw - expected).max() <= 1e-6
