"""Connection tables, structure equations, curvature, and the sign tripwire."""

import dataclasses

import numpy as np
import pytest

from twistorcheck import (
    ManifoldPatch,
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
    pointwise,
    random_unitary_rotation,
    rotate_frame,
    structure_equation_residual,
)
from stencil import stencil_difference, stencil_points
from twistorcheck.catalog import sample_points
from twistorcheck.connection import (
    coordinate_connection,
    nabla_j_connection,
    round_sphere_curvature_residual,
    sigma_part,
)
from twistorcheck.geometry import COMPLEX_STEP, christoffel, complex_step_frames, evaluate_frame_field

CONFORMAL_POINT = np.array([1.3, 0.9, 1.1, 1.7])


def field_jet(patch, point):
    """The frame-field jet at ``point``."""
    return frame_field_jet(patch, point)


def table_at(patch, point):
    jet = frame_field_jet(patch, point)
    return connection_coefficients(jet.w, jet.frame.E)


def rotated_table(table, U):
    """The connection table of the frame E U for a constant U(n) element U: a
    tensor in all three slots."""
    return np.einsum("cab,cC,aA,bB->CAB", table, U, U, U)


def counting_frames(monkeypatch, calls):
    """Count adapt_frame calls in ``calls["frame"]``; only geometry calls it."""
    from twistorcheck import geometry

    original = geometry.adapt_frame

    def counting_frame(*args, **kwargs):
        calls["frame"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "adapt_frame", counting_frame)


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


@pytest.mark.parametrize("manifold", ["nk-s6", "conformal4"])
def test_connection_coefficients_contract_the_slots_with_the_frame(manifold):
    """omega[..., C, :, :] = sum_a E^a_C w[..., a, :, :], summed one slot at a
    time, for the jet's frames and for rotated frames E U, whose batch is
    wider than the slices' (verify-geometry's rotated route)."""
    from twistorcheck import catalog

    patch = catalog.resolve(manifold).patch
    rng = np.random.default_rng(11)
    jet = frame_field_jet(patch, sample_points(patch, 3, rng))
    U = random_unitary_rotation(patch.n, rng, (2, 3))
    for E in (jet.frame.E, jet.frame.E @ U):
        omega = connection_coefficients(jet.w, E)
        expected = np.zeros(E.shape[:-2] + (patch.dim,) * 3)
        for C in range(patch.dim):
            for a in range(patch.dim):
                expected[..., C, :, :] += E[..., a, C, None, None] * jet.w[..., a, :, :]
        assert omega.shape == expected.shape
        assert np.abs(omega - expected).max() <= 1e-14 * np.abs(jet.w).max()


def test_conformal_antisymmetry_and_magnitude():
    patch = conformal_hermitian().patch
    omega = table_at(patch, CONFORMAL_POINT)
    assert np.abs(omega + omega.transpose(0, 2, 1)).max() < 1e-9
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
    assert np.abs(w + w.transpose(0, 2, 1)).max() < 1e-9


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
            return J0 @ om - om @ J0

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


def kahler_patch(n, metric):
    """A patch with J = J0 and the given pointwise metric on the box [-1, 1]^2n."""
    return ManifoldPatch(
        n=n,
        domain=np.array([(-1.0, 1.0)] * (2 * n)),
        metric_field=pointwise(metric),
        j_field=pointwise(lambda u: j0_matrix(n)),
    )


def product_of_conformal_surfaces(u):
    # f(u1, u3) (du1^2 + du3^2) + h(u2, u4) (du2^2 + du4^2): each factor is
    # a conformal metric on a surface whose J0 pairs u_i with u_{i+2}
    f = np.exp(u[0] - 0.6 * u[2])
    h = np.exp(0.4 * u[1] * u[3])
    return np.diag([f, h, f, h])


@pytest.mark.parametrize(
    "patch",
    [
        kahler_patch(1, lambda u: np.exp(2.0 * u[0]) * np.eye(2)),
        kahler_patch(2, product_of_conformal_surfaces),
    ],
    ids=["conformal-surface", "product-of-surfaces"],
)
def test_nabla_j_vanishes_on_a_curved_kahler_patch(patch):
    # On a Kahler patch nabla J = 0 although Gamma does not vanish, so
    # d_c J = 0 and Gamma_c J0 = J0 Gamma_c must cancel slot by slot; a
    # Gamma read with its indices in the wrong order leaves |sigma| near
    # |Gamma| here
    for point in sample_points(patch, 3, np.random.default_rng(5)):
        jet = point_jet(patch, point)
        assert np.abs(jet.Gamma).max() >= 0.5
        assert np.abs(nabla_j_connection(jet)).max() <= 1e-14


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
    with pytest.raises(ValueError, match=r"^pivot sequence changed from \(1, 0\) to \(0, 1\) at "):
        evaluate_frame_field(patch, doctored, frame.point)


def test_structure_equation_shares_the_stencil_frames(monkeypatch):
    # The connection differentiates the complex-step frames' E and the
    # coframe their g E, the frames at the stencil u + i h e_c of the complex
    # step: one g and one J call build them, besides the one of each for the
    # point's frame, and one metric jet gives the point jet's Christoffel
    # symbols.
    patch = nearly_kahler_s6().patch
    u = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
    jet = frame_field_jet(patch, u)
    assert jet.shifted.shape == (6, 6, 6)
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
    assert calls == {"frame": 1, "g": 2, "J": 2, "dg": 1}


def two_call_build(patch, point):
    """The frame-field jet as two calls: the point jet, then the frame field
    through its frames at the complex points u + i h e_c."""
    jet = point_jet(patch, point)
    g, E = complex_step_frames(patch, jet.frame)
    dE = E.imag / COMPLEX_STEP
    dT = (g @ E).imag / COMPLEX_STEP
    return jet, E, dE, dT, coordinate_connection(jet.frame.g, jet.frame.E, dE, jet.Gamma)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(), (3, 2)])
@pytest.mark.parametrize("entry", default_entries(), ids=lambda entry: entry.id)
def test_one_frame_batch_is_bitwise_the_two_call_build(entry, shape):
    """frame_field_jet builds one batch of real frames, the point jet's, and
    one of complex frames; its point jet is bitwise point_jet, and its
    complex frames and derivatives are bitwise those of the two-call build."""
    patch = entry.patch
    count = int(np.prod(shape))
    u = sample_points(patch, count, np.random.default_rng(29)).reshape(shape + (patch.dim,))
    field = frame_field_jet(patch, u)
    jet, shifted, dE, dT, w = two_call_build(patch, u)
    for name in ("point", "E", "g", "J", "pivots"):
        assert same_bits(getattr(field.frame, name), getattr(jet.frame, name)), name
    assert same_bits(field.shifted, shifted)
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
    """d omega at the complex points reads the complex frames' g: it builds
    no frame, evaluates no g and makes one metric-jet call."""
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


def test_round_sphere_residuals_are_rounding():
    """Every factor of d omega is a complex-step derivative, so the curvature
    and Chern residuals on the unit round sphere are rounding, at every point."""
    from twistorcheck.twistorform import chern_identity_residual

    patch = nearly_kahler_s6().patch
    frames = frame_field_jet(patch, sample_points(patch, 10, np.random.default_rng(0)))
    dw = connection_derivative(patch, frames)
    for residual in (
        round_sphere_curvature_residual(curvature_forms(frames, dw)),
        chern_identity_residual(patch, frames, dw),
    ):
        assert residual.shape == (10,)
        assert np.all(residual <= 1e-12), residual


def reference_connection_derivative(patch, frame, step, U=None):
    """The nested d omega block, d_c w[..., a, A, B] as [..., c, a, A, B]: the
    connection slices at each outer central-difference point, from that
    point's own central-difference frames and Christoffel symbols,
    differenced again, one step at both levels and all 2 dim (1 + 2 dim)
    frames built.  ``U``, one constant rotation per point, turns the block's
    frames into those of the field E U.  It shares no derivative with the
    complex steps of ``connection_derivative``."""
    outer = stencil_points(frame.point, step)
    block = np.concatenate([outer[..., None, :], stencil_points(outer, step)], axis=-2)
    frames = evaluate_frame_field(patch, frame, block)
    E = frames.E if U is None else frames.E @ U[..., None, None, :, :]
    g = frames.g[..., 0, :, :]
    dE = stencil_difference(E[..., 1:, :, :], step, outer.ndim - 1)
    w = coordinate_connection(g, E[..., 0, :, :], dE, christoffel(patch, outer, adapt_frame(patch, outer).E))
    return stencil_difference(w, step, frame.point.ndim - 1)


@pytest.mark.parametrize("case", ["batch", "single", "rotated"])
@pytest.mark.parametrize("manifold", ["nk-s6", "conformal4"])
def test_connection_derivative_matches_the_nested_block(manifold, case):
    """The complex-step d omega agrees with the antisymmetrised nested block
    of central differences to its O(h^2), for a batch, a single point and
    rotated frames.  The frame
    field through E U is E U for a constant U, so d omega rotates as
    U^T d omega U; the block differentiates the rotated field itself."""
    from twistorcheck import catalog

    step = 1e-4
    patch = catalog.resolve(manifold).patch
    rng = np.random.default_rng(5)
    u = sample_points(patch, 4, rng)
    jet = frame_field_jet(patch, u[1] if case == "single" else u)
    dw = connection_derivative(patch, jet)
    frame, U = jet.frame, None
    if case == "rotated":
        U = random_unitary_rotation(patch.n, rng, (4,))
        frame = rotate_frame(frame, U)
        dw = np.swapaxes(U, -1, -2)[:, None, None] @ dw @ U[:, None, None]
    nested = reference_connection_derivative(patch, frame, step, U)
    expected = nested - np.swapaxes(nested, -4, -3)
    assert dw.shape == expected.shape == frame.point.shape[:-1] + (patch.dim,) * 4
    assert np.abs(dw - expected).max() <= 1e-6
