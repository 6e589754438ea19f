"""Nijenhuis tensor: both routes, symmetries, norms, scaling, negative control."""

import re

import numpy as np
import pytest

from twistorcheck import (
    CrossPathMismatch,
    ManifoldPatch,
    alpha_beta,
    connection_coefficients,
    field_derivative,
    frame_field_jet,
    j0_matrix,
    nearly_kahler_s6,
    nijenhuis_coordinates,
    nijenhuis_frame,
    nijenhuis_norm,
    nijenhuis_tensor,
    norm_from_coefficients,
    perturbed_torus,
    point_jet,
    pointwise,
    route_gap,
    structure_coefficients,
)

NK_POINT = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])


def symmetry_residuals(N, J):
    """Max-norm residuals of N(Y,X) = -N(X,Y) and N(JX,Y) = -J N(X,Y) = N(X,JY), per point.

    ``N[..., c, a, b]`` are coordinate components and ``J[..., a, b]`` the
    field at the same points.  For a genuine almost complex structure all
    three residuals sit at the finite-difference noise floor; a corrupted J
    (J^2 != -Id) drives them up, which makes this the designated negative
    control.
    """
    dim = J.shape[-1]
    axes = (-3, -2, -1)
    # jn[c, a, b] = J^c_e N^e_{ab}
    jn = (J @ N.reshape(N.shape[:-3] + (dim, dim * dim))).reshape(N.shape)
    # first slot: J^d_a N^c_{db}; second slot: N^c_{ad} J^d_b
    return {
        "antisymmetry": np.abs(N + np.swapaxes(N, -1, -2)).max(axis=axes),
        "j_first_slot": np.abs(np.swapaxes(J, -1, -2)[..., None, :, :] @ N + jn).max(axis=axes),
        "j_second_slot": np.abs(N @ J[..., None, :, :] + jn).max(axis=axes),
    }


def frame_d(patch, jet):
    """The d and d' tensors of the frame-differentiated connection table at the jet's points, at the default step."""
    _, _, d, dp = structure_coefficients(
        *alpha_beta(connection_coefficients(frame_field_jet(patch, jet.frame.point)))
    )
    return d, dp


def coordinate_route(patch, u):
    """The coordinate Nijenhuis components from J and its jet at ``u``."""
    return nijenhuis_coordinates(patch.j_field(u), field_derivative(patch, u, "j"))


def test_constant_j_gives_zero():
    patch = perturbed_torus(eps=0.0).patch
    N = coordinate_route(patch, np.array([0.3, 0.1, -0.2, 0.0, 0.4, -0.1]))
    assert np.abs(N).max() == 0.0


def test_conformal_patch_zero_despite_curved_metric():
    from twistorcheck import conformal_hermitian

    N = coordinate_route(conformal_hermitian().patch, np.array([1.3, 0.9, 1.1, 1.7]))
    assert np.abs(N).max() == 0.0  # N depends on J only, not on g


def test_nearly_kahler_nonzero_and_antisymmetric():
    patch = nearly_kahler_s6().patch
    N = coordinate_route(patch, NK_POINT)
    assert np.abs(N).max() > 0.1
    assert np.abs(N + N.transpose(0, 2, 1)).max() < 1e-8


def test_cross_route_agreement_on_nearly_kahler():
    patch = nearly_kahler_s6().patch
    jet = point_jet(patch, NK_POINT)
    d, dp = frame_d(patch, jet)
    N = nijenhuis_frame(d, dp)
    # raises CrossPathMismatch on disagreement
    assert route_gap(N, nijenhuis_tensor(jet), jet.frame.point) < 1e-6
    norm = nijenhuis_norm(N)
    assert abs(norm - norm_from_coefficients(d, dp)) < 1e-6 * max(1.0, norm)


def test_route_gap_reads_a_scaled_coordinate_route(monkeypatch):
    # The connection route's |N|^2 agrees with 4 sum (d^2 + d'^2) by
    # construction; only the gap to the coordinate route can see a slip.
    from twistorcheck import nijenhuis, theorem_report

    jet = point_jet(nearly_kahler_s6().patch, NK_POINT)
    exact = theorem_report(jet).n_route_mismatch
    assert exact < 1e-10
    original = nijenhuis.nijenhuis_coordinates
    monkeypatch.setattr(nijenhuis, "nijenhuis_coordinates", lambda *a: (1.0 + 1e-9) * original(*a))
    scaled = theorem_report(jet).n_route_mismatch
    assert abs(scaled - 1e-9) < 1e-10


def test_cross_path_mismatch_detected():
    patch = nearly_kahler_s6().patch
    jet = point_jet(patch, NK_POINT)
    d, dp = frame_d(patch, jet)
    with pytest.raises(CrossPathMismatch):
        route_gap(nijenhuis_frame(1.5 * d, dp), nijenhuis_tensor(jet), jet.frame.point)


def test_route_gap_names_the_point_of_a_wider_batch():
    # Rotated frames of P points give components of batch (R, P) against
    # points of shape (P, dim): the mismatch at [1, 2] names point 2 itself.
    rng = np.random.default_rng(4)
    points = rng.uniform(-0.2, 0.2, (3, 6))
    reference = rng.standard_normal((2, 3, 6, 6, 6))
    N = reference.copy()
    assert route_gap(N, reference, points).shape == (2, 3)
    N[1, 2, 4, 0, 3] += 0.5
    message = rf"at {re.escape(str(points[2].tolist()))}$"
    with pytest.raises(CrossPathMismatch, match=message):
        route_gap(N, reference, points)


class TestFrameAssembly:
    def test_zero_coefficients(self):
        Nf = nijenhuis_frame(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        assert np.abs(Nf).max() == 0.0

    def test_single_d_slot_with_symmetries(self):
        # d_121 = 2 with its antisymmetric mirror d_211 = -2 (n = 2).
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = 2.0
        d[1, 0, 0] = -2.0
        Nf = nijenhuis_frame(d, np.zeros((2, 2, 2)))
        assert np.allclose(Nf[:, 0, 1], [2.0, 0.0, 0.0, 0.0])  # N(e1, e2) = 2 e1
        assert np.allclose(Nf[:, 1, 0], [-2.0, 0.0, 0.0, 0.0])
        # N(J e1, e2) = -J N(e1, e2) = -2 J e1 = -2 e3
        assert np.allclose(Nf[:, 2, 1], [0.0, 0.0, -2.0, 0.0])
        assert np.allclose(Nf[:, 0, 3], [0.0, 0.0, -2.0, 0.0])
        assert np.allclose(Nf[:, 2, 3], [-2.0, 0.0, 0.0, 0.0])  # N(Je1, Je2) = -N(e1, e2)

    def test_formula_value_on_literal_single_entry(self):
        # Substituting a lone d_121 = 2 into 4 sum (d^2 + d'^2) gives 16.
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = 2.0
        assert norm_from_coefficients(d, np.zeros((2, 2, 2))) == 16.0

    def test_norm_with_antisymmetric_pair(self):
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = 2.0
        d[1, 0, 0] = -2.0
        dp = np.zeros((2, 2, 2))
        Nf = nijenhuis_frame(d, dp)
        tensor_norm = float((Nf**2).sum())
        assert tensor_norm == norm_from_coefficients(d, dp) == 32.0

    def test_norm_names_the_batch_index_that_breaks_the_j_symmetries(self):
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = 2.0
        d[1, 0, 0] = -2.0
        N = np.stack([np.zeros((4, 4, 4)), nijenhuis_frame(d, np.zeros((2, 2, 2)))])
        assert nijenhuis_norm(N).tolist() == [0.0, 32.0]
        N[1, :, 2, 3] = 0.0  # drop N(J e1, J e2) = -N(e1, e2)
        with pytest.raises(CrossPathMismatch, match=r"batch index \(1,\)"):
            nijenhuis_norm(N)


def test_integrable_catalog_norms_vanish():
    from twistorcheck import conformal_hermitian, flat_kahler

    for entry, point in (
        (flat_kahler(2), np.zeros(4)),
        (flat_kahler(3), np.zeros(6)),
        (conformal_hermitian(), np.array([1.3, 0.9, 1.1, 1.7])),
    ):
        patch = entry.patch
        jet = point_jet(patch, point)
        N = nijenhuis_frame(*frame_d(patch, jet))
        route_gap(N, nijenhuis_tensor(jet), jet.frame.point)
        assert nijenhuis_norm(N) < 1e-10


def test_nearly_kahler_norm_constant_and_above_threshold():
    patch = nearly_kahler_s6().patch
    rng = np.random.default_rng(11)
    values = []
    for _ in range(10):
        u = rng.uniform(-0.3, 0.3, 6)
        values.append(nijenhuis_norm(nijenhuis_tensor(point_jet(patch, u))))
    values = np.array(values)
    assert values.min() >= 64.0 / 5.0
    assert np.ptp(values) < 1e-6 * values.mean()
    # Two independent routes put the constant at 384 on the unit sphere.
    assert abs(values.mean() - 384.0) < 1e-4


class TestSymmetryResiduals:
    def test_constant_j_all_zero(self):
        patch = perturbed_torus(eps=0.0).patch
        u = np.array([0.2, 0.0, 0.1, -0.3, 0.0, 0.25])
        res = symmetry_residuals(coordinate_route(patch, u), patch.j_field(u))
        assert max(res.values()) == 0.0

    def test_nearly_kahler_small(self):
        patch = nearly_kahler_s6().patch
        res = symmetry_residuals(coordinate_route(patch, NK_POINT), patch.j_field(NK_POINT))
        assert max(res.values()) < 1e-7

    def test_corrupted_j_negative_control(self):
        # An asymmetric 1e-3 bump breaks J^2 = -Id, and the J-slot symmetries
        # must fail visibly: this is the designated negative control.
        n = 3
        noise = np.zeros((6, 6))
        noise[0, 1] = 1e-3
        bad_j = j0_matrix(n) + noise
        patch = ManifoldPatch(
            n=n,
            domain=np.array([(-1.0, 1.0)] * 6),
            metric_field=pointwise(lambda u: np.eye(6)),
            j_field=pointwise(lambda u: bad_j * (1.0 + 0.1 * u[0])),
            label="corrupted",
        )
        u = np.array([0.3, 0.1, -0.2, 0.0, 0.1, -0.1])
        res = symmetry_residuals(coordinate_route(patch, u), patch.j_field(u))
        assert max(res["j_first_slot"], res["j_second_slot"]) > 1e-4


def test_metric_rescaling_exponent():
    # Scaling g -> c^2 g leaves J (hence N as a vector-valued tensor) alone
    # and rescales the orthonormal frame, so |N|^2 must scale like 1/c^2.
    base = perturbed_torus(eps=0.2, freq=1).patch
    u = np.array([0.4, 0.1, -0.3, 0.2, 0.05, -0.1])

    def scaled_patch(c):
        return ManifoldPatch(
            n=base.n,
            domain=base.domain,
            metric_field=lambda v, cc=c: cc**2 * base.metric_field(v),
            j_field=base.j_field,
            label=f"scaled-{c}",
        )

    norms = []
    scales = (1.0, 2.0, 4.0)
    for c in scales:
        patch = scaled_patch(c)
        jet = point_jet(patch, u)
        N = nijenhuis_frame(*frame_d(patch, jet))
        route_gap(N, nijenhuis_tensor(jet), jet.frame.point)
        norms.append(nijenhuis_norm(N))
    slopes = np.diff(np.log(norms)) / np.diff(np.log(scales))
    assert np.allclose(slopes, -2.0, atol=1e-6), f"observed scaling exponent {slopes}"
    assert abs(norms[0] / norms[1] - 4.0) < 1e-6
