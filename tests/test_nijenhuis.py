"""Nijenhuis tensor: both routes, symmetries, norms, scaling, negative control."""

import numpy as np
import pytest

from twistorcheck import (
    CrossPathMismatch,
    ManifoldPatch,
    StructureCoefficients,
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
    structure_coefficients,
    symmetry_residuals,
)

NK_POINT = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])


def frame_coefficients(patch, frame):
    """Structure coefficients of the frame-differentiated connection table."""
    return structure_coefficients(*alpha_beta(connection_coefficients(frame_field_jet(patch, frame))))


def coeffs_from_d(n, d, dp=None):
    zero = np.zeros((n, n, n))
    d = np.asarray(d, dtype=float)
    dp = zero if dp is None else np.asarray(dp, dtype=float)
    return StructureCoefficients(C=zero, Cp=zero, d=d, dp=dp, Arow=np.zeros((n, n)))


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
    coeffs = frame_coefficients(patch, jet.frame)
    tensor = nijenhuis_tensor(jet, coeffs)  # raises CrossPathMismatch on disagreement
    assert tensor.route_gap < 1e-6
    norm = nijenhuis_norm(tensor)
    assert abs(norm - norm_from_coefficients(coeffs)) < 1e-6 * max(1.0, norm)


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
    coeffs = frame_coefficients(patch, jet.frame)
    wrong = StructureCoefficients(
        C=coeffs.C, Cp=coeffs.Cp, d=1.5 * coeffs.d, dp=coeffs.dp, Arow=coeffs.Arow
    )
    with pytest.raises(CrossPathMismatch):
        nijenhuis_tensor(jet, wrong)


class TestFrameAssembly:
    def test_zero_coefficients(self):
        Nf = nijenhuis_frame(coeffs_from_d(2, np.zeros((2, 2, 2))))
        assert np.abs(Nf).max() == 0.0

    def test_single_d_slot_with_symmetries(self):
        # d_121 = 2 with its antisymmetric mirror d_211 = -2 (n = 2).
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = 2.0
        d[1, 0, 0] = -2.0
        Nf = nijenhuis_frame(coeffs_from_d(2, d))
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
        assert norm_from_coefficients(coeffs_from_d(2, d)) == 16.0

    def test_norm_with_antisymmetric_pair(self):
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = 2.0
        d[1, 0, 0] = -2.0
        coeffs = coeffs_from_d(2, d)
        Nf = nijenhuis_frame(coeffs)
        tensor_norm = float((Nf**2).sum())
        assert tensor_norm == norm_from_coefficients(coeffs) == 32.0


def test_integrable_catalog_norms_vanish():
    from twistorcheck import conformal_hermitian, flat_kahler

    for entry, point in (
        (flat_kahler(2), np.zeros(4)),
        (flat_kahler(3), np.zeros(6)),
        (conformal_hermitian(), np.array([1.3, 0.9, 1.1, 1.7])),
    ):
        patch = entry.patch
        jet = point_jet(patch, point)
        coeffs = frame_coefficients(patch, jet.frame)
        tensor = nijenhuis_tensor(jet, coeffs)
        assert nijenhuis_norm(tensor) < 1e-10


def test_nearly_kahler_norm_constant_and_above_threshold():
    patch = nearly_kahler_s6().patch
    rng = np.random.default_rng(11)
    values = []
    for _ in range(10):
        u = rng.uniform(-0.3, 0.3, 6)
        tensor = nijenhuis_tensor(point_jet(patch, u))
        values.append(nijenhuis_norm(tensor))
    values = np.array(values)
    assert values.min() >= 64.0 / 5.0
    assert np.ptp(values) < 1e-6 * values.mean()
    # Two independent routes put the constant at 384 on the unit sphere.
    assert abs(values.mean() - 384.0) < 1e-4


class TestSymmetryResiduals:
    def test_constant_j_all_zero(self):
        patch = perturbed_torus(eps=0.0).patch
        u = np.array([0.2, 0.0, 0.1, -0.3, 0.0, 0.25])
        tensor = nijenhuis_tensor(point_jet(patch, u))
        res = symmetry_residuals(tensor, patch, u)
        assert res.max() == 0.0

    def test_nearly_kahler_small(self):
        patch = nearly_kahler_s6().patch
        tensor = nijenhuis_tensor(point_jet(patch, NK_POINT))
        res = symmetry_residuals(tensor, patch, NK_POINT)
        assert res.max() < 1e-7

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
        coord = nijenhuis_coordinates(patch.j_field(u), field_derivative(patch, u, "j"))
        from twistorcheck.nijenhuis import NijenhuisTensor

        tensor = NijenhuisTensor(coord=coord, frame=np.zeros((6, 6, 6)), point=u)
        res = symmetry_residuals(tensor, patch, u)
        assert max(res.j_first_slot, res.j_second_slot) > 1e-4


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
        coeffs = frame_coefficients(patch, jet.frame)
        tensor = nijenhuis_tensor(jet, coeffs)
        norms.append(nijenhuis_norm(tensor))
    slopes = np.diff(np.log(norms)) / np.diff(np.log(scales))
    assert np.allclose(slopes, -2.0, atol=1e-6), f"observed scaling exponent {slopes}"
    assert abs(norms[0] / norms[1] - 4.0) < 1e-6
