"""Patch invariants, adapted frames, field derivatives, Christoffel symbols."""

import dataclasses
import re

import numpy as np
import pytest

from twistorcheck import (
    ManifoldPatch,
    adapt_frame,
    christoffel,
    field_derivative,
    j0_matrix,
    point_jet,
    pointwise,
    random_unitary_rotation,
    rotate_frame,
)
from stencil import stencil_difference, stencil_points
from twistorcheck.catalog import default_entries, resolve, sample_points
from twistorcheck.geometry import (
    PIVOT_TOL,
    _field_residuals,
    _gram_schmidt_adapted,
    _gram_schmidt_pivoted,
    evaluate_frame_field,
    require_interior,
    validate_patch,
)


def patch_residuals(patch, point):
    """Max-norm residuals of the pointwise patch invariants at each point."""
    return _field_residuals(patch.metric_field(point), patch.j_field(point))


def box(bounds, dim):
    return np.array([bounds] * dim)


def flat_patch(n=2, scale=1.0):
    dim = 2 * n
    g = scale * np.eye(dim)
    return ManifoldPatch(
        n=n,
        domain=box((-1.0, 1.0), dim),
        metric_field=pointwise(lambda u: g),
        j_field=pointwise(lambda u: j0_matrix(n)),
        label=f"flat-{scale}",
    )


def conformal_inverse_sq_patch():
    # g = |u|^{-2} Id on a box excluding the origin
    n = 2
    return ManifoldPatch(
        n=n,
        domain=box((0.5, 2.5), 4),
        metric_field=pointwise(lambda u: np.eye(4) / (u @ u)),
        j_field=pointwise(lambda u: j0_matrix(n)),
        label="conformal",
    )


class TestAdaptFrame:
    def test_flat_identity(self):
        frame = adapt_frame(flat_patch(), np.zeros(4))
        assert np.array_equal(frame.E, np.eye(4))
        assert frame.pivots.tolist() == [0, 1]

    def test_scaled_metric_halves_frame(self):
        frame = adapt_frame(flat_patch(scale=4.0), np.zeros(4))
        assert np.array_equal(frame.E, 0.5 * np.eye(4))

    def test_conformal_patch_at_radius_two(self):
        patch = conformal_inverse_sq_patch()
        u = np.array([1.0, 1.0, 1.0, 1.0])  # |u| = 2
        frame = adapt_frame(patch, u)
        assert np.allclose(frame.E, 2.0 * np.eye(4), atol=1e-12)
        g = patch.metric_field(u)
        assert np.abs(frame.E.T @ g @ frame.E - np.eye(4)).max() < 1e-12

    def test_deterministic_bitwise(self):
        patch = conformal_inverse_sq_patch()
        u = np.array([1.2, 0.8, 1.5, 0.7])
        a = adapt_frame(patch, u)
        b = adapt_frame(patch, u)
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.pivots, b.pivots)

    def test_j_pairing_and_orientation_consistency(self, catalog_like_patches):
        # Positivity is defined by the J-adapted frame itself, so the testable
        # invariant is that the frame has a definite determinant sign in chart
        # coordinates (test_unitary_covariance keeps it under rotations), not
        # that the sign is +1.
        for patch, point in catalog_like_patches:
            frame = adapt_frame(patch, point)
            J = patch.j_field(point)
            n = patch.n
            assert np.abs(J @ frame.E[:, :n] - frame.E[:, n:]).max() < 1e-12
            assert np.sign(np.linalg.det(frame.E)) != 0

    def test_unitary_covariance(self, catalog_like_patches):
        rng = np.random.default_rng(7)
        for patch, point in catalog_like_patches:
            frame = adapt_frame(patch, point)
            g = patch.metric_field(point)
            J = patch.j_field(point)
            n = patch.n
            sign = np.sign(np.linalg.det(frame.E))
            for _ in range(5):
                U = random_unitary_rotation(n, rng)
                rotated = rotate_frame(frame, U)
                E = rotated.E
                assert np.abs(E.T @ g @ E - np.eye(2 * n)).max() < 1e-9
                assert np.abs(J @ E[:, :n] - E[:, n:]).max() < 1e-9
                assert np.sign(np.linalg.det(E)) == sign

    def test_degenerate_seed_raises(self):
        # Every coordinate vector has g-norm 1e-9, below PIVOT_TOL.
        with pytest.raises(ValueError, match=r"^all 4 remaining coordinate vectors project below 1e-08 at "):
            adapt_frame(flat_patch(scale=1e-18), np.zeros(4))

    def test_degenerate_pivot_advances_to_next_column(self):
        # J e_1 = e_2, so after e_1 and J e_1 the second coordinate vector
        # projects to zero: the sweep must skip it deterministically.
        J = np.zeros((4, 4))
        J[1, 0] = J[3, 2] = 1.0
        J[0, 1] = J[2, 3] = -1.0
        patch = ManifoldPatch(
            n=2,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: np.eye(4)),
            j_field=pointwise(lambda u: J),
        )
        frame = adapt_frame(patch, np.zeros(4))
        assert frame.pivots.tolist() == [0, 2]

    def test_incompatible_structure_rejected(self):
        n = 2
        bad_j = j0_matrix(n).copy()
        bad_j[0, 1] += 1e-3
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: np.eye(4)),
            j_field=pointwise(lambda u: bad_j),
        )
        with pytest.raises(ValueError, match=r"^j_square residual .* exceeds 1e-10 at \[0\.0, 0\.0, 0\.0, 0\.0\]$"):
            adapt_frame(patch, np.zeros(4))

    def test_asymmetric_metric_rejected(self):
        # g = I + 0.1 J0 has an SPD symmetric part and satisfies J^2 = -Id and
        # J^T g J = g, so only the symmetry check can reject it.
        n = 2
        J0 = j0_matrix(n)
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: np.eye(4) + 0.1 * J0),
            j_field=pointwise(lambda u: J0),
        )
        with pytest.raises(ValueError, match="^metric_symmetry residual 2.000e-01"):
            adapt_frame(patch, np.zeros(4))

    def test_point_outside_domain(self):
        with pytest.raises(ValueError, match=r"^point \[2\.0, 0\.0, 0\.0, 0\.0\] is not interior to patch "):
            adapt_frame(flat_patch(), np.array([2.0, 0.0, 0.0, 0.0]))


def one_vector_sweep(g, J):
    """Reference J-adapted Gram-Schmidt: each coordinate vector is projected
    against one accepted vector at a time, in two modified passes, and the
    usable vector that keeps the largest share of its g-norm is taken."""
    dim = g.shape[-1]
    n = dim // 2
    batch = g.shape[:-2]
    available = np.ones(batch + (dim,), dtype=bool)
    E = np.empty(batch + (dim, dim))
    pivots = np.empty(batch + (n,), dtype=np.intp)
    accepted = []
    for k in range(n):
        V = np.broadcast_to(np.eye(dim), batch + (dim, dim))
        for _pass in range(2):
            for w in accepted:
                coef = np.swapaxes(V, -1, -2) @ (g @ w[..., None])
                V = V - w[..., :, None] * np.swapaxes(coef, -1, -2)
        nrm = np.sqrt(np.maximum((V * (g @ V)).sum(axis=-2), 0.0))
        share = nrm / np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
        idx = np.argmax(np.where(available & (nrm >= PIVOT_TOL), share, -np.inf), axis=-1)[..., None]
        e = np.take_along_axis(V, idx[..., None], axis=-1)[..., 0] / np.take_along_axis(nrm, idx, axis=-1)
        je = (J @ e[..., None])[..., 0]
        np.put_along_axis(available, idx, False, axis=-1)
        pivots[..., k] = idx[..., 0]
        E[..., :, k] = e
        E[..., :, n + k] = je
        accepted.extend([e, je])
    return E, pivots


class TestBlockSweep:
    """The two-pass block sweep against the one-vector-at-a-time sweep."""

    BATCH = (3, 5, 7)

    @staticmethod
    def conjugated_fields(P):
        # g = P^-T P^-1 and J = P J0 P^-1: g is SPD and J is g-orthogonal, and
        # the columns of P are a g-orthonormal adapted basis
        Pinv = np.linalg.inv(P)
        g = np.swapaxes(Pinv, -1, -2) @ Pinv
        return 0.5 * (g + np.swapaxes(g, -1, -2)), P @ j0_matrix(P.shape[-1] // 2) @ Pinv

    def well_conditioned_fields(self, n, seed):
        # P = Q1 S Q2 with random orthogonal Q1, Q2 and singular values S in
        # [0.5, 2], so cond(g) <= 16 and both sweeps are orthonormal to
        # rounding level (at cond(g) ~ 1e6 the reference sweep itself misses
        # E^T g E = I by 3e-11)
        rng = np.random.default_rng(seed)
        Q1, Q2 = np.linalg.qr(rng.standard_normal((2,) + self.BATCH + (2 * n, 2 * n)))[0]
        return self.conjugated_fields(Q1 * rng.uniform(0.5, 2.0, self.BATCH + (1, 2 * n)) @ Q2)

    def check_against_reference(self, g, J):
        n = g.shape[-1] // 2
        E, pivots = _gram_schmidt_adapted(g, J, np.zeros(g.shape[:-1]))
        E_ref, pivots_ref = one_vector_sweep(g, J)
        assert np.array_equal(pivots, pivots_ref)
        assert np.abs(E - E_ref).max() <= 1e-12
        gram = np.swapaxes(E, -1, -2) @ g @ E
        assert np.abs(gram - np.eye(2 * n)).max() <= 1e-12
        assert np.abs(J @ E[..., :n] - E[..., n:]).max() <= 1e-12
        return pivots

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_one_vector_sweep(self, n):
        self.check_against_reference(*self.well_conditioned_fields(n, 40 + n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_as_orthogonal_as_one_vector_sweep_when_ill_conditioned(self, n):
        # P = I + 0.3 N reaches cond(g) ~ 1e6 at some points; there the second
        # block pass keeps E^T g E = I as close as the reference sweep does
        # (one pass alone misses it by up to 90 times more at n = 4)
        rng = np.random.default_rng(40 + n)
        g, J = self.conjugated_fields(np.eye(2 * n) + 0.3 * rng.standard_normal(self.BATCH + (2 * n, 2 * n)))
        E, pivots = _gram_schmidt_adapted(g, J, np.zeros(g.shape[:-1]))
        E_ref, pivots_ref = one_vector_sweep(g, J)
        assert np.array_equal(pivots, pivots_ref)

        def residual(E):
            return np.abs(np.swapaxes(E, -1, -2) @ g @ E - np.eye(2 * n)).max(axis=(-2, -1))

        assert np.all(residual(E) <= 4.0 * residual(E_ref) + 1e-14)

    def test_skipped_pivot_only_where_j_pairs_the_first_two_vectors(self):
        # where g = I and J e_1 = e_2 all four vectors tie at the first step,
        # which takes e_1; the second finds e_2 in the span of e_1 and J e_1
        # and takes e_3, the lower of the tied e_3 and e_4.  Every other
        # point keeps the pivots it has without the pairing.
        g, J = self.well_conditioned_fields(2, 4)
        unpaired = _gram_schmidt_adapted(g, J, np.zeros(g.shape[:-1]))[1]
        pairing = np.zeros((4, 4))
        pairing[1, 0] = pairing[3, 2] = 1.0
        pairing[0, 1] = pairing[2, 3] = -1.0
        paired = np.zeros(self.BATCH, dtype=bool)
        paired[0, 1, 2] = paired[2, 4, 6] = paired[1, 0, 0] = True
        g[paired], J[paired] = np.eye(4), pairing
        pivots = self.check_against_reference(g, J)
        assert np.all(pivots[paired] == [0, 2])
        assert np.array_equal(pivots[~paired], unpaired[~paired])
        assert np.any(unpaired[paired] != [0, 2])

    def test_stencil_batch_is_bitwise_each_point_alone(self):
        # a nested nk-s6 stencil, (points, 2 dim, 1 + 2 dim) frames from one
        # call: a frame does not depend on the batch it is built in, which is
        # what lets verify-geometry's chunks equal a per-point loop bit for bit
        from twistorcheck import nearly_kahler_s6
        from twistorcheck.catalog import grid_points

        step = 1e-4

        patch = nearly_kahler_s6().patch
        outer = stencil_points(0.5 * grid_points(patch, 2)[[0, 21, 42, 63]], step)
        u = np.concatenate([outer[..., None, :], stencil_points(outer, step)], axis=-2)
        batched = adapt_frame(patch, u)
        assert batched.E.shape == (4, 12, 13, 6, 6)
        for index in np.ndindex(u.shape[:-1]):
            alone = adapt_frame(patch, u[index])
            assert np.array_equal(batched.E[index], alone.E)
            assert np.array_equal(batched.pivots[index], alone.pivots)

    @pytest.mark.parametrize("entry", default_entries(), ids=lambda entry: entry.id)
    def test_pivoted_sweep_reproduces_the_frame(self, entry):
        # the sweep of the complex-step frames, given a real frame's own g, J
        # and pivots, is that frame's sweep: it shares its projection and
        # makes no choice, so it lands on E to rounding
        patch = entry.patch
        frame = adapt_frame(patch, sample_points(patch, 8, np.random.default_rng(17)))
        E = _gram_schmidt_pivoted(frame.g, frame.J, frame.pivots)
        assert E.dtype == float and E.shape == frame.E.shape
        assert np.abs(E - frame.E).max() <= 1e-14 * np.abs(frame.E).max()

    @pytest.mark.parametrize("entry", default_entries(), ids=lambda entry: entry.id)
    def test_complex_step_frames_are_a_read_only_array_through_the_frame(self, entry):
        # one complex frame per point and direction c, whose real part is the
        # point's own E: a frame of other pivots would differ from it by O(1)
        from twistorcheck.connection import frame_field_jet

        patch = entry.patch
        u = sample_points(patch, 6, np.random.default_rng(23)).reshape(2, 3, patch.dim)
        jet = frame_field_jet(patch, u)
        shifted = jet.shifted
        assert isinstance(shifted, np.ndarray) and shifted.dtype == complex
        assert shifted.shape == (2, 3) + (patch.dim,) * 3
        assert not shifted.flags.writeable
        E = jet.frame.E[..., None, :, :]
        assert np.abs(shifted.real - E).max() <= 1e-14 * np.abs(E).max()

    def test_degenerate_later_step_names_the_failing_point(self):
        # g = diag(1, s, 1, s) commutes with J0: the first step takes e_1, and
        # with s = 1e-18 every vector left at the second step has g-norm 1e-9
        def metric(u):
            s = 1e-18 if u[0] > 0.5 else 1.0
            return np.diag([1.0, s, 1.0, s])

        patch = ManifoldPatch(
            n=2,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(metric),
            j_field=pointwise(lambda u: j0_matrix(2)),
        )
        points = np.zeros((2, 3, 4))
        points[1, 1, 0] = 0.75
        with pytest.raises(
            ValueError,
            match=r"^all 3 remaining coordinate vectors project below 1e-08 at \[0\.75, 0\.0, 0\.0, 0\.0\]$",
        ):
            adapt_frame(patch, points)
        points[1, 1, 0] = 0.25
        assert adapt_frame(patch, points).pivots.tolist() == [[[0, 1]] * 3] * 2


@pytest.fixture
def catalog_like_patches():
    from twistorcheck import conformal_hermitian, nearly_kahler_s6, perturbed_torus

    return [
        (flat_patch(), np.array([0.1, -0.2, 0.3, 0.0])),
        (conformal_hermitian().patch, np.array([1.3, 0.9, 1.1, 1.7])),
        (nearly_kahler_s6().patch, np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])),
        (perturbed_torus().patch, np.array([0.4, 0.1, -0.3, 0.2, 0.05, -0.1])),
    ]


class TestFieldDerivative:
    def test_constant_field_zero(self):
        d = field_derivative(flat_patch(), np.zeros(4), which="metric")
        assert np.abs(d).max() == 0.0

    def test_linear_metric_exact(self):
        n = 2
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: (1.0 + u[0]) * np.eye(4)),
            j_field=pointwise(lambda u: j0_matrix(n)),
        )
        d = field_derivative(patch, np.zeros(4), which="metric")
        expected = np.zeros((4, 4, 4))
        expected[0] = np.eye(4)
        assert np.array_equal(d, expected)

    def test_even_conformal_factor_critical_at_origin(self):
        n = 3
        patch = ManifoldPatch(
            n=n,
            domain=box((-0.5, 0.5), 6),
            metric_field=pointwise(lambda u: 4.0 / (1.0 + u @ u) ** 2 * np.eye(6)),
            j_field=pointwise(lambda u: j0_matrix(n)),
        )
        d = field_derivative(patch, np.zeros(6), which="metric")
        assert np.abs(d).max() < 1e-9

    def test_jet_overrides_and_matches_fd(self):
        from twistorcheck import conformal_hermitian

        patch = conformal_hermitian().patch
        u = np.array([1.2, 0.7, 1.0, 1.4])
        jet = field_derivative(patch, u, which="metric")
        bare = ManifoldPatch(
            n=patch.n,
            domain=patch.domain,
            metric_field=patch.metric_field,
            j_field=patch.j_field,
        )
        # the complex step has no step to tune: it meets the jet at rounding,
        # where the central difference it replaced met it at 4 h^2
        fd = field_derivative(bare, u, which="metric")
        assert np.abs(fd - jet).max() <= 1e-14 * np.abs(jet).max()
        # the central difference still agrees, to its truncation
        central = stencil_difference(patch.metric_field(stencil_points(u, 1e-3)), 1e-3, 0)
        assert np.abs(central - fd).max() < 4e-6

    def test_boundary_guard(self):
        patch = flat_patch()
        field_derivative(patch, np.array([0.999999, 0.0, 0.0, 0.0]), which="metric")
        with pytest.raises(ValueError, match=r"^point \[1\.0, 0\.0, 0\.0, 0\.0\] is not interior to patch "):
            field_derivative(patch, np.array([1.0, 0.0, 0.0, 0.0]), which="metric")

    def test_bad_which_and_complex_points_without_a_jet(self):
        with pytest.raises(ValueError):
            field_derivative(flat_patch(), np.zeros(4), which="volume")
        # a complex step cannot differentiate again at a complex point
        with pytest.raises(ValueError, match=r"^patch 'flat-1\.0' has no metric jet"):
            field_derivative(flat_patch(), np.full(4, 1e-30j), which="metric")


def christoffel_by_inverse(patch, u):
    """The Christoffel matrices Gamma[..., a, c, b] = Gamma^c_{ab} with
    g^-1 = np.linalg.inv(g), built from no frame: the reference for
    ``christoffel``'s g^-1 = E E^T."""
    g = patch.metric_field(u)
    dg = field_derivative(patch, u, which="metric")
    T = dg.swapaxes(-3, -2) + dg.swapaxes(-3, -2).swapaxes(-1, -2) - dg
    return 0.5 * np.einsum("...cd,...dab->...acb", np.linalg.inv(g), T)


class TestChristoffel:
    def test_flat_zero(self):
        patch, u = flat_patch(), np.zeros(4)
        gamma = christoffel(patch, u, adapt_frame(patch, u).E)
        assert np.abs(gamma).max() == 0.0

    def test_exponential_metric_two_dimensional(self):
        # g = e^{2 u1} Id in dimension 2: the nonzero symbols are known in
        # closed form, Gamma^0_{00} = Gamma^1_{01} = Gamma^1_{10} = 1 and
        # Gamma^0_{11} = -1, stored at [a, c, b]
        patch = ManifoldPatch(
            n=1,
            domain=box((-1.0, 1.0), 2),
            metric_field=pointwise(lambda u: np.exp(2.0 * u[0]) * np.eye(2)),
            j_field=pointwise(lambda u: j0_matrix(1)),
        )
        u = np.array([0.3, -0.4])
        gamma = christoffel(patch, u, adapt_frame(patch, u).E)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        expected[1, 0, 1] = -1.0
        expected[0, 1, 1] = expected[1, 1, 0] = 1.0
        assert np.abs(gamma - expected).max() < 1e-9

    def test_round_sphere_origin(self):
        from twistorcheck import nearly_kahler_s6

        patch, u = nearly_kahler_s6().patch, np.zeros(6)
        gamma = christoffel(patch, u, adapt_frame(patch, u).E)
        assert np.abs(gamma).max() < 1e-12

    def test_symmetry_in_lower_indices(self):
        from twistorcheck import conformal_hermitian

        patch, u = conformal_hermitian().patch, np.array([1.2, 0.8, 1.6, 0.9])
        gamma = christoffel(patch, u, adapt_frame(patch, u).E)
        # Gamma[a, c, b] = Gamma[b, c, a]
        assert np.abs(gamma - gamma.transpose(2, 1, 0)).max() < 1e-12

    @staticmethod
    def diagonal_patch(small, factor=lambda u: 1.0):
        # diag(1, s, 1, s) commutes with J0, so it is compatible at n = 2 and
        # Gram-Schmidt keeps the coordinate basis, scaled
        return ManifoldPatch(
            n=2,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: factor(u) * np.diag([1.0, small, 1.0, small])),
            j_field=pointwise(lambda u: j0_matrix(2)),
        )

    def test_singular_metric(self):
        with pytest.raises(ValueError, match=r"^metric condition number exceeds 1e\+12 at "):
            adapt_frame(self.diagonal_patch(1e-15), np.zeros(4))

    @staticmethod
    def constant_metric_patch(g):
        return ManifoldPatch(
            n=1,
            domain=box((-1.0, 1.0), 2),
            metric_field=pointwise(lambda u: g),
            j_field=pointwise(lambda u: j0_matrix(1)),
        )

    @pytest.mark.parametrize("small, singular", [(1e-11, False), (1e-13, True)])
    def test_condition_gate_gives_the_verdict_of_cond(self, small, singular):
        # adapt_frame gates the spectrum validate_patch computed instead of
        # taking an SVD; on diagonal metrics of condition 1e11 and 1e13 it
        # agrees with np.linalg.cond
        from twistorcheck.geometry import METRIC_COND_LIMIT

        patch, u = self.diagonal_patch(small), np.zeros(4)
        assert (np.linalg.cond(patch.metric_field(u)) > METRIC_COND_LIMIT) == singular
        if singular:
            with pytest.raises(
                ValueError, match=r"^metric condition number exceeds 1e\+12 at \[0\.0, 0\.0, 0\.0, 0\.0\]$"
            ):
                adapt_frame(patch, u)
        else:
            assert np.array_equal(christoffel(patch, u, adapt_frame(patch, u).E), np.zeros((4, 4, 4)))

    @pytest.mark.parametrize("g", [np.diag([1.0, 0.0]), np.zeros((2, 2)), np.full((2, 2), np.nan)])
    def test_singular_or_nan_metric_fails_the_gate_without_a_warning(self, g):
        # validate_patch rejects the metric before any frame, condition gate
        # or Christoffel symbol is formed from it
        import warnings

        if np.isnan(g).any():
            message = r"^metric_field is not finite at \[0\.0, 0\.0\]$"
        else:
            message = r"^metric not positive definite at \[0\.0, 0\.0\] \(min eigenvalue 0\.000e\+00\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                adapt_frame(self.constant_metric_patch(g), np.zeros(2))

    @staticmethod
    def hermitian_patch():
        # g = [[A, -B], [B, A]] with A symmetric and B skew commutes with J0:
        # a compatible metric with off-diagonal entries, which no catalog
        # metric has
        def metric(u):
            a = 0.2 * np.cos(u[1] + u[2])
            b = 0.25 * np.sin(u[0] - u[3])
            A = np.array([[1.0 + 0.3 * np.sin(u[0]), a], [a, 1.0 + 0.3 * u[3] ** 2]])
            B = np.array([[0.0, b], [-b, 0.0]])
            return np.block([[A, -B], [B, A]])

        return ManifoldPatch(
            n=2,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(metric),
            j_field=pointwise(lambda u: j0_matrix(2)),
        )

    @pytest.mark.parametrize("manifold", [entry.id for entry in default_entries()] + ["hermitian"])
    def test_frame_factorization_matches_the_inverse(self, manifold):
        # g^-1 = E E^T agrees with np.linalg.inv(g) to rounding on every
        # catalog family and on a metric with off-diagonal entries, at a
        # batch of seeded points
        patch = self.hermitian_patch() if manifold == "hermitian" else resolve(manifold).patch
        u = sample_points(patch, 8, np.random.default_rng(11))
        expected = christoffel_by_inverse(patch, u)
        gap = np.abs(christoffel(patch, u, adapt_frame(patch, u).E) - expected).max()
        assert gap <= 1e-12 * np.abs(expected).max()

    def test_frame_factorization_at_condition_1e11(self):
        # diag(1, s, 1, s) at s = 1e-11 times a varying conformal factor: the
        # symbols reach 2.5e10, and E E^T and np.linalg.inv(g) agreed to
        # 1.5e-16 of the largest, one ulp (measured at these points; 3.1e-16
        # at seeds 1-4); the bound is 10 times the measured gap
        patch = self.diagonal_patch(1e-11, factor=lambda u: np.exp(u[0] - 0.5 * u[1] + 0.25 * u[3]))
        u = sample_points(patch, 8, np.random.default_rng(0))
        expected = christoffel_by_inverse(patch, u)
        gap = np.abs(christoffel(patch, u, adapt_frame(patch, u).E) - expected).max()
        assert np.abs(expected).max() > 1e10
        assert gap <= 1.5e-15 * np.abs(expected).max()


class TestPatchValidation:
    @pytest.mark.parametrize(
        "n, domain, message",
        [
            (0, np.zeros((0, 2)), "half-dimension n must be a positive integer"),
            (2, box((-1.0, 1.0), 3), r"domain must have shape \(4, 2\)"),
            (1, [(-1.0, 1.0), (2.0, -2.0)], "domain bounds must satisfy lower < upper"),
        ],
    )
    def test_patch_rejects_a_bad_n_or_domain(self, n, domain, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ManifoldPatch(n=n, domain=domain, metric_field=np.eye, j_field=np.eye)

    def test_patch_rejects_an_unknown_flag(self):
        # The flags are keywords: a misspelt one is refused, not dropped,
        # so it cannot silently switch verify-geometry's round-sphere checks off.
        fields = dict(n=1, domain=box((-1.0, 1.0), 2), metric_field=np.eye, j_field=np.eye)
        with pytest.raises(TypeError, match="unit_round_shpere"):
            ManifoldPatch(**fields, unit_round_shpere=True)
        patch = ManifoldPatch(**fields)
        assert not patch.unit_round_sphere

    @pytest.mark.parametrize("point", [np.zeros(3), np.float64(0.0), np.zeros((2, 6))])
    def test_require_interior_rejects_a_point_of_the_wrong_shape(self, point):
        shape = re.escape(str(np.shape(point)))
        with pytest.raises(ValueError, match=f"^point has shape {shape}, expected"):
            require_interior(flat_patch(), point)

    def test_boundary_message_names_the_point_and_patch(self):
        with pytest.raises(ValueError) as error:
            require_interior(flat_patch(), np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        assert str(error.value) == "point [0.0, 1.0, 0.0, 0.0] is not interior to patch 'flat-1.0'"

    def test_residuals_clean_on_catalog(self):
        from twistorcheck import nearly_kahler_s6

        res = patch_residuals(nearly_kahler_s6().patch, np.array([0.2, 0.1, -0.15, 0.05, 0.0, 0.1]))
        assert res["j_square"] < 1e-12
        assert res["compatibility"] < 1e-12
        assert res["metric_spectrum"].min() > 0

    def test_validate_patch_accepts_flat(self):
        g, J, spectrum = validate_patch(flat_patch(), np.zeros(4))
        assert np.array_equal(g, np.eye(4)) and np.array_equal(J, j0_matrix(2))
        assert np.array_equal(spectrum, np.ones(4))

    def test_adapt_frame_evaluates_each_field_once(self):
        from twistorcheck import nearly_kahler_s6

        patch = nearly_kahler_s6().patch
        calls = {"g": 0, "J": 0}

        def counted(key, field):
            def call(u):
                calls[key] += 1
                return field(u)
            return call

        counting = dataclasses.replace(
            patch, metric_field=counted("g", patch.metric_field), j_field=counted("J", patch.j_field)
        )
        adapt_frame(counting, np.array([0.1, 0.0, -0.1, 0.05, 0.2, 0.0]))
        assert calls == {"g": 1, "J": 1}

    def test_displaced_frames_are_validated(self):
        # J^2 = -Id breaks away from the base point only: the frame there is
        # fine, and so is the frame route, whose complex points are not
        # validated; the frames at real displaced points must still reject
        # the field.
        from twistorcheck.connection import frame_field_jet

        n = 2
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 2 * n),
            metric_field=pointwise(lambda u: np.eye(2 * n)),
            j_field=pointwise(lambda u: (1.0 + u[0]) * j0_matrix(n)),
        )
        jet = frame_field_jet(patch, np.zeros(4))
        with pytest.raises(ValueError, match=r"^j_square residual .* at \[1e-05, 0\.0, 0\.0, 0\.0\]$"):
            evaluate_frame_field(patch, jet.frame, stencil_points(np.zeros(4), 1e-5))
        with pytest.raises(ValueError, match=r"^j_square residual .* at \[0\.5, 0\.0, 0\.0, 0\.0\]$"):
            point_jet(patch, np.array([0.5, 0.0, 0.0, 0.0]))

    def test_frame_field_reevaluation_matches(self):
        from twistorcheck import nearly_kahler_s6

        patch = nearly_kahler_s6().patch
        u = np.array([0.1, 0.0, -0.1, 0.05, 0.2, 0.0])
        frame = adapt_frame(patch, u)
        moved = evaluate_frame_field(patch, frame, u)
        for name in ("E", "g", "J", "pivots"):
            assert np.array_equal(getattr(moved, name), getattr(frame, name))


class TestNonFiniteFields:
    """A NaN field, jet or rotation fails its gate; a ``residual >= tol`` test alone lets NaN through."""

    POINTS = np.array([[0.1, 0.0, 0.0, 0.0], [0.6, 0.2, 0.0, 0.0], [0.7, 0.0, 0.0, 0.0]])

    def test_nan_j_at_one_point_is_named(self):
        def j_field(u):
            return np.full((4, 4), np.nan) if u[0] > 0.5 else j0_matrix(2)

        patch = dataclasses.replace(flat_patch(), j_field=pointwise(j_field))
        with pytest.raises(ValueError, match=r"^j_field is not finite at \[0\.6, 0\.2,"):
            validate_patch(patch, self.POINTS)
        with pytest.raises(ValueError, match="^j_field is not finite"):
            adapt_frame(patch, self.POINTS)

    def test_nan_metric_is_an_incompatible_structure(self):
        def metric_field(u):
            return np.eye(4) * (np.nan if u[0] > 0.5 else 1.0)

        patch = dataclasses.replace(flat_patch(), metric_field=pointwise(metric_field))
        with pytest.raises(ValueError, match=r"^metric_field is not finite at \[0\.6, 0\.2,"):
            validate_patch(patch, self.POINTS)

    def test_nan_metric_jet_is_an_incompatible_structure(self):
        patch = dataclasses.replace(flat_patch(), metric_jet=pointwise(lambda u: np.full((4, 4, 4), np.nan)))
        with pytest.raises(ValueError, match=r"^metric_jet is not finite at \[0\.1, 0\.0,"):
            field_derivative(patch, self.POINTS, which="metric")
        with pytest.raises(ValueError, match="^metric_jet is not finite"):
            point_jet(patch, self.POINTS)

    def test_nan_rotation_is_rejected(self):
        frame = adapt_frame(flat_patch(), np.zeros(4))
        with pytest.raises(ValueError, match=r"^rotation must be orthogonal and commute with J0$"):
            rotate_frame(frame, np.full((4, 4), np.nan))


class TestPointJet:
    POINT = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])

    def test_recomputed_jet_is_bitwise_equal(self):
        from twistorcheck import nearly_kahler_s6

        patch = nearly_kahler_s6().patch
        first, second = point_jet(patch, self.POINT), point_jet(patch, self.POINT)
        for name in ("point", "E", "g", "J"):
            assert np.array_equal(getattr(first.frame, name), getattr(second.frame, name))
        assert np.array_equal(first.frame.pivots, second.frame.pivots)
        assert np.array_equal(first.dJ, second.dJ)
        assert np.array_equal(first.Gamma, second.Gamma)

    def test_rotation_reuses_the_jet_and_changes_only_the_frame(self):
        from twistorcheck import nearly_kahler_s6

        jet = point_jet(nearly_kahler_s6().patch, self.POINT)
        U = random_unitary_rotation(3, np.random.default_rng(8))
        rotated = jet.rotated(U)
        assert rotated.dJ is jet.dJ and rotated.Gamma is jet.Gamma
        assert rotated.frame.g is jet.frame.g and rotated.frame.J is jet.frame.J
        assert rotated.frame.point is jet.frame.point
        assert np.array_equal(rotated.frame.pivots, jet.frame.pivots)
        assert np.array_equal(rotated.frame.E, jet.frame.E @ U)
        assert np.array_equal(rotated.rotated(U.T).frame.E, (jet.frame.E @ U) @ U.T)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rotated.dJ = jet.Gamma
        assert not rotated.dJ.flags.writeable and not rotated.frame.g.flags.writeable

    def test_margin_and_validation(self):
        # no stencil leaves the point, so only the patch's own boundary is refused
        patch = flat_patch()
        point_jet(patch, np.array([1.0 - 1.5e-5, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"^point \[1\.0, 0\.0, 0\.0, 0\.0\] is not interior to patch "):
            point_jet(patch, np.array([1.0, 0.0, 0.0, 0.0]))
        jet = point_jet(patch, np.zeros(4))
        assert np.array_equal(jet.frame.E, np.eye(4))
        assert np.abs(jet.dJ).max() == 0.0 and np.abs(jet.Gamma).max() == 0.0


class TestBatchedFields:
    def test_pointwise_adapter_gives_the_vectorised_report(self):
        from twistorcheck import nearly_kahler_s6, theorem_report
        from twistorcheck.catalog import grid_points

        patch = nearly_kahler_s6().patch
        looped = dataclasses.replace(patch, j_field=pointwise(patch.j_field))
        points = grid_points(patch, 2)[::9]
        for u in (points[0], points):
            a = theorem_report(point_jet(patch, u))
            b = theorem_report(point_jet(looped, u))
            for name in ("normN2", "margin", "bound_paper", "det_F"):
                assert np.abs(np.asarray(getattr(a, name)) - getattr(b, name)).max() <= 1e-12
            assert np.array_equal(a.chain_ok, b.chain_ok)
            assert np.array_equal(a.nondegenerate, b.nondegenerate)

    def test_pointwise_carries_complex_points(self):
        # the adapter keeps a complex point complex, value and all, so a
        # per-point field differentiates by the complex step like a batched one
        metric = pointwise(lambda p: np.exp(p[0] - 0.5 * p[1]) * np.eye(4))
        u = np.array([[0.1, 0.2, 0.0, 0.0], [-0.3, 0.0, 0.5, 0.0]])
        z = u + 1e-30j * np.eye(4)[0]
        values = metric(z)
        assert values.dtype == complex and values.shape == (2, 4, 4)
        factor = np.exp(u[:, 0] - 0.5 * u[:, 1])
        assert np.allclose(values.imag[:, 0, 0], 1e-30 * factor, rtol=1e-15, atol=0.0)
        patch = ManifoldPatch(
            n=2, domain=box((-1.0, 1.0), 4), metric_field=metric, j_field=pointwise(lambda p: j0_matrix(2))
        )
        d = field_derivative(patch, u, which="metric")
        expected = np.zeros((2, 4, 4, 4))
        expected[:, 0] = factor[:, None, None] * np.eye(4)
        expected[:, 1] = -0.5 * factor[:, None, None] * np.eye(4)
        assert np.abs(d - expected).max() <= 1e-15

    def test_a_field_that_casts_complex_points_to_float_is_refused(self):
        # the cast would drop i h e_c and make every complex-step derivative
        # silently zero; the one real point of a report still evaluates
        def metric(u):
            u = np.asarray(u, dtype=float)
            return np.exp(u[..., 0])[..., None, None] * np.eye(4)

        patch = dataclasses.replace(flat_patch(), metric_field=metric)
        point_jet(dataclasses.replace(patch, metric_jet=lambda u: np.zeros(u.shape + (4, 4))), np.zeros(4))
        message = r"^metric_field casts complex points to float; .* complex-analytic in u$"
        with pytest.raises(ValueError, match=message):
            field_derivative(patch, np.zeros(4), which="metric")
        with pytest.raises(ValueError, match=message):
            point_jet(patch, np.zeros(4))

    def test_per_point_callable_needs_the_adapter(self):
        patch = ManifoldPatch(
            n=2,
            domain=box((-1.0, 1.0), 4),
            metric_field=lambda u: np.eye(4),
            j_field=pointwise(lambda u: j0_matrix(2)),
        )
        with pytest.raises(ValueError, match="geometry.pointwise"):
            point_jet(patch, np.zeros((3, 4)))

    def test_batch_validation_names_the_failing_point(self):
        n = 2
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: np.eye(4)),
            j_field=pointwise(lambda u: (1.0 + (u[0] > 0.5)) * j0_matrix(n)),
        )
        points = np.zeros((2, 3, 4))
        points[1, 1, 0] = 0.75
        with pytest.raises(ValueError, match=r"^j_square residual .* at \[0\.75, 0\.0, 0\.0, 0\.0\]$"):
            adapt_frame(patch, points)
        points[1, 1, 0] = 0.25
        assert adapt_frame(patch, points).pivots.shape == (2, 3, 2)

    def test_pivot_change_at_one_stencil_point(self):
        # g = I and J e_1 = v(theta) = (sin theta, cos theta)/2 in (e_2, e_3)
        # plus sqrt(3)/2 e_4, theta = pi/4 + u_1 + h/2: step 2 takes the one
        # of e_2, e_3 with the smaller |v| component, e_3 at u = 0 and e_2 at
        # the central-difference stencil point u = -h e_1 alone.  The complex
        # frames of u = 0 carry its pivots, so differentiating the smooth
        # field there meets no switch: their real part is the frame of u = 0,
        # which another pivot would move by O(1).
        from twistorcheck.connection import frame_field_jet, structure_equation_residual

        n = 2
        h = 1e-5

        def j_at(u):
            theta, phi = np.pi / 4 + u[0] + h / 2, np.pi / 3
            O = np.eye(4, dtype=u.dtype)
            O[1:3, 1:3] = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
            tilt = np.eye(4)
            tilt[2:, 2:] = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
            O = O @ tilt
            return O @ j0_matrix(n) @ O.T

        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: np.eye(4)),
            j_field=pointwise(j_at),
        )
        origin = np.zeros(4)
        assert point_jet(patch, origin).frame.pivots.tolist() == [0, 2]
        assert adapt_frame(patch, -h * np.eye(4)[0]).pivots.tolist() == [0, 1]
        jet = frame_field_jet(patch, origin)
        assert np.abs(jet.shifted.real - jet.frame.E).max() <= 1e-14 * np.abs(jet.frame.E).max()
        assert structure_equation_residual(jet) < 1e-14
        # the same point in a batch carries them too, bit for bit
        stacked = frame_field_jet(patch, np.array([[0.5, 0.0, 0.0, 0.0], origin]))
        assert np.abs(stacked.shifted[1].real - jet.frame.E).max() <= 1e-14 * np.abs(jet.frame.E).max()
        assert np.array_equal(stacked.shifted[1], jet.shifted)
        # a re-evaluation that decides per point names the switch
        message = r"^pivot sequence changed from \(0, 2\) to \(0, 1\) at \[-1e-05, 0\.0, 0\.0, 0\.0\]$"
        with pytest.raises(ValueError, match=message):
            evaluate_frame_field(patch, jet.frame, stencil_points(origin, h))


class TestLargestShare:
    """A flat n = 2 patch whose J e_1 lies within 2 delta of e_2 everywhere:
    the first usable vector at step 2, e_2, keeps only about delta of its
    norm, and the frame route stays accurate because the sweep passes it by."""

    @staticmethod
    def tilted_entry(delta):
        # J = O J0 O^T with O = C(u) R: R fixes e_1 and turns e_3 = J0 e_1 to
        # cos(delta) e_2 + sin(delta) e_4, and C(u) is the Cayley transform of
        # 0.3 sum_c u_c A_c for seeded skew A_c on the box (-delta, delta)^4
        from twistorcheck.catalog import CatalogEntry

        n, dim = 2, 4
        A = np.random.default_rng(5).standard_normal((dim, dim, dim))
        A = 0.3 * (A - np.swapaxes(A, -1, -2))
        R = np.zeros((dim, dim))
        R[0, 0] = R[2, 1] = 1.0
        R[1, 2] = R[3, 3] = np.cos(delta)
        R[3, 2], R[1, 3] = np.sin(delta), -np.sin(delta)

        def j_field(u):
            S = np.tensordot(u, A, axes=([-1], [0]))
            O = np.linalg.solve(np.eye(dim) - S, np.eye(dim) + S) @ R
            return O @ j0_matrix(n) @ np.swapaxes(O, -1, -2)

        patch = ManifoldPatch(
            n=n,
            domain=box((-delta, delta), dim),
            metric_field=lambda u: np.broadcast_to(np.eye(dim), u.shape[:-1] + (dim, dim)),
            j_field=j_field,
            label="tilted",
        )
        return CatalogEntry(patch=patch)

    @pytest.mark.parametrize("delta", [1e-3, 1e-2])
    def test_frame_route_passes_the_nearly_paired_vector(self, delta):
        from twistorcheck.cli import GEOMETRY_TOLERANCES, geometry_checks

        entry = self.tilted_entry(delta)
        u = sample_points(entry.patch, 16, np.random.default_rng(0))
        J = entry.patch.j_field(u)
        assert np.abs(J[:, :, 0] - np.eye(4)[1]).max() < 2.0 * delta
        assert np.sqrt(1.0 - J[:, 1, 0] ** 2).max() < 2.0 * delta
        pivots = adapt_frame(entry.patch, u).pivots
        assert np.all(pivots[:, 0] == 0) and np.all(pivots[:, 1] != 1)
        report = geometry_checks(entry, points=16, seed=0, rotations=2)
        assert set(report["checks"]) == set(GEOMETRY_TOLERANCES) - {"curvature_identity", "chern_identity"}
        for name, check in report["checks"].items():
            assert check["max_residual"] <= check["tolerance"], name
        assert report["all_pass"]


class TestRotationStacks:
    """One rotation per point, given as a (..., 2n, 2n) stack."""

    POINTS = np.array(
        [
            [0.1, -0.2, 0.15, 0.02, -0.1, 0.05],
            [-0.05, 0.1, 0.0, 0.2, 0.12, -0.08],
            [0.0, 0.03, -0.2, -0.1, 0.05, 0.1],
        ]
    )

    def _frames_and_stack(self, count=6):
        from twistorcheck import nearly_kahler_s6

        patch = nearly_kahler_s6().patch
        points = np.concatenate([self.POINTS, self.POINTS[::-1]])[:count]
        rng = np.random.default_rng(11)
        U = np.stack([random_unitary_rotation(3, rng) for _ in range(count)])
        return patch, adapt_frame(patch, points), U

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_drawn_stack_equals_single_draws(self, n):
        # one batched draw of shape (3, 4) takes the stream in C order: element
        # [i, j] is the (4 i + j)-th single draw, bit for bit
        stack = random_unitary_rotation(n, np.random.default_rng(5), (3, 4))
        rng = np.random.default_rng(5)
        singles = [random_unitary_rotation(n, rng) for _ in range(12)]
        assert stack.shape == (3, 4, 2 * n, 2 * n)
        assert np.array_equal(stack, np.reshape(singles, stack.shape))

    def test_valid_stack_is_accepted(self):
        # six points and six rotations: a (6, 6, 6) stack whose plain transpose
        # would mix the stack axis with the matrix axes
        patch, frame, U = self._frames_and_stack(6)
        assert U.shape == (6, 6, 6)
        rotated = rotate_frame(frame, U)
        assert rotated.E.shape == (6, 6, 6)
        eye = np.eye(6)
        for k in range(6):
            E = rotated.E[k]
            assert np.abs(E.T @ frame.g[k] @ E - eye).max() < 1e-9
            assert np.abs(frame.J[k] @ E[:, :3] - E[:, 3:]).max() < 1e-9

    def test_doctored_entry_is_named(self):
        patch, frame, U = self._frames_and_stack(6)
        U = U.copy()
        U[4] = 1.001 * U[4]
        with pytest.raises(ValueError, match=r"^rotation \(4,\) must be orthogonal and commute with J0$"):
            rotate_frame(frame, U)
        U = np.stack([U[:3], U[3:]])  # (2, 3, 6, 6): the bad entry sits at (1, 1)
        with pytest.raises(ValueError, match=r"rotation \(1, 1\) must"):
            rotate_frame(adapt_frame(patch, self.POINTS), U)
        with pytest.raises(ValueError, match=r"^rotation must be orthogonal"):
            rotate_frame(frame, 2.0 * np.eye(6))

    def test_stack_equals_a_loop_of_single_rotations(self):
        patch, frame, U = self._frames_and_stack(6)
        stacked = rotate_frame(frame, U)
        for k in range(6):
            single = rotate_frame(adapt_frame(patch, frame.point[k]), U[k])
            assert np.array_equal(stacked.E[k], single.E)

    def test_stack_broadcasts_against_the_batch(self):
        # rotations (R, P) against a jet of P points: every rotation of every
        # point is one batch, and each slice is the single-point jet rotated
        from twistorcheck import nearly_kahler_s6, theorem_report

        patch = nearly_kahler_s6().patch
        jet = point_jet(patch, self.POINTS)
        rng = np.random.default_rng(2)
        U = np.stack([[random_unitary_rotation(3, rng) for _ in self.POINTS] for _ in range(2)])
        rotated = jet.rotated(U)
        # only E takes the broadcast batch; the rest stays the jet's, per point
        assert rotated.frame.E.shape == (2, 3, 6, 6)
        assert rotated.dJ is jet.dJ and rotated.Gamma is jet.Gamma
        assert rotated.frame.g is jet.frame.g and rotated.frame.J is jet.frame.J
        assert rotated.frame.point is jet.frame.point
        assert np.array_equal(rotated.frame.pivots, jet.frame.pivots)
        stacked = theorem_report(rotated)
        for r in range(2):
            for p in range(3):
                alone = theorem_report(point_jet(patch, self.POINTS[p]).rotated(U[r, p]))
                assert stacked.normN2[r, p] == alone.normN2
                assert stacked.margin[r, p] == alone.margin
                assert stacked.det_F[r, p] == alone.det_F
                assert np.array_equal(stacked.sigma[r, p], alone.sigma)

    def test_frame_field_of_a_stack_is_each_point_alone(self):
        # one frame-field jet for three points: every slice of it is
        # bitwise that point's own
        from twistorcheck.connection import frame_field_jet

        patch, frame, _ = self._frames_and_stack(3)
        stacked = frame_field_jet(patch, frame.point)
        for k in range(3):
            alone = frame_field_jet(patch, frame.point[k])
            for name in ("dE", "dT", "w"):
                assert np.array_equal(getattr(stacked, name)[k], getattr(alone, name)), name
            assert np.array_equal(stacked.shifted[k], alone.shifted)
            assert np.array_equal(stacked.frame.E[k], alone.frame.E)
        with pytest.raises(ValueError, match="lack the frame's batch axes"):
            evaluate_frame_field(patch, frame, frame.point[0])

    def test_rotated_slices_are_the_rotated_frame_field(self):
        # verify-geometry reads the connection of the frames E U as the
        # slices U^T w U; differencing the frame field through the rotated
        # frames, one rotation per point across a central stencil, agrees
        from twistorcheck.connection import coordinate_connection, frame_field_jet

        h = 1e-5
        patch, frame, U = self._frames_and_stack(3)
        jet = frame_field_jet(patch, frame.point)
        law = np.swapaxes(U, -1, -2)[:, None] @ jet.w @ U[:, None]
        rotated = rotate_frame(jet.frame, U)
        stencil = evaluate_frame_field(patch, rotated, stencil_points(frame.point, h))
        # the field through E U is the unrotated field times U
        dE = stencil_difference(stencil.E @ U[:, None], h, 1)
        direct = coordinate_connection(rotated.g, rotated.E, dE, jet.Gamma)
        assert np.abs(direct).max() > 0.1
        assert np.abs(law - direct).max() <= 1e-9
