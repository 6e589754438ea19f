"""Patch invariants, adapted frames, field derivatives, Christoffel symbols."""

import dataclasses

import numpy as np
import pytest

from twistorcheck import (
    BoundaryProximity,
    DegeneratePivot,
    FrameDiscontinuity,
    IncompatibleStructure,
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
from twistorcheck.geometry import evaluate_frame_field, require_interior, validate_patch


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
        # invariant is that every adapted frame at a point has the same
        # determinant sign in chart coordinates, not that the sign is +1.
        rng = np.random.default_rng(3)
        for patch, point in catalog_like_patches:
            frame = adapt_frame(patch, point)
            J = patch.j_field(point)
            n = patch.n
            assert np.abs(J @ frame.E[:, :n] - frame.E[:, n:]).max() < 1e-12
            reference_sign = np.sign(np.linalg.det(frame.E))
            assert reference_sign != 0
            seed = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
            other = adapt_frame(patch, point, seed=seed)
            assert np.sign(np.linalg.det(other.E)) == reference_sign

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

    def test_gram_schmidt_idempotent(self):
        patch = conformal_inverse_sq_patch()
        u = np.array([1.1, 0.9, 1.3, 0.8])
        first = adapt_frame(patch, u)
        again = adapt_frame(patch, u, seed=first.E)
        assert np.abs(again.E - first.E).max() < 1e-12

    def test_degenerate_seed_raises(self):
        with pytest.raises(DegeneratePivot):
            adapt_frame(flat_patch(), np.zeros(4), seed=np.zeros((4, 4)))

    def test_degenerate_pivot_advances_to_next_column(self):
        # First seed column is zero: the sweep must skip it deterministically.
        seed = np.eye(4)
        seed[:, 0] = 0.0
        frame = adapt_frame(flat_patch(), np.zeros(4), seed=seed)
        assert frame.pivots.tolist() == [1, 2]

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
        with pytest.raises(IncompatibleStructure):
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
        with pytest.raises(IncompatibleStructure, match="metric_symmetry residual 2.000e-01"):
            adapt_frame(patch, np.zeros(4))

    def test_point_outside_domain(self):
        with pytest.raises(BoundaryProximity):
            adapt_frame(flat_patch(), np.array([2.0, 0.0, 0.0, 0.0]))


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
        step = 1e-5
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: (1.0 + u[0]) * np.eye(4)),
            j_field=pointwise(lambda u: j0_matrix(n)),
        )
        d = field_derivative(patch, np.zeros(4), which="metric", step=step)
        expected = np.zeros((4, 4, 4))
        expected[0] = np.eye(4)
        assert np.abs(d - expected).max() < step**2

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
        for step in (1e-3, 5e-4):
            fd = field_derivative(bare, u, which="metric", step=step)
            assert np.abs(fd - jet).max() < 4.0 * step**2

    def test_fd_truncation_shrinks_quadratically(self):
        from twistorcheck import nearly_kahler_s6

        patch = nearly_kahler_s6().patch
        u = np.array([0.12, -0.05, 0.2, 0.03, -0.1, 0.07])
        jet = patch.metric_jet(u)
        bare = ManifoldPatch(
            n=patch.n, domain=patch.domain, metric_field=patch.metric_field, j_field=patch.j_field
        )
        err_h = np.abs(field_derivative(bare, u, which="metric", step=2e-3) - jet).max()
        err_h2 = np.abs(field_derivative(bare, u, which="metric", step=1e-3) - jet).max()
        assert err_h2 < err_h / 3.0  # ~4x reduction for central differences

    def test_boundary_guard(self):
        patch = flat_patch()
        with pytest.raises(BoundaryProximity):
            field_derivative(patch, np.array([0.999999, 0.0, 0.0, 0.0]), which="metric")

    def test_bad_step_and_which(self):
        with pytest.raises(ValueError):
            field_derivative(flat_patch(), np.zeros(4), which="metric", step=0.0)
        with pytest.raises(ValueError):
            field_derivative(flat_patch(), np.zeros(4), which="volume")


class TestChristoffel:
    def test_flat_zero(self):
        patch, u = flat_patch(), np.zeros(4)
        gamma = christoffel(patch, u, patch.metric_field(u))
        assert np.abs(gamma).max() == 0.0

    def test_exponential_metric_two_dimensional(self):
        # g = e^{2 u1} Id in dimension 2: the nonzero symbols are known in closed form.
        patch = ManifoldPatch(
            n=1,
            domain=box((-1.0, 1.0), 2),
            metric_field=pointwise(lambda u: np.exp(2.0 * u[0]) * np.eye(2)),
            j_field=pointwise(lambda u: j0_matrix(1)),
        )
        u = np.array([0.3, -0.4])
        gamma = christoffel(patch, u, patch.metric_field(u))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        expected[0, 1, 1] = -1.0
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0
        assert np.abs(gamma - expected).max() < 1e-9

    def test_round_sphere_origin(self):
        from twistorcheck import nearly_kahler_s6

        patch, u = nearly_kahler_s6().patch, np.zeros(6)
        gamma = christoffel(patch, u, patch.metric_field(u))
        assert np.abs(gamma).max() < 1e-12

    def test_symmetry_in_lower_indices(self):
        from twistorcheck import conformal_hermitian

        patch, u = conformal_hermitian().patch, np.array([1.2, 0.8, 1.6, 0.9])
        gamma = christoffel(patch, u, patch.metric_field(u))
        assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() < 1e-12

    def test_singular_metric(self):
        from twistorcheck import SingularMetric

        n = 1
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 2),
            metric_field=pointwise(lambda u: np.diag([1.0, 1e-15])),
            j_field=pointwise(lambda u: j0_matrix(n)),
        )
        with pytest.raises(SingularMetric):
            christoffel(patch, np.zeros(2), patch.metric_field(np.zeros(2)))


class TestPatchValidation:
    def test_residuals_clean_on_catalog(self):
        from twistorcheck import nearly_kahler_s6
        from twistorcheck.geometry import patch_residuals

        res = patch_residuals(nearly_kahler_s6().patch, np.array([0.2, 0.1, -0.15, 0.05, 0.0, 0.1]))
        assert res["j_square"] < 1e-12
        assert res["compatibility"] < 1e-12
        assert res["metric_min_eigenvalue"] > 0

    def test_require_interior_margin(self):
        patch = flat_patch()
        require_interior(patch, np.array([0.9, 0.0, 0.0, 0.0]), margin=0.05)
        with pytest.raises(BoundaryProximity):
            require_interior(patch, np.array([0.99, 0.0, 0.0, 0.0]), margin=0.05)

    def test_validate_patch_accepts_flat(self):
        g, J = validate_patch(flat_patch(), np.zeros(4))
        assert np.array_equal(g, np.eye(4)) and np.array_equal(J, j0_matrix(2))

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
        # fine, and the stencil frames of the frame-differentiation route
        # must still reject the field.
        from twistorcheck.connection import frame_field_jet

        n = 2
        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 2 * n),
            metric_field=pointwise(lambda u: np.eye(2 * n)),
            j_field=pointwise(lambda u: (1.0 + u[0]) * j0_matrix(n)),
        )
        frame = adapt_frame(patch, np.zeros(4))
        with pytest.raises(IncompatibleStructure):
            frame_field_jet(patch, frame)

    def test_frame_field_reevaluation_matches(self):
        from twistorcheck import nearly_kahler_s6

        patch = nearly_kahler_s6().patch
        u = np.array([0.1, 0.0, -0.1, 0.05, 0.2, 0.0])
        frame = adapt_frame(patch, u)
        moved = evaluate_frame_field(patch, frame, u)
        for name in ("E", "g", "J", "pivots"):
            assert np.array_equal(getattr(moved, name), getattr(frame, name))


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
        assert np.array_equal(rotated.frame.rotation, U)
        assert np.array_equal(rotated.rotated(U.T).frame.rotation, U @ U.T)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rotated.dJ = jet.Gamma
        assert not rotated.dJ.flags.writeable and not rotated.frame.g.flags.writeable

    def test_margin_and_validation(self):
        patch = flat_patch()
        with pytest.raises(BoundaryProximity):
            point_jet(patch, np.array([1.0 - 1.5e-5, 0.0, 0.0, 0.0]))
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
            assert np.array_equal(a.chain_ok.all_ok, b.chain_ok.all_ok)
            assert np.array_equal(a.nondegenerate, b.nondegenerate)

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
        with pytest.raises(IncompatibleStructure, match=r"at \[0\.75, 0\.0, 0\.0, 0\.0\]"):
            adapt_frame(patch, points)
        points[1, 1, 0] = 0.25
        assert adapt_frame(patch, points).pivots.shape == (2, 3, 2)

    def test_pivot_change_at_one_stencil_point(self):
        # At u = h e_3 alone J turns e_1 into e_2, so the second Gram-Schmidt
        # step there skips seed column 2: the frame field jumps at one
        # displaced point, and differentiating it must say so.
        from twistorcheck.connection import frame_field_jet

        n = 2
        h = 1e-5
        jump = np.zeros(4)
        jump[2] = h
        other = np.zeros((4, 4))
        other[1, 0] = other[3, 2] = 1.0
        other[0, 1] = other[2, 3] = -1.0

        def j_at(u):
            return other if np.allclose(u, jump, rtol=0.0, atol=1e-12) else j0_matrix(n)

        patch = ManifoldPatch(
            n=n,
            domain=box((-1.0, 1.0), 4),
            metric_field=pointwise(lambda u: np.eye(4)),
            j_field=pointwise(j_at),
        )
        frame = adapt_frame(patch, np.zeros(4))
        assert frame.pivots.tolist() == [0, 1]
        with pytest.raises(FrameDiscontinuity, match=r"from \(0, 1\) to \(0, 2\) at \[0\.0, 0\.0, 1e-05, 0\.0\]"):
            frame_field_jet(patch, frame, step=h)


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
            assert np.array_equal(stacked.rotation[k], single.rotation)

    def test_stack_broadcasts_against_the_batch(self):
        # rotations (R, P) against a jet of P points: every rotation of every
        # point is one batch, and each slice is the single-point jet rotated
        from twistorcheck import nearly_kahler_s6, theorem_report

        patch = nearly_kahler_s6().patch
        jet = point_jet(patch, self.POINTS)
        rng = np.random.default_rng(2)
        U = np.stack([[random_unitary_rotation(3, rng) for _ in self.POINTS] for _ in range(2)])
        rotated = jet.rotated(U)
        assert rotated.frame.E.shape == (2, 3, 6, 6) and rotated.dJ.shape == (2, 3, 6, 6, 6)
        assert rotated.frame.point.shape == (2, 3, 6) and rotated.frame.pivots.shape == (2, 3, 3)
        stacked = theorem_report(rotated)
        for r in range(2):
            for p in range(3):
                alone = theorem_report(point_jet(patch, self.POINTS[p]).rotated(U[r, p]))
                assert stacked.normN2[r, p] == alone.normN2
                assert stacked.margin[r, p] == alone.margin
                assert stacked.det_F[r, p] == alone.det_F
                assert np.array_equal(stacked.sigma[r, p], alone.sigma)

    def test_frame_field_applies_a_rotation_per_point(self):
        # the frame field through a frame rotated point by point is
        # differentiated with each point's own rotation across the stencil
        from twistorcheck.connection import frame_field_jet

        patch, frame, U = self._frames_and_stack(3)
        stacked = frame_field_jet(patch, rotate_frame(frame, U)).w
        for k in range(3):
            alone = frame_field_jet(patch, rotate_frame(adapt_frame(patch, frame.point[k]), U[k])).w
            assert np.array_equal(stacked[k], alone)
        with pytest.raises(ValueError, match="lack the frame's batch axes"):
            evaluate_frame_field(patch, frame, frame.point[0])
