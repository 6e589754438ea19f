"""Coefficient tables, both phi formulas, margin, Pfaffian, and the bound chain."""

import dataclasses

import numpy as np
import pytest

from twistorcheck import (
    ChainViolation,
    WrongPatch,
    adapt_frame,
    alpha_beta,
    chern_identity_residual,
    conformal_hermitian,
    connection_coefficients,
    connection_derivative,
    critical_constant,
    flat_kahler,
    frame_field_jet,
    j0_matrix,
    margin,
    nearly_kahler_s6,
    nondegenerate,
    perturbed_torus,
    phi_matrix,
    phi_via_bundle_formula,
    point_jet,
    structure_coefficients,
    theorem_report,
)
from twistorcheck.twistorform import _pfaffian


def table_with(n, entries):
    """Skew connection table with omega[A, B, C] = v and the (B, A, C) mirror."""
    om = np.zeros((2 * n, 2 * n, 2 * n))
    for (a, b, c), v in entries.items():
        om[a, b, c] = v
        om[b, a, c] = -v
    return om


class TestAlphaBeta:
    def test_zero(self):
        alpha, beta = alpha_beta(table_with(2, {}))
        assert np.abs(alpha).max() == 0.0 and np.abs(beta).max() == 0.0

    def test_alpha_slot_bookkeeping(self):
        # omega_{1, n+2}(e_1) = 1 lands in alpha_12^1 and nowhere else.
        n = 2
        alpha, beta = alpha_beta(table_with(n, {(0, n + 1, 0): 1.0}))
        expected = np.zeros((n, n, 2 * n))
        expected[0, 1, 0] = 1.0
        expected[1, 0, 0] = -1.0
        assert np.array_equal(alpha, expected)
        assert np.abs(beta).max() == 0.0

    def test_beta_slot_bookkeeping(self):
        # omega_{n+1, n+2}(e_3) = 1 lands in beta_12^3 (and the beta_21^3 mirror).
        n = 2
        alpha, beta = alpha_beta(table_with(n, {(n, n + 1, 2): 1.0}))
        expected = np.zeros((n, n, 2 * n))
        expected[0, 1, 2] = 1.0
        expected[1, 0, 2] = -1.0
        assert np.array_equal(beta, expected)
        assert np.abs(alpha).max() == 0.0

    def test_antisymmetry_inherited(self):
        patch = conformal_hermitian().patch
        point = np.array([1.3, 0.9, 1.1, 1.7])
        alpha, beta = alpha_beta(
            connection_coefficients(frame_field_jet(patch, adapt_frame(patch, point)))
        )
        assert np.abs(alpha + alpha.transpose(1, 0, 2)).max() < 1e-9
        assert np.abs(beta + beta.transpose(1, 0, 2)).max() < 1e-9


def ab_with(n, alpha_entries, beta_entries):
    alpha = np.zeros((n, n, 2 * n))
    beta = np.zeros((n, n, 2 * n))
    for (i, j, a), v in alpha_entries.items():
        alpha[i, j, a] = v
        alpha[j, i, a] = -v
    for (i, j, a), v in beta_entries.items():
        beta[i, j, a] = v
        beta[j, i, a] = -v
    return alpha, beta


class TestStructureCoefficients:
    def test_zero(self):
        coeffs = structure_coefficients(*ab_with(2, {}, {}))
        for t in (coeffs.C, coeffs.Cp, coeffs.d, coeffs.dp, coeffs.Arow):
            assert np.abs(t).max() == 0.0

    def test_alpha_slot_example(self):
        # alpha_23^{1+n} = 1, n = 3: C_123 = 1 with the full d fan-out.
        n = 3
        coeffs = structure_coefficients(*ab_with(n, {(1, 2, n + 0): 1.0}, {}))
        C = np.zeros((n, n, n))
        C[0, 1, 2] = 1.0
        C[0, 2, 1] = -1.0
        assert np.array_equal(coeffs.C, C)
        d = np.zeros((n, n, n))
        d[0, 1, 2] = 1.0
        d[1, 0, 2] = -1.0
        d[0, 2, 1] = -1.0
        d[2, 0, 1] = 1.0
        assert np.array_equal(coeffs.d, d)
        # cyclic identity spot check: 2 C_123 = d_123 - d_231 + d_312
        assert 2.0 * coeffs.C[0, 1, 2] == coeffs.d[0, 1, 2] - coeffs.d[1, 2, 0] + coeffs.d[2, 0, 1]

    def test_beta_slot_example(self):
        # beta_12^1 = 1, n = 2: C_112 = 1, C_121 = -1, Arow_12 = 1.
        coeffs = structure_coefficients(*ab_with(2, {}, {(0, 1, 0): 1.0}))
        assert coeffs.C[0, 0, 1] == 1.0
        assert coeffs.C[0, 1, 0] == -1.0
        assert coeffs.Arow[0, 1] == 1.0

    def test_antisymmetries(self):
        patch = nearly_kahler_s6().patch
        point = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
        coeffs = structure_coefficients(
            *alpha_beta(connection_coefficients(frame_field_jet(patch, adapt_frame(patch, point))))
        )
        assert np.abs(coeffs.C + coeffs.C.transpose(0, 2, 1)).max() < 1e-9
        assert np.abs(coeffs.Cp + coeffs.Cp.transpose(0, 2, 1)).max() < 1e-9
        assert np.abs(coeffs.d + coeffs.d.transpose(1, 0, 2)).max() < 1e-9
        assert np.abs(coeffs.dp + coeffs.dp.transpose(1, 0, 2)).max() < 1e-9
        assert np.all(coeffs.Arow >= 0.0)


class TestPhi:
    def test_flat_is_minus_j0_both_routes(self):
        n = 3
        table = table_with(n, {})
        F1 = phi_matrix(*alpha_beta(table))
        F2 = phi_via_bundle_formula(table)
        assert np.array_equal(F1, -j0_matrix(n))
        assert np.array_equal(F2, -j0_matrix(n))

    def test_single_pair_contribution(self):
        # alpha_12^1 = 1 and beta_12^2 = 1 (n = 2) add exactly +1 at F_12.
        F = phi_matrix(*ab_with(2, {(0, 1, 0): 1.0}, {(0, 1, 1): 1.0}))
        expected = -j0_matrix(2)
        expected[0, 1] += 1.0
        expected[1, 0] -= 1.0
        assert np.array_equal(F, expected)

    def test_skewness_exact_on_random_tables(self):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            om = rng.standard_normal((2 * n, 2 * n, 2 * n))
            om = om - om.transpose(1, 0, 2)
            F1 = phi_matrix(*alpha_beta(om))
            F2 = phi_via_bundle_formula(om)
            assert np.abs(F1 + F1.T).max() == 0.0
            assert np.abs(F2 + F2.T).max() < 1e-12
            assert np.abs(F1 - F2).max() < 1e-12

    def test_formula_equivalence_on_manifolds(self):
        cases = (
            (conformal_hermitian().patch, np.array([1.3, 0.9, 1.1, 1.7])),
            (nearly_kahler_s6().patch, np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])),
        )
        for patch, point in cases:
            table = connection_coefficients(frame_field_jet(patch, adapt_frame(patch, point)))
            F1 = phi_matrix(*alpha_beta(table))
            F2 = phi_via_bundle_formula(table)
            assert np.abs(F1 - F2).max() < 1e-10


class TestMargin:
    def test_reference_form(self):
        assert margin(-j0_matrix(3)) == pytest.approx(1.0, abs=1e-14)

    def test_linearity(self):
        assert margin(-0.5 * j0_matrix(2)) == pytest.approx(0.5, abs=1e-14)

    def test_perturbed_form_against_brute_force(self):
        n = 2
        F = -j0_matrix(n)
        F[0, 1] += 0.1
        F[1, 0] -= 0.1
        got = margin(F)
        # hand value: the symmetrized F J0 splits into 2x2 blocks with
        # eigenvalues 1 +- 0.05
        assert got == pytest.approx(0.95, abs=1e-12)
        # brute-force directional minimum can only sit above the true margin
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((20000, 2 * n))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        vals = np.einsum("ka,ab,kb->k", xs, F @ j0_matrix(n), xs)
        assert vals.min() >= got - 1e-12
        assert vals.min() < got + 2e-3


class TestNondegenerate:
    def test_reference(self):
        assert nondegenerate(-j0_matrix(2)) == (True, 1)
        assert nondegenerate(-j0_matrix(3)) == (True, 1)
        assert nondegenerate(-j0_matrix(4)) == (True, 1)

    def test_zero(self):
        assert nondegenerate(np.zeros((6, 6))) == (False, 0)

    def test_zeroed_block(self):
        F = -j0_matrix(3)
        F[0, 3] = 0.0
        F[3, 0] = 0.0
        assert nondegenerate(F) == (False, 0)

    def test_sign_flips_with_one_pair(self):
        F = -j0_matrix(2)
        F[:, [0]] *= -1.0
        F[[0], :] *= -1.0  # flip e1 pairing: Pfaffian sign flips
        assert nondegenerate(F) == (True, -1)

    def test_pfaffian_squares_to_determinant(self):
        rng = np.random.default_rng(9)
        for dim in (4, 6, 8):
            A = rng.standard_normal((dim, dim))
            A = A - A.T
            pf = _pfaffian(A)
            assert pf**2 == pytest.approx(np.linalg.det(A), rel=1e-9)

    def test_noise_scale_form_is_degenerate(self):
        rng = np.random.default_rng(1)
        A = 1e-10 * rng.standard_normal((6, 6))
        A = A - A.T
        assert nondegenerate(A) == (False, 0)


class TestTheoremReport:
    def test_flat_kahler(self):
        rep = theorem_report(point_jet(flat_kahler(2).patch, np.zeros(4)))
        assert rep.normN2 == 0.0
        assert rep.margin == pytest.approx(1.0, abs=1e-12)
        assert rep.sumA2 == 0.0
        assert rep.bound_quarterA == 1.0
        assert rep.bound_paper == 1.0
        assert rep.chain_ok.all_ok
        assert rep.nondegenerate and rep.pfaffian_sign == 1

    def test_conformal_case2(self):
        rep = theorem_report(point_jet(conformal_hermitian().patch, np.array([1.3, 0.9, 1.1, 1.7])))
        assert rep.normN2 < 1e-8
        assert rep.bound_paper == pytest.approx(1.0, abs=1e-8)
        assert rep.margin > 0.0
        assert rep.margin >= 1.0 - rep.normN2 / 16.0 - 1e-6
        assert rep.chain_ok.all_ok
        assert critical_constant(2) == 16.0

    def test_nearly_kahler(self):
        point = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
        rep = theorem_report(point_jet(nearly_kahler_s6().patch, point))
        assert rep.normN2 >= 64.0 / 5.0
        assert rep.bound_paper <= 0.0  # hypothesis vacuous here
        assert rep.chain_ok.a and rep.chain_ok.b and rep.chain_ok.c and rep.chain_ok.d
        assert critical_constant(3) == pytest.approx(64.0 / 5.0)
        # the pulled-back form vanishes identically on the nearly Kahler sphere
        assert abs(rep.margin) < 1e-8
        assert not rep.nondegenerate and rep.pfaffian_sign == 0

    def test_torus_inside_threshold(self):
        point = np.array([0.4, 0.1, -0.3, 0.2, 0.05, -0.1])
        rep = theorem_report(point_jet(perturbed_torus(eps=0.05).patch, point))
        assert 0.0 < rep.normN2 < 64.0 / 5.0
        assert rep.margin >= 1.0 - (5.0 / 64.0) * rep.normN2 - 1e-6
        assert rep.chain_ok.all_ok and rep.nondegenerate

    def test_strict_mode_raises_on_doctored_tolerance(self):
        # Negative tolerance turns the flat equality margin == quarterA into a
        # strict-inequality failure: the (a) check must fire.
        with pytest.raises(ChainViolation, match=r"\(a\)"):
            theorem_report(point_jet(flat_kahler(2).patch, np.zeros(4)), tol=-1e-3, strict=True)

    def test_margin_positive_implies_nondegenerate(self):
        for patch, point in (
            (flat_kahler(2).patch, np.zeros(4)),
            (conformal_hermitian().patch, np.array([1.2, 1.0, 0.9, 1.5])),
            (perturbed_torus(eps=0.1).patch, np.array([0.3, -0.2, 0.1, 0.0, 0.2, 0.1])),
        ):
            rep = theorem_report(point_jet(patch, point))
            if rep.margin > 1e-8:
                assert rep.nondegenerate

    def test_one_frame_and_one_j_stencil_per_point(self, monkeypatch):
        # Differentiating the Gram-Schmidt frame field built 13 frames and
        # evaluated J 39 times; the point jet needs one frame, which
        # evaluates g and J once, and one call of J on its 2 dim stencil.
        # The Christoffel symbols reuse the frame's g (nk-s6 has a metric jet).
        from twistorcheck import connection, geometry, nijenhuis, twistorform

        patch = nearly_kahler_s6().patch
        calls = {"frame": 0, "g": 0, "J": 0}
        original = geometry.adapt_frame

        def counting_frame(*args, **kwargs):
            calls["frame"] += 1
            return original(*args, **kwargs)

        for module in (geometry, connection, nijenhuis, twistorform):
            if getattr(module, "adapt_frame", None) is original:
                monkeypatch.setattr(module, "adapt_frame", counting_frame)

        def counted(key, field):
            def call(u):
                calls[key] += 1
                return field(u)
            return call

        counting = dataclasses.replace(
            patch, metric_field=counted("g", patch.metric_field), j_field=counted("J", patch.j_field)
        )
        point = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
        rep = theorem_report(point_jet(counting, point))
        assert rep.chain_ok.all_ok
        assert calls["frame"] == 1
        assert calls["J"] <= 2
        assert calls["g"] <= 1


class TestChernIdentity:
    @staticmethod
    def residual(patch, point):
        jet = frame_field_jet(patch, adapt_frame(patch, point))
        return chern_identity_residual(patch, jet, connection_derivative(patch, jet))

    def test_round_sphere_points(self):
        patch = nearly_kahler_s6().patch
        assert self.residual(patch, np.zeros(6)) < 1e-4
        assert self.residual(patch, np.full(6, 0.5 / np.sqrt(6.0))) < 1e-4

    def test_wrong_patch(self):
        with pytest.raises(WrongPatch):
            self.residual(flat_kahler(3).patch, np.zeros(6))


def test_frame_invariance_of_scalars():
    from twistorcheck import random_unitary_rotation

    rng = np.random.default_rng(23)
    cases = (
        (conformal_hermitian().patch, np.array([1.4, 1.0, 0.8, 1.6])),
        (nearly_kahler_s6().patch, np.array([0.05, 0.1, -0.2, 0.15, 0.0, -0.1])),
    )
    for patch, point in cases:
        base = theorem_report(point_jet(patch, point))
        for _ in range(10):
            U = random_unitary_rotation(patch.n, rng)
            rep = theorem_report(point_jet(patch, point).rotated(U))
            assert abs(rep.normN2 - base.normN2) <= 1e-8 * max(1.0, abs(base.normN2))
            assert abs(rep.margin - base.margin) <= 1e-8 * max(1.0, abs(base.margin))
            assert abs(rep.det_F - base.det_F) <= 1e-8 * max(1.0, abs(base.det_F))
            assert rep.pfaffian_sign == base.pfaffian_sign


def test_one_determinant_per_report(monkeypatch):
    """det_F is the determinant the non-degeneracy test used: one LU per report."""
    from twistorcheck.catalog import grid_points

    patch = perturbed_torus(eps=0.1).patch
    jet = point_jet(patch, grid_points(patch, 2)[::7])
    F = phi_matrix(*alpha_beta(theorem_report(jet).sigma))
    original = np.linalg.det
    expected = original(F)
    calls = 0

    def counting(a):
        nonlocal calls
        calls += 1
        return original(a)

    monkeypatch.setattr(np.linalg, "det", counting)
    rep = theorem_report(jet)
    assert calls == 1
    assert np.array_equal(rep.det_F, expected)
    nondeg, sign = nondegenerate(F, det=expected)
    assert np.array_equal(nondeg, rep.nondegenerate) and np.array_equal(sign, rep.pfaffian_sign)
