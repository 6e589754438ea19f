"""Coefficient tables, both phi formulas, margin, Pfaffian, and the bound chain."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from twistorcheck import (
    WrongPatch,
    alpha_beta,
    chern_identity_residual,
    conformal_hermitian,
    connection_coefficients,
    connection_derivative,
    critical_constant,
    default_entries,
    flat_kahler,
    frame_field_jet,
    grid_points,
    j0_matrix,
    margin,
    nearly_kahler_s6,
    nijenhuis_frame,
    nijenhuis_norm,
    nondegenerate,
    perturbed_torus,
    phi_matrix,
    phi_via_bundle_formula,
    point_jet,
    random_unitary_rotation,
    sample_points,
    sigma_report,
    structure_coefficients,
    theorem_report,
)
from twistorcheck.connection import nabla_j_connection, sigma_part


def expanded_pfaffian(A):
    """Pfaffian by expansion along the first row: sum_j (-1)^(j+1) A[0, j] Pf(A without rows/columns 0, j)."""
    if len(A) == 0:
        return 1.0
    total = 0.0
    for j in range(1, len(A)):
        keep = [k for k in range(1, len(A)) if k != j]
        total += (-1) ** (j + 1) * A[0][j] * expanded_pfaffian([[A[r][c] for c in keep] for r in keep])
    return total


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
            connection_coefficients(frame_field_jet(patch, point))
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
        for t in structure_coefficients(*ab_with(2, {}, {})):
            assert np.abs(t).max() == 0.0

    def test_alpha_slot_example(self):
        # alpha_23^{1+n} = 1, n = 3: C_123 = 1 with the full d fan-out.
        n = 3
        C, _, d, _ = structure_coefficients(*ab_with(n, {(1, 2, n + 0): 1.0}, {}))
        expected_C = np.zeros((n, n, n))
        expected_C[0, 1, 2] = 1.0
        expected_C[0, 2, 1] = -1.0
        assert np.array_equal(C, expected_C)
        expected_d = np.zeros((n, n, n))
        expected_d[0, 1, 2] = 1.0
        expected_d[1, 0, 2] = -1.0
        expected_d[0, 2, 1] = -1.0
        expected_d[2, 0, 1] = 1.0
        assert np.array_equal(d, expected_d)
        # cyclic identity spot check: 2 C_123 = d_123 - d_231 + d_312
        assert 2.0 * C[0, 1, 2] == d[0, 1, 2] - d[1, 2, 0] + d[2, 0, 1]

    def test_beta_slot_example(self):
        # beta_12^1 = 1, n = 2: C_112 = 1, C_121 = -1, sum A^2 = sum C^2 + sum C'^2 = 2.
        C, Cp, _, _ = structure_coefficients(*ab_with(2, {}, {(0, 1, 0): 1.0}))
        assert C[0, 0, 1] == 1.0
        assert C[0, 1, 0] == -1.0
        assert (C**2).sum() + (Cp**2).sum() == 2.0

    def test_antisymmetries(self):
        patch = nearly_kahler_s6().patch
        point = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
        C, Cp, d, dp = structure_coefficients(
            *alpha_beta(connection_coefficients(frame_field_jet(patch, point)))
        )
        assert np.abs(C + C.transpose(0, 2, 1)).max() < 1e-9
        assert np.abs(Cp + Cp.transpose(0, 2, 1)).max() < 1e-9
        assert np.abs(d + d.transpose(1, 0, 2)).max() < 1e-9
        assert np.abs(dp + dp.transpose(1, 0, 2)).max() < 1e-9


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
            table = connection_coefficients(frame_field_jet(patch, point))
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
        # the reference the sign tests below compare against
        rng = np.random.default_rng(9)
        for dim in (4, 6, 8):
            A = rng.standard_normal((dim, dim))
            A = A - A.T
            pf = expanded_pfaffian(A.tolist())
            assert pf**2 == pytest.approx(np.linalg.det(A), rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sign_matches_a_first_row_expansion(self, n):
        rng = np.random.default_rng(40 + n)
        A = rng.standard_normal((200, 2 * n, 2 * n))
        A = A - np.swapaxes(A, -1, -2)
        # the sign is taken in the interleaved basis (e_1, e_{n+1}, e_2, e_{n+2}, ...)
        order = [k for i in range(n) for k in (i, n + i)]
        reference = [np.sign(expanded_pfaffian(a[np.ix_(order, order)].tolist())) for a in A]
        nondeg, sign = nondegenerate(A)
        assert nondeg.all()
        assert sign.tolist() == reference
        assert 0 < sign.tolist().count(1) < len(A)

    def test_mixed_batch_gives_each_form_alone(self):
        rng = np.random.default_rng(5)
        flipped = -j0_matrix(3)
        flipped[:, [0]] *= -1.0
        flipped[[0], :] *= -1.0
        zeroed = -j0_matrix(3)
        zeroed[0, 3] = zeroed[3, 0] = 0.0
        A = rng.standard_normal((6, 6))
        A = A - A.T
        forms = [np.zeros((6, 6)), -j0_matrix(3), flipped, zeroed, A, 1e-10 * A]
        nondeg, sign = nondegenerate(np.stack(forms).reshape(2, 3, 6, 6))
        alone = [nondegenerate(F) for F in forms]
        assert list(zip(nondeg.ravel().tolist(), sign.ravel().tolist())) == alone
        assert alone[:4] == [(False, 0), (True, 1), (True, -1), (False, 0)]
        assert alone[5] == (False, 0)

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

    def test_nearly_kahler_form_vanishes_to_rounding(self):
        # With the closed-form J jet the largest |F| on nk-s6 is 8.1e-15 over
        # 200 seeded points with 4 rotations each (1.9e-10 with J
        # differenced).  ZERO_FORM_FLOOR stays 1e-8: a patch without a J jet
        # still differences J.
        patch = nearly_kahler_s6().patch
        rng = np.random.default_rng(0)
        jet = point_jet(patch, sample_points(patch, 200, rng))
        jet = jet.rotated(random_unitary_rotation(3, rng, (4, 200)))
        F = phi_matrix(*alpha_beta(nabla_j_connection(jet)))
        assert np.abs(F).max() <= 1e-13

    def test_torus_inside_threshold(self):
        point = np.array([0.4, 0.1, -0.3, 0.2, 0.05, -0.1])
        rep = theorem_report(point_jet(perturbed_torus(eps=0.05).patch, point))
        assert 0.0 < rep.normN2 < 64.0 / 5.0
        assert rep.margin >= 1.0 - (5.0 / 64.0) * rep.normN2 - 1e-6
        assert rep.chain_ok.all_ok and rep.nondegenerate

    def test_doctored_tolerance_fails_link_a(self):
        # Negative tolerance turns the flat equality margin == quarterA into a
        # strict-inequality failure: the (a) check must fire.
        rep = theorem_report(point_jet(flat_kahler(2).patch, np.zeros(4)), tol=-1e-3)
        assert not rep.chain_ok.a

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
        # evaluates g and J once, and one call of J on its 2 dim stencil
        # (none since nk-s6 has a closed-form J jet).  The Christoffel
        # symbols reuse the frame's g (nk-s6 has a metric jet).
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


def witness_sigma(n, s):
    """Sigma table of the integer witness alpha_12(e_1) = s, beta_12(e_{n+1}) = -s, scaled by s.

    Its slices are [[X, Y], [Y, -X]] with X = -beta/2 and Y = alpha/2.
    """
    alpha, beta = ab_with(n, {(0, 1, 0): s}, {(0, 1, n): -s})
    X, Y = -0.5 * beta, 0.5 * alpha
    sigma = np.zeros((2 * n, 2 * n, 2 * n))
    sigma[:n, :n], sigma[:n, n:] = X, Y
    sigma[n:, :n], sigma[n:, n:] = Y, -X
    return sigma, alpha, beta


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSigmaReport:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("s, verdict", [(0.9, (True, 1)), (1.0, (False, 0)), (1.1, (True, -1))])
    def test_integer_witness(self, n, s, verdict):
        sigma, alpha, beta = witness_sigma(n, s)
        got_alpha, got_beta = alpha_beta(sigma)
        assert np.array_equal(got_alpha, alpha) and np.array_equal(got_beta, beta)
        rep = sigma_report(sigma)
        if s == 1.0:
            # every value is exact at s = 1
            assert (rep.normN2, rep.sumA2, rep.margin) == (32.0, 8.0, 0.0)
        assert rep.normN2 == pytest.approx(32.0 * s**2, rel=1e-14)
        assert rep.sumA2 == pytest.approx(8.0 * s**2, rel=1e-14)
        # equality in the sharp form margin >= 1 - 1/8 sum A^2 of link (a)
        assert rep.margin == pytest.approx(1.0 - s**2, abs=1e-14)
        assert (rep.nondegenerate, rep.pfaffian_sign) == verdict
        assert rep.chain_ok.to_dict() == dict.fromkeys("abcd", True)
        assert rep.n_route_mismatch is None

    @pytest.mark.parametrize("entry", default_entries(), ids=lambda e: e.id)
    def test_theorem_report_is_sigma_report_of_its_sigma(self, entry):
        rep = theorem_report(point_jet(entry.patch, grid_points(entry.patch, 2)))
        alone = sigma_report(rep.sigma)
        for field in dataclasses.fields(rep):
            name = field.name
            if name == "chain_ok":
                for flag in "abcd":
                    assert same_bits(getattr(rep.chain_ok, flag), getattr(alone.chain_ok, flag))
            elif name == "n_route_mismatch":
                assert alone.n_route_mismatch is None
                assert rep.n_route_mismatch.shape == rep.normN2.shape
            else:
                assert same_bits(getattr(rep, name), getattr(alone, name)), name

    def test_batch_gives_each_table_alone(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((2, 5, 6, 6, 6))
        sigma = sigma_part(w - np.swapaxes(w, -3, -2))
        batch = sigma_report(sigma)
        for index in np.ndindex(2, 5):
            alone = sigma_report(sigma[index])
            for field in dataclasses.fields(batch):
                name = field.name
                if name == "chain_ok":
                    for flag in "abcd":
                        assert getattr(batch.chain_ok, flag)[index] == getattr(alone.chain_ok, flag)
                elif name != "n_route_mismatch":
                    assert same_bits(getattr(batch, name)[index], getattr(alone, name)), name


def as_fractions(x):
    """An object array of the Fractions that the float array ``x`` holds exactly."""
    return np.array([Fraction(v) for v in np.ravel(x)], dtype=object).reshape(np.shape(x))


def rational_sigma(n, rng, batch=()):
    """Seeded sigma tables 1/2 (w + J0 w J0), formed on object arrays from skew
    slices w[..., C, A, B] with small Fraction entries."""
    dim = 2 * n
    shape = batch + (dim, dim, dim)
    entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(int(np.prod(shape)))]
    w = np.array(entries, dtype=object).reshape(shape)
    w = w - np.swapaxes(w, -1, -2)
    J0 = j0_matrix(n).astype(int).astype(object)
    return np.moveaxis(Fraction(1, 2) * (w + J0 @ w @ J0), -3, -1)


class TestExactStages:
    """The stages from sigma to |N|^2 keep rational input exact, so the
    identities between their sums hold with equality, not to a tolerance."""

    AXES = (-3, -2, -1)

    def stages(self, sigma):
        """(N, |N|^2, sum A^2, d, d') of rational sigma tables; every entry a Fraction."""
        alpha, beta = alpha_beta(sigma)
        C, Cp, d, dp = structure_coefficients(alpha, beta)
        N = nijenhuis_frame(d, dp)
        normN2 = nijenhuis_norm(N)
        for x in (alpha, beta, C, Cp, d, dp, N, normN2):
            assert all(isinstance(v, Fraction) for v in np.ravel(np.asarray(x, dtype=object)))
        sumA2 = (C**2).sum(axis=self.AXES) + (Cp**2).sum(axis=self.AXES)
        return N, normN2, sumA2, d, dp

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_rational_sigma(self, n):
        N, normN2, sumA2, d, dp = self.stages(rational_sigma(n, random.Random(70 + n), batch=(3,)))
        axes = self.AXES
        assert np.all(sumA2 > 0)
        assert np.array_equal(normN2, 4 * ((d**2).sum(axis=axes) + (dp**2).sum(axis=axes)))
        # Gray-Hervella: 16 sum A^2 = |Alt N|^2 + 4 |N - Alt N|^2, with N[C, A, B]
        # skew in (A, B), so Alt N is a third of its cyclic sum
        alt = (N + np.moveaxis(N, -3, -1) + np.moveaxis(N, -1, -3)) / 3
        assert np.array_equal(16 * sumA2, (alt**2).sum(axis=axes) + 4 * ((N - alt) ** 2).sum(axis=axes))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_integer_witness(self, n):
        _, normN2, sumA2, _, _ = self.stages(as_fractions(witness_sigma(n, 1.0)[0]))
        assert normN2 == 32 and sumA2 == 8


class TestChernIdentity:
    @staticmethod
    def residual(patch, point):
        frames = frame_field_jet(patch, point)
        return chern_identity_residual(patch, frames, connection_derivative(patch, frames))

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
    """det_F is the determinant the non-degeneracy test used: one determinant of F per report."""
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
