"""Benchmark entries: invariants, expected quantities, id resolution, grids."""

import dataclasses
import re

import numpy as np
import pytest

from stencil import stencil_difference, stencil_points
from twistorcheck import (
    ManifoldPatch,
    conformal_hermitian,
    connection_coefficients,
    default_entries,
    flat_kahler,
    frame_field_jet,
    grid_points,
    nearly_kahler_s6,
    nijenhuis_norm,
    nijenhuis_tensor,
    perturbed_torus,
    point_jet,
    resolve,
    theorem_report,
)
from twistorcheck.catalog import _CROSS_F, GRID_INSET, _s6_j, _s6_j_jet, sample_points
from twistorcheck.geometry import _field_residuals, field_derivative, validate_patch


def patch_residuals(patch, point):
    """Max-norm residuals of the pointwise patch invariants at each point."""
    return _field_residuals(patch.metric_field(point), patch.j_field(point))


def cross7(x, y):
    """Seven-dimensional cross product of imaginary octonions, from the catalog's structure constants."""
    return np.einsum("ijk,i,j->k", _CROSS_F, x, y)


def stereographic_pull_back(u):
    """(p, (s^2/4) D^T L D): the inverse stereographic point p of the unit
    six-sphere (chart origin at a pole), and X -> p x X pulled back through
    the chart's 7 x 6 Jacobian D, whose pseudo-inverse is (s^2/4) D^T.
    Complex-analytic, so it takes complex points too."""
    r2 = (u * u).sum(axis=-1)[..., None]
    s = 1.0 + r2
    p = np.concatenate([2.0 * u / s, (r2 - 1.0) / s], axis=-1)
    D = np.zeros(u.shape[:-1] + (7, 6), dtype=u.dtype)
    outer = u[..., :, None] * u[..., None, :]
    D[..., :6, :] = (2.0 / s[..., None]) * (np.eye(6) - 2.0 * outer / s[..., None])
    D[..., 6, :] = 4.0 * u / s**2
    L = np.einsum("ijk,...i->...kj", _CROSS_F, p)  # (L X)_k = (p x X)_k
    return p, (s[..., None] ** 2 / 4.0) * (np.swapaxes(D, -1, -2) @ L @ D)


def test_every_entry_satisfies_patch_invariants():
    rng = np.random.default_rng(2)
    for entry in default_entries():
        for point in sample_points(entry.patch, 5, rng):
            validate_patch(entry.patch, point)
            res = patch_residuals(entry.patch, point)
            assert res["j_square"] < 1e-10
            assert res["compatibility"] < 1e-10


@pytest.mark.parametrize(
    "entry",
    default_entries() + [resolve(f"torus:eps=0.05,freq={freq}") for freq in (100, 99999999999999999999)],
    ids=lambda entry: entry.id,
)
def test_every_catalog_jet_is_the_complex_step_derivative_of_its_field(entry):
    """Each closed-form jet equals Im field(u + i h e_c) / h, which a patch
    without that jet reads, to rounding: the fields are complex-analytic."""
    patch = entry.patch
    bare = dataclasses.replace(patch, metric_jet=None, j_jet=None)
    u = sample_points(patch, 8, np.random.default_rng(6))
    for which, jet in (("metric", patch.metric_jet), ("j", patch.j_jet)):
        exact = jet(u)
        stepped = field_derivative(bare, u, which)
        assert stepped.shape == exact.shape == (8, patch.dim, patch.dim, patch.dim)
        assert np.abs(stepped - exact).max() <= 1e-13 * max(1.0, np.abs(exact).max()), which


def test_catalog_flags():
    flags = {entry.id: entry.patch.unit_round_sphere for entry in default_entries()}
    assert flags == {
        "flat:2": False,
        "flat:3": False,
        "flat:4": False,
        "conformal4": False,
        "nk-s6": True,
        "torus:eps=0.05,freq=1": False,
    }


def test_integrable_entries_have_vanishing_norm():
    rng = np.random.default_rng(3)
    for entry in [flat_kahler(n) for n in (2, 3, 4)] + [conformal_hermitian()]:
        for point in sample_points(entry.patch, 4, rng):
            tensor = nijenhuis_tensor(point_jet(entry.patch, point))
            assert nijenhuis_norm(tensor) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_kahler_reports(n):
    entry = flat_kahler(n)
    rep = theorem_report(point_jet(entry.patch, np.zeros(2 * n)))
    assert rep.normN2 == 0.0
    assert rep.margin == pytest.approx(1.0, abs=1e-12)
    assert rep.chain_ok


class TestConformal:
    def test_interior_report(self):
        entry = conformal_hermitian()
        point = np.array([1.05, 0.8, 0.9, 1.2])
        rep = theorem_report(point_jet(entry.patch, point))
        assert rep.normN2 < 1e-8
        assert rep.margin > 0.0
        assert rep.margin >= 1.0 - rep.normN2 / 16.0 - 1e-6

    def test_connection_genuinely_nonzero(self):
        entry = conformal_hermitian()
        point = np.array([1.3, 0.9, 1.1, 1.7])
        frames = frame_field_jet(entry.patch, point)
        table = connection_coefficients(frames.w, frames.frame.E)
        assert np.abs(table).max() > 0.1


class TestNearlyKahlerSphere:
    def test_cross_product_is_a_genuine_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.standard_normal(7)
            y = rng.standard_normal(7)
            z = cross7(x, y)
            assert abs(z @ x) < 1e-10 and abs(z @ y) < 1e-10
            lhs = z @ z
            rhs = (x @ x) * (y @ y) - (x @ y) ** 2
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_invariants_at_origin(self):
        patch = nearly_kahler_s6().patch
        res = patch_residuals(patch, np.zeros(6))
        assert res["j_square"] < 1e-12
        assert res["compatibility"] < 1e-12

    def test_j_is_the_pull_back_of_the_cross_product(self):
        """The closed form J = K - (2/s) G is its geometric meaning, p x pulled
        back by the stereographic chart, to rounding; so are its complex
        steps, Im J(u + i h e_c) / h, which the frame route differentiates."""
        u = sample_points(nearly_kahler_s6().patch, 64, np.random.default_rng(8))
        p, J = stereographic_pull_back(u)
        assert np.abs((p * p).sum(axis=-1) - 1.0).max() <= 1e-14
        assert np.abs(_s6_j(u) - J).max() <= 1e-14
        h = 1e-30
        for c in range(6):
            z = u + 1j * h * np.eye(6)[c]
            assert np.abs(_s6_j(z).imag - stereographic_pull_back(z)[1].imag).max() <= 1e-14 * h, c

    def test_norm_constant_and_at_least_threshold(self):
        patch = nearly_kahler_s6().patch
        rng = np.random.default_rng(5)
        values = [
            nijenhuis_norm(nijenhuis_tensor(point_jet(patch, u)))
            for u in sample_points(patch, 12, rng)
        ]
        values = np.array(values)
        assert values.min() >= 64.0 / 5.0
        assert np.ptp(values) <= 1e-5 * values.mean()

    def test_j_and_its_jet_hold_far_outside_the_box(self):
        """J = K - (2/s) G needs only s = 1 + |u|^2 >= 1: at |u| from 0.9 to
        9, J^2 = -I and J is g-compatible, and the jet is the complex step
        of J, to rounding."""
        rng = np.random.default_rng(9)
        u = rng.standard_normal((64, 6))
        u *= np.linspace(0.9, 9.0, 64)[:, None] / np.linalg.norm(u, axis=-1, keepdims=True)
        res = patch_residuals(nearly_kahler_s6().patch, u)
        scale = 4.0 / (1.0 + (u * u).sum(axis=-1)) ** 2  # g = scale I
        assert res["j_square"].max() <= 1e-14
        assert (res["compatibility"] / scale).max() <= 1e-14
        h = 1e-30
        stepped = _s6_j(u[:, None, :] + 1j * h * np.eye(6)).imag / h
        assert np.abs(_s6_j_jet(u) - stepped).max() <= 1e-14 * np.abs(stepped).max()

    def test_j_jet_matches_extrapolated_differences_of_j(self):
        # (4 D(h/2) - D(h)) / 3 of J cancels the h^2 term of the central
        # difference D(h); at h = 1e-3 what is left is below 1e-10.  An
        # oracle that shares nothing with the complex step.
        patch = nearly_kahler_s6().patch
        u = sample_points(patch, 24, np.random.default_rng(6))
        assert patch.j_jet is _s6_j_jet

        def difference(h):
            return stencil_difference(_s6_j(stencil_points(u, h)), h, u.ndim - 1)

        h = 1e-3
        richardson = (4.0 * difference(h / 2) - difference(h)) / 3.0
        assert np.abs(_s6_j_jet(u) - richardson).max() <= 1e-10

    def test_j_jet_of_a_batch_is_each_points_jet(self):
        """J and its jet give each point of a batch bitwise what they give it
        alone, at real points and at complex-step points."""
        u = sample_points(nearly_kahler_s6().patch, 12, np.random.default_rng(7)).reshape(3, 4, 6)
        for points in (u, u + 1e-30j * np.eye(6)[2]):
            for field, shape in ((_s6_j, (6, 6)), (_s6_j_jet, (6, 6, 6))):
                batch = field(points)
                assert batch.shape == (3, 4) + shape
                for index in np.ndindex(3, 4):
                    assert np.array_equal(batch[index], field(points[index])), field.__name__


class TestPerturbedTorus:
    def test_eps_zero_reduces_to_flat(self):
        entry = perturbed_torus(eps=0.0)
        point = np.array([0.3, 0.0, -0.4, 0.1, 0.2, 0.0])
        rep = theorem_report(point_jet(entry.patch, point))
        assert rep.normN2 == 0.0
        assert rep.margin == pytest.approx(1.0, abs=1e-12)

    def test_small_eps_within_threshold_bound(self):
        entry = perturbed_torus(eps=0.05, freq=1)
        for point in grid_points(entry.patch, 2):
            rep = theorem_report(point_jet(entry.patch, point))
            assert 0.0 <= rep.normN2 < 64.0 / 5.0
            assert rep.margin >= 1.0 - (5.0 / 64.0) * rep.normN2 - 1e-6
            assert rep.margin > 0.0

    def test_quadratic_scaling_in_eps(self):
        point = np.array([0.4, 0.1, -0.3, 0.2, 0.05, -0.1])
        eps_values = (0.05, 0.1, 0.2)
        norms = [
            nijenhuis_norm(nijenhuis_tensor(point_jet(perturbed_torus(eps=e).patch, point)))
            for e in eps_values
        ]
        slopes = np.diff(np.log(norms)) / np.diff(np.log(eps_values))
        assert np.all(np.abs(slopes - 2.0) < 0.1), f"log-log slopes {slopes}"

    def test_generator_breaks_j0_commutant(self):
        # The perturbation must leave the integrable orbit: J actually varies.
        entry = perturbed_torus(eps=0.2)
        j_at = entry.patch.j_field
        assert np.abs(j_at(np.array([0.5, 0, 0, 0, 0, 0])) - j_at(np.zeros(6))).max() > 1e-3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            perturbed_torus(eps=0.9)
        with pytest.raises(ValueError):
            perturbed_torus(eps=0.1, freq=0)


class TestResolve:
    def test_round_trip_ids(self):
        for entry in default_entries():
            assert resolve(entry.id).id == entry.id

    def test_torus_parameters(self):
        assert resolve("torus:eps=0.1250,freq=03").id == "torus:eps=0.125,freq=3"
        assert perturbed_torus(eps=np.float64(0.05)).id == "torus:eps=0.05,freq=1"

    @pytest.mark.parametrize(
        "manifold",
        [
            "torus:eps=0.123456789,freq=3",
            "torus:eps=0.05,freq=1",
            "torus:eps=1e-07,freq=2",
            "nk-s6",
            "flat:3",
            "conformal4",
        ],
    )
    def test_printed_id_resolves_to_the_same_patch(self, manifold):
        # an id is what report prints: read back, it must give the same
        # fields bit for bit, not a torus of a rounded eps
        entry = resolve(manifold)
        again = resolve(entry.id)
        assert again.id == entry.id
        u = sample_points(entry.patch, 3, np.random.default_rng(8))
        for field in ("metric_field", "j_field"):
            assert np.array_equal(getattr(again.patch, field)(u), getattr(entry.patch, field)(u)), field

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve("mystery-manifold")
        with pytest.raises(ValueError):
            resolve("flat:x")

    @pytest.mark.parametrize(
        "manifold, message",
        [
            ("flat: 3", "bad flat manifold id"),
            ("flat:+3", "bad flat manifold id"),
            ("flat:\u0663", "bad flat manifold id"),
            ("flat:3_0", "bad flat manifold id"),
            ("flat:3\n", "bad flat manifold id"),
            ("torus:eps=0.05,freq=1\n", "unknown manifold id"),
        ],
    )
    def test_ids_are_matched_whole(self, manifold, message):
        # int() would read each of these flat ids as a number (flat:3_0 as
        # 30), and a $ anchor matches before a final newline
        with pytest.raises(ValueError, match=f"^{message} {re.escape(repr(manifold))}$"):
            resolve(manifold)

    def test_leading_zeros_are_digits(self):
        assert resolve("flat:03").id == "flat:3"


def assert_inset(patch, points, inset):
    """Every coordinate of every point lies at least ``inset`` inside the domain."""
    lower, upper = patch.domain[:, 0], patch.domain[:, 1]
    assert np.all((points > lower + inset) & (points < upper - inset))


class TestGrids:
    def test_grid_count_and_interiority(self):
        entry = conformal_hermitian()
        pts = grid_points(entry.patch, 3)
        assert pts.shape == (81, 4)
        assert_inset(entry.patch, pts, 1e-3)

    def test_grid_needs_a_point_per_axis(self):
        with pytest.raises(ValueError, match="^per_axis must be >= 1$"):
            grid_points(flat_kahler(2).patch, 0)

    @pytest.mark.parametrize("per_axis", [2, 3, 6, 7])
    def test_grid_axes_are_each_axis_linspace(self, per_axis):
        # One np.linspace call lays out every axis; the grid fixes the bytes
        # of every scan, so each axis must be bitwise its own scalar call.
        domain = np.array([(-1.0, 1.0), (0.5, 2.5), (-np.pi, np.pi), (-0.35, 0.35)])
        patch = ManifoldPatch(n=2, domain=domain, metric_field=np.eye, j_field=np.eye)
        pts = grid_points(patch, per_axis)
        for axis, (lo, hi) in enumerate(domain):
            pad = GRID_INSET * (hi - lo)
            expected = np.linspace(lo + pad, hi - pad, per_axis)
            assert np.unique(pts[:, axis]).tobytes() == expected.tobytes(), axis

    def test_single_point_is_center(self):
        entry = flat_kahler(2)
        pts = grid_points(entry.patch, 1)
        assert np.array_equal(pts, np.zeros((1, 4)))

    def test_samples_deterministic(self):
        entry = nearly_kahler_s6()
        a = sample_points(entry.patch, 7, np.random.default_rng(1))
        b = sample_points(entry.patch, 7, np.random.default_rng(1))
        assert np.array_equal(a, b)
        assert_inset(entry.patch, a, 1e-3)
