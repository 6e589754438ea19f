"""Benchmark entries: invariants, expected quantities, id resolution, grids."""

import numpy as np
import pytest

from twistorcheck import (
    ChartOverflow,
    adapt_frame,
    conformal_hermitian,
    connection_coefficients,
    cross7,
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
from twistorcheck.catalog import sample_points, stereographic_point
from twistorcheck.geometry import patch_residuals, validate_patch


def test_every_entry_satisfies_patch_invariants():
    rng = np.random.default_rng(2)
    for entry in default_entries():
        for point in sample_points(entry.patch, 5, rng):
            validate_patch(entry.patch, point)
            res = patch_residuals(entry.patch, point)
            assert res["j_square"] < 1e-10
            assert res["compatibility"] < 1e-10


def test_integrable_entries_have_vanishing_norm():
    rng = np.random.default_rng(3)
    for entry in default_entries():
        if "integrable" not in entry.patch.attributes:
            continue
        for point in sample_points(entry.patch, 4, rng):
            tensor = nijenhuis_tensor(point_jet(entry.patch, point))
            assert nijenhuis_norm(tensor) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_kahler_reports(n):
    entry = flat_kahler(n)
    rep = theorem_report(point_jet(entry.patch, np.zeros(2 * n)))
    assert rep.normN2 == 0.0
    assert rep.margin == pytest.approx(1.0, abs=1e-12)
    assert rep.chain_ok.all_ok


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
        table = connection_coefficients(frame_field_jet(entry.patch, adapt_frame(entry.patch, point)))
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

    def test_chart_point_on_unit_sphere(self):
        u = np.array([0.2, -0.1, 0.05, 0.3, 0.0, -0.2])
        p = stereographic_point(u)
        assert abs(p @ p - 1.0) < 1e-14

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

    def test_chart_overflow(self):
        patch = nearly_kahler_s6().patch
        with pytest.raises(ChartOverflow):
            patch.j_field(np.array([0.9, 0.0, 0.0, 0.0, 0.0, 0.0]))


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
        entry = resolve("torus:eps=0.125,freq=3")
        assert entry.expected["eps"] == 0.125
        assert entry.expected["freq"] == 3

    def test_unknown(self):
        with pytest.raises(KeyError):
            resolve("mystery-manifold")
        with pytest.raises(KeyError):
            resolve("flat:x")


class TestGrids:
    def test_grid_count_and_interiority(self):
        entry = conformal_hermitian()
        pts = grid_points(entry.patch, 3)
        assert pts.shape == (81, 4)
        assert all(entry.patch.contains(p, margin=1e-3) for p in pts)

    def test_single_point_is_center(self):
        entry = flat_kahler(2)
        pts = grid_points(entry.patch, 1)
        assert np.array_equal(pts, np.zeros((1, 4)))

    def test_samples_deterministic(self):
        entry = nearly_kahler_s6()
        a = sample_points(entry.patch, 7, np.random.default_rng(1))
        b = sample_points(entry.patch, 7, np.random.default_rng(1))
        assert np.array_equal(a, b)
        assert all(entry.patch.contains(p, margin=1e-3) for p in a)
