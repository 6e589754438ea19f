"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; a red criterion is a bug
detector, not a calibration knob.
"""

import dataclasses
import hashlib
import time
from fractions import Fraction

import numpy as np

from symmetry import symmetry_residuals
from twistorcheck import (
    alpha_beta,
    cli,
    connection_coefficients,
    connection_derivative,
    conformal_hermitian,
    critical_constant,
    default_entries,
    field_derivative,
    flat_kahler,
    frame_field_jet,
    grid_points,
    j0_matrix,
    nearly_kahler_s6,
    nijenhuis_norm,
    nijenhuis_tensor,
    nondegenerate,
    perturbed_torus,
    pfaffian_sign,
    phi_formula_gap,
    phi_matrix,
    point_jet,
    random_unitary_rotation,
    run_algebra_sweep,
    structure_equation_residual,
    theorem_report,
)
from twistorcheck.catalog import sample_points
from twistorcheck.connection import curvature_forms, round_sphere_curvature_residual, sigma_part
from twistorcheck.twistorform import CHAIN_TOL, chern_identity_residual


class Criterion:
    """Collect failures, then print exactly one line when the block closes."""

    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.failures = []

    def check(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        if exc_type is None and elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.2f}s exceeds budget {self.budget:g}s")
        status = "PASS" if not self.failures and exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} {self.name} ({elapsed:.2f}s)")
        for msg in self.failures:
            print(f"    - {msg}")
        assert exc_type is not None or not self.failures, "; ".join(self.failures)
        return False


def test_criterion_1_flat_kahler():
    with Criterion(1, "flat Kahler baselines (n = 2, 3, 4)", 1.0) as c:
        for n in (2, 3, 4):
            patch = flat_kahler(n).patch
            origin = np.zeros(2 * n)
            rep = theorem_report(point_jet(patch, origin))
            c.check(abs(rep.normN2) <= 1e-10, f"n={n}: |N|^2 = {rep.normN2:.3e}")
            c.check(abs(rep.margin - 1.0) <= 1e-9, f"n={n}: margin = {rep.margin!r}")
            frames = frame_field_jet(patch, origin)
            F = phi_matrix(*alpha_beta(connection_coefficients(frames.w, frames.frame.E)))
            dev = np.abs(F + j0_matrix(n)).max()
            c.check(dev <= 1e-10, f"n={n}: max |F + J0| = {dev:.3e}")


# sha256 of cli._to_json of the criterion-2 report: 10^4 samples per n cross
# many sweep chunks and end in a partial one, and the worst case-1 ratio
# depends on every drawn value.
CRITERION_2_SHA256 = "bf576256840adbb80bb8940ecd6863dc660130ba9e10a22de1df6b2898cd8f3b"


def test_criterion_2_exact_algebra_sweep():
    with Criterion(2, "exact rational sweep, 10^4 samples per check", 30.0) as c:
        report = run_algebra_sweep([2, 3], samples=10_000, seed=20240808)
        digest = hashlib.sha256(cli._to_json(report).encode()).hexdigest()
        c.check(digest == CRITERION_2_SHA256, f"report sha256 {digest}")
        c.check(report["all_pass"], f"failures: {report['failures'][:3]}")
        for name, counts in report["checks"].items():
            c.check(counts["fail"] == 0, f"{name}: {counts['fail']} failures")
            c.check(counts["pass"] >= 10_000, f"{name}: only {counts['pass']} samples")
        c.check([slot["n"] for slot in report["worst_case1"]] == [3], "no worst case-1 sample at n = 3")
        for slot in report["worst_case1"]:
            c.check(
                1 <= Fraction(slot["ratio"]) <= 4,
                f"n={slot['n']}: case-1 ratio {slot['ratio']} of sample {slot['sample']} outside [1, 4]",
            )


def test_criterion_3_route_equivalence():
    with Criterion(3, "two-route equivalence on every entry, 50 points each", 120.0) as c:
        rng = np.random.default_rng(31)
        for entry in default_entries():
            worst_n = 0.0
            worst_phi = 0.0
            worst_sigma = 0.0
            for point in sample_points(entry.patch, 50, rng):
                jet = point_jet(entry.patch, point)
                rep = theorem_report(jet)
                worst_n = max(worst_n, rep.n_route_mismatch)
                worst_phi = max(worst_phi, phi_formula_gap(rep.sigma, rep.F))
                # sigma from nabla J against the frame-differentiated connection
                frames = frame_field_jet(entry.patch, point)
                full = sigma_part(connection_coefficients(frames.w, frames.frame.E))
                worst_sigma = max(worst_sigma, float(np.abs(full - rep.sigma).max()))
            c.check(worst_n < 1e-6, f"{entry.id}: |N|^2 route mismatch {worst_n:.3e}")
            c.check(worst_phi < 1e-10, f"{entry.id}: phi formula mismatch {worst_phi:.3e}")
            c.check(worst_sigma < 1e-8, f"{entry.id}: sigma route mismatch {worst_sigma:.3e}")


def test_criterion_4_theorem_chain():
    with Criterion(4, "bound chain at every scan point of every entry", 120.0) as c:
        for entry in default_entries():
            violations = []
            for point in grid_points(entry.patch, 2):
                rep = theorem_report(point_jet(entry.patch, point))
                if rep.margin < rep.bound_quarterA - CHAIN_TOL:
                    violations.append(f"(a) at {point.tolist()}")
                if rep.bound_quarterA < rep.bound_paper - CHAIN_TOL:
                    violations.append(f"(c) at {point.tolist()}")
                if rep.normN2 < critical_constant(entry.patch.n) and not rep.nondegenerate:
                    violations.append(f"theorem consequence at {point.tolist()}")
                if not rep.chain_ok.all_ok:
                    violations.append(f"chain flags {rep.chain_ok.to_dict()} at {point.tolist()}")
            c.check(not violations, f"{entry.id}: {violations[:3]} ({len(violations)} total)")


def test_criterion_5_round_sphere_corollary_machinery():
    with Criterion(5, "round six-sphere: structure, curvature, Chern, |N|^2", 120.0) as c:
        patch = nearly_kahler_s6().patch
        rng = np.random.default_rng(17)
        points = sample_points(patch, 10, rng)
        norms = []
        worst_structure = 0.0
        worst_chern = 0.0
        curvatures = []
        for point in points:
            frames = frame_field_jet(patch, point)
            jet = frames.jet
            dw = connection_derivative(patch, frames)
            worst_structure = max(worst_structure, structure_equation_residual(frames))
            worst_chern = max(worst_chern, chern_identity_residual(patch, frames, dw))
            norms.append(nijenhuis_norm(nijenhuis_tensor(jet)))
            if len(curvatures) < 3:
                curvatures.append(round_sphere_curvature_residual(curvature_forms(frames, dw)))
        c.check(worst_structure < 1e-6, f"structure residual {worst_structure:.3e}")
        c.check(worst_chern < 1e-4, f"Chern identity residual {worst_chern:.3e}")
        worst_curv = max(curvatures)
        c.check(worst_curv < 1e-4, f"curvature identity residual {worst_curv:.3e}")
        norms = np.array(norms)
        c.check(
            np.ptp(norms) <= 1e-4 * norms.mean(),
            f"|N|^2 spread {np.ptp(norms):.3e} vs mean {norms.mean():.6f}",
        )
        c.check(norms.min() >= 64.0 / 5.0, f"|N|^2 = {norms.min():.6f} below 64/5")


def test_criterion_6_frame_invariance():
    with Criterion(6, "scalar invariance under 100 U(n) rotations x 10 points", 60.0) as c:
        rng = np.random.default_rng(101)
        for entry in (nearly_kahler_s6(), conformal_hermitian()):
            patch = entry.patch
            worst = 0.0
            sign_stable = True
            for point in sample_points(patch, 10, rng):
                jet = point_jet(patch, point)
                base = theorem_report(jet)
                for _ in range(100):
                    U = random_unitary_rotation(patch.n, rng)
                    rep = theorem_report(jet.rotated(U))
                    worst = max(
                        worst,
                        abs(rep.normN2 - base.normN2) / max(1.0, abs(base.normN2)),
                        abs(rep.margin - base.margin) / max(1.0, abs(base.margin)),
                        abs(rep.det_F - base.det_F) / max(1.0, abs(base.det_F)),
                    )
                    sign_stable = sign_stable and (
                        pfaffian_sign(rep.F, rep.nondegenerate) == pfaffian_sign(base.F, base.nondegenerate)
                    )
            c.check(worst <= 1e-8, f"{entry.id}: worst relative deviation {worst:.3e}")
            c.check(sign_stable, f"{entry.id}: Pfaffian sign changed under rotation")


def test_criterion_7_perturbation_scaling():
    with Criterion(7, "perturbed torus: eps^2 scaling and positive margin", 60.0) as c:
        point = np.array([0.4, 0.1, -0.3, 0.2, 0.05, -0.1])
        eps_values = (0.05, 0.1, 0.2)
        norms = [
            nijenhuis_norm(nijenhuis_tensor(point_jet(perturbed_torus(eps=e).patch, point)))
            for e in eps_values
        ]
        slopes = np.diff(np.log(norms)) / np.diff(np.log(eps_values))
        c.check(
            bool(np.all(np.abs(slopes - 2.0) <= 0.1)),
            f"log-log slopes {slopes} stray from 2",
        )
        entry = perturbed_torus(eps=0.05, freq=1)
        min_margin = np.inf
        below_threshold = True
        for p in grid_points(entry.patch, 2):
            rep = theorem_report(point_jet(entry.patch, p))
            min_margin = min(min_margin, rep.margin)
            below_threshold = below_threshold and rep.normN2 < 64.0 / 5.0
        c.check(below_threshold, "|N|^2 crossed 64/5 somewhere on the grid")
        c.check(min_margin > 0.0, f"min margin {min_margin:.3e} not positive")


def test_criterion_8_negative_controls():
    with Criterion(8, "negative controls must fail their checks", 30.0) as c:
        # corrupted J: the J-slot symmetries of N must degrade visibly
        from twistorcheck import ManifoldPatch, pointwise
        from twistorcheck.nijenhuis import nijenhuis_coordinates

        bad_j = j0_matrix(3)
        bad_j = bad_j + 0.0
        bad_j[0, 1] += 1e-3
        patch = ManifoldPatch(
            n=3,
            domain=np.array([(-1.0, 1.0)] * 6),
            metric_field=pointwise(lambda u: np.eye(6)),
            j_field=pointwise(lambda u: bad_j * (1.0 + 0.1 * u[0])),
            label="corrupted",
        )
        u = np.array([0.3, 0.1, -0.2, 0.0, 0.1, -0.1])
        J = patch.j_field(u)
        res = symmetry_residuals(nijenhuis_coordinates(J, field_derivative(patch, u, "j")), J)
        c.check(
            max(res["j_first_slot"], res["j_second_slot"]) > 1e-4,
            f"corrupted J symmetry residual only {max(res.values()):.3e}",
        )

        # flipped connection sign: the first structure equation must reject it
        conformal = conformal_hermitian().patch
        frames = frame_field_jet(conformal, np.array([1.3, 0.9, 1.1, 1.7]))
        flipped = structure_equation_residual(dataclasses.replace(frames, w=-frames.w))
        c.check(flipped > 1e-3, f"sign-flipped structure residual only {flipped:.3e}")

        # flipped sigma: the frame-differentiated connection must reject it
        s6 = nearly_kahler_s6().patch
        u = np.array([0.1, -0.2, 0.15, 0.02, -0.1, 0.05])
        jet = point_jet(s6, u)
        sigma = theorem_report(jet).sigma
        frames = frame_field_jet(s6, u)
        full = sigma_part(connection_coefficients(frames.w, frames.frame.E))
        gap = float(np.abs(full + sigma).max())
        c.check(gap > 1e-3, f"sign-flipped sigma route mismatch only {gap:.3e}")

        # zeroed block: the form must report degenerate
        F = -j0_matrix(3)
        F[0, 3] = F[3, 0] = 0.0
        nondeg = nondegenerate(F)
        c.check(not nondeg and pfaffian_sign(F, nondeg) == 0, "zeroed-block form not reported degenerate")
