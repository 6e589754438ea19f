"""Command-line contract: outputs, exit codes, determinism, config handling."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from twistorcheck import adapt_frame, algebra, catalog, cli, point_jet, theorem_report
from twistorcheck.cli import geometry_checks, main
from twistorcheck.connection import (
    connection_derivative,
    curvature_forms,
    frame_field_jet,
    round_sphere_curvature_residual,
    structure_equation_residual,
)
from twistorcheck.twistorform import chern_identity_residual


def run_cli(args):
    return main(list(args))


def structure_at(patch, u, step):
    """The structure residual at one point, from that point's own frame-field jet."""
    return structure_equation_residual(frame_field_jet(patch, adapt_frame(patch, u), step))


def round_sphere_at(patch, u):
    """(curvature, Chern) residuals at one point, from its own jet and d omega block."""
    jet = frame_field_jet(patch, adapt_frame(patch, u))
    dw = connection_derivative(patch, jet)
    return round_sphere_curvature_residual(curvature_forms(jet, dw)), chern_identity_residual(patch, jet, dw)


def test_report_flat(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["report", "--manifold", "flat:3", "--point", "0,0,0,0,0,0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["normN2"] == 0.0
    assert doc["margin"] == 1.0
    assert doc["chain_ok"] == {"a": True, "b": True, "c": True, "d": True}
    assert doc["pfaffian_sign"] == 1
    for key in ("structure_residual", "phi_formula_mismatch", "n_route_mismatch", "sumA2",
                "bound_quarterA", "bound_paper", "nondegenerate", "point"):
        assert key in doc


def test_report_nearly_kahler_stdout(capsys):
    code = run_cli(["report", "--manifold", "nk-s6"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["normN2"] >= 64.0 / 5.0
    assert all(doc["chain_ok"].values())


def test_report_point_outside_domain(capsys):
    code = run_cli(["report", "--manifold", "flat:3", "--point", "5,0,0,0,0,0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_report_unknown_manifold(capsys):
    assert run_cli(["report", "--manifold", "klein-bottle"]) == 2


def test_report_malformed_point(capsys):
    assert run_cli(["report", "--manifold", "flat:2", "--point", "0,0"]) == 2


def test_report_empty_point_is_an_input_error(tmp_path, capsys):
    # An empty --point is a malformed point, not a request for the domain centre.
    assert run_cli(["report", "--manifold", "nk-s6", "--point", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: point needs 6 ") and err.count("\n") == 1
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"point": ""}))
    assert run_cli(["report", "--manifold", "nk-s6", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: point needs 6 ") and err.count("\n") == 1


def test_scan_torus_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run_cli(
        ["scan", "--manifold", "torus:eps=0.05,freq=1", "--grid", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("u1,u2,u3,u4,u5,u6,normN2,margin,bound_paper,chain_ok,nondegenerate")
    assert len(lines) == 1 + 64 + 1  # header, 2^6 rows, summary
    assert lines[-1].startswith("# summary")
    assert "chain_violations=0" in lines[-1]
    for line in lines[1:-1]:
        cells = line.split(",")
        assert cells[-2] == "true" and cells[-1] == "true"
        assert float(cells[7]) > 0.0  # margin column


def test_scan_flat_json(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli(
        ["scan", "--manifold", "flat:2", "--grid", "3", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["chain_violations"] == 0
    assert doc["summary"]["points"] == 81
    assert all(row["normN2"] == 0.0 and row["margin"] == 1.0 for row in doc["rows"])


def test_scan_nearly_kahler_norm_constancy(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli(
        ["scan", "--manifold", "nk-s6", "--grid", "2", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    norms = [row["normN2"] for row in doc["rows"]]
    assert max(norms) - min(norms) < 1e-4 * max(norms)


def test_scan_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert (
            run_cli(
                ["scan", "--manifold", "conformal4", "--grid", "2", "--seed", "7", "--out", str(path)]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_scan_rejects_bad_config():
    assert run_cli(["scan", "--manifold", "flat:2", "--grid", "0"]) == 2
    assert run_cli(["scan", "--manifold", "flat:2", "--grid", "2", "--fd-step", "0.5"]) == 2


def test_verify_algebra(tmp_path):
    out = tmp_path / "algebra.json"
    code = run_cli(
        ["verify-algebra", "--n-list", "2,3", "--samples", "30", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert doc["checks"]["case1_inequality"]["fail"] == 0
    assert doc["failures"] == []


def test_verify_algebra_zero_samples():
    assert run_cli(["verify-algebra", "--samples", "0"]) == 2


def test_verify_algebra_rejects_duplicate_n(capsys):
    assert run_cli(["verify-algebra", "--n-list", "2,2", "--samples", "3"]) == 2
    assert "distinct" in capsys.readouterr().err


def test_verify_algebra_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run_cli(["verify-algebra", "--samples", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


def test_verify_algebra_negative_control(tmp_path, monkeypatch):
    """A sign slip in beta must surface as failed wedge-identity samples and exit 1."""
    monkeypatch.setattr(
        algebra, "_beta_of",
        lambda m, n: [[m[i][j] - m[n + i][n + j] for j in range(n)] for i in range(n)],
    )
    out = tmp_path / "algebra.json"
    code = run_cli(["verify-algebra", "--n-list", "2,3", "--samples", "3", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is False
    assert doc["checks"]["wedge_identity"]["fail"] == 6
    assert {f["check"] for f in doc["failures"]} == {"wedge_identity"}


def test_verify_geometry_conformal(tmp_path):
    out = tmp_path / "geo.json"
    code = run_cli(
        [
            "verify-geometry", "--manifold", "conformal4", "--points", "4",
            "--rotations", "2", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert doc["checks"]["structure_equation"]["max_residual"] < 1e-6
    # non-spherical patch: the constant-curvature identities are skipped
    assert "chern_identity" not in doc["checks"]
    assert "curvature_identity" not in doc["checks"]


def test_verify_geometry_round_sphere(tmp_path):
    out = tmp_path / "geo.json"
    code = run_cli(
        [
            "verify-geometry", "--manifold", "nk-s6", "--points", "2",
            "--rotations", "2", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"]["chern_identity"]["pass"] is True
    assert doc["checks"]["curvature_identity"]["pass"] is True
    assert doc["checks"]["frame_invariance"]["pass"] is True


def test_verify_geometry_unknown_manifold():
    assert run_cli(["verify-geometry", "--manifold", "nope", "--points", "1"]) == 2


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": 5, "manifold": "flat:2", "format": "json"}))
    out = tmp_path / "scan.json"
    # --grid on the command line must beat the config value of 5
    code = run_cli(
        [
            "scan", "--manifold", "flat:2", "--grid", "2", "--format", "json",
            "--config", str(cfg), "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["points"] == 16


def test_config_file_supplies_missing_flags(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": 2, "format": "json"}))
    out = tmp_path / "scan.json"
    code = run_cli(["scan", "--manifold", "flat:2", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["points"] == 16


def test_float_serialization_round_trips(tmp_path):
    out = tmp_path / "scan.csv"
    run_cli(["scan", "--manifold", "torus:eps=0.05,freq=1", "--grid", "2", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    value = lines[1].split(",")[6]  # normN2 with 17 significant digits
    assert float(value) == float(format(float(value), ".17g"))
    assert "." in value or "e" in value or value.isdigit()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twistorcheck", "report", "--manifold", "flat:2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["margin"] == 1.0


def test_config_string_value_goes_through_flag_type(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"samples": "5", "n-list": "2"}))
    out = tmp_path / "algebra.json"
    assert run_cli(["verify-algebra", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]["case2_identities"]["pass"] == 5


@pytest.mark.parametrize(
    "values, message",
    [
        ({"samples": "five"}, "invalid int value"),
        ({"samples": 2.5}, "invalid int value"),
        ({"n_list": [2, 3]}, "needs a string or a number"),
        ({"bogus": 1}, "unknown config key 'bogus'"),
        ({"manifold": "flat:2"}, "unknown config key 'manifold'"),
    ],
)
def test_config_bad_values_are_input_errors(tmp_path, capsys, values, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    assert run_cli(["verify-algebra", "--samples", "3", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_config_choices_enforced(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    assert run_cli(["scan", "--manifold", "flat:2", "--grid", "1", "--config", str(cfg)]) == 2
    assert "not one of json, csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["report", "--manifold", "flat:2", "--tol", "-1"], "--tol"),
        (["report", "--manifold", "flat:2", "--tol", "nan"], "--tol"),
        (["scan", "--manifold", "flat:2", "--grid", "1", "--tol", "-1"], "--tol"),
        (["report", "--manifold", "nk-s6", "--fd-step", "1e-12"], "--fd-step"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1", "--rotations", "-1"],
         "--rotations"),
    ],
)
def test_out_of_range_numbers_are_input_errors(capsys, argv, flag):
    # Exit 1 means a failed mathematical check; a bad number never reaches one.
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, values, message",
    [
        (["report", "--manifold", "flat:2"], {"tol": "nan"}, "must be finite and > 0"),
        (["report", "--manifold", "nk-s6"], {"fd-step": 1e-12}, "must lie in (1e-8, 1e-2)"),
        (["scan", "--manifold", "flat:2"], {"grid": 0}, "must be >= 1"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1"], {"rotations": -1},
         "must be >= 0"),
        (["verify-algebra", "--samples", "3"], {"tol": 1e-3}, "unknown config key 'tol'"),
    ],
)
def test_config_values_get_the_flag_checks(tmp_path, capsys, argv, values, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    assert run_cli(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-algebra", "--samples", "3", "--fd-step", "1e-4"],
        ["verify-algebra", "--samples", "3", "--tol", "1e-3"],
        ["verify-geometry", "--manifold", "flat:2", "--points", "1", "--tol", "1e-3"],
        ["report", "--manifold", "flat:2", "--seed", "3"],
    ],
)
def test_flags_that_did_nothing_are_rejected(capsys, argv):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--manifold", "nk-s6", "--bogus"],
        ["report"],
        [],
        ["scan", "--manifold", "flat:2", "--format", "xml"],
        ["scan", "--manifold", "flat:2", "--grid", "two"],
    ],
)
def test_usage_errors_print_one_line(capsys, argv):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_geometry_checks_share_without_changing_values():
    """One frame and one d omega block per point give the standalone residuals exactly."""
    entry = catalog.resolve("nk-s6")
    patch = entry.patch
    checks = geometry_checks(entry, points=2, seed=3, rotations=1, fd_step=1e-5)["checks"]
    samples = catalog.sample_points(patch, 2, np.random.default_rng(3))
    assert checks["structure_equation"]["max_residual"] == max(
        structure_at(patch, u, 1e-5) for u in samples
    )
    assert checks["curvature_identity"]["max_residual"] == max(
        round_sphere_at(patch, u)[0] for u in samples
    )
    assert checks["chern_identity"]["max_residual"] == max(
        round_sphere_at(patch, u)[1] for u in samples
    )


def test_geometry_checks_block_at_another_fd_step():
    """Away from the default step the d omega block still takes its slices at the default step."""
    entry = catalog.resolve("nk-s6")
    patch = entry.patch
    checks = geometry_checks(entry, points=1, seed=3, rotations=1, fd_step=1e-4)["checks"]
    (u,) = catalog.sample_points(patch, 1, np.random.default_rng(3))
    assert checks["structure_equation"]["max_residual"] == structure_at(patch, u, 1e-4)
    assert checks["curvature_identity"]["max_residual"] == round_sphere_at(patch, u)[0]
    assert checks["chern_identity"]["max_residual"] == round_sphere_at(patch, u)[1]


def test_geometry_point_evaluates_j_within_budget():
    # Rebuilding the frame and the d omega block for every check of one nk-s6
    # point with 4 rotations evaluated J at 939 points; sharing them needed
    # 571, reading sigma off nabla J 258, one point jet per point 193, and
    # sharing the stencil frames of the connection and the coframe 181:
    # 1 frame, a 12-point J stencil, 12 stencil frames and 12 x 13 in the
    # d omega block, each group one batched call of J.  The budgets are the
    # measured counts.
    entry = catalog.resolve("nk-s6")
    j_field = entry.patch.j_field
    calls = points = 0

    def counting(u):
        nonlocal calls, points
        calls += 1
        points += u[..., 0].size
        return j_field(u)

    counted = dataclasses.replace(entry, patch=dataclasses.replace(entry.patch, j_field=counting))
    assert geometry_checks(counted, points=1, seed=0, rotations=4, fd_step=1e-5)["all_pass"]
    assert calls <= 4
    assert points <= 181


def test_geometry_calls_per_chunk_do_not_depend_on_points(monkeypatch):
    """A chunk of points costs a fixed number of field and frame calls, however many points it holds."""
    from twistorcheck import geometry

    entry = catalog.resolve("nk-s6")
    patch = entry.patch
    calls = {"frame": 0, "g": 0, "J": 0}
    original = geometry.adapt_frame

    def counting_frame(*args, **kwargs):
        calls["frame"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "adapt_frame", counting_frame)

    def counted(key, field):
        def call(u):
            calls[key] += 1
            return field(u)
        return call

    counting = dataclasses.replace(entry, patch=dataclasses.replace(
        patch, metric_field=counted("g", patch.metric_field), j_field=counted("J", patch.j_field)
    ))

    def calls_for(points):
        calls.update(frame=0, g=0, J=0)
        assert geometry_checks(counting, points=points, seed=0, rotations=4, fd_step=1e-5)["all_pass"]
        return dict(calls)

    # per chunk: the jet's frame, the connection stencil and the d omega block
    # build frames (each evaluating g and J once), and the J stencil of the jet
    one = calls_for(1)
    assert one == {"frame": 3, "g": 3, "J": 4}
    assert calls_for(4) == calls_for(cli.GEOMETRY_CHUNK) == one
    assert calls_for(cli.GEOMETRY_CHUNK + 1) == {key: 2 * value for key, value in one.items()}


def _geometry_reference(entry, points, seed, rotations, fd_step):
    """The max residual of each verify-geometry check, one point and one rotation at a time."""
    from twistorcheck.connection import sigma_part
    from twistorcheck.geometry import DEFAULT_FD_STEP, random_unitary_rotation

    patch = entry.patch
    rng = np.random.default_rng(seed)
    worst = {}

    def bump(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    def route_gap(w, E, sigma):
        return np.abs(sigma_part(w @ E[None, :, :]) - sigma).max()

    for u in catalog.sample_points(patch, points, rng):
        jet = point_jet(patch, u, fd_step)
        frame = jet.frame
        frames = frame_field_jet(patch, frame, fd_step)
        w = frames.w
        base = theorem_report(jet)
        bump("structure_equation", structure_equation_residual(frames))
        bump("phi_formula_equivalence", base.phi_formula_mismatch)
        bump("nijenhuis_route_equivalence", base.n_route_mismatch)
        bump("connection_route_equivalence", route_gap(w, frame.E, base.sigma))
        bump("frame_invariance", 0.0)
        for _ in range(rotations):
            U = random_unitary_rotation(patch.n, rng)
            rotated = jet.rotated(U)
            rep = theorem_report(rotated)
            w_rotated = np.moveaxis(U.T @ np.moveaxis(w, -1, -3) @ U, -3, -1)
            bump("connection_route_equivalence", route_gap(w_rotated, rotated.frame.E, rep.sigma))
            bump("frame_invariance", max(
                abs(rep.normN2 - base.normN2) / max(1.0, abs(base.normN2)),
                abs(rep.margin - base.margin) / max(1.0, abs(base.margin)),
                abs(rep.det_F - base.det_F) / max(1.0, abs(base.det_F)),
                0.0 if rep.pfaffian_sign == base.pfaffian_sign else 1.0,
            ))
        if "unit_round_sphere" in patch.attributes:
            if fd_step != DEFAULT_FD_STEP:
                frames = frame_field_jet(patch, frame)
            dw = connection_derivative(patch, frames)
            bump("curvature_identity", round_sphere_curvature_residual(curvature_forms(frames, dw)))
            bump("chern_identity", chern_identity_residual(patch, frames, dw))
    return worst


@pytest.mark.parametrize(
    "manifold, points, seed, rotations, fd_step, chunk",
    [
        ("nk-s6", 5, 7, 3, 1e-5, 2),
        ("nk-s6", 3, 5, 2, 1e-4, 16),
        ("torus:eps=0.05,freq=1", 4, 1, 2, 1e-5, 3),
    ],
)
def test_chunked_geometry_checks_equal_a_per_point_loop(
    monkeypatch, manifold, points, seed, rotations, fd_step, chunk
):
    monkeypatch.setattr(cli, "GEOMETRY_CHUNK", chunk)
    entry = catalog.resolve(manifold)
    checks = geometry_checks(entry, points=points, seed=seed, rotations=rotations, fd_step=fd_step)["checks"]
    expected = _geometry_reference(entry, points, seed, rotations, fd_step)
    assert {name: slot["max_residual"] for name, slot in checks.items()} == expected
    if manifold == "nk-s6":
        assert len(expected) == 7


@pytest.mark.parametrize("rotations", ["2", "0"])
def test_verify_geometry_report_does_not_depend_on_the_chunk(monkeypatch, tmp_path, rotations):
    outputs = []
    for chunk in (1, 3, 16):
        monkeypatch.setattr(cli, "GEOMETRY_CHUNK", chunk)
        out = tmp_path / f"geometry-{chunk}.json"
        argv = ["verify-geometry", "--manifold", "nk-s6", "--points", "17", "--rotations", rotations]
        assert run_cli(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("manifold", [entry.id for entry in catalog.default_entries()])
def test_verify_geometry_compares_connection_routes(manifold):
    report = geometry_checks(catalog.resolve(manifold), points=2, seed=4, rotations=2, fd_step=1e-5)
    slot = report["checks"]["connection_route_equivalence"]
    assert slot["tolerance"] == 1e-8
    assert slot["pass"] and slot["max_residual"] <= 1e-8
    assert report["all_pass"]


def test_verify_geometry_connection_route_negative_control(monkeypatch, tmp_path):
    """A sign slip in the frame-differentiated connection fails the route check with exit 1."""
    from twistorcheck import connection

    original = connection.coordinate_connection
    monkeypatch.setattr(connection, "coordinate_connection", lambda *a, **k: -original(*a, **k))
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "conformal4", "--points", "1", "--rotations", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    slot = json.loads(out.read_text())["checks"]["connection_route_equivalence"]
    assert slot["pass"] is False and slot["max_residual"] > 1e-3


def test_verify_geometry_fails_a_nan_residual(monkeypatch, tmp_path):
    """A NaN residual fails its check with exit 1, and the report stays JSON."""
    monkeypatch.setattr(cli, "structure_equation_residual", lambda *a, **k: np.full(2, np.nan))
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "flat:3", "--points", "2", "--rotations", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["checks"]["structure_equation"] == {"max_residual": None, "tolerance": 1e-6, "pass": False}
    assert report["all_pass"] is False


def test_scan_rows_equal_single_point_reports():
    """Every nk-s6 grid-2 row is bitwise the report of its point computed alone."""
    entry = catalog.resolve("nk-s6")
    rows = cli.scan_rows(entry, 2, 1e-5, 1e-6)
    points = catalog.grid_points(entry.patch, 2)
    assert len(rows) == len(points) == 64
    for row, u in zip(rows, points):
        rep = theorem_report(point_jet(entry.patch, u))
        assert row["point"] == u.tolist()
        assert row["normN2"] == rep.normN2
        assert row["margin"] == rep.margin
        assert row["bound_paper"] == rep.bound_paper
        assert row["chain_ok"] == bool(rep.chain_ok.all_ok)
        assert row["nondegenerate"] == bool(rep.nondegenerate)


def test_scan_rows_do_not_depend_on_the_chunk():
    """Rows on both sides of each chunk boundary equal the point computed alone."""
    entry = catalog.resolve("nk-s6")
    rows = cli.scan_rows(entry, 3, 1e-5, 1e-6)
    points = catalog.grid_points(entry.patch, 3)
    assert len(rows) == 729 > 2 * cli.SCAN_CHUNK
    edges = [k * cli.SCAN_CHUNK for k in range(1, 3)]
    for i in [0, len(points) - 1] + [e + d for e in edges for d in (-1, 0)]:
        rep = theorem_report(point_jet(entry.patch, points[i]))
        assert (rows[i]["normN2"], rows[i]["margin"], rows[i]["bound_paper"]) == (
            rep.normN2, rep.margin, rep.bound_paper
        ), f"row {i}"
        assert rows[i]["chain_ok"] == bool(rep.chain_ok.all_ok)
        assert rows[i]["nondegenerate"] == bool(rep.nondegenerate)


def test_scan_names_the_one_point_that_breaks_j(monkeypatch, capsys):
    """J^2 = -Id fails at one grid point only: scan exits 2 naming that point."""
    entry = catalog.resolve("nk-s6")
    bad = catalog.grid_points(entry.patch, 2)[37]
    j_field = entry.patch.j_field

    def broken(u):
        J = np.array(j_field(u))
        J[np.all(u == bad, axis=-1)] *= 1.001
        return J

    doctored = dataclasses.replace(entry, patch=dataclasses.replace(entry.patch, j_field=broken))
    monkeypatch.setattr(catalog, "resolve", lambda manifold_id: doctored)
    assert run_cli(["scan", "--manifold", "nk-s6", "--grid", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: IncompatibleStructure: j_square residual")
    assert f"at {bad.tolist()}" in captured.err
