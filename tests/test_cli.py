"""Command-line contract: outputs, exit codes, determinism, config handling."""

import argparse
import dataclasses
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from twistorcheck import algebra, catalog, cli, geometry, point_jet, theorem_report, twistorform
from twistorcheck.cli import geometry_checks, main
from twistorcheck.connection import (
    connection_coefficients,
    connection_derivative,
    curvature_forms,
    frame_field_jet,
    round_sphere_curvature_residual,
    structure_equation_residual,
)
from twistorcheck.twistorform import chern_identity_residual, pfaffian_sign, phi_formula_gap


def run_cli(args):
    return main(list(args))


def structure_at(patch, u):
    """The structure residual at one point, from that point's own frame-field jet."""
    return structure_equation_residual(frame_field_jet(patch, u))


def round_sphere_at(patch, u):
    """(curvature, Chern) residuals at one point, from its own jets and d omega."""
    frames = frame_field_jet(patch, u)
    dw = connection_derivative(patch, frames)
    return (
        round_sphere_curvature_residual(curvature_forms(frames, dw)),
        chern_identity_residual(patch, frames, dw),
    )


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


@pytest.mark.parametrize(
    "manifold, line",
    [
        ("nope", "error: unknown manifold id 'nope'\n"),
        ("flat:x", "error: bad flat manifold id 'flat:x'\n"),
        ("torus:eps=.,freq=1", "error: bad torus manifold id 'torus:eps=.,freq=1'\n"),
        ("torus:eps=1e,freq=1", "error: bad torus manifold id 'torus:eps=1e,freq=1'\n"),
        # a well-formed id out of range keeps the family's own message
        ("torus:eps=0.9,freq=1", "error: eps must lie in [0, 0.5]\n"),
        ("flat:1", "error: n must be at least 2\n"),
    ],
)
def test_unknown_manifold_prints_its_message_unquoted(capsys, manifold, line):
    """The catalog's ValueError reaches stderr as its message alone, one line."""
    assert run_cli(["scan", "--manifold", manifold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


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


def test_a_negative_first_coordinate_needs_the_equals_form(tmp_path, capsys):
    """``--point=-0.1,...`` is a point; ``--point -0.1,...`` reads as a flag, an input error."""
    point = "-0.1,0.2,0.15,0.02"
    out = tmp_path / "report.json"
    assert run_cli(["report", "--manifold", "flat:2", f"--point={point}", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["point"] == [-0.1, 0.2, 0.15, 0.02]
    capsys.readouterr()
    assert run_cli(["report", "--manifold", "flat:2", "--point", point]) == 2
    assert capsys.readouterr().err == "error: argument --point: expected one argument\n"


@pytest.mark.parametrize(
    "manifold, point",
    [
        ("flat:2", None),
        ("conformal4", "1.3,0.9,1.1,1.7"),
        ("nk-s6", "0.1,-0.2,0.15,0.02,-0.1,0.05"),
        ("torus:eps=0.3,freq=2", "0.1,-0.2,0.15,0.02,-0.1,0.05"),
    ] + [(entry.id, None) for entry in catalog.default_entries()[1:]],
)
def test_report_decides_the_chain_as_theorem_report(tmp_path, manifold, point):
    """report's chain_ok is the library's verdict at CHAIN_TOL: no other
    tolerance enters; at these points, every catalog id's default among
    them, its printed cross-checks pass too, so it exits 0."""
    entry = catalog.resolve(manifold)
    argv = ["report", "--manifold", manifold, "--out", str(tmp_path / "report.json")]
    if point is None:
        u = catalog.grid_points(entry.patch, 1)[0]
    else:
        u = np.array([float(x) for x in point.split(",")])
        argv.append(f"--point={point}")
    assert run_cli(argv) == 0
    chain_ok = json.loads((tmp_path / "report.json").read_text())["chain_ok"]
    assert chain_ok == theorem_report(point_jet(entry.patch, u)).chain_ok.to_dict()


def test_scan_and_report_run_above_32_axes(tmp_path):
    """flat:17 has 34 axes, more than np.meshgrid takes: its grid and default point still build."""
    scan_out, report_out = tmp_path / "scan.json", tmp_path / "report.json"
    argv = ["scan", "--manifold", "flat:17", "--grid", "1", "--format", "json", "--out", str(scan_out)]
    assert run_cli(argv) == 0
    (row,) = json.loads(scan_out.read_text())["rows"]
    assert (row["normN2"], row["margin"]) == (0.0, 1.0)
    assert run_cli(["report", "--manifold", "flat:17", "--out", str(report_out)]) == 0
    report = json.loads(report_out.read_text())
    assert (report["normN2"], report["margin"]) == (0.0, 1.0)
    assert report["point"] == [row[f"u{i + 1}"] for i in range(34)]


def test_a_key_error_in_a_command_is_not_an_input_error(monkeypatch):
    """Only the input errors' types exit 2; a KeyError inside a command is a bug and propagates."""
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "cmd_report", broken)
    with pytest.raises(KeyError):
        run_cli(["report", "--manifold", "flat:2"])


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


@pytest.mark.parametrize("text", ["2,,3", "2,x", ""])
def test_verify_algebra_n_list_must_be_integers(capsys, text):
    assert run_cli(["verify-algebra", "--n-list", text, "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n-list needs comma-separated integers, got {text!r}\n"


def test_verify_algebra_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run_cli(["verify-algebra", "--samples", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


# sha256 of the report bytes of the two negative controls below: the failure
# texts carry the exact lhs and rhs of every failing wedge sample, and the
# order of the failures list is by sample and then by check.
NEGATIVE_CONTROL_BETA_SHA256 = "b1aa9375a4cdc087e824889a6f44fee25c0da13911e4f5a8e511f46011a84241"
NEGATIVE_CONTROL_SPLIT_SHA256 = "402862bbdf2742c8af56103b4ff2bc41ed0ab599690a0bb8ea88e009e433bd7d"


def test_verify_algebra_negative_control(tmp_path, monkeypatch):
    """A sign slip in beta must surface as failed wedge-identity samples and exit 1."""
    monkeypatch.setattr(
        algebra, "_beta_of",
        lambda m, n: m[..., :n, :n] - m[..., n:, n:],
    )
    out = tmp_path / "algebra.json"
    code = run_cli(["verify-algebra", "--n-list", "2,3", "--samples", "3", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is False
    assert doc["checks"]["wedge_identity"]["fail"] == 6
    assert {f["check"] for f in doc["failures"]} == {"wedge_identity"}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NEGATIVE_CONTROL_BETA_SHA256


def test_verify_algebra_negative_control_swapped_split(tmp_path, monkeypatch):
    """A split that returns its parts swapped must fail skew_decompose on every sample."""
    split = algebra.skew_decompose
    monkeypatch.setattr(algebra, "skew_decompose", lambda omega: split(omega)[::-1])
    out = tmp_path / "algebra.json"
    code = run_cli(["verify-algebra", "--n-list", "2,3", "--samples", "3", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is False
    assert doc["checks"]["skew_decompose"] == {"pass": 0, "fail": 6}
    # the swapped "sigma" part does not anticommute with J0, so J1 rejects it
    assert doc["checks"]["canonical_j1_square"] == {"pass": 0, "fail": 6}
    assert {f["check"] for f in doc["failures"]} == {"skew_decompose", "canonical_j1_square"}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NEGATIVE_CONTROL_SPLIT_SHA256


# sha256 of the report bytes of this command.  The draws fix which samples run
# and every check feeds the counts, so a drift in either changes the hash; the
# worst case-1 sample of each n carries its exact ratio, so a drift in the
# drawn values changes it too.
GOLDEN_ALGEBRA_SHA256 = "8faf61089a3d18c77d2969de0d3e826c147d86f8bfef1008f6a250551fe47179"


def test_verify_algebra_report_bytes_are_pinned(tmp_path):
    """n = 2 (case 2) and every n up to MAX_N, byte for byte."""
    out = tmp_path / "algebra.json"
    argv = ["verify-algebra", "--n-list", "2,3,4,5,6", "--samples", "20", "--seed", "11"]
    assert algebra.MAX_N == 6
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ALGEBRA_SHA256


ROUTE_ARGV = [
    ["verify-geometry", "--manifold", "nk-s6"],
    ["scan", "--manifold", "nk-s6", "--grid", "2"],
    ["report", "--manifold", "nk-s6", "--point", "0.3,0.1,0,0,0,0"],
]


@pytest.mark.parametrize("argv", ROUTE_ARGV)
def test_route_disagreement_is_a_failed_check(monkeypatch, tmp_path, capsys, argv):
    """With a J jet pushed off J's derivative by 1e-3 the two Nijenhuis
    routes drift apart: a failed check, so every command exits 1 with its
    output written and no error line.  verify-geometry fails the two checks
    that read the pushed jet against another route, and no other; report
    prints the gap; scan names the first failing point and still writes
    every row and its summary."""
    entry = catalog.resolve("nk-s6")
    pushed = dataclasses.replace(
        entry, patch=dataclasses.replace(entry.patch, j_jet=lambda u: catalog._s6_j_jet(u) + 1e-3)
    )
    monkeypatch.setattr(catalog, "resolve", lambda manifold_id: pushed)
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" not in err
    if argv[0] == "verify-geometry":
        checks = json.loads(out.read_text())["checks"]
        assert [name for name, slot in checks.items() if not slot["pass"]] == [
            "nijenhuis_route_equivalence", "connection_route_equivalence",
        ]
    elif argv[0] == "report":
        report = json.loads(out.read_text())
        assert report["n_route_mismatch"] > cli.GEOMETRY_TOLERANCES["nijenhuis_route_equivalence"]
    else:
        first = catalog.grid_points(pushed.patch, 2)[0].tolist()
        assert f"64 points fail nijenhuis_route_equivalence at 1e-06, the first at {first} with gap " in err
        lines = out.read_text().splitlines()
        assert len(lines) == 66 and lines[0] == ",".join(["u1", "u2", "u3", "u4", "u5", "u6", *cli.SCAN_COLUMNS])
        assert lines[-1].startswith("# summary ") and lines[-1].endswith(" chain_violations=0 points=64")


def test_verify_geometry_gates_the_route_gap_of_every_rotated_frame(monkeypatch, tmp_path):
    """A route gap past the tolerance in the rotated frames alone, with the
    unrotated frame's gap untouched, still fails nijenhuis_route_equivalence."""
    original = twistorform.route_gap

    def bump_rotated(N, reference):
        gap = original(N, reference).copy()
        gap[1:] += 1.0
        return gap

    monkeypatch.setattr(twistorform, "route_gap", bump_rotated)
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "flat:2", "--points", "2", "--rotations", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [name for name, slot in checks.items() if not slot["pass"]] == ["nijenhuis_route_equivalence"]


def test_a_nan_route_gap_fails_scan(monkeypatch, tmp_path, capsys):
    """A NaN Nijenhuis route gap fails scan with exit 1, and scan still
    writes its table byte for byte as when the gap is finite."""
    argv = ROUTE_ARGV[1]
    out, exact = tmp_path / "out", tmp_path / "exact"
    assert run_cli(argv + ["--out", str(exact)]) == 0
    original = twistorform.route_gap
    monkeypatch.setattr(twistorform, "route_gap", lambda *args: np.nan * original(*args))
    capsys.readouterr()
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" not in err
    assert out.read_bytes() == exact.read_bytes()
    assert "64 points fail nijenhuis_route_equivalence" in err and "with gap nan" in err


def test_a_j_field_that_casts_complex_points_is_refused_with_one_line(monkeypatch, tmp_path, capsys):
    """The frame route evaluates J at complex points; a J that casts them to
    float would differentiate to zero, so report and verify-geometry exit 2
    with one line.  scan reads J at real points only and still runs."""
    entry = catalog.resolve("nk-s6")
    patch = dataclasses.replace(entry.patch, j_field=lambda u: catalog._s6_j(np.asarray(u, dtype=float)))
    casting = dataclasses.replace(entry, patch=patch)
    monkeypatch.setattr(catalog, "resolve", lambda manifold_id: casting)
    out = str(tmp_path / "out")
    for argv in (["report", "--manifold", "nk-s6"], ["verify-geometry", "--manifold", "nk-s6", "--points", "1"]):
        assert run_cli(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: j_field casts complex points to float; ")
    assert run_cli(["scan", "--manifold", "nk-s6", "--grid", "1", "--out", out]) == 0


def test_a_round_sphere_patch_without_a_metric_jet(monkeypatch, tmp_path, capsys):
    """The curvature and Chern checks differentiate the Christoffel symbols
    at the complex points, which takes the metric jet: without it
    verify-geometry on the round sphere exits 2 with one line.  report and
    scan, whose Christoffel symbols are complex steps of g at real points,
    run."""
    entry = catalog.resolve("nk-s6")
    bare = dataclasses.replace(entry, patch=dataclasses.replace(entry.patch, metric_jet=None))
    monkeypatch.setattr(catalog, "resolve", lambda manifold_id: bare)
    out = tmp_path / "out"
    assert run_cli(["verify-geometry", "--manifold", "nk-s6", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: patch 'nk-s6' has no metric jet, which a derivative at complex points needs\n"
    assert not out.exists()
    assert run_cli(["report", "--manifold", "nk-s6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["manifold"] == "nk-s6"
    assert run_cli(["scan", "--manifold", "nk-s6", "--grid", "1", "--out", str(out)]) == 0


def test_exact_j_jet_keeps_the_nijenhuis_routes_together(tmp_path):
    """With nk-s6's closed-form J jet the routes agree: scan and report exit
    0, and so does verify-geometry, whose frame route reads at rounding."""
    geometry_argv, scan_argv, report_argv = ROUTE_ARGV
    out = tmp_path / "out"
    for argv in (scan_argv, report_argv):
        assert run_cli(argv + ["--out", str(out)]) == 0
    assert run_cli(geometry_argv + ["--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks["nijenhuis_route_equivalence"]["max_residual"] <= 1e-14
    for name in ("structure_equation", "connection_route_equivalence"):
        assert checks[name]["max_residual"] <= 1e-13, name


def test_nk_s6_report_at_the_origin_has_the_constant_norm(tmp_path):
    """|N|^2 = 384 and margin 0 on the unit round sphere, from the closed-form J jet."""
    out = tmp_path / "report.json"
    assert run_cli(["report", "--manifold", "nk-s6", "--point", "0,0,0,0,0,0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["normN2"] == pytest.approx(384.0, rel=1e-13, abs=0.0)
    assert abs(doc["margin"]) <= 1e-13


@pytest.mark.parametrize("freq", ["1", "100", "100000", "99999999999999999999"])
def test_torus_report_at_the_origin_has_the_closed_form_norm(tmp_path, freq):
    """|N|^2 = 8 (eps freq)^2 at the origin, with no stencil to alias at any freq."""
    out = tmp_path / "report.json"
    argv = ["report", "--manifold", f"torus:eps=0.05,freq={freq}", "--point", "0,0,0,0,0,0"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    expected = 8.0 * (0.05 * int(freq)) ** 2
    assert json.loads(out.read_text())["normN2"] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_torus_route_gap_at_freq_100_is_rounding(tmp_path):
    """At freq 100 the frame-differentiated route meets the exact nabla J
    route at rounding: the complex step has no O((freq h)^2) truncation, which
    at a central-difference step of 1e-5 read 4.1e-7 against the 1e-8 gate."""
    argv = ["verify-geometry", "--manifold", "torus:eps=0.05,freq=100", "--points", "5", "--rotations", "1"]
    out = tmp_path / "geometry.json"
    assert run_cli(argv + ["--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert all(slot["pass"] for slot in checks.values())
    assert checks["connection_route_equivalence"]["max_residual"] <= 1e-14


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


def test_config_file_loses_to_an_explicit_default(tmp_path):
    """--grid 3 equals the flag's default, yet it still beats the config's grid 2."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": 2, "format": "json"}))
    out = tmp_path / "scan.json"
    argv = ["scan", "--manifold", "flat:2", "--grid", "3", "--config", str(cfg), "--out", str(out)]
    assert run_cli(argv) == 0
    assert json.loads(out.read_text())["summary"]["points"] == 81


def test_config_file_supplies_missing_flags(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": 2, "format": "json"}))
    out = tmp_path / "scan.json"
    code = run_cli(["scan", "--manifold", "flat:2", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["points"] == 16


def test_a_second_call_builds_no_parser(monkeypatch):
    """The parser is built on the first call of a process and reused by every later one."""
    built = []
    init, add_argument = argparse.ArgumentParser.__init__, argparse._ActionsContainer.add_argument

    def counting_init(self, *args, **kwargs):
        built.append("parser")
        init(self, *args, **kwargs)

    def counting_add_argument(self, *args, **kwargs):
        built.append("argument")
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting_add_argument)
    argv = ["verify-algebra", "--n-list", "2", "--samples", "1", "--seed", "-1"]  # a usage error
    cli.build_parser.cache_clear()
    assert run_cli(argv) == 2
    assert "parser" in built and "argument" in built  # the counters see a build
    built.clear()
    assert run_cli(argv) == 2
    assert run_cli(["scan", "--manifold", "flat:2", "--grid", "0"]) == 2
    assert built == []


def test_config_applies_to_its_own_call_only(tmp_path):
    """A --config call leaves the parser as it found it, also when the call fails."""
    plain = ["scan", "--manifold", "flat:2"]

    def plain_scan():
        out = tmp_path / "plain.csv"
        assert run_cli(plain + ["--out", str(out)]) == 0
        return out.read_bytes()

    first = plain_scan()
    assert first.startswith(b"u1,") and first.count(b"\n") == 1 + 81 + 1  # grid 3, csv
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"grid": 2, "format": "json"}))
    bad.write_text(json.dumps({"grid": 2, "format": "xml"}))
    out = tmp_path / "config.json"
    assert run_cli(plain + ["--config", str(good), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["points"] == 16
    assert plain_scan() == first
    assert run_cli(plain + ["--config", str(bad)]) == 2
    assert plain_scan() == first
    # every value valid, and the command itself fails
    assert run_cli(["scan", "--manifold", "nope", "--config", str(good)]) == 2
    assert plain_scan() == first


def test_main_calls_the_command_bound_at_call_time(monkeypatch, tmp_path):
    """A function put in place of cli.cmd_scan after the parser exists is the one called."""
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args) or 7)
    assert run_cli(["scan", "--manifold", "flat:2", "--grid", "2"]) == 7
    assert [(a.command, a.manifold, a.grid) for a in seen] == [("scan", "flat:2", 2)]
    monkeypatch.undo()
    out = tmp_path / "scan.csv"
    assert run_cli(["scan", "--manifold", "flat:2", "--grid", "2", "--out", str(out)]) == 0
    assert len(seen) == 1 and out.read_text().endswith("points=16\n")


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
        ({"bogus": 1}, "config file: unrecognized arguments: --bogus=1"),
        ({"manifold": "flat:2"}, "config file: unrecognized arguments: --manifold=flat:2"),
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
    err = capsys.readouterr().err
    # the list of choices after this prefix is quoted differently across Python versions
    assert err.startswith("error: config file: argument --format: invalid choice: 'xml'")
    assert err.count("\n") == 1


def _with_config(tmp_path, argv, values):
    """``argv`` with ``--config`` pointing at a file that holds ``values``."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    return argv + ["--config", str(cfg)]


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["scan", "--manifold", "flat:2"], "grid", 0),
        (["scan", "--manifold", "flat:2"], "grid", " 0\n"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1"], "seed", -1),
        (["report", "--manifold", "nk-s6"], "fd_step", 1e-12),
        (["verify-algebra", "--n-list", "2"], "samples", "five"),
        (["verify-algebra", "--n-list", "2"], "samples", 2.5),
        (["scan", "--manifold", "flat:2"], "format", "xml"),
        (["scan", "--manifold", "flat:2"], "bogus", 1),
        (["scan", "--manifold", "flat:2"], "bogus", "a\nb"),
        (["scan", "--manifold", "flat:2"], "gri", 2),  # an abbreviation of --grid
        (["verify-algebra", "--n-list", "2"], "tol", 1e-3),  # no command's flag: CHAIN_TOL is fixed
        (["scan", "--manifold", "flat:2"], "rotations", 1),  # a flag of verify-geometry
    ],
)
def test_a_bad_config_entry_fails_as_its_flag(tmp_path, capsys, argv, key, value):
    """A config entry is refused with the message of the same --flag=value on the command line."""
    assert run_cli(_with_config(tmp_path, argv, {key: value})) == 2
    from_config = capsys.readouterr()
    assert run_cli(argv + [f"--{key.replace('_', '-')}={value}"]) == 2
    from_flag = capsys.readouterr()
    assert from_config.out == from_flag.out == ""
    assert from_flag.err.startswith("error: ") and from_flag.err.count("\n") == 1
    assert from_config.err == "error: config file: " + from_flag.err[len("error: "):]


@pytest.mark.parametrize(
    "argv, values, flags",
    [
        (["scan", "--manifold", "nk-s6"], {"grid": 2, "format": "json"}, ["--grid", "2", "--format", "json"]),
        (["verify-algebra", "--seed", "4"], {"samples": 5, "n_list": "2"}, ["--samples", "5", "--n-list", "2"]),
        (["report", "--manifold", "nk-s6"], {"point": "0.1,-0.2,0.15,0.02,-0.1,0.05"},
         ["--point", "0.1,-0.2,0.15,0.02,-0.1,0.05"]),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1"], {"rotations": 0}, ["--rotations", "0"]),
        # an explicit flag wins, also one equal to its default
        (["scan", "--manifold", "flat:2", "--grid", "3"], {"grid": 2}, []),
        (["scan", "--manifold", "flat:2", "--grid", "2", "--format", "csv"], {"grid": 3, "format": "json"}, []),
    ],
)
def test_a_config_entry_is_its_flag(tmp_path, argv, values, flags):
    from_config, from_flags = tmp_path / "config.out", tmp_path / "flags.out"
    assert run_cli(_with_config(tmp_path, argv, values) + ["--out", str(from_config)]) == 0
    assert run_cli(argv + flags + ["--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("key", ["config", "", "-grid", "out=x"])
def test_a_config_key_must_be_a_flag_name(tmp_path, capsys, key):
    assert run_cli(_with_config(tmp_path, ["scan", "--manifold", "flat:2", "--grid", "1"], {key: "x"})) == 2
    assert capsys.readouterr().err == f"error: config key {key!r} is not a flag name\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff{", "cannot read config file: 'utf-8' codec can't decode byte 0xff"),
        (b"{grid: 2}", "cannot read config file: Expecting property name"),
        (b"[2]", "config file must hold a JSON object"),
    ],
)
def test_an_unreadable_config_file_is_an_input_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert run_cli(["scan", "--manifold", "flat:2", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_flags_are_known_by_exact_name(capsys):
    assert run_cli(["scan", "--manifold", "flat:2", "--gri", "2"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --gri 2\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scan", "--manifold", "flat:2", "--grid", "nan"], "--grid"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "0"], "--points"),
        (["verify-algebra", "--samples", "0"], "--samples"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "-3"], "--points"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1", "--rotations", "-1"],
         "--rotations"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1", "--seed", "-1"], "--seed"),
        (["verify-algebra", "--samples", "2", "--seed", "-1"], "--seed"),
        (["scan", "--manifold", "flat:2", "--grid", "1", "--seed", "-1"], "--seed"),
        (["scan", "--manifold", "flat:2", "--grid", "0\n"], "--grid"),
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
        (["verify-geometry", "--manifold", "flat:2"], {"points": 0}, "must be >= 1"),
        (["report", "--manifold", "nk-s6"], {"fd-step": 1e-4},
         "config file: unrecognized arguments: --fd-step=0.0001"),
        (["scan", "--manifold", "flat:2"], {"grid": 0}, "must be >= 1"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1"], {"rotations": -1},
         "must be >= 0"),
        (["verify-algebra", "--samples", "3"], {"tol": 1e-3},
         "config file: unrecognized arguments: --tol=0.001"),
        (["verify-algebra", "--samples", "3"], {"seed": -1},
         "config file: argument --seed: must be >= 0, got -1"),
        (["verify-geometry", "--manifold", "flat:2", "--points", "1"], {"seed": -1},
         "config file: argument --seed: must be >= 0, got -1"),
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
        # the chain is decided at twistorform.CHAIN_TOL, which no flag overrides
        ["report", "--manifold", "flat:2", "--tol", "1e-3"],
        ["scan", "--manifold", "flat:2", "--grid", "1", "--tol", "1e-3"],
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
        ["report", "--manifold", "nk-s6"],
        ["scan", "--manifold", "nk-s6", "--grid", "1"],
        ["verify-geometry", "--manifold", "nk-s6", "--points", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_takes_a_step(tmp_path, capsys, argv):
    """The frame route differentiates by complex steps, which have no step to
    choose: --fd-step is refused with one line, as a flag and as a config key."""
    assert run_cli(argv + ["--fd-step", "1e-5"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --fd-step 1e-5\n"
    assert run_cli(_with_config(tmp_path, argv, {"fd_step": 1e-5})) == 2
    assert capsys.readouterr().err == "error: config file: unrecognized arguments: --fd-step=1e-05\n"


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


def test_unallocatable_manifold_is_an_input_error(capsys):
    # flat:100000 asks numpy for a 56.8 PiB array, which fails at once
    assert run_cli(["report", "--manifold", "flat:100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_geometry_checks_share_without_changing_values():
    """One frame and one d omega per point give the standalone residuals exactly."""
    entry = catalog.resolve("nk-s6")
    patch = entry.patch
    checks = geometry_checks(entry, points=2, seed=3, rotations=1)["checks"]
    samples = catalog.sample_points(patch, 2, np.random.default_rng(3))
    assert checks["structure_equation"]["max_residual"] == max(structure_at(patch, u) for u in samples)
    assert checks["curvature_identity"]["max_residual"] == max(round_sphere_at(patch, u)[0] for u in samples)
    assert checks["chern_identity"]["max_residual"] == max(round_sphere_at(patch, u)[1] for u in samples)


def test_metric_jet_once_per_point_jet_and_once_per_block(monkeypatch, tmp_path):
    """The frame-differentiated route reads the point jet's Christoffel symbols:
    one metric jet per report, and per verify-geometry chunk one for the jet
    and one for d omega at the complex points."""
    entry = catalog.resolve("nk-s6")
    metric_jet = entry.patch.metric_jet
    calls = 0

    def counting(u):
        nonlocal calls
        calls += 1
        return metric_jet(u)

    counted = dataclasses.replace(entry, patch=dataclasses.replace(entry.patch, metric_jet=counting))
    monkeypatch.setattr(catalog, "resolve", lambda manifold: counted)
    monkeypatch.setattr(cli, "GEOMETRY_CHUNK", 2)
    out = str(tmp_path / "out.json")
    assert run_cli(["report", "--manifold", "nk-s6", "--out", out]) == 0
    assert calls == 1
    calls = 0
    argv = ["verify-geometry", "--manifold", "nk-s6", "--points", "3", "--rotations", "1"]
    assert run_cli(argv + ["--out", out]) == 0
    assert calls == 2 * 2


def test_geometry_point_evaluates_j_within_budget():
    # Rebuilding the frame and the d omega block for every check of one nk-s6
    # point with 4 rotations evaluated J at 939 points; sharing them needed
    # 571, reading sigma off nabla J 258, one point jet per point 193,
    # sharing the stencil frames of the connection and the coframe 181,
    # building each distinct point of the 12 x 13 d omega block once 121,
    # and d omega from first differences of the stencil frames 25: 1 frame,
    # a 12-point J stencil and 12 stencil frames, each group one batched
    # call of J.  nk-s6's closed-form J jet then dropped the J stencil,
    # leaving 13 points in 2 calls, and building the point's frame and its
    # 12 stencil frames in one batch left 13 points in 1 call.  The complex
    # step needs no minus side: the point's frame and its 6 complex-step
    # frames take 7 points in 2 calls, one real and one complex.  The
    # budgets are those counts.
    entry = catalog.resolve("nk-s6")
    j_field = entry.patch.j_field
    calls = points = 0

    def counting(u):
        nonlocal calls, points
        calls += 1
        points += u[..., 0].size
        return j_field(u)

    counted = dataclasses.replace(entry, patch=dataclasses.replace(entry.patch, j_field=counting))
    assert geometry_checks(counted, points=1, seed=0, rotations=4)["all_pass"]
    assert calls <= 2
    assert points <= 7


def counting_calls(monkeypatch, entry):
    """A copy of ``entry`` whose g and J calls, and every adapt_frame call, count into the returned dict."""
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
    return counting, calls


def test_geometry_calls_per_chunk_do_not_depend_on_points(monkeypatch):
    """A chunk of points costs a fixed number of field and frame calls, however many points it holds."""
    counting, calls = counting_calls(monkeypatch, catalog.resolve("nk-s6"))

    def calls_for(points):
        calls.update(frame=0, g=0, J=0)
        assert geometry_checks(counting, points=points, seed=0, rotations=4)["all_pass"]
        return dict(calls)

    # per chunk: one batch of frames for the points, evaluating g and J once,
    # and one of frames at their complex points, evaluating each once more;
    # the J jet is closed-form
    one = calls_for(1)
    assert one == {"frame": 1, "g": 2, "J": 2}
    assert calls_for(4) == calls_for(cli.GEOMETRY_CHUNK) == one
    assert calls_for(cli.GEOMETRY_CHUNK + 1) == {key: 2 * value for key, value in one.items()}


@pytest.mark.parametrize("manifold", ["nk-s6", "conformal4"])
def test_report_builds_one_batch_of_frames(monkeypatch, tmp_path, manifold):
    """A report builds the point's frame in one adapt_frame call, which
    evaluates g and J once, and its complex-step frames from one more call
    of each."""
    counting, calls = counting_calls(monkeypatch, catalog.resolve(manifold))
    monkeypatch.setattr(catalog, "resolve", lambda manifold_id: counting)
    assert run_cli(["report", "--manifold", manifold, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == {"frame": 1, "g": 2, "J": 2}


def test_lapack_calls_per_chunk(monkeypatch, tmp_path):
    """g is decomposed once per batch of frames, by validate_patch's eigvalsh,
    whose spectrum adapt_frame's condition gate reads; christoffel reads
    g^-1 = E E^T off the frame and calls no LAPACK routine, and a scan chunk
    makes no Pfaffian call, whether or not its forms are non-degenerate.  A
    scan chunk then makes 3 numpy.linalg calls (validation, margin, det F) on
    nk-s6 and on flat:3 alike, and an nk-s6 verify-geometry chunk 4 (the same
    and the rotations' eigh), or 3 with no rotations."""
    from collections import Counter

    from twistorcheck import connection

    calls = Counter()
    for name in ("eigvalsh", "eigh", "inv", "det", "slogdet"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    inside = []
    original = geometry.christoffel

    def watched(*args, **kwargs):
        before = sum(calls.values())
        result = original(*args, **kwargs)
        inside.append(sum(calls.values()) - before)
        return result

    for module in (geometry, connection):
        monkeypatch.setattr(module, "christoffel", watched)
    out = str(tmp_path / "out")
    assert run_cli(["scan", "--manifold", "nk-s6", "--grid", "2", "--out", out]) == 0
    assert calls == {"eigvalsh": 2, "det": 1}
    assert inside == [0]
    calls.clear()
    inside.clear()
    # every flat:3 form is non-degenerate, and scan reads no sign of one
    assert run_cli(["scan", "--manifold", "flat:3", "--grid", "2", "--out", out]) == 0
    assert calls == {"eigvalsh": 2, "det": 1}
    calls.clear()
    inside.clear()
    argv = ["verify-geometry", "--manifold", "nk-s6", "--points", "4", "--rotations", "4", "--out", out]
    assert run_cli(argv) == 0
    assert calls == {"eigvalsh": 2, "eigh": 1, "det": 1}
    # the point jet's symbols and those of the complex frames for d omega
    assert inside == [0, 0]
    calls.clear()
    argv[argv.index("--rotations") + 1] = "0"
    assert run_cli(argv) == 0
    # no rotation drawn, so no eigh on an empty stack
    assert calls == {"eigvalsh": 2, "det": 1}


def test_pfaffian_sign_only_where_it_is_read(monkeypatch, tmp_path):
    """scan forms no Pfaffian sign; report forms one, and verify-geometry one
    per chunk, on the chunk's (1 + rotations, points) batch of forms."""
    batches = []

    def recording(F, nondeg):
        batches.append(np.shape(nondeg))
        return pfaffian_sign(F, nondeg)

    monkeypatch.setattr(cli, "pfaffian_sign", recording)
    out = tmp_path / "out"
    assert run_cli(["scan", "--manifold", "flat:3", "--grid", "2", "--out", str(out)]) == 0
    assert batches == []
    assert run_cli(["report", "--manifold", "flat:3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pfaffian_sign"] == 1
    assert batches == [()]
    batches.clear()
    argv = ["verify-geometry", "--manifold", "flat:3", "--points", "17", "--rotations", "2", "--out", str(out)]
    assert run_cli(argv) == 0
    assert batches == [(3, 16), (3, 1)]


def test_frame_invariance_reads_the_pfaffian_sign(monkeypatch, tmp_path):
    """Negative control: a sign that flips on every rotated row fails frame
    invariance alone, by a residual of 1.  flat:3 has F = -J0, of sign +1."""
    def flipped(F, nondeg):
        sign = pfaffian_sign(F, nondeg)
        sign[1:] *= -1
        return sign

    monkeypatch.setattr(cli, "pfaffian_sign", flipped)
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "flat:3", "--points", "3", "--rotations", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [name for name, slot in checks.items() if not slot["pass"]] == ["frame_invariance"]
    assert checks["frame_invariance"]["max_residual"] == 1.0


@pytest.mark.parametrize("rotations", [0, 4])
def test_one_report_per_geometry_chunk(monkeypatch, rotations):
    """The jet's own frames and all their rotations go through one theorem_report per chunk."""
    calls = 0

    def counting(jet, *args, **kwargs):
        nonlocal calls
        calls += 1
        return theorem_report(jet, *args, **kwargs)

    monkeypatch.setattr(cli, "theorem_report", counting)
    monkeypatch.setattr(cli, "GEOMETRY_CHUNK", 2)
    entry = catalog.resolve("flat:2")
    assert geometry_checks(entry, points=3, seed=0, rotations=rotations)["all_pass"]
    assert calls == 2


def test_scan_never_runs_the_phi_formula_oracle(monkeypatch):
    """scan neither prints nor gates the phi formulas' gap, so it never forms it."""
    def refuse(omega):
        raise AssertionError("phi_via_bundle_formula called")

    monkeypatch.setattr(twistorform, "phi_via_bundle_formula", refuse)
    table, _ = cli.scan_rows(catalog.resolve("nk-s6"), 2)
    assert table["chain_ok"].all()


def test_phi_formula_oracle_runs_on_the_identity_row_once_per_chunk(monkeypatch, tmp_path):
    """verify-geometry forms the oracle once per chunk on the reports' row 0,
    the jet's own frames, and report once on its one table."""
    seen, reports = [], []
    original = twistorform.phi_via_bundle_formula

    def recording(omega):
        seen.append(omega)
        return original(omega)

    def keeping(jet, *args, **kwargs):
        reports.append(theorem_report(jet, *args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(twistorform, "phi_via_bundle_formula", recording)
    monkeypatch.setattr(cli, "theorem_report", keeping)
    argv = ["verify-geometry", "--manifold", "nk-s6", "--points", "17", "--rotations", "2"]
    assert run_cli(argv + ["--out", str(tmp_path / "geo.json")]) == 0
    assert [omega.shape[:-3] for omega in seen] == [(16,), (1,)]
    for omega, rep in zip(seen, reports, strict=True):
        assert np.array_equal(omega, rep.sigma[0])
    seen.clear()
    assert run_cli(["report", "--manifold", "nk-s6", "--out", str(tmp_path / "report.json")]) == 0
    assert [omega.shape for omega in seen] == [(6, 6, 6)]


def test_phi_formula_equivalence_negative_control(monkeypatch, tmp_path):
    """A bundle formula off by 1 % fails phi_formula_equivalence alone; report
    prints the gap and exits 1 by the same gate.  flat:3 has phi = -J0, so the
    slip shows as a gap of 0.01 (on nk-s6 phi vanishes and a scaling would not)."""
    original = twistorform.phi_via_bundle_formula
    monkeypatch.setattr(twistorform, "phi_via_bundle_formula", lambda omega: 1.01 * original(omega))
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "flat:3", "--points", "3", "--rotations", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [name for name, slot in checks.items() if not slot["pass"]] == ["phi_formula_equivalence"]
    assert f"{checks['phi_formula_equivalence']['max_residual']:.4f}" == "0.0100"
    out = tmp_path / "report.json"
    assert run_cli(["report", "--manifold", "flat:3", "--out", str(out)]) == 1
    assert f"{json.loads(out.read_text())['phi_formula_mismatch']:.4f}" == "0.0100"


def _geometry_reference(entry, points, seed, rotations):
    """The max residual of each verify-geometry check, one point and one rotation at a time."""
    from twistorcheck.connection import sigma_part
    from twistorcheck.geometry import random_unitary_rotation

    patch = entry.patch
    rng = np.random.default_rng(seed)
    worst = {}

    def bump(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    def route_gap(w, E, sigma):
        return np.abs(sigma_part(connection_coefficients(w, E)) - sigma).max()

    for u in catalog.sample_points(patch, points, rng):
        jet = point_jet(patch, u)
        frame = jet.frame
        frames = frame_field_jet(patch, u)
        w = frames.w
        base = theorem_report(jet)
        bump("structure_equation", structure_equation_residual(frames))
        bump("phi_formula_equivalence", phi_formula_gap(base.sigma, base.F))
        bump("nijenhuis_route_equivalence", base.n_route_mismatch)
        bump("connection_route_equivalence", route_gap(w, frame.E, base.sigma))
        bump("frame_invariance", 0.0)
        for _ in range(rotations):
            U = random_unitary_rotation(patch.n, rng)
            rotated = jet.rotated(U)
            rep = theorem_report(rotated)
            w_rotated = U.T @ w @ U
            bump("nijenhuis_route_equivalence", rep.n_route_mismatch)
            bump("connection_route_equivalence", route_gap(w_rotated, rotated.frame.E, rep.sigma))
            bump("frame_invariance", max(
                abs(rep.normN2 - base.normN2) / max(1.0, abs(base.normN2)),
                abs(rep.margin - base.margin) / max(1.0, abs(base.margin)),
                abs(rep.det_F - base.det_F) / max(1.0, abs(base.det_F)),
                0.0 if pfaffian_sign(rep.F, rep.nondegenerate) == pfaffian_sign(base.F, base.nondegenerate)
                else 1.0,
            ))
        if "unit_round_sphere" in patch.attributes:
            dw = connection_derivative(patch, frames)
            bump("curvature_identity", round_sphere_curvature_residual(curvature_forms(frames, dw)))
            bump("chern_identity", chern_identity_residual(patch, frames, dw))
    return worst


@pytest.mark.parametrize(
    "manifold, points, seed, rotations, chunk",
    [
        ("nk-s6", 5, 7, 3, 2),
        ("nk-s6", 3, 5, 2, 16),
        ("torus:eps=0.05,freq=1", 4, 1, 2, 3),
    ],
)
def test_chunked_geometry_checks_equal_a_per_point_loop(monkeypatch, manifold, points, seed, rotations, chunk):
    monkeypatch.setattr(cli, "GEOMETRY_CHUNK", chunk)
    entry = catalog.resolve(manifold)
    checks = geometry_checks(entry, points=points, seed=seed, rotations=rotations)["checks"]
    expected = _geometry_reference(entry, points, seed, rotations)
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
    report = geometry_checks(catalog.resolve(manifold), points=2, seed=4, rotations=2)
    slot = report["checks"]["connection_route_equivalence"]
    assert slot["tolerance"] == 1e-8
    assert slot["pass"] and slot["max_residual"] <= 1e-8
    assert report["all_pass"]


@pytest.mark.parametrize("manifold, count", [("nk-s6", 7), ("flat:3", 5)])
def test_verify_geometry_reports_checks_in_tolerance_table_order(manifold, count):
    """The report lists the checks in GEOMETRY_TOLERANCES order; the round-sphere pair only on nk-s6."""
    report = geometry_checks(catalog.resolve(manifold), points=1, seed=0, rotations=1)
    table = list(cli.GEOMETRY_TOLERANCES.items())[:count]
    assert [(name, slot["tolerance"]) for name, slot in report["checks"].items()] == table


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


def transpose_christoffel_symbols(monkeypatch):
    """Store Gamma^c_{ab} at [c, a, b] instead of [a, c, b], where the frame route reads it."""
    from twistorcheck import connection

    original = geometry.christoffel

    def transposed(*args, **kwargs):
        return np.swapaxes(original(*args, **kwargs), -3, -2)

    for module in (geometry, connection):
        monkeypatch.setattr(module, "christoffel", transposed)


@pytest.mark.parametrize("manifold", ["nk-s6", "conformal4"])
def test_verify_geometry_catches_transposed_christoffel_symbols(monkeypatch, manifold):
    """Transposed Christoffel symbols fail the structure equation and the
    connection routes.  The chain alone would not notice: its Nijenhuis
    route reads no connection."""
    transpose_christoffel_symbols(monkeypatch)
    checks = geometry_checks(catalog.resolve(manifold), points=4, seed=0, rotations=1)["checks"]
    for name in ("structure_equation", "connection_route_equivalence"):
        assert checks[name]["pass"] is False and checks[name]["max_residual"] > 1e-2, name


@pytest.mark.parametrize(
    "manifold, point",
    [("nk-s6", "0.1,-0.2,0.15,0.02,-0.1,0.05"), ("conformal4", "1.2,0.8,1.6,0.9")],
)
def test_report_catches_transposed_christoffel_symbols(monkeypatch, tmp_path, manifold, point):
    """With Gamma transposed the chain still holds at these points (margin
    0.17 on nk-s6, where it is 0, and 2 on conformal4, where it is 1), but
    the structure equation that report prints fails its verify-geometry
    gate: exit 1, and the report, with its usual keys, is still written."""
    argv = ["report", "--manifold", manifold, f"--point={point}", "--out", str(tmp_path / "good.json")]
    assert run_cli(argv) == 0
    transpose_christoffel_symbols(monkeypatch)
    argv[-1] = str(tmp_path / "bad.json")
    assert run_cli(argv) == 1
    good, bad = (json.loads((tmp_path / name).read_text()) for name in ("good.json", "bad.json"))
    assert list(bad) == list(good)
    assert all(bad["chain_ok"].values())
    assert bad["structure_residual"] > 1e-2 > good["structure_residual"]


@pytest.mark.parametrize("key", ["structure_residual", "phi_formula_mismatch", "n_route_mismatch"])
def test_report_fails_a_nan_cross_check(monkeypatch, tmp_path, key):
    """A NaN cross-check fails report with exit 1, and the report stays JSON."""
    original = cli.report_payload
    monkeypatch.setattr(cli, "report_payload", lambda *args: {**original(*args), key: np.nan})
    out = tmp_path / "report.json"
    assert run_cli(["report", "--manifold", "flat:3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report[key] is None
    assert all(report["chain_ok"].values())


def test_verify_geometry_fails_a_nan_residual(monkeypatch, tmp_path):
    """A NaN residual fails its check with exit 1, and the report stays JSON."""
    monkeypatch.setattr(cli, "structure_equation_residual", lambda *a, **k: np.full(2, np.nan))
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "flat:3", "--points", "2", "--rotations", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["checks"]["structure_equation"] == {"max_residual": None, "tolerance": 1e-6, "pass": False}
    assert report["all_pass"] is False


def test_verify_geometry_refuses_a_chunk_over_the_row_limit(monkeypatch, tmp_path, capsys):
    """min(points, GEOMETRY_CHUNK) x (1 + rotations) rows above the limit exit 2 before any sampling."""
    monkeypatch.setattr(cli, "GEOMETRY_ROW_LIMIT", 10)
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "flat:2", "--out", str(out)]
    assert run_cli(argv + ["--points", "2", "--rotations", "4"]) == 0  # 10 rows
    out.unlink()

    def refuse(*args):
        raise AssertionError("sampled a chunk over the limit")

    monkeypatch.setattr(catalog, "sample_points", refuse)
    for points, rotations, rows in [(2, 5, 12), (100, 0, 16), (1, 100000000, 100000001)]:
        assert run_cli(argv + ["--points", str(points), "--rotations", str(rotations)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err == (
            f"error: a chunk of {min(points, 16)} points x {rotations + 1} frames = {rows} rows "
            "exceeds the 10 guard\n"
        )
        assert not out.exists()


def test_verify_geometry_row_limit_shrinks_above_dim_8(monkeypatch, tmp_path, capsys):
    """Above dim 8 the row limit scales by (8 / dim)^3, since a row's memory
    grows as dim^3; flat:16 at 9616 rows would need about 15 GiB."""
    limit = cli.GEOMETRY_ROW_LIMIT
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--out", str(out)]
    monkeypatch.setattr(cli, "GEOMETRY_ROW_LIMIT", 8)
    # dim 10: 8 * 8^3 // 10^3 = 4 rows
    assert run_cli(argv + ["--manifold", "flat:5", "--points", "2", "--rotations", "1"]) == 0
    out.unlink()

    def refuse(*args):
        raise AssertionError("sampled a chunk over the limit")

    monkeypatch.setattr(catalog, "sample_points", refuse)
    assert run_cli(argv + ["--manifold", "flat:5", "--points", "1", "--rotations", "4"]) == 2
    assert capsys.readouterr().err == "error: a chunk of 1 points x 5 frames = 5 rows exceeds the 4 guard\n"
    monkeypatch.setattr(cli, "GEOMETRY_ROW_LIMIT", limit)
    assert run_cli(argv + ["--manifold", "flat:16", "--points", "16", "--rotations", "600"]) == 2
    assert capsys.readouterr().err == (
        "error: a chunk of 16 points x 601 frames = 9616 rows exceeds the 156 guard\n"
    )
    assert not out.exists()


def test_scan_refuses_a_grid_over_the_grid_limit(monkeypatch, tmp_path, capsys):
    """grid^dim above GRID_LIMIT exits 2 before a grid point is built."""
    out = tmp_path / "scan.txt"

    def refuse(*args):
        raise AssertionError("built a grid over the limit")

    monkeypatch.setattr(catalog, "grid_points", refuse)
    assert run_cli(["scan", "--manifold", "flat:40", "--grid", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid^dim = 1208925819614629174706176 exceeds the 10000000 guard\n"
    assert not out.exists()


def test_verify_geometry_refuses_points_over_the_grid_limit(monkeypatch, tmp_path, capsys):
    """More sample points than GRID_LIMIT exit 2 before any is drawn, as scan
    refuses grid^dim above it."""
    limit = cli.GRID_LIMIT
    out = tmp_path / "geo.json"
    argv = ["verify-geometry", "--manifold", "flat:2", "--rotations", "0", "--out", str(out)]
    monkeypatch.setattr(cli, "GRID_LIMIT", 3)
    assert run_cli(argv + ["--points", "3"]) == 0
    out.unlink()

    def refuse(*args):
        raise AssertionError("sampled more points than the limit")

    monkeypatch.setattr(catalog, "sample_points", refuse)
    assert run_cli(argv + ["--points", "4"]) == 2
    assert capsys.readouterr().err == "error: points = 4 exceeds the 3 guard\n"
    monkeypatch.setattr(cli, "GRID_LIMIT", limit)
    assert run_cli(argv + ["--points", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: points = 100000000 exceeds the 10000000 guard\n"
    assert not out.exists()


def test_defaults_and_ci_cases_fit_the_row_limit():
    """The defaults, every CI case, the benchmark's 4 x 4 and the README's --points 200 pass the guard."""
    parsed = cli.build_parser().parse_args(["verify-geometry", "--manifold", "nk-s6"])
    cases = [(parsed.points, parsed.rotations), (1, 1), (17, 2), (10, 0), (5, 3), (3, 1), (4, 4), (200, 4)]
    for points, rotations in cases:
        assert min(points, cli.GEOMETRY_CHUNK) * (1 + rotations) <= cli.GEOMETRY_ROW_LIMIT


def test_scan_rows_equal_single_point_reports():
    """Every nk-s6 grid-2 row of the scan table, and its route gap, is
    bitwise the report of its point computed alone."""
    entry = catalog.resolve("nk-s6")
    table, gap = cli.scan_rows(entry, 2)
    points = catalog.grid_points(entry.patch, 2)
    assert {len(column) for column in table.values()} == {len(gap), len(points)} == {64}
    for i, u in enumerate(points):
        rep = theorem_report(point_jet(entry.patch, u))
        assert [table[f"u{k + 1}"][i] for k in range(6)] == u.tolist()
        assert table["normN2"][i] == rep.normN2
        assert table["margin"][i] == rep.margin
        assert table["bound_paper"][i] == rep.bound_paper
        assert table["chain_ok"][i] == bool(rep.chain_ok.all_ok)
        assert table["nondegenerate"][i] == bool(rep.nondegenerate)
        assert gap[i] == rep.n_route_mismatch


def test_scan_rows_do_not_depend_on_the_chunk():
    """Rows on both sides of each chunk boundary equal the point computed alone."""
    entry = catalog.resolve("nk-s6")
    table, _ = cli.scan_rows(entry, 3)
    points = catalog.grid_points(entry.patch, 3)
    assert len(table["margin"]) == 729 > 2 * cli.SCAN_CHUNK
    edges = [k * cli.SCAN_CHUNK for k in range(1, 3)]
    for i in [0, len(points) - 1] + [e + d for e in edges for d in (-1, 0)]:
        rep = theorem_report(point_jet(entry.patch, points[i]))
        assert (table["normN2"][i], table["margin"][i], table["bound_paper"][i]) == (
            rep.normN2, rep.margin, rep.bound_paper
        ), f"row {i}"
        assert table["chain_ok"][i] == bool(rep.chain_ok.all_ok)
        assert table["nondegenerate"][i] == bool(rep.nondegenerate)


def test_scan_columns_are_the_coordinates_then_scan_columns(tmp_path):
    """The CSV header, the JSON row keys and the scan table's keys are one list."""
    columns = ["u1", "u2", "u3", "u4", *cli.SCAN_COLUMNS]
    entry = catalog.resolve("flat:2")
    assert list(cli.scan_rows(entry, 2)[0]) == columns
    csv_out, json_out = tmp_path / "scan.csv", tmp_path / "scan.json"
    assert run_cli(["scan", "--manifold", "flat:2", "--grid", "2", "--out", str(csv_out)]) == 0
    assert csv_out.read_text().splitlines()[0] == ",".join(columns)
    argv = ["scan", "--manifold", "flat:2", "--grid", "2", "--format", "json", "--out", str(json_out)]
    assert run_cli(argv) == 0
    rows = json.loads(json_out.read_text())["rows"]
    assert len(rows) == 16 and all(list(row) == columns for row in rows)


def csv_by_cell(table, summary):
    """The scan CSV formatted one cell at a time, with format(x, ".17g")."""

    def cell(value):
        return ("true" if value else "false") if isinstance(value, bool) else format(float(value), ".17g")

    rows = zip(*(column.tolist() for column in table.values()))
    lines = [",".join(table)] + [",".join(map(cell, row)) for row in rows]
    lines.append(
        "# summary min_margin=%s max_normN2=%s chain_violations=%d points=%d" % (
            format(summary["min_margin"], ".17g"), format(summary["max_normN2"], ".17g"),
            summary["chain_violations"], summary["points"],
        )
    )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "manifold, grid", [("nk-s6", 2), ("torus:eps=0.05,freq=1", 3), ("flat:4", 2)]
)
def test_scan_csv_equals_per_cell_format(tmp_path, manifold, grid):
    table, _ = cli.scan_rows(catalog.resolve(manifold), grid)
    summary = cli._scan_summary(table)
    text = cli.scan_csv(table, summary)
    assert text == csv_by_cell(table, summary)
    out = tmp_path / "scan.csv"
    assert run_cli(["scan", "--manifold", manifold, "--grid", str(grid), "--out", str(out)]) == 0
    assert out.read_text() == text


def test_scan_csv_writes_every_float_as_format_does():
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1, -1 / 3, 1e300]
    table = {f"u{i + 1}": np.roll(special, i) for i in range(4)}
    table.update(normN2=np.array(special[::-1]), margin=np.array(special), bound_paper=np.roll(special, 5))
    table.update(chain_ok=np.arange(10) % 3 == 0, nondegenerate=np.arange(10) % 2 == 1)
    summary = cli._scan_summary(table)
    text = cli.scan_csv(table, summary)
    assert text == csv_by_cell(table, summary)
    assert [line.split(",")[5] for line in text.splitlines()[1:-1]] == [
        "nan", "inf", "-inf", "-0", "0", "1e-300", "4.9406564584124654e-324",
        "0.10000000000000001", "-0.33333333333333331", "1.0000000000000001e+300",
    ]
    assert text.endswith("# summary min_margin=nan max_normN2=nan chain_violations=6 points=10\n")


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


@pytest.mark.parametrize("command", [["report"], ["scan", "--grid", "1"], ["verify-geometry", "--points", "1"]])
def test_ill_conditioned_metric_exits_2_naming_the_point(monkeypatch, capsys, command):
    """A positive definite metric of condition 1e13 passes validation and
    Gram-Schmidt, and adapt_frame's condition gate rejects it: exit 2 with one
    SingularMetric line."""
    entry = catalog.resolve("flat:2")
    metric = geometry.pointwise(lambda u: np.diag([1.0, 1e-13, 1.0, 1e-13]))
    doctored = dataclasses.replace(entry, patch=dataclasses.replace(entry.patch, metric_field=metric))
    monkeypatch.setattr(catalog, "resolve", lambda manifold_id: doctored)
    assert run_cli(command[:1] + ["--manifold", "flat:2"] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: SingularMetric: metric condition number exceeds 1e\+12 at \[[^]\n]*\]\n", captured.err)


def test_array_records_compare_by_identity():
    """The frozen records that hold arrays compare and hash by identity: the
    generated __eq__ would raise on two distinct instances (the truth value of
    an array is ambiguous) and the generated __hash__ on any (unhashable)."""
    entry = catalog.resolve("nk-s6")
    u = catalog.grid_points(entry.patch, 1)[0]
    jet = point_jet(entry.patch, u)
    rep = theorem_report(jet)
    records = [
        entry,
        entry.patch,
        jet,
        jet.frame,
        frame_field_jet(entry.patch, u),
        rep,
        rep.chain_ok,
        algebra.CheckResult(np.array([True, False]), np.array([None, "failed"], object)),
    ]
    assert [type(x).__name__ for x in records] == [
        "CatalogEntry", "ManifoldPatch", "PointJet", "AdaptedFrame",
        "FrameFieldJet", "TheoremReport", "ChainChecks", "CheckResult",
    ]
    for x in records:
        assert hash(x) == hash(x)
        assert x == x
        assert x != dataclasses.replace(x)
