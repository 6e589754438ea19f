"""Tests of the benchmark's own machinery: span arithmetic, gates, wrapper removal.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gates  # noqa: E402
import spans  # noqa: E402
from twistorcheck import cli  # noqa: E402


def run_cli(tmp_path: Path, argv: list) -> bytes:
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


# --- self time -----------------------------------------------------------------

def test_self_time_of_a_span_tree():
    tree = [
        ("cli.main", 0.0, 10.0, -1),
        ("twistorform.theorem_report", 1.0, 6.0, 0),
        ("geometry.adapt_frame", 2.0, 3.0, 1),
        ("patch.metric_field", 2.5, 2.75, 2),
        ("geometry.adapt_frame", 4.0, 5.0, 1),
        ("nijenhuis.nijenhuis_tensor", 7.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 0.75, 0.25, 1.0, 2.0])
    layer = spans.fold(tree)
    assert layer["cli.self_ms"] == pytest.approx(3000.0)
    assert layer["twistorform.report_ms"] == pytest.approx(3000.0)
    assert layer["geometry.frame_ms"] == pytest.approx(1750.0)
    assert layer["catalog.field_ms"] == pytest.approx(250.0)
    assert layer["nijenhuis.tensor_ms"] == pytest.approx(2000.0)
    assert layer["geometry.frames"] == 2
    assert layer["catalog.metric_evals"] == 1
    assert layer["catalog.j_evals"] == 0
    # every second of the root is attributed to exactly one span
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [("cli.main", 0.0, 10.0, -1), ("cli.scan_rows", 1.0, 5.0, 0), ("cli.cmd_scan", 3.0, 7.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


# --- correctness gates -----------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    return {
        "scan": run_cli(tmp, ["scan", "--manifold", "nk-s6", "--grid", "2", "--format", "csv"]),
        "geometry": run_cli(tmp, ["verify-geometry", "--manifold", "nk-s6", "--points", "1",
                                  "--rotations", "1"]),
        "algebra": run_cli(tmp, ["verify-algebra", "--n-list", "2,3", "--samples", "5"]),
    }


def test_gates_accept_seed_outputs(outputs):
    assert 0.0 < gates.check_scan(outputs["scan"], 64) < 1e-8
    assert 0.0 < gates.check_geometry(outputs["geometry"], 1) <= 1.0
    assert gates.check_algebra(outputs["algebra"], (2, 3), 5) == 0.0


def test_scan_gate_rejects_one_flipped_chain_ok(outputs):
    lines = outputs["scan"].decode().splitlines(keepends=True)
    lines[5] = lines[5].replace(",true,", ",false,", 1)
    with pytest.raises(gates.GateError, match="chain_ok"):
        gates.check_scan("".join(lines).encode(), 64)


def test_scan_gate_rejects_wrong_point_count(outputs):
    with pytest.raises(gates.GateError, match="points"):
        gates.check_scan(outputs["scan"], 729)


def test_algebra_gate_rejects_one_failure(outputs):
    report = json.loads(outputs["algebra"])
    report["checks"]["wedge_identity"] = {"pass": 9, "fail": 1}
    report["failures"] = [{"check": "wedge_identity", "n": 3, "sample": 4, "detail": "lhs != rhs"}]
    report["all_pass"] = False
    with pytest.raises(gates.GateError):
        gates.check_algebra(json.dumps(report).encode(), (2, 3), 5)
    # a failure hidden only in the counts is caught too
    report["failures"] = []
    report["all_pass"] = True
    with pytest.raises(gates.GateError, match="wedge_identity"):
        gates.check_algebra(json.dumps(report).encode(), (2, 3), 5)


def test_geometry_gate_rejects_missing_chern_identity(outputs):
    report = json.loads(outputs["geometry"])
    del report["checks"]["chern_identity"]
    with pytest.raises(gates.GateError, match="chern_identity"):
        gates.check_geometry(json.dumps(report).encode(), 1)


# --- wrapper removal -------------------------------------------------------------

def _package_attributes() -> dict:
    found = {}
    for mod in spans._package_modules():
        for name, value in vars(mod).items():
            found[(mod.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    found[(mod.__name__, name, attr)] = member
    return found


def test_traced_run_removes_every_wrapper(tmp_path):
    before = _package_attributes()
    recorder = spans.Recorder()
    with recorder.installed():
        assert spans.leftover_wrappers()
        run_cli(tmp_path, ["scan", "--manifold", "nk-s6", "--grid", "1"])
    recorded = recorder.take()
    assert spans.leftover_wrappers() == []
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert recorded[0][0] == "cli.main" and recorded[0][3] == -1
    names = {name for name, *_ in recorded}
    assert {"patch.metric_field", "patch.j_field", "geometry.adapt_frame"} <= names


def test_wrappers_are_removed_when_the_traced_call_raises():
    recorder = spans.Recorder()
    with pytest.raises(ZeroDivisionError):
        with recorder.installed():
            1 / 0
    assert spans.leftover_wrappers() == []


def test_modules_imported_by_the_recorder_keep_no_wrapper():
    # cli is not imported yet in the child, so installing the recorder is what
    # imports it; it must still end up with the original functions.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import spans, twistorcheck.catalog\n"
        "assert 'twistorcheck.cli' not in sys.modules\n"
        "with spans.Recorder().installed(): pass\n"
        "print(spans.leftover_wrappers())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(BENCH_DIR.parent / "src")],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
