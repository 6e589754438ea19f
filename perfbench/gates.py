"""Correctness gates applied to the output file of every benchmark invocation.

Each gate parses the bytes one CLI invocation wrote, raises ``GateError`` when
the output breaks a promise of the CLI, and otherwise returns ``ref_err``:
the output's distance from a closed-form reference (0 for the exact sweep,
whose checks admit no error).
"""

from __future__ import annotations

import json
import re


class GateError(Exception):
    """An invocation's output is wrong."""


# Unit round six-sphere with the cross-product J: |N|^2 is the constant 384 and
# the pulled-back 2-form vanishes, so the margin is 0 (README, "Benchmark
# catalog").  The ceilings are the catalog's own constancy expectation for
# |N|^2 and the zero-form floor of twistorform for entries of phi.
S6_NORMN2 = 384.0
S6_NORMN2_REL_CEILING = 1e-4
S6_MARGIN_CEILING = 1e-8

GEOMETRY_CHECKS = (
    "structure_equation",
    "phi_formula_equivalence",
    "nijenhuis_route_equivalence",
    "frame_invariance",
    "curvature_identity",
    "chern_identity",
)

_SUMMARY = re.compile(
    r"^# summary min_margin=(\S+) max_normN2=(\S+) chain_violations=(\d+) points=(\d+)$"
)


def check_scan(data: bytes, points: int) -> float:
    """Gate a ``scan --manifold nk-s6 --format csv`` output with ``points`` rows."""
    lines = data.decode("utf-8").splitlines()
    if len(lines) < 2:
        raise GateError("scan output has no rows")
    header = lines[0].split(",")
    try:
        i_norm, i_margin, i_chain = (header.index(c) for c in ("normN2", "margin", "chain_ok"))
    except ValueError:
        raise GateError(f"scan header lacks a column: {lines[0]!r}") from None
    match = _SUMMARY.match(lines[-1])
    if match is None:
        raise GateError(f"scan summary line is malformed: {lines[-1]!r}")
    if int(match.group(4)) != points:
        raise GateError(f"summary reports {match.group(4)} points, expected {points}")
    if int(match.group(3)) != 0:
        raise GateError(f"summary reports {match.group(3)} chain violations")
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != points:
        raise GateError(f"{len(rows)} rows, expected {points}")
    ref_err = 0.0
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise GateError(f"row {k} has {len(row)} cells, expected {len(header)}")
        if row[i_chain] != "true":
            raise GateError(f"row {k} has chain_ok={row[i_chain]}")
        norm_dev = abs(float(row[i_norm]) / S6_NORMN2 - 1.0)
        margin = abs(float(row[i_margin]))
        if norm_dev > S6_NORMN2_REL_CEILING or margin > S6_MARGIN_CEILING:
            raise GateError(f"row {k} is off the reference: |N|^2 dev {norm_dev:.3g}, |margin| {margin:.3g}")
        ref_err = max(ref_err, norm_dev, margin)
    return ref_err


def check_geometry(data: bytes, points: int) -> float:
    """Gate a ``verify-geometry --manifold nk-s6`` report over ``points`` points."""
    report = _load(data)
    if report.get("all_pass") is not True:
        raise GateError("geometry report is not all_pass")
    if report.get("points") != points:
        raise GateError(f"geometry report covers {report.get('points')} points, expected {points}")
    checks = report.get("checks", {})
    missing = [name for name in GEOMETRY_CHECKS if name not in checks]
    if missing:
        raise GateError(f"geometry report lacks {', '.join(missing)}")
    ref_err = 0.0
    for name in GEOMETRY_CHECKS:
        slot = checks[name]
        ratio = slot["max_residual"] / slot["tolerance"]
        if slot.get("pass") is not True or not ratio <= 1.0:
            raise GateError(f"geometry check {name} failed: residual/tolerance {ratio:.3g}")
        ref_err = max(ref_err, ratio)
    return ref_err


def expected_algebra_passes(n_list, samples: int) -> dict:
    """Pass count of every exact check after ``samples`` draws per n."""
    expected = {}
    for n in n_list:
        names = ["identity_c1", "case1_inequality"] if n >= 3 else ["case2_identities"]
        names += ["skew_decompose", "canonical_j1_square", "wedge_identity"]
        for name in names:
            expected[name] = expected.get(name, 0) + samples
    return expected


def check_algebra(data: bytes, n_list, samples: int) -> float:
    """Gate a ``verify-algebra`` report: every exact check passes on every sample."""
    report = _load(data)
    if report.get("all_pass") is not True:
        raise GateError("algebra report is not all_pass")
    if report.get("failures"):
        raise GateError(f"algebra report lists {len(report['failures'])} failures")
    checks = report.get("checks", {})
    expected = expected_algebra_passes(n_list, samples)
    if set(checks) != set(expected):
        raise GateError(f"algebra checks {sorted(checks)} differ from {sorted(expected)}")
    for name, count in expected.items():
        if checks[name] != {"pass": count, "fail": 0}:
            raise GateError(f"algebra check {name} reports {checks[name]}, expected {count} passes")
    return 0.0


def _load(data: bytes) -> dict:
    try:
        report = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GateError(f"output is not JSON: {exc}") from None
    if not isinstance(report, dict):
        raise GateError("output is not a JSON object")
    return report
