"""Batch front end: point reports, grid scans, and verification sweeps.

Exit codes follow one contract everywhere: 0 means every check passed,
1 means a mathematical check failed (the bug-detector outcome), 2 means the
invocation or its inputs were unusable.  Output files are byte-identical for
identical configuration and seed; floating point values are serialized with
17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import catalog
from .connection import (
    connection_derivative,
    curvature_forms,
    frame_field_jet,
    round_sphere_curvature_residual,
    sigma_part,
    structure_equation_residual,
)
from .errors import TwistorcheckError
from .geometry import DEFAULT_FD_STEP, point_jet, random_unitary_rotation
from .twistorform import chern_identity_residual, theorem_report

GRID_LIMIT = 10**7
# Grid points certified per batch by ``scan``: a module constant, not a flag.
# A row is bitwise the report of its point computed alone, whatever its chunk.
SCAN_CHUNK = 256
# Sample points checked per batch by ``verify-geometry``, with all their
# rotations: a module constant, not a flag.  Traced peak memory grows by about
# 0.38 MB per point of a chunk (6.2 MB at 16, 25 MB at 64), while 64 points
# would save only about a sixth of the time per point on nk-s6.
GEOMETRY_CHUNK = 16

# Per-check residual gates for verify-geometry; each matches the tolerance at
# which the corresponding identity is certified in the test suite.
STRUCTURE_EQ_TOL = 1e-6
CURVATURE_ID_TOL = 1e-4
CHERN_ID_TOL = 1e-4
PHI_FORMULA_TOL = 1e-10
N_ROUTE_TOL = 1e-6
FRAME_INVARIANCE_TOL = 1e-8
CONNECTION_ROUTE_TOL = 1e-8


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(_to_json(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(None if obj is None else bool(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity; a residual that is not finite reads null
        return _fmt_float(obj) if math.isfinite(obj) else "null"
    return json.dumps(obj)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"point needs {dim} comma-separated reals, got {text!r}") from None
    if len(values) != dim:
        raise ValueError(f"point needs {dim} comma-separated reals, got {len(values)}")
    return np.array(values)


def report_payload(entry: catalog.CatalogEntry, point: np.ndarray, fd_step: float, tol: float) -> dict:
    jet = point_jet(entry.patch, point, fd_step)
    rep = theorem_report(jet, tol=tol)
    structure = structure_equation_residual(frame_field_jet(entry.patch, jet.frame, fd_step))
    return {
        "manifold": entry.id,
        "point": [float(x) for x in rep.point],
        "normN2": rep.normN2,
        "margin": rep.margin,
        "sumA2": rep.sumA2,
        "bound_quarterA": rep.bound_quarterA,
        "bound_paper": rep.bound_paper,
        "chain_ok": rep.chain_ok.to_dict(),
        "nondegenerate": rep.nondegenerate,
        "pfaffian_sign": rep.pfaffian_sign,
        "structure_residual": structure,
        "phi_formula_mismatch": rep.phi_formula_mismatch,
        "n_route_mismatch": rep.n_route_mismatch,
    }


def cmd_report(args) -> int:
    entry = catalog.resolve(args.manifold)
    if args.point is None:
        point = catalog.grid_points(entry.patch, 1)[0]
    else:
        point = _parse_point(args.point, entry.patch.dim)
    payload = report_payload(entry, point, args.fd_step, args.tol)
    _emit(_to_json(payload) + "\n", args.out)
    return 0 if all(payload["chain_ok"].values()) else 1


def scan_rows(entry: catalog.CatalogEntry, grid: int, fd_step: float, tol: float):
    total = grid ** entry.patch.dim
    if total > GRID_LIMIT:
        raise ValueError(f"grid^dim = {total} exceeds the {GRID_LIMIT} guard")
    points = catalog.grid_points(entry.patch, grid)
    rows = []
    for start in range(0, len(points), SCAN_CHUNK):
        chunk = points[start : start + SCAN_CHUNK]
        rep = theorem_report(point_jet(entry.patch, chunk, fd_step), tol=tol)
        chain_ok = rep.chain_ok.all_ok
        for i, u in enumerate(chunk):
            rows.append(
                {
                    "point": [float(x) for x in u],
                    "normN2": float(rep.normN2[i]),
                    "margin": float(rep.margin[i]),
                    "bound_paper": float(rep.bound_paper[i]),
                    "chain_ok": bool(chain_ok[i]),
                    "nondegenerate": bool(rep.nondegenerate[i]),
                }
            )
    return rows


def _scan_summary(rows) -> dict:
    return {
        "points": len(rows),
        "min_margin": min(r["margin"] for r in rows),
        "max_normN2": max(r["normN2"] for r in rows),
        "chain_violations": sum(0 if r["chain_ok"] else 1 for r in rows),
    }


def _scan_csv(entry: catalog.CatalogEntry, rows, summary) -> str:
    dim = entry.patch.dim
    header = [f"u{i + 1}" for i in range(dim)] + [
        "normN2",
        "margin",
        "bound_paper",
        "chain_ok",
        "nondegenerate",
    ]
    lines = [",".join(header)]
    for r in rows:
        cells = [_fmt_float(x) for x in r["point"]]
        cells += [_fmt_float(r["normN2"]), _fmt_float(r["margin"]), _fmt_float(r["bound_paper"])]
        cells += [str(r["chain_ok"]).lower(), str(r["nondegenerate"]).lower()]
        lines.append(",".join(cells))
    lines.append(
        "# summary min_margin=%s max_normN2=%s chain_violations=%d points=%d"
        % (
            _fmt_float(summary["min_margin"]),
            _fmt_float(summary["max_normN2"]),
            summary["chain_violations"],
            summary["points"],
        )
    )
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    entry = catalog.resolve(args.manifold)
    started = time.perf_counter()
    rows = scan_rows(entry, args.grid, args.fd_step, args.tol)
    summary = _scan_summary(rows)
    elapsed = time.perf_counter() - started
    if args.format == "csv":
        text = _scan_csv(entry, rows, summary)
    else:
        flat_rows = []
        for r in rows:
            row = {f"u{i + 1}": x for i, x in enumerate(r["point"])}
            row.update({k: r[k] for k in ("normN2", "margin", "bound_paper", "chain_ok", "nondegenerate")})
            flat_rows.append(row)
        text = _to_json({"manifold": entry.id, "rows": flat_rows, "summary": summary}) + "\n"
    _emit(text, args.out)
    # Wall time goes to stderr, never into the file: identical config and seed
    # must produce byte-identical output.
    print(
        f"scan {entry.id}: {summary['points']} points, "
        f"min margin {summary['min_margin']:.6g}, max |N|^2 {summary['max_normN2']:.6g}, "
        f"{summary['chain_violations']} chain violations, {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 1 if summary["chain_violations"] else 0


def cmd_verify_algebra(args) -> int:
    from .algebra import run_algebra_sweep

    n_list = [int(tok) for tok in args.n_list.split(",")]
    report = run_algebra_sweep(n_list, args.samples, args.seed)
    _emit(_to_json(report) + "\n", args.out)
    return 0 if report["all_pass"] else 1


def _sigma_route_gap(w: np.ndarray, E: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Max |sigma part of the frame-differentiated table - sigma from nabla J|, per point."""
    return np.abs(sigma_part(w @ E[..., None, :, :]) - sigma).max(axis=(-3, -2, -1))


def _relative_change(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    return np.abs(new - old) / np.maximum(1.0, np.abs(old))


def geometry_checks(entry: catalog.CatalogEntry, points: int, seed: int, rotations: int, fd_step: float) -> dict:
    """Every verify-geometry check, each reported as its max over all points and rotations.

    The sample points are drawn first, then the rotations in point-major
    order, one chunk of ``GEOMETRY_CHUNK`` points at a time; every chunk is
    one batch through the jet, the reports and the frame differentiation.
    """
    patch = entry.patch
    rng = np.random.default_rng(seed)
    samples = catalog.sample_points(patch, points, rng)
    is_round = "unit_round_sphere" in patch.attributes
    checks = {
        "structure_equation": {"max_residual": 0.0, "tolerance": STRUCTURE_EQ_TOL},
        "phi_formula_equivalence": {"max_residual": 0.0, "tolerance": PHI_FORMULA_TOL},
        "nijenhuis_route_equivalence": {"max_residual": 0.0, "tolerance": N_ROUTE_TOL},
        "frame_invariance": {"max_residual": 0.0, "tolerance": FRAME_INVARIANCE_TOL},
        "connection_route_equivalence": {"max_residual": 0.0, "tolerance": CONNECTION_ROUTE_TOL},
    }
    if is_round:
        checks["curvature_identity"] = {"max_residual": 0.0, "tolerance": CURVATURE_ID_TOL}
        checks["chern_identity"] = {"max_residual": 0.0, "tolerance": CHERN_ID_TOL}

    def bump(name: str, values):
        # np.maximum keeps a NaN, which then fails the check; Python max would drop it
        slot = checks[name]
        slot["max_residual"] = float(np.maximum(slot["max_residual"], np.max(values)))

    for start in range(0, points, GEOMETRY_CHUNK):
        u = samples[start : start + GEOMETRY_CHUNK]
        jet = point_jet(patch, u, fd_step)
        frame = jet.frame
        # The frame-differentiated connection: the full omega the structure
        # equation needs, and the independent route to the reports' sigma.
        frames = frame_field_jet(patch, frame, fd_step)
        w = frames.w
        base = theorem_report(jet)
        bump("structure_equation", structure_equation_residual(frames))
        bump("phi_formula_equivalence", base.phi_formula_mismatch)
        bump("nijenhuis_route_equivalence", base.n_route_mismatch)
        bump("connection_route_equivalence", _sigma_route_gap(w, frame.E, base.sigma))
        if rotations:
            # (rotations, points, 2n, 2n): broadcasts against the chunk's batch of points
            U = np.swapaxes(random_unitary_rotation(patch.n, rng, (len(u), rotations)), 0, 1)
            rotated = jet.rotated(U)
            rep = theorem_report(rotated)
            # The rotated frame field is E U with U constant, so its slices are U^T w U.
            slices = np.moveaxis(w, -1, -3)
            w_rotated = np.swapaxes(U, -1, -2)[..., None, :, :] @ slices @ U[..., None, :, :]
            w_rotated = np.moveaxis(w_rotated, -3, -1)
            bump("connection_route_equivalence", _sigma_route_gap(w_rotated, rotated.frame.E, rep.sigma))
            bump("frame_invariance", np.maximum.reduce([
                _relative_change(rep.normN2, base.normN2),
                _relative_change(rep.margin, base.margin),
                _relative_change(rep.det_F, base.det_F),
                np.where(rep.pfaffian_sign == base.pfaffian_sign, 0.0, 1.0),
            ]))
        if is_round:
            # The d omega block differentiates the slices at the default step,
            # which ``frames`` holds when fd_step is the default.
            if fd_step != DEFAULT_FD_STEP:
                frames = frame_field_jet(patch, frame)
            dw = connection_derivative(patch, frames)
            bump("curvature_identity", round_sphere_curvature_residual(curvature_forms(frames, dw)))
            bump("chern_identity", chern_identity_residual(patch, frames, dw))
    for slot in checks.values():
        slot["pass"] = slot["max_residual"] <= slot["tolerance"]
    return {
        "manifold": entry.id,
        "points": points,
        "rotations": rotations,
        "seed": seed,
        "checks": checks,
        "all_pass": all(slot["pass"] for slot in checks.values()),
    }


def cmd_verify_geometry(args) -> int:
    entry = catalog.resolve(args.manifold)
    report = geometry_checks(entry, args.points, args.seed, args.rotations, args.fd_step)
    _emit(_to_json(report) + "\n", args.out)
    return 0 if report["all_pass"] else 1


def _config_value(action: argparse.Action, key: str, value):
    """Convert one config value the way the parser converts the flag's text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} needs a string or a number, got {json.dumps(value)}")
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None
    except ValueError:
        kind = action.type.__name__
        raise ValueError(f"config key {key!r}: invalid {kind} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        allowed = ", ".join(action.choices)
        raise ValueError(f"config key {key!r}: {value!r} is not one of {allowed}")
    return converted


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill flag defaults from a JSON config file; explicit flags win.

    Keys are flag names of the subcommand (``n-list`` or ``n_list``); each value
    goes through the flag's type and choices, as on the command line.
    """
    if not args.config:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {
        a.dest: a for a in args._parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValueError(f"unknown config key {key!r}")
        converted = _config_value(actions[attr], key, value)
        if attr not in args._explicit:
            setattr(args, attr, converted)


class _TrackExplicit(argparse.Action):
    """Record which flags were given explicitly so config files cannot override them."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, "_explicit", None) is None:
            namespace._explicit = set()
        namespace._explicit.add(self.dest)
        setattr(namespace, self.dest, values)


def _checked(kind, ok, requirement: str):
    """Argparse type: convert the text with ``kind``, then reject it unless ``ok``."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    convert.__name__ = kind.__name__  # argparse reports "invalid int value: ..."
    return convert


FD_STEP = _checked(float, lambda h: 1e-8 < h < 1e-2, "must lie in (1e-8, 1e-2)")
TOLERANCE = _checked(float, lambda t: math.isfinite(t) and t > 0.0, "must be finite and > 0")
AT_LEAST_ONE = _checked(int, lambda k: k >= 1, "must be >= 1")
NON_NEGATIVE = _checked(int, lambda k: k >= 0, "must be >= 0")

SHARED_FLAGS = {
    "--manifold": dict(required=True,
                       help="catalog id: flat:<n>, conformal4, nk-s6, torus:eps=<r>,freq=<k>"),
    "--fd-step": dict(type=FD_STEP, default=DEFAULT_FD_STEP,
                      help="finite difference step in (1e-8, 1e-2) (default 1e-5)"),
    "--tol": dict(type=TOLERANCE, default=1e-6,
                  help="tolerance for the inequality chain, finite and > 0 (default 1e-6)"),
    "--seed": dict(type=int, default=0, help="seed for randomized sampling (default 0)"),
}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors reach ``main`` as one-line input errors (exit 2)."""

    def error(self, message):
        raise ValueError(message)


def _add_common(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named ``SHARED_FLAGS`` and the --out and --config flags to a subcommand."""
    sub.set_defaults(_parser=sub)  # lets config keys be checked against this subcommand's flags
    for flag in flags:
        sub.add_argument(flag, action=_TrackExplicit, **SHARED_FLAGS[flag])
    sub.add_argument("--out", default=None, action=_TrackExplicit,
                     help="output path (default: stdout)")
    sub.add_argument("--config", default=None, action=_TrackExplicit,
                     help="JSON file with flag values; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistorcheck",
        description="Verify non-degeneracy bounds for the pulled-back twistor 2-form "
        "on almost Hermitian coordinate patches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full certificate at a single point (JSON)")
    _add_common(p, "--manifold", "--fd-step", "--tol")
    p.add_argument("--point", default=None, action=_TrackExplicit,
                   help="comma-separated coordinates (default: domain center)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("scan", help="grid scan with per-point rows and a summary")
    _add_common(p, "--manifold", "--fd-step", "--tol")
    p.add_argument("--seed", type=int, default=0, action=_TrackExplicit,
                   help="accepted and ignored: the grid scan draws no random numbers")
    p.add_argument("--grid", type=AT_LEAST_ONE, default=3, action=_TrackExplicit,
                   help="points per axis, >= 1 (default 3)")
    p.add_argument("--format", choices=("json", "csv"), default="csv", action=_TrackExplicit)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-algebra", help="exact rational identity sweep")
    _add_common(p, "--seed")
    p.add_argument("--n-list", default="2,3", action=_TrackExplicit,
                   help="comma-separated half-dimensions (default 2,3)")
    p.add_argument("--samples", type=AT_LEAST_ONE, default=10000, action=_TrackExplicit,
                   help="random samples per n, >= 1 (default 10000)")
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("verify-geometry", help="residual checks on a catalog manifold")
    _add_common(p, "--manifold", "--fd-step", "--seed")
    p.add_argument("--points", type=AT_LEAST_ONE, default=10, action=_TrackExplicit,
                   help="number of sampled interior points, >= 1 (default 10)")
    p.add_argument("--rotations", type=NON_NEGATIVE, default=4, action=_TrackExplicit,
                   help="random frame rotations per point, >= 0 (default 4)")
    p.set_defaults(func=cmd_verify_geometry)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "_explicit", None) is None:
            args._explicit = set()
        _apply_config_file(args)
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwistorcheckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the only file a command opens is its output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
