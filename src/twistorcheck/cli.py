"""Batch front end: point reports, grid scans, and verification sweeps.

Exit codes follow one contract everywhere: 0 means every check passed,
1 means a gated check failed (the bug-detector outcome) and the output is
still written, 2 means an exception: the invocation or its inputs were
unusable.  Output files are byte-identical for
identical configuration and seed; floating point values are serialized with
17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import catalog
from .algebra import run_algebra_sweep
from .connection import (
    connection_coefficients,
    connection_derivative,
    curvature_forms,
    frame_field_jet,
    round_sphere_curvature_residual,
    sigma_part,
    structure_equation_residual,
)
from .errors import TwistorcheckError
from .geometry import point_jet, random_unitary_rotation
from .nijenhuis import ROUTE_REL_TOL
from .twistorform import chern_identity_residual, pfaffian_sign, phi_formula_gap, theorem_report

# Points one call may hold: a ``scan``'s grid^dim, a ``verify-geometry``'s --points.
GRID_LIMIT = 10**7
# Grid points certified per batch by ``scan``: a module constant, not a flag.
# A row is bitwise the report of its point computed alone, whatever its chunk.
SCAN_CHUNK = 256
# Sample points checked per batch by ``verify-geometry``, with all their
# rotations: a module constant, not a flag.  Traced peak memory (tracemalloc,
# second call after a warm-up, nk-s6, 4 rotations) grows by about 0.13 MiB
# per point of a chunk (2.11 MiB at 16, 8.42 MiB at 64), while 64 points
# would save only about a tenth of the time per point on nk-s6.
GEOMETRY_CHUNK = 16
# Rows (a point in one frame: the identity or a rotation) that one
# ``verify-geometry`` chunk may hold, min(points, GEOMETRY_CHUNK) x
# (1 + rotations), at dim <= 8; larger chunks are refused before anything is
# sampled, as ``scan`` refuses grid^dim > GRID_LIMIT.  Traced peak memory grows
# by about 0.05 dim^3 KiB a row (11 on nk-s6, 26 on flat:4: 109 and 251 MiB at
# the limit), so above dim 8 the limit scales by (8 / dim)^3.
GEOMETRY_ROW_LIMIT = 10_000

# The report columns of ``scan``, after the grid coordinates u1 ... u{2n}.
SCAN_COLUMNS = ("normN2", "margin", "bound_paper", "chain_ok", "nondegenerate")

# Per-check residual gates for verify-geometry, in report order; ``report`` gates
# its three printed cross-checks by the first three, and ``scan`` each point's
# Nijenhuis route gap by the third.  The complex-step frame route
# reads far inside them on the catalog (nk-s6: 1e-14 and below).  The last two
# checks run only on the unit round sphere.
GEOMETRY_TOLERANCES = {
    "structure_equation": 1e-6,
    "phi_formula_equivalence": 1e-10,
    "nijenhuis_route_equivalence": ROUTE_REL_TOL,
    "frame_invariance": 1e-8,
    "connection_route_equivalence": 1e-8,
    "curvature_identity": 1e-4,
    "chern_identity": 1e-4,
}


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


def report_payload(entry: catalog.CatalogEntry, point: np.ndarray) -> dict:
    frames = frame_field_jet(entry.patch, point)
    rep = theorem_report(frames.jet)
    structure = structure_equation_residual(frames)
    return {
        "manifold": entry.id,
        "point": [float(x) for x in point],
        "normN2": rep.normN2,
        "margin": rep.margin,
        "sumA2": rep.sumA2,
        "bound_quarterA": rep.bound_quarterA,
        "bound_paper": rep.bound_paper,
        "chain_ok": rep.chain_ok.to_dict(),
        "nondegenerate": rep.nondegenerate,
        "pfaffian_sign": pfaffian_sign(rep.F, rep.nondegenerate),
        "structure_residual": structure,
        "phi_formula_mismatch": phi_formula_gap(rep.sigma, rep.F),
        "n_route_mismatch": rep.n_route_mismatch,
    }


def cmd_report(args) -> int:
    """Print the report at one point; exit 1 if a chain link or a printed cross-check fails.

    Each cross-check is gated by the ``GEOMETRY_TOLERANCES`` entry that
    verify-geometry applies to it, and a NaN fails it.
    """
    entry = catalog.resolve(args.manifold)
    if args.point is None:
        point = catalog.grid_points(entry.patch, 1)[0]
    else:
        point = _parse_point(args.point, entry.patch.dim)
    payload = report_payload(entry, point)
    _emit(_to_json(payload) + "\n", args.out)
    checks_ok = (
        payload["structure_residual"] <= GEOMETRY_TOLERANCES["structure_equation"]
        and payload["phi_formula_mismatch"] <= GEOMETRY_TOLERANCES["phi_formula_equivalence"]
        and payload["n_route_mismatch"] <= GEOMETRY_TOLERANCES["nijenhuis_route_equivalence"]
    )
    return 0 if checks_ok and all(payload["chain_ok"].values()) else 1


def scan_rows(entry: catalog.CatalogEntry, grid: int) -> tuple:
    """The scan table and the Nijenhuis route gap at each grid point.

    The table holds one array per column, u1 ... u{2n} then ``SCAN_COLUMNS``,
    each with one value per grid point, row-major over the axes; the gap is
    the reports' ``n_route_mismatch``, in the same order, which the table
    does not print.
    """
    total = grid ** entry.patch.dim
    if total > GRID_LIMIT:
        raise ValueError(f"grid^dim = {total} exceeds the {GRID_LIMIT} guard")
    points = catalog.grid_points(entry.patch, grid)
    chunks = {name: [] for name in SCAN_COLUMNS}
    gaps = []
    for start in range(0, len(points), SCAN_CHUNK):
        rep = theorem_report(point_jet(entry.patch, points[start : start + SCAN_CHUNK]))
        for name, parts in chunks.items():
            parts.append(rep.chain_ok.all_ok if name == "chain_ok" else getattr(rep, name))
        gaps.append(rep.n_route_mismatch)
    table = {f"u{i + 1}": points[:, i] for i in range(entry.patch.dim)}
    table.update((name, np.concatenate(parts)) for name, parts in chunks.items())
    return table, np.concatenate(gaps)


def _scan_summary(table: dict) -> dict:
    return {
        "points": len(table["margin"]),
        "min_margin": float(table["margin"].min()),
        "max_normN2": float(table["normN2"].max()),
        "chain_violations": int(np.count_nonzero(~table["chain_ok"])),
    }


def scan_csv(table: dict, summary: dict) -> str:
    """The CSV text of a scan: the header, one row per grid point, then the summary line.

    Each row is one ``%`` template: a float cell reads ``%.17g``, the same
    text as ``format(x, ".17g")``, and a bool column is mapped to true/false
    once, as a whole column.
    """
    columns = table.values()
    row = ",".join("%s" if column.dtype == bool else "%.17g" for column in columns)
    cells = [
        np.where(column, "true", "false").tolist() if column.dtype == bool else column.tolist()
        for column in columns
    ]
    lines = [",".join(table)]
    lines += [row % values for values in zip(*cells)]
    lines.append(
        "# summary min_margin=%.17g max_normN2=%.17g chain_violations=%d points=%d"
        % (summary["min_margin"], summary["max_normN2"], summary["chain_violations"], summary["points"])
    )
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    """Write the scan table; exit 1 if a chain link or the Nijenhuis route check fails at a point.

    The route gap is gated by ``GEOMETRY_TOLERANCES["nijenhuis_route_equivalence"]``,
    and a NaN fails it; the stderr line counts the points that fail and names
    the first.
    """
    entry = catalog.resolve(args.manifold)
    started = time.perf_counter()
    table, gap = scan_rows(entry, args.grid)
    summary = _scan_summary(table)
    tolerance = GEOMETRY_TOLERANCES["nijenhuis_route_equivalence"]
    off_route = np.flatnonzero(~(gap <= tolerance))
    elapsed = time.perf_counter() - started
    if args.format == "csv":
        text = scan_csv(table, summary)
    else:
        rows = zip(*(column.tolist() for column in table.values()))
        json_rows = [dict(zip(table, row)) for row in rows]
        text = _to_json({"manifold": entry.id, "rows": json_rows, "summary": summary}) + "\n"
    _emit(text, args.out)
    routes = ""
    if len(off_route):
        first = off_route[0]
        point = [float(table[f"u{i + 1}"][first]) for i in range(entry.patch.dim)]
        routes = (
            f"{len(off_route)} points fail nijenhuis_route_equivalence at {tolerance:g}, "
            f"the first at {point} with gap {gap[first]:.3e}, "
        )
    # Wall time goes to stderr, never into the file: identical config and seed
    # must produce byte-identical output.
    print(
        f"scan {entry.id}: {summary['points']} points, "
        f"min margin {summary['min_margin']:.6g}, max |N|^2 {summary['max_normN2']:.6g}, "
        f"{summary['chain_violations']} chain violations, {routes}{elapsed:.2f}s",
        file=sys.stderr,
    )
    return 1 if summary["chain_violations"] or len(off_route) else 0


def cmd_verify_algebra(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",")]
    except ValueError:
        raise ValueError(f"n-list needs comma-separated integers, got {args.n_list!r}") from None
    report = run_algebra_sweep(n_list, args.samples, args.seed)
    _emit(_to_json(report) + "\n", args.out)
    return 0 if report["all_pass"] else 1


def _sigma_route_gap(w: np.ndarray, E: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Max |sigma part of the frame-differentiated table - sigma from nabla J|, per point."""
    return np.abs(sigma_part(connection_coefficients(w, E)) - sigma).max(axis=(-3, -2, -1))


def _relative_change(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    return np.abs(new - old) / np.maximum(1.0, np.abs(old))


def geometry_checks(entry: catalog.CatalogEntry, points: int, seed: int, rotations: int) -> dict:
    """Every verify-geometry check, each reported as its max over all points and rotations.

    The sample points are drawn first, then the rotations in point-major
    order, one chunk of ``GEOMETRY_CHUNK`` points at a time; every chunk is
    one batch through the jet, one report and the frame differentiation.
    """
    patch = entry.patch
    if points > GRID_LIMIT:
        raise ValueError(f"points = {points} exceeds the {GRID_LIMIT} guard")
    chunk = min(points, GEOMETRY_CHUNK)
    limit = GEOMETRY_ROW_LIMIT * 8**3 // max(patch.dim, 8) ** 3
    if chunk * (1 + rotations) > limit:
        raise ValueError(
            f"a chunk of {chunk} points x {1 + rotations} frames = {chunk * (1 + rotations)} rows "
            f"exceeds the {limit} guard"
        )
    rng = np.random.default_rng(seed)
    samples = catalog.sample_points(patch, points, rng)
    is_round = "unit_round_sphere" in patch.attributes
    residuals = {name: [] for name in GEOMETRY_TOLERANCES}
    for start in range(0, points, GEOMETRY_CHUNK):
        u = samples[start : start + GEOMETRY_CHUNK]
        # The point jet, and the frame-differentiated omega that the
        # structure equation, curvature and Chern read, the independent route
        # to the report's sigma.
        frames = frame_field_jet(patch, u)
        # (1 + rotations, points, 2n, 2n): the identity, then each point's
        # rotations, so row 0 of every report quantity is the jet's own frame.
        U = np.broadcast_to(np.eye(patch.dim), (1, len(u), patch.dim, patch.dim))
        if rotations:
            drawn = random_unitary_rotation(patch.n, rng, (len(u), rotations))
            U = np.concatenate([U, np.swapaxes(drawn, 0, 1)])
        rotated = frames.jet.rotated(U)
        rep = theorem_report(rotated)
        sign = pfaffian_sign(rep.F, rep.nondegenerate)
        # The rotated frame field is E U with U constant, so its slices are U^T w U.
        w_rotated = np.swapaxes(U, -1, -2)[..., None, :, :] @ frames.w @ U[..., None, :, :]
        found = {
            "structure_equation": structure_equation_residual(frames),
            "phi_formula_equivalence": phi_formula_gap(rep.sigma[0], rep.F[0]),
            "nijenhuis_route_equivalence": rep.n_route_mismatch,
            "frame_invariance": np.maximum.reduce([
                _relative_change(rep.normN2, rep.normN2[0]),
                _relative_change(rep.margin, rep.margin[0]),
                _relative_change(rep.det_F, rep.det_F[0]),
                np.where(sign == sign[0], 0.0, 1.0),
            ]),
            "connection_route_equivalence": _sigma_route_gap(w_rotated, rotated.frame.E, rep.sigma),
        }
        if is_round:
            dw = connection_derivative(patch, frames)
            found["curvature_identity"] = round_sphere_curvature_residual(curvature_forms(frames, dw))
            found["chern_identity"] = chern_identity_residual(patch, frames, dw)
        for name, values in found.items():
            residuals[name].append(np.ravel(values))
    checks = {}
    for name, tolerance in GEOMETRY_TOLERANCES.items():
        if residuals[name]:
            # np.max keeps a NaN, which then fails the check; Python max would drop it
            worst = float(np.max(np.concatenate(residuals[name])))
            checks[name] = {"max_residual": worst, "tolerance": tolerance, "pass": worst <= tolerance}
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
    report = geometry_checks(entry, args.points, args.seed, args.rotations)
    _emit(_to_json(report) + "\n", args.out)
    return 0 if report["all_pass"] else 1


def _config_argv(path: str) -> list:
    """The flags a JSON config file stands for: each entry ``key: value`` is ``--key=value``.

    Underscores in a key become dashes (``n_list`` is ``--n-list``).  The
    subcommand's parser then converts and checks these arguments as it does
    any other, so a key must be a bare flag name and a value a string or a
    number.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ValueError(f"cannot read config file: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    argv = []
    for key, value in values.items():
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_-]*", key) or key == "config":
            raise ValueError(f"config key {key!r} is not a flag name")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} needs a string or a number, got {json.dumps(value)}")
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def _checked(kind, ok, requirement: str):
    """Argparse type: convert the text with ``kind``, then reject it unless ``ok``."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    convert.__name__ = kind.__name__  # argparse reports "invalid int value: ..."
    return convert


AT_LEAST_ONE = _checked(int, lambda k: k >= 1, "must be >= 1")
NON_NEGATIVE = _checked(int, lambda k: k >= 0, "must be >= 0")

SHARED_FLAGS = {
    "--manifold": dict(required=True,
                       help="catalog id: flat:<n>, conformal4, nk-s6, torus:eps=<r>,freq=<k>"),
    "--seed": dict(type=NON_NEGATIVE, default=0,
                   help="seed for randomized sampling, >= 0 (default 0)"),
}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors reach ``main`` as one-line input errors (exit 2).

    A flag is known by its exact name only, on the command line as in a config file.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        # argparse quotes some arguments in its messages but not all (an
        # unrecognized one, a value a type check refused), so a newline in
        # one is escaped here
        raise ValueError(message.replace("\n", "\\n"))


def _add_common(sub: argparse.ArgumentParser, *flags: str, **help_of: str) -> None:
    """Add the named ``SHARED_FLAGS``, with ``help_of[dest]`` as a flag's own help, and --out and --config."""
    for flag in flags:
        spec = SHARED_FLAGS[flag]
        sub.add_argument(flag, **dict(spec, help=help_of.get(flag[2:].replace("-", "_"), spec["help"])))
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--config", default=None,
                     help="JSON file with flag values; explicit flags win")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Parsing leaves it unchanged: it holds no command function (``main`` picks
    the command by name at call time), and a ``--config`` file only adds
    arguments to the one call's argv.
    """
    parser = _Parser(
        prog="twistorcheck",
        description="Verify non-degeneracy bounds for the pulled-back twistor 2-form "
        "on almost Hermitian coordinate patches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full certificate at a single point (JSON)")
    _add_common(p, "--manifold")
    p.add_argument("--point", default=None,
                   help="comma-separated coordinates (default: domain center)")

    p = sub.add_parser("scan", help="grid scan with per-point rows and a summary")
    _add_common(p, "--manifold", "--seed",
                seed="accepted if >= 0 and ignored: the grid scan draws no random numbers")
    p.add_argument("--grid", type=AT_LEAST_ONE, default=3, help="points per axis, >= 1 (default 3)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser("verify-algebra", help="exact rational identity sweep")
    _add_common(p, "--seed")
    p.add_argument("--n-list", default="2,3", help="comma-separated half-dimensions (default 2,3)")
    p.add_argument("--samples", type=AT_LEAST_ONE, default=10000,
                   help="random samples per n, >= 1 (default 10000)")

    p = sub.add_parser("verify-geometry", help="residual checks on a catalog manifold")
    _add_common(p, "--manifold", "--seed")
    p.add_argument("--points", type=AT_LEAST_ONE, default=10,
                   help="number of sampled interior points, >= 1 (default 10)")
    p.add_argument("--rotations", type=NON_NEGATIVE, default=4,
                   help="random frame rotations per point, >= 0 (default 4)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            # The file's flags go right after the command's name, which is its
            # first occurrence: the top-level parser has no option.  argparse
            # keeps a flag's last occurrence, so an explicit flag wins.
            at = argv.index(args.command) + 1
            argv = argv[:at] + _config_argv(args.config) + argv[at:]
            try:
                args = build_parser().parse_args(argv)
            except ValueError as exc:
                raise ValueError(f"config file: {exc}") from None
        command = {
            "report": cmd_report,
            "scan": cmd_scan,
            "verify-algebra": cmd_verify_algebra,
            "verify-geometry": cmd_verify_geometry,
        }[args.command]
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwistorcheckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the only file a command opens is its output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a catalog id whose dimension cannot be allocated
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
