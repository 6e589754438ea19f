"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the ``twistorcheck`` modules without
editing any source file.  A function imported by name lives in several module
namespaces (``geometry.adapt_frame`` is also ``connection.adapt_frame``,
``twistorform.adapt_frame``, ...); every namespace that holds the original
function object gets the same wrapper, so no call path escapes the trace.
The ``metric_field`` / ``j_field`` callables of a patch are wrapped on the
catalog entry that ``catalog.resolve`` returns.

Each call records one span ``(name, start, end, parent)`` in memory.  Spans
are folded into per-layer metrics only after the wrappers are removed:

* a span's self time is its duration minus the part of it that its child
  spans cover;
* a layer's ``_ms`` metric is the summed self time of the functions mapped to
  it in ``LAYER_OF``, wherever they are called from;
* a count metric is the exact number of calls of the function in ``COUNT_OF``.

A function that is not listed is not wrapped; its time is self time of the
listed function that called it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "twistorcheck"

# Wrapped function -> layer time metric.  Keys are "<module>.<attribute>" with
# the module relative to the package; "patch.*" are the field callables of
# the resolved catalog entry.
LAYER_OF = {
    "patch.metric_field": "catalog.field_ms",
    "patch.j_field": "catalog.field_ms",
    "patch.metric_jet": "catalog.field_ms",
    "patch.j_jet": "catalog.field_ms",
    "geometry.adapt_frame": "geometry.frame_ms",
    "geometry.evaluate_frame_field": "geometry.frame_ms",
    "geometry.rotate_frame": "geometry.frame_ms",
    "geometry.random_unitary_rotation": "geometry.frame_ms",
    "geometry.field_derivative": "geometry.fd_ms",
    "geometry.christoffel": "geometry.christoffel_ms",
    "connection.connection_coefficients": "connection.table_ms",
    "connection.coordinate_connection": "connection.table_ms",
    "connection.structure_equation_residual": "connection.structure_ms",
    "connection.curvature_forms": "connection.curvature_ms",
    "connection.round_sphere_curvature_residual": "connection.curvature_ms",
    "nijenhuis.nijenhuis_tensor": "nijenhuis.tensor_ms",
    "nijenhuis.nijenhuis_coordinates": "nijenhuis.tensor_ms",
    "nijenhuis.frame_components_from_coordinates": "nijenhuis.tensor_ms",
    "nijenhuis.nijenhuis_frame": "nijenhuis.tensor_ms",
    "nijenhuis.nijenhuis_norm": "nijenhuis.tensor_ms",
    "nijenhuis.norm_from_coefficients": "nijenhuis.tensor_ms",
    "twistorform.alpha_beta": "twistorform.phi_ms",
    "twistorform.structure_coefficients": "twistorform.phi_ms",
    "twistorform.phi_matrix": "twistorform.phi_ms",
    "twistorform.phi_via_bundle_formula": "twistorform.phi_ms",
    "twistorform.margin": "twistorform.classify_ms",
    "twistorform.nondegenerate": "twistorform.classify_ms",
    "twistorform.theorem_report": "twistorform.report_ms",
    "twistorform.chern_identity_residual": "twistorform.chern_ms",
    "algebra.random_fraction": "algebra.draw_ms",
    "algebra.RationalCTensor.random": "algebra.draw_ms",
    "algebra.RationalSkewMatrix.random": "algebra.draw_ms",
    "algebra.check_identity_c1": "algebra.c1_ms",
    "algebra.check_case1_inequality": "algebra.case1_ms",
    "algebra.check_case2_identities": "algebra.case2_ms",
    "algebra.skew_decompose": "algebra.skew_ms",
    "algebra.commutes_with_j0": "algebra.skew_ms",
    "algebra.anticommutes_with_j0": "algebra.skew_ms",
    "algebra.trace_pairing": "algebra.skew_ms",
    "algebra.canonical_j1": "algebra.j1_ms",
    "algebra.check_wedge_identity": "algebra.wedge_ms",
    "algebra.run_algebra_sweep": "algebra.sweep_ms",
    "cli.main": "cli.self_ms",
    "cli.build_parser": "cli.self_ms",
    "cli.cmd_report": "cli.self_ms",
    "cli.cmd_scan": "cli.self_ms",
    "cli.cmd_verify_algebra": "cli.self_ms",
    "cli.cmd_verify_geometry": "cli.self_ms",
    "cli.report_payload": "cli.self_ms",
    "cli.scan_rows": "cli.self_ms",
    "cli.geometry_checks": "cli.self_ms",
}

# Wrapped function -> exact call-count metric.
COUNT_OF = {
    "patch.metric_field": "catalog.metric_evals",
    "patch.j_field": "catalog.j_evals",
    "geometry.adapt_frame": "geometry.frames",
    "geometry.field_derivative": "geometry.fd_calls",
}

TIME_METRICS = tuple(dict.fromkeys(LAYER_OF.values()))
COUNT_METRICS = tuple(dict.fromkeys(COUNT_OF.values()))
PATCH_FIELDS = ("metric_field", "j_field", "metric_jet", "j_jet")
MARK = "_perfbench_span"


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its children.

    ``spans`` are ``(name, start, end, parent)`` tuples in start order, with
    ``parent`` the index of the enclosing span or -1.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)
    for _, start, end, parent in spans:
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        lo = max(start, p_start, reach[parent])
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(reach[parent], hi)
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def fold(spans) -> dict:
    """Layer metrics of one traced invocation: self milliseconds and call counts."""
    out = {name: 0.0 for name in TIME_METRICS}
    for (name, *_), own in zip(spans, self_times(spans)):
        out[LAYER_OF[name]] += 1e3 * own
    calls = Counter(name for name, *_ in spans)
    for fn, metric in COUNT_OF.items():
        out[metric] = calls[fn]
    return out


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Recorder:
    """Holds spans in memory; ``installed()`` wraps the package for one block."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new, modules: list) -> None:
        """Replace ``original`` under every name in every module that holds it."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, name, new)

    def _install_function(self, key: str, modules: list) -> None:
        module_name, attr = key.split(".", 1)
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        if "." in attr:  # a classmethod such as RationalCTensor.random
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            func = cls.__dict__[meth].__func__
            self._replace(cls, meth, classmethod(self.wrap(key, func)))
            return
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(key, original), modules)

    def _install_resolve(self, modules: list) -> None:
        catalog = importlib.import_module(f"{PACKAGE}.catalog")
        original = catalog.resolve

        def resolve(manifold_id):
            entry = original(manifold_id)
            patch = entry.patch
            fields = {
                f: self.wrap(f"patch.{f}", getattr(patch, f))
                for f in PATCH_FIELDS
                if getattr(patch, f) is not None
            }
            return dataclasses.replace(entry, patch=dataclasses.replace(patch, **fields))

        setattr(resolve, MARK, "catalog.resolve")
        self._replace_everywhere(original, resolve, modules)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder is already installed")
        # Import every traced module before wrapping anything: a module first
        # imported while wrappers are in place would bind them by name.
        for key in LAYER_OF:
            if not key.startswith("patch."):
                importlib.import_module(f"{PACKAGE}.{key.split('.', 1)[0]}")
        modules = _package_modules()
        self._install_resolve(modules)
        for key in LAYER_OF:
            if not key.startswith("patch."):
                self._install_function(key, modules)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans

    @staticmethod
    def dump(spans, path) -> None:
        """Write spans as JSON records, once, after the traced run."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans], fh
            )


def leftover_wrappers() -> list:
    """Names of package attributes that still hold a recorder wrapper."""
    found = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            targets = [value]
            if isinstance(value, type):
                targets += [getattr(v, "__func__", v) for v in vars(value).values()]
            if any(hasattr(t, MARK) for t in targets):
                found.append(f"{mod.__name__}.{name}")
    return found
