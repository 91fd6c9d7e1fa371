"""Span tracing of the cknsharp layers, installed from outside the package.

Each traced function is replaced, in every module that holds a binding to
it, by a wrapper that records one span (name, start, end, parent, task id,
error flag).  Spans stay in memory until the run ends; self time is a span's
duration minus the time its direct children cover.  Nothing under ``src/``
is modified: the wrappers are module attribute swaps undone by ``remove``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (metric name, defining module, attribute, scope).  Scope "all" swaps every
# binding of the function object in any cknsharp module, including aliases
# imported by name and the package re-export; scope "local" swaps only the
# named module's binding, for SciPy entry points that several modules bind
# and that are reported per binding module.
TARGETS = (
    ("params.classify", "params", "classify", "all"),
    ("params.region_map", "params", "region_map", "all"),
    ("closed_forms.lt_constant", "closed_forms", "lt_constant", "all"),
    ("closed_forms.radial_interp_constant", "closed_forms", "radial_interp_constant", "all"),
    ("closed_forms.lt_identity_defect", "closed_forms", "lt_identity_defect", "all"),
    ("closed_forms.quad", "closed_forms", "quad", "local"),
    ("schrodinger.lowest_eigenpair", "schrodinger", "lowest_eigenpair", "all"),
    ("schrodinger.lt_ratio", "schrodinger", "lt_ratio", "all"),
    ("schrodinger.eigh_tridiagonal", "schrodinger", "eigh_tridiagonal", "local"),
    ("sphere.basis_matrix", "sphere", "basis_matrix", "all"),
    ("sphere.field_from_nodal", "sphere", "field_from_nodal", "all"),
    ("sphere.poincare_deficit", "sphere", "poincare_deficit", "all"),
    ("cylinder.minimize_quotient", "cylinder", "minimize_quotient", "all"),
    ("cylinder.rayleigh", "cylinder", "rayleigh", "all"),
    ("cylinder.dst", "cylinder", "dst", "local"),
    ("cylinder.brentq", "cylinder", "brentq", "local"),
    ("cylinder.quad", "cylinder", "quad", "local"),
    ("cylinder.proof_chain", "cylinder", "proof_chain", "all"),
    ("cylinder.second_variation_mode", "cylinder", "second_variation_mode", "all"),
    ("cylinder.fs_threshold", "cylinder", "fs_threshold", "all"),
    ("cylinder.eigenvalue_bound", "cylinder", "eigenvalue_bound", "all"),
    ("cylinder.sandwich_check", "cylinder", "sandwich_check", "all"),
    ("cylinder.emden_fowler_pushforward", "cylinder", "emden_fowler_pushforward", "all"),
    ("cli.main", "cli", "main", "all"),
    ("cli.quad", "cli", "quad", "local"),
)

# derived metrics: (name, unit, better)
DERIVED = (
    ("cli.import_s", "s", "lower"),
    ("cli.interp_s", "s", "lower"),
    ("cylinder.flow_iters", "count", "lower"),
    ("cylinder.useful_trial_ratio", "ratio", "higher"),
    ("cylinder.dst.bytes_computed", "B", "lower"),
    ("cylinder.minimize_quotient.per_bound", "calls/call", "lower"),
    ("sphere.basis_matrix.per_proof_chain", "calls/call", "lower"),
    ("schrodinger.lowest_eigenpair.per_fs_threshold", "calls/call", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# (ratio, child, ancestor): child calls made under ancestor, per ancestor call
_PER_CALL = (
    ("cylinder.minimize_quotient.per_bound", "cylinder.minimize_quotient", "cylinder.eigenvalue_bound"),
    ("sphere.basis_matrix.per_proof_chain", "sphere.basis_matrix", "cylinder.proof_chain"),
    ("schrodinger.lowest_eigenpair.per_fs_threshold", "schrodinger.lowest_eigenpair", "cylinder.fs_threshold"),
)


def per_layer_schema():
    """Every per-layer metric as (name, unit, better), in report order."""
    rows = []
    for metric, *_ in TARGETS:
        rows += [(f"{metric}.calls", "count", "lower"), (f"{metric}.self_s", "s", "lower"),
                 (f"{metric}.errors", "count", "lower")]
    return rows + list(DERIVED)


def _cknsharp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cknsharp" or name.startswith("cknsharp."))]


class Tracer:
    """In-memory span recorder; ``active`` gates recording, ``task`` tags spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.active = False
        self.dst_bytes = 0
        self.flow_iters = 0
        self._swaps = []
        self._originals = {}

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.task, error)
            if name == "cylinder.dst":
                tracer.dst_bytes += args[0].nbytes + result.nbytes
            elif name == "cylinder.minimize_quotient":
                tracer.flow_iters += result.iterations
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, task_id):
        """Record spans, tagged with task_id, for the duration of the block."""
        self.task, self.active = task_id, True
        try:
            yield
        finally:
            self.active = False

    def install(self):
        """Swap every binding of every traced function for its wrapper."""
        import cknsharp.cli  # noqa: F401  -- load every module that binds a target

        modules = _cknsharp_modules()
        for metric, modname, attr, scope in TARGETS:
            home = sys.modules[f"cknsharp.{modname}"]
            orig = getattr(home, attr)
            wrapper = self._wrap(metric, orig)
            holders = [home] if scope == "local" else modules
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._swaps.append((mod, key, orig))
                        setattr(mod, key, wrapper)
            if scope == "all":
                self._originals[metric] = orig

    def lost_bindings(self):
        """Module attributes still bound to an unwrapped traced function."""
        lost = []
        for mod in _cknsharp_modules():
            for key, value in vars(mod).items():
                for metric, orig in self._originals.items():
                    if value is orig:
                        lost.append(f"{mod.__name__}.{key} ({metric})")
        return lost

    def remove(self):
        for mod, key, orig in reversed(self._swaps):
            setattr(mod, key, orig)
        self._swaps.clear()

    def per_layer(self):
        """Aggregate calls, self time and errors per traced name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _task, _err in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        for idx, (name, start, end, _parent, _task, err) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
            errors[name] += err
        out = {}
        for metric, *_ in TARGETS:
            out[f"{metric}.calls"] = calls[metric]
            out[f"{metric}.self_s"] = self_s[metric]
            out[f"{metric}.errors"] = errors[metric]

        def under(idx, ancestor):
            parent = self.spans[idx][3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
            return False

        for ratio, child, ancestor in _PER_CALL:
            nested = sum(1 for i, s in enumerate(self.spans) if s[0] == child and under(i, ancestor))
            out[ratio] = nested / calls[ancestor] if calls[ancestor] else 0.0
        trials = sum(1 for i, s in enumerate(self.spans)
                     if s[0] == "cylinder.rayleigh" and under(i, "cylinder.minimize_quotient"))
        out["cylinder.flow_iters"] = self.flow_iters
        out["cylinder.useful_trial_ratio"] = self.flow_iters / trials if trials else 0.0
        out["cylinder.dst.bytes_computed"] = self.dst_bytes
        return out

    def write(self, path):
        """Write every span once, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "task", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
