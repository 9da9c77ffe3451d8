"""Spans around the program's public functions, installed from outside.

``install`` replaces each listed function by a wrapper in every loaded
``jacpairs`` module that holds it under some name (``glue`` does
``from .exact.roots import roots``, so rebinding the defining module alone
would miss that call).  Each call becomes a span: name, start, end, parent
span and case id.  Spans stay in memory until the process writes them out.
Self time is a span's duration minus the durations of its direct children.
Only modules the workload already imported are wrapped, so tracing imports
nothing new.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (layer, module, attribute); the span is named "<layer>.<attribute>".
TARGETS = (
    ("rings", "jacpairs.exact.rings", "ExtField.__init__"),
    ("roots", "jacpairs.exact.roots", "roots"),
    ("roots", "jacpairs.exact.roots", "irreducible_factors"),
    ("roots", "jacpairs.exact.roots", "splitting_degrees"),
    ("poly", "jacpairs.exact.poly", "gcd_field"),
    ("integers", "jacpairs.exact.integers", "is_prime"),
    ("igusa", "jacpairs.igusa.invariants", "igusa_vector"),
    ("igusa", "jacpairs.igusa.invariants", "weighted_equal"),
    ("igusa", "jacpairs.igusa.invariants", "r_polynomials"),
    ("igusa", "jacpairs.igusa.invariants", "j_polynomials_of_sextic_family"),
    ("families", "jacpairs.families", "family_sextic"),
    ("families", "jacpairs.families", "family_identity_check"),
    ("families", "jacpairs.families", "symbolic_kappa_check"),
    ("kernels", "jacpairs.kernels", "resultant_mod_p"),
    ("kernels", "jacpairs.kernels", "resultant_int_crt"),
    ("glue", "jacpairs.glue", "glue_p10"),
    ("glue", "jacpairs.glue", "verify_reconstruction"),
    ("distinct", "jacpairs.distinct", "charp_analysis"),
    ("distinct", "jacpairs.distinct", "full_scan"),
    ("distinct", "jacpairs.distinct", "prime_support"),
    ("obstruction", "jacpairs.obstruction", "verify_all"),
    ("ellcurve", "jacpairs.ellcurve", "exhaustive_split_scan"),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in TARGETS)


class Tracer:
    """In-memory span recorder.  ``case`` is set by the workload before
    each top-level call; spans record it."""

    def __init__(self):
        self.spans = []  # [name index, start, end, parent span index, case]
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self.case = None
        self.enabled = True
        self._stack = []  # [span index, child time]

    def wrap(self, index, fn):
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            span = [index, clock(), 0.0, parent, self.case]
            spans.append(span)
            frame = [len(spans) - 1, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                duration = span[2] - span[1]
                self_s[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def install(self):
        """Wrap every target whose module is loaded."""
        for index, (_, modname, attr) in enumerate(TARGETS):
            module = sys.modules.get(modname)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(index, getattr(cls, meth)))
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(index, original)
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "jacpairs" or name.startswith("jacpairs.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def layer_metrics(self, wall_s) -> dict:
        """Calls, self time and self time / wall_s per wrapped function."""
        out = {}
        for name, calls, self_s in zip(SPAN_NAMES, self.calls, self.self_s):
            if name == "rings.ExtField.__init__":
                keys = ("rings.ExtField.builds", "rings.ExtField.build_s", "rings.ExtField.build_share")
            else:
                keys = (f"{name}.calls", f"{name}.self_s", f"{name}.self_share")
            out.update(zip(keys, (calls, self_s, self_s / wall_s)))
        return out

    def write_spans(self, path):
        """One JSON array per span: name, start, end, parent, case."""
        with open(path, "w") as fh:
            for index, start, end, parent, case in self.spans:
                fh.write(json.dumps([SPAN_NAMES[index], start, end, parent, case]))
                fh.write("\n")
