"""Span recorder that times calls into twistedmaps from outside the package.

`Tracer.install()` replaces public functions at the module attributes their
callers look up, so no file of the package changes.  Every call becomes a
span (name, start, end, parent span, run id) kept in memory; self time is a
span's duration minus the time its direct child spans cover.

Two leaf functions run hundreds of thousands of times per workload
(`conjugate` and `TwElem.__mul__`).  Their calls are rolled up into
(calls, total, self) per run instead of one record each, which keeps the
recorder's memory and the trace file small; they still count as children of
the span that called them.
"""

import functools
import json
import time

# Attributes wrapped in the oracle namespace, where the oracle and the CLI
# look them up at call time; the imported ones are named by their home layer.
ORACLE_STAGES = ("enumerate_orbits", "orbit_records", "fused_records",
                 "galois_fuse", "closure_order", "generated_level",
                 "is_reflexible", "self_duality")
ORACLE_IMPORTS = {"order": "twisted_group", "conjugate": "twisted_group",
                  "canonical_form": "canonical",
                  "stabilizer_elements": "canonical"}
ROLLED = {"twisted_group.conjugate", "twisted_group.TwElem.__mul__"}


class Tracer:
    def __init__(self):
        self.run = 0
        self.spans = []     # (name, start, end, parent, run, self_s)
        self.agg = {}       # (name, run) -> [calls, total_s, self_s]
        self.outer = {}     # layer -> time in spans not nested in that layer
        self.top = [0.0]    # time covered by spans with no traced parent
        self._stack = []

    def wrap(self, name, layer, fn):
        rolled = name in ROLLED
        stack, spans, agg, outer, top = (self._stack, self.spans, self.agg,
                                         self.outer, self.top)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if rolled:
                sid = parent[1] if parent else -1
            else:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, sid, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                self_s = d - frame[0]
                run = tracer.run
                a = agg.get((name, run))
                if a is None:
                    a = agg[(name, run)] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += d
                a[2] += self_s
                if parent is None:
                    top[0] += d
                else:
                    parent[0] += d
                if parent is None or parent[2] != layer:
                    outer[layer] = outer.get(layer, 0.0) + d
                if not rolled:
                    spans[sid] = (name, t0, t1,
                                  parent[1] if parent else -1, run, self_s)

        return traced

    def _wrap_attr(self, module, attr, name, layer):
        # a function a later version drops is skipped; its metrics read 0
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, self.wrap(name, layer, fn))

    def install(self):
        from twistedmaps import census, oracle, twisted_group
        for attr in ORACLE_STAGES:
            self._wrap_attr(oracle, attr, "oracle." + attr, "oracle")
        for attr, layer in ORACLE_IMPORTS.items():
            self._wrap_attr(oracle, attr, "%s.%s" % (layer, attr), layer)
        twisted_group.TwElem.__mul__ = self.wrap(
            "twisted_group.TwElem.__mul__", "twisted_group",
            twisted_group.TwElem.__mul__)
        for attr, fn in list(vars(census).items()):
            if (callable(fn) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == census.__name__
                    and not isinstance(fn, type)):
                self._wrap_attr(census, attr, "census." + attr, "census")

    def summary(self):
        """[calls, total_s, self_s] per span name and per (run, name), time
        per layer outside nested spans of the same layer, and the time
        covered by outermost spans."""
        names = {}
        per_run = {}
        for (name, run), (calls, total, self_s) in self.agg.items():
            n = names.setdefault(name, [0, 0.0, 0.0])
            n[0] += calls
            n[1] += total
            n[2] += self_s
            per_run.setdefault(str(run), {})[name] = [calls, total, self_s]
        return {"names": names, "per_run": per_run, "outer": self.outer,
                "top_s": self.top[0]}

    def write(self, path, header):
        rollups = [[name, run, calls, total, self_s] for (name, run),
                   (calls, total, self_s) in sorted(self.agg.items())
                   if name in ROLLED]
        doc = dict(header)
        doc["span_fields"] = ["name", "start", "end", "parent", "run",
                              "self_s"]
        doc["spans"] = self.spans
        doc["rollup_fields"] = ["name", "run", "calls", "total_s", "self_s"]
        doc["rollups"] = rollups
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
