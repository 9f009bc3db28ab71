"""Spans around the calls into each ``tsw`` layer, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``tsw`` module that binds it, so calls between modules are seen as
well as the benchmark's own.  A call made while the same function is
already open (recursion) runs unwrapped: spans count calls into a layer,
not its internal recursion.  A generator function gets one span per
resumption, of which only the first counts as a call.

Spans stay in memory as parallel arrays until ``write``.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from array import array
from time import perf_counter

# Every traced entry point, with the measures reported for it.
_CS = ("calls", "self_s")
TRACED = {
    "parsing.parse": _CS + ("errors",),
    "formulas.variables": _CS,
    "formulas.is_context": _CS,
    "formulas.substitute": _CS,
    "formulas.syntax_tree": _CS,
    "formulas.to_text": _CS + ("errors",),
    "teams.enumerate_teams": _CS,
    "semantics.evaluate": _CS + ("p50_us", "errors"),
    "semantics.valid": _CS,
    "semantics.truth_set": _CS,
    "semantics.entails": _CS,
    "semantics.equivalent": _CS,
    "expressiveness.theta_star": _CS,
    "expressiveness.synth_pd": ("self_s",),
    "expressiveness.synth_inql": ("self_s",),
    "expressiveness.translate": ("self_s",),
    "definability.enumerate_contexts": ("self_s",),
    "definability.refute_uniform_definition": _CS,
    "definability.verify_counterexample": _CS,
    "definability.find_truth_function": _CS,
    "definability.verify_truth_function": _CS,
    "definability.search_contexts": ("contexts_per_s",),
    "cli.main": (),
}
UNITS = {"calls": "count", "self_s": "s", "errors": "count", "p50_us": "us", "contexts_per_s": "1/s"}
# Functions whose returned formulas count toward expressiveness.output_nodes
# when no other of them is open (translate emits through synth_pd/inql).
EMITTERS = ("expressiveness.synth_pd", "expressiveness.synth_inql", "expressiveness.translate")


def node_count(phi):
    n, stack = 0, [phi]
    while stack:
        f = stack.pop()
        n += 1
        if hasattr(f, "left"):
            stack.append(f.left)
            stack.append(f.right)
    return n


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.call = array("b")
        self.error = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.open_count = [0] * len(self.names)
        self.current_op = -1
        self.output_nodes = 0
        self.search_contexts = 0
        self._patched = []

    # -- recording --

    def _open(self, nid, is_call):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.call.append(is_call)
        self.error.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx, failed):
        self.end[idx] = perf_counter()
        self.stack.pop()
        if failed:
            self.error[idx] = 1

    def _wrap(self, nid, fn):
        tracer = self
        emitter = self.names[nid] in EMITTERS
        emitter_ids = [self.names.index(e) for e in EMITTERS]
        is_search = self.names[nid] == "definability.search_contexts"

        if inspect.isgeneratorfunction(fn):

            def resume(it):
                while True:
                    idx = tracer._open(nid, 0)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx, False)
                        return
                    except BaseException:
                        tracer._close(idx, True)
                        raise
                    tracer._close(idx, False)
                    yield item

            def gen_wrapper(*args, **kwargs):
                idx = tracer._open(nid, 1)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, False)
                return resume(it)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if tracer.open_count[nid]:
                return fn(*args, **kwargs)
            outer_emit = emitter and not any(tracer.open_count[e] for e in emitter_ids)
            tracer.open_count[nid] += 1
            idx = tracer._open(nid, 1)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(idx, failed)
                tracer.open_count[nid] -= 1
            if outer_emit:
                tracer.output_nodes += node_count(result)
            if is_search:
                tracer.search_contexts += result.total
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever a ``tsw`` module binds it."""
        originals = {}
        for nid, qual in enumerate(self.names):
            layer, func = qual.split(".")
            originals[id(getattr(sys.modules["tsw." + layer], func))] = nid
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "tsw" and not modname.startswith("tsw."):
                continue
            for attr, value in list(vars(mod).items()):
                nid = originals.get(id(value))
                if nid is None or not callable(value):
                    continue
                if nid not in wrappers:
                    wrappers[nid] = self._wrap(nid, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[nid])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results --

    def functions(self):
        """Per traced function: calls, self seconds, errors, call durations."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {q: {"calls": 0, "self_s": 0.0, "errors": 0, "durations": []} for q in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            rec["self_s"] += dur - child[i]
            if self.call[i]:
                rec["calls"] += 1
                rec["errors"] += self.error[i]
                rec["durations"].append(dur)
        return out

    def write(self, path):
        """All spans, one per line: name, op, parent span, call, error,
        start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("span\tname\top\tparent\tcall\terror\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                    f"{self.call[i]}\t{self.error[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def layer_metrics(tracer):
    """The per-layer metrics that come from spans."""
    metrics = {}
    for qual, rec in tracer.functions().items():
        durations = rec.pop("durations")
        busy = sum(durations)
        rec["p50_us"] = statistics.median(durations) * 1e6 if durations else 0.0
        rec["contexts_per_s"] = tracer.search_contexts / busy if busy else 0.0
        for measure in TRACED[qual]:
            metrics[f"{qual}.{measure}"] = {"value": rec[measure], "unit": UNITS[measure]}
    metrics["expressiveness.output_nodes"] = {"value": tracer.output_nodes, "unit": "count"}
    metrics["trace.spans"] = {"value": len(tracer.name), "unit": "count"}
    return metrics
