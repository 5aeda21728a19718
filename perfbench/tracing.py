"""Per-layer tracing taken from outside the program.

`Tracer.install()` replaces each function named in `TRACED` by a wrapper
that records a span (name, start, end, parent) in memory; `uninstall()`
puts the originals back.  A function imported by name into another module
is replaced there too, so every call site is covered.  Self time is a
span's duration minus the time its traced children cover.  Callbacks that
the program passes into a traced function (sort keys, `reduce_fn`) run
inside that function's span and count in its self time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

from hetmpc import connectivity

# span name -> (module, attribute path); a class stands for its __init__
TRACED = {
    "simcore.Cluster.round": ("hetmpc.simcore", "Cluster.round"),
    "simcore.Machine.resident_words": ("hetmpc.simcore", "Machine.resident_words"),
    "simcore.payload_words": ("hetmpc.simcore", "payload_words"),
    "simcore.merge_parallel": ("hetmpc.simcore", "Cluster.merge_parallel"),
    "simcore.distribute_edges": ("hetmpc.simcore", "distribute_edges"),
    "simcore.telemetry_json": ("hetmpc.simcore", "telemetry_json"),
    "primitives.het_sort": ("hetmpc.primitives", "het_sort"),
    "primitives.aggregate": ("hetmpc.primitives", "aggregate"),
    "primitives.disseminate": ("hetmpc.primitives", "disseminate"),
    "primitives.tree_broadcast": ("hetmpc.primitives", "tree_broadcast"),
    "primitives.query_k_lightest": ("hetmpc.primitives", "query_k_lightest"),
    "primitives.arrange_nodes": ("hetmpc.primitives", "arrange_nodes"),
    "primitives.gather_to_large": ("hetmpc.primitives", "gather_to_large"),
    "primitives.scatter_from_large": ("hetmpc.primitives", "scatter_from_large"),
    "primitives.neighbor_shift": ("hetmpc.primitives", "neighbor_shift"),
    "mst.boruvka_step": ("hetmpc.mst", "boruvka_step"),
    "mst.kkt_sample": ("hetmpc.mst", "kkt_sample"),
    "mst.f_light_filter": ("hetmpc.mst", "f_light_filter"),
    "mst.mst": ("hetmpc.mst", "mst"),
    "labels.flow_label_marker": ("hetmpc.labels", "flow_label_marker"),
    "labels.flow_label_decode": ("hetmpc.labels", "flow_label_decode"),
    "connectivity.CoordTable": ("hetmpc.connectivity", "CoordTable"),
    "connectivity.sketch_build": ("hetmpc.connectivity", "sketch_build"),
    "connectivity.l0_sample": ("hetmpc.connectivity", "l0_sample"),
    "connectivity.connected_components": ("hetmpc.connectivity", "connected_components"),
    "connectivity.mst_weight_estimate": ("hetmpc.connectivity", "mst_weight_estimate"),
    "matching.degree_split": ("hetmpc.matching", "degree_split"),
    "matching.phase1_low_degree": ("hetmpc.matching", "phase1_low_degree"),
    "matching.phase2_high_degree": ("hetmpc.matching", "phase2_high_degree"),
    "matching.phase3_residual": ("hetmpc.matching", "phase3_residual"),
    "matching.maximal_matching": ("hetmpc.matching", "maximal_matching"),
    "spanner.clustering_graphs": ("hetmpc.spanner", "clustering_graphs"),
    "spanner.greedy_spanner": ("hetmpc.spanner", "greedy_spanner"),
    "spanner.combine_spanners": ("hetmpc.spanner", "combine_spanners"),
    "spanner.spanner": ("hetmpc.spanner", "spanner"),
}

# Only the outermost call of these is a span: it recurses through its own
# module-level name, which points back at the original while it runs.
OUTERMOST_ONLY = {"simcore.payload_words"}

RUN_SPAN = "run"


# Counters taken at a traced call: span name -> (counter, amount, before),
# where amount(args, kwargs, result) reads the call; with before set it is
# read before the call, with result None.
def _records_before(args, kwargs, _result):
    cluster = args[0] if args else kwargs["cluster"]
    key = args[1] if len(args) > 1 else kwargs.get("state_key", "E")
    return sum(len(m.state.get(key) or ()) for m in cluster.machines.values())


def _empty_round(args, kwargs, _result):
    return int(not (args[1] if len(args) > 1 else kwargs["sends"]))


def _decode_failed(_args, _kwargs, result):
    return int(isinstance(result, type(connectivity.FAIL)) and result == connectivity.FAIL)


def _retried(_args, _kwargs, result):
    return result[1]["retried"]


COUNTERS = {
    "simcore.Cluster.round": ("simcore.round.empty", _empty_round, False),
    "primitives.het_sort": ("primitives.het_sort.records", _records_before, True),
    "connectivity.l0_sample": ("connectivity.l0_sample.fail", _decode_failed, False),
    "connectivity.connected_components": (
        "connectivity.connected_components.retries", _retried, False),
}


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans of the traced runs of one invocation, held in memory."""

    def __init__(self):
        self.names = [RUN_SPAN] + list(TRACED)
        self.runs = []  # per run: (input index, name ids, parents, starts, ends)
        self.counters = []  # per run: {counter: amount}
        self.missing = []
        self._patches = []  # (owner, attribute, original)
        self._stack = [-1]
        self._spans = None

    # -- installing the wrappers ------------------------------------------

    def install(self):
        for sid, name in enumerate(self.names[1:], start=1):
            module, path = TRACED[name]
            try:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
            except (KeyError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            if inspect.isclass(fn):
                owner, attr, fn = fn, "__init__", fn.__init__
                owners = [(owner, attr)]
            elif inspect.isclass(owner):
                owners = [(owner, attr)]
            else:
                owners = [
                    (mod, key)
                    for mname, mod in list(sys.modules.items())
                    if mname == "hetmpc" or mname.startswith("hetmpc.")
                    for key, val in vars(mod).items()
                    if val is fn
                ]
            wrapper = self._wrap(sid, name, fn, owners)
            for o, a in owners:
                setattr(o, a, wrapper)
                self._patches.append((o, a, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def _wrap(self, sid, name, fn, owners):
        tracer = self
        cname, amount, before = COUNTERS.get(name, (None, None, False))
        outermost = name in OUTERMOST_ONLY

        def wrapper(*args, **kwargs):
            if before:
                tracer.count(cname, amount(args, kwargs, None))
            sid_, parent, start, end = tracer._spans
            idx = len(sid_)
            sid_.append(sid)
            parent.append(tracer._stack[-1])
            end.append(0.0)
            tracer._stack.append(idx)
            if outermost:
                for o, a in owners:
                    setattr(o, a, fn)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                tracer._stack.pop()
                if outermost:
                    for o, a in owners:
                        setattr(o, a, wrapper)
            if amount and not before:
                tracer.count(cname, amount(args, kwargs, result))
            return result

        return wrapper

    def count(self, name, amount):
        counts = self.counters[-1]
        counts[name] = counts.get(name, 0) + amount

    # -- one traced run ---------------------------------------------------

    def begin(self, input_index):
        """Open the root span of a traced run of pool input `input_index`."""
        self._spans = (array("i", [0]), array("i", [-1]), array("d"), array("d", [0.0]))
        self.runs.append((input_index,) + self._spans)
        self.counters.append({})
        self._stack = [-1, 0]
        self._spans[2].append(perf_counter())

    def end(self):
        self._spans[3][0] = perf_counter()
        self._stack = [-1]

    # -- results ------------------------------------------------------------

    def self_times(self, run):
        """Self seconds and calls per span name for one run."""
        _, sid, parent, start, end = run
        own = [e - s for s, e in zip(start, end)]
        for i in range(1, len(own)):
            own[parent[i]] -= end[i] - start[i]
        total = {}
        calls = {}
        for i, s in enumerate(sid):
            name = self.names[s]
            total[name] = total.get(name, 0.0) + own[i]
            calls[name] = calls.get(name, 0) + 1
        return total, calls

    def write(self, path):
        """Write every span once, as gzipped JSON."""
        doc = {
            "names": self.names,
            "runs": [
                {"input": inp, "name": list(sid), "parent": list(par),
                 "start": list(st), "end": list(en)}
                for inp, sid, par, st, en in self.runs
            ],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)

