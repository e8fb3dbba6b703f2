"""Per-layer spans and counters for the traced benchmark run.

The program is timed from outside. Each public function named in LAYERS is
replaced, in every mvlsynth module that holds it (modules import each
other's functions by name), with a wrapper that records a span; methods are
replaced on their class. Spans nest, e.g. synth_tables -> finish ->
validate -> Netlist.eval_order, and a span's self time is its duration
minus the time its child spans and their bookkeeping cover, so the layers'
self times add up to no more than the traced wall time. Counters are read
from arguments and results at the same boundaries. Nothing under src/ is
edited.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

from workloads import comb_gates

# layer (= mvlsynth module) -> its wrapped public functions. Per-gate
# accessors (gate_ports, builder emit methods, net_of_input, ...) are left
# out: wrapping them would cost more than the work they do.
LAYERS = {
    "values": ["as_radix", "tt_index", "tt_digits", "mv_tuple", "nary_invert"],
    "tables": ["TruthTable.make", "TruthTable.from_function", "TruthTable.lookup",
               "FsmSpec.step", "FsmSpec.observe", "ConfigBitstream.flipped"],
    "netlist": ["validate", "Netlist.eval_order", "NetlistBuilder.finish"],
    "synth": ["build_decoder_1", "build_decoder_m", "build_mux_1", "build_mux_m",
              "synth_tables", "synth_decoder_based", "synth_mux_based",
              "build_fabric_decoder", "build_fabric_mux", "derive_config",
              "build_nary_dlatch", "build_nary_dff", "compile_fsm",
              "gate_stats", "mux_block_count"],
    "sim": ["eval_vectors", "eval_combinational", "load_config", "reset_state",
            "step_sequential"],
    "oracle": ["oracle_eval", "check_equivalence", "check_fsm_equivalence",
               "reference_half_adder", "random_table"],
    "fileio": ["table_to_text", "table_from_text", "netlist_to_text",
               "netlist_from_text", "fingerprint", "bitstream_to_text",
               "bitstream_from_text", "fsm_to_text", "fsm_from_text",
               "load_table", "save_table", "load_netlist", "save_netlist",
               "load_bitstream", "save_bitstream", "load_fsm", "save_fsm",
               "export_dot"],
    "cli": ["main", "build_parser"],
}

COUNTERS = ["netlist.gates_built", "sim.vectors", "sim.gate_evals", "sim.steps",
            "sim.faults.contention", "sim.faults.floating_net",
            "sim.faults.uninitialized_latch", "oracle.vectors",
            "oracle.mismatches", "fileio.bytes", "fileio.load_bytes"]


class Tracer:
    """Span and counter store; spans are recorded only while ``on``."""

    def __init__(self):
        self.on = False
        self.stack: list[list] = []                 # [layer, child seconds]
        self.calls: dict[str, int] = defaultdict(int)       # per function
        self.incl: dict[str, float] = defaultdict(float)    # per function
        self.self_s: dict[str, float] = defaultdict(float)  # per layer
        self.layer_s: dict[str, float] = defaultdict(float)  # outermost spans
        self.count: dict[str, int] = {name: 0 for name in COUNTERS}
        self._comb = (None, 0)

    def comb_gates(self, nl) -> int:
        if self._comb[0] is not nl:  # consecutive calls share one netlist
            self._comb = (nl, comb_gates(nl))
        return self._comb[1]

    def _span(self, layer: str, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            entered = perf_counter()
            stack = tracer.stack
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                took = perf_counter() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.incl[name] += took
                tracer.self_s[layer] += took - frame[1]
                if outermost:
                    tracer.layer_s[layer] += took
                if hook is not None:
                    hook(tracer, args, result, exc)
                if stack:
                    stack[-1][1] += perf_counter() - entered
        return span

    def install(self) -> None:
        """Replace every function in LAYERS with its span wrapper."""
        modules = [m for key, m in sys.modules.items() if m is not None and (
            key in ("mvlsynth", "workloads") or key.startswith("mvlsynth."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"mvlsynth.{layer}"]
            for qual in names:
                hook = HOOKS.get(qual.split(".")[-1])
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._span(layer, qual, raw.__func__, hook))
                    else:
                        wrapped = self._span(layer, qual, raw, hook)
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(home, qual)
                wrapped = self._span(layer, qual, original, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def metrics(self, wall_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics as {name: {"value", "unit"}}."""
        c, s, calls = self.count, self.self_s, self.calls

        def layer_calls(layer):
            return sum(calls[name] for name in LAYERS[layer])

        def per(num, den):
            return num / den if den else 0.0

        load_s = sum(self.incl[n] for n in LAYERS["fileio"] if n.startswith("load_"))
        save_s = sum(self.incl[n] for n in LAYERS["fileio"] if n.startswith("save_"))
        out = {
            "netlist.validate.calls": (calls["validate"], "count"),
            "netlist.validate.s": (self.incl["validate"], "s"),
            "netlist.eval_order.calls": (calls["Netlist.eval_order"], "count"),
            "netlist.eval_order.s": (self.incl["Netlist.eval_order"], "s"),
            "netlist.gates_built": (c["netlist.gates_built"], "count"),
            "synth.calls": (layer_calls("synth"), "count"),
            "synth.gates_per_s": (per(c["netlist.gates_built"], self.layer_s["synth"]), "1/s"),
            "synth.derive_config.s": (self.incl["derive_config"], "s"),
            "sim.calls": (layer_calls("sim"), "count"),
            "sim.s": (self.layer_s["sim"], "s"),
            "sim.vectors": (c["sim.vectors"], "count"),
            "sim.gate_evals": (c["sim.gate_evals"], "count"),
            "sim.ns_per_gate_eval": (per(self.incl["eval_vectors"] * 1e9, c["sim.gate_evals"]), "ns"),
            "sim.step.us": (per(self.incl["step_sequential"] * 1e6, calls["step_sequential"]), "us"),
            "sim.steps": (c["sim.steps"], "count"),
            "sim.load_config.s": (self.incl["load_config"], "s"),
            "sim.faults.contention": (c["sim.faults.contention"], "count"),
            "sim.faults.floating_net": (c["sim.faults.floating_net"], "count"),
            "sim.faults.uninitialized_latch": (c["sim.faults.uninitialized_latch"], "count"),
            "oracle.calls": (layer_calls("oracle"), "count"),
            "oracle.vectors": (c["oracle.vectors"], "count"),
            "oracle.mismatches": (c["oracle.mismatches"], "count"),
            "fileio.save.s": (save_s, "s"),
            "fileio.load.s": (load_s, "s"),
            "fileio.bytes": (c["fileio.bytes"], "count"),
            "fileio.load_mb_per_s": (per(c["fileio.load_bytes"] / 1e6, load_s), "MB/s"),
            "cli.calls": (layer_calls("cli"), "count"),
            "values.calls": (layer_calls("values"), "count"),
            "tables.calls": (layer_calls("tables"), "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (s[layer], "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - sum(s.values()), "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


# -- counters, keyed by function name -------------------------------------------


def _fault_raised(tracer, exc) -> None:
    fault = getattr(exc, "fault", None)  # SimFaultError carries its Fault
    if fault is not None:
        tracer.count[f"sim.faults.{fault.kind.value}"] += 1


def _finish(tracer, args, nl, exc):
    if nl is not None:
        tracer.count["netlist.gates_built"] += len(nl.gates)


def _eval_vectors(tracer, args, results, exc):
    _fault_raised(tracer, exc)
    if results is None:
        return
    # One batch evaluates every combinational gate once per vector. Clock
    # steps are counted in sim.steps instead: the settle loop sweeps a
    # step's gates a data-dependent number of times, which no public
    # boundary shows.
    tracer.count["sim.vectors"] += len(results)
    tracer.count["sim.gate_evals"] += tracer.comb_gates(args[0]) * len(results)
    for r in results:
        kind = getattr(r, "kind", None)  # a Fault, not an output tuple
        if kind is not None:
            tracer.count[f"sim.faults.{kind.value}"] += 1


def _step(tracer, args, result, exc):
    _fault_raised(tracer, exc)
    tracer.count["sim.steps"] += 1


def _report(tracer, args, report, exc):
    if report is not None:
        tracer.count["oracle.vectors"] += report.total_vectors
        tracer.count["oracle.mismatches"] += len(report.mismatches)


def _saved(tracer, args, result, exc):
    if exc is None:
        tracer.count["fileio.bytes"] += os.path.getsize(args[0])


def _loaded(tracer, args, result, exc):
    if exc is None:
        size = os.path.getsize(args[0])
        tracer.count["fileio.bytes"] += size
        tracer.count["fileio.load_bytes"] += size


HOOKS = {
    "finish": _finish,
    "eval_vectors": _eval_vectors,
    "step_sequential": _step,
    "check_equivalence": _report,
    "check_fsm_equivalence": _report,
    **{f"save_{kind}": _saved for kind in ("table", "netlist", "bitstream", "fsm")},
    **{f"load_{kind}": _loaded for kind in ("table", "netlist", "bitstream", "fsm")},
}
