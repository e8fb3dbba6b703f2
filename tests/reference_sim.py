"""Frozen copy of the levelized list-of-slots simulator that the compiled
bit-parallel simulator in ``mvlsynth.sim`` replaced.

Test-only reference for ``test_sim_diff.py``: ``_Pass`` and the public entry
points below are kept verbatim, so the differential test compares the new
simulator against the exact old semantics (first fault per vector, the
fault log, latch contents). ``_settle``'s stopping rule is the exact
oscillation verdict, written apart from ``mvlsynth.sim``: the first
recurrence of latch contents at or after the sweep bound, so both
simulators leave the same contents behind an oscillation. Do not change
its behaviour.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from mvlsynth.netlist import GateType, Netlist
from mvlsynth.sim import Fault, FaultKind, SimFaultError, SimState

_NOCONDUCT = object()

# A slot value is an int level, None (floating), or a Fault poisoning the
# slot's downstream cone.
Slot = Union[int, None, Fault]


def _check_input_vector(nl: Netlist, vec: Sequence[int]) -> tuple[int, ...]:
    if len(vec) != len(nl.inputs):
        raise ValueError(f"expected {len(nl.inputs)} inputs, got {len(vec)}")
    out = []
    for name, v in zip(nl.inputs, vec):
        radix = nl.gates[name].radix
        hi = 1 if radix is None else radix - 1
        if not isinstance(v, int) or not 0 <= v <= hi:
            raise ValueError(f"input {name}: value {v!r} out of range 0..{hi}")
        out.append(v)
    return tuple(out)


class _Pass:
    """One levelized sweep over the combinational core, batched over vectors."""

    def __init__(self, nl: Netlist, vectors: list[tuple[int, ...]],
                 state: SimState, clock_value: Optional[int]):
        self.nl = nl
        self.vectors = vectors
        self.nbatch = len(vectors)
        self.state = state
        self.values: dict[str, list[Slot]] = {}
        self.sw_drives: dict[str, list[list[Slot]]] = {}
        self.slot_faults: dict[int, Fault] = {}

        for name, column in zip(nl.inputs, zip(*vectors) if vectors else []):
            self.values[nl.net_of_input(name)] = list(column)
        if nl.clock is not None:
            if clock_value is None:
                raise ValueError(
                    "netlist has a clock pin; drive it with step_sequential")
            self.values[nl.clock] = [clock_value] * self.nbatch

        # each configuration latch's bit, read from the stream in latch_order
        config = ({} if state.config is None
                  else dict(zip(nl.latch_order, state.config.bits)))
        for g in nl.gates.values():
            if g.kind is GateType.CONST:
                self.values[g.pins["y"]] = [g.param] * self.nbatch
            elif g.kind is GateType.CONFIG_LATCH:
                self.values[g.pins["q"]] = [config.get(g.gid, 0)] * self.nbatch
            elif g.kind is GateType.NARY_DLATCH:
                if g.gid not in state.latches:
                    fault = Fault(FaultKind.UNINITIALIZED_LATCH, g.gid)
                    state.faults.append(fault)
                    raise SimFaultError(fault)
                self.values[g.pins["q"]] = [state.latches[g.gid]] * self.nbatch

    def _record(self, b: int, fault: Fault) -> Fault:
        self.slot_faults.setdefault(b, fault)
        return fault

    def _resolve_switch_net(self, nid: str) -> list[Slot]:
        drives = self.sw_drives.pop(nid)
        merged: list[Slot] = []
        for b in range(self.nbatch):
            live = [d[b] for d in drives if d[b] is not _NOCONDUCT]
            if not live:
                merged.append(None)
            elif len(live) == 1:
                merged.append(live[0])
            else:
                poison = next((v for v in live if isinstance(v, Fault)), None)
                if poison is None:
                    poison = self._record(
                        b, Fault(FaultKind.CONTENTION, nid, self.vectors[b]))
                merged.append(poison)
        self.values[nid] = merged
        return merged

    def net_values(self, nid: str) -> list[Slot]:
        got = self.values.get(nid)
        if got is None:
            got = self._resolve_switch_net(nid)
        return got

    def consume(self, nid: str) -> list[Slot]:
        """Read a net as a gate input: floating here is a fault."""
        slots = self.net_values(nid)
        if None not in slots:
            return slots
        out = list(slots)
        for b, v in enumerate(out):
            if v is None:
                out[b] = self._record(
                    b, Fault(FaultKind.FLOATING_NET, nid, self.vectors[b]))
        return out

    def run(self) -> None:
        nl = self.nl
        for gid in nl.eval_order():
            g = nl.gates[gid]
            kind = g.kind
            if kind is GateType.TLG:
                t = g.param
                xs = self.consume(g.pins["d"])
                self.values[g.pins["y"]] = [
                    (1 if v > t else 0) if isinstance(v, int) else v for v in xs]
            elif kind is GateType.NOT:
                xs = self.consume(g.pins["a"])
                self.values[g.pins["y"]] = [
                    1 - v if isinstance(v, int) else v for v in xs]
            elif kind is GateType.AND or kind is GateType.OR:
                cols = [self.consume(g.pins[f"a{i}"]) for i in range(g.param)]
                out: list[Slot] = []
                for b in range(self.nbatch):
                    row = [c[b] for c in cols]
                    poison = next((v for v in row if isinstance(v, Fault)), None)
                    if poison is not None:
                        out.append(poison)
                    elif kind is GateType.AND:
                        out.append(1 if all(v == 1 for v in row) else 0)
                    else:
                        out.append(1 if any(v == 1 for v in row) else 0)
                self.values[g.pins["y"]] = out
            elif kind is GateType.SWITCH:
                cs = self.consume(g.pins["c"])
                ds = self.net_values(g.pins["d"])  # floating data may pass
                drive: list[Slot] = []
                for b in range(self.nbatch):
                    c = cs[b]
                    if c == 0:
                        drive.append(_NOCONDUCT)
                    elif c == 1:
                        drive.append(ds[b])
                    else:  # poisoned control conducts its fault
                        drive.append(c)
                self.sw_drives.setdefault(g.pins["y"], []).append(drive)
            else:
                raise AssertionError(f"unexpected gate in eval order: {g}")

        # Contention must surface even on nets nothing happened to read.
        for nid in list(self.sw_drives):
            self._resolve_switch_net(nid)

    def outputs(self) -> list[Union[tuple[int, ...], Fault]]:
        cols = [self.consume(self.nl.net_of_output(name))
                for name in self.nl.outputs]
        results: list[Union[tuple[int, ...], Fault]] = []
        for b in range(self.nbatch):
            fault = self.slot_faults.get(b)
            if fault is None:
                results.append(tuple(c[b] for c in cols))
            else:
                results.append(fault)
        return results

    def latch_inputs(self) -> dict[str, Slot]:
        got = {}
        for gid in self.nl.state_latches:
            got[gid] = self.consume(self.nl.gates[gid].pins["d"])[0]
        return got


def _settle(nl: Netlist, vector: tuple[int, ...], state: SimState,
            clock_value: Optional[int]) -> _Pass:
    """Evaluate with level-sensitive storage: sweep, commit, repeat to rest.

    Latch contents left by a changing sweep that were already left by an
    earlier one never settle; from sweep len(state_latches) + 2 on, the
    first such recurrence ends the loop. Until then it sweeps on.
    """
    bound = len(nl.state_latches) + 2
    left: set[frozenset] = set()
    sweeps = 0
    while True:
        sweeps += 1
        p = _Pass(nl, [vector], state, clock_value)
        p.run()
        changed = False
        for gid, new in p.latch_inputs().items():
            if not isinstance(new, int):
                fault = new if isinstance(new, Fault) else Fault(
                    FaultKind.FLOATING_NET, nl.gates[gid].pins["d"], vector)
                state.faults.append(fault)
                raise SimFaultError(fault)
            if state.latches[gid] != new:
                state.latches[gid] = new
                changed = True
        if not changed:
            return p
        contents = frozenset(state.latches.items())
        if sweeps >= bound and contents in left:
            raise RuntimeError("latch settling did not converge")
        left.add(contents)


def eval_vectors(nl: Netlist, vectors: Sequence[Sequence[int]],
                 state: Optional[SimState] = None,
                 ) -> list[Union[tuple[int, ...], Fault]]:
    """Batch-evaluate a combinational netlist, one result per input vector.

    Each result is the output tuple, or the first Fault the vector hit.
    Faults are also appended to the state's log.
    """
    if state is None:
        state = SimState()
    checked = [_check_input_vector(nl, v) for v in vectors]
    if nl.state_latches:
        if len(checked) != 1:
            raise ValueError("batch evaluation needs a latch-free netlist")
        p = _settle(nl, checked[0], state, None)
    else:
        p = _Pass(nl, checked, state, None)
        p.run()
    results = p.outputs()
    state.faults.extend(r for r in results if isinstance(r, Fault))
    return results


def eval_combinational(nl: Netlist, inputs: Sequence[int],
                       state: Optional[SimState] = None,
                       ) -> tuple[tuple[int, ...], SimState]:
    """Evaluate one input vector; raises SimFaultError on any fault.

    Netlists containing level-sensitive latches settle through them (the
    gate pins are ordinary inputs here); clocked netlists must go through
    step_sequential instead.
    """
    if state is None:
        state = SimState()
    result = eval_vectors(nl, [inputs], state)[0]
    if isinstance(result, Fault):
        raise SimFaultError(result)
    return result, state


def step_sequential(nl: Netlist, inputs: Sequence[int],
                    state: SimState) -> tuple[tuple[int, ...], SimState]:
    """Apply one full clock cycle (low phase, then high) and read outputs.

    Requires every storage element to have been reset first.
    """
    if nl.clock is None:
        raise ValueError("netlist has no clock; use eval_combinational")
    for gid in nl.state_latches:
        if gid not in state.latches:
            fault = Fault(FaultKind.UNINITIALIZED_LATCH, gid)
            state.faults.append(fault)
            raise SimFaultError(fault)
    vector = _check_input_vector(nl, inputs)
    _settle(nl, vector, state, 0)
    p = _settle(nl, vector, state, 1)
    result = p.outputs()[0]
    if isinstance(result, Fault):
        state.faults.append(result)
        raise SimFaultError(result)
    return result, state
