"""Netlist evaluation: combinational settling, clock stepping, configuration.

On first simulation each netlist is lowered into a compiled program, cached
on the netlist: every net gets integer slots, and one flat op list follows
the levelized order of the acyclic core. A run evaluates a whole batch of
input vectors at once, bit-parallel: a slot holds one Python int whose bit
b belongs to vector b. A binary net is one mask; a radix-N net is N one-hot
masks, one per level, so TLG(x > t) is the OR of planes t+1..N-1. Radix-N
storage elements are sources whose contents live in a SimState; storage
settles by running the same program on a batch of one until the latch
contents stop changing.

A switch-driven net with no conducting switch is floating; a floating value
is a fault the moment anything consumes it, and two simultaneously
conducting switch drivers are a contention fault outright. A vector's
result is the first fault it hits in evaluation order: contention when a
switch net is resolved (just before its first reader, or at the end of the
pass for nets nothing reads), floating at a net's first consume. Latches
that never come to rest are an oscillation fault, and reading storage that
was never set (a state latch not reset, a configuration latch not
programmed) is an uninitialized-latch fault. Faults are never masked by
default values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .netlist import GateType, Netlist, gate_ports
from .tables import ConfigBitstream


class FaultKind(enum.Enum):
    FLOATING_NET = "floating_net"
    CONTENTION = "contention"
    UNINITIALIZED_LATCH = "uninitialized_latch"
    OSCILLATION = "oscillation"


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    ref: str                                  # net or gate id
    vector: Optional[tuple[int, ...]] = None  # inputs that triggered it

    def describe(self) -> str:
        at = f" at inputs {self.vector}" if self.vector is not None else ""
        return f"{self.kind.value} on {self.ref}{at}"


class SimFaultError(RuntimeError):
    def __init__(self, fault: Fault):
        super().__init__(fault.describe())
        self.fault = fault


@dataclass
class SimState:
    """Simulator-owned storage: configuration bits, latch values, fault log.

    Single-owner during an evaluation; distinct states over one shared
    netlist may run in parallel.
    """

    config: dict[str, int] = field(default_factory=dict)
    latches: dict[str, int] = field(default_factory=dict)
    faults: list[Fault] = field(default_factory=list)


def _top_level(nl: Netlist, name: str) -> int:
    radix = nl.gates[name].radix
    return 1 if radix is None else radix - 1


def _check_vectors(nl: Netlist, vectors) -> list[tuple[int, ...]]:
    """Range-check input vectors in order; raises on the first bad one."""
    tops = [(name, _top_level(nl, name)) for name in nl.inputs]
    out = []
    for vec in vectors:
        if len(vec) != len(tops):
            raise ValueError(f"expected {len(tops)} inputs, got {len(vec)}")
        for (name, hi), v in zip(tops, vec):
            if not isinstance(v, int) or not 0 <= v <= hi:
                raise ValueError(f"input {name}: value {v!r} out of range 0..{hi}")
        out.append(tuple(vec))
    return out


# -- compiled program ---------------------------------------------------------

# Reserved slots: a sink for planes nothing reads (level 0 of a binary
# net), and the all-zero and all-ones masks that constants alias.
_SINK, _ZERO, _FULL = 0, 1, 2

# Opcodes. Every op is a 4-tuple (opcode, out, a, b):
#   _AND/_OR    (op, y, first input slot, other input slots)
#   _NOT        (op, y, input slot, None)
#   _SWITCH     (op, first y slot, source slots, control slot)
#   _RESOLVE    (op, net id, control slots of all drivers, floating slot)
#   _FLOAT      (op, net id, floating slot, None)
# A switch net of radix N owns N planes, then a floatpass slot, then a
# floating slot. A conducting switch ORs its source slots into the net's
# slots from the first y slot on: the data net's planes, plus its floating
# slot (landing on floatpass) when the data is itself a switch net.
# _RESOLVE marks vectors where two drivers conduct as contention and
# derives the floating mask (no driver conducts, or a conducting one passes
# floating data; vectors with contention are faulted by then, so their
# bits do not matter); _FLOAT records that mask as faults where the net is
# consumed.
_SWITCH, _AND, _OR, _NOT, _RESOLVE, _FLOAT = range(6)


class _Program(NamedTuple):
    """A netlist lowered for bit-parallel runs; built once per netlist."""

    nslots: int
    ops: tuple
    inputs: tuple                   # planes per nl.inputs entry
    clock: Optional[tuple]          # planes of the clock net
    config: tuple                   # (gid, slot) per configuration latch
    latches: tuple                  # (gid, q planes, d planes), state_latches order
    outputs: tuple                  # planes per nl.outputs entry


def _lower(nl: Netlist) -> tuple[_Program, dict[str, tuple[int, ...]]]:
    """Assign slots and emit the op list; also returns each net's planes.

    A net's planes are the slots of its levels, index = level; a binary
    net is (_SINK, slot). Constants, single-plane comparators and n-ary
    inverters emit no op: their planes alias existing slots.
    """
    gates, nets = nl.gates, nl.nets
    order = [gates[gid] for gid in nl.eval_order()]
    nslots = 3
    planes: dict[str, tuple[int, ...]] = {}

    def alloc(count: int) -> tuple[int, ...]:
        nonlocal nslots
        nslots += count
        return tuple(range(nslots - count, nslots))

    def fresh(nid: str) -> tuple[int, ...]:
        radix = nets[nid].radix
        planes[nid] = (_SINK,) + alloc(1) if radix is None else alloc(radix)
        return planes[nid]

    for g in gates.values():
        if g.kind is GateType.CONST:
            levels = 2 if g.radix is None else g.radix
            planes[g.pins["y"]] = tuple(_FULL if lvl == g.param else _ZERO
                                        for lvl in range(levels))
        elif g.kind in (GateType.INPUT, GateType.CONFIG_LATCH,
                        GateType.NARY_DLATCH):
            fresh(g.pins["q" if "q" in g.pins else "y"])

    # Switch nets in first-driver order: their drivers' control slots, and
    # the source slots a switch reading the net as data ORs onward.
    controls: dict[str, list[int]] = {}
    sources: dict[str, tuple[int, ...]] = {}
    for g in order:
        y = g.pins["y"]
        if g.kind is GateType.SWITCH and y not in controls:
            slots = alloc(nets[y].radix + 2)
            planes[y], sources[y] = slots[:-2], slots[:-2] + slots[-1:]
            controls[y] = []

    ops: list[tuple] = []
    resolved: set[str] = set()
    consumed: set[str] = set()

    def read(nid: str, consume: bool) -> tuple[int, ...]:
        if nid in controls:
            floating = sources[nid][-1]
            if nid not in resolved:
                resolved.add(nid)
                ops.append((_RESOLVE, nid, tuple(controls[nid]), floating))
            if consume and nid not in consumed:
                consumed.add(nid)
                ops.append((_FLOAT, nid, floating, None))
        return planes[nid]

    for g in order:
        kind, pins = g.kind, g.pins
        if kind is GateType.TLG:
            ups = read(pins["d"], True)[g.param + 1:]
            if g.param < 0:  # every level is above -1
                planes[pins["y"]] = (_SINK, _FULL)
            elif len(ups) <= 1:
                planes[pins["y"]] = (_SINK, ups[0] if ups else _ZERO)
            else:
                y = fresh(pins["y"])[1]
                ops.append((_OR, y, ups[0], ups[1:]))
        elif kind is GateType.NOT:
            y = fresh(pins["y"])[1]
            ops.append((_NOT, y, planes[pins["a"]][1], None))
        elif kind is GateType.AND or kind is GateType.OR:
            ins = tuple(planes[pins[f"a{i}"]][1] for i in range(g.param))
            y = fresh(pins["y"])[1]
            ops.append((_AND if kind is GateType.AND else _OR, y, ins[0], ins[1:]))
        elif kind is GateType.NARY_INVERTER:
            planes[pins["y"]] = read(pins["d"], True)[::-1]
        elif kind is GateType.SWITCH:
            d = read(pins["d"], False)
            y = planes[pins["y"]]
            c = planes[pins["c"]][1]
            controls[pins["y"]].append(c)
            ops.append((_SWITCH, y[0], sources.get(pins["d"], d), c))
        else:
            raise AssertionError(f"unexpected gate in eval order: {g}")

    # Contention must surface even on nets nothing happened to read.
    for nid in controls:
        read(nid, False)
    for gid in nl.state_latches:
        read(gates[gid].pins["d"], True)
    for gid in nl.outputs:
        read(nl.net_of_output(gid), True)

    program = _Program(
        nslots=nslots,
        ops=tuple(ops),
        inputs=tuple(planes[nl.net_of_input(gid)] for gid in nl.inputs),
        clock=None if nl.clock is None else planes[nl.clock],
        config=tuple((gid, planes[gates[gid].pins["q"]][1])
                     for gid in nl.latch_order),
        latches=tuple((gid, planes[gates[gid].pins["q"]],
                       planes[gates[gid].pins["d"]])
                      for gid in nl.state_latches),
        outputs=tuple(planes[nl.net_of_output(gid)] for gid in nl.outputs),
    )
    return program, planes


def _compiled(nl: Netlist) -> _Program:
    program = nl._program
    if program is None:
        program = nl._program = _lower(nl)[0]
    return program


def _record(first: dict[int, Fault], new: int, kind: FaultKind, ref: str,
            vectors: list) -> None:
    while new:
        low = new & -new
        b = low.bit_length() - 1
        first[b] = Fault(kind, ref, tuple(vectors[b]))
        new ^= low


def _uninitialized(state: SimState, gid: str) -> SimFaultError:
    """Log that storage element gid was read before it held a value."""
    fault = Fault(FaultKind.UNINITIALIZED_LATCH, gid)
    state.faults.append(fault)
    return SimFaultError(fault)


def _run(prog: _Program, vectors: list, cols: list[tuple], state: SimState,
         clock_value: Optional[int]) -> tuple[list[int], dict[int, Fault]]:
    """One bit-parallel sweep; returns the slots and each faulted vector's
    first fault. Slots of a faulted vector hold no meaningful level."""
    full = (1 << len(vectors)) - 1
    v = [0] * prog.nslots
    v[_FULL] = full
    for planes, col in zip(prog.inputs, cols):
        masks = [0] * len(planes)
        bit = 1
        for x in col:
            masks[x] |= bit
            bit <<= 1
        for s, m in zip(planes, masks):
            v[s] = m
    if prog.clock is not None:
        v[prog.clock[clock_value]] = full
    config = state.config.get
    for gid, s in prog.config:
        bit = config(gid)
        if bit:
            v[s] = full
        elif bit is None:
            raise _uninitialized(state, gid)
    latches = state.latches
    for gid, q, _ in prog.latches:
        v[q[latches[gid]]] = full

    first: dict[int, Fault] = {}
    already = 0
    for op, y, a, b in prog.ops:
        if op == _SWITCH:
            c = v[b]
            for yp, dp in enumerate(a, y):
                v[yp] |= c & v[dp]
        elif op == _AND:
            r = v[a]
            for s in b:
                r &= v[s]
            v[y] = r
        elif op == _OR:
            r = v[a]
            for s in b:
                r |= v[s]
            v[y] = r
        elif op == _NOT:
            v[y] = full ^ v[a]
        elif op == _RESOLVE:
            seen = clash = 0
            for s in a:
                c = v[s]
                clash |= seen & c
                seen |= c
            new = clash & ~already
            if new:
                already |= new
                _record(first, new, FaultKind.CONTENTION, y, vectors)
            v[b] = (full ^ seen) | v[b - 1]
        else:  # _FLOAT
            new = v[a] & ~already
            if new:
                already |= new
                _record(first, new, FaultKind.FLOATING_NET, y, vectors)
    return v, first


def _levels(v: list[int], planes: tuple[int, ...], nb: int) -> list[int]:
    """Per-vector level of a net, read off its one-hot planes."""
    col = [0] * nb
    for lvl in range(1, len(planes)):
        bits = bin(v[planes[lvl]])[:1:-1]  # bit b at index b
        i = bits.find("1")
        while i >= 0:
            col[i] = lvl
            i = bits.find("1", i + 1)
    return col


def _results(prog: _Program, v: list[int], first: dict[int, Fault],
             nb: int) -> list[Union[tuple[int, ...], Fault]]:
    cols = [_levels(v, planes, nb) for planes in prog.outputs]
    results: list = list(zip(*cols)) if cols else [()] * nb
    for b, fault in first.items():
        results[b] = fault
    return results


class _Cone:
    """Which Fault a settling pass carried into a latch input.

    The run keeps masks only, so when a pass hit a fault this walks back
    from a latch's d net through the netlist and derives the value the net
    held for the one vector: a level, None for floating, or the Fault
    poisoning it (first poisoned input of a gate, first poisoned
    conducting driver of a switch net). Levels of clean nets are read from
    the run's slots. Only the settle loop's fault path builds one.
    """

    def __init__(self, nl: Netlist, v: list[int], vector: tuple[int, ...]):
        self.v, self.vector = v, vector
        self.planes = _lower(nl)[1]
        self.drivers: dict[str, list] = {}
        for gid in nl.eval_order():
            g = nl.gates[gid]
            self.drivers.setdefault(g.pins["y"], []).append(g)
        self.memo: dict[str, Union[int, None, Fault]] = {}

    def consume(self, nid: str) -> Union[int, Fault]:
        got = self.read(nid)
        return Fault(FaultKind.FLOATING_NET, nid, self.vector) if got is None else got

    def read(self, nid: str) -> Union[int, None, Fault]:
        if nid in self.memo:
            return self.memo[nid]
        gates = self.drivers.get(nid)
        if gates is None:  # a source
            got = _level(self.v, self.planes[nid])
        elif gates[0].kind is GateType.SWITCH:
            live = []
            for g in gates:
                c = self.consume(g.pins["c"])
                if isinstance(c, Fault):
                    live.append(c)  # a poisoned control conducts its fault
                elif c == 1:
                    live.append(self.read(g.pins["d"]))
            poison = next((x for x in live if isinstance(x, Fault)), None)
            if len(live) == 1:
                got = live[0]
            elif len(live) > 1:
                got = poison or Fault(FaultKind.CONTENTION, nid, self.vector)
            else:
                got = None
        else:
            g = gates[0]
            ins = (g.pins[sig.name] for sig in gate_ports(g) if sig.is_input)
            got = next((x for x in map(self.consume, ins)
                        if isinstance(x, Fault)), None)
            if got is None:
                got = _level(self.v, self.planes[nid])
        self.memo[nid] = got
        return got


def _level(v: list[int], planes: tuple[int, ...]) -> int:
    """Level of a net in a batch of one."""
    for lvl in range(len(planes) - 1, 0, -1):
        if v[planes[lvl]]:
            return lvl
    return 0


def _settle(nl: Netlist, prog: _Program, vector: tuple[int, ...],
            state: SimState, clock_value: Optional[int],
            ) -> tuple[list[int], dict[int, Fault]]:
    """Evaluate with level-sensitive storage: sweep, commit, repeat to rest."""
    latches = state.latches
    for gid in nl.state_latches:
        if gid not in latches:
            raise _uninitialized(state, gid)
    batch, cols = [vector], [(x,) for x in vector]
    for _ in range(len(prog.latches) + 2):
        v, first = _run(prog, batch, cols, state, clock_value)
        cone = _Cone(nl, v, vector) if first else None
        changed = None
        for gid, _, d in prog.latches:
            new = (_level(v, d) if cone is None
                   else cone.consume(nl.gates[gid].pins["d"]))
            if isinstance(new, Fault):
                state.faults.append(new)
                raise SimFaultError(new)
            if latches[gid] != new:
                latches[gid] = new
                changed = changed or gid
        if changed is None:
            return v, first
    # still moving after the last sweep: name the first latch that changed
    fault = Fault(FaultKind.OSCILLATION, changed, vector)
    state.faults.append(fault)
    raise SimFaultError(fault)


def eval_vectors(nl: Netlist, vectors: Sequence[Sequence[int]],
                 state: Optional[SimState] = None,
                 ) -> list[Union[tuple[int, ...], Fault]]:
    """Batch-evaluate a combinational netlist, one result per input vector.

    Each result is the output tuple, or the first Fault the vector hit.
    Faults are also appended to the state's log.
    """
    if state is None:
        state = SimState()
    vectors = _check_vectors(nl, vectors)
    if nl.state_latches and len(vectors) != 1:
        raise ValueError("batch evaluation needs a latch-free netlist")
    if nl.clock is not None:
        raise ValueError("netlist has a clock pin; drive it with step_sequential")
    prog = _compiled(nl)
    if nl.state_latches:
        v, first = _settle(nl, prog, tuple(vectors[0]), state, None)
    else:
        v, first = _run(prog, vectors, list(zip(*vectors)), state, None)
    state.faults.extend(first[b] for b in sorted(first))
    return _results(prog, v, first, len(vectors))


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


def load_config(nl: Netlist, bits: ConfigBitstream,
                state: Optional[SimState] = None) -> SimState:
    """Program the configuration latches, in latch_order."""
    if state is None:
        state = SimState()
    if len(bits.bits) != len(nl.latch_order):
        raise ValueError(
            f"bitstream has {len(bits.bits)} bits; fabric has "
            f"{len(nl.latch_order)} configuration latches")
    state.config = dict(zip(nl.latch_order, bits.bits))
    return state


def reset_state(nl: Netlist, digits: Sequence[int],
                state: Optional[SimState] = None) -> SimState:
    """Set every storage group's latches to its reset digit."""
    if state is None:
        state = SimState()
    if len(digits) != len(nl.state_groups):
        raise ValueError(
            f"expected {len(nl.state_groups)} reset digits, got {len(digits)}")
    for group, d in zip(nl.state_groups, digits):
        for gid in group:
            radix = nl.gates[gid].radix
            if not 0 <= d < radix:
                raise ValueError(f"reset digit {d} out of range for radix {radix}")
            state.latches[gid] = d
    return state


def step_sequential(nl: Netlist, inputs: Sequence[int],
                    state: SimState) -> tuple[tuple[int, ...], SimState]:
    """Apply one full clock cycle (low phase, then high) and read outputs.

    Requires every storage element to have been reset first.
    """
    if nl.clock is None:
        raise ValueError("netlist has no clock; use eval_combinational")
    vector = _check_vectors(nl, [inputs])[0]
    prog = _compiled(nl)
    _settle(nl, prog, vector, state, 0)
    v, first = _settle(nl, prog, vector, state, 1)
    result = _results(prog, v, first, 1)[0]
    if isinstance(result, Fault):
        state.faults.append(result)
        raise SimFaultError(result)
    return result, state
