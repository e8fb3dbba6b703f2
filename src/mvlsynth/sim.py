"""Netlist evaluation: combinational settling, clock stepping, configuration.

On first simulation each netlist is lowered into a compiled program, cached
on the netlist: every net gets integer slots, and one flat op list follows
the levelized order of the acyclic core. The lowering consumes, in one
pass, the one record list that the netlist's validate handed over (the
sources first, then the combinational gates in eval order), so it never
walks the gates again. A run evaluates a whole batch of input vectors at
once, bit-parallel: a slot holds one Python int whose bit b belongs to
vector b. A binary net is one mask; a radix-N net is N one-hot masks, one
per level, so TLG(x > t) is the OR of planes t+1..N-1. Gates that compute
the same op on the same slots share one op and one slot: a mux tree's
blocks each decode the same select digit, and the program decodes it once.

Every evaluation is one settle loop: sweep, commit the latch inputs,
repeat until the latch contents stop changing. A settle loads every
source once, checking each value where it sets its plane: the inputs, the
clock phase, the latch contents and the configuration bits. Each sweep
copies those slots and runs the op list; a commit moves a changed latch's
plane. A latch-free batch settles in one sweep. Radix-N storage elements
are sources whose contents live in a SimState; a netlist with them
settles a batch of one. The sweep that would confirm a commit is skipped
when every latch that changed is read only as data by switches that are
off, as in a master-slave flip-flop, so a clock phase costs one sweep.

A switch net is N planes like any radix-N net, and one op per switch-driven
net computes them from all of its drivers in one walk. Every radix-N
source sets exactly one plane per vector and a conducting switch copies
its data's planes (on constant data, only the one plane it sets; a switch
that is off for the whole batch does no work), so a vector is floating on
a switch net when none of its planes is set: no switch conducts, or the
one that does carries a floating value. A floating value is a fault the
moment anything consumes it, and two simultaneously conducting switch
drivers are a contention fault outright. A vector's result is the first
fault it hits in evaluation order: contention when a switch net is
resolved (just before its first reader, or at the end of the pass for
nets nothing reads), floating at a net's first consume. Latches that never
come to rest are an oscillation fault, and reading storage that was never
set (a state latch not reset, a configuration latch not programmed) is an
uninitialized-latch fault. Faults are never masked by default values.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .netlist import (GateType, Netlist, fingerprint, levelized,
                      _AND as _AND_GATE, _CONST as _CONST_GATE, _NOT as _NOT_GATE,
                      _OR as _OR_GATE, _SWITCH as _SWITCH_GATE, _TLG as _TLG_GATE)
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


# -- compiled program ---------------------------------------------------------

# Reserved slots: a sink for planes nothing reads (level 0 of a binary
# net), and the all-zero and all-ones masks that constants alias.
_SINK, _ZERO, _FULL = 0, 1, 2
# The data planes of every switch on constant data.
_ONE = (_FULL,)

# Opcodes. Every op is a 4-tuple (opcode, out, a, b):
#   _NET        (op, net id, drivers, None)
#   _AND/_OR    (op, y, first input slot, other input slots)
#   _NOT        (op, y, input slot, ())
#   _FLOAT      (op, net id, planes, None)
# No two _AND/_OR/_NOT ops share (op, a, b): a later gate with the same key
# reads the earlier one's slot. A switch net of radix N owns N planes and
# is one _NET op, emitted at its first read, after all of its drivers'
# inputs. Each driver is (control slot, first y slot, data planes): a
# conducting switch ORs its data net's planes into the net's, starting at
# y; on constant data, y is the slot of the level it conducts and the data
# planes are _ONE. A driver whose control is 0 costs one test. The op marks
# vectors where two drivers conduct as contention. _FLOAT records as
# floating the vectors in which none of the net's planes is set, where the
# net is consumed.
_NET, _AND, _OR, _NOT, _FLOAT = range(5)


class _Program(NamedTuple):
    """A netlist lowered for bit-parallel runs; built once per netlist."""

    nslots: int
    ops: tuple
    inputs: tuple                   # planes per nl.inputs entry
    clock: Optional[tuple]          # the clock net's planes, if it has one
    config: tuple                   # (gid, slot) per configuration latch
    latches: tuple                  # (gid, q planes, d planes, readers) in
                                    # state_latches order; readers: control
                                    # slots of the switches reading q as
                                    # data, None if anything else reads q
    outputs: tuple                  # planes per nl.outputs entry


def _lower(nl: Netlist, records: list[tuple]
           ) -> tuple[_Program, list[tuple[int, ...]]]:
    """Assign slots and emit the op list from a netlist's levelized
    records, in one pass; also returns each net's planes, by net number.

    A net's planes are the slots of its levels, index = level; a binary
    net is (_SINK, slot). Constants, single-plane comparators and gates
    whose op an earlier gate already computes emit no op: their planes
    alias existing slots.
    """
    gates, nets = nl.gates, nl.nets
    names = list(nets)
    number = dict(zip(names, itertools.count()))
    nslots = 3
    planes: list = [None] * len(names)

    def fresh(i: int) -> None:
        nonlocal nslots
        radix = nets[names[i]]
        first = nslots
        if radix is None:
            nslots += 1
            planes[i] = (_SINK, first)
        else:
            nslots += radix
            planes[i] = tuple(range(first, nslots))

    # Per switch net: its drivers, as the _NET op holds them.
    drivers: dict[int, list[tuple]] = {}
    ops: list[tuple] = []
    resolved: set[int] = set()
    consumed: set[int] = set()
    # Per state latch q net: the control slots of the switches that read it
    # as data, or None once anything else reads it.
    readers: dict[int, Optional[tuple[int, ...]]] = {
        number[gates[gid].pins["q"]]: () for gid in nl.state_latches}

    def read(i: int, consume: bool,
             control: Optional[int] = None) -> tuple[int, ...]:
        if i in readers and readers[i] is not None:
            readers[i] = None if control is None else readers[i] + (control,)
        if i in drivers:
            if i not in resolved:
                resolved.add(i)
                ops.append((_NET, names[i], tuple(drivers[i]), None))
            if consume and i not in consumed:
                consumed.add(i)
                ops.append((_FLOAT, names[i], planes[i], None))
        return planes[i]

    # The binary output of a TLG with two or more planes, a NOT, an AND or
    # an OR takes the next slot, unless an earlier gate computes the same
    # op on the same slots: then it shares that gate's slot and emits no
    # op. Mux blocks repeat their select decoders, so this folds them.
    shared: dict[tuple, int] = {}
    for rec in records:
        g, y = rec[0], rec[1]
        kind = g.kind
        if kind is _TLG_GATE:
            ins = read(rec[2], True)[g.param + 1:]
            if len(ins) <= 1:
                planes[y] = (_SINK, ins[0] if ins else _ZERO)
                continue
            op = _OR
        elif kind is _AND_GATE or kind is _OR_GATE or kind is _NOT_GATE:
            op = _AND if kind is _AND_GATE else _OR if kind is _OR_GATE else _NOT
            ins = [planes[x][1] for x in rec[2:]]
        elif kind is _SWITCH_GATE:  # inputs (d, c)
            c = planes[rec[3]][1]
            d = read(rec[2], False, c)
            if y not in drivers:  # its first driver
                fresh(y)
                drivers[y] = []
            if _ZERO in d:  # constant data: only its conducting level
                drivers[y].append((c, planes[y][d.index(_FULL)], _ONE))
            else:
                drivers[y].append((c, planes[y][0], d))
            continue
        elif kind is _CONST_GATE:
            levels = 2 if g.radix is None else g.radix
            planes[y] = tuple(_FULL if lvl == g.param else _ZERO
                              for lvl in range(levels))
            continue
        else:  # inputs and storage
            fresh(y)
            continue
        key = (op, ins[0], tuple(ins[1:]))
        slot = shared.get(key)
        if slot is None:
            slot = shared[key] = nslots
            nslots += 1
            ops.append((op, slot, key[1], key[2]))
        planes[y] = (_SINK, slot)

    # Contention must surface even on nets nothing happened to read.
    for i in drivers:
        read(i, False)
    for gid in nl.state_latches:
        read(number[gates[gid].pins["d"]], True)
    for gid in nl.outputs:
        read(number[nl.net_of_output(gid)], True)

    def net(gid: str, pin: str) -> tuple[int, ...]:
        return planes[number[gates[gid].pins[pin]]]

    program = _Program(
        nslots=nslots,
        ops=tuple(ops),
        inputs=tuple(net(gid, "y") for gid in nl.inputs),
        clock=None if nl.clock is None else planes[number[nl.clock]],
        config=tuple((gid, net(gid, "q")[1]) for gid in nl.latch_order),
        latches=tuple((gid, net(gid, "q"), net(gid, "d"),
                       readers[number[gates[gid].pins["q"]]])
                      for gid in nl.state_latches),
        outputs=tuple(net(gid, "a") for gid in nl.outputs),
    )
    return program, planes


def _compiled(nl: Netlist) -> _Program:
    """The netlist's program, lowered on first use from the records its
    validate handed over; a netlist without them is levelized first, which
    raises NetlistError if it is invalid."""
    program = nl._program
    if program is None:
        records, nl._records = nl._records or levelized(nl), None
        program = nl._program = _lower(nl, records)[0]
    return program


def _record(first: dict[int, Fault], new: int, kind: FaultKind, ref: str,
            vectors: list) -> None:
    while new:
        low = new & -new
        b = low.bit_length() - 1
        first[b] = Fault(kind, ref, tuple(vectors[b]))
        new ^= low


def _logged(state: SimState, fault: Fault) -> SimFaultError:
    """Log a fault that ends an evaluation; returns the error to raise."""
    state.faults.append(fault)
    return SimFaultError(fault)


def _run(prog: _Program, v: list[int], vectors: list) -> dict[int, Fault]:
    """One bit-parallel sweep over v, whose sources are set and other slots
    0; returns each faulted vector's first fault. Slots of a faulted vector
    hold no meaningful level."""
    full = v[_FULL]
    first: dict[int, Fault] = {}
    already = 0
    for op, y, a, b in prog.ops:
        if op == _NET:
            seen = clash = 0
            for c, y0, d in a:
                c = v[c]
                if c:
                    clash |= seen & c
                    seen |= c
                    for yp, dp in enumerate(d, y0):
                        v[yp] |= c & v[dp]
            new = clash & ~already
            if new:
                already |= new
                _record(first, new, FaultKind.CONTENTION, y, vectors)
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
        else:  # _FLOAT
            r = already
            for s in a:
                r |= v[s]
            new = full ^ r
            if new:
                already |= new
                _record(first, new, FaultKind.FLOATING_NET, y, vectors)
    return first


# The set bit positions of each byte value, low bit first.
_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def _levels(v: list[int], planes: tuple[int, ...], nb: int) -> list[int]:
    """Per-vector level of a net, read off its one-hot planes a byte at a
    time, so the cost is linear in the batch."""
    col = [0] * nb
    nbytes = (nb + 7) >> 3
    for lvl in range(1, len(planes)):
        m = v[planes[lvl]]
        if m:
            base = 0
            for byte in m.to_bytes(nbytes, "little"):
                for bit in _BITS[byte]:
                    col[base + bit] = lvl
                base += 8
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
    conducting driver of a switch net). Levels of clean nets, sources
    included, are read from the run's slots. Only the settle loop's fault
    path builds one; it derives the netlist's records afresh, by the walk
    validate makes.
    """

    def __init__(self, nl: Netlist, v: list[int], vector: tuple[int, ...]):
        self.v, self.vector = v, vector
        records = levelized(nl)
        self.names = list(nl.nets)
        self.number = dict(zip(self.names, itertools.count()))
        self.planes = _lower(nl, records)[1]
        self.drivers: dict[int, list] = {}
        for rec in records:
            self.drivers.setdefault(rec[1], []).append(rec)
        self.memo: dict[int, Union[int, None, Fault]] = {}

    def consume(self, i: int) -> Union[int, Fault]:
        got = self.read(i)
        if got is None:
            return Fault(FaultKind.FLOATING_NET, self.names[i], self.vector)
        return got

    def read(self, i: int) -> Union[int, None, Fault]:
        if i in self.memo:
            return self.memo[i]
        drivers = self.drivers[i]
        if drivers[0][0].kind is GateType.SWITCH:
            live = []
            for _, _, d, c in drivers:
                c = self.consume(c)
                if isinstance(c, Fault):
                    live.append(c)  # a poisoned control conducts its fault
                elif c == 1:
                    live.append(self.read(d))
            poison = next((x for x in live if isinstance(x, Fault)), None)
            if len(live) == 1:
                got = live[0]
            elif len(live) > 1:
                got = poison or Fault(FaultKind.CONTENTION, self.names[i],
                                      self.vector)
            else:
                got = None
        else:
            got = next((x for x in map(self.consume, drivers[0][2:])
                        if isinstance(x, Fault)), None)
            if got is None:
                got = _levels(self.v, self.planes[i], 1)[0]
        self.memo[i] = got
        return got


def _settle(nl: Netlist, prog: _Program, vectors: Sequence, state: SimState,
            phase: Optional[int] = None) -> tuple[list[int], dict[int, Fault]]:
    """Sweep a batch, commit the latch inputs, repeat to rest; phase, if
    given, is the clock's level in every vector. A latch netlist settles a
    batch of one.

    Every source is loaded once, each value checked in the walk that sets
    its plane: the inputs vector by vector and the clock phase, then the
    stored latch levels, then the configuration bits. Each sweep copies
    the loaded slots; a commit that changes a latch moves its plane among
    them.

    A sweep that commits a change is normally followed by another. That
    confirming sweep is skipped when every latch that changed is read only
    as data by switches whose control is 0 in this sweep: those switches
    add nothing whatever the latch holds, so the next sweep would match
    this one in every slot but the changed latches' own planes, which
    nothing reads, and would commit no change.

    A sweep is a function of the inputs and the latch contents, so latch
    contents that recur after a changing sweep never settle. The loop
    sweeps on until the latches settle or, at sweep len(latches) + 2 or
    later, their contents recur: that is an oscillation fault. A transient
    can thus last up to the product of the latch radixes in sweeps.
    """
    sources = [0] * prog.nslots
    n = len(prog.inputs)
    bit = 1
    for vec in vectors:
        if len(vec) != n:
            raise ValueError(f"expected {n} inputs, got {len(vec)}")
        for name, planes, x in zip(nl.inputs, prog.inputs, vec):
            if type(x) is not int or not 0 <= x < len(planes):  # a bool is no digit
                raise ValueError(
                    f"input {name}: value {x!r} out of range 0..{len(planes) - 1}")
            sources[planes[x]] |= bit
        bit <<= 1
    full = sources[_FULL] = bit - 1
    if phase is not None:
        sources[prog.clock[phase]] = full
    latches = state.latches
    for gid, q, _, _ in prog.latches:
        level = latches.get(gid)
        if type(level) is not int or not 0 <= level < len(q):
            if gid not in latches:
                raise _logged(state, Fault(FaultKind.UNINITIALIZED_LATCH, gid))
            raise ValueError(
                f"latch {gid}: stored level {level!r} not in 0..{len(q) - 1}")
        sources[q[level]] = full
    config = state.config
    for gid, s in prog.config:
        bit = config.get(gid)
        if type(bit) is not int or not 0 <= bit <= 1:  # a bool is no bit
            if gid not in config:
                raise _logged(state, Fault(FaultKind.UNINITIALIZED_LATCH, gid))
            raise ValueError(f"configuration latch {gid}: bit {bit!r} is not 0 or 1")
        if bit:
            sources[s] = full
    bound, seen = len(prog.latches) + 2, set()
    for sweep in itertools.count(1):
        v = sources.copy()
        first = _run(prog, v, vectors)
        cone = _Cone(nl, v, tuple(vectors[0])) if first and prog.latches else None
        changed = []
        for gid, q, d, readers in prog.latches:
            if cone is None:  # a clean sweep of one vector: one plane is 1
                new = [v[s] for s in d].index(1)
            else:
                new = cone.consume(cone.number[nl.gates[gid].pins["d"]])
                if isinstance(new, Fault):
                    raise _logged(state, new)
            if latches[gid] != new:
                sources[q[latches[gid]]] = 0
                sources[q[new]] = full
                latches[gid] = new
                changed.append((gid, readers))
        if not changed or all(
                readers is not None and not any(v[c] for c in readers)
                for _, readers in changed):
            return v, first
        contents = tuple(latches[gid] for gid, _, _, _ in prog.latches)
        if sweep >= bound and contents in seen:
            # name the first latch that changed in this sweep
            raise _logged(state, Fault(FaultKind.OSCILLATION, changed[0][0],
                                       tuple(vectors[0])))
        seen.add(contents)


def eval_vectors(nl: Netlist, vectors: Sequence[Sequence[int]],
                 state: Optional[SimState] = None,
                 ) -> list[Union[tuple[int, ...], Fault]]:
    """Batch-evaluate a combinational netlist, one result per input vector.

    Each result is the output tuple, or the first Fault the vector hit.
    Faults are also appended to the state's log.
    """
    if state is None:
        state = SimState()
    if nl.state_latches and len(vectors) != 1:
        raise ValueError("batch evaluation needs a latch-free netlist")
    if nl.clock is not None:
        raise ValueError("netlist has a clock pin; drive it with step_sequential")
    prog = _compiled(nl)
    v, first = _settle(nl, prog, vectors, state)
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
    """Program the configuration latches, in latch_order. A stream that
    carries a fingerprint must carry this fabric's."""
    if state is None:
        state = SimState()
    if bits.fingerprint is not None and bits.fingerprint != fingerprint(nl):
        raise ValueError(
            f"bitstream fingerprint {bits.fingerprint} does not match the "
            f"netlist ({fingerprint(nl)}); refusing to load")
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
    resets = [(gid, d) for group, d in zip(nl.state_groups, digits)
              for gid in group]
    for gid, d in resets:  # every digit is checked before the first write
        radix = nl.gates[gid].radix
        if type(d) is not int or not 0 <= d < radix:
            raise ValueError(f"reset digit {d!r} out of range for radix {radix}")
    state.latches.update(resets)
    return state


def step_sequential(nl: Netlist, inputs: Sequence[int],
                    state: SimState) -> tuple[tuple[int, ...], SimState]:
    """Apply one full clock cycle (low phase, then high) and read outputs.

    Requires every storage element to have been reset first.
    """
    if nl.clock is None:
        raise ValueError("netlist has no clock; use eval_combinational")
    prog = _compiled(nl)
    for phase in (0, 1):
        v, first = _settle(nl, prog, [inputs], state, phase)
    result = _results(prog, v, first, 1)[0]
    if isinstance(result, Fault):
        raise _logged(state, result)
    return result, state
