"""Netlist evaluation: combinational settling, clock stepping, configuration.

On first simulation each netlist is lowered into a compiled program,
cached on the netlist: every net gets integer slots, and one flat op list
follows the levelized order of the acyclic core. The lowering consumes, in
one pass, the one record list that the netlist's validate handed over (the
sources first, then the combinational gates in eval order) with the net
numbering it carries, so it never walks the gates again. A run evaluates a
whole batch of input vectors at once, bit-parallel: a slot holds one
Python int whose bit b belongs to vector b. A binary net is one mask; a
radix-N net is N one-hot masks, one per level. So a binary net that TLG,
NOT, AND and OR gates make from one radix-N net x is a set of x's levels
and needs no op: x > t is levels t+1..N-1, NOT the complement, AND and OR
the intersection and union. It takes a slot only when a reader needs one:
one level aliases x's plane, no level the all-zero slot, more levels share
one OR op. A threshold decoder's one-hot lines are thus x's own planes. A
switch net whose drivers all carry constants, under controls that are
disjoint level sets of one x covering all of x's levels, is a level
function of x: each of its planes is the union of its drivers' sets, and
it needs no op either. A mux block on constants and a one-digit table are
such nets. Other gates that compute the same op on the same slots share
one op and one slot.

A load sets every source but the clock once, checking each value where
it sets its plane: the inputs, the latch contents and the configuration
bitstream held in SimState.config. A bitstream is checked once when it is
made (ConfigBitstream refuses any bit but 0 and 1, and keeps a tuple), and
by one check (its type, its fingerprint, its length) wherever it enters:
load_config, every load and every sweep of a program's own rows (below),
so a stream assigned by hand is refused as load_config would refuse it.
The load then sets the plane of each 1 bit with no per-bit test.

A latch-free program's own exhaustive rows, built on first use and kept,
take one path and no load: the sweep runs the stream check, and the first
sweep sets every input level's plane in closed form, with no per-value
check since the program generated every value, and runs every op. Under a
bitstream the program keeps that sweep (its stream's key, its slots and
each faulting op's raw fault mask). The next sweep takes it, leaving
nothing kept, sets only the configuration planes whose bits changed and
reruns only the ops they reach, in op order and in place (selective
re-evaluation, after Ulrich, "Exclusive simulation of activity in digital
networks", CACM 1969), then keeps it again once read. The changed bits are
the XOR of two keys, each packed by ConfigBitstream as it checks its bits,
and what to rerun for them is a plan: the slots to set, the ops, the
planes to clear and the masks to drop. The program keeps the plan of each
change of one or two bits, up to two per latch. So a fabric checked with
each bit of its stream flipped in turn, each check two bits from the last,
reruns a handful of ops per check from a kept plan and copies no slot, and
a check that overlaps another on one program finds nothing kept and
sweeps afresh. The program also keeps the last check's wanted planes, as
concurrent fault simulation keeps the good machine's response (Ulrich and
Baker, IEEE Computer 1974). A sweep with no bitstream keeps only the rows.
Sampled or caller-given vectors and a netlist with state latches or a
clock take the load and settle loop below.

On that load runs one settle loop: sweep, commit the latch inputs, repeat
until the latch contents stop changing. Each sweep copies the loaded
slots and runs the op list; a commit moves a changed latch's plane among
them, so they stay the load of the latch contents. A latch-free batch
settles in one sweep. Radix-N storage elements are sources whose contents
live in a SimState; a netlist with them settles a batch of one. A clock
step settles twice on one load, setting the clock at level 0 and then 1, and
check_fsm_equivalence carries that load through a whole sequence: each
later step clears and reloads only the input planes. The sweep that would
confirm a commit is skipped when every latch that changed is read only as
data by switches that are off, as in a master-slave flip-flop, so a clock
phase costs one sweep.

A switch net is N planes like any radix-N net, and one op per switch-driven
net that is no level function computes them from all of its drivers in
one walk. Every radix-N source sets exactly one plane per vector and a
conducting switch copies its data's planes (on constant data, only the one
plane it sets; a switch that is off for the whole batch does no work), so
a vector is floating on a switch net when none of its planes is set: no
switch conducts, or the one that does carries a floating value. A floating
value is a fault the moment anything consumes it, and two simultaneously
conducting switch drivers are a contention fault outright. A vector's
result is the first fault it hits in evaluation order: contention when a
switch net is resolved (just before its first reader, or at the end of the
pass for nets nothing reads), floating at a net's first consume. Each op
that faults records its raw mask, every vector it faults, and a vector's
first fault is the earliest op whose mask holds it; so an op not rerun
keeps its mask, and full and partial sweeps report alike. Level
sets and functions of x change no fault: the TLGs still consume x where
the netlist does, so a floating or contending x is logged before anything
reads them, and for a clean x exactly one of a level function's drivers
conducts. Latches that never come to rest are an oscillation fault, and
reading storage that was never set (a state latch not reset, a
configuration latch not programmed) is an uninitialized-latch fault.
Faults are never masked by default values.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .netlist import (GateType, Netlist, fingerprint, levelized,
                      _AND as _AND_GATE, _CONST as _CONST_GATE,
                      _NOT as _NOT_GATE, _OR as _OR_GATE,
                      _SWITCH as _SWITCH_GATE, _TLG as _TLG_GATE)
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

    def __init__(self, kind: FaultKind, ref: str,
                 vector: Optional[tuple[int, ...]] = None):
        # fill the fields' dict once, not through the frozen class's
        # object.__setattr__ per field: a check builds one per failing vector
        d = self.__dict__
        d["kind"], d["ref"], d["vector"] = kind, ref, vector

    def describe(self) -> str:
        at = f" at inputs {self.vector}" if self.vector is not None else ""
        return f"{self.kind.value} on {self.ref}{at}"


class SimFaultError(RuntimeError):
    def __init__(self, fault: Fault):
        super().__init__(fault.describe())
        self.fault = fault


@dataclass
class SimState:
    """Simulator-owned storage: configuration bitstream (None while the
    fabric is unprogrammed), latch values, fault log.

    Single-owner during an evaluation; distinct states over one shared
    netlist may run in parallel.
    """

    config: Optional[ConfigBitstream] = None
    latches: dict[str, int] = field(default_factory=dict)
    faults: list[Fault] = field(default_factory=list)


# -- compiled program ---------------------------------------------------------

# Reserved slots: a sink for planes nothing reads (level 0 of a binary
# net), and the all-zero and all-ones masks that constants alias.
_SINK, _ZERO, _FULL = 0, 1, 2
# The data planes of every switch on constant data.
_ONE = (_FULL,)

# Opcodes. Every op is a 4-tuple (opcode, out, a, b):
#   _NET        (op, net id, drivers, its index in the op list)
#   _AND/_OR    (op, y, first input slot, other input slots)
#   _NOT        (op, y, input slot, ())
#   _FLOAT      (op, net id, planes, its index in the op list)
# No two _AND/_OR/_NOT ops share (op, a, b): a later gate with the same key
# reads the earlier one's slot. A switch net of radix N owns N planes and
# is one _NET op, emitted at its first read, after all of its drivers'
# inputs. Each driver is (control slot, first y slot, data planes): a
# conducting switch ORs its data net's planes into the net's, starting at
# y; on constant data, y is the slot of the level it conducts and the data
# planes are _ONE. A driver whose control is 0 costs one test. The op marks
# vectors where two drivers conduct as contention. _FLOAT records as
# floating the vectors in which none of the net's planes is set, where the
# net is consumed. A level function has neither op. Both record their
# faults under their own index, which orders them.
_NET, _AND, _OR, _NOT, _FLOAT = range(5)


@dataclass(slots=True)
class _Program:
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
    # the radix per nl.inputs entry, per nl.state_latches entry, and per
    # nl.state_groups entry its latches' (gid, radix) pairs
    radixes: tuple[tuple, tuple, tuple]
    # Every input vector in row order, built by _exhaustive on first use.
    rows: Optional[tuple] = field(default=None, repr=False, compare=False)
    # (key, slots, masks) of the last sweep of those rows under a
    # bitstream: its bits as ConfigBitstream packs them (byte k is bit k),
    # the sweep's slot list and each faulting op's raw fault mask, by op
    # index. A check takes it (None is left) and keeps it again once read,
    # so no two checks share the lists that _resweep rewrites in place.
    kept: Optional[tuple[int, list[int], dict[int, int]]] = field(
        default=None, repr=False, compare=False)
    # (wants, code, planes) of the last check: its wanted levels as a
    # tuple, their bytes as _misses translates them, and each level's
    # wanted plane built so far.
    wanted: Optional[tuple] = field(default=None, repr=False, compare=False)
    # Per configuration latch, the indices of the ops its plane reaches,
    # and each _NET op's planes; built by _cones on first need.
    cones: Optional[tuple] = field(default=None, repr=False, compare=False)
    # The rerun of each change of one or two bits to the kept stream, by
    # the two keys XORed, as _plan builds it: at most two per latch.
    plans: dict[int, tuple] = field(default_factory=dict, repr=False,
                                    compare=False)
    # The netlist's fingerprint, hashed by _stream_bits at the first check
    # of a stream that carries one.
    fingerprint: Optional[str] = field(default=None, repr=False, compare=False)


def _lower(nl: Netlist, records: list[tuple]
           ) -> tuple[_Program, list, list]:
    """Assign slots and emit the op list from a netlist's levelized
    records, in one pass; also returns each net's planes and level sets,
    by net number. The net numbering is the one the records carry, built
    by the levelized walk that made them, so it is dropped with them.

    A net's planes are the slots of its levels, index = level; a binary
    net is (_SINK, slot). A binary net that TLG, NOT, AND and OR make from
    one radix-N net x is a level set of x, (x, mask): it is 1 when x's
    level is a set bit of mask. A switch net whose drivers all carry
    constants, under controls that are disjoint level sets of one x
    covering all of x's levels, is a level function of x, (x, masks):
    plane k is set when x's level is in masks[k]. Either takes slots only
    when a reader needs them, so a net may have no planes (None): no level
    aliases _ZERO, one aliases x's plane, more share one _OR op. Constants
    and gates whose op an earlier gate already computes emit no op either.
    """
    gates, nets, number = nl.gates, nl.nets, records.number
    names = list(number)
    nslots = 3
    planes: list = [None] * len(names)
    sets: list = [None] * len(names)     # level sets and level functions
    consts: list = [None] * len(names)   # each constant net's level

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

    # No two _AND/_OR/_NOT ops share a key: a later gate or level set with
    # the same key shares the earlier one's slot. Mux blocks each decode
    # the same select digit, so their sets of several levels recur.
    shared: dict[tuple, int] = {}

    def emit(op: int, ins: list[int]) -> int:
        nonlocal nslots
        key = (op, ins[0], tuple(ins[1:]))
        slot = shared.get(key)
        if slot is None:
            slot = shared[key] = nslots
            nslots += 1
            ops.append((op, slot, key[1], key[2]))
        return slot

    def union(x: int, mask: int) -> int:
        if not mask & (mask - 1):  # no level or one
            return planes[x][mask.bit_length() - 1] if mask else _ZERO
        return emit(_OR, [s for lvl, s in enumerate(planes[x]) if mask >> lvl & 1])

    def slots(i: int) -> tuple[int, ...]:
        """Net i's planes, given slots at its first reader that needs them."""
        got = planes[i]
        if got is None:
            x, mask = sets[i]
            if type(mask) is int:
                got = (_SINK, union(x, mask))
            else:
                got = tuple(union(x, m) for m in mask)
            planes[i] = got
        return got

    # Per switch net: its drivers, as the _NET op holds them. While every
    # driver so far carries a constant under a level set, the net has no
    # planes and each driver is (control net, level).
    drivers: dict[int, list[tuple]] = {}
    ops: list[tuple] = []
    resolved: set[int] = set()
    consumed: set[int] = set()
    # Per state latch q net: the control slots of the switches that read it
    # as data, or None once anything else reads it.
    readers: dict[int, Optional[tuple[int, ...]]] = {
        number[gates[gid].pins["q"]]: () for gid in nl.state_latches}

    def spill(y: int) -> None:
        """Give switch net y its planes, and its constant drivers theirs."""
        fresh(y)
        py = planes[y]
        drivers[y] = [(slots(c)[1], py[lvl], _ONE) for c, lvl in drivers[y]]

    def function(y: int) -> bool:
        """Make switch net y a level function if its drivers' controls are
        disjoint level sets of one net that cover all of its levels."""
        x, seen, masks = None, 0, [0] * nets[names[y]]
        for c, lvl in drivers[y]:
            got = sets[c]
            if got is None or x is not None and got[0] != x or got[1] & seen:
                return False
            x, mask = got
            seen |= mask
            masks[lvl] |= mask
        if x is None or seen != (1 << len(planes[x])) - 1:
            return False
        sets[y] = (x, tuple(masks))
        del drivers[y]
        return True

    def read(i: int, consume: bool, control: Optional[int] = None) -> None:
        """Note a read of radix-N net i: a switch net is resolved at its
        first read, as a level function or by its _NET op, and gets its
        _FLOAT op at its first consume."""
        if i in readers and readers[i] is not None:
            readers[i] = None if control is None else readers[i] + (control,)
        if i in drivers:
            if i not in resolved:
                resolved.add(i)
                if planes[i] is None:  # constants under level sets, all of them
                    if function(i):  # it can neither float nor contend
                        return
                    spill(i)
                ops.append((_NET, names[i], tuple(drivers[i]), len(ops)))
            if consume and i not in consumed:
                consumed.add(i)
                ops.append((_FLOAT, names[i], planes[i], len(ops)))

    for rec in records:
        g, y = rec[0], rec[1]
        kind = g.kind
        if kind is _TLG_GATE:
            x = rec[2]
            read(x, True)
            got = sets[x]
            if got is None:  # levels param+1..N-1 of x
                sets[y] = (x, (1 << len(planes[x])) - (1 << (g.param + 1)))
            else:  # a level function's planes param+1..N-1
                x, masks = got
                mask = 0
                for m in masks[g.param + 1:]:
                    mask |= m
                sets[y] = (x, mask)
            continue
        if kind is _NOT_GATE:
            got = sets[rec[2]]
            if got is not None:
                x, mask = got
                sets[y] = (x, mask ^ ((1 << len(planes[x])) - 1))
                continue
            op = _NOT
        elif kind is _AND_GATE or kind is _OR_GATE:
            got = sets[rec[2]]
            if got is not None:
                x, mask = got
                for a in rec[3:]:
                    got = sets[a]
                    if got is None or got[0] != x:
                        break
                    mask = mask & got[1] if kind is _AND_GATE else mask | got[1]
                else:  # all are level sets of x
                    sets[y] = (x, mask)
                    continue
            op = _AND if kind is _AND_GATE else _OR
        elif kind is _SWITCH_GATE:  # inputs (d, c)
            d = rec[2]
            lvl = consts[d]
            ds = drivers.get(y)
            if ds is None:  # its first driver
                ds = drivers[y] = []
            py = planes[y]
            if py is None:
                if lvl is not None and sets[rec[3]] is not None:
                    ds.append((rec[3], lvl))  # it may yet be a level function
                    continue
                spill(y)
                py, ds = planes[y], drivers[y]
            c = (planes[rec[3]] or slots(rec[3]))[1]
            if lvl is not None:  # constant data: only its conducting level
                ds.append((c, py[lvl], _ONE))
            else:
                read(d, False, c)
                ds.append((c, py[0], planes[d] or slots(d)))
            continue
        elif kind is _CONST_GATE:
            lvl = consts[y] = g.param
            n = 2 if g.radix is None else g.radix
            planes[y] = (_ZERO,) * lvl + (_FULL,) + (_ZERO,) * (n - 1 - lvl)
            continue
        else:  # inputs and storage
            fresh(y)
            continue
        planes[y] = (_SINK, emit(op, [(planes[a] or slots(a))[1] for a in rec[2:]]))

    # Contention must surface even on nets nothing happened to read.
    for i in list(drivers):
        read(i, False)
    for gid in nl.state_latches:
        read(number[gates[gid].pins["d"]], True)
    for gid in nl.outputs:
        read(number[nl.net_of_output(gid)], True)

    def net(gid: str, pin: str) -> tuple[int, ...]:
        return slots(number[gates[gid].pins[pin]])

    # the outputs and latch inputs may take their slots only now
    latches = tuple((gid, net(gid, "q"), net(gid, "d"),
                     readers[number[gates[gid].pins["q"]]])
                    for gid in nl.state_latches)
    outputs = tuple(net(gid, "a") for gid in nl.outputs)
    program = _Program(
        nslots=nslots,
        ops=tuple(ops),
        inputs=tuple(net(gid, "y") for gid in nl.inputs),
        clock=None if nl.clock is None else planes[number[nl.clock]],
        config=tuple((gid, net(gid, "q")[1]) for gid in nl.latch_order),
        latches=latches,
        outputs=outputs,
        radixes=(tuple([gates[gid].radix for gid in nl.inputs]),
                 tuple([gates[gid].radix for gid in nl.state_latches]),
                 tuple([tuple([(gid, gates[gid].radix) for gid in group])
                        for group in nl.state_groups])),
    )
    return program, planes, sets


def _compiled(nl: Netlist) -> _Program:
    """The netlist's program, lowered on first use from the records its
    validate handed over; a netlist without them is levelized first, which
    raises NetlistError if it is invalid. The simulator's callers read port
    radixes off it: the walk that compiled it checked every list they come
    from."""
    program = nl._program
    if program is None:
        records, nl._records = nl._records or levelized(nl), None
        program = nl._program = _lower(nl, records)[0]
    return program


def _exhaustive(nl: Netlist) -> tuple[tuple[int, ...], ...]:
    """Every input vector of nl in row order (MS-first digits: vector k is
    row k), built on first use and kept with the compiled program."""
    prog = _compiled(nl)
    if prog.rows is None:
        prog.rows = tuple(itertools.product(*(range(len(p)) for p in prog.inputs)))
    return prog.rows


def _logged(state: SimState, fault: Fault) -> SimFaultError:
    """Log a fault that ends an evaluation; returns the error to raise."""
    state.faults.append(fault)
    return SimFaultError(fault)


def _run(ops: Sequence[tuple], v: list[int], masks: dict[int, int]) -> None:
    """One bit-parallel sweep of ops over v, whose sources are set and
    whose planes that a _NET op ORs into are 0. Each _NET or _FLOAT op that
    faults a vector stores its raw fault mask in masks, under its index:
    every vector it faults, whether or not an earlier op faulted it first.
    Slots of a faulted vector hold no meaningful level."""
    full = v[_FULL]
    for op, y, a, b in ops:
        if op == _NET:
            seen = clash = 0
            for c, y0, d in a:
                c = v[c]
                if c:
                    clash |= seen & c
                    seen |= c
                    for yp, dp in enumerate(d, y0):
                        v[yp] |= c & v[dp]
            if clash:
                masks[b] = clash
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
            r = 0
            for s in a:
                r |= v[s]
            if r != full:
                masks[b] = full ^ r


def _first(prog: _Program, masks: dict[int, int],
           vectors: Sequence) -> list[tuple[int, Fault]]:
    """Each faulted vector's first fault, the earliest op whose raw mask
    holds the vector, as (vector, Fault) pairs in vector order. One
    faulting op's mask is read in that order, so only the faults of
    several ops are sorted."""
    first: list[tuple[int, Fault]] = []
    already = 0
    for i in sorted(masks) if len(masks) > 1 else masks:
        new = masks[i] & ~already
        already |= new
        op, ref = prog.ops[i][:2]
        kind = FaultKind.CONTENTION if op == _NET else FaultKind.FLOATING_NET
        while new:
            low = new & -new
            b = low.bit_length() - 1
            first.append((b, Fault(kind, ref, tuple(vectors[b]))))
            new ^= low
    if len(masks) > 1:
        first.sort()  # no two pairs share a vector, so no Fault is compared
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


def _level(v: list[int], planes: tuple[int, ...], bit: int = 1) -> int:
    """One clean vector's level: its net's highest plane set at the
    vector's bit, the only bit of a batch of one. Level 0 of a binary net
    is _SINK, which holds no level, so plane 0 is never read."""
    lvl = len(planes) - 1
    while lvl and not v[planes[lvl]] & bit:
        lvl -= 1
    return lvl


def _results(prog: _Program, v: list[int], first: list[tuple[int, Fault]],
             nb: int) -> list[Union[tuple[int, ...], Fault]]:
    cols = [_levels(v, planes, nb) for planes in prog.outputs]
    results: list = list(zip(*cols)) if cols else [()] * nb
    for b, fault in first:
        results[b] = fault
    return results


class _Cone:
    """Which Fault a settling pass carried into a latch input.

    The run keeps masks only, so when a pass hit a fault this walks back
    from a latch's d net through the netlist and derives the value the net
    held for the one vector: a level, None for floating, or the Fault
    poisoning it (first poisoned input of a gate, first poisoned
    conducting driver of a switch net). A source's level is read from the
    run's slots, at the planes the program's inputs, clock, config and
    latches fields give it; a constant's is its gate's param. A gate's
    level is computed from its inputs' levels, since a level set or
    function may have no slot. Only the settle loop's fault path builds
    one; it derives the netlist's drivers afresh, by the walk validate
    makes.
    """

    def __init__(self, nl: Netlist, prog: _Program, v: list[int],
                 vector: tuple[int, ...]):
        self.v, self.vector = v, vector
        records = levelized(nl)
        number = self.number = records.number
        self.names = list(number)
        gates = nl.gates

        def net(gid: str, pin: str) -> int:
            return number[gates[gid].pins[pin]]

        # each input's and storage element's planes, as the program loads them
        sources = {net(gid, "y"): p for gid, p in zip(nl.inputs, prog.inputs)}
        sources.update((net(gid, "q"), (_SINK, s)) for gid, s in prog.config)
        sources.update((net(gid, "q"), q) for gid, q, _, _ in prog.latches)
        if nl.clock is not None:
            sources[number[nl.clock]] = prog.clock
        self.sources = sources
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
            g, _, *ins = drivers[0]
            got = next((x for x in map(self.consume, ins)
                        if isinstance(x, Fault)), None)
            if got is None:
                got = self._gate_level(g, [self.memo[x] for x in ins], i)
        self.memo[i] = got
        return got

    def _gate_level(self, g, ins: list[int], i: int) -> int:
        """The level gate g drives onto net i from its clean input levels."""
        kind = g.kind
        if kind is GateType.TLG:
            return int(ins[0] > g.param)
        if kind is GateType.NOT:
            return 1 - ins[0]
        if kind is GateType.AND:
            return int(all(ins))
        if kind is GateType.OR:
            return int(any(ins))
        if kind is GateType.CONST:
            return g.param
        return _level(self.v, self.sources[i])  # an input or storage


def _load_inputs(nl: Netlist, prog: _Program, vectors: Sequence,
                 sources: list[int]) -> int:
    """Set the input planes of a batch in sources, checking each value in
    the walk that sets its plane; returns the batch's all-ones mask."""
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
    return bit - 1


def _load(nl: Netlist, prog: _Program, vectors: Sequence,
          state: SimState) -> list[int]:
    """Every source of a settle but the clock, loaded once.

    Each value is checked in the walk that sets its plane: the inputs
    vector by vector, then the stored latch levels, then the bitstream in
    state.config, by _config_bits.
    """
    sources = [0] * prog.nslots
    full = sources[_FULL] = _load_inputs(nl, prog, vectors, sources)
    latches = state.latches
    for gid, q, _, _ in prog.latches:
        level = latches.get(gid)
        if type(level) is not int or not 0 <= level < len(q):
            if gid not in latches:
                raise _logged(state, Fault(FaultKind.UNINITIALIZED_LATCH, gid))
            raise ValueError(
                f"latch {gid}: stored level {level!r} not in 0..{len(q) - 1}")
        sources[q[level]] = full
    # with neither, no call: step_sequential loads on every step
    if state.config is not None or prog.config:
        for _, s in itertools.compress(prog.config, _config_bits(nl, prog, state)):
            sources[s] = full
    return sources


def _config_bits(nl: Netlist, prog: _Program,
                 state: SimState) -> tuple[int, ...]:
    """The bits of the bitstream in state.config, after load_config's one
    check, whoever stored it; each 1 bit's plane is then set in
    prog.config order with no per-bit test, since ConfigBitstream checked
    every bit when it was made. A program with configuration latches and
    no bitstream is an uninitialized-latch fault on the first of them; one
    with neither has no bits."""
    if state.config is not None:
        return _stream_bits(nl, prog, state.config)
    if prog.config:
        raise _logged(state, Fault(FaultKind.UNINITIALIZED_LATCH, prog.config[0][0]))
    return ()


def _settle(nl: Netlist, prog: _Program, vectors: Sequence, state: SimState,
            sources: list[int]) -> tuple[list[int], dict[int, int]]:
    """Sweep a batch from its loaded sources, commit the latch inputs,
    repeat to rest; returns the last sweep's slots and raw fault masks. A
    latch netlist settles a batch of one; a clocked one settles once per
    clock phase on one load. Each sweep copies the loaded slots; a commit
    that changes a latch moves its plane among them, so they stay the load
    of state.latches. A clean sweep holds a latch whose plane at its stored
    level is still set, and reads the level of any other off its d planes.

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
    full = sources[_FULL]
    latches = state.latches
    bound, seen = len(prog.latches) + 2, set()
    for sweep in itertools.count(1):
        v = sources.copy()
        masks: dict[int, int] = {}
        _run(prog.ops, v, masks)
        cone = (_Cone(nl, prog, v, tuple(vectors[0]))
                if masks and prog.latches else None)
        changed = []
        for gid, q, d, readers in prog.latches:
            old = latches[gid]
            if cone is None:  # a clean sweep of one vector: one plane is 1
                if v[d[old]]:
                    continue  # it holds
                new = _level(v, d)
            else:
                new = cone.consume(cone.number[nl.gates[gid].pins["d"]])
                if isinstance(new, Fault):
                    raise _logged(state, new)
                if new == old:
                    continue
            sources[q[old]] = 0
            sources[q[new]] = full
            latches[gid] = new
            changed.append((gid, readers))
        if not changed or all(
                readers is not None and not any(v[c] for c in readers)
                for _, readers in changed):
            return v, masks
        contents = tuple(latches[gid] for gid, _, _, _ in prog.latches)
        if sweep >= bound and contents in seen:
            # name the first latch that changed in this sweep
            raise _logged(state, Fault(FaultKind.OSCILLATION, changed[0][0],
                                       tuple(vectors[0])))
        seen.add(contents)


def eval_vectors(nl: Netlist, vectors: Sequence[Sequence[int]],
                 state: Optional[SimState] = None,
                 ) -> list[Union[tuple[int, ...], Fault]]:
    """Batch-evaluate a combinational netlist, one result per input vector:
    the sweep of _sweep, read by _results.

    Each result is the output tuple, or the first Fault the vector hit.
    Faults are also appended to the state's log.
    """
    if state is None:
        state = SimState()
    if nl.state_latches and len(vectors) != 1:
        raise ValueError("batch evaluation needs a latch-free netlist")
    if nl.clock is not None:
        raise ValueError("netlist has a clock pin; drive it with step_sequential")
    return _sweep(nl, vectors, state, _results, len(vectors))


def _sweep(nl: Netlist, vectors: Sequence, state: SimState, read, arg):
    """Sweep a batch of a clock-free netlist, log its faults in vector
    order, and return read(prog, v, first, arg): the program, the sweep's
    slots, the (vector, first fault) pairs _first gives in vector order,
    which both the log and the reader take as they are, and the reader's
    argument.
    The program's own rows take _resweep, whose sweep under a bitstream is
    kept only once it has been read, so no other check rewrites the slots
    while they are read; any other batch takes a load and the settle loop."""
    prog = _compiled(nl)
    swept = None
    if vectors is prog.rows and vectors is not None and not prog.latches:
        swept = _resweep(nl, prog, vectors, state)
        _, v, masks = swept
    else:
        v, masks = _settle(nl, prog, vectors, state,
                           _load(nl, prog, vectors, state))
    first = _first(prog, masks, vectors)
    state.faults.extend([fault for _, fault in first])
    got = read(prog, v, first, arg)
    if swept is not None and state.config is not None:
        prog.kept = swept
    return got


# Per level l, the table translating byte l to b"1" and others to b"0".
_WANTED: dict[int, bytes] = {}


def _misses(prog: _Program, v: list[int], first: list[tuple[int, Fault]],
            wants: Sequence[int]) -> list[tuple[int, Union[tuple[int, ...], Fault]]]:
    """The vectors b of a one-output sweep whose result is not (wants[b],),
    in ascending order, each with its result: its first fault, or its level
    decoded off the planes at bit b. A clean vector is right when its plane
    at its wanted level is set; a level's wanted plane is the wants, as
    bytes in reverse, translated into a binary numeral in C, and is built
    only when a clean vector sits at that level. The program keeps the last
    wants, as a tuple, and the planes built from them, which a check whose
    wants are that tuple, or equal to it, reuses. Level 0 is the clean
    vectors with no higher plane set, as a binary net's plane 0 is _SINK,
    and a want the output cannot carry meets no plane."""
    planes = prog.outputs[0]
    live = v[_FULL]  # the clean vectors
    for b, _ in first:
        live ^= 1 << b
    wanted = prog.wanted
    if wanted is None or wanted[0] is not wants:
        wants = tuple(wants)  # what is kept is what no caller can change
        if wanted is None or wanted[0] != wants:
            wanted = prog.wanted = (wants, bytes(wants)[::-1], {})
    _, code, made = wanted
    ok = rest = 0
    for lvl in range(len(planes) - 1, -1, -1):
        got = v[planes[lvl]] & live if lvl else live ^ rest
        if got:
            rest |= got
            want = made.get(lvl)
            if want is None:
                table = _WANTED.get(lvl)
                if table is None:
                    table = _WANTED[lvl] = b"0" * lvl + b"1" + b"0" * (255 - lvl)
                want = made[lvl] = int(code.translate(table), 2)
            ok |= got & want
    bad = live ^ ok
    if not bad:
        return first
    out = []
    while bad:
        low = bad & -bad
        bad ^= low
        out.append((low.bit_length() - 1, (_level(v, planes, low),)))
    if first:
        out += first
        out.sort()  # by vector; no two pairs share one, so no result is compared
    return out


# Held by a check while it takes a program's kept sweep, or stores a plan.
_TAKE = threading.Lock()


def _resweep(nl: Netlist, prog: _Program, rows: tuple, state: SimState
             ) -> tuple[int, list[int], dict[int, int]]:
    """Sweep a latch-free program's own exhaustive rows, after the one
    stream check; returns the sweep as prog.kept holds it, (key, slots,
    masks), which _sweep keeps under a bitstream once it is read.

    The first sweep sets every input level's plane in closed form, in a
    fresh slot list: for a port of radix r whose later ports span w rows,
    bit k of level l's plane is set iff (k // w) % r == l. It sets the
    stream's planes and runs every op. A later one takes the kept sweep,
    leaving None, so a check that overlaps it (another thread, or a call
    from within _run) sweeps afresh, and an exception keeps nothing
    half-written. In place, it follows the plan of the bits that changed,
    found by XORing the two streams' keys: it sets their configuration
    planes, clears each rerun _NET op's planes and each rerun op's mask,
    and reruns only the ops those planes reach, in op order. Every other
    slot, and every other op's raw fault mask, is a function of planes
    that did not change, so it holds what a full sweep would give it. A
    stream with the kept key returns the kept sweep as it is.
    """
    bits = _config_bits(nl, prog, state)
    key = state.config._key if bits else 0
    with _TAKE:  # a read then a write: no two checks take one sweep
        kept, prog.kept = prog.kept, None
    if kept is None:
        v = [0] * prog.nslots
        full = v[_FULL] = (1 << len(rows)) - 1
        w = len(rows)
        for planes in prog.inputs:
            repeat = full // ((1 << w) - 1)  # a 1 every r * (w // r) bits
            w //= len(planes)
            block = (1 << w) - 1
            for lvl, s in enumerate(planes):  # _SINK is shared: OR into it
                v[s] |= (block << (lvl * w)) * repeat
        for _, s in itertools.compress(prog.config, bits):
            v[s] = full
        masks: dict[int, int] = {}
        _run(prog.ops, v, masks)
        return key, v, masks
    old, v, masks = kept
    diff = key ^ old
    if not diff:  # the kept sweep is this stream's
        return kept
    sets, ops, clear, drop = prog.plans.get(diff) or _plan(prog, diff)
    full = v[_FULL]
    for k, s in sets:
        v[s] = full if bits[k] else 0
    for s in clear:
        v[s] = 0
    for i in drop:
        masks.pop(i, None)
    _run(ops, v, masks)
    return key, v, masks


def _plan(prog: _Program, diff: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The rerun of a change to the kept stream, diff being the two keys
    XORed (bit 8k is set when bit k changed): each changed bit's index and
    configuration slot, the ops their cones reach in op order, the planes
    of those that are _NET ops, and the indices of those that record a
    fault mask. A change of one or two bits, as a flip makes, is kept in
    prog.plans, which is emptied when it holds two plans per latch; a
    wider one, such as another table's stream, is built for its check."""
    cones, planes = prog.cones or _cones(prog)
    changed = []
    rest = diff
    while rest:
        low = rest & -rest
        changed.append(low.bit_length() >> 3)
        rest ^= low
    ops = tuple(prog.ops[i] for i in sorted({i for k in changed for i in cones[k]}))
    plan = (tuple((k, prog.config[k][1]) for k in changed), ops,
            tuple(s for op, _, _, b in ops if op == _NET for s in planes[b]),
            tuple(b for op, _, _, b in ops if op == _NET or op == _FLOAT))
    if len(changed) <= 2:
        with _TAKE:  # emptied and filled by one check at a time
            if len(prog.plans) >= 2 * len(prog.config):
                prog.plans.clear()
            prog.plans[diff] = plan
    return plan


def _cones(prog: _Program) -> tuple[tuple, dict[int, range]]:
    """Per configuration latch, in prog.config order, the indices of the
    ops its plane reaches, directly or through other ops, in op order; and
    each _NET op's planes, by its index, as the range of its net's slots
    that its drivers write. Kept in prog.cones."""
    reach = {s: 1 << k for k, (_, s) in enumerate(prog.config)}
    cones: list[list[int]] = [[] for _ in prog.config]
    planes = {}
    for i, (op, y, a, b) in enumerate(prog.ops):
        if op == _NET:
            ins = [s for c, _, d in a for s in (c, *d)]
            outs = planes[i] = range(min(y0 for _, y0, _ in a),
                                     max(y0 + len(d) for _, y0, d in a))
        elif op == _FLOAT:
            ins, outs = a, ()
        else:
            ins, outs = (a, *b), (y,)
        hit = 0
        for s in ins:
            hit |= reach.get(s, 0)
        if not hit:
            continue
        for s in outs:
            reach[s] = reach.get(s, 0) | hit
        while hit:
            low = hit & -hit
            cones[low.bit_length() - 1].append(i)
            hit ^= low
    prog.cones = tuple(map(tuple, cones)), planes
    return prog.cones


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


def _stream_bits(nl: Netlist, prog: _Program,
                 stream: ConfigBitstream) -> tuple[int, ...]:
    """The bits of a stream that may program nl, compiled as prog; each bit
    was checked when the stream was made. A stream that carries a
    fingerprint must carry this fabric's, hashed once per program."""
    if not isinstance(stream, ConfigBitstream):
        raise ValueError(f"config must be a ConfigBitstream, got {stream!r}")
    if stream.fingerprint is not None:
        if prog.fingerprint is None:
            prog.fingerprint = fingerprint(nl)
        if stream.fingerprint != prog.fingerprint:
            raise ValueError(
                f"bitstream fingerprint {stream.fingerprint} does not match the "
                f"netlist ({prog.fingerprint}); refusing to load")
    if len(stream.bits) != len(prog.config):
        raise ValueError(
            f"bitstream has {len(stream.bits)} bits; fabric has "
            f"{len(prog.config)} configuration latches")
    return stream.bits


def load_config(nl: Netlist, bits: ConfigBitstream,
                state: Optional[SimState] = None) -> SimState:
    """Program the configuration latches, in latch_order, by storing the
    checked bitstream in state.config."""
    _stream_bits(nl, _compiled(nl), bits)
    if state is None:
        state = SimState()
    state.config = bits
    return state


def reset_state(nl: Netlist, digits: Sequence[int],
                state: Optional[SimState] = None) -> SimState:
    """Set every storage group's latches to its reset digit.

    The groups and their latches' radixes are read off the compiled
    program, whose validating walk checked them. So after the digit count,
    and before any digit, compiling refuses a netlist that validate
    refuses, whichever of its lists is at fault.
    """
    if state is None:
        state = SimState()
    if len(digits) != len(nl.state_groups):
        raise ValueError(
            f"expected {len(nl.state_groups)} reset digits, got {len(digits)}")
    resets = []
    # every digit is checked before the first write
    for group, d in zip(_compiled(nl).radixes[2], digits):
        for gid, radix in group:
            if type(d) is not int or not 0 <= d < radix:
                raise ValueError(f"reset digit {d!r} out of range for radix {radix}")
            resets.append((gid, d))
    state.latches.update(resets)
    return state


class _Stepper:
    """Clocks one netlist a cycle at a time on one load of its sources.

    The first step refuses a netlist without a clock, then loads every
    source but the clock from state. Each later step clears and reloads
    only the input planes: the last commit left the latch planes in the
    list as it left state.latches, and the bitstream in state.config was
    checked by the first load. So the stepper must own state: nothing else
    may write it between steps. Every step sets the clock at level 0, then
    at level 1.
    """

    __slots__ = ("nl", "state", "prog", "sources")

    def __init__(self, nl: Netlist, state: SimState):
        self.nl, self.state = nl, state
        self.prog: Optional[_Program] = None
        self.sources: Optional[list[int]] = None

    def step(self, inputs: Sequence[int]) -> tuple[int, ...]:
        """One full clock cycle (low phase, then high); returns the
        outputs, or raises SimFaultError on any fault."""
        nl, state, sources = self.nl, self.state, self.sources
        vectors = [inputs]
        if sources is None:
            if nl.clock is None:
                raise ValueError("netlist has no clock; use eval_combinational")
            prog = self.prog = _compiled(nl)
            sources = self.sources = _load(nl, prog, vectors, state)
        else:
            prog = self.prog
            for planes in prog.inputs:
                for s in planes:
                    sources[s] = 0
            _load_inputs(nl, prog, vectors, sources)
        # a batch of one: a set plane is 1
        sources[prog.clock[1]], sources[prog.clock[0]] = 0, 1
        _settle(nl, prog, vectors, state, sources)
        sources[prog.clock[0]], sources[prog.clock[1]] = 0, 1
        v, masks = _settle(nl, prog, vectors, state, sources)
        if masks:
            raise _logged(state, _first(prog, masks, vectors)[0][1])
        return tuple([_level(v, planes) for planes in prog.outputs])


def step_sequential(nl: Netlist, inputs: Sequence[int],
                    state: SimState) -> tuple[tuple[int, ...], SimState]:
    """Apply one full clock cycle (low phase, then high) and read outputs:
    one step of a fresh _Stepper, which loads every source from state once
    and settles each phase on that load.

    Requires every storage element to have been reset first.
    """
    return _Stepper(nl, state).step(inputs), state
