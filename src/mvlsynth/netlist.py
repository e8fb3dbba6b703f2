"""Gate-level netlist IR: gates, nets, connectivity, validation.

Signal kinds: a net is either binary (radix None) or carries one radix-N
level. Binary nets and radix-2 nets are distinct kinds; ports never mix
them. Every net has exactly one driver, except nets driven only by switch
outputs, which may have several switch drivers (the simulator checks that
at most one conducts at a time).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .values import radix_problem


class NetlistError(ValueError):
    """Raised for structurally invalid netlists or connections."""


class GateType(enum.Enum):
    TLG = "tlg"                    # comparator: out = 1 iff data > threshold
    AND = "and"
    OR = "or"
    NOT = "not"
    SWITCH = "switch"              # conducts data to output iff control = 1
    CONFIG_LATCH = "config_latch"  # binary storage programmed by a bitstream
    NARY_DLATCH = "nary_dlatch"    # radix-N storage, next value on pin d
    CONST = "const"
    INPUT = "input"
    OUTPUT = "output"


# The members bound once, for the builder's emit, levelized and the
# simulator's lowering: on Python 3.11 a GateType.X read goes through the
# enum class and costs about ten times a global read.
_TLG, _AND, _OR, _NOT, _SWITCH = (GateType.TLG, GateType.AND, GateType.OR,
                                  GateType.NOT, GateType.SWITCH)
_CONFIG_LATCH, _NARY_DLATCH = GateType.CONFIG_LATCH, GateType.NARY_DLATCH
_CONST, _INPUT, _OUTPUT = GateType.CONST, GateType.INPUT, GateType.OUTPUT

# Gate kinds whose output value comes from simulator-owned storage rather
# than from upstream logic. They are excluded from the combinational core.
STATEFUL = (_CONFIG_LATCH, _NARY_DLATCH)
# Gate kinds whose param is their fan-in.
_FAN_IN = (_AND, _OR)


@dataclass(slots=True)
class Gate:
    gid: str
    kind: GateType
    pins: dict[str, str]            # port name -> net id
    param: Optional[int] = None     # threshold / fan-in / const value
    radix: Optional[int] = None     # None = binary for CONST and ports

    def fan_in(self) -> int:
        if self.kind not in _FAN_IN:
            raise NetlistError(f"{self.gid}: fan_in undefined for {self.kind.value}")
        if type(self.param) is not int:  # a bool is no fan-in
            raise NetlistError(f"{self.gid}: fan-in {self.param!r} is not an integer")
        return self.param


class PortSig(NamedTuple):
    name: str
    is_input: bool
    radix: Optional[int]            # None = binary, -1 = any single radix


_ANY = -1
_OWN = -2                           # in a layout: the gate's own radix

# Gate kinds of the combinational core; the others are sources and sinks.
_COMB = (_TLG, _AND, _OR, _NOT, _SWITCH)


# Per-signature caches, and synth's table of block ids. An entry's size
# grows with its fan-in (or its block's size), so each cache starts afresh
# once its entries would hold more than _HELD ports (or ids) in all, and an
# entry larger than that is not stored; the few small fan-ins and blocks
# that netlists use stay cached.
_HELD = 2048
_held: dict[int, int] = {}  # ports held, by id() of the cache


def _keep(cache: dict, key, value, ports: int):
    """Store value, an entry of ports ports, in cache unless it alone
    would hold more than _HELD; returns value."""
    if ports > _HELD:
        return value
    held = _held.get(id(cache), 0) + ports
    if held > _HELD:
        cache.clear()
        held = ports
    _held[id(cache)] = held
    cache[key] = value
    return value


_NAMES: dict[int, tuple[str, ...]] = {}


def _fan_in_names(n: int) -> tuple[str, ...]:
    """Port names a0..a{n-1} of an AND/OR of fan-in n."""
    names = _NAMES.get(n)
    if names is None:
        names = _keep(_NAMES, n, tuple(f"a{i}" for i in range(n)), n)
    return names


# Port layouts, as (name, is_input, radix) triples, keyed by id(kind) as
# _PORTS is. AND and OR have ports a0..a{n-1}, y for fan-in n instead.
# Every layout lists its inputs before its one output, if it has one.
_LAYOUTS = {
    id(_TLG): (("d", True, _ANY), ("y", False, None)),
    id(_NOT): (("a", True, None), ("y", False, None)),
    id(_SWITCH): (("d", True, _ANY), ("c", True, None), ("y", False, _ANY)),
    id(_CONFIG_LATCH): (("q", False, None),),
    id(_NARY_DLATCH): (("d", True, _OWN), ("q", False, _OWN)),
    id(_CONST): (("y", False, _OWN),),
    id(_INPUT): (("y", False, _OWN),),
    id(_OUTPUT): (("a", True, _OWN),),
}

# One port plan per signature, keyed by (id(kind), fan-in) for AND/OR and
# by (id(kind), radix) for every other kind: a GateType member is a
# singleton, and hashing the member itself runs Enum.__hash__ in Python.
# A plan is (the shared PortSig tuple, its name set, the inputs as (name,
# radix) pairs, the output as one such pair or None, whether the kind is
# combinational). Only plans that built cleanly are stored, so a bad
# fan-in or an unknown kind raises on every call. The table is bounded by
# _HELD ports, as _NAMES is.
_PORTS: dict[tuple, tuple] = {}


def _signature(g: Gate) -> tuple:
    # before the cache read: 2.0 or True would find radix 2's or 1's entry
    if g.radix is not None and (why := radix_problem(g.radix)):
        raise NetlistError(f"gate {g.gid}: {why}")
    k = g.kind
    counted = k in _FAN_IN
    if counted and type(g.param) is not int:
        g.fan_in()  # raises: a bool or a non-int is no fan-in
    key = (id(k), g.param if counted else g.radix)
    sig = _PORTS.get(key)
    if sig is None:
        if counted:
            if g.param < 1:
                raise NetlistError(f"{g.gid}: fan-in must be >= 1")
            layout = [(name, True, None) for name in _fan_in_names(g.param)]
            layout.append(("y", False, None))
        elif id(k) in _LAYOUTS:
            layout = [(name, is_input, g.radix if radix == _OWN else radix)
                      for name, is_input, radix in _LAYOUTS[id(k)]]
        else:
            raise NetlistError(f"unknown gate kind {k!r}")
        ports = tuple(PortSig(*p) for p in layout)
        last = ports[-1]
        sig = _keep(_PORTS, key, (ports, frozenset(p.name for p in ports),
                                  tuple((p.name, p.radix) for p in ports if p.is_input),
                                  None if last.is_input else (last.name, last.radix),
                                  k in _COMB), len(ports))
    return sig


def gate_ports(g: Gate) -> tuple[PortSig, ...]:
    """Port signature of a gate instance (direction and signal kind).

    The tuple is shared by every gate with the same signature.
    """
    return _signature(g)[0]


@dataclass
class Netlist:
    """Immutable-by-convention gate graph. Build through NetlistBuilder."""

    gates: dict[str, Gate]
    nets: dict[str, Optional[int]]  # net id -> radix, None = binary
    inputs: list[str]               # INPUT gate ids; gate id doubles as port name
    outputs: list[str]              # OUTPUT gate ids, in declared order
    latch_order: list[str]          # CONFIG_LATCH ids, bitstream addressing order
    state_latches: list[str]        # NARY_DLATCH ids in creation order
    state_groups: list[tuple[str, ...]]  # latches sharing one reset digit
    clock: Optional[str] = None     # net driven by the sequential stepper
    fabric_kind: Optional[str] = None    # "decoder" | "mux" for fabrics
    # A passing validate, or NetlistBuilder.finish() from the records it
    # kept as it emitted, hands the simulator the levelized records, which
    # the first simulation consumes to compile the program it caches here.
    # validate clears both first. Not init fields, so dataclasses.replace
    # gives a copy neither: a copy's structure may differ.
    _records: Optional[list[tuple]] = field(
        default=None, init=False, repr=False, compare=False)
    _program: Optional[object] = field(
        default=None, init=False, repr=False, compare=False)

    def net_of_input(self, gid: str) -> str:
        return self.gates[gid].pins["y"]

    def net_of_output(self, gid: str) -> str:
        return self.gates[gid].pins["a"]

    def eval_order(self) -> list[str]:
        """Topological order of the combinational core, derived afresh by
        the walk validate makes; raises NetlistError if the netlist is
        invalid."""
        return [rec[0].gid for rec in levelized(self) if rec[0].kind in _COMB]


def fingerprint(nl: Netlist) -> str:
    """Identity of a fabric's configuration addressing: hash of latch_order."""
    digest = hashlib.sha256("\n".join(nl.latch_order).encode()).hexdigest()
    return f"sha256:{digest}"


def _driver_map(nl: Netlist) -> dict[str, list[str]]:
    """Each net's drivers, in gate order; raises NetlistError, by the walk
    validate makes, if the netlist is invalid."""
    levelized(nl)
    drivers: dict[str, list[str]] = {nid: [] for nid in nl.nets}
    for g in nl.gates.values():
        out = _signature(g)[3]
        if out is not None:
            drivers[g.pins[out[0]]].append(g.gid)
    return drivers


def _levelize(comb: list[tuple], nets: int) -> list[tuple]:
    """Kahn order over the combinational gates; other drivers act as sources.

    Takes the combinational records (gate, y, *ins) of a walk over nets
    nets, and counts each net's combinational drivers. A gate becomes
    ready once every one of its input nets is resolved; a net resolves once
    all of its combinational drivers have run. Ready gates join one queue,
    which is walked as it grows. Raises on combinational cycles.
    """
    pending = [0] * nets                    # combinational drivers, per net
    for gate in comb:
        pending[gate[1]] += 1
    waiting: list[int] = []                 # unresolved inputs, per gate
    watchers: list[Optional[list[int]]] = [None] * nets
    queue: list[tuple] = []
    for i, gate in enumerate(comb):
        unresolved = 0
        for x in gate[2:]:
            if pending[x]:
                unresolved += 1
                if watchers[x] is None:
                    watchers[x] = [i]
                else:
                    watchers[x].append(i)
        waiting.append(unresolved)
        if not unresolved:
            queue.append(gate)

    for gate in queue:
        y = gate[1]
        pending[y] -= 1
        if not pending[y]:
            for w in watchers[y] or ():
                waiting[w] -= 1
                if not waiting[w]:
                    queue.append(comb[w])

    if len(queue) != len(comb):
        stuck = sorted(gate[0].gid for gate, w in zip(comb, waiting) if w)
        raise NetlistError(f"combinational cycle involving gates: {stuck}")
    return queue


def _port_error(g: Gate, name: str, want: Optional[int], net: Optional[int],
                radixes: list[Optional[int]]) -> NetlistError:
    """Why port name of g, of radix want, cannot connect to its net, given
    the net's number (None if there is no such net)."""
    nid = g.pins[name]
    if net is None:
        return NetlistError(f"{g.gid}.{name}: unknown net {nid!r}")
    if want is None:
        return NetlistError(
            f"{g.gid}.{name}: binary port on radix-{radixes[net]} net {nid}")
    if want == _ANY:
        return NetlistError(f"{g.gid}.{name}: radix-N port on binary net {nid}")
    return NetlistError(
        f"{g.gid}.{name}: radix-{want} port on net {nid} of radix {radixes[net]}")


def _bad_param(g: Gate, what: str, bound: str) -> NetlistError:
    if g.param is None or type(g.param) is int:
        return NetlistError(f"{g.gid}: {what} {g.param} {bound}")
    return NetlistError(f"{g.gid}: {what} {g.param!r} is not an integer")


class _Records(list):
    """levelized's records; number maps each net id to the number they use."""
    __slots__ = ("number",)


_LIST = (list, tuple)  # the types a port, storage or state group list may have


class _Walk:
    """What levelized gathers from a netlist, by its net step and its
    per-gate step, and the whole-netlist rules it ends with.

    Nets are numbered in nl.nets order (number, radixes). Per net it keeps
    the first driver, and each further driver with its net (shared). Per
    gate it keeps the record, the sources' apart from the combinational
    gates', and the CONFIG_LATCH ids, NARY_DLATCH ids and INPUT gates, all
    in gate order. levelized fills one from a whole netlist; NetlistBuilder
    fills one as it emits, from the numbers, radixes and port plans it
    already holds, so its finish() runs only the rules.
    """

    __slots__ = ("number", "radixes", "driver", "shared", "sources", "comb",
                 "config", "state", "ports")

    def __init__(self):
        self.number: dict[str, int] = {}
        self.radixes: list[Optional[int]] = []
        self.driver: list[Optional[str]] = []   # first, per net
        self.shared: list[tuple[int, str]] = []  # each further driver, with its net
        self.sources: list[tuple] = []
        self.comb: list[tuple] = []
        self.config: list[str] = []
        self.state: list[str] = []
        self.ports: list[Gate] = []

    def nets(self, nets: dict) -> None:
        """The net step, over every net: check its id and radix, number it."""
        number, radixes = self.number, self.radixes
        for nid, r in nets.items():
            if type(nid) is not str:
                raise NetlistError(f"net id {nid!r} is not a string")
            if r is not None and (why := radix_problem(r)):
                raise NetlistError(f"net {nid}: {why}")
            number[nid] = len(radixes)
            radixes.append(r)
        self.driver = [None] * len(radixes)

    def gates(self, items: Iterable[tuple[str, Gate]]) -> None:
        """The per-gate step, over each (key, gate) pair: check the gate's
        ports by its signature's port plan (the inputs, then the output)
        and its parameter, and keep its record, driver and storage entry.
        Raises NetlistError at the first violation."""
        number, radixes, driver, shared = (self.number, self.radixes,
                                           self.driver, self.shared)
        sources, comb = self.sources, self.comb
        config, state, ports = self.config, self.state, self.ports
        for gid, g in items:
            try:
                if type(gid) is not str:
                    raise NetlistError(f"gate id {gid!r} is not a string")
                if g.gid != gid:
                    raise NetlistError(f"gate {g.gid} is stored under key {gid!r}")
                kind, pins, radix = g.kind, g.pins, g.radix
                # a bad radix first: -1 would read as _ANY
                if radix is not None and (why := radix_problem(radix)):
                    raise NetlistError(f"gate {gid}: {why}")
                if kind is _NARY_DLATCH and radix is None:
                    raise NetlistError(f"{gid}: {kind.value} needs a radix")
                if kind in _FAN_IN:
                    # before the plan, whose size grows with the declared fan-in
                    if type(g.param) is int and g.param > len(pins):
                        raise NetlistError(f"{gid}: fan-in {g.param} exceeds its {len(pins)} pins")
                    plan = _PORTS.get((id(kind), g.param)) if type(g.param) is int else None
                else:
                    plan = _PORTS.get((id(kind), radix))
                # _signature's cache read inline: the call costs more than the
                # lookup; a miss builds the plan, or raises for a bad fan-in
                _, names, wants, drives, is_comb = plan or _signature(g)
                if pins.keys() != names:
                    missing = sorted(names - set(pins))
                    extra = sorted(set(pins) - names)
                    raise NetlistError(
                        f"{gid}: dangling or unknown ports (missing {missing}, extra {extra})"
                    )
                ins: list[int] = []
                for name, want in wants:
                    i = number.get(pins[name])
                    if i is None or radixes[i] != want and (want != _ANY or radixes[i] is None):
                        raise _port_error(g, name, want, i, radixes)
                    ins.append(i)
                if drives is None:  # an output port
                    continue
                name, want = drives
                out = number.get(pins[name])
                if out is None or radixes[out] != want and (want != _ANY or radixes[out] is None):
                    raise _port_error(g, name, want, out, radixes)
                if driver[out] is None:
                    driver[out] = gid
                else:
                    shared.append((out, gid))
                if not is_comb:
                    if kind is _CONST:
                        hi = 1 if radix is None else radix - 1
                        if type(g.param) is not int or not 0 <= g.param <= hi:
                            raise _bad_param(g, "constant", f"out of range 0..{hi}")
                    elif kind is _CONFIG_LATCH:
                        config.append(gid)
                    elif kind is _NARY_DLATCH:
                        state.append(gid)
                    elif kind is _INPUT:
                        ports.append(g)
                    sources.append((g, out))
                    continue
                if kind is _SWITCH:
                    if radixes[ins[0]] != radixes[out]:
                        raise NetlistError(f"{gid}: switch data radix {radixes[ins[0]]} "
                                           f"!= output radix {radixes[out]}")
                elif kind is _TLG:
                    n = radixes[ins[0]]
                    if type(g.param) is not int or not -1 <= g.param <= n - 1:
                        raise _bad_param(g, "threshold", f"outside -1..{n - 1} for radix {n}")
                comb.append((g, out, *ins))
            except (AttributeError, TypeError):  # the clean path tests none of these
                if not isinstance(g, Gate):
                    raise NetlistError(f"gate {gid} is not a Gate: {g!r}") from None
                if not isinstance(g.pins, dict):
                    raise NetlistError(f"{gid}: pins {g.pins!r} is not a dict") from None
                for name, nid in g.pins.items():
                    if type(nid) is not str:
                        raise NetlistError(f"{gid}.{name}: unknown net {nid!r}") from None
                raise

    def records(self, nl: Netlist) -> _Records:
        """The whole-netlist rules, on nl's nets and gates as numbered and
        stepped: the drivers of each net, the storage lists, the port
        lists, the clock, unlisted input ports and combinational cycles.
        Returns levelized's records."""
        nets, gates = nl.nets, nl.gates
        number, driver, shared, state = self.number, self.driver, self.shared, self.state
        bad = driver.index(None) if None in driver else len(driver)
        for i, gid in shared:
            if i < bad and (gates[gid].kind is not _SWITCH
                            or gates[driver[i]].kind is not _SWITCH):
                bad = i
        if bad < len(driver):
            nid = list(nets)[bad]
            if driver[bad] is None:
                raise NetlistError(f"net {nid} has no driver")
            ds = [driver[bad]] + [gid for i, gid in shared if i == bad]
            raise NetlistError(f"net {nid} multiply driven by non-switch gates: {ds}")

        # entry types first: a set of mixed or unhashable entries cannot compare
        for lst, actual, kind in ((nl.latch_order, self.config, _CONFIG_LATCH),
                                  (nl.state_latches, state, _NARY_DLATCH)):
            if not isinstance(lst, _LIST) or (lst or actual) and (
                    any(type(gid) is not str for gid in lst)
                    or len(set(lst)) != len(lst) or set(lst) != set(actual)):
                raise NetlistError(f"{kind.value} ordering list does not match gates")
        groups = nl.state_groups
        if not isinstance(groups, _LIST) or (groups or state) and (
                not all(isinstance(grp, _LIST) and grp for grp in groups)
                or any(type(gid) is not str for grp in groups for gid in grp)
                or sum(map(len, groups)) != len(state)
                or {gid for grp in groups for gid in grp} != set(state)):
            raise NetlistError("state_groups do not partition the state latches")

        for lst, kind in ((nl.inputs, _INPUT), (nl.outputs, _OUTPUT)):
            if not isinstance(lst, _LIST):
                raise NetlistError(f"{kind.value} list {lst!r} is not a list")
            for gid in lst:
                if type(gid) is not str or gid not in gates or gates[gid].kind is not kind:
                    raise NetlistError(
                        f"{kind.value} list entry {gid} is not an {kind.value} port")
            if len(set(lst)) != len(lst):
                raise NetlistError(f"{kind.value} list repeats an entry")
        listed = set(nl.inputs)
        if nl.clock is not None:
            if type(nl.clock) is not str or nl.clock not in number:
                raise NetlistError(f"clock net {nl.clock} does not exist")
            first = driver[number[nl.clock]]
            if gates[first].kind is not _INPUT or first in listed:
                raise NetlistError(
                    f"clock net {nl.clock} is not driven by a dedicated input port")
        for g in self.ports:
            if g.gid not in listed and g.pins["y"] != nl.clock:
                raise NetlistError(f"input port {g.gid} is neither listed nor the clock")

        records = _Records(self.sources + _levelize(self.comb, len(driver)))
        records.number = number
        return records


def levelized(nl: Netlist) -> _Records:
    """Check every structural rule; return one record per driving gate.

    A record is a flat tuple (gate, y, *ins): the gate, the number of its
    output net and the numbers of its input nets in port order, with nets
    numbered in nl.nets order, which the list's number attribute holds.
    The sources (inputs, constants and storage, which have no ins) come
    first in gate order, then the combinational gates in eval order. Flat
    tuples keep small the records a netlist holds until its first lowering.

    The walk has two parts (see _Walk). The net and per-gate steps check
    each net and each gate on its own and gather the records, drivers and
    storage. The whole-netlist rules then check what spans gates and run
    the Kahn order (_levelize). A builder takes the steps as it emits, so
    its finish() runs only the rules; this function always walks the whole
    netlist. The first violation raises NetlistError. When a netlist breaks
    several rules, the one reported is the first in this order: net ids and
    radixes, each gate in turn (first, that its key is a string, that it is
    a Gate, and its id), the drivers of each net, the storage lists, the
    port lists, the clock, unlisted input ports, combinational cycles.
    """
    walk = _Walk()
    walk.nets(nl.nets)
    walk.gates(nl.gates.items())
    return walk.records(nl)


def validate(nl: Netlist) -> None:
    """Full structural check: connectivity, drivers, signal kinds, cycles.

    The netlist's records and compiled program are dropped on entry. If
    every check passes, its levelized records are kept for the simulator's
    first lowering, which consumes them. This is always levelized's full
    walk; NetlistBuilder.finish() hands over the same records without it.
    """
    nl._records = nl._program = None
    nl._records = levelized(nl)


# Internal net names w0..w255, formatted once; later ones as they are made.
_WIRES = tuple(f"w{k}" for k in range(256))


class NetlistBuilder:
    """Incremental construction with deterministic ids.

    Internal nets are numbered w0, w1, ... in creation order, their names
    read from one fixed table up to its length; input ports drive nets
    named after the port. Gate ids are hierarchical paths supplied by the
    synthesis layer (e.g. "dec/tlg1"), which formats each block's ids once.
    An AND/OR's pins take the names of the port plan for its fan-in.

    The builder takes levelized's net and per-gate steps as it emits: it
    numbers each net as it makes it, and checks each gate from the net
    numbers, radixes and port plan it already holds, keeping its record.
    finish() then runs only the whole-netlist rules and hands the records
    over as validate would. On any doubt finish() runs validate's full walk
    instead, so every NetlistError keeps its message and precedence: once a
    gate fails its step or a pin names a net not made yet, and once the
    gates or nets dict has been read, since what was read may be changed
    behind the builder. For the same reason add_gate keeps a copy of its
    pins and returns no Gate.
    """

    def __init__(self):
        self._gates: dict[str, Gate] = {}
        self._nets: dict[str, Optional[int]] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.latch_order: list[str] = []
        self.state_groups: list[tuple[str, ...]] = []
        self.clock: Optional[str] = None
        self.fabric_kind: Optional[str] = None
        self._wire_seq = 0
        self._consts: dict[tuple, str] = {}
        self._walk: Optional[_Walk] = _Walk()   # None once in doubt

    @property
    def gates(self) -> dict[str, Gate]:
        """The gates so far. Once read, finish() runs the full walk."""
        self._walk = None
        return self._gates

    @property
    def nets(self) -> dict[str, Optional[int]]:
        """The nets so far. Once read, finish() runs the full walk."""
        self._walk = None
        return self._nets

    # -- nets ---------------------------------------------------------------

    def net(self, radix: Optional[int] = None, nid: Optional[str] = None) -> str:
        if nid is None:
            k = self._wire_seq
            nid = _WIRES[k] if k < len(_WIRES) else f"w{k}"
            self._wire_seq = k + 1
        nets = self._nets
        if nid in nets:
            raise NetlistError(f"duplicate net id {nid!r}")
        nets[nid] = radix
        w = self._walk
        if w is not None:  # the net step
            if type(nid) is not str or radix is not None and radix_problem(radix):
                self._walk = None
            else:
                w.number[nid] = len(w.driver)
                w.radixes.append(radix)
                w.driver.append(None)
        return nid

    # -- gates --------------------------------------------------------------

    # Each emit method below takes levelized's per-gate step for its own
    # port plan: it numbers the gate's pins, checks their radixes and the
    # parameter, and keeps the record and the driver. A failure, including
    # a pin whose net is not made yet (KeyError) or is unhashable
    # (TypeError), puts the builder in doubt instead of raising.

    def _add(self, gid: str, kind: GateType, pins: dict[str, str],
             param: Optional[int] = None, radix: Optional[int] = None) -> Gate:
        if gid in self._gates:
            raise NetlistError(f"duplicate gate id {gid!r}")
        g = self._gates[gid] = Gate(gid, kind, pins, param, radix)
        if type(gid) is not str:
            self._walk = None
        return g

    def _source(self, g: Gate, ok: bool = True) -> Optional[_Walk]:
        """Keep the record of source g, which drives the newest net, if ok;
        else put the builder in doubt. Returns the walk that keeps it."""
        w = self._walk
        if w is None or not ok:
            self._walk = None
            return None
        y = len(w.driver) - 1
        w.driver[y] = g.gid
        w.sources.append((g, y))
        return w

    def add_gate(self, gid: str, kind: GateType, pins: dict[str, str],
                 param: Optional[int] = None, radix: Optional[int] = None) -> None:
        """Add a gate of any kind, from a copy of pins, by levelized's own
        per-gate step."""
        if type(pins) is dict:
            pins = pins.copy()
        else:
            self._walk = None
        g = self._add(gid, kind, pins, param, radix)
        w = self._walk
        if w is not None:
            try:
                w.gates(((gid, g),))
            except (NetlistError, AttributeError, TypeError):
                self._walk = None

    def add_input(self, name: str, radix: Optional[int]) -> str:
        nid = self.net(radix, nid=name)
        g = self._add(name, _INPUT, {"y": nid}, radix=radix)
        w = self._source(g)
        if w is not None:
            w.ports.append(g)
        self.inputs.append(name)
        return nid

    def add_output(self, name: str, net: str) -> None:
        # an unknown net is left for validate to name
        radix = self._nets.get(net)
        self._add(name, _OUTPUT, {"a": net}, radix=radix)
        w = self._walk
        if w is not None and net not in w.number:
            self._walk = None
        self.outputs.append(name)

    def tlg(self, gid: str, d: str, threshold: int) -> str:
        y = self.net(None)
        g = self._add(gid, _TLG, {"d": d, "y": y}, threshold)
        w = self._walk
        if w is not None:
            try:
                i = w.number[d]
                ok = type(threshold) is int and -1 <= threshold < w.radixes[i]
            except (KeyError, TypeError):  # a binary d compares with None
                ok = False
            if ok:
                o = len(w.driver) - 1
                w.driver[o] = gid
                w.comb.append((g, o, i))
            else:
                self._walk = None
        return y

    def not_(self, gid: str, a: str) -> str:
        y = self.net(None)
        g = self._add(gid, _NOT, {"a": a, "y": y})
        w = self._walk
        if w is not None:
            try:
                i = w.number[a]
                ok = w.radixes[i] is None
            except (KeyError, TypeError):
                ok = False
            if ok:
                o = len(w.driver) - 1
                w.driver[o] = gid
                w.comb.append((g, o, i))
            else:
                self._walk = None
        return y

    def and_(self, gid: str, ins: Sequence[str]) -> str:
        return self._fan_in_gate(gid, _AND, ins)

    def or_(self, gid: str, ins: Sequence[str]) -> str:
        return self._fan_in_gate(gid, _OR, ins)

    def _fan_in_gate(self, gid: str, kind: GateType, ins: Sequence[str]) -> str:
        """An AND/OR over ins; a single input is passed through as is."""
        if len(ins) == 1:
            return ins[0]
        y = self.net(None)
        pins = dict(zip(_fan_in_names(len(ins)), ins))
        pins["y"] = y
        g = self._add(gid, kind, pins, len(ins))
        w = self._walk
        if w is not None:
            number, radixes = w.number, w.radixes
            rec = [g, len(w.driver) - 1]
            try:
                for x in ins:
                    i = number[x]
                    if radixes[i] is not None:  # a radix-N net
                        break
                    rec.append(i)
            except (KeyError, TypeError):
                pass
            if ins and len(rec) == len(ins) + 2:  # every pin numbered; no fan-in 0
                w.driver[rec[1]] = gid
                w.comb.append(tuple(rec))
            else:
                self._walk = None
        return y

    def switch(self, gid: str, d: str, c: str, y: str) -> None:
        # the one emit whose output net may have other drivers
        g = self._add(gid, _SWITCH, {"d": d, "c": c, "y": y})
        w = self._walk
        if w is not None:
            number, radixes = w.number, w.radixes
            try:
                i, k, o = number[d], number[c], number[y]
                ok = radixes[k] is None and radixes[i] is not None and radixes[i] == radixes[o]
            except (KeyError, TypeError):
                ok = False
            if not ok:
                self._walk = None
                return
            if w.driver[o] is None:
                w.driver[o] = gid
            else:
                w.shared.append((o, gid))
            w.comb.append((g, o, i, k))

    def const(self, value: int, radix: Optional[int]) -> str:
        """Constant driver, deduplicated per (value, radix)."""
        key = (value, radix)
        if type(value) is not int or radix is not None and type(radix) is not int:
            # True == 1 and 3.0 == 3: such a pair must not find an int's entry
            key = (type(value), type(radix), *key)
        y = self._consts.get(key)
        if y is None:
            tag = "b" if radix is None else f"r{radix}"
            gid = f"const_{tag}_{value}"
            y = self._consts[key] = self.net(radix, nid=f"{gid}_w")
            g = self._add(gid, _CONST, {"y": y}, value, radix)
            self._source(g, type(value) is int
                         and 0 <= value <= (1 if radix is None else radix - 1))
        return y

    def config_latch(self, gid: str) -> str:
        q = self.net(None)
        w = self._source(self._add(gid, _CONFIG_LATCH, {"q": q}))
        if w is not None:
            w.config.append(gid)
        self.latch_order.append(gid)
        return q

    def nary_dlatch(self, gid: str, d: str, radix: int) -> str:
        q = self.net(radix)
        g = self._add(gid, _NARY_DLATCH, {"d": d, "q": q}, radix=radix)
        # a source: its input d is checked, and is in no record
        try:
            ok = radix is not None and self._walk.radixes[self._walk.number[d]] == radix
        except (AttributeError, KeyError, TypeError):  # no walk, or no such d
            ok = False
        w = self._source(g, ok)
        if w is not None:
            w.state.append(gid)
        return q

    def add_state_group(self, latches: Iterable[str]) -> None:
        self.state_groups.append(tuple(latches))

    # -- finish -------------------------------------------------------------

    def finish(self) -> Netlist:
        """The netlist, checked as validate checks it and carrying the
        records validate would hand over. Its gates and nets are the
        builder's own, so a later finish() runs the full walk."""
        walk, self._walk = self._walk, None
        if walk is None:
            state_latches = [g.gid for g in self._gates.values()
                             if g.kind is _NARY_DLATCH]
        else:
            state_latches = walk.state
        nl = Netlist(
            gates=self._gates,
            nets=self._nets,
            inputs=self.inputs,
            outputs=self.outputs,
            latch_order=self.latch_order,
            state_latches=state_latches,
            state_groups=self.state_groups,
            clock=self.clock,
            fabric_kind=self.fabric_kind,
        )
        if walk is None:
            validate(nl)
        else:
            nl._records = walk.records(nl)
        return nl
