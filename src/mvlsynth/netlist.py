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
    # A passing validate hands the simulator its levelized records, which
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


def _levelize(comb: list[tuple], ins: list[list[int]],
              pending: list[int]) -> list[tuple]:
    """Kahn order over the combinational gates; other drivers act as sources.

    Takes from levelized's walk each gate's record and input nets, and each
    net's count of combinational drivers, which it uses up. A gate becomes
    ready once every one of its input nets is resolved; a net resolves once
    all of its combinational drivers have run. Ready gates join one queue,
    which is walked as it grows. Raises on combinational cycles.
    """
    waiting: list[int] = []                 # unresolved inputs, per gate
    watchers: list[Optional[list[int]]] = [None] * len(pending)  # per net
    queue: list[tuple] = []
    for i, xs in enumerate(ins):
        unresolved = 0
        for x in xs:
            if pending[x]:
                unresolved += 1
                if watchers[x] is None:
                    watchers[x] = [i]
                else:
                    watchers[x].append(i)
        waiting.append(unresolved)
        if not unresolved:
            queue.append(comb[i])

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


def levelized(nl: Netlist) -> _Records:
    """Check every structural rule; return one record per driving gate.

    A record is a flat tuple (gate, y, *ins): the gate, the number of its
    output net and the numbers of its input nets in port order, with nets
    numbered in nl.nets order, which the list's number attribute holds.
    The sources (inputs, constants and storage, which have no ins) come
    first in gate order, then the combinational gates in eval order. Flat
    tuples keep small the records a netlist holds until its first lowering.

    One walk over every gate checks its ports by its signature's port
    plan (the inputs, then the output), numbers their nets and collects
    the drivers, the storage, the records and each net's count of
    combinational drivers for the Kahn order. The first violation raises
    NetlistError. When a netlist breaks several rules, the one reported is
    the first in this order: net ids and radixes, each gate in turn (first,
    that its key is a string, that it is a Gate, and its id), the drivers
    of each net, the storage lists, the port lists, the clock, unlisted
    input ports, combinational cycles.
    """
    nets, gates = nl.nets, nl.gates
    number: dict[str, int] = {}
    radixes: list[Optional[int]] = []
    for i, (nid, r) in enumerate(nets.items()):
        if type(nid) is not str:
            raise NetlistError(f"net id {nid!r} is not a string")
        if r is not None and (why := radix_problem(r)):
            raise NetlistError(f"net {nid}: {why}")
        number[nid] = i
        radixes.append(r)
    driver: list[Optional[str]] = [None] * len(radixes)  # first, per net
    pending = [0] * len(radixes)            # combinational drivers, per net
    shared: list[tuple[int, str]] = []      # each further driver, with its net
    sources: list[tuple] = []
    comb: list[tuple] = []
    comb_ins: list[list[int]] = []          # each combinational gate's inputs
    config: list[str] = []                  # CONFIG_LATCH ids, in gate order
    state: list[str] = []                   # NARY_DLATCH ids, in gate order
    ports: list[Gate] = []                  # INPUT gates
    for gid, g in gates.items():
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
            pending[out] += 1
            if kind is _SWITCH:
                if radixes[ins[0]] != radixes[out]:
                    raise NetlistError(f"{gid}: switch data radix {radixes[ins[0]]} "
                                       f"!= output radix {radixes[out]}")
            elif kind is _TLG:
                n = radixes[ins[0]]
                if type(g.param) is not int or not -1 <= g.param <= n - 1:
                    raise _bad_param(g, "threshold", f"outside -1..{n - 1} for radix {n}")
            comb.append((g, out, *ins))
            comb_ins.append(ins)
        except (AttributeError, TypeError):  # the clean path tests none of these
            if not isinstance(g, Gate):
                raise NetlistError(f"gate {gid} is not a Gate: {g!r}") from None
            if not isinstance(g.pins, dict):
                raise NetlistError(f"{gid}: pins {g.pins!r} is not a dict") from None
            for name, nid in g.pins.items():
                if type(nid) is not str:
                    raise NetlistError(f"{gid}.{name}: unknown net {nid!r}") from None
            raise

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
    for lst, actual, kind in ((nl.latch_order, config, _CONFIG_LATCH),
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
    for g in ports:
        if g.gid not in listed and g.pins["y"] != nl.clock:
            raise NetlistError(f"input port {g.gid} is neither listed nor the clock")

    records = _Records(sources + _levelize(comb, comb_ins, pending))
    records.number = number
    return records


def validate(nl: Netlist) -> None:
    """Full structural check: connectivity, drivers, signal kinds, cycles.

    The netlist's records and compiled program are dropped on entry. If
    every check passes, its levelized records are kept for the simulator's
    first lowering, which consumes them.
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
    """

    def __init__(self):
        self.gates: dict[str, Gate] = {}
        self.nets: dict[str, Optional[int]] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.latch_order: list[str] = []
        self.state_groups: list[tuple[str, ...]] = []
        self.clock: Optional[str] = None
        self.fabric_kind: Optional[str] = None
        self._wire_seq = 0
        self._consts: dict[tuple[int, Optional[int]], str] = {}

    # -- nets ---------------------------------------------------------------

    def net(self, radix: Optional[int] = None, nid: Optional[str] = None) -> str:
        if nid is None:
            k = self._wire_seq
            nid = _WIRES[k] if k < len(_WIRES) else f"w{k}"
            self._wire_seq = k + 1
        if nid in self.nets:
            raise NetlistError(f"duplicate net id {nid!r}")
        self.nets[nid] = radix
        return nid

    # -- gates --------------------------------------------------------------

    def add_gate(self, gid: str, kind: GateType, pins: dict[str, str],
                 param: Optional[int] = None, radix: Optional[int] = None) -> Gate:
        """Add a gate; it keeps the pin map it is given, not a copy."""
        if gid in self.gates:
            raise NetlistError(f"duplicate gate id {gid!r}")
        g = Gate(gid, kind, pins, param, radix)
        self.gates[gid] = g
        return g

    def add_input(self, name: str, radix: Optional[int]) -> str:
        nid = self.net(radix, nid=name)
        self.add_gate(name, _INPUT, {"y": nid}, radix=radix)
        self.inputs.append(name)
        return nid

    def add_output(self, name: str, net: str) -> None:
        # an unknown net is left for validate to name
        self.add_gate(name, _OUTPUT, {"a": net}, radix=self.nets.get(net))
        self.outputs.append(name)

    def tlg(self, gid: str, d: str, threshold: int) -> str:
        y = self.net(None)
        self.add_gate(gid, _TLG, {"d": d, "y": y}, threshold)
        return y

    def not_(self, gid: str, a: str) -> str:
        y = self.net(None)
        self.add_gate(gid, _NOT, {"a": a, "y": y})
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
        self.add_gate(gid, kind, pins, len(ins))
        return y

    def switch(self, gid: str, d: str, c: str, y: str) -> None:
        self.add_gate(gid, _SWITCH, {"d": d, "c": c, "y": y})

    def const(self, value: int, radix: Optional[int]) -> str:
        """Constant driver, deduplicated per (value, radix)."""
        y = self._consts.get((value, radix))
        if y is None:
            tag = "b" if radix is None else f"r{radix}"
            gid = f"const_{tag}_{value}"
            y = self._consts[value, radix] = self.net(radix, nid=f"{gid}_w")
            self.add_gate(gid, _CONST, {"y": y}, value, radix)
        return y

    def config_latch(self, gid: str) -> str:
        q = self.net(None)
        self.add_gate(gid, _CONFIG_LATCH, {"q": q})
        self.latch_order.append(gid)
        return q

    def nary_dlatch(self, gid: str, d: str, radix: int) -> str:
        q = self.net(radix)
        self.add_gate(gid, _NARY_DLATCH, {"d": d, "q": q}, radix=radix)
        return q

    def add_state_group(self, latches: Iterable[str]) -> None:
        self.state_groups.append(tuple(latches))

    # -- finish -------------------------------------------------------------

    def finish(self) -> Netlist:
        state_latches = [g.gid for g in self.gates.values()
                         if g.kind is _NARY_DLATCH]
        nl = Netlist(
            gates=self.gates,
            nets=self.nets,
            inputs=self.inputs,
            outputs=self.outputs,
            latch_order=self.latch_order,
            state_latches=state_latches,
            state_groups=self.state_groups,
            clock=self.clock,
            fabric_kind=self.fabric_kind,
        )
        validate(nl)
        return nl
