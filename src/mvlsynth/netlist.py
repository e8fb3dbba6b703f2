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

# Port layouts, as (name, is_input, radix) triples, keyed by id(kind) as
# _PORTS is. AND and OR have ports a0..a{n-1}, y for fan-in n instead.
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

# Shared port signatures and their port-name sets, keyed by (id(kind),
# fan-in) for AND/OR and by (id(kind), radix) for every other kind: a
# GateType member is a singleton, and hashing the member itself runs
# Enum.__hash__ in Python. Only signatures that built cleanly are stored,
# so a bad fan-in or an unknown kind raises on every call.
_PORTS: dict[tuple, tuple[tuple[PortSig, ...], frozenset[str]]] = {}


def _signature(g: Gate) -> tuple[tuple[PortSig, ...], frozenset[str]]:
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
            layout = [(f"a{i}", True, None) for i in range(g.param)]
            layout.append(("y", False, None))
        elif id(k) in _LAYOUTS:
            layout = [(name, is_input, g.radix if radix == _OWN else radix)
                      for name, is_input, radix in _LAYOUTS[id(k)]]
        else:
            raise NetlistError(f"unknown gate kind {k!r}")
        ports = tuple(PortSig(*p) for p in layout)
        sig = _PORTS[key] = (ports, frozenset(p.name for p in ports))
    return sig


def gate_ports(g: Gate) -> tuple[PortSig, ...]:
    """Port signature of a gate instance (direction and signal kind).

    The tuple is shared by every gate with the same signature.
    """
    return _signature(g)[0]


# Gate kinds outside the combinational core: sources, sinks and storage.
_NOT_COMB = (*STATEFUL, GateType.INPUT, GateType.CONST, GateType.OUTPUT)


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
    # validate clears both first.
    _records: Optional[list[tuple]] = field(default=None, repr=False, compare=False)
    _program: Optional[object] = field(default=None, repr=False, compare=False)

    def net_of_input(self, gid: str) -> str:
        return self.gates[gid].pins["y"]

    def net_of_output(self, gid: str) -> str:
        return self.gates[gid].pins["a"]

    def input_radixes(self) -> list[Optional[int]]:
        return [self.gates[g].radix for g in self.inputs]

    def eval_order(self) -> list[str]:
        """Topological order of the combinational core, derived afresh by
        the walk validate makes; raises NetlistError if the netlist is
        invalid."""
        return [rec[0].gid for rec in levelized(self)
                if rec[0].kind not in _NOT_COMB]


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
        for sig in gate_ports(g):
            if not sig.is_input:
                drivers[g.pins[sig.name]].append(g.gid)
    return drivers


def _levelize(comb: list[tuple], nnets: int) -> list[tuple]:
    """Kahn order over the combinational gates; other drivers act as sources.

    A gate becomes ready once every one of its input nets is resolved; a
    net resolves once all of its combinational drivers have run. Ready
    gates join one queue, which is walked as it grows. Raises on
    combinational cycles.
    """
    pending = [0] * nnets                   # unrun drivers, per net
    for gate in comb:
        pending[gate[1]] += 1
    waiting: list[int] = []                 # unresolved inputs, per gate
    watchers: list[Optional[list[int]]] = [None] * nnets  # per net
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


def levelized(nl: Netlist) -> list[tuple]:
    """Check every structural rule; return one record per driving gate.

    A record is a flat tuple (gate, y, *ins): the gate, the number of its
    output net and the numbers of its input nets in port order, with nets
    numbered in nl.nets order. The sources (inputs, constants and storage,
    which have no ins) come first in gate order, then the combinational
    gates in eval order. Flat tuples keep small the records a netlist holds
    until its first lowering.

    One walk over every gate's ports checks them, numbers their nets and
    collects the drivers, the storage and the records. The first violation
    raises NetlistError.
    When a netlist breaks several rules, the one reported is the first in
    this order: net radixes, each gate in turn (first, that its key is its
    id), the drivers of each net, the storage lists, the port lists, the
    clock, unlisted input ports, combinational cycles.
    """
    nets = nl.nets
    number: dict[str, int] = {}
    radixes: list[Optional[int]] = []
    for i, (nid, r) in enumerate(nets.items()):
        if r is not None and (why := radix_problem(r)):
            raise NetlistError(f"net {nid}: {why}")
        number[nid] = i
        radixes.append(r)
    driver: list[Optional[str]] = [None] * len(radixes)  # first, per net
    shared: list[tuple[int, str]] = []      # each further driver, with its net
    sources: list[tuple] = []
    comb: list[tuple] = []
    config: list[str] = []                  # CONFIG_LATCH ids, in gate order
    state: list[str] = []                   # NARY_DLATCH ids, in gate order
    ports: list[Gate] = []                  # INPUT gates
    for gid, g in nl.gates.items():
        if g.gid != gid:
            raise NetlistError(f"gate {g.gid} is stored under key {gid!r}")
        kind, pins, radix = g.kind, g.pins, g.radix
        # a bad radix first: -1 would read as _ANY
        if radix is not None and (why := radix_problem(radix)):
            raise NetlistError(f"gate {g.gid}: {why}")
        if kind is _NARY_DLATCH and radix is None:
            raise NetlistError(f"{g.gid}: {kind.value} needs a radix")
        if kind in _FAN_IN:
            # before the signature, whose size grows with the declared fan-in
            if type(g.param) is int and g.param > len(pins):
                raise NetlistError(f"{g.gid}: fan-in {g.param} exceeds its {len(pins)} pins")
            sig = _PORTS.get((id(kind), g.param)) if type(g.param) is int else None
        else:
            sig = _PORTS.get((id(kind), radix))
        # _signature's cache read inline: the call costs more than the
        # lookup; a miss builds it, or raises for a bad fan-in
        sigs, names = sig or _signature(g)
        if pins.keys() != names:
            missing = sorted(names - set(pins))
            extra = sorted(set(pins) - names)
            raise NetlistError(
                f"{g.gid}: dangling or unknown ports (missing {missing}, extra {extra})"
            )
        ins: list[int] = []
        out = -1
        for name, is_input, want in sigs:
            i = number.get(pins[name])
            if i is None or radixes[i] != want and (want != _ANY or radixes[i] is None):
                raise _port_error(g, name, want, i, radixes)
            if is_input:
                ins.append(i)
            else:
                out = i
                if driver[i] is None:
                    driver[i] = g.gid
                else:
                    shared.append((i, g.gid))
        if kind in _NOT_COMB:
            if kind is _CONST:
                hi = 1 if radix is None else radix - 1
                if type(g.param) is not int or not 0 <= g.param <= hi:
                    raise _bad_param(g, "constant", f"out of range 0..{hi}")
            elif kind is _CONFIG_LATCH:
                config.append(g.gid)
            elif kind is _NARY_DLATCH:
                state.append(g.gid)
            elif kind is _INPUT:
                ports.append(g)
            if kind is not _OUTPUT:
                sources.append((g, out))
            continue
        if kind is _SWITCH:
            if radixes[ins[0]] != radixes[out]:
                raise NetlistError(f"{g.gid}: switch data radix {radixes[ins[0]]} "
                                   f"!= output radix {radixes[out]}")
        elif kind is _TLG:
            n = radixes[ins[0]]
            if type(g.param) is not int or not -1 <= g.param <= n - 1:
                raise _bad_param(g, "threshold", f"outside -1..{n - 1} for radix {n}")
        comb.append((g, out, *ins))

    bad = driver.index(None) if None in driver else len(driver)
    for i, gid in shared:
        if i < bad and (nl.gates[gid].kind is not _SWITCH
                        or nl.gates[driver[i]].kind is not _SWITCH):
            bad = i
    if bad < len(driver):
        nid = list(nets)[bad]
        if driver[bad] is None:
            raise NetlistError(f"net {nid} has no driver")
        ds = [driver[bad]] + [gid for i, gid in shared if i == bad]
        raise NetlistError(f"net {nid} multiply driven by non-switch gates: {ds}")

    for lst, actual, kind in ((nl.latch_order, config, _CONFIG_LATCH),
                              (nl.state_latches, state, _NARY_DLATCH)):
        if sorted(lst) != sorted(actual) or len(set(lst)) != len(lst):
            raise NetlistError(f"{kind.value} ordering list does not match gates")
    grouped = [gid for grp in nl.state_groups for gid in grp]
    if not all(nl.state_groups) or sorted(grouped) != sorted(nl.state_latches):
        raise NetlistError("state_groups do not partition the state latches")

    for lst, kind in ((nl.inputs, _INPUT), (nl.outputs, _OUTPUT)):
        for gid in lst:
            if gid not in nl.gates or nl.gates[gid].kind is not kind:
                raise NetlistError(
                    f"{kind.value} list entry {gid} is not an {kind.value} port")
        if len(set(lst)) != len(lst):
            raise NetlistError(f"{kind.value} list repeats an entry")
    if nl.clock is not None:
        if nl.clock not in number:
            raise NetlistError(f"clock net {nl.clock} does not exist")
        first = driver[number[nl.clock]]
        if nl.gates[first].kind is not _INPUT or first in nl.inputs:
            raise NetlistError(
                f"clock net {nl.clock} is not driven by a dedicated input port")
    for g in ports:
        if g.gid not in nl.inputs and g.pins["y"] != nl.clock:
            raise NetlistError(f"input port {g.gid} is neither listed nor the clock")

    return sources + _levelize(comb, len(radixes))


def validate(nl: Netlist) -> None:
    """Full structural check: connectivity, drivers, signal kinds, cycles.

    The netlist's records and compiled program are dropped on entry. If
    every check passes, its levelized records are kept for the simulator's
    first lowering, which consumes them.
    """
    nl._records = nl._program = None
    nl._records = levelized(nl)


class NetlistBuilder:
    """Incremental construction with deterministic ids.

    Internal nets are numbered w0, w1, ... in creation order; input ports
    drive nets named after the port. Gate ids are hierarchical paths
    supplied by the synthesis layer (e.g. "dec/tlg1").
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
            nid = f"w{self._wire_seq}"
            self._wire_seq += 1
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
        self.add_gate(gid, _TLG, {"d": d, "y": y}, param=threshold)
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
        pins = {f"a{i}": n for i, n in enumerate(ins)}
        pins["y"] = y
        self.add_gate(gid, kind, pins, param=len(ins))
        return y

    def switch(self, gid: str, d: str, c: str, y: str) -> None:
        self.add_gate(gid, _SWITCH, {"d": d, "c": c, "y": y})

    def const(self, value: int, radix: Optional[int]) -> str:
        """Constant driver, deduplicated per (value, radix)."""
        key = (value, radix)
        if key not in self._consts:
            tag = "b" if radix is None else f"r{radix}"
            gid = f"const_{tag}_{value}"
            y = self.net(radix, nid=f"{gid}_w")
            self.add_gate(gid, _CONST, {"y": y}, param=value, radix=radix)
            self._consts[key] = y
        return self._consts[key]

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
