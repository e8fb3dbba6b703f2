"""Gate-level netlist IR: gates, nets, connectivity, validation.

Signal kinds: a net is either binary (radix None) or carries one radix-N
level. Binary nets and radix-2 nets are distinct kinds; ports never mix
them. Every net has exactly one driver, except nets driven only by switch
outputs, which may have several switch drivers (the simulator checks that
at most one conducts at a time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class NetlistError(ValueError):
    """Raised for structurally invalid netlists or connections."""


class GateType(enum.Enum):
    TLG = "tlg"                    # comparator: out = 1 iff data > threshold
    AND = "and"
    OR = "or"
    NOT = "not"
    SWITCH = "switch"              # conducts data to output iff control = 1
    NARY_INVERTER = "nary_inverter"
    CONFIG_LATCH = "config_latch"  # binary storage programmed by a bitstream
    NARY_DLATCH = "nary_dlatch"    # radix-N storage, next value on pin d
    CONST = "const"
    INPUT = "input"
    OUTPUT = "output"


# Gate kinds whose output value comes from simulator-owned storage rather
# than from upstream logic. They are excluded from the combinational core.
STATEFUL = (GateType.CONFIG_LATCH, GateType.NARY_DLATCH)


@dataclass
class Gate:
    gid: str
    kind: GateType
    pins: dict[str, str]            # port name -> net id
    param: Optional[int] = None     # threshold / fan-in / const value
    radix: Optional[int] = None     # None = binary for CONST and ports

    def fan_in(self) -> int:
        if self.kind not in (GateType.AND, GateType.OR):
            raise NetlistError(f"{self.gid}: fan_in undefined for {self.kind.value}")
        return int(self.param)


@dataclass
class Net:
    nid: str
    radix: Optional[int]            # None = binary

    @property
    def is_binary(self) -> bool:
        return self.radix is None


@dataclass(frozen=True)
class PortSig:
    name: str
    is_input: bool
    radix: Optional[int]            # None = binary, -1 = any single radix


_ANY = -1

# Shared port signatures and their port-name sets, keyed by (kind, fan-in)
# for AND/OR and by (kind, radix) for every other kind. Only signatures
# that built cleanly are stored, so a bad fan-in or an unknown kind raises
# on every call.
_PORTS: dict[tuple, tuple[tuple[PortSig, ...], frozenset[str]]] = {}


def _signature(g: Gate) -> tuple[tuple[PortSig, ...], frozenset[str]]:
    k = g.kind
    key = (k, g.fan_in()) if k is GateType.AND or k is GateType.OR else (k, g.radix)
    sig = _PORTS.get(key)
    if sig is None:
        ports = tuple(_build_ports(g))
        sig = _PORTS[key] = (ports, frozenset(p.name for p in ports))
    return sig


def gate_ports(g: Gate) -> tuple[PortSig, ...]:
    """Port signature of a gate instance (direction and signal kind).

    The tuple is shared by every gate with the same signature.
    """
    return _signature(g)[0]


def _build_ports(g: Gate) -> list[PortSig]:
    k = g.kind
    if k is GateType.TLG:
        return [PortSig("d", True, _ANY), PortSig("y", False, None)]
    if k in (GateType.AND, GateType.OR):
        fi = g.fan_in()
        if fi < 1:
            raise NetlistError(f"{g.gid}: fan-in must be >= 1")
        ins = [PortSig(f"a{i}", True, None) for i in range(fi)]
        return ins + [PortSig("y", False, None)]
    if k is GateType.NOT:
        return [PortSig("a", True, None), PortSig("y", False, None)]
    if k is GateType.SWITCH:
        return [
            PortSig("d", True, _ANY),
            PortSig("c", True, None),
            PortSig("y", False, _ANY),
        ]
    if k is GateType.NARY_INVERTER:
        return [PortSig("d", True, g.radix), PortSig("y", False, g.radix)]
    if k is GateType.CONFIG_LATCH:
        return [PortSig("q", False, None)]
    if k is GateType.NARY_DLATCH:
        return [PortSig("d", True, g.radix), PortSig("q", False, g.radix)]
    if k is GateType.CONST:
        return [PortSig("y", False, g.radix)]
    if k is GateType.INPUT:
        return [PortSig("y", False, g.radix)]
    if k is GateType.OUTPUT:
        return [PortSig("a", True, g.radix)]
    raise NetlistError(f"unknown gate kind {k!r}")


# A combinational gate as levelize sees it: (gid, input nets, output nets),
# nets in port order.
CombGate = tuple[str, list[str], list[str]]

# Gate kinds outside the combinational core: sources, sinks and storage.
_NOT_COMB = (*STATEFUL, GateType.INPUT, GateType.CONST, GateType.OUTPUT)


@dataclass
class Netlist:
    """Immutable-by-convention gate graph. Build through NetlistBuilder."""

    gates: dict[str, Gate]
    nets: dict[str, Net]
    inputs: list[str]               # INPUT gate ids; gate id doubles as port name
    outputs: list[str]              # OUTPUT gate ids, in declared order
    latch_order: list[str]          # CONFIG_LATCH ids, bitstream addressing order
    state_latches: list[str]        # NARY_DLATCH ids in creation order
    state_groups: list[tuple[str, ...]]  # latches sharing one reset digit
    clock: Optional[str] = None     # net driven by the sequential stepper
    fabric_kind: Optional[str] = None    # "decoder" | "mux" for fabrics
    _order: list[str] = field(default_factory=list, repr=False)
    # the simulator's compiled program, built on first simulation
    _program: Optional[object] = field(default=None, repr=False, compare=False)

    def net_of_input(self, gid: str) -> str:
        return self.gates[gid].pins["y"]

    def net_of_output(self, gid: str) -> str:
        return self.gates[gid].pins["a"]

    def input_radixes(self) -> list[Optional[int]]:
        return [self.gates[g].radix for g in self.inputs]

    def output_radixes(self) -> list[Optional[int]]:
        return [self.gates[g].radix for g in self.outputs]

    def eval_order(self, comb: Optional[list[CombGate]] = None) -> list[str]:
        """Topological order of the combinational core (cached).

        validate passes the combinational gates its port walk collected,
        and the order is rebuilt from them (dropping the program compiled
        from the old one); otherwise it is built once from the gates' ports.
        """
        if comb is None:
            if self._order:
                return self._order
            comb = [_comb_gate(g) for g in self.gates.values()
                    if g.kind not in _NOT_COMB]
        self._program = None
        self._order[:] = _levelize(self.nets, comb)
        return self._order


def _comb_gate(g: Gate) -> CombGate:
    ins: list[str] = []
    outs: list[str] = []
    for sig in gate_ports(g):
        (ins if sig.is_input else outs).append(g.pins[sig.name])
    return g.gid, ins, outs


def _driver_map(nl: Netlist) -> dict[str, list[str]]:
    drivers: dict[str, list[str]] = {nid: [] for nid in nl.nets}
    for g in nl.gates.values():
        for sig in gate_ports(g):
            if not sig.is_input:
                drivers[g.pins[sig.name]].append(g.gid)
    return drivers


def _levelize(nets: Iterable[str], comb: list[CombGate]) -> list[str]:
    """Kahn order over the combinational gates; other drivers act as sources.

    A gate becomes ready once every one of its input nets is resolved; a
    net resolves once all of its combinational drivers have run. Raises on
    combinational cycles.
    """
    pending: dict[str, int] = dict.fromkeys(nets, 0)
    for _, _, outs in comb:
        for nid in outs:
            pending[nid] += 1

    waiting: dict[str, int] = {}
    watchers: dict[str, list[CombGate]] = {}
    ready: list[CombGate] = []
    for gate in comb:
        unresolved = 0
        for nid in gate[1]:
            if pending[nid] > 0:
                unresolved += 1
                watchers.setdefault(nid, []).append(gate)
        waiting[gate[0]] = unresolved
        if unresolved == 0:
            ready.append(gate)

    order: list[str] = []
    while ready:
        nxt: list[CombGate] = []
        for gid, _, outs in ready:
            order.append(gid)
            for nid in outs:
                pending[nid] -= 1
                if pending[nid] == 0:
                    for w in watchers.get(nid, ()):
                        waiting[w[0]] -= 1
                        if waiting[w[0]] == 0:
                            nxt.append(w)
        ready = nxt

    if len(order) != len(comb):
        done = set(order)
        stuck = sorted(gid for gid, _, _ in comb if gid not in done)
        raise NetlistError(f"combinational cycle involving gates: {stuck}")
    return order


def validate(nl: Netlist) -> None:
    """Full structural check: connectivity, drivers, signal kinds, cycles.

    One walk over every gate's ports checks them and collects the driver
    map and the combinational gates that levelize orders.
    """
    nets = nl.nets
    for net in nets.values():
        if net.radix is not None and net.radix < 2:
            raise NetlistError(f"net {net.nid}: radix {net.radix} is below 2")
    drivers: dict[str, list[str]] = {nid: [] for nid in nets}
    comb: list[CombGate] = []
    for g in nl.gates.values():
        kind, pins = g.kind, g.pins
        if kind in (GateType.NARY_INVERTER, GateType.NARY_DLATCH) and g.radix is None:
            raise NetlistError(f"{g.gid}: {kind.value} needs a radix")
        sigs, names = _signature(g)
        if pins.keys() != names:
            missing = sorted(names - set(pins))
            extra = sorted(set(pins) - names)
            raise NetlistError(
                f"{g.gid}: dangling or unknown ports (missing {missing}, extra {extra})"
            )
        ins: list[str] = []
        outs: list[str] = []
        for sig in sigs:
            nid = pins[sig.name]
            net = nets.get(nid)
            if net is None:
                raise NetlistError(f"{g.gid}.{sig.name}: unknown net {nid!r}")
            if sig.radix is None:
                if net.radix is not None:
                    raise NetlistError(
                        f"{g.gid}.{sig.name}: binary port on radix-{net.radix} net {nid}"
                    )
            elif sig.radix == _ANY:
                if net.radix is None:
                    raise NetlistError(
                        f"{g.gid}.{sig.name}: radix-N port on binary net {nid}")
            elif net.radix != sig.radix:
                raise NetlistError(
                    f"{g.gid}.{sig.name}: radix-{sig.radix} port on net {nid} "
                    f"of radix {net.radix}"
                )
            if sig.is_input:
                ins.append(nid)
            else:
                outs.append(nid)
                drivers[nid].append(g.gid)
        if kind is GateType.SWITCH:
            din, dout = nets[pins["d"]], nets[pins["y"]]
            if din.radix != dout.radix:
                raise NetlistError(
                    f"{g.gid}: switch data radix {din.radix} != output radix {dout.radix}"
                )
        elif kind is GateType.TLG:
            n = nets[pins["d"]].radix
            if g.param is None or not -1 <= g.param <= n - 1:
                raise NetlistError(
                    f"{g.gid}: threshold {g.param} outside -1..{n - 1} for radix {n}"
                )
        elif kind is GateType.CONST:
            hi = 1 if g.radix is None else g.radix - 1
            if g.param is None or not 0 <= g.param <= hi:
                raise NetlistError(f"{g.gid}: constant {g.param} out of range 0..{hi}")
        if kind not in _NOT_COMB:
            comb.append((g.gid, ins, outs))

    for nid, ds in drivers.items():
        if not ds:
            raise NetlistError(f"net {nid} has no driver")
        if len(ds) > 1:
            kinds = {nl.gates[d].kind for d in ds}
            if kinds != {GateType.SWITCH}:
                raise NetlistError(f"net {nid} multiply driven by non-switch gates: {ds}")

    for lst, kind in ((nl.latch_order, GateType.CONFIG_LATCH),
                      (nl.state_latches, GateType.NARY_DLATCH)):
        actual = [g.gid for g in nl.gates.values() if g.kind is kind]
        if sorted(lst) != sorted(actual) or len(set(lst)) != len(lst):
            raise NetlistError(f"{kind.value} ordering list does not match gates")
    grouped = [gid for grp in nl.state_groups for gid in grp]
    if sorted(grouped) != sorted(nl.state_latches):
        raise NetlistError("state_groups do not partition the state latches")

    for gid in nl.inputs:
        if nl.gates[gid].kind is not GateType.INPUT:
            raise NetlistError(f"input list entry {gid} is not an input port")
    for gid in nl.outputs:
        if nl.gates[gid].kind is not GateType.OUTPUT:
            raise NetlistError(f"output list entry {gid} is not an output port")
    if nl.clock is not None:
        if nl.clock not in nets:
            raise NetlistError(f"clock net {nl.clock} does not exist")
        ds = drivers[nl.clock]
        if nl.gates[ds[0]].kind is not GateType.INPUT or ds[0] in nl.inputs:
            raise NetlistError(
                f"clock net {nl.clock} is not driven by a dedicated input port")
    for g in nl.gates.values():
        if (g.kind is GateType.INPUT and g.gid not in nl.inputs
                and g.pins["y"] != nl.clock):
            raise NetlistError(f"input port {g.gid} is neither listed nor the clock")

    nl.eval_order(comb)  # raises on combinational cycles


class NetlistBuilder:
    """Incremental construction with deterministic ids.

    Internal nets are numbered w0, w1, ... in creation order; input ports
    drive nets named after the port. Gate ids are hierarchical paths
    supplied by the synthesis layer (e.g. "dec/tlg1").
    """

    def __init__(self):
        self.gates: dict[str, Gate] = {}
        self.nets: dict[str, Net] = {}
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
        self.nets[nid] = Net(nid, radix)
        return nid

    # -- gates --------------------------------------------------------------

    def add_gate(self, gid: str, kind: GateType, pins: dict[str, str],
                 param: Optional[int] = None, radix: Optional[int] = None) -> Gate:
        if gid in self.gates:
            raise NetlistError(f"duplicate gate id {gid!r}")
        g = Gate(gid, kind, dict(pins), param, radix)
        self.gates[gid] = g
        return g

    def add_input(self, name: str, radix: Optional[int]) -> str:
        nid = self.net(radix, nid=name)
        self.add_gate(name, GateType.INPUT, {"y": nid}, radix=radix)
        self.inputs.append(name)
        return nid

    def add_output(self, name: str, net: str) -> None:
        self.add_gate(name, GateType.OUTPUT, {"a": net},
                      radix=self.nets[net].radix)
        self.outputs.append(name)

    def tlg(self, gid: str, d: str, threshold: int) -> str:
        y = self.net(None)
        self.add_gate(gid, GateType.TLG, {"d": d, "y": y}, param=threshold)
        return y

    def not_(self, gid: str, a: str) -> str:
        y = self.net(None)
        self.add_gate(gid, GateType.NOT, {"a": a, "y": y})
        return y

    def and_(self, gid: str, ins: Sequence[str]) -> str:
        if len(ins) == 1:
            return ins[0]
        y = self.net(None)
        pins = {f"a{i}": n for i, n in enumerate(ins)}
        pins["y"] = y
        self.add_gate(gid, GateType.AND, pins, param=len(ins))
        return y

    def or_(self, gid: str, ins: Sequence[str]) -> str:
        if len(ins) == 1:
            return ins[0]
        y = self.net(None)
        pins = {f"a{i}": n for i, n in enumerate(ins)}
        pins["y"] = y
        self.add_gate(gid, GateType.OR, pins, param=len(ins))
        return y

    def switch(self, gid: str, d: str, c: str, y: str) -> None:
        self.add_gate(gid, GateType.SWITCH, {"d": d, "c": c, "y": y})

    def nary_inverter(self, gid: str, d: str, radix: int) -> str:
        y = self.net(radix)
        self.add_gate(gid, GateType.NARY_INVERTER, {"d": d, "y": y}, radix=radix)
        return y

    def const(self, value: int, radix: Optional[int]) -> str:
        """Constant driver, deduplicated per (value, radix)."""
        key = (value, radix)
        if key not in self._consts:
            tag = "b" if radix is None else f"r{radix}"
            gid = f"const_{tag}_{value}"
            y = self.net(radix, nid=f"{gid}_w")
            self.add_gate(gid, GateType.CONST, {"y": y}, param=value, radix=radix)
            self._consts[key] = y
        return self._consts[key]

    def config_latch(self, gid: str) -> str:
        q = self.net(None)
        self.add_gate(gid, GateType.CONFIG_LATCH, {"q": q})
        self.latch_order.append(gid)
        return q

    def nary_dlatch(self, gid: str, d: str, radix: int) -> str:
        q = self.net(radix)
        self.add_gate(gid, GateType.NARY_DLATCH, {"d": d, "q": q}, radix=radix)
        return q

    def add_state_group(self, latches: Iterable[str]) -> None:
        self.state_groups.append(tuple(latches))

    # -- finish -------------------------------------------------------------

    def finish(self) -> Netlist:
        state_latches = [g.gid for g in self.gates.values()
                         if g.kind is GateType.NARY_DLATCH]
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
