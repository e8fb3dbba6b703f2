"""Frozen copy of the port-signature, driver-map, levelize and validate
code that the single port walk in ``mvlsynth.netlist`` replaced.

Test-only reference for ``test_netlist_diff.py``: ``gate_ports`` (a fresh
list of ``PortSig`` per call), ``_driver_map``, ``_levelize`` and
``validate`` are kept verbatim, except that ``validate`` ends with this
module's ``_levelize`` instead of ``Netlist.eval_order()``, so it never
reads an order cached on the netlist, and that it refuses a net or gate id
that is not a string, as the single walk does. Do not change its
behaviour otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from mvlsynth.netlist import STATEFUL, Gate, GateType, Netlist, NetlistError


@dataclass
class PortSig:
    name: str
    is_input: bool
    radix: Optional[int]            # None = binary, -1 = any single radix


_ANY = -1


def gate_ports(g: Gate) -> list[PortSig]:
    """Port signature of a gate instance (direction and signal kind)."""
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


def _driver_map(nl: Netlist) -> dict[str, list[str]]:
    drivers: dict[str, list[str]] = {nid: [] for nid in nl.nets}
    for g in nl.gates.values():
        for sig in gate_ports(g):
            if not sig.is_input:
                drivers[g.pins[sig.name]].append(g.gid)
    return drivers


def _levelize(nl: Netlist) -> list[str]:
    """Kahn order over non-stateful gates; stateful outputs act as sources.

    A gate becomes ready once every one of its input nets is resolved; a
    net resolves once all of its schedulable drivers have run. Raises on
    combinational cycles.
    """
    pending: dict[str, int] = {nid: 0 for nid in nl.nets}
    schedulable: list[Gate] = []
    for g in nl.gates.values():
        if g.kind in STATEFUL or g.kind in (GateType.INPUT, GateType.CONST):
            continue
        if g.kind is GateType.OUTPUT:
            continue
        schedulable.append(g)
        for sig in gate_ports(g):
            if not sig.is_input:
                pending[g.pins[sig.name]] += 1

    waiting: dict[str, int] = {}
    watchers: dict[str, list[Gate]] = {nid: [] for nid in nl.nets}
    ready: list[Gate] = []
    for g in schedulable:
        unresolved = 0
        for sig in gate_ports(g):
            if sig.is_input and pending[g.pins[sig.name]] > 0:
                unresolved += 1
                watchers[g.pins[sig.name]].append(g)
        waiting[g.gid] = unresolved
        if unresolved == 0:
            ready.append(g)

    order: list[str] = []
    while ready:
        nxt: list[Gate] = []
        for g in ready:
            order.append(g.gid)
            for sig in gate_ports(g):
                if sig.is_input:
                    continue
                nid = g.pins[sig.name]
                pending[nid] -= 1
                if pending[nid] == 0:
                    for w in watchers[nid]:
                        waiting[w.gid] -= 1
                        if waiting[w.gid] == 0:
                            nxt.append(w)
        ready = nxt

    if len(order) != len(schedulable):
        stuck = sorted(g.gid for g in schedulable if g.gid not in set(order))
        raise NetlistError(f"combinational cycle involving gates: {stuck}")
    return order


def validate(nl: Netlist) -> None:
    """Full structural check: connectivity, drivers, signal kinds, cycles."""
    for nid, radix in nl.nets.items():
        if type(nid) is not str:
            raise NetlistError(f"net id {nid!r} is not a string")
        if radix is not None and radix < 2:
            raise NetlistError(f"net {nid}: radix {radix} is below 2")
    for gid, g in nl.gates.items():
        if type(gid) is not str:
            raise NetlistError(f"gate id {gid!r} is not a string")
        if g.kind is GateType.NARY_DLATCH and g.radix is None:
            raise NetlistError(f"{g.gid}: {g.kind.value} needs a radix")
        sigs = gate_ports(g)
        names = {s.name for s in sigs}
        if set(g.pins) != names:
            missing = sorted(names - set(g.pins))
            extra = sorted(set(g.pins) - names)
            raise NetlistError(
                f"{g.gid}: dangling or unknown ports (missing {missing}, extra {extra})"
            )
        for sig in sigs:
            nid = g.pins[sig.name]
            if nid not in nl.nets:
                raise NetlistError(f"{g.gid}.{sig.name}: unknown net {nid!r}")
            radix = nl.nets[nid]
            if sig.radix is None and radix is not None:
                raise NetlistError(
                    f"{g.gid}.{sig.name}: binary port on radix-{radix} net {nid}"
                )
            if sig.radix == _ANY and radix is None:
                raise NetlistError(f"{g.gid}.{sig.name}: radix-N port on binary net {nid}")
            if sig.radix not in (None, _ANY) and radix != sig.radix:
                raise NetlistError(
                    f"{g.gid}.{sig.name}: radix-{sig.radix} port on net {nid} "
                    f"of radix {radix}"
                )
        if g.kind is GateType.SWITCH:
            din, dout = nl.nets[g.pins["d"]], nl.nets[g.pins["y"]]
            if din != dout:
                raise NetlistError(
                    f"{g.gid}: switch data radix {din} != output radix {dout}"
                )
        if g.kind is GateType.TLG:
            n = nl.nets[g.pins["d"]]
            if g.param is None or not -1 <= g.param <= n - 1:
                raise NetlistError(
                    f"{g.gid}: threshold {g.param} outside -1..{n - 1} for radix {n}"
                )
        if g.kind is GateType.CONST:
            hi = 1 if g.radix is None else g.radix - 1
            if g.param is None or not 0 <= g.param <= hi:
                raise NetlistError(f"{g.gid}: constant {g.param} out of range 0..{hi}")

    drivers = _driver_map(nl)
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
        if nl.clock not in nl.nets:
            raise NetlistError(f"clock net {nl.clock} does not exist")
        ds = drivers[nl.clock]
        if nl.gates[ds[0]].kind is not GateType.INPUT or ds[0] in nl.inputs:
            raise NetlistError(
                f"clock net {nl.clock} is not driven by a dedicated input port")
    for g in nl.gates.values():
        if (g.kind is GateType.INPUT and g.gid not in nl.inputs
                and g.pins["y"] != nl.clock):
            raise NetlistError(f"input port {g.gid} is neither listed nor the clock")

    _levelize(nl)  # raises on combinational cycles
