"""On-disk formats and graph export.

All documents are JSON with an explicit version field and fixed key order,
so serialize -> parse -> serialize is byte-stable. Bitstream files carry a
fingerprint of the target fabric's latch ordering so a stream can never be
loaded into the wrong (or a reshaped) fabric silently.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional, Union

from .netlist import (Gate, GateType, Net, Netlist, _driver_map, gate_ports,
                      validate)
from .tables import ConfigBitstream, FsmSpec, TruthTable
from .values import Radix

FORMAT_VERSION = "1"


class FileFormatError(ValueError):
    """Malformed or mistyped document; message names the offending field."""


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise FileFormatError(
            f"field 'version': expected {FORMAT_VERSION!r}, got {doc.get('version')!r}")
    if doc.get("kind") != kind:
        raise FileFormatError(
            f"field 'kind': expected {kind!r}, got {doc.get('kind')!r}")
    return doc


def _field(doc: dict, name: str, types: Union[type, tuple], where: str = "") -> Any:
    if name not in doc:
        raise FileFormatError(f"missing field '{where}{name}'")
    v = doc[name]
    if not isinstance(v, types) or isinstance(v, bool):
        raise FileFormatError(f"field '{where}{name}': wrong type {type(v).__name__}")
    return v


def _optional(doc: dict, name: str, types: type, what: str, where: str = "") -> Any:
    """A field that may be absent or null, else of the given type."""
    v = doc.get(name)
    if v is not None and (not isinstance(v, types) or isinstance(v, bool)):
        raise FileFormatError(f"field '{where}{name}': must be {what} or null")
    return v


# -- truth tables -------------------------------------------------------------


def table_to_text(tt: TruthTable, name: Optional[str] = None) -> str:
    doc: dict = {"version": FORMAT_VERSION, "kind": "truth_table"}
    if name is not None:
        doc["name"] = name
    doc["radix"] = tt.radix.n
    doc["arity"] = tt.arity
    doc["outputs"] = list(tt.entries)
    return _dump(doc)


def table_from_text(text: str) -> tuple[TruthTable, Optional[str]]:
    doc = _load(text, "truth_table")
    radix = _field(doc, "radix", int)
    arity = _field(doc, "arity", int)
    outputs = _field(doc, "outputs", list)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise FileFormatError("field 'name': must be a string")
    for i, v in enumerate(outputs):
        if not isinstance(v, int) or isinstance(v, bool):
            raise FileFormatError(f"field 'outputs[{i}]': must be an integer")
    try:
        tt = TruthTable(Radix(radix), arity, tuple(outputs))
    except ValueError as e:
        raise FileFormatError(str(e)) from e
    return tt, name


# -- netlists -----------------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in GateType}
_FABRIC_KINDS = (None, "decoder", "mux")


def netlist_to_text(nl: Netlist) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "kind": "netlist",
        "fabric_kind": nl.fabric_kind,
        "clock": nl.clock,
        "inputs": list(nl.inputs),
        "outputs": list(nl.outputs),
        "nets": [{"id": net.nid, "radix": net.radix} for net in nl.nets.values()],
        "gates": [
            {"id": g.gid, "gate": g.kind.value, "param": g.param,
             "radix": g.radix, "pins": dict(g.pins)}
            for g in nl.gates.values()
        ],
        "latch_order": list(nl.latch_order),
        "state_latches": list(nl.state_latches),
        "state_groups": [list(grp) for grp in nl.state_groups],
    }
    return _dump(doc)


def netlist_from_text(text: str) -> Netlist:
    doc = _load(text, "netlist")
    nets: dict[str, Net] = {}
    for i, entry in enumerate(_field(doc, "nets", list)):
        if not isinstance(entry, dict):
            raise FileFormatError(f"field 'nets[{i}]': must be an object")
        nid = _field(entry, "id", str, f"nets[{i}].")
        radix = _optional(entry, "radix", int, "integer", f"nets[{i}].")
        if nid in nets:
            raise FileFormatError(f"field 'nets[{i}].id': duplicate {nid!r}")
        nets[nid] = Net(nid, radix)

    gates: dict[str, Gate] = {}
    for i, entry in enumerate(_field(doc, "gates", list)):
        if not isinstance(entry, dict):
            raise FileFormatError(f"field 'gates[{i}]': must be an object")
        gid = _field(entry, "id", str, f"gates[{i}].")
        kind_name = _field(entry, "gate", str, f"gates[{i}].")
        if kind_name not in _KIND_BY_NAME:
            raise FileFormatError(f"field 'gates[{i}].gate': unknown kind {kind_name!r}")
        pins = _field(entry, "pins", dict, f"gates[{i}].")
        for port, net in pins.items():
            if not isinstance(net, str):
                raise FileFormatError(
                    f"field 'gates[{i}].pins.{port}': must be a net id string")
        if gid in gates:
            raise FileFormatError(f"field 'gates[{i}].id': duplicate {gid!r}")
        param = _optional(entry, "param", int, "integer", f"gates[{i}].")
        radix = _optional(entry, "radix", int, "integer", f"gates[{i}].")
        gates[gid] = Gate(gid, _KIND_BY_NAME[kind_name], dict(pins), param, radix)

    def str_list(name: str) -> list[str]:
        vals = _field(doc, name, list)
        for i, v in enumerate(vals):
            if not isinstance(v, str):
                raise FileFormatError(f"field '{name}[{i}]': must be a string")
        return list(vals)

    groups = []
    for i, grp in enumerate(_field(doc, "state_groups", list)):
        if not isinstance(grp, list) or not all(isinstance(v, str) for v in grp):
            raise FileFormatError(f"field 'state_groups[{i}]': must be a string array")
        groups.append(tuple(grp))

    fabric_kind = doc.get("fabric_kind")
    if fabric_kind not in _FABRIC_KINDS:
        raise FileFormatError(
            f"field 'fabric_kind': expected null, 'decoder' or 'mux', got {fabric_kind!r}")

    nl = Netlist(
        gates=gates,
        nets=nets,
        inputs=str_list("inputs"),
        outputs=str_list("outputs"),
        latch_order=str_list("latch_order"),
        state_latches=str_list("state_latches"),
        state_groups=groups,
        clock=_optional(doc, "clock", str, "a net id string"),
        fabric_kind=fabric_kind,
    )
    try:
        validate(nl)
    except ValueError as e:
        raise FileFormatError(f"invalid netlist: {e}") from e
    return nl


# -- bitstreams ---------------------------------------------------------------


def fingerprint(nl: Netlist) -> str:
    """Identity of a fabric's configuration addressing: hash of latch_order."""
    digest = hashlib.sha256("\n".join(nl.latch_order).encode()).hexdigest()
    return f"sha256:{digest}"


def bitstream_to_text(bits: ConfigBitstream) -> str:
    if bits.fingerprint is None:
        raise FileFormatError("bitstream has no fabric fingerprint; refusing to save")
    doc = {
        "version": FORMAT_VERSION,
        "kind": "bitstream",
        "fingerprint": bits.fingerprint,
        "bits": "".join(str(b) for b in bits.bits),
    }
    return _dump(doc)


def bitstream_from_text(text: str) -> ConfigBitstream:
    doc = _load(text, "bitstream")
    fp = _field(doc, "fingerprint", str)
    raw = _field(doc, "bits", str)
    if set(raw) - {"0", "1"}:
        raise FileFormatError("field 'bits': only characters 0 and 1 allowed")
    return ConfigBitstream(tuple(int(c) for c in raw), fp)


# -- machine specs ------------------------------------------------------------


def fsm_to_text(spec: FsmSpec) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "kind": "fsm",
        "radix": spec.radix.n,
        "state_arity": spec.state_arity,
        "input_arity": spec.input_arity,
        "transition": [list(tt.entries) for tt in spec.transition],
        "output": (None if spec.output is None
                   else [list(tt.entries) for tt in spec.output]),
    }
    return _dump(doc)


def fsm_from_text(text: str) -> FsmSpec:
    doc = _load(text, "fsm")
    radix = _field(doc, "radix", int)
    state_arity = _field(doc, "state_arity", int)
    input_arity = _field(doc, "input_arity", int)

    def tables(name: str, rows: list) -> tuple[TruthTable, ...]:
        out = []
        for i, entries in enumerate(rows):
            if not isinstance(entries, list):
                raise FileFormatError(f"field '{name}[{i}]': must be an array")
            try:
                out.append(TruthTable(Radix(radix), state_arity + input_arity,
                                      tuple(entries)))
            except ValueError as e:
                raise FileFormatError(f"field '{name}[{i}]': {e}") from e
        return tuple(out)

    transition = tables("transition", _field(doc, "transition", list))
    output_rows = doc.get("output")
    output = None
    if output_rows is not None:
        if not isinstance(output_rows, list):
            raise FileFormatError("field 'output': must be an array or null")
        output = tables("output", output_rows)
    try:
        return FsmSpec(Radix(radix), state_arity, input_arity, transition, output)
    except ValueError as e:
        raise FileFormatError(str(e)) from e


# -- file helpers -------------------------------------------------------------


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_table(path) -> tuple[TruthTable, Optional[str]]:
    return table_from_text(_read(path))


def save_table(path, tt: TruthTable, name: Optional[str] = None) -> None:
    _write(path, table_to_text(tt, name))


def load_netlist(path) -> Netlist:
    return netlist_from_text(_read(path))


def save_netlist(path, nl: Netlist) -> None:
    _write(path, netlist_to_text(nl))


def load_bitstream(path) -> ConfigBitstream:
    return bitstream_from_text(_read(path))


def save_bitstream(path, bits: ConfigBitstream) -> None:
    _write(path, bitstream_to_text(bits))


def load_fsm(path) -> FsmSpec:
    return fsm_from_text(_read(path))


def save_fsm(path, spec: FsmSpec) -> None:
    _write(path, fsm_to_text(spec))


# -- DOT export ---------------------------------------------------------------

_SHAPES = {
    GateType.CONFIG_LATCH: "box3d",
    GateType.NARY_DLATCH: "box3d",
    GateType.INPUT: "invhouse",
    GateType.OUTPUT: "house",
    GateType.CONST: "plaintext",
}


def _dot_label(g: Gate) -> str:
    k = g.kind
    if k is GateType.TLG:
        return f"TLG t={g.param}"
    if k in (GateType.AND, GateType.OR):
        return f"{k.value.upper()}{g.param}"
    if k is GateType.NOT:
        return "NOT"
    if k is GateType.SWITCH:
        return "SW"
    if k is GateType.NARY_INVERTER:
        return f"INV N={g.radix}"
    if k is GateType.CONFIG_LATCH:
        return "CFG"
    if k is GateType.NARY_DLATCH:
        return f"DLATCH N={g.radix}"
    if k is GateType.CONST:
        tag = "" if g.radix is None else f" N={g.radix}"
        return f"CONST {g.param}{tag}"
    return g.gid  # ports label as their name


def export_dot(nl: Netlist) -> str:
    """Render the netlist as a directed graph document.

    Gates become nodes (storage elements get a distinct shape), nets become
    edges from driver to reader labeled with the net id. Output is fully
    determined by the netlist's creation order.
    """
    drivers = _driver_map(nl)
    lines = ["digraph netlist {", "  rankdir=LR;"]
    for g in nl.gates.values():
        shape = _SHAPES.get(g.kind, "box")
        lines.append(f'  "{g.gid}" [label="{_dot_label(g)}" shape={shape}];')
    for g in nl.gates.values():
        for sig in gate_ports(g):
            if not sig.is_input:
                continue
            nid = g.pins[sig.name]
            for src in drivers[nid]:
                lines.append(f'  "{src}" -> "{g.gid}" [label="{nid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
