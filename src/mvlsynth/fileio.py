"""On-disk formats and graph export.

All documents are JSON with an explicit version field and fixed key order,
so serialize -> parse -> serialize is byte-stable. Each line of a written
file holds the bytes json.dumps gives for its field or element; a netlist's
nets and gates are formatted here, with json's own string encoder, rather
than by one json.dumps call each. Bitstream files carry a
fingerprint of the target fabric's latch ordering, which sim.load_config
checks, so a saved stream can never be loaded into the wrong (or a
reshaped) fabric silently, through the library or the command line.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .netlist import (Gate, GateType, Netlist, _driver_map, fingerprint,
                      gate_ports, validate)
from .tables import ConfigBitstream, FsmSpec, TruthTable
from .values import Radix

FORMAT_VERSION = "1"


class FileFormatError(ValueError):
    """Malformed or mistyped document; message names the offending field."""


class _Encoded(list):
    """An array whose elements are already encoded as JSON text."""


def _dump(doc: dict) -> str:
    """doc as JSON, one top-level field per line.

    An array of objects or arrays (nets, gates, state groups, FSM rows)
    gets one element per line, and so does an _Encoded array. Every other
    piece goes through json.dumps's C encoder; indent= would force its
    pure-Python one.
    """
    fields = []
    for key, value in doc.items():
        if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            value = _Encoded(map(json.dumps, value))
        if type(value) is _Encoded:
            text = "[\n    " + ",\n    ".join(value) + "\n  ]" if value else "[]"
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _load(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # nesting or an integer too big
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


# The checks below compare exact types: json.loads makes no subclasses, and
# a bool, whose type is bool, never counts as an integer.
def _field(doc: dict, name: str, kind: type, where: str = "") -> Any:
    if name not in doc:
        raise FileFormatError(f"missing field '{where}{name}'")
    v = doc[name]
    if type(v) is not kind:
        raise FileFormatError(f"field '{where}{name}': wrong type {type(v).__name__}")
    return v


def _count(doc: dict, name: str, low: int) -> int:
    """An integer field of at least low."""
    v = _field(doc, name, int)
    if v < low:
        raise FileFormatError(f"field '{name}': must be an integer >= {low}, got {v}")
    return v


def _optional(doc: dict, name: str, kind: type, what: str, where: str = "") -> Any:
    """A field that may be absent or null, else of the given type."""
    v = doc.get(name)
    if v is not None and type(v) is not kind:
        raise FileFormatError(f"field '{where}{name}': must be {what} or null")
    return v


def _array(v: Any, path: str, kind: type) -> list:
    """v as an array whose every element has the given type.

    Errors name the element, as in 'transition[0][1]'.
    """
    if type(v) is not list:
        raise FileFormatError(f"field '{path}': must be an array")
    for i, e in enumerate(v):
        if type(e) is not kind:
            raise FileFormatError(f"field '{path}[{i}]': wrong type {type(e).__name__}")
    return v


def _radix(doc: dict) -> Radix:
    """The document's radix field, judged by the one radix rule."""
    v = _field(doc, "radix", int)
    try:
        return Radix(v)
    except ValueError as e:
        raise FileFormatError(f"field 'radix': {e}") from e


def _table(v: Any, path: str, radix: Radix, arity: int) -> TruthTable:
    """The truth table whose entries, in row order, are the array v."""
    entries = tuple(_array(v, path, int))
    try:
        return TruthTable(radix, arity, entries)
    except ValueError as e:
        raise FileFormatError(f"field '{path}': {e}") from e


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
    radix = _radix(doc)
    arity = _count(doc, "arity", 1)
    name = _optional(doc, "name", str, "a string")
    return _table(doc.get("outputs"), "outputs", radix, arity), name


# -- netlists -----------------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in GateType}
_FABRIC_KINDS = (None, "decoder", "mux")


# json.dumps's own C string encoder (under its default ensure_ascii=True)
_string = json.encoder.encode_basestring_ascii


def _number(v: Any) -> str:
    """An int or None as json.dumps writes it; other values raise TypeError."""
    if v is None:
        return "null"
    if type(v) is not int:  # a bool or a float: json.dumps writes those
        raise TypeError(v)
    return "%d" % v  # past the int-to-str digit limit: ValueError, as in dumps


def _nets(nl: Netlist) -> _Encoded:
    lines = _Encoded()
    for nid, radix in nl.nets.items():
        try:
            lines.append(f'{{"id": {_string(nid)}, "radix": {_number(radix)}}}')
        except (TypeError, ValueError):
            lines.append(json.dumps({"id": nid, "radix": radix}))
    return lines


def _gates(nl: Netlist) -> _Encoded:
    lines = _Encoded()
    for g in nl.gates.values():
        kind, pins = g.kind.value, g.pins
        try:
            if not isinstance(pins, dict):
                raise TypeError(pins)
            wires = ", ".join([f"{_string(port)}: {_string(net)}"
                               for port, net in pins.items()])
            lines.append(f'{{"id": {_string(g.gid)}, "gate": {_string(kind)}, '
                         f'"param": {_number(g.param)}, "radix": {_number(g.radix)}, '
                         f'"pins": {{{wires}}}}}')
        except (TypeError, ValueError):
            lines.append(json.dumps({"id": g.gid, "gate": kind, "param": g.param,
                                     "radix": g.radix, "pins": pins}))
    return lines


def netlist_to_text(nl: Netlist) -> str:
    """nl as a netlist document; each net and gate line holds the bytes
    json.dumps gives for that element."""
    doc = {
        "version": FORMAT_VERSION,
        "kind": "netlist",
        "fabric_kind": nl.fabric_kind,
        "clock": nl.clock,
        "inputs": list(nl.inputs),
        "outputs": list(nl.outputs),
        "nets": _nets(nl),
        "gates": _gates(nl),
        "latch_order": list(nl.latch_order),
        "state_latches": list(nl.state_latches),
        "state_groups": [list(grp) for grp in nl.state_groups],
    }
    return _dump(doc)


def netlist_from_text(text: str) -> Netlist:
    doc = _load(text, "netlist")
    nets: dict[str, Optional[int]] = {}
    for i, entry in enumerate(_array(doc.get("nets"), "nets", dict)):
        where = f"nets[{i}]."
        nid = _field(entry, "id", str, where)
        radix = _optional(entry, "radix", int, "integer", where)
        if nid in nets:
            raise FileFormatError(f"field '{where}id': duplicate {nid!r}")
        nets[nid] = radix

    gates: dict[str, Gate] = {}
    for i, entry in enumerate(_array(doc.get("gates"), "gates", dict)):
        where = f"gates[{i}]."
        gid = _field(entry, "id", str, where)
        kind_name = _field(entry, "gate", str, where)
        if kind_name not in _KIND_BY_NAME:
            raise FileFormatError(f"field '{where}gate': unknown kind {kind_name!r}")
        pins = _field(entry, "pins", dict, where)
        for port, net in pins.items():
            if type(net) is not str:
                raise FileFormatError(
                    f"field '{where}pins.{port}': must be a net id string")
        if gid in gates:
            raise FileFormatError(f"field '{where}id': duplicate {gid!r}")
        param = _optional(entry, "param", int, "integer", where)
        radix = _optional(entry, "radix", int, "integer", where)
        gates[gid] = Gate(gid, _KIND_BY_NAME[kind_name], pins, param, radix)

    groups = [tuple(_array(grp, f"state_groups[{i}]", str)) for i, grp
              in enumerate(_array(doc.get("state_groups"), "state_groups", list))]

    fabric_kind = doc.get("fabric_kind")
    if fabric_kind not in _FABRIC_KINDS:
        raise FileFormatError(
            f"field 'fabric_kind': expected null, 'decoder' or 'mux', got {fabric_kind!r}")

    nl = Netlist(
        gates=gates,
        nets=nets,
        inputs=_array(doc.get("inputs"), "inputs", str),
        outputs=_array(doc.get("outputs"), "outputs", str),
        latch_order=_array(doc.get("latch_order"), "latch_order", str),
        state_latches=_array(doc.get("state_latches"), "state_latches", str),
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
    radix = _radix(doc)
    state_arity = _count(doc, "state_arity", 1)
    input_arity = _count(doc, "input_arity", 0)

    def tables(name: str) -> tuple[TruthTable, ...]:
        return tuple(_table(row, f"{name}[{i}]", radix, state_arity + input_arity)
                     for i, row in enumerate(_array(doc.get(name), name, list)))

    transition = tables("transition")
    if len(transition) != state_arity:
        raise FileFormatError(f"field 'transition': need one table per state "
                              f"digit ({state_arity}), got {len(transition)}")
    output = None if doc.get("output") is None else tables("output")
    # every check FsmSpec makes is made above, each naming its field
    return FsmSpec(radix, state_arity, input_arity, transition, output)


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
    if k is GateType.CONFIG_LATCH:
        return "CFG"
    if k is GateType.NARY_DLATCH:
        return f"DLATCH N={g.radix}"
    if k is GateType.CONST:
        tag = "" if g.radix is None else f" N={g.radix}"
        return f"CONST {g.param}{tag}"
    return g.gid  # ports label as their name


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
        lines.append(f"  {_quote(g.gid)} [label={_quote(_dot_label(g))} shape={shape}];")
    for g in nl.gates.values():
        for sig in gate_ports(g):
            if not sig.is_input:
                continue
            nid = g.pins[sig.name]
            for src in drivers[nid]:
                lines.append(f"  {_quote(src)} -> {_quote(g.gid)} [label={_quote(nid)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
