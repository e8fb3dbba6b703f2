"""File formats: byte-stable round trips, error reporting, DOT export."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mvlsynth import fileio
from mvlsynth.fileio import (FileFormatError, bitstream_from_text,
                             bitstream_to_text, export_dot, fingerprint,
                             fsm_from_text, fsm_to_text, netlist_from_text,
                             netlist_to_text, table_from_text, table_to_text)
from mvlsynth.netlist import Gate, GateType, Netlist, NetlistBuilder, validate
from mvlsynth.oracle import random_table
from mvlsynth.sim import eval_combinational
from mvlsynth.synth import (Strategy, build_decoder_1, build_fabric_decoder,
                            build_fabric_mux, build_nary_dff, build_nary_dlatch,
                            compile_fsm, derive_config, synth_tables)
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable
from mvlsynth.values import Radix
from test_netlist_diff import FAMILIES, _outcome

SUM3 = TruthTable.make(3, 2, (0, 1, 2, 1, 2, 0, 2, 0, 1))

COUNTER = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
MOORE = FsmSpec(Radix(3), 1, 1,
                (TruthTable.make(3, 2, tuple((s + i) % 3 for s in range(3)
                                             for i in range(3))),),
                (TruthTable.make(3, 2, tuple(2 - s for s in range(3)
                                             for _ in range(3))),))


def _stable(text, from_text, to_text):
    obj = from_text(text)
    assert to_text(obj) == text
    return obj


def test_table_round_trip():
    text = table_to_text(SUM3, name="sum3")
    tt, name = table_from_text(text)
    assert (tt, name) == (SUM3, "sum3")
    assert table_to_text(tt, name) == text
    anon = table_to_text(SUM3)
    assert '"name"' not in anon
    assert table_from_text(anon) == (SUM3, None)


def test_netlist_round_trips():
    for nl in (build_decoder_1(3),
               synth_tables([SUM3], Strategy.MUX_TREE),
               build_fabric_decoder(3, 2),
               compile_fsm(COUNTER, Strategy.DECODER)):
        text = netlist_to_text(nl)
        back = _stable(text, netlist_from_text, netlist_to_text)
        assert back.inputs == nl.inputs
        assert back.outputs == nl.outputs
        assert back.latch_order == nl.latch_order
        assert back.state_groups == nl.state_groups
        assert back.clock == nl.clock
        assert back.fabric_kind == nl.fabric_kind


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_builder_netlists_round_trip(family):
    for nl in FAMILIES[family]():
        back = _stable(netlist_to_text(nl), netlist_from_text, netlist_to_text)
        assert back == nl


def test_bitstream_round_trip():
    fabric = build_fabric_decoder(3, 2)
    raw = derive_config(SUM3, fabric)
    bits = ConfigBitstream(raw.bits, fingerprint(fabric))
    text = bitstream_to_text(bits)
    assert _stable(text, bitstream_from_text, bitstream_to_text) == bits


def test_fsm_round_trips():
    for spec in (COUNTER, MOORE):
        text = fsm_to_text(spec)
        assert _stable(text, fsm_from_text, fsm_to_text) == spec


def test_fingerprint_identity():
    a = build_fabric_decoder(3, 2)
    assert fingerprint(a).startswith("sha256:")
    assert fingerprint(a) == fingerprint(build_fabric_decoder(3, 2))
    assert fingerprint(a) != fingerprint(build_fabric_mux(3, 2))
    assert fingerprint(a) != fingerprint(build_fabric_decoder(2, 2))


def test_unfingerprinted_bitstream_refused():
    with pytest.raises(FileFormatError, match="fingerprint"):
        bitstream_to_text(ConfigBitstream((0, 1)))


def test_version_and_kind_checks():
    good = table_to_text(SUM3)
    with pytest.raises(FileFormatError, match="version"):
        table_from_text(good.replace('"version": "1"', '"version": "2"'))
    with pytest.raises(FileFormatError, match="kind"):
        netlist_from_text(good)
    with pytest.raises(FileFormatError, match="JSON"):
        table_from_text("not json at all")
    with pytest.raises(FileFormatError):
        table_from_text("[1, 2]")


def test_errors_name_the_field():
    with pytest.raises(FileFormatError, match="radix"):
        table_from_text('{"version": "1", "kind": "truth_table", '
                        '"arity": 1, "outputs": [0, 1]}')
    with pytest.raises(FileFormatError, match="outputs"):
        table_from_text('{"version": "1", "kind": "truth_table", '
                        '"radix": 2, "arity": 1, "outputs": [0, "x"]}')
    with pytest.raises(FileFormatError, match="arity"):
        table_from_text('{"version": "1", "kind": "truth_table", '
                        '"radix": 2, "arity": "1", "outputs": [0, 1]}')
    with pytest.raises(FileFormatError):
        table_from_text(table_to_text(SUM3).replace('"radix": 3', '"radix": 1'))


_DEEP = {"arrays": "[" * 100000 + "]" * 100000,
         "objects": '{"a": ' * 100000 + "1" + "}" * 100000,
         "huge integer": '{"version": "1", "radix": ' + "9" * 5000 + "}"}


@pytest.mark.parametrize("text", sorted(_DEEP))
@pytest.mark.parametrize("load", [table_from_text, netlist_from_text,
                                  bitstream_from_text, fsm_from_text])
def test_deep_nesting_and_huge_integers_are_not_valid_json(load, text):
    with pytest.raises(FileFormatError, match="^not valid JSON: "):
        load(_DEEP[text])


@pytest.mark.parametrize("load, doc, message", [
    (table_from_text, {"kind": "truth_table", "radix": 1, "arity": 1,
                       "outputs": [0]},
     "field 'radix': radix 1 is below 2"),
    (table_from_text, {"kind": "truth_table", "radix": 3, "arity": 0,
                       "outputs": [0]},
     "field 'arity': must be an integer >= 1, got 0"),
    (fsm_from_text, {"kind": "fsm", "radix": 1, "state_arity": 1,
                     "input_arity": 0, "transition": []},
     "field 'radix': radix 1 is below 2"),
    (fsm_from_text, {"kind": "fsm", "radix": 3, "state_arity": 0,
                     "input_arity": 0, "transition": []},
     "field 'state_arity': must be an integer >= 1, got 0"),
    (fsm_from_text, {"kind": "fsm", "radix": 3, "state_arity": 1,
                     "input_arity": -1, "transition": [[1, 2, 0]]},
     "field 'input_arity': must be an integer >= 0, got -1"),
    (fsm_from_text, {"kind": "fsm", "radix": 3, "state_arity": 2,
                     "input_arity": 0, "transition": [[0] * 9]},
     "field 'transition': need one table per state digit (2), got 1"),
    (table_from_text, {"kind": "truth_table", "radix": 257, "arity": 1,
                       "outputs": [0]},
     "field 'radix': radix 257 is above 256"),
])
def test_scalar_errors_name_their_field(load, doc, message):
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        load(json.dumps({"version": "1", **doc}))


def test_bitstream_character_check():
    with pytest.raises(FileFormatError, match="bits"):
        bitstream_from_text('{"version": "1", "kind": "bitstream", '
                            '"fingerprint": "sha256:00", "bits": "01x"}')


def test_netlist_document_checks():
    text = netlist_to_text(build_decoder_1(2))
    dup = text.replace('"id": "dec/tlg0"', '"id": "dec/not0"', 1)
    with pytest.raises(FileFormatError, match="duplicate"):
        netlist_from_text(dup)
    broken = text.replace('"gate": "tlg"', '"gate": "tlgx"', 1)
    with pytest.raises(FileFormatError, match="unknown kind"):
        netlist_from_text(broken)
    dangling = text.replace('"d": "x"', '"d": "ghost"', 1)
    with pytest.raises(FileFormatError, match="invalid netlist"):
        netlist_from_text(dangling)


def _set_tlg(key, value):
    def edit(doc):
        next(g for g in doc["gates"] if g["gate"] == "tlg")[key] = value
    return edit


def _set_top(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize("edit, field", [
    (_set_tlg("param", "1"), "gates[1].param"),
    (_set_tlg("param", 1.5), "gates[1].param"),
    (_set_tlg("param", True), "gates[1].param"),
    (_set_tlg("radix", "3"), "gates[1].radix"),
    (_set_tlg("radix", 2.0), "gates[1].radix"),
    (_set_tlg("radix", False), "gates[1].radix"),
    (_set_top("clock", [1]), "clock"),
    (_set_top("clock", 7), "clock"),
    (_set_top("fabric_kind", "lut"), "fabric_kind"),
    (_set_top("fabric_kind", ["mux"]), "fabric_kind"),
    (_set_tlg("gate", "nary_inverter"), "gates[1].gate"),
])
def test_netlist_field_types(edit, field):
    doc = json.loads(netlist_to_text(build_decoder_1(3)))
    edit(doc)
    with pytest.raises(FileFormatError, match=rf"field '{re.escape(field)}'"):
        netlist_from_text(json.dumps(doc))


def _dlatch_doc():
    return json.loads(netlist_to_text(build_nary_dlatch(3)))


def _binary_dlatch(doc):
    next(g for g in doc["gates"] if g["gate"] == "nary_dlatch")["radix"] = None


def _drop_input(doc):
    doc["inputs"].remove("i0")


def _null_fan_in(doc):
    next(g for g in doc["gates"] if g["gate"] == "and")["param"] = None


def _rename_output(doc):
    next(g for g in doc["gates"] if g["id"] == "b0")["id"] = "renamed"


@pytest.mark.parametrize("doc, edit, message", [
    (_dlatch_doc, _binary_dlatch, "nary_dlatch needs a radix"),
    (_dlatch_doc, lambda doc: doc["nets"][0].__setitem__("radix", 1),
     "radix 1 is below 2"),
    (lambda: json.loads(netlist_to_text(compile_fsm(COUNTER, Strategy.DECODER))),
     _set_top("clock", "const_r3_0_w"), "not driven by a dedicated input"),
    (lambda: json.loads(netlist_to_text(compile_fsm(MOORE, Strategy.DECODER))),
     _set_top("clock", "i0"), "not driven by a dedicated input"),
    (lambda: json.loads(netlist_to_text(compile_fsm(MOORE, Strategy.DECODER))),
     _drop_input, "input port i0 is neither listed nor the clock"),
    (lambda: json.loads(netlist_to_text(build_decoder_1(3))),
     _null_fan_in, "dec/and1: fan-in None is not an integer"),
    (lambda: json.loads(netlist_to_text(compile_fsm(MOORE, Strategy.DECODER))),
     lambda doc: doc["inputs"].append("ghost"),
     "input list entry ghost is not an input port"),
    (lambda: json.loads(netlist_to_text(build_decoder_1(3))),
     _rename_output, "output list entry b0 is not an output port"),
], ids=["dlatch-without-radix", "radix-1-net", "clock-on-const",
        "clock-on-listed-input", "unlisted-input", "null-fan-in",
        "unknown-input", "renamed-output"])
def test_netlist_structure_the_simulator_relies_on(doc, edit, message):
    doc = doc()
    netlist_from_text(json.dumps(doc))
    edit(doc)
    with pytest.raises(FileFormatError, match=f"invalid netlist.*{message}"):
        netlist_from_text(json.dumps(doc))


def test_huge_fan_in_is_refused_briefly():
    doc = json.loads(netlist_to_text(build_decoder_1(3)))
    next(g for g in doc["gates"] if g["gate"] == "and")["param"] = 10**6
    with pytest.raises(FileFormatError,
                       match="dec/and1: fan-in 1000000 exceeds its 3 pins") as e:
        netlist_from_text(json.dumps(doc))
    assert len(str(e.value)) < 200


def test_huge_arity_is_refused_briefly():
    doc = json.loads(table_to_text(SUM3))
    doc["arity"] = 10**7  # 3**arity alone would take seconds to compute
    with pytest.raises(FileFormatError,
                       match=r"'outputs': expected 3\*\*10000000 entries .* got 9"):
        table_from_text(json.dumps(doc))


def test_loaded_netlist_equals_its_unvalidated_source():
    raw = Netlist(
        gates={"x": Gate("x", GateType.INPUT, {"y": "x"}, radix=3),
               "t": Gate("t", GateType.TLG, {"d": "x", "y": "w"}, param=1),
               "y": Gate("y", GateType.OUTPUT, {"a": "w"})},
        nets={"x": 3, "w": None},
        inputs=["x"], outputs=["y"], latch_order=[], state_latches=[],
        state_groups=[])
    loaded = netlist_from_text(netlist_to_text(raw))
    assert loaded.eval_order() == ["t"]   # loading validates, so levelizes
    assert loaded == raw


def test_a_hand_built_netlist_maps_each_net_to_its_radix():
    nl = Netlist(
        gates={"x": Gate("x", GateType.INPUT, {"y": "x"}, radix=3),
               "t": Gate("t", GateType.TLG, {"d": "x", "y": "w"}, param=1),
               "y": Gate("y", GateType.OUTPUT, {"a": "w"})},
        nets={"x": 3, "w": None},
        inputs=["x"], outputs=["y"], latch_order=[], state_latches=[],
        state_groups=[])
    validate(nl)
    assert [eval_combinational(nl, [x])[0] for x in range(3)] == [(0,), (0,), (1,)]
    loaded = netlist_from_text(netlist_to_text(nl))
    assert loaded == nl
    assert loaded.nets == {"x": 3, "w": None}
    for family in FAMILIES.values():
        for built in family():
            loaded = netlist_from_text(netlist_to_text(built))
            for got in (built, loaded):
                assert all(r is None or type(r) is int for r in got.nets.values())


def test_fsm_document_checks():
    text = fsm_to_text(COUNTER)
    short = json.loads(text)
    short["transition"][0] = [1, 2]
    with pytest.raises(FileFormatError, match="transition"):
        fsm_from_text(json.dumps(short))
    with pytest.raises(FileFormatError, match="state_arity"):
        fsm_from_text(text.replace('"state_arity": 1', '"state_arity": null'))


@pytest.mark.parametrize("value", [2.5, True, "2", None])
@pytest.mark.parametrize("table", ["transition", "output"])
def test_fsm_entries_must_be_integers(table, value):
    doc = json.loads(fsm_to_text(MOORE))
    doc[table][0][1] = value
    with pytest.raises(FileFormatError,
                       match=rf"field '{table}\[0\]\[1\]': wrong type"):
        fsm_from_text(json.dumps(doc))


def test_file_helpers(tmp_path):
    p = tmp_path / "t.json"
    fileio.save_table(p, SUM3, "s")
    assert fileio.load_table(p) == (SUM3, "s")
    p = tmp_path / "n.json"
    fileio.save_netlist(p, build_decoder_1(3))
    assert netlist_to_text(fileio.load_netlist(p)) == netlist_to_text(
        build_decoder_1(3))
    p = tmp_path / "b.json"
    fabric = build_fabric_mux(3, 1)
    bits = ConfigBitstream(derive_config(
        TruthTable.make(3, 1, (2, 1, 0)), fabric).bits, fingerprint(fabric))
    fileio.save_bitstream(p, bits)
    assert fileio.load_bitstream(p) == bits
    p = tmp_path / "m.json"
    fileio.save_fsm(p, MOORE)
    assert fileio.load_fsm(p) == MOORE


# -- every field of every document kind, substituted --------------------------

_SUBSTITUTES = (1.5, True, None, "zz", [], {}, -1, 10**6)


def _paths(node, path=()):
    """Every field below node, and the first three elements of each array."""
    keys = node if isinstance(node, dict) else range(min(3, len(node)))
    for k in keys:
        yield path + (k,)
        if isinstance(node[k], (dict, list)):
            yield from _paths(node[k], path + (k,))


def _bitstream_text(build_fabric):
    fabric = build_fabric(3, 1)
    bits = derive_config(TruthTable.make(3, 1, (2, 1, 0)), fabric)
    return bitstream_to_text(ConfigBitstream(bits.bits, fingerprint(fabric)))


# One valid document of each kind, as (writer, loader); test_properties
# sweeps the same ones.
DOCUMENTS = {
    "table": (lambda: table_to_text(SUM3, "sum3"), table_from_text),
    "fsm": (lambda: fsm_to_text(MOORE), fsm_from_text),
    "fsm-netlist": (lambda: netlist_to_text(compile_fsm(MOORE, Strategy.DECODER)),
                    netlist_from_text),
    "mux-fabric": (lambda: netlist_to_text(build_fabric_mux(3, 1)),
                   netlist_from_text),
    "bitstream": (lambda: _bitstream_text(build_fabric_mux),
                  bitstream_from_text),
    "decoder-bitstream": (lambda: _bitstream_text(build_fabric_decoder),
                          bitstream_from_text),
}


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_every_field_substitution_loads_or_is_refused(kind):
    to_text, from_text = DOCUMENTS[kind]
    doc = json.loads(to_text())
    escaped = []
    for path in list(_paths(doc)):
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        old = parent[path[-1]]
        for value in _SUBSTITUTES:
            parent[path[-1]] = value
            try:
                from_text(json.dumps(doc))
            except FileFormatError:
                pass
            except Exception as e:  # the defect this test looks for
                escaped.append((path, value, f"{type(e).__name__}: {e}"[:120]))
        parent[path[-1]] = old
    assert escaped == []


# -- written layout -----------------------------------------------------------

WIDE = TruthTable.from_function(3, 4, lambda a, b, c, d: (a * b + c + d) % 3)
LAYOUT_DOCUMENTS = dict(DOCUMENTS, **{
    "decoder-3^4": (lambda: netlist_to_text(synth_tables([WIDE], Strategy.DECODER)),
                    netlist_from_text)})


@pytest.mark.parametrize("kind", sorted(LAYOUT_DOCUMENTS))
def test_old_indented_layout_still_loads(kind):
    to_text, from_text = LAYOUT_DOCUMENTS[kind]
    new = to_text()
    old = json.dumps(json.loads(new), indent=2) + "\n"
    assert json.loads(old) == json.loads(new)
    assert from_text(old) == from_text(new)


def test_written_netlist_keeps_one_line_per_net_and_gate():
    text = netlist_to_text(synth_tables([WIDE], Strategy.DECODER))
    doc, lines = json.loads(text), text.splitlines()
    for key in ("nets", "gates"):
        first = lines.index(f'  "{key}": [') + 1
        last = lines.index("  ],", first)
        entries = [json.loads(line.rstrip(",")) for line in lines[first:last]]
        assert entries == doc[key]


def test_readme_file_examples_match_the_writer():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = {json.loads(b)["kind"]: b
              for b in re.findall(r"```json\n(.*?)```", readme, re.S)}
    assert blocks["truth_table"] == table_to_text(SUM3, "sum3")
    assert blocks["fsm"] == fsm_to_text(COUNTER)
    assert blocks["netlist"] == netlist_to_text(build_decoder_1(2))


# -- the netlist writer against one json.dumps call per element ---------------


def _reference_text(nl):
    """The netlist document with each net and gate through json.dumps."""
    return fileio._dump({
        "version": "1", "kind": "netlist", "fabric_kind": nl.fabric_kind,
        "clock": nl.clock, "inputs": list(nl.inputs), "outputs": list(nl.outputs),
        "nets": [{"id": nid, "radix": radix} for nid, radix in nl.nets.items()],
        "gates": [{"id": g.gid, "gate": g.kind.value, "param": g.param,
                   "radix": g.radix, "pins": g.pins} for g in nl.gates.values()],
        "latch_order": list(nl.latch_order),
        "state_latches": list(nl.state_latches),
        "state_groups": [list(grp) for grp in nl.state_groups]})


def _builder_netlists(n):
    """Every strategy, fabric, storage element and FSM compiler at radix n."""
    rng = random.Random(n)
    for strategy in Strategy:
        yield synth_tables([random_table(n, 2, rng)], strategy)
        spec = FsmSpec(Radix(n), 1, 1, (random_table(n, 2, rng),),
                       (random_table(n, 2, rng),))
        yield compile_fsm(spec, strategy)
    yield build_fabric_decoder(n, 2)
    yield build_fabric_mux(n, 2)
    yield build_fabric_mux(n, 2, tree=False)
    yield build_nary_dlatch(n)
    yield build_nary_dff(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_builder_netlists_are_written_as_by_json_dumps(n):
    for nl in _builder_netlists(n):
        assert netlist_to_text(nl) == _reference_text(nl)


# text that json escapes: quotes, backslashes, control characters, non-ASCII
# (astral too) and lone surrogates
_TEXT = st.text(st.characters(exclude_categories=())
                | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
                max_size=4)
_KEY = _TEXT | st.integers(-3, 3) | st.none() | st.booleans() | st.floats()
# huge: past 2**63, and past the int-to-str digit limit
_NUMBER = (st.none() | st.integers() | st.booleans() | st.floats()
           | st.sampled_from([2**64, -2**64, 10**4299, 10**5000]))
# non-dict pins, one element of which json cannot write
_PINS = (st.dictionaries(_KEY, _KEY | _NUMBER, max_size=3)
         | st.lists(_KEY | st.frozensets(st.integers(), max_size=1), max_size=2))


@st.composite
def _netlists(draw):
    gates = {i: Gate(draw(_KEY), draw(st.sampled_from(GateType)), draw(_PINS),
                     draw(_NUMBER), draw(_NUMBER))
             for i in range(draw(st.integers(0, 3)))}
    nets = draw(st.dictionaries(_KEY, _NUMBER, max_size=3))
    return Netlist(gates, nets, ["x"], ["y"], [], [], [])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(nl=_netlists())
def test_hand_built_netlists_are_written_as_by_json_dumps(nl):
    assert _outcome(netlist_to_text, nl) == _outcome(_reference_text, nl)


# -- DOT export ---------------------------------------------------------------


def test_dot_decoder_shape():
    dot = export_dot(build_decoder_1(3))
    assert dot.startswith("digraph")
    assert dot.count('label="TLG t=') == 2
    assert dot.count('label="NOT"') == 2
    assert dot.count("shape=invhouse") == 1
    assert dot.count("shape=house") == 3
    assert export_dot(build_decoder_1(3)) == dot


def test_dot_edges_and_storage():
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    b.add_output("y", x)
    dot = export_dot(b.finish())
    assert '"x" -> "y" [label="x"];' in dot
    fab = export_dot(build_fabric_decoder(2, 1))
    assert "shape=box3d" in fab
    assert 'label="CFG"' in fab


def test_dot_labels_a_storage_latch_with_its_radix():
    assert 'label="DLATCH N=3"' in export_dot(build_nary_dlatch(3))


def test_dot_quotes_ids_and_labels():
    xid, tid, yid = 'x"\\', 'dec/"not0', '\\y"'
    b = NetlistBuilder()
    x = b.add_input(xid, 3)      # port id, port label and net id
    w = b.tlg(tid, x, 0)
    b.add_output(yid, w)
    q = r'"((?:[^"\\]|\\.)*)"'   # a quoted string with \-escapes
    node = re.compile(rf"  {q} \[label={q} shape=(\w+)\];")
    edge = re.compile(rf"  {q} -> {q} \[label={q}\];")
    nodes, edges = [], []
    for line in export_dot(b.finish()).splitlines()[2:-1]:
        got = node.fullmatch(line) or edge.fullmatch(line)
        assert got, line
        (nodes if got.re is node else edges).append(
            tuple(re.sub(r"\\(.)", r"\1", s) for s in got.groups()))
    assert nodes == [(xid, xid, "invhouse"), (tid, "TLG t=0", "box"),
                     (yid, yid, "house")]
    assert edges == [(xid, tid, xid), (tid, yid, w)]
