"""The records a builder keeps as it emits, against levelized's full walk.

NetlistBuilder takes levelized's net and per-gate steps as it emits, and
its finish() runs only the whole-netlist rules. For every public builder
in synth.py, and a hypothesis sample of tables, machines and fabrics,
the records finish() hands over must be levelized(nl)'s: the same tuples
in the same order, and the same net numbering. An edit made between emit
and finish() must be refused as validate refuses it, message for
message.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mvlsynth import netlist
from mvlsynth.netlist import (Gate, GateType, NetlistBuilder, NetlistError,
                              levelized, validate)
from mvlsynth.oracle import random_table
from mvlsynth.synth import (Strategy, build_decoder_1, build_decoder_m,
                            build_fabric_decoder, build_fabric_mux,
                            build_mux_1, build_mux_m, build_nary_dff,
                            build_nary_dlatch, compile_fsm, synth_tables)
from mvlsynth.tables import FsmSpec


def _same_records(nl):
    """finish()'s kept records are levelized(nl)'s, gate for gate."""
    kept, fresh = nl._records, levelized(nl)
    assert kept is not None
    assert [(id(r[0]), *r[1:]) for r in kept] == [(id(r[0]), *r[1:]) for r in fresh]
    assert kept == fresh
    assert list(kept.number.items()) == list(fresh.number.items())


@pytest.fixture
def walks(monkeypatch):
    """The netlists that validate's full walk checked."""
    seen = []
    full = netlist.validate

    def counted(nl):
        seen.append(nl)
        full(nl)
    monkeypatch.setattr(netlist, "validate", counted)
    return seen


def _machine(n, sa, ia, strategy, outputs, rng):
    def tables(count):
        return tuple(random_table(n, sa + ia, rng) for _ in range(count))
    spec = FsmSpec(tables(1)[0].radix, sa, ia, tables(sa),
                   tables(outputs) if outputs else None)
    return compile_fsm(spec, strategy)


def _builders():
    rng = random.Random(36)
    cases = {}
    for n in (2, 3, 5):
        cases[f"decoder_1-{n}"] = lambda n=n: build_decoder_1(n)
        cases[f"mux_1-{n}"] = lambda n=n: build_mux_1(n)
    for n, m in ((3, 2), (2, 3)):
        cases[f"decoder_m-{n}^{m}"] = lambda n=n, m=m: build_decoder_m(n, m)
        for tree in (True, False):
            cases[f"mux_m-{n}^{m}-{tree}"] = lambda n=n, m=m, t=tree: build_mux_m(n, m, t)
    for s in Strategy:
        for count in (1, 3):
            for n, m in ((2, 1), (3, 2), (4, 2)):
                tts = [random_table(n, m, rng) for _ in range(count)]
                cases[f"tables-{s.value}-{count}x{n}^{m}"] = (
                    lambda tts=tts, s=s: synth_tables(tts, s))
        for outputs in (0, 2):
            cases[f"fsm-{s.value}-{outputs}"] = (
                lambda s=s, o=outputs, seed=rng.random(): _machine(
                    3, 2, 1, s, o, random.Random(seed)))
    for n, m in ((2, 1), (3, 2)):
        cases[f"fabric_decoder-{n}^{m}"] = lambda n=n, m=m: build_fabric_decoder(n, m)
        for tree in (True, False):
            cases[f"fabric_mux-{n}^{m}-{tree}"] = (
                lambda n=n, m=m, t=tree: build_fabric_mux(n, m, t))
    cases["nary_dlatch"] = lambda: build_nary_dlatch(3)
    cases["nary_dff"] = lambda: build_nary_dff(4)
    return cases


BUILDERS = _builders()


@pytest.mark.parametrize("case", sorted(BUILDERS))
def test_each_builder_hands_over_levelized_records(case, walks):
    nl = BUILDERS[case]()
    assert walks == []  # no builder in synth.py reads gates or nets
    _same_records(nl)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(shape=st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 1)]),
       strategy=st.sampled_from(list(Strategy)), count=st.integers(1, 3),
       seed=st.integers(0, 2**32))
def test_sampled_tables_hand_over_levelized_records(shape, strategy, count, seed):
    rng = random.Random(seed)
    _same_records(synth_tables([random_table(*shape, rng) for _ in range(count)],
                               strategy))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), sa=st.integers(1, 2), ia=st.integers(0, 1),
       strategy=st.sampled_from(list(Strategy)), outputs=st.integers(0, 2),
       seed=st.integers(0, 2**32))
def test_sampled_machines_hand_over_levelized_records(n, sa, ia, strategy,
                                                      outputs, seed):
    _same_records(_machine(n, sa, ia, strategy, outputs, random.Random(seed)))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(kind=st.sampled_from(["decoder", "mux-tree", "mux-flat"]),
       shape=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]))
def test_sampled_fabrics_hand_over_levelized_records(kind, shape):
    if kind == "decoder":
        _same_records(build_fabric_decoder(*shape))
    else:
        _same_records(build_fabric_mux(*shape, tree=kind == "mux-tree"))


# -- edits between emit and finish() ----------------------------------------


def _emitted():
    """A small builder netlist of each emit method: x > 0, its complement,
    their AND and OR, a switch net and a constant."""
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    c = b.add_input("c", None)
    t = b.tlg("t", x, 0)
    n = b.not_("n", t)
    a = b.and_("a", [n, t])
    b.add_output("ya", b.or_("o", [a, c]))
    y = b.net(3)
    b.switch("s1", x, c, y)
    b.switch("s2", b.const(2, 3), b.not_("nc", c), y)
    b.add_output("y", y)
    return b


def _set(gid, field, value):
    return lambda target: setattr(target.gates[gid], field, value)


def _pin(gid, pin, net):
    return lambda target: target.gates[gid].pins.__setitem__(pin, net)


# Each edit is (on the builder, on a finished netlist): the same change,
# made through the builder's own methods where it has one.
EDITS = {
    "output-radix": _set("ya", "radix", 4),
    "gate-radix-float": _set("t", "radix", 3.0),
    "threshold": _set("t", "param", 5),
    "threshold-bool": _set("t", "param", True),
    "fan-in": _set("a", "param", 3),
    "const": _set("const_r3_2", "param", 3),
    "pin-radix": _pin("n", "a", "x"),
    "pin-unknown": _pin("o", "a1", "nosuch"),
    "pin-cycle": _pin("n", "a", "w2"),
    "switch-radix": _pin("s1", "d", "w0"),
    "net": lambda target: target.nets.__setitem__("orphan", 3),
    "net-radix": lambda target: target.nets.__setitem__("x", 4),
    "raw-gate": (
        lambda b: b.add_gate("bad", GateType.NOT, {"a": "nosuch", "y": "w1"}),
        lambda nl: nl.gates.__setitem__(
            "bad", Gate("bad", GateType.NOT, {"a": "nosuch", "y": "w1"}))),
    "raw-pins": (
        lambda b: b.add_gate("bad", GateType.NOT, [("a", "w0")]),
        lambda nl: nl.gates.__setitem__("bad", Gate("bad", GateType.NOT, [("a", "w0")]))),
    "output": (lambda b: b.add_output("z", "nope"),
               lambda nl: (nl.gates.__setitem__(
                   "z", Gate("z", GateType.OUTPUT, {"a": "nope"})), nl.outputs.append("z"))),
}


def _message(call, *args):
    with pytest.raises(NetlistError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_edit_before_finish_is_refused_as_validate_refuses_it(edit):
    on_builder, on_netlist = (EDITS[edit] if isinstance(EDITS[edit], tuple)
                              else (EDITS[edit],) * 2)
    b = _emitted()
    on_builder(b)
    nl = _emitted().finish()
    on_netlist(nl)
    assert _message(b.finish) == _message(validate, nl)


# Emits that break a rule, each through the emit method's own step; on
# _emitted(), x is a radix-3 input, c a binary one, w0 the binary TLG
# output and w4 the radix-3 switch net.
BAD_EMITS = {
    "and-radix": lambda b: b.and_("z", ["w0", "x"]),
    "or-unknown": lambda b: b.or_("z", ["w0", "nosuch"]),
    "and-no-input": lambda b: b.and_("z", []),
    "not-radix": lambda b: b.not_("z", "x"),
    "not-unhashable": lambda b: b.not_("z", ["w0"]),
    "tlg-binary": lambda b: b.tlg("z", "w0", 0),
    "tlg-threshold": lambda b: b.tlg("z", "x", 3),
    "tlg-bool": lambda b: b.tlg("z", "x", True),
    "switch-data": lambda b: b.switch("z", "w0", "c", "w4"),
    "switch-control": lambda b: b.switch("z", "x", "x", "w4"),
    "switch-radix": lambda b: b.switch("z", "x", "c", b.net(4)),
    "switch-on-input": lambda b: b.switch("z", "x", "c", "x"),
    "const-range": lambda b: b.const(3, 3),
    "const-bool": lambda b: b.const(True, None),
    "const-radix": lambda b: b.const(0, 1),
    "latch-radix": lambda b: b.nary_dlatch("z", "x", 4),
    "latch-no-radix": lambda b: b.nary_dlatch("z", "w0", None),
    "latch-unknown": lambda b: b.nary_dlatch("z", "nosuch", 3),
    "config-latch-unlisted": lambda b: (b.config_latch("z"), b.latch_order.clear()),
    "net-radix": lambda b: b.net(True),
    "net-id": lambda b: b.net(3, nid=5),
    "input-radix": lambda b: b.add_input("z", 1),
    "gate-id": lambda b: b.not_(7, "w0"),
    "output-unknown": lambda b: b.add_output("z", "nope"),
}


@pytest.mark.parametrize("emit", sorted(BAD_EMITS))
def test_an_emit_that_breaks_a_rule_is_refused_as_validate_refuses_it(emit):
    fast, full = _emitted(), _emitted()
    for b in (fast, full):
        BAD_EMITS[emit](b)
    assert full.gates  # a read sends finish() to the full walk
    assert _message(fast.finish) == _message(full.finish)


def test_a_pin_on_a_net_made_later_is_checked_by_the_full_walk(walks):
    b = NetlistBuilder()
    b.add_gate("n", GateType.NOT, {"a": "later", "y": b.net(None)})
    b.add_output("y", "w0")
    b.add_input("later", None)
    nl = b.finish()
    assert walks == [nl]
    _same_records(nl)


def test_a_read_of_gates_or_nets_hands_finish_to_the_full_walk(walks):
    for field in ("gates", "nets"):
        b = _emitted()
        getattr(b, field)
        nl = b.finish()
        assert walks[-1] is nl
        _same_records(nl)
    nl = _emitted().finish()
    assert walks[-1] is not nl
    _same_records(nl)


def test_a_raw_gate_is_stepped_from_a_copy_of_its_pins(walks):
    b = _emitted()
    pins = {"a": "w0", "y": b.net(None, nid="z")}
    assert b.add_gate("nz", GateType.NOT, pins) is None
    pins["a"] = "x"  # the gate keeps its own copy
    b.add_output("z", "z")
    nl = b.finish()
    assert walks == [] and nl.gates["nz"].pins["a"] == "w0"
    _same_records(nl)


def test_a_second_finish_runs_the_full_walk(walks):
    b = _emitted()
    b.finish()
    b.add_output("again", "w0")
    second = b.finish()
    assert walks == [second] and second.outputs[-1] == "again"


def test_validate_by_hand_walks_an_edit_made_after_finish():
    nl = _emitted().finish()
    nl.gates["t"].param = 3
    with pytest.raises(NetlistError, match=r"^t: threshold 3 outside -1\.\.2 for radix 3$"):
        validate(nl)
    nl.gates["t"].param = 0
    validate(nl)
    nl.nets["orphan"] = None
    with pytest.raises(NetlistError, match="^net orphan has no driver$"):
        validate(nl)
