"""The builders' exact output, pinned as the sha256 of each netlist's file
text: gate ids, net ids, their order and every field. The digests were
taken before the builders formatted their names from tables, so they pin
that the tables change no byte. Also checks that those tables stay within
their fixed bounds however many netlists are built."""

import gc
import hashlib
import random
import tracemalloc

import pytest

from mvlsynth import netlist, synth
from mvlsynth.fileio import netlist_to_text
from mvlsynth.netlist import NetlistBuilder
from mvlsynth.oracle import random_table
from mvlsynth.synth import (Strategy, build_decoder_m, build_fabric_decoder,
                            build_fabric_mux, build_mux_m, build_nary_dff,
                            compile_fsm, synth_tables)
from mvlsynth.tables import FsmSpec, TruthTable
from mvlsynth.values import Radix


def _table(n, m, salt=0):
    return TruthTable.make(n, m, [(k * 7 + k // 5 + salt) % n for k in range(n**m)])


def _machine():
    # radix 3, two state digits, one input, one output table
    return FsmSpec(Radix(3), 2, 1, (_table(3, 3), _table(3, 3, 1)), (_table(3, 3, 2),))


CASES = {
    **{f"synth_tables-{s.value}-{n}^{m}": (lambda s=s, n=n, m=m: synth_tables([_table(n, m)], s))
       for s in Strategy for n, m in ((2, 1), (3, 2), (2, 3), (4, 2))},
    **{f"compile_fsm-{s.value}": (lambda s=s: compile_fsm(_machine(), s)) for s in Strategy},
    "synth_tables-decoder-two-tables":
        lambda: synth_tables([_table(3, 2), _table(3, 2, 1)], Strategy.DECODER),
    "build_fabric_decoder-3-2": lambda: build_fabric_decoder(3, 2),
    "build_fabric_mux-3-2": lambda: build_fabric_mux(3, 2),
    "build_mux_m-3-2-tree": lambda: build_mux_m(3, 2, tree=True),
    "build_mux_m-3-2-flat": lambda: build_mux_m(3, 2, tree=False),
    "build_decoder_m-3-2": lambda: build_decoder_m(3, 2),
    "build_nary_dff-3": lambda: build_nary_dff(3),
}

DIGESTS = {
    "synth_tables-decoder-2^1": "3a943114f5a72503fd65a70b07b7ca3524d819408c401ae0aefc0cbe063f9cfd",
    "synth_tables-decoder-3^2": "6cc2aa80bb980c9f2add59f50d553b0a3fd7ed5f294f64f478538c76331792e5",
    "synth_tables-decoder-2^3": "b22adee7842df6703dad079bab9423d30addc003e922bdc9aa85ff330d1bf4a5",
    "synth_tables-decoder-4^2": "403e24968052f0498be4fc43a86570ac7be83d42c8f5e3389d06a6cdfdba5fa1",
    "compile_fsm-decoder": "df509d91320b77b7ec5d33eac20604e140c7a67598e8b5d40c2c6a66ad4e4732",
    "synth_tables-mux-2^1": "42348773c3e995c80b1e6ced9862d326ceedd1165f791fa8f8425aa9aebc3e21",
    "synth_tables-mux-3^2": "698f7cce525838272a5c5c2fc851a13c7d4abfd9ad7a7e5249db38670e122a02",
    "synth_tables-mux-2^3": "c1f3b447877b2d6a5c5f30ed00d0842ad6258aae52989d858c6948c7ec573677",
    "synth_tables-mux-4^2": "b34a0bbd2eefc17384687e02d00150e44ad1dcc38078cd8c332102ac727b1ed9",
    "compile_fsm-mux": "266bf98fbdb4d9dd8fb846c3069713b9bc8ba737025425bf8bffc5e6e6d26376",
    "synth_tables-mux-flat-2^1": "2896a779dfe57a42332ca52420f84c5912dd91b4491ac6cba3f7ce000909c817",
    "synth_tables-mux-flat-3^2": "2c09219ac638fed6d3f174985c84241841d19436405442e3a4cb7a3ea3ea7a99",
    "synth_tables-mux-flat-2^3": "09dd01da3ab2ea373be0ebfec9cb6df82dc90d425039dd706285064d10b1177b",
    "synth_tables-mux-flat-4^2": "09415e95539331af32ecea22c82b942f95e86d846ceab51e1cc22fc2cace801d",
    "compile_fsm-mux-flat": "f0db4bd9e98eefe46f42e28777ba609b4a437dc712fc4624d8b1eb062b0b8772",
    "synth_tables-decoder-two-tables":
        "4500f64b41f85e482461af576b2d8edda5039d512632041dc29c43ecbacc0878",
    "build_fabric_decoder-3-2": "ef11e606505cbf9380e0caab62e1513ad188c8c766853dbc99ea5d1d59ee819c",
    "build_fabric_mux-3-2": "12a36ccae753f7c9d28a7bfc6621569223b201af8cf8004cdac628b2031bca79",
    "build_mux_m-3-2-tree": "8d63dee503cddf9f656cd7d289b051241746bb1a31a4551b3f85c5c310d40d39",
    "build_mux_m-3-2-flat": "3e679fb94664b782d5873591502cdc47b26b875b0e4ea3340c9f00ff726294ac",
    "build_decoder_m-3-2": "7298e499be8fb99b4bbc14bd97aee415af2f34046ce8165a647965a957188c8a",
    "build_nary_dff-3": "3db1e45a62e4707c61a2516f42eb3cdad9174bd8221806fcbe93ca0afa87b9e3",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_a_builder_writes_its_pinned_bytes(case):
    # twice: the second build reads every name back from the tables
    for _ in range(2):
        text = netlist_to_text(CASES[case]())
        assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]


def test_name_tables_stay_within_their_bounds():
    # 400 one-digit tables as one netlist: each has its own prefix, so their
    # 2400 block ids overflow their table, and its wires run past the names
    # formatted in advance
    tts = [_table(2, 1, t) for t in range(400)]
    nl = synth_tables(tts, Strategy.MUX_TREE)
    wires = [nid for nid in nl.nets if nid.startswith("w")]
    assert len(wires) > len(netlist._WIRES) == 256
    assert wires == [f"w{k}" for k in range(len(wires))]
    assert nl.gates["f399/s0m0/dec/tlg0"].pins["d"] == "x"
    assert ("f0/", "s0m", 1, "/") not in synth._ids  # the table started afresh
    # more distinct AND/OR fan-ins than the port-name and plan tables hold
    assert _fan_ins().gates["or299"].pins["a298"] == "x"
    # an entry larger than a table's bound is returned unstored, so it
    # evicts none of the small ones: the 2187 AND ids of a 3^7 decoder, and
    # the port names of an OR of fan-in 2100 built after one of fan-in 2
    for _ in range(2):  # the second build stores what a clear dropped
        build_decoder_m(3, 7)
    assert ("dec/d0/", "tlg", 2, "") in synth._ids
    assert ("dec/", "and", 2187, "") not in synth._ids
    b = NetlistBuilder()
    x = b.add_input("x", None)
    b.add_output("y2", b.or_("or2", [x, x]))
    b.add_output("y", b.or_("or2100", [x] * 2100))
    assert b.finish().gates["or2100"].pins["a2099"] == "x"
    assert 2 in netlist._NAMES and 2100 not in netlist._NAMES
    for table, ports in ((netlist._PORTS, lambda plan: len(plan[0])),
                         (netlist._NAMES, len), (synth._ids, len)):
        held = sum(map(ports, table.values()))
        assert held == netlist._held[id(table)] <= netlist._HELD


def _fan_ins():
    """ORs of the fan-ins 2..299 on one input x."""
    b = NetlistBuilder()
    x = b.add_input("x", None)
    for k in range(2, 300):
        b.add_output(f"y{k}", b.or_(f"or{k}", [x] * k))
    return b.finish()


def test_dropped_fan_ins_leave_their_plans_and_names_bounded():
    # each table is bounded by the ports it holds, not by its entries: 298
    # distinct fan-ins once left 4.8 MB in them after the netlist went
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _fan_ins()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 1_000_000


def test_dropped_multi_table_netlists_leave_their_ids_bounded():
    # each table's blocks have their own prefix, so a table bounded by its
    # entries (1024 id tuples) once left about 1.9 MB after 40 random 3^5
    # tables per strategy; bounded by the ids it holds, it keeps 2048
    rng = random.Random(5)
    tts = [random_table(3, 5, rng) for _ in range(40)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for strategy in Strategy:
            synth_tables(tts, strategy)
            assert netlist._held[id(synth._ids)] <= netlist._HELD
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 1_000_000
