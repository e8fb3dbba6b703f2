"""Truth-table realization: decoder style and selector style."""

import itertools
import random

import pytest

from mvlsynth.netlist import GateType
from mvlsynth.oracle import check_equivalence, random_table, reference_half_adder
from mvlsynth.sim import eval_combinational, eval_vectors
from mvlsynth.synth import (Strategy, gate_stats, synth_decoder_based,
                            synth_mux_based, synth_tables)
from mvlsynth.tables import TruthTable
from mvlsynth.values import tt_digits

# digit sum and carry for radix 3, row k = (x1, x0) with k = 3*x1 + x0
SUM3 = (0, 1, 2, 1, 2, 0, 2, 0, 1)
CARRY3 = (0, 0, 0, 0, 0, 1, 0, 1, 1)

STRATEGIES = [Strategy.DECODER, Strategy.MUX_TREE, Strategy.MUX_FLAT]


def test_reference_tables_match_frozen_rows():
    s, c = reference_half_adder(3)
    assert s.entries == SUM3
    assert c.entries == CARRY3


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_half_adder_sum_all_rows(strategy):
    nl = synth_tables([TruthTable.make(3, 2, SUM3)], strategy)
    for x1 in range(3):
        for x0 in range(3):
            out, _ = eval_combinational(nl, [x1, x0])
            assert out == (SUM3[3 * x1 + x0],)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_half_adder_carry_all_rows(strategy):
    nl = synth_tables([TruthTable.make(3, 2, CARRY3)], strategy)
    for x1 in range(3):
        for x0 in range(3):
            out, _ = eval_combinational(nl, [x1, x0])
            assert out == (CARRY3[3 * x1 + x0],)


def test_half_adder_named_rows():
    sum_nl = synth_decoder_based(TruthTable.make(3, 2, SUM3))
    carry_nl = synth_mux_based(TruthTable.make(3, 2, CARRY3))
    assert eval_combinational(sum_nl, [1, 2])[0] == (0,)
    assert eval_combinational(carry_nl, [1, 2])[0] == (1,)
    assert eval_combinational(sum_nl, [2, 2])[0] == (1,)
    assert eval_combinational(carry_nl, [2, 2])[0] == (1,)


def _or_group(nl, level):
    """Row indices feeding the level's control line."""
    gate = nl.gates.get(f"or{level}")
    if gate is None:
        return None
    sources = {g.pins["y"]: g.gid for g in nl.gates.values()
               if g.kind is not GateType.OUTPUT and "y" in g.pins}
    rows = []
    for i in range(gate.param):
        src = sources[gate.pins[f"a{i}"]]
        assert src.startswith("dec/and")
        rows.append(int(src[len("dec/and"):]))
    return sorted(rows)


def test_decoder_style_sum_groups_rows_by_level():
    nl = synth_decoder_based(TruthTable.make(3, 2, SUM3))
    assert _or_group(nl, 0) == [0, 5, 7]
    assert _or_group(nl, 1) == [1, 3, 8]
    assert _or_group(nl, 2) == [2, 4, 6]
    assert {"sw0", "sw1", "sw2"} <= set(nl.gates)


def test_decoder_style_carry_groups():
    nl = synth_decoder_based(TruthTable.make(3, 2, CARRY3))
    assert _or_group(nl, 0) == [0, 1, 2, 3, 4, 6]
    assert _or_group(nl, 1) == [5, 7, 8]
    # level 2 never occurs: no control, no switch
    assert "or2" not in nl.gates
    assert "sw2" not in nl.gates
    assert gate_stats(nl).switch_count == 2


def test_selector_style_feeds_table_entries_as_constants():
    nl = synth_mux_based(TruthTable.make(3, 2, SUM3), tree=False)
    for k, v in enumerate(SUM3):
        assert nl.gates[f"sw{k}"].pins["d"] == f"const_r3_{v}_w"


def test_constant_function_single_control():
    nl = synth_decoder_based(TruthTable.make(3, 2, (0,) * 9))
    assert _or_group(nl, 0) == list(range(9))
    assert gate_stats(nl).switch_count == 1
    for vec in itertools.product(range(3), repeat=2):
        assert eval_combinational(nl, vec)[0] == (0,)


def test_identity_function_selector_style():
    tt = TruthTable.make(3, 1, (0, 1, 2))
    nl = synth_mux_based(tt)
    for v in range(3):
        assert eval_combinational(nl, [v])[0] == (v,)
    assert gate_stats(nl).or_count == 0


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_random_tables_sound_in_every_style(n, m):
    rng = random.Random(1000 * n + m)
    for _ in range(50):
        tt = random_table(n, m, rng)
        for strategy in STRATEGIES:
            report = check_equivalence(synth_tables([tt], strategy), tt)
            assert report.passed and report.total_vectors == n**m, \
                (tt.entries, strategy, report.summary())


def test_styles_agree_on_identical_tables():
    rng = random.Random(7)
    vectors = [tt_digits(k, 3, 2) for k in range(9)]
    for _ in range(25):
        tt = random_table(3, 2, rng)
        results = [eval_vectors(synth_tables([tt], s), vectors)
                   for s in STRATEGIES]
        assert results[0] == results[1] == results[2]


def test_every_ternary_two_digit_function_is_synthesized_exactly():
    # the entire function space, both base styles
    vectors = [tt_digits(k, 3, 2) for k in range(9)]
    for entries in itertools.product(range(3), repeat=9):
        tt = TruthTable.make(3, 2, entries)
        for strategy in (Strategy.DECODER, Strategy.MUX_TREE):
            got = eval_vectors(synth_tables([tt], strategy), vectors)
            assert got == [(v,) for v in entries], (entries, strategy)


def test_large_domain_is_fault_free():
    # 729-row table: every vector must produce a clean value, never a fault
    rng = random.Random(99)
    tt = random_table(3, 6, rng)
    vectors = [tt_digits(k, 3, 6) for k in range(729)]
    for strategy in (Strategy.DECODER, Strategy.MUX_FLAT):
        got = eval_vectors(synth_tables([tt], strategy), vectors)
        assert got == [(v,) for v in tt.entries]


def test_multi_output_synthesis_shares_one_decoder():
    s, c = reference_half_adder(3)
    nl = synth_tables([s, c], Strategy.DECODER)
    assert nl.outputs == ["y0", "y1"]
    assert gate_stats(nl).tlg_count == 4          # one shared two-digit decode
    assert eval_combinational(nl, [1, 2])[0] == (0, 1)
    assert eval_combinational(nl, [0, 0])[0] == (0, 0)

    for tt in (s, c):                             # each alone decodes again
        alone = synth_tables([tt], Strategy.DECODER)
        assert gate_stats(alone).tlg_count == 4
        assert eval_combinational(alone, [2, 2])[0] == (1,)   # 2 + 2 = 11


def test_synth_tables_input_validation():
    s, _ = reference_half_adder(3)
    with pytest.raises(ValueError):
        synth_tables([], Strategy.DECODER)
    with pytest.raises(ValueError):
        synth_tables([s, TruthTable.make(3, 1, (0, 1, 2))], Strategy.DECODER)
    with pytest.raises(ValueError):
        synth_tables([s, TruthTable.make(4, 2, (0,) * 16)], Strategy.DECODER)
