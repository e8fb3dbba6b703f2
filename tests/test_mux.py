"""Selectors: N-to-one and N^M-to-one, tree and flat forms."""

import itertools
import random

import pytest

from mvlsynth.sim import eval_combinational, eval_vectors
from mvlsynth.synth import (Strategy, build_fabric_decoder, build_fabric_mux,
                            build_mux_1, build_mux_m, gate_stats,
                            mux_block_count, synth_tables)
from mvlsynth.tables import TruthTable
from mvlsynth.values import tt_digits, tt_index


def test_three_way_identity_selection():
    nl = build_mux_1(3)
    # ports are i2, i1, i0, s
    out, _ = eval_combinational(nl, [2, 1, 0, 1])
    assert out == (1,)


def test_three_way_constant_inputs():
    nl = build_mux_1(3)
    for v in range(3):
        for s in range(3):
            out, _ = eval_combinational(nl, [v, v, v, s])
            assert out == (v,)


def test_four_way_exhaustive_selection():
    # y always equals the data input named by the select, all 4^5 cases
    nl = build_mux_1(4)
    vectors = list(itertools.product(range(4), repeat=5))
    for vec, out in zip(vectors, eval_vectors(nl, vectors)):
        i3, i2, i1, i0, s = vec
        data = (i0, i1, i2, i3)
        assert out == (data[s],)
    # the fixed case: with i2 = 3 and select 2 the output is 3
    out, _ = eval_combinational(nl, [0, 3, 0, 0, 2])
    assert out == (3,)


@pytest.mark.parametrize("tree", [True, False])
def test_two_digit_selects_line_five(tree):
    nl = build_mux_m(3, 2, tree=tree)
    data = [0] * 9
    data[5] = 2
    ins = list(reversed(data)) + [1, 2]     # i8..i0 then s1, s0
    out, _ = eval_combinational(nl, ins)
    assert out == (2,)


@pytest.mark.parametrize("n,m", [(3, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("tree", [True, False])
def test_selection_matches_index_with_random_data(n, m, tree):
    nl = build_mux_m(n, m, tree=tree)
    rng = random.Random(n * 100 + m * 10 + tree)
    rows = n**m
    vectors = []
    expect = []
    for sel in [tt_digits(k, n, m) for k in range(rows)]:
        for _ in range(100):
            data = [rng.randrange(n) for _ in range(rows)]
            vectors.append(tuple(reversed(data)) + sel)
            expect.append(data[tt_index(sel, n)])
    for out, want in zip(eval_vectors(nl, vectors), expect):
        assert out == (want,)


def test_tree_block_counts():
    assert mux_block_count(build_mux_m(3, 2, tree=True)) == 4
    assert mux_block_count(build_mux_m(2, 4, tree=True)) == 15
    assert mux_block_count(build_mux_m(3, 1, tree=True)) == 1
    assert mux_block_count(build_mux_m(3, 2, tree=False)) == 0


def test_block_count_reads_the_structure():
    # a block is a radix-N net with N switch drivers, wherever it occurs
    assert mux_block_count(build_mux_m(3, 1, tree=False)) == 1
    sum3 = TruthTable.make(3, 2, (0, 1, 2, 1, 2, 0, 2, 0, 1))
    assert mux_block_count(synth_tables([sum3], Strategy.DECODER)) == 1
    assert mux_block_count(build_fabric_mux(3, 2)) == 9 + 4
    assert mux_block_count(build_fabric_decoder(3, 2)) == 1


@pytest.mark.parametrize("tree", [True, False])
def test_one_select_digit_is_named_s(tree):
    assert build_mux_m(3, 1, tree=tree).inputs == ["i2", "i1", "i0", "s"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mux_1_is_the_flat_one_digit_mux_m(n):
    assert build_mux_1(n) == build_mux_m(n, 1, tree=False)


def test_tree_comparator_count():
    # each embedded selector carries its own n-1 comparators
    stats = gate_stats(build_mux_m(3, 2, tree=True))
    assert stats.tlg_count == 4 * 2
    assert stats.switch_count == 4 * 3


def test_flat_form_structure():
    stats = gate_stats(build_mux_m(3, 2, tree=False))
    assert stats.switch_count == 9
    assert stats.tlg_count == 2 * 2     # one two-digit decoder


def test_tree_and_flat_agree():
    t = build_mux_m(2, 3, tree=True)
    f = build_mux_m(2, 3, tree=False)
    vectors = list(itertools.product(range(2), repeat=8 + 3))
    assert eval_vectors(t, vectors) == eval_vectors(f, vectors)


def test_mux_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_mux_1(1)
    with pytest.raises(ValueError):
        build_mux_m(3, 0)
