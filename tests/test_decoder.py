"""One-hot decoders: single digit and multi-digit."""

import pytest

from mvlsynth.fileio import netlist_to_text
from mvlsynth.netlist import GateType
from mvlsynth.sim import eval_combinational, eval_vectors
from mvlsynth.synth import build_decoder_1, build_decoder_m, gate_stats
from mvlsynth.values import tt_digits, tt_index

# golden rows for the ternary decoder, as (x, (b0, b1, b2))
TERNARY_ROWS = [
    (0, (1, 0, 0)),
    (1, (0, 1, 0)),
    (2, (0, 0, 1)),
]


@pytest.mark.parametrize("x,expected", TERNARY_ROWS)
def test_ternary_decoder_rows(x, expected):
    nl = build_decoder_1(3)
    out, _ = eval_combinational(nl, [x])
    assert out == expected


@pytest.mark.parametrize("n", range(2, 6))
def test_one_hot_property(n):
    nl = build_decoder_1(n)
    for x in range(n):
        out, _ = eval_combinational(nl, [x])
        assert sum(out) == 1
        assert out.index(1) == x


def test_five_level_decode_top_line():
    out, _ = eval_combinational(build_decoder_1(5), [4])
    assert out == (0, 0, 0, 0, 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_decoder_uses_exactly_n_minus_1_comparators(n):
    stats = gate_stats(build_decoder_1(n))
    assert stats.tlg_count == n - 1


def test_decoder_comparator_thresholds():
    nl = build_decoder_1(4)
    thresholds = sorted(g.param for g in nl.gates.values()
                        if g.kind is GateType.TLG)
    assert thresholds == [0, 1, 2]


def test_two_digit_ternary_decoder_all_rows():
    # every (x1, x0) lights line 3*x1 + x0, including (2, 1) -> line 7
    nl = build_decoder_m(3, 2)
    for x1 in range(3):
        for x0 in range(3):
            out, _ = eval_combinational(nl, [x1, x0])
            k = 3 * x1 + x0
            assert sum(out) == 1
            assert out.index(1) == k
    out, _ = eval_combinational(nl, [2, 1])
    assert out[7] == 1


def test_two_digit_decode_named_rows():
    nl = build_decoder_m(3, 2)
    out, _ = eval_combinational(nl, [0, 2])
    assert out.index(1) == 2
    out, _ = eval_combinational(nl, [2, 2])
    assert out.index(1) == 8


def test_binary_three_digit_decode():
    nl = build_decoder_m(2, 3)
    out, _ = eval_combinational(nl, [1, 0, 1])
    assert out.index(1) == 5 and sum(out) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_decode_matches_positional_index_closed_form(n, m):
    nl = build_decoder_m(n, m)
    vectors = [tt_digits(k, n, m) for k in range(n**m)]
    for vec, out in zip(vectors, eval_vectors(nl, vectors)):
        k = tt_index(vec, n)
        assert out == tuple(1 if i == k else 0 for i in range(n**m))


def test_single_digit_multi_decoder_is_the_plain_decoder():
    assert netlist_to_text(build_decoder_m(3, 1)) == \
        netlist_to_text(build_decoder_1(3))
    for n in range(2, 6):
        assert build_decoder_1(n) == build_decoder_m(n, 1)


def test_multi_decoder_structure_counts():
    # m per-digit decoders plus one fan-in-m AND per line
    nl = build_decoder_m(3, 2)
    stats = gate_stats(nl)
    assert stats.tlg_count == 2 * 2
    assert stats.and_count == 2 * 1 + 9   # per-digit middle terms + products
    ands = [g for g in nl.gates.values()
            if g.kind is GateType.AND and g.gid.startswith("dec/and")]
    assert all(g.param == 2 for g in ands)


def test_decoder_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_decoder_1(1)
    with pytest.raises(ValueError):
        build_decoder_m(3, 0)
