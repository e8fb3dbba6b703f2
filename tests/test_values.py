"""Value system: radices, digit/index conversion, table and spec types."""

import enum
import json
import re

import pytest

from mvlsynth.fileio import FileFormatError, fsm_from_text, table_from_text
from mvlsynth.netlist import (Gate, GateType, Netlist, NetlistBuilder,
                              NetlistError, gate_ports, validate)
from mvlsynth.oracle import random_table
from mvlsynth.values import (MvValue, Radix, mv_tuple, nary_invert, radix_problem,
                             tt_digits, tt_index)
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable


def test_radix_rejects_below_two():
    with pytest.raises(ValueError):
        Radix(1)
    with pytest.raises(ValueError):
        Radix(0)
    assert Radix(2).n == 2


def test_mvvalue_range():
    assert MvValue(2, Radix(3)).value == 2
    with pytest.raises(ValueError):
        MvValue(3, Radix(3))
    with pytest.raises(ValueError):
        MvValue(-1, Radix(3))


def test_nary_invert_endpoints():
    r3 = Radix(3)
    assert nary_invert(MvValue(0, r3)).value == 2
    assert nary_invert(MvValue(1, r3)).value == 1
    assert nary_invert(MvValue(1, Radix(4))).value == 2


@pytest.mark.parametrize("n", range(2, 7))
def test_nary_invert_involution(n):
    r = Radix(n)
    for v in range(n):
        mv = MvValue(v, r)
        assert nary_invert(nary_invert(mv)) == mv


def test_tt_index_golden_rows():
    assert tt_index([1, 2], 3) == 5
    assert tt_index([0, 0], 3) == 0
    assert tt_index([1, 0, 1], 2) == 5


def test_mv_tuple_wraps_digits_in_range():
    assert mv_tuple([1, 2], 3) == (MvValue(1, Radix(3)), MvValue(2, Radix(3)))
    assert mv_tuple([], Radix(4)) == ()
    with pytest.raises(ValueError):
        mv_tuple([1, 3], 3)


def test_tt_index_rejects_out_of_range_digit():
    with pytest.raises(ValueError):
        tt_index([3, 0], 3)
    with pytest.raises(ValueError):
        tt_index([], 3)


@pytest.mark.parametrize("digit", [True, False, 1.0, None, "1"])
def test_tt_index_refuses_digits_that_are_not_ints(digit):
    with pytest.raises(ValueError, match=re.escape(f"digit {digit!r} out of range")):
        tt_index([digit], 3)
    tt = TruthTable.make(3, 1, (1, 2, 0))
    with pytest.raises(ValueError, match=re.escape(f"digit {digit!r} out of range")):
        tt.lookup((digit,))


@pytest.mark.parametrize("entry", [1.0, True, "1", None])
def test_truth_table_refuses_entries_that_are_not_ints(entry):
    with pytest.raises(ValueError, match=re.escape(f"entry {entry!r} out of range")):
        TruthTable.make(3, 1, (0, entry, 2))


@pytest.mark.parametrize("arity", [1.0, True, "1", 0])
def test_truth_table_refuses_an_arity_that_is_not_a_positive_int(arity):
    with pytest.raises(ValueError,
                       match=re.escape(f"arity must be an integer >= 1, got {arity!r}")):
        TruthTable.make(2, arity, (0, 1))


@pytest.mark.parametrize("arity", [2.5, True, "1", 0])
@pytest.mark.parametrize("build", [
    lambda arity: TruthTable.from_function(3, arity, lambda *digits: 0),
    lambda arity: random_table(3, arity)], ids=["from_function", "random_table"])
def test_table_helpers_refuse_an_arity_that_is_not_a_positive_int(build, arity):
    with pytest.raises(ValueError,
                       match=re.escape(f"arity must be an integer >= 1, got {arity!r}")):
        build(arity)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 5))
def test_index_digit_round_trip(n, m):
    # bijection between tuples and 0..n^m-1, both directions
    seen = set()
    for k in range(n**m):
        digits = tt_digits(k, n, m)
        assert len(digits) == m
        assert tt_index(digits, n) == k
        seen.add(digits)
    assert len(seen) == n**m


def test_tt_digits_range_errors():
    with pytest.raises(ValueError):
        tt_digits(9, 3, 2)
    with pytest.raises(ValueError):
        tt_digits(-1, 3, 2)
    with pytest.raises(ValueError):
        tt_digits(0, 3, 0)
    # an index or an arity that is not an int, a bool included
    for k, arity, bad in ((1.5, 1, "index 1.5"), (True, 1, "index True"),
                          (0, 2.0, "arity 2.0"), (0, True, "arity True")):
        with pytest.raises(ValueError, match=f"{bad} is not an integer"):
            tt_digits(k, 3, arity)


def test_truth_table_validation():
    tt = TruthTable.make(3, 2, [0] * 9)
    assert tt.entries == (0,) * 9
    with pytest.raises(ValueError):
        TruthTable.make(3, 2, [0] * 8)      # wrong length
    with pytest.raises(ValueError):
        TruthTable.make(3, 1, [0, 1, 3])    # entry out of range
    with pytest.raises(ValueError):
        TruthTable.make(3, 0, [0])


def test_truth_table_refuses_a_bare_int_radix():
    # this once died with AttributeError: 'int' object has no attribute 'n'
    with pytest.raises(ValueError, match="^radix must be a Radix, got 3$"):
        TruthTable(3, 1, (0, 1, 2))


def test_truth_table_lookup_and_tabulate():
    tt = TruthTable.from_function(3, 2, lambda a, b: (a + b) % 3)
    assert tt.lookup((1, 2)) == 0
    assert tt.lookup((2, 2)) == 1
    with pytest.raises(ValueError):
        tt.lookup((1,))


def test_fsm_spec_validation():
    r3 = Radix(3)
    trans = TruthTable.from_function(3, 2, lambda q, i: (q + i) % 3)
    spec = FsmSpec(r3, 1, 1, (trans,))
    assert spec.step((0,), (2,)) == (2,)
    assert spec.observe((2,), (1,)) == (2,)      # no output tables: state shows
    with pytest.raises(ValueError):
        FsmSpec(r3, 2, 1, (trans,))              # one table per state digit
    with pytest.raises(ValueError):
        FsmSpec(r3, 1, 2, (trans,))              # arity must be state+input
    with pytest.raises(ValueError):
        FsmSpec(Radix(4), 1, 1, (trans,))        # radix mismatch


def test_fsm_spec_refuses_a_bare_int_radix():
    # this once reported a radix mismatch between the tables and the machine
    with pytest.raises(ValueError, match="^radix must be a Radix, got 3$"):
        FsmSpec(3, 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))


def test_fsm_spec_output_tables():
    r3 = Radix(3)
    trans = TruthTable.from_function(3, 1, lambda q: (q + 1) % 3)
    out = TruthTable.from_function(3, 1, lambda q: 2 - q)
    spec = FsmSpec(r3, 1, 0, (trans,), (out,))
    assert spec.step((2,), ()) == (0,)
    assert spec.observe((0,), ()) == (2,)


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0])
def test_bitstream_refuses_all_but_the_ints_0_and_1(bit):
    # such a stream would save as text its own loader refuses
    with pytest.raises(ValueError, match=f"must be 0 or 1, got {bit!r}"):
        ConfigBitstream((0, bit, 1))


@pytest.mark.parametrize("bits", [None, 5])
def test_bitstream_refuses_bits_that_are_no_sequence(bits):
    # each once raised TypeError on its iteration
    with pytest.raises(ValueError, match=f"bits must be a sequence, got {bits!r}"):
        ConfigBitstream(bits)


def test_bitstream_validation_and_flip():
    bits = ConfigBitstream((0, 1, 1))
    assert bits.flipped(0).bits == (1, 1, 1)
    assert bits.flipped(2).bits == (0, 1, 0)
    with pytest.raises(ValueError):
        ConfigBitstream((0, 2))


@pytest.mark.parametrize("index", [True, -1, 3, 1.0])
def test_flipped_refuses_an_index_outside_the_stream(index):
    # True once flipped bit 1 and -1 the last bit; 3 raised IndexError
    with pytest.raises(ValueError, match=re.escape(f"bit index {index!r} is not in 0..2")):
        ConfigBitstream((0, 1, 1)).flipped(index)


class _Levels(enum.IntEnum):
    THREE = 3


_NO_RADIX = [
    (2.0, "radix 2.0 is not an integer"),
    (True, "radix True is not an integer"),
    (1, "radix 1 is below 2"),
    (-1, "radix -1 is below 2"),
    ([3], "radix [3] is not an integer"),
    (_Levels.THREE, "radix <_Levels.THREE: 3> is not an integer"),
    (257, "radix 257 is above 256"),
]


def _wire(net_radix, gate_radix):
    """Input x, output y, one net: the net and the input gate get the given
    radixes; the netlist is not validated."""
    return Netlist(
        gates={"x": Gate("x", GateType.INPUT, {"y": "x"}, radix=gate_radix),
               "y": Gate("y", GateType.OUTPUT, {"a": "x"}, radix=3)},
        nets={"x": net_radix}, inputs=["x"], outputs=["y"], latch_order=[],
        state_latches=[], state_groups=[])


@pytest.mark.parametrize("value, reason", _NO_RADIX,
                         ids=["float", "bool", "one", "negative", "list",
                              "int-enum", "above-max"])
def test_every_radix_is_judged_by_one_rule(value, reason):
    assert radix_problem(value) == reason
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        Radix(value)
    for nl, where in ((_wire(value, 3), "net x"), (_wire(3, value), "gate x")):
        with pytest.raises(NetlistError, match=f"^{where}: {re.escape(reason)}$"):
            validate(nl)
    with pytest.raises(NetlistError, match=f"^gate g: {re.escape(reason)}$"):
        gate_ports(Gate("g", GateType.INPUT, {}, radix=value))
    if type(value) is int:  # the loaders' own type check comes first otherwise
        docs = (
            (table_from_text, {"kind": "truth_table", "arity": 1, "outputs": [0]}),
            (fsm_from_text, {"kind": "fsm", "state_arity": 1, "input_arity": 0,
                             "transition": [[0]]}),
        )
        for load, doc in docs:
            text = json.dumps({"version": "1", **doc, "radix": value})
            with pytest.raises(FileFormatError,
                               match=f"^field 'radix': {re.escape(reason)}$"):
                load(text)


def test_radixes_from_2_to_256_are_accepted():
    for n in (2, 3, 255, 256):
        assert radix_problem(n) == "" and Radix(n).n == n
        b = NetlistBuilder()
        b.add_output("y", b.add_input("x", n))
        assert b.finish().gates["x"].radix == n
