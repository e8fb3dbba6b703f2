"""Equivalence checking against table semantics, and the reference tables."""

import random

import pytest

from mvlsynth.oracle import (DEFAULT_CAP, EquivalenceReport, Mismatch,
                             check_equivalence, check_fsm_equivalence,
                             oracle_eval, random_table, reference_half_adder)
from mvlsynth.sim import Fault, SimState, eval_vectors, load_config
from mvlsynth.synth import (Strategy, build_fabric_decoder, build_nary_dff,
                            compile_fsm, derive_config, synth_tables)
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable
from mvlsynth.values import Radix, tt_digits, tt_index


SUM3 = TruthTable.make(3, 2, (0, 1, 2, 1, 2, 0, 2, 0, 1))
CARRY3 = TruthTable.make(3, 2, (0, 0, 0, 0, 0, 1, 0, 1, 1))


def test_oracle_eval_rows():
    assert oracle_eval(SUM3, (2, 2)) == 1
    assert oracle_eval(SUM3, (1, 2)) == 0
    assert oracle_eval(CARRY3, (0, 1)) == 0
    assert oracle_eval(CARRY3, (2, 2)) == 1
    assert oracle_eval(SUM3, (0, 0)) == SUM3.entries[0]


def test_reference_half_adder_tables():
    s, c = reference_half_adder(3)
    assert s.entries == SUM3.entries
    assert c.entries == CARRY3.entries
    s2, c2 = reference_half_adder(2)
    assert s2.entries == (0, 1, 1, 0)
    assert c2.entries == (0, 0, 0, 1)


def test_exhaustive_pass_summary():
    report = check_equivalence(synth_tables([SUM3], Strategy.DECODER), SUM3)
    assert report.passed
    assert report.exhaustive
    assert report.total_vectors == 9
    assert not report.mismatches
    assert report.summary() == "9/9 vectors, PASS"


def test_failing_summary_and_mismatch_order():
    report = check_equivalence(synth_tables([SUM3], Strategy.DECODER), CARRY3)
    assert not report.passed
    assert "FAIL" in report.summary()
    keys = [m.inputs for m in report.mismatches]
    assert keys == sorted(keys)
    first = report.mismatches[0]
    assert first.expected != first.got
    assert "expected" in first.describe()


def test_sampling_kicks_in_above_cap():
    assert DEFAULT_CAP == 6561
    tt = random_table(2, 8, random.Random(1))        # 256 rows
    nl = synth_tables([tt], Strategy.MUX_FLAT)
    exact = check_equivalence(nl, tt)
    assert exact.exhaustive and exact.total_vectors == 256
    sampled = check_equivalence(nl, tt, cap=100, seed=7)
    assert not sampled.exhaustive
    assert sampled.total_vectors == 100
    assert sampled.seed == 7
    assert sampled.passed
    assert "(sampled, seed 7)" in sampled.summary()
    again = check_equivalence(nl, tt, cap=100, seed=7)
    assert again.summary() == sampled.summary()


def test_config_argument_matches_latches():
    fabric = build_fabric_decoder(3, 2)
    bits = derive_config(SUM3, fabric)
    assert check_equivalence(fabric, SUM3, config=bits).passed
    with pytest.raises(ValueError):
        check_equivalence(fabric, SUM3)              # latches but no config
    plain = synth_tables([SUM3], Strategy.DECODER)
    with pytest.raises(ValueError):
        check_equivalence(plain, SUM3, config=bits)  # config but no latches


def test_corrupted_bitstream_is_caught():
    fabric = build_fabric_decoder(3, 2)
    bits = derive_config(SUM3, fabric)
    report = check_equivalence(fabric, SUM3, config=bits.flipped(4))
    assert not report.passed
    assert len(report.mismatches) >= 1


def _report_by_lookup(nl, tt, config, cap, seed):
    """The report built the long way: each vector's expected value looked up
    by its index, mismatches sorted by index afterwards."""
    n, space = tt.radix.n, tt.radix.n**tt.arity
    if space <= cap:
        vectors = [tt_digits(k, tt.radix, tt.arity) for k in range(space)]
    else:
        rng = random.Random(seed)
        vectors = [tuple(rng.randrange(n) for _ in range(tt.arity))
                   for _ in range(cap)]
    results = eval_vectors(nl, vectors, load_config(nl, config, SimState()))
    mismatches = [Mismatch(vec, (tt.lookup(vec),), got)
                  for vec, got in zip(vectors, results)
                  if got != (tt.lookup(vec),)]
    mismatches.sort(key=lambda mm: tt_index(mm.inputs, tt.radix))
    return EquivalenceReport(len(vectors), tuple(mismatches), space <= cap,
                             None if space <= cap else seed)


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 20])
def test_report_matches_indexed_lookup(cap):
    # exhaustive (27 rows under the cap) and sampled (20 draws); flipped
    # bits make faults, a changed table entry a wrong level
    tt = random_table(3, 3, random.Random(5))
    fabric = build_fabric_decoder(3, 3)
    bits = derive_config(tt, fabric).flipped(4).flipped(30).flipped(61)
    other = list(tt.entries)
    for row in range(1, 27, 4):
        other[row] = (other[row] + 1) % 3
    other = TruthTable(tt.radix, tt.arity, tuple(other))
    report = check_equivalence(fabric, other, config=bits, cap=cap, seed=9)
    assert report == _report_by_lookup(fabric, other, bits, cap, 9)
    assert report.exhaustive == (cap == DEFAULT_CAP)
    assert len(report.mismatches) > 1
    if report.exhaustive:
        assert {type(mm.got) for mm in report.mismatches} == {Fault, tuple}


def test_rejects_unsuitable_netlists():
    with pytest.raises(ValueError):
        check_equivalence(build_nary_dff(3), TruthTable.make(3, 2, (0,) * 9))
    two_out = synth_tables([SUM3, CARRY3], Strategy.DECODER)
    with pytest.raises(ValueError):
        check_equivalence(two_out, SUM3)
    with pytest.raises(ValueError):
        check_equivalence(synth_tables([SUM3], Strategy.DECODER),
                          TruthTable.make(4, 2, (0,) * 16))


def test_random_table_seeded():
    a = random_table(3, 2, random.Random(42))
    b = random_table(3, 2, random.Random(42))
    assert a.entries == b.entries
    assert a.radix == Radix(3) and a.arity == 2
    assert all(0 <= e <= 2 for e in a.entries)
    assert random_table(5, 1).arity == 1


def test_fsm_equivalence_counter():
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    nl = compile_fsm(spec, Strategy.DECODER)
    report = check_fsm_equivalence(nl, spec, reset=(0,),
                                   input_seqs=[[()] * 5, [()] * 2])
    assert report.passed
    assert report.total_vectors == 7


def test_fsm_equivalence_catches_wrong_machine():
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    other = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (2, 0, 1)),))
    nl = compile_fsm(other, Strategy.MUX_TREE)
    report = check_fsm_equivalence(nl, spec, reset=(0,),
                                   input_seqs=[[()] * 4])
    assert not report.passed
    assert isinstance(report.mismatches[0], Mismatch)


def test_report_passed_tracks_mismatches():
    ok = EquivalenceReport(total_vectors=4, mismatches=())
    bad = EquivalenceReport(
        total_vectors=4,
        mismatches=(Mismatch(inputs=(0,), expected=(1,), got=(0,)),))
    assert ok.passed and not bad.passed
