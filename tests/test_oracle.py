"""Equivalence checking against table semantics, and the reference tables."""

import dataclasses
import random
import re

import pytest

import reference_sim as ref
from mvlsynth.oracle import (DEFAULT_CAP, DEFAULT_SEED, EquivalenceReport,
                             Mismatch, check_equivalence, check_fsm_equivalence,
                             oracle_eval, random_table, reference_half_adder)
from mvlsynth.netlist import Gate, GateType, NetlistError, fingerprint, validate
from mvlsynth.sim import (Fault, FaultKind, SimState, _exhaustive, eval_vectors,
                          load_config)
from mvlsynth.synth import (Strategy, build_fabric_decoder, build_fabric_mux,
                            build_nary_dff, compile_fsm, derive_config,
                            synth_tables)
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


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_is_refused(cap):
    # a cap of 0 once checked no vector and reported "0/0 vectors, PASS",
    # even against a wrong table
    with pytest.raises(ValueError, match="cap must be at least 1"):
        check_equivalence(synth_tables([SUM3], Strategy.DECODER), CARRY3,
                          cap=cap)


@pytest.mark.parametrize("cap", [True, 2.5])
def test_a_cap_that_is_no_integer_is_refused(cap):
    # True once sampled a single vector of a 9-row table and reported
    # "1/1 vectors, PASS"; 2.5 died with TypeError
    with pytest.raises(ValueError, match=f"^exhaustive cap {cap!r} is not an integer$"):
        check_equivalence(synth_tables([SUM3], Strategy.DECODER), SUM3, cap=cap)


@pytest.mark.parametrize("seed", [None, True, 2.5, "7", [1]])
def test_a_seed_that_is_no_integer_is_refused(seed):
    # None once sampled from OS entropy and reported "(sampled, seed
    # None)"; [1] died with TypeError. Refused even when nothing is sampled
    nl = synth_tables([SUM3], Strategy.DECODER)
    for cap in (DEFAULT_CAP, 4):
        with pytest.raises(ValueError, match=re.escape(
                f"seed {seed!r} is not an integer")):
            check_equivalence(nl, SUM3, cap=cap, seed=seed)


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


def _report_through_the_reference(nl, tt, config, cap):
    """The report the reference simulator gives, which reads each latch's
    bit from the stream in latch_order: load_config, its eval_vectors over
    the same vectors, then a per-row compare."""
    n = tt.radix.n
    state = load_config(nl, config, SimState())
    exhaustive = n**tt.arity <= cap
    if exhaustive:
        vectors, wants = _exhaustive(nl), tt.entries
    else:
        rng = random.Random(DEFAULT_SEED)
        vectors = sorted(tuple(rng.randrange(n) for _ in range(tt.arity))
                         for _ in range(cap))
        wants = [tt.lookup(vec) for vec in vectors]
    results = ref.eval_vectors(nl, vectors, state)
    mismatches = [Mismatch(vec, (want,), got) for vec, want, got
                  in zip(vectors, wants, results) if got != (want,)]
    return EquivalenceReport(len(vectors), tuple(mismatches), exhaustive,
                             None if exhaustive else DEFAULT_SEED)


@pytest.mark.parametrize("build", [
    build_fabric_decoder,
    lambda n, m: build_fabric_mux(n, m, tree=True),
    lambda n, m: build_fabric_mux(n, m, tree=False)],
    ids=["decoder", "mux-tree", "mux-flat"])
def test_a_loaded_stream_reports_as_in_the_reference_simulator(build):
    # check_equivalence sets the planes of the stream's 1 bits, over the
    # program's kept rows; its report, faults included, must be the one
    # the reference gives
    rng = random.Random(26)
    kinds = set()
    for n, m in ((2, 1), (3, 2), (4, 2)):
        nl = build(n, m)
        tt = random_table(n, m, rng)
        other = TruthTable(tt.radix, m, ((tt.entries[0] + 1) % n,) + tt.entries[1:])
        derived = derive_config(tt, nl)
        marked = ConfigBitstream(derived.bits, fingerprint(nl))
        cases = [(tt, derived), (tt, marked), (other, marked)]
        cases += [(tt, derived.flipped(i)) for i in range(len(derived.bits))]
        for want, stream in cases:
            for cap in (DEFAULT_CAP, n**m - 1):  # exhaustive, then sampled
                got = check_equivalence(nl, want, config=stream, cap=cap)
                assert got == _report_through_the_reference(nl, want, stream, cap)
                kinds.update(mm.got.kind for mm in got.mismatches
                             if isinstance(mm.got, Fault))
        assert check_equivalence(nl, tt, config=marked).passed
        assert not check_equivalence(nl, other, config=marked).passed
    assert kinds == {FaultKind.CONTENTION, FaultKind.FLOATING_NET}


def test_rejects_unsuitable_netlists():
    with pytest.raises(ValueError):
        check_equivalence(build_nary_dff(3), TruthTable.make(3, 2, (0,) * 9))
    two_out = synth_tables([SUM3, CARRY3], Strategy.DECODER)
    with pytest.raises(ValueError):
        check_equivalence(two_out, SUM3)
    with pytest.raises(ValueError):
        check_equivalence(synth_tables([SUM3], Strategy.DECODER),
                          TruthTable.make(4, 2, (0,) * 16))


def test_equivalence_refusals_keep_their_messages_in_order():
    # the input radixes are read off the compiled program, so a netlist
    # that validate refuses raises its NetlistError before the radix and
    # config checks, whichever list is at fault
    plain = synth_tables([SUM3], Strategy.DECODER)
    fabric = build_fabric_decoder(3, 2)
    bits = derive_config(SUM3, fabric)
    radix4 = TruthTable.make(4, 2, (0,) * 16)
    cases = [
        (plain, radix4, None, ValueError,
         "netlist inputs [3, 3] do not match a radix-4 arity-2 table"),
        (plain, TruthTable.make(3, 1, (0, 1, 2)), None, ValueError,
         "netlist inputs [3, 3] do not match a radix-3 arity-1 table"),
        (fabric, SUM3, None, ValueError,
         "netlist has configuration latches; config required"),
        (plain, SUM3, bits, ValueError,
         "config given for a netlist without latches"),
        (dataclasses.replace(plain, inputs=["ghost", "x0"]), radix4, None,
         NetlistError, "input list entry ghost is not an input port"),
        (dataclasses.replace(plain, outputs=["ghost"]), radix4, None,
         NetlistError, "output list entry ghost is not an output port"),
        (dataclasses.replace(fabric, latch_order=["ghost"]), SUM3, None,
         NetlistError, "config_latch ordering list does not match gates"),
    ]
    for simulated in (False, True):
        if simulated:
            assert check_equivalence(plain, SUM3).passed
            assert check_equivalence(fabric, SUM3, config=bits).passed
        for nl, tt, config, error, message in cases:
            if not simulated:
                nl = dataclasses.replace(nl)  # a copy without its program
            with pytest.raises(error, match=f"^{re.escape(message)}$") as got:
                check_equivalence(nl, tt, config)
            assert type(got.value) is error


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


def test_fsm_mismatches_record_the_inputs_through_the_failing_step():
    acc = FsmSpec(Radix(3), 1, 1, (TruthTable.from_function(
        3, 2, lambda q, i: (q + i) % 3),))
    wrong = FsmSpec(Radix(3), 1, 1, (TruthTable.from_function(
        3, 2, lambda q, i: (q + 2 * i) % 3),))
    nl = compile_fsm(wrong, Strategy.DECODER)
    # a second switch onto the next-state net, on while the input is 2:
    # it contends with the decoded one, so input 2 faults
    sw = nl.gates["f0/sw0"].pins
    nl.nets["i0_is_2"] = None
    nl.gates["x/tlg"] = Gate("x/tlg", GateType.TLG,
                             {"d": "i0", "y": "i0_is_2"}, param=1)
    nl.gates["x/sw"] = Gate("x/sw", GateType.SWITCH,
                            {"d": sw["d"], "c": "i0_is_2", "y": sw["y"]})
    validate(nl)
    report = check_fsm_equivalence(nl, acc, (0,), [
        [(1,), (0,), (1,), (1,)],   # states 1 1 2 0, wrong 2 2 1 0
        [(0,), (2,), (1,)],         # the fault ends it before (1,)
        [(1,)],
    ])
    assert report.total_vectors == 7
    fault = report.mismatches[3].got
    assert isinstance(fault, Fault) and fault.kind is FaultKind.CONTENTION
    assert report.mismatches == (
        Mismatch(((1,),), (1,), (2,)),
        Mismatch(((1,), (0,)), (1,), (2,)),
        Mismatch(((1,), (0,), (1,)), (2,), (1,)),
        Mismatch(((0,), (2,)), (2,), fault),
        Mismatch(((1,),), (1,), (2,)),
    )


def test_report_passed_tracks_mismatches():
    ok = EquivalenceReport(total_vectors=4, mismatches=())
    bad = EquivalenceReport(
        total_vectors=4,
        mismatches=(Mismatch(inputs=(0,), expected=(1,), got=(0,)),))
    assert ok.passed and not bad.passed
