"""Simulator semantics: gate evaluation, faults, batching, binary checks."""

import dataclasses
import itertools
import random

import pytest

import reference_sim as ref
from mvlsynth import sim
from mvlsynth.netlist import (Gate, GateType, Netlist, NetlistBuilder,
                              NetlistError, levelized, validate)
from mvlsynth.oracle import (check_equivalence, check_fsm_equivalence,
                             random_table, reference_half_adder)
from mvlsynth.sim import (Fault, FaultKind, SimFaultError, SimState,
                          eval_combinational, eval_vectors, load_config,
                          reset_state, step_sequential)
from mvlsynth.synth import (Strategy, _emit_table, build_decoder_1,
                            build_fabric_decoder, build_mux_1, build_nary_dff,
                            compile_fsm, derive_config, synth_tables)
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable
from mvlsynth.values import Radix
from test_netlist_diff import FAMILIES, MUTATIONS, _copy


def test_half_adder_pair_rows():
    nl = synth_tables(list(reference_half_adder(3)), Strategy.DECODER)
    out, _ = eval_combinational(nl, [1, 2])
    assert out == (0, 1)
    out, _ = eval_combinational(nl, [0, 0])
    assert out == (0, 0)


def test_determinism():
    nl = synth_tables(list(reference_half_adder(3)), Strategy.MUX_TREE)
    vectors = [(a, b) for a in range(3) for b in range(3)]
    first = eval_vectors(nl, vectors)
    for _ in range(3):
        assert eval_vectors(nl, vectors) == first


def test_input_validation():
    nl = build_decoder_1(3)
    with pytest.raises(ValueError):
        eval_combinational(nl, [])
    with pytest.raises(ValueError):
        eval_combinational(nl, [1, 2])
    with pytest.raises(ValueError):
        eval_combinational(nl, [3])
    with pytest.raises(ValueError):
        eval_combinational(nl, [-1])


def test_a_bool_is_not_an_input_digit():
    nl = build_decoder_1(3)
    with pytest.raises(ValueError, match="input x: value True"):
        eval_combinational(nl, [True])
    with pytest.raises(ValueError, match="input x: value False"):
        eval_vectors(nl, [(1,), (False,)])


def test_a_bad_batch_names_its_first_bad_value_in_vector_order():
    nl = synth_tables([TruthTable.make(3, 2, [0, 1, 2] * 3)], Strategy.DECODER)
    good = [(1, 2), (2, 0)]
    # the later vector's bad value sits in an earlier column
    with pytest.raises(ValueError, match=r"value 5 out of range 0\.\.2"):
        eval_vectors(nl, good + [(0, 5), (True, 0)])
    with pytest.raises(ValueError, match="expected 2 inputs, got 1"):
        eval_vectors(nl, good + [(0, 1), (0,), (0, 7)])
    with pytest.raises(ValueError, match="value -1 out of range"):
        eval_vectors(nl, good + [[0, 1], (2, -1), (9, 0)])
    with pytest.raises(TypeError):
        eval_vectors(nl, good + [(0, 1), 5])
    for digit in (True, 1.0, -1):
        with pytest.raises(ValueError, match=f"value {digit} out of range"):
            eval_vectors(nl, good + [(0, digit)])
    # lists and other sequences of good digits pass as tuples
    assert eval_vectors(nl, good + [[2, 1], range(2)])[-2:] == [(1,), (1,)]


def test_a_batch_over_inputs_of_different_radixes():
    b = NetlistBuilder()
    x, c = b.add_input("x", 3), b.add_input("c", None)
    b.add_output("y", b.and_("g", [b.tlg("t", x, 1), c]))
    nl = b.finish()
    vectors = [(x, c) for x in range(3) for c in range(2)]
    assert eval_vectors(nl, vectors) == [(0,), (0,), (0,), (0,), (0,), (1,)]
    with pytest.raises(ValueError, match="input c: value 2 out of range 0..1"):
        eval_vectors(nl, vectors + [(0, 2)])


def test_tlg_extreme_thresholds():
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    always = b.tlg("always", x, -1)
    never = b.tlg("never", x, 2)
    b.add_output("a", always)
    b.add_output("n", never)
    nl = b.finish()
    for v in range(3):
        assert eval_combinational(nl, [v])[0] == (1, 0)


def _contention_netlist(equal_values):
    b = NetlistBuilder()
    c = b.add_input("c", None)
    y = b.net(3)
    b.switch("s1", b.const(1, 3), c, y)
    b.switch("s2", b.const(1 if equal_values else 2, 3), c, y)
    b.add_output("y", y)
    return b.finish()


@pytest.mark.parametrize("equal_values", [False, True])
def test_two_conducting_drivers_is_contention(equal_values):
    # strict: even agreeing drivers violate the one-conductor contract
    nl = _contention_netlist(equal_values)
    with pytest.raises(SimFaultError) as err:
        eval_combinational(nl, [1])
    assert err.value.fault.kind is FaultKind.CONTENTION
    assert err.value.fault.vector == (1,)


def test_floating_output_faults():
    b = NetlistBuilder()
    c = b.add_input("c", None)
    y = b.net(3)
    b.switch("s1", b.const(1, 3), c, y)
    b.add_output("y", y)
    nl = b.finish()
    assert eval_combinational(nl, [1])[0] == (1,)
    with pytest.raises(SimFaultError) as err:
        eval_combinational(nl, [0])
    assert err.value.fault.kind is FaultKind.FLOATING_NET
    assert err.value.fault.vector == (0,)


def test_floating_data_is_fine_until_selected():
    # an unconducting branch may carry a floating source
    b = NetlistBuilder()
    c = b.add_input("c", None)
    floaty = b.net(3)
    b.switch("never", b.const(0, 3), b.const(0, None), floaty)
    y = b.net(3)
    cb = b.not_("cb", c)
    b.switch("pick_float", floaty, c, y)
    b.switch("pick_const", b.const(2, 3), cb, y)
    b.add_output("y", y)
    nl = b.finish()
    assert eval_combinational(nl, [0])[0] == (2,)
    with pytest.raises(SimFaultError) as err:
        eval_combinational(nl, [1])
    assert err.value.fault.kind is FaultKind.FLOATING_NET


def _two_faulting_ops(clocked=False):
    """Switch net p contends at x == 2; switch net q, which reads p as data
    and whose op comes later, contends at x == 0 and x == 2 and floats at
    x == 1."""
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    if clocked:
        b.clock = b.net(None, nid="clk")
        b.add_gate("clk", GateType.INPUT, {"y": b.clock})
    two, low = b.tlg("two", x, 1), b.not_("low", b.tlg("pos", x, 0))
    p, q = b.net(3, nid="p"), b.net(3, nid="q")
    b.switch("p1", b.const(1, 3), two, p)
    b.switch("p2", b.const(2, 3), b.tlg("pos2", x, 0), p)
    b.switch("q1", p, two, q)
    b.switch("q2", b.const(2, 3), two, q)
    b.switch("q3", b.const(0, 3), low, q)
    b.switch("q4", b.const(1, 3), low, q)
    b.add_output("y", q)
    return b.finish()


def test_each_vector_gets_its_earliest_ops_fault_in_vector_order():
    # p's op faults vector 2 first; q's op, later, also faults 0 and 2
    nl = _two_faulting_ops()
    ops = [op[1] for op in sim._compiled(nl).ops if op[0] == sim._NET]
    assert ops == ["p", "q"]
    want = [Fault(FaultKind.CONTENTION, "q", (0,)),
            Fault(FaultKind.FLOATING_NET, "q", (1,)),
            Fault(FaultKind.CONTENTION, "p", (2,))]
    for vectors in ([(0,), (1,), (2,)], sim._exhaustive(nl)):
        state = SimState()
        assert eval_vectors(nl, vectors, state) == want
        assert state.faults == want
    report = check_equivalence(nl, TruthTable.make(3, 1, (0, 1, 2)))
    assert [(mm.inputs, mm.got) for mm in report.mismatches] == [
        (f.vector, f) for f in want]
    # a clock step's fault is the first its one vector hits
    clocked = _two_faulting_ops(clocked=True)
    for x, fault in zip(range(3), want):
        state = SimState()
        with pytest.raises(SimFaultError) as err:
            step_sequential(clocked, [x], state)
        assert err.value.fault == fault and state.faults == [fault]


def test_batch_reports_faults_per_vector():
    nl = _contention_netlist(False)
    results = eval_vectors(nl, [(1,), (0,)])
    assert isinstance(results[0], Fault)
    assert results[0].kind is FaultKind.CONTENTION
    assert isinstance(results[1], Fault)
    assert results[1].kind is FaultKind.FLOATING_NET


def test_fault_log_collects_batch_faults():
    state = SimState()
    eval_vectors(_contention_netlist(False), [(1,)], state)
    assert len(state.faults) == 1
    assert state.faults[0].kind is FaultKind.CONTENTION


def test_batch_needs_latch_free_netlist():
    nl = build_nary_dff(3)
    with pytest.raises(ValueError):
        eval_vectors(nl, [(0, 0), (1, 1)])


def test_zero_length_bitstream_is_noop():
    nl = build_decoder_1(3)
    state = load_config(nl, ConfigBitstream(()))
    assert eval_combinational(nl, [1], state)[0] == (0, 1, 0)
    with pytest.raises(ValueError):
        load_config(nl, ConfigBitstream((0, 1)))


def test_step_sequential_needs_a_clock():
    nl = build_decoder_1(3)
    with pytest.raises(ValueError):
        step_sequential(nl, [1], SimState())


@pytest.mark.parametrize("nb", [1, 8, 9, 6561, 19683])
def test_levels_reads_planes_like_a_bit_by_bit_scan(nb):
    rng = random.Random(nb)
    for radix in (2, 3, 5):
        # one column of random levels, one whose top planes are all zero,
        # and one with no plane set at all, as on a faulted vector
        for top in (radix, 1, 0):
            col = [rng.randrange(top) if top else 0 for _ in range(nb)]
            v = [0, 0, 0] + [sum(1 << b for b in range(nb)
                                 if top and col[b] == lvl)
                             for lvl in range(radix)]
            planes = tuple(range(3, 3 + radix))
            naive = [next((lvl for lvl in range(1, radix)
                           if v[planes[lvl]] >> b & 1), 0)
                     for b in range(nb)]
            assert sim._levels(v, planes, nb) == naive == col


# -- settle sweeps -------------------------------------------------------------


def _count_sweeps(monkeypatch) -> list:
    """Log one entry per simulator sweep (sim._run call) from here on."""
    sweeps = []
    run = sim._run

    def counted(*args):
        sweeps.append(None)
        return run(*args)

    monkeypatch.setattr(sim, "_run", counted)
    return sweeps


@pytest.mark.parametrize("strategy", list(Strategy))
def test_flip_flop_machines_sweep_once_per_clock_phase(strategy, monkeypatch):
    # a flip-flop latch is read only by its own hold switch and its
    # partner's load switch, both off in the phase that loads it
    rng = random.Random(len(strategy.value))
    sweeps = _count_sweeps(monkeypatch)
    for sa, ia, outputs in ((1, 1, False), (2, 1, True), (2, 0, False)):
        n = rng.choice([2, 3])
        tables = [random_table(n, sa + ia, rng) for _ in range(sa + 1)]
        spec = FsmSpec(tables[0].radix, sa, ia, tuple(tables[:sa]),
                       tuple(tables[sa:]) if outputs else None)
        nl = compile_fsm(spec, strategy)
        seqs = [[tuple(rng.randrange(n) for _ in range(ia))
                 for _ in range(12)] for _ in range(3)]
        sweeps.clear()
        report = check_fsm_equivalence(nl, spec, [0] * sa, seqs)
        assert report.passed
        assert len(sweeps) == 2 * report.total_vectors


def test_flip_flop_sweeps_once_per_evaluation(monkeypatch):
    nl = build_nary_dff(3)
    state = reset_state(nl, [0])
    ref_state = reset_state(nl, [0])
    sweeps = _count_sweeps(monkeypatch)
    rng = random.Random(6)
    vectors = [(rng.randrange(3), g) for _ in range(30) for g in (0, 2)]
    for vec in vectors:
        assert (eval_combinational(nl, vec, state)[0]
                == ref.eval_combinational(nl, vec, ref_state)[0])
    assert state.latches == ref_state.latches
    assert len(sweeps) == len(vectors)


def _clocked_latch(reader: str) -> Netlist:
    """A latch loaded while the clock is high, whose q net the output reads
    through `reader`: directly, through a TLG that aliases one of q's
    planes, or through a switch that conducts while the latch loads."""
    b = NetlistBuilder()
    d = b.add_input("d", 3)
    clk = b.net(3, nid="clk")
    b.add_gate("clk", GateType.INPUT, {"y": clk}, radix=3)
    b.clock = clk
    en = b.tlg("en", clk, 0)
    enb = b.not_("enb", en)
    m = b.net(3)
    q = b.nary_dlatch("lat", m, 3)
    b.switch("sw_d", d, en, m)
    b.switch("sw_h", q, enb, m)
    b.add_state_group(["lat"])
    if reader == "port":
        y = q
    elif reader == "tlg":
        y = b.tlg("t", q, 1)
    else:
        y = b.net(3)
        b.switch("buf", q, en, y)
        b.switch("buf0", b.const(0, 3), enb, y)
    b.add_output("y", y)
    return b.finish()


@pytest.mark.parametrize("reader", ["port", "tlg", "switch-on"])
def test_a_latch_read_otherwise_gets_its_confirming_sweep(reader, monkeypatch):
    nl = _clocked_latch(reader)
    state = reset_state(nl, [0])
    ref_state = reset_state(nl, [0])
    sweeps = _count_sweeps(monkeypatch)
    changes = 0
    for d in (1, 1, 2, 0, 0, 2, 1, 2):
        changes += state.latches["lat"] != d
        assert (step_sequential(nl, (d,), state)[0]
                == ref.step_sequential(nl, (d,), ref_state)[0])
        assert state.latches == ref_state.latches == {"lat": d}
    # one sweep for the holding phase, one for the loading phase, and one
    # more to confirm each load that changed the latch
    assert len(sweeps) == 2 * 8 + changes


def _latch_pair(table_a, table_b):
    """Two radix-4 latches with no gate pin: a loads table_a of itself, b
    loads table_b of a; the output reads a's data net."""
    b = NetlistBuilder()
    qa, qb = b.net(4), b.net(4)
    da = _emit_table(b, "fa/", [qa], TruthTable.make(4, 1, table_a),
                     Strategy.DECODER)
    db = _emit_table(b, "fb/", [qa], TruthTable.make(4, 1, table_b),
                     Strategy.DECODER)
    b.add_gate("a", GateType.NARY_DLATCH, {"d": da, "q": qa}, radix=4)
    b.add_gate("b", GateType.NARY_DLATCH, {"d": db, "q": qb}, radix=4)
    b.add_state_group(["a"])
    b.add_state_group(["b"])
    b.add_output("y", da)
    return b.finish()


def test_latches_that_settle_after_the_bound_are_no_oscillation():
    # latch a counts 0 -> 3 in three sweeps and b, fed a == 3, changes only
    # on the fourth, the bound for two latches. No latch state recurs, so
    # the loop sweeps on and the fifth sweep finds them at rest, in the
    # reference too.
    nl = _latch_pair((1, 2, 3, 3), (0, 0, 0, 1))
    ref_state = reset_state(nl, [0, 0])
    assert ref.eval_combinational(nl, [], ref_state)[0] == (3,)
    state = reset_state(nl, [0, 0])
    assert eval_combinational(nl, [], state)[0] == (3,)
    assert state.latches == ref_state.latches == {"a": 3, "b": 1}
    assert state.faults == ref_state.faults == []


def test_a_true_oscillator_faults_at_the_bound():
    # a inverts itself (0, 3, 0, ...) and b copies a, so the latch state
    # recurs on the third sweep and the fourth, the bound, names a
    nl = _latch_pair((3, 2, 1, 0), (0, 1, 2, 3))
    ref_state = reset_state(nl, [0, 0])
    with pytest.raises(RuntimeError, match="did not converge"):
        ref.eval_combinational(nl, [], ref_state)
    state = reset_state(nl, [0, 0])
    with pytest.raises(SimFaultError) as e:
        eval_combinational(nl, [], state)
    assert e.value.fault == Fault(FaultKind.OSCILLATION, "a", ())
    assert state.faults == [e.value.fault]
    assert state.latches == ref_state.latches == {"a": 0, "b": 3}


# -- binary degeneration ------------------------------------------------------


def test_binary_decoder_matches_reference():
    nl = build_decoder_1(2)
    for x in range(2):
        out, _ = eval_combinational(nl, [x])
        assert out == (int(x == 0), int(x == 1))


def test_binary_mux_matches_if_else():
    nl = build_mux_1(2)
    for i1, i0, s in itertools.product(range(2), repeat=3):
        out, _ = eval_combinational(nl, [i1, i0, s])
        assert out == ((i1 if s else i0),)


def test_binary_half_adder_is_xor_and():
    s, c = reference_half_adder(2)
    assert s.entries == (0, 1, 1, 0)
    assert c.entries == (0, 0, 0, 1)
    for strategy in Strategy:
        nl = synth_tables([s, c], strategy)
        for a, b in itertools.product(range(2), repeat=2):
            out, _ = eval_combinational(nl, [a, b])
            assert out == (a ^ b, a & b)


def test_binary_flip_flop_matches_reference():
    nl = build_nary_dff(2)
    state = reset_state(nl, [0])
    qm = qs = 0
    rng = random.Random(5)
    for _ in range(200):
        d, g = rng.randrange(2), rng.randrange(2)
        out, state = eval_combinational(nl, [d, g], state)
        if g == 0:
            qm = d
        else:
            qs = qm
        assert out == (qs,), (d, g)


def test_validate_after_an_edit_drops_the_compiled_program():
    b = NetlistBuilder()
    x = b.add_input("x", None)
    b.add_output("y", b.not_("n", x))
    nl = b.finish()
    assert eval_vectors(nl, [(0,), (1,)]) == [(1,), (0,)]
    nl.gates["y"].pins["a"] = x
    validate(nl)
    assert eval_vectors(nl, [(0,), (1,)]) == [(0,), (1,)]


def test_a_replaced_copy_compiles_its_own_program():
    nl = build_decoder_1(3)
    assert eval_vectors(nl, [(1,)]) == [(0, 1, 0)]
    copy = dataclasses.replace(nl, outputs=nl.outputs[:1])
    assert eval_vectors(copy, [(1,)]) == [(0,)]
    assert eval_vectors(nl, [(1,)]) == [(0, 1, 0)]


def _two_programs(nl):
    """The program compiled from the records validate handed over, and the
    one compiled from records derived afresh, as the fault path does."""
    handed = sim._compiled(nl)
    assert nl._records is None      # consumed by the lowering, not kept
    return repr(handed), repr(sim._lower(nl, levelized(nl))[0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_handed_over_records_compile_like_fresh_ones(family):
    rng = random.Random(sum(map(ord, family)))
    edited = 0
    for nl in FAMILIES[family]():
        handed, fresh = _two_programs(nl)
        assert handed == fresh
        for _ in range(10):         # until an edit passes validate
            mutated = _copy(nl)
            if rng.choice(MUTATIONS)(mutated, rng) is False:
                continue
            try:
                validate(mutated)
            except NetlistError:
                continue
            handed, fresh = _two_programs(mutated)
            assert handed == fresh
            edited += 1
            break
    assert edited


def test_a_netlist_that_never_passed_validate_is_validated_first():
    nl = Netlist(
        gates={"x": Gate("x", GateType.INPUT, {"y": "x"}),
               "z": Gate("z", GateType.INPUT, {"y": "z"}),   # not in inputs
               "a": Gate("a", GateType.AND, {"a0": "x", "a1": "z", "y": "w"},
                         param=2),
               "y": Gate("y", GateType.OUTPUT, {"a": "w"})},
        nets={nid: None for nid in ("x", "z", "w")},
        inputs=["x"], outputs=["y"], latch_order=[], state_latches=[],
        state_groups=[])
    with pytest.raises(NetlistError, match="input port z is neither listed"):
        eval_vectors(nl, [(1,)])


def _ghost(nl):
    """An unvalidated copy whose input list also names no gate."""
    nl = _copy(nl)
    nl.inputs.append("ghost")
    return nl


@pytest.mark.parametrize("call", [
    lambda: eval_vectors(_ghost(build_decoder_1(3)), [(0, 0)]),
    lambda: eval_combinational(_ghost(build_decoder_1(3)), [0, 0]),
    lambda: step_sequential(_ghost(compile_fsm(
        FsmSpec(Radix(3), 1, 1, (TruthTable.make(3, 2, (0,) * 9),)),
        Strategy.DECODER)), (0, 0), SimState())],
    ids=["eval_vectors", "eval_combinational", "step_sequential"])
def test_an_input_list_naming_no_gate_is_refused_before_any_input(call):
    with pytest.raises(NetlistError,
                       match="input list entry ghost is not an input port"):
        call()


SUM3 = TruthTable.make(3, 2, (0, 1, 2, 1, 2, 0, 2, 0, 1))


def _machine(input_arity):
    table = TruthTable.make(3, 1 + input_arity, (0,) * 3 ** (1 + input_arity))
    return FsmSpec(Radix(3), 1, input_arity, (table,))


def _ghost_latch(nl):
    """An unvalidated copy whose state latch list also names no gate."""
    nl = _copy(nl)
    nl.state_latches.append("ghost")
    return nl


@pytest.mark.parametrize("call, message", [
    (lambda: check_equivalence(
        _ghost(synth_tables([SUM3], Strategy.DECODER)), SUM3),
     "input list entry ghost is not an input port"),
    (lambda: derive_config(SUM3, _ghost(build_fabric_decoder(3, 2))),
     "input list entry ghost is not an input port"),
    (lambda: check_fsm_equivalence(
        _ghost(compile_fsm(_machine(1), Strategy.DECODER)), _machine(2),
        [0], [[(0, 0)]]),
     "input list entry ghost is not an input port"),
    (lambda: check_fsm_equivalence(
        _ghost_latch(compile_fsm(_machine(1), Strategy.DECODER)), _machine(1),
        [0], [[(0,)]]),
     "nary_dlatch ordering list does not match gates")],
    ids=["check_equivalence", "derive_config", "check_fsm_equivalence-input",
         "check_fsm_equivalence-state"])
def test_a_list_entry_naming_no_gate_is_refused_where_its_radix_is_read(
        call, message):
    with pytest.raises(NetlistError, match=message):
        call()


def test_a_failed_revalidation_is_never_simulated():
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    y0 = b.tlg("t0", x, 0)
    inv = b.not_("n", y0)
    b.add_output("y", b.and_("a", [inv, y0]))
    nl = b.finish()
    assert eval_vectors(nl, [(0,), (2,)]) == [(0,), (0,)]
    nl.gates["n"].pins["a"] = nl.gates["a"].pins["y"]  # n -> a -> n
    with pytest.raises(NetlistError, match="combinational cycle"):
        validate(nl)
    with pytest.raises(NetlistError,
                       match=r"combinational cycle involving gates: \['a', 'n'\]"):
        eval_vectors(nl, [(0,)])
