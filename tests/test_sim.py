"""Simulator semantics: gate evaluation, faults, batching, binary checks."""

import itertools
import random

import pytest

from mvlsynth.netlist import (Gate, GateType, Net, Netlist, NetlistBuilder,
                              NetlistError, validate)
from mvlsynth.oracle import reference_half_adder
from mvlsynth.sim import (Fault, FaultKind, SimFaultError, SimState,
                          eval_combinational, eval_vectors, load_config,
                          reset_state, step_sequential)
from mvlsynth.synth import (Strategy, build_decoder_1, build_mux_1,
                            build_nary_dff, synth_tables)
from mvlsynth.tables import ConfigBitstream


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


def test_a_netlist_that_never_passed_validate_is_validated_first():
    nl = Netlist(
        gates={"x": Gate("x", GateType.INPUT, {"y": "x"}),
               "z": Gate("z", GateType.INPUT, {"y": "z"}),   # not in inputs
               "a": Gate("a", GateType.AND, {"a0": "x", "a1": "z", "y": "w"},
                         param=2),
               "y": Gate("y", GateType.OUTPUT, {"a": "w"})},
        nets={nid: Net(nid, None) for nid in ("x", "z", "w")},
        inputs=["x"], outputs=["y"], latch_order=[], state_latches=[],
        state_groups=[])
    with pytest.raises(NetlistError, match="input port z is neither listed"):
        eval_vectors(nl, [(1,)])


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
