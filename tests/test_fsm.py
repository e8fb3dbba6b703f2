"""Compiled state machines against software iteration."""

import dataclasses
import itertools
import random
import re

import pytest

from mvlsynth.netlist import NetlistError
from mvlsynth.oracle import check_fsm_equivalence
from mvlsynth.sim import (SimFaultError, SimState, eval_combinational,
                          reset_state, step_sequential)
from mvlsynth.synth import Strategy, compile_fsm
from mvlsynth.tables import FsmSpec, TruthTable
from mvlsynth.values import Radix

STRATEGIES = [Strategy.DECODER, Strategy.MUX_TREE, Strategy.MUX_FLAT]


def _counter3():
    return FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))


def _accumulator3():
    tt = TruthTable.from_function(3, 2, lambda q, i: (q + i) % 3)
    return FsmSpec(Radix(3), 1, 1, (tt,))


def _identity3():
    tt = TruthTable.from_function(3, 2, lambda q, i: q)
    return FsmSpec(Radix(3), 1, 1, (tt,))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_counter_trace(strategy):
    nl = compile_fsm(_counter3(), strategy)
    state = reset_state(nl, [0])
    trace = []
    for _ in range(5):
        out, state = step_sequential(nl, [], state)
        trace.append(out[0])
    assert trace == [1, 2, 0, 1, 2]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_accumulator_trace(strategy):
    nl = compile_fsm(_accumulator3(), strategy)
    state = reset_state(nl, [0])
    trace = []
    for i in (1, 2, 2):
        out, state = step_sequential(nl, [i], state)
        trace.append(out[0])
    assert trace == [1, 0, 2]


def test_identity_machine_state_is_constant():
    nl = compile_fsm(_identity3(), Strategy.DECODER)
    for start in range(3):
        state = reset_state(nl, [start])
        for i in (0, 2, 1, 1, 2):
            out, state = step_sequential(nl, [i], state)
            assert out == (start,)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_accumulator_all_short_sequences(strategy):
    nl = compile_fsm(_accumulator3(), strategy)
    seqs = []
    for length in (1, 2, 3):
        seqs += [[(v,) for v in combo]
                 for combo in itertools.product(range(3), repeat=length)]
    report = check_fsm_equivalence(nl, _accumulator3(), [0], seqs)
    assert report.passed
    assert report.total_vectors == sum(3**k * k for k in (1, 2, 3))


def test_accumulator_random_long_sequences():
    rng = random.Random(42)
    for strategy in (Strategy.DECODER, Strategy.MUX_TREE):
        nl = compile_fsm(_accumulator3(), strategy)
        seqs = [[(rng.randrange(3),) for _ in range(20)] for _ in range(100)]
        assert check_fsm_equivalence(nl, _accumulator3(), [0], seqs).passed


def test_two_digit_state_machine():
    # counts 0..8 across two ternary digits
    def nxt(q1, q0):
        return divmod((q1 * 3 + q0 + 1) % 9, 3)

    spec = FsmSpec(Radix(3), 2, 0, (
        TruthTable.from_function(3, 2, lambda q1, q0: nxt(q1, q0)[0]),
        TruthTable.from_function(3, 2, lambda q1, q0: nxt(q1, q0)[1]),
    ))
    nl = compile_fsm(spec, Strategy.DECODER)
    state = reset_state(nl, [0, 0])
    seen = []
    for _ in range(9):
        out, state = step_sequential(nl, [], state)
        seen.append(out)
    assert seen[:3] == [(0, 1), (0, 2), (1, 0)]
    assert seen[-1] == (0, 0)


def test_machine_with_output_tables():
    # output is the inverted state, not the state itself
    trans = TruthTable.from_function(3, 1, lambda q: (q + 1) % 3)
    out_tt = TruthTable.from_function(3, 1, lambda q: 2 - q)
    spec = FsmSpec(Radix(3), 1, 0, (trans,), (out_tt,))
    nl = compile_fsm(spec, Strategy.MUX_TREE)
    assert nl.outputs == ["y0"]
    state = reset_state(nl, [0])
    got = []
    for _ in range(4):
        out, state = step_sequential(nl, [], state)
        got.append(out[0])
    assert got == [1, 0, 2, 1]               # 2 - state, state = 1,2,0,1
    assert check_fsm_equivalence(nl, spec, [0], [[()] * 6]).passed


@pytest.mark.parametrize("arities", [(1.0, 0), (True, False), (1, 0.0),
                                     (1, None), ("1", 0)])
def test_fsm_spec_refuses_an_arity_that_is_not_an_int(arities):
    tt = TruthTable.make(3, 1, (1, 2, 0))
    name = "state_arity" if type(arities[0]) is not int else "input_arity"
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        FsmSpec(Radix(3), *arities, (tt,))


@pytest.mark.parametrize("arities, why", [((0, 0), "state_arity must be >= 1"),
                                          ((1, -1), "input_arity must be >= 0")])
def test_fsm_spec_refuses_an_arity_below_its_least(arities, why):
    tt = TruthTable.make(3, 1, (1, 2, 0))
    with pytest.raises(ValueError, match=why):
        FsmSpec(Radix(3), *arities, (tt,))


def test_fsm_check_refuses_a_netlist_for_another_machine():
    nl = compile_fsm(_counter3(), Strategy.DECODER)  # no input port
    with pytest.raises(ValueError,
                       match="netlist ports do not match the machine spec"):
        check_fsm_equivalence(nl, _accumulator3(), (0,), [[(1,)]])


@pytest.mark.parametrize("spec, message", [
    (FsmSpec(Radix(2), 1, 1,
             (TruthTable.from_function(2, 2, lambda q, i: q ^ i),)),
     "i0 has radix 3, not the machine radix 2"),
    (FsmSpec(Radix(4), 1, 1,
             (TruthTable.from_function(4, 2, lambda q, i: (q + i) % 4),)),
     "i0 has radix 3, not the machine radix 4"),
], ids=["radix-2", "radix-4"])
def test_fsm_check_refuses_a_machine_of_another_radix(spec, message):
    # a radix-2 spec once gave "1/2 vectors, FAIL" and a radix-4 one died
    # mid-sweep on input digit 3
    nl = compile_fsm(_accumulator3(), Strategy.DECODER)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_fsm_equivalence(nl, spec, (0,), [[(1,), (1,)]])
    # a machine without inputs is judged by its latches
    n = spec.radix.n
    counter = FsmSpec(spec.radix, 1, 0, (TruthTable.make(n, 1, [0] * n),))
    with pytest.raises(ValueError, match="^dff0/m/lat has radix 3, not the "
                                         f"machine radix {n}$"):
        check_fsm_equivalence(compile_fsm(_counter3(), Strategy.DECODER),
                              counter, (0,), [[()]])


def test_clock_is_not_a_data_input():
    nl = compile_fsm(_accumulator3(), Strategy.DECODER)
    assert nl.inputs == ["i0"]
    assert nl.clock == "clk"
    assert "clk" not in nl.inputs


def test_clocked_netlist_refuses_combinational_eval():
    nl = compile_fsm(_accumulator3(), Strategy.DECODER)
    state = reset_state(nl, [0])
    with pytest.raises(ValueError, match="step_sequential"):
        eval_combinational(nl, [1], state)


def test_step_requires_reset():
    nl = compile_fsm(_counter3(), Strategy.DECODER)
    with pytest.raises(SimFaultError):
        step_sequential(nl, [], SimState())


def test_binary_toggle_machine():
    spec = FsmSpec(Radix(2), 1, 0, (TruthTable.make(2, 1, (1, 0)),))
    for strategy in STRATEGIES:
        nl = compile_fsm(spec, strategy)
        state = reset_state(nl, [0])
        trace = []
        for _ in range(4):
            out, state = step_sequential(nl, [], state)
            trace.append(out[0])
        assert trace == [1, 0, 1, 0]


@pytest.mark.parametrize("digit", [1.0, None])
def test_fsm_check_refuses_an_input_digit_that_is_not_an_int(digit):
    nl = compile_fsm(_accumulator3(), Strategy.DECODER)
    with pytest.raises(ValueError, match=f"digit {digit} out of range for radix 3"):
        check_fsm_equivalence(nl, _accumulator3(), (0,), [[(digit,)]])


@pytest.mark.parametrize("member", ["ghost", "i0"])
def test_a_state_group_that_names_no_state_latch_is_refused(member):
    # a group naming a missing gate once raised KeyError; one naming an
    # input port was reset like a latch
    spec = _accumulator3()
    bad = dataclasses.replace(compile_fsm(spec, Strategy.DECODER),
                              state_groups=[(member,)])
    message = "^state_groups do not partition the state latches$"
    with pytest.raises(NetlistError, match=message):
        check_fsm_equivalence(bad, spec, (0,), [[(1,)]])
    state = SimState()
    with pytest.raises(NetlistError, match=message):
        reset_state(bad, [0], state)
    assert state.latches == {}


@pytest.mark.parametrize("outputs", [False, True], ids=["state", "tables"])
@pytest.mark.parametrize("state, inputs, message", [
    ((0,), (), "expected 2 digits, got 1"),
    ((0,), (1, 2), "expected 2 digits, got 3"),
    ((True,), (1,), "digit True out of range for radix 3"),
    ((0,), (1.0,), "digit 1.0 out of range for radix 3"),
    ((0,), (3,), "digit 3 out of range for radix 3"),
])
def test_software_model_refuses_as_table_lookup_does(outputs, state, inputs, message):
    # step and observe work out the row once for all tables, with
    # TruthTable.lookup's refusals and messages; observe reads no table,
    # and so refuses nothing, on a machine whose outputs are its state
    spec = _accumulator3()
    calls = [lambda: spec.transition[0].lookup(state + inputs),
             lambda: spec.step(state, inputs)]
    if outputs:
        spec = dataclasses.replace(spec, output=spec.transition * 2)
        calls.append(lambda: spec.observe(state, inputs))
    else:
        assert spec.observe(state, inputs) == state
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("change, reset, error, message", [
    ({"inputs": ["ghost"]}, (0,), NetlistError,
     "input list entry ghost is not an input port"),
    ({"state_latches": ["ghost", "dff0/s/lat"]}, (0,), NetlistError,
     "nary_dlatch ordering list does not match gates"),
    ({"state_groups": [("ghost",)]}, (0,), NetlistError,
     "state_groups do not partition the state latches"),
    ({}, (0, 0), ValueError, "expected 1 reset digits, got 2"),
    ({}, (), ValueError, "expected 1 reset digits, got 0"),
    ({}, (3,), ValueError, "reset digit 3 out of range for radix 3"),
    ({}, (True,), ValueError, "reset digit True out of range for radix 3"),
    ({}, ("1",), ValueError, "reset digit '1' out of range for radix 3"),
], ids=["inputs", "state-latches", "groups", "two-digits", "no-digit",
        "digit-3", "digit-True", "digit-str"])
def test_fsm_check_and_reset_refusals(change, reset, error, message):
    # each refusal keeps its type and message whether or not the netlist
    # has been simulated (and its program compiled) before. Both functions
    # read the radixes off the compiled program, so reset_state refuses a
    # netlist that validate refuses, whatever list is at fault, and the
    # check refuses a bad reset even with no sequence to run.
    spec = _accumulator3()
    nl = compile_fsm(spec, Strategy.DECODER)
    assert nl.state_latches == ["dff0/m/lat", "dff0/s/lat"]
    assert check_fsm_equivalence(nl, spec, (0,), [[(1,)]]).passed
    for fresh in (False, True):
        bad = dataclasses.replace(nl, **change) if fresh or change else nl
        for seqs in ([[(1,)]], []):
            with pytest.raises(error, match=f"^{re.escape(message)}$") as got:
                check_fsm_equivalence(bad, spec, reset, seqs)
            assert type(got.value) is error
        state = SimState()
        with pytest.raises(error, match=f"^{re.escape(message)}$") as got:
            reset_state(bad, reset, state)
        assert type(got.value) is error
        assert state.latches == {}
