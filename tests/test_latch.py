"""Level-sensitive latch and master-slave flip-flop behavior."""

import pytest

from mvlsynth import fileio
from mvlsynth.cli import main
from mvlsynth.netlist import GateType, NetlistBuilder
from mvlsynth.sim import (Fault, FaultKind, SimFaultError, SimState,
                          eval_combinational, reset_state, step_sequential)
from mvlsynth.synth import (Strategy, _emit_table, build_nary_dff,
                            build_nary_dlatch, compile_fsm)
from mvlsynth.tables import FsmSpec, TruthTable
from mvlsynth.values import Radix


@pytest.mark.parametrize("n", [3, 4])
def test_latch_hold_and_load_exhaustive(n):
    nl = build_nary_dlatch(n)
    for g in range(n):
        for d in range(n):
            for prev in range(n):
                state = reset_state(nl, [prev])
                out, _ = eval_combinational(nl, [d, g], state)
                want = prev if g == 0 else d
                assert out == (want,), (g, d, prev)


def test_latch_named_cases():
    nl = build_nary_dlatch(3)
    out, _ = eval_combinational(nl, [1, 0], reset_state(nl, [2]))
    assert out == (2,)                       # gate 0 keeps the old value
    out, _ = eval_combinational(nl, [1, 2], reset_state(nl, [0]))
    assert out == (1,)                       # any nonzero gate loads d
    for v in range(3):
        out, _ = eval_combinational(nl, [v, 1], reset_state(nl, [v]))
        assert out == (v,)


def test_latch_requires_reset():
    nl = build_nary_dlatch(3)
    with pytest.raises(SimFaultError) as err:
        eval_combinational(nl, [1, 1], SimState())
    assert err.value.fault.kind is FaultKind.UNINITIALIZED_LATCH


def test_latch_state_persists_across_evaluations():
    nl = build_nary_dlatch(3)
    state = reset_state(nl, [0])
    out, state = eval_combinational(nl, [2, 1], state)   # load 2
    assert out == (2,)
    out, state = eval_combinational(nl, [1, 0], state)   # hold
    assert out == (2,)
    out, state = eval_combinational(nl, [1, 2], state)   # load 1
    assert out == (1,)


def test_flip_flop_holds_under_constant_gate():
    nl = build_nary_dff(3)
    for g in range(3):
        state = reset_state(nl, [1])
        for d in (0, 2, 1, 2, 0):
            out, state = eval_combinational(nl, [d, g], state)
            assert out == (1,), (g, d)


def test_flip_flop_captures_on_rising_gate():
    nl = build_nary_dff(3)
    state = reset_state(nl, [0])
    out, state = eval_combinational(nl, [2, 0], state)
    assert out == (0,)                       # still holding
    out, state = eval_combinational(nl, [2, 1], state)
    assert out == (2,)                       # captured on 0 -> nonzero
    out, state = eval_combinational(nl, [0, 1], state)
    assert out == (2,)                       # d changes are ignored while high
    out, state = eval_combinational(nl, [0, 0], state)
    assert out == (2,)


def test_flip_flop_pulse_sequence():
    # one full pulse per data value: q tracks 0, 1, 2
    nl = build_nary_dff(4)
    state = reset_state(nl, [3])
    got = []
    for d in (0, 1, 2):
        _, state = eval_combinational(nl, [d, 0], state)
        out, state = eval_combinational(nl, [d, 2], state)
        got.append(out[0])
    assert got == [0, 1, 2]


def test_nonzero_gate_level_changes_are_not_edges():
    nl = build_nary_dff(3)
    state = reset_state(nl, [0])
    _, state = eval_combinational(nl, [2, 0], state)
    out, state = eval_combinational(nl, [2, 1], state)
    assert out == (2,)
    # 1 -> 2 stays in the transparent-slave phase: no new capture
    out, state = eval_combinational(nl, [1, 2], state)
    assert out == (2,)


def test_reset_validates_digits():
    nl = build_nary_dlatch(3)
    with pytest.raises(ValueError):
        reset_state(nl, [3])
    with pytest.raises(ValueError):
        reset_state(nl, [0, 0])


@pytest.mark.parametrize("digit", [1.5, True, "1"])
@pytest.mark.parametrize("build", [build_nary_dlatch, build_nary_dff])
def test_reset_digits_must_be_integers(build, digit):
    with pytest.raises(ValueError, match="reset digit"):
        reset_state(build(3), [digit])


@pytest.mark.parametrize("level", [-1, 3, 2.0, True, None])
@pytest.mark.parametrize("build", [build_nary_dlatch, build_nary_dff])
def test_a_stored_level_that_is_not_a_level_is_refused(build, level):
    # -1 used to read as the top level, True as 1
    nl = build(3)
    state = reset_state(nl, [0])
    gid = nl.state_latches[-1]
    state.latches[gid] = level
    with pytest.raises(ValueError, match=f"latch {gid}: stored level"):
        eval_combinational(nl, [1, 0], state)


def test_a_clocked_machine_refuses_a_stored_level_that_is_not_a_level():
    spec = FsmSpec(Radix(3), 1, 0, (TruthTable.make(3, 1, (1, 2, 0)),))
    nl = compile_fsm(spec, Strategy.DECODER)
    state = reset_state(nl, [0])
    state.latches[nl.state_latches[0]] = 3
    with pytest.raises(ValueError, match="stored level 3 not in 0..2"):
        step_sequential(nl, (), state)


def _self_inverting_latch():
    """Radix-3 D-latch whose data is its own output, inverted (v -> 2 - v)
    by the decoder-strategy realization of the table (2, 1, 0)."""
    b = NetlistBuilder()
    g = b.add_input("g", 3)
    en = b.tlg("en_tlg", g, 0)
    enb = b.not_("en_not", en)
    m, q = b.net(3), b.net(3)
    b.add_gate("lat", GateType.NARY_DLATCH, {"d": m, "q": q}, radix=3)
    inv = _emit_table(b, "inv/", [q], TruthTable.make(3, 1, (2, 1, 0)),
                      Strategy.DECODER)
    b.switch("sw_d", inv, en, m)
    b.switch("sw_h", q, enb, m)
    b.add_state_group(["lat"])
    b.add_output("q", m)
    return b.finish()


def test_latch_that_never_settles_is_an_oscillation_fault(tmp_path, capsys):
    nl = _self_inverting_latch()
    out, _ = eval_combinational(nl, [1], reset_state(nl, [1]))
    assert out == (1,)                       # 1 inverts to itself: at rest
    state = reset_state(nl, [0])
    with pytest.raises(SimFaultError) as err:
        eval_combinational(nl, [1], state)   # 0, 2, 0, ... past the bound
    assert err.value.fault == Fault(FaultKind.OSCILLATION, "lat", (1,))
    assert state.faults == [err.value.fault]

    fileio.save_netlist(tmp_path / "osc.json", nl)
    assert main(["sim", str(tmp_path / "osc.json"), "1", "--reset", "0"]) == 1
    assert capsys.readouterr().out == "fault: oscillation on lat at inputs (1,)\n"
