"""The lowered program: gates that compute the same op on the same slots
share one op, a switch net is one op over all of its drivers, a switch on
constant data drives one plane, and none of it changes what the simulator
reports."""

import random

import pytest

from mvlsynth import sim
from mvlsynth.netlist import GateType, NetlistBuilder, levelized
from mvlsynth.sim import eval_vectors, reset_state
from mvlsynth.synth import (GateStats, Strategy, build_mux_m, gate_stats,
                            synth_tables)
from mvlsynth.tables import TruthTable
import test_sim_diff
from test_sim_diff import _all_vectors, _batch, _random_config, _steps


class _TwinBuilder(NetlistBuilder):
    """Emits some TLG, NOT, AND and OR gates a second time on the same
    inputs (a twin, which must share the first one's slot) and some ANDs
    and ORs as the other kind too (a cousin, which must not), and hands
    back either output, so that later gates read both."""

    def __init__(self, rng):
        super().__init__()
        self.rng, self.twins, self.cousins = rng, [], []

    def _either(self, y, other, pairs):
        pairs.append((y, other))
        return other if self.rng.random() < 0.5 else y

    def _twin(self, emit, gid, *args):
        y = emit(gid, *args)
        if self.rng.random() < 0.5:
            y = self._either(y, emit(gid + "'", *args), self.twins)
        return y

    def tlg(self, gid, d, threshold):
        return self._twin(super().tlg, gid, d, threshold)

    def not_(self, gid, a):
        return self._twin(super().not_, gid, a)

    def _fan_in_gate(self, gid, kind, ins):
        y = self._twin(super()._fan_in_gate, gid, kind, ins)
        if len(ins) > 1 and self.rng.random() < 0.3:
            other = GateType.OR if kind is GateType.AND else GateType.AND
            y = self._either(y, super()._fan_in_gate(gid + "~", other, ins),
                             self.cousins)
        return y


@pytest.mark.parametrize("latches", [0, 1, 2])
def test_twin_gates_share_a_slot_and_match_the_reference(latches, monkeypatch):
    """test_sim_diff's switch and latch meshes (radix 2-4), with twins:
    TLGs read switch nets too, and those float or contend for some inputs."""
    rng = random.Random(20 + latches)
    builders = []

    def builder():
        builders.append(_TwinBuilder(rng))
        return builders[-1]

    monkeypatch.setattr(test_sim_diff, "NetlistBuilder", builder)
    faults = twins = 0
    for _ in range(150):
        nl = test_sim_diff._random_mesh(rng, latches)
        b = builders[-1]
        number = {nid: i for i, nid in enumerate(nl.nets)}
        planes = sim._lower(nl, levelized(nl))[1]
        for y, twin in b.twins:
            assert planes[number[y]] == planes[number[twin]]
        for y, cousin in b.cousins:
            assert planes[number[y]] != planes[number[cousin]]
        twins += len(b.twins)
        state = _random_config(nl, rng)
        if not latches:
            faults += _batch(nl, _all_vectors(nl, rng), state)
            continue
        if rng.random() < 0.9:
            reset_state(nl, [rng.randrange(nl.gates[g[0]].radix)
                             for g in nl.state_groups], state)
        _steps(nl, state, [tuple(rng.randrange(2 if r is None else r)
                                 for r in nl.input_radixes())
                           for _ in range(4)])
        faults += len(state.faults)
    assert twins and faults  # twins were emitted and the fault paths reached


def _logic_ops(prog):
    return [op for op in prog.ops if op[0] in (sim._AND, sim._OR, sim._NOT)]


def test_no_two_logic_ops_share_a_key():
    for nl in (build_mux_m(3, 2, tree=True), build_mux_m(4, 2, tree=False),
               synth_tables([TruthTable.make(3, 2, [0, 1, 2] * 3)],
                            Strategy.DECODER)):
        keys = [(op, a, b) for op, _, a, b in _logic_ops(sim._compiled(nl))]
        assert len(keys) == len(set(keys))


def test_a_mux_tree_lowers_to_fewer_ops_than_its_gates():
    nl = build_mux_m(3, 2, tree=True)
    stats = gate_stats(nl)
    # the netlist keeps one select decoder per mux block
    assert stats == GateStats(tlg_count=8, and_count=4, or_count=0,
                              not_count=8, switch_count=12, latch_count=0,
                              dlatch_count=0, const_count=0, input_count=11,
                              output_count=1)
    comb = (stats.tlg_count + stats.and_count + stats.or_count
            + stats.not_count + stats.switch_count)
    assert len(sim._compiled(nl).ops) < comb


def test_a_switch_on_constant_data_drives_its_conducting_plane():
    tt = TruthTable.make(3, 1, (2, 0, 1))
    nl = synth_tables([tt], Strategy.MUX_TREE)
    prog = sim._compiled(nl)
    switches = [drv for op in prog.ops if op[0] == sim._NET for drv in op[2]]
    assert switches and all(d == (sim._FULL,) for _, _, d in switches)
    out = prog.outputs[0]
    assert sorted(y for _, y, _ in switches) == sorted(out[lvl] for lvl in tt.entries)
    assert eval_vectors(nl, [(0,), (1,), (2,)]) == [(2,), (0,), (1,)]


def test_one_op_per_switch_net():
    nl = build_mux_m(3, 2)
    switches = [g for g in nl.gates.values() if g.kind is GateType.SWITCH]
    nets = {g.pins["y"] for g in switches}
    ops = [op for op in sim._compiled(nl).ops if op[0] == sim._NET]
    assert sorted(op[1] for op in ops) == sorted(nets)
    assert sum(len(op[2]) for op in ops) == len(switches)
    for op in ops:  # each driver's control is read once, by its net's op
        controls = [c for c, _, _ in op[2]]
        assert len(controls) == len(set(controls))

