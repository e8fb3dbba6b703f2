"""The lowered program: gates that compute the same op on the same slots
share one op, a threshold decoder's lines are level sets of the digit it
decodes and cost no op, a switch net is one op over all of its drivers
unless it is a level function of one digit, a switch on constant data
drives one plane, and none of it changes what the simulator reports."""

import random

import pytest

from mvlsynth import sim
from mvlsynth.netlist import (GateType, NetlistBuilder, fingerprint, levelized,
                              validate)
from mvlsynth.oracle import check_equivalence, random_table
from mvlsynth.sim import (Fault, FaultKind, SimFaultError, SimState, eval_vectors,
                          load_config, reset_state)
from mvlsynth.synth import (GateStats, Strategy, build_decoder_1,
                            build_fabric_decoder, build_fabric_mux, build_mux_m,
                            derive_config, gate_stats, synth_tables)
from mvlsynth.tables import ConfigBitstream, TruthTable
import test_sim_diff
from test_sim_diff import _all_vectors, _batch, _random_config, _steps


class _TwinBuilder(NetlistBuilder):
    """Emits some TLG, NOT, AND and OR gates a second time on the same
    inputs (a twin, which must lower as the first one does) and some ANDs
    and ORs as the other kind too (a cousin, which may share a slot only
    when both are the same level set), and hands back either output, so
    that later gates read both."""

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
    faults = twins = sets = 0
    for _ in range(150):
        nl = test_sim_diff._random_mesh(rng, latches)
        b = builders[-1]
        number = {nid: i for i, nid in enumerate(nl.nets)}
        _, planes, levels = sim._lower(nl, levelized(nl))
        for y, twin in b.twins:
            y, twin = number[y], number[twin]
            assert levels[y] == levels[twin]
            if levels[y] is None or planes[y] and planes[twin]:
                assert planes[y] == planes[twin]
        for y, cousin in b.cousins:
            y, cousin = number[y], number[cousin]
            if levels[y] is not None:  # both are level sets of one digit
                sets += 1
                if planes[y] and planes[cousin]:
                    assert ((planes[y] == planes[cousin])
                            == (levels[y] == levels[cousin]))
            else:
                assert levels[cousin] is None
                assert planes[y] != planes[cousin]
        twins += len(b.twins)
        state = _random_config(nl, rng)
        if not latches:
            faults += _batch(nl, _all_vectors(nl, rng), state)
            continue
        if rng.random() < 0.9:
            reset_state(nl, [rng.randrange(nl.gates[g[0]].radix)
                             for g in nl.state_groups], state)
        _steps(nl, state, [tuple(rng.randrange(nl.gates[g].radix or 2)
                                 for g in nl.inputs)
                           for _ in range(4)])
        faults += len(state.faults)
    # twins were emitted, cousins were level sets, the fault paths reached
    assert twins and sets and faults


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
    # a mux fabric's constant banks: configuration latches, no level sets,
    # control each bank's switches, so each bank is one _NET op
    tt = TruthTable.make(3, 1, (2, 0, 1))
    nl = build_fabric_mux(3, 1)
    prog, planes, _ = sim._lower(nl, levelized(nl))
    number = {nid: i for i, nid in enumerate(nl.nets)}
    latches = dict(prog.config)
    nets = {op[1]: op[2] for op in prog.ops if op[0] == sim._NET}
    for k in range(3):
        bank = nl.gates[f"selb{k}/sw0"].pins["y"]
        assert nets[bank] == tuple((latches[f"selb{k}/d{v}"], y, (sim._FULL,))
                                   for v, y in enumerate(planes[number[bank]]))
    state = load_config(nl, derive_config(tt, nl))
    assert eval_vectors(nl, [(0,), (1,), (2,)], state) == [(2,), (0,), (1,)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_one_digit_decoder_lowers_to_no_op(n):
    # each line is a level set of one level: it aliases that level's plane
    nl = build_decoder_1(n)
    prog = sim._compiled(nl)
    assert prog.ops == ()
    (x,) = prog.inputs
    assert prog.outputs == tuple((sim._SINK, plane) for plane in x)
    rows = [(v,) for v in range(n)]
    assert eval_vectors(nl, rows) == [tuple(int(k == v) for k in range(n))
                                      for v in range(n)]


@pytest.mark.parametrize("strategy", [Strategy.DECODER, Strategy.MUX_TREE])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_one_digit_table_has_no_switch_net_op(strategy, n):
    # its selector is a level function of the digit: each output plane is
    # the OR of the input planes of the rows that give that level
    rng = random.Random(n)
    for tt in [TruthTable.make(n, 1, [0] * n)] + [random_table(n, 1, rng)
                                                  for _ in range(5)]:
        nl = synth_tables([tt], strategy)
        prog = sim._compiled(nl)
        assert {op[0] for op in prog.ops} <= {sim._OR}
        assert len(prog.ops) == sum(tt.entries.count(v) > 1 for v in range(n))
        assert eval_vectors(nl, [(v,) for v in range(n)]) == [
            (e,) for e in tt.entries]


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



@pytest.mark.parametrize("build, n, m, ops, flip", [
    (build_fabric_decoder, 5, 2, 157, 4),
    (build_fabric_mux, 3, 3, 41, 5),
], ids=["decoder", "mux"])
def test_a_fabric_check_reruns_only_the_cone_of_its_changed_bits(
        monkeypatch, build, n, m, ops, flip):
    runs = []
    run = sim._run

    def counted(op_list, v, masks):
        runs.append(len(op_list))
        return run(op_list, v, masks)

    monkeypatch.setattr(sim, "_run", counted)
    nl = build(n, m)
    tt = random_table(n, m, random.Random(n))
    derived = derive_config(tt, nl)
    assert check_equivalence(nl, tt, derived).passed
    prog = sim._compiled(nl)
    assert runs == [len(prog.ops)] == [ops]  # the first sweep runs them all
    cones = sim._cones(prog)[0]

    def reach(*bits):
        return len({i for k in bits for i in cones[k]})

    # each flip, and each return to the derived stream, runs its bit's cone
    runs.clear()
    count = len(derived.bits)
    for k in range(count):
        assert not check_equivalence(nl, tt, derived.flipped(k)).passed
        assert check_equivalence(nl, tt, derived).passed
    assert runs == [reach(k) for k in range(count) for _ in "ab"]
    assert runs[0] == flip and max(runs) < ops // 4
    # flips in turn, as the fabric benchmark checks them: each after the
    # first changes two bits and runs the union of their cones
    runs.clear()
    for k in range(count):
        assert not check_equivalence(nl, tt, derived.flipped(k)).passed
    assert runs == [reach(0)] + [reach(k - 1, k) for k in range(1, count)]
    assert max(runs) < ops // 4
    # a second sweep of those flips, after the derived stream, reruns the
    # same ops from the plans the first sweep kept, and builds none
    runs.clear()
    built = []
    plan = sim._plan

    def planned(*args):
        built.append(args)
        return plan(*args)

    monkeypatch.setattr(sim, "_plan", planned)
    assert check_equivalence(nl, tt, derived).passed
    for k in range(count):
        assert not check_equivalence(nl, tt, derived.flipped(k)).passed
    assert runs == [reach(count - 1), reach(0)] + [
        reach(k - 1, k) for k in range(1, count)]
    assert built == [] and len(prog.plans) <= 2 * count
    # another table's derived stream after the last flip changes many bits
    runs.clear()
    tt = random_table(n, m, random.Random(n + 1))
    last, derived = derived.flipped(count - 1), derive_config(tt, nl)
    changed = [k for k in range(count) if last.bits[k] != derived.bits[k]]
    assert len(changed) > 2
    assert check_equivalence(nl, tt, derived).passed
    assert runs == [reach(*changed)]
    # the same stream again runs no op and keeps the kept sweep
    runs.clear()
    kept = prog.kept
    assert check_equivalence(nl, tt, derived).passed
    assert runs == [] and prog.kept is kept

    # a sampled check and a caller's list run the whole program, and keep
    # nothing
    rows = sim._exhaustive(nl)
    check_equivalence(nl, tt, derived.flipped(0), cap=len(rows) - 1)
    eval_vectors(nl, list(rows), load_config(nl, derived.flipped(1)))
    assert runs == [ops, ops] and prog.kept is kept

    # a stream the checks refuse runs nothing and leaves the kept sweep
    other = build_fabric_mux(n, m) if build is build_fabric_decoder else \
        build_fabric_decoder(n, m)
    for stream in (ConfigBitstream(derived.bits[:-1]),
                   ConfigBitstream(derived.bits, fingerprint(other)),
                   derived.bits):
        with pytest.raises(ValueError):
            eval_vectors(nl, rows, SimState(config=stream))
    assert runs == [ops, ops] and prog.kept is kept

    # validate drops the kept sweep with the program: the next check runs
    # every op again
    validate(nl)
    assert nl._program is None
    assert not check_equivalence(nl, tt, derived.flipped(0)).passed
    assert runs == [ops, ops, ops] and sim._compiled(nl).kept is not None


@pytest.mark.parametrize("build", [build_fabric_decoder, build_fabric_mux],
                         ids=["decoder", "mux"])
def test_a_fabric_with_no_stream_faults_before_its_kept_sweep(monkeypatch, build):
    # after a passing check keeps a sweep, the rows with no stream are an
    # uninitialized-latch fault on the first configuration latch, logged
    # once, and run no op; the kept sweep still serves the same stream
    runs = []
    run = sim._run

    def counted(op_list, v, masks):
        runs.append(len(op_list))
        return run(op_list, v, masks)

    monkeypatch.setattr(sim, "_run", counted)
    fab = build(3, 2)
    tt = random_table(3, 2, random.Random(4))
    derived = derive_config(tt, fab)
    assert check_equivalence(fab, tt, derived).passed
    prog = sim._compiled(fab)
    kept = prog.kept
    runs.clear()
    state = SimState()
    with pytest.raises(SimFaultError) as raised:
        eval_vectors(fab, sim._exhaustive(fab), state)
    fault = Fault(FaultKind.UNINITIALIZED_LATCH, fab.latch_order[0])
    assert raised.value.fault == fault and state.faults == [fault]
    assert runs == [] and prog.kept is kept
    assert check_equivalence(fab, tt, derived).passed
    assert runs == [] and prog.kept is kept
