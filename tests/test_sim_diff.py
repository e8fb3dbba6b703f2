"""Differential test: the compiled bit-parallel simulator against the frozen
list-of-slots reference in reference_sim.py.

Both run on the same netlists and inputs with fixed seeds; they must agree
on every result, the raised fault's (kind, ref, vector), the fault log in
order, and the latch contents after every step. The reference's bare
RuntimeError for latches that never settle is the new OSCILLATION fault,
which the new simulator also appends to the log.

The exhaustive rows a compiled program keeps, whose input planes are
loaded in closed form, are checked the same way against the checked walk
over an equal list of the same rows.
"""

import copy
import dataclasses
import itertools
import random
import re

import pytest

import reference_sim as ref
from mvlsynth import sim
from mvlsynth.netlist import (GateType, NetlistBuilder, fingerprint, levelized,
                              validate)
from mvlsynth.oracle import (EquivalenceReport, Mismatch, check_fsm_equivalence,
                             random_table)
from mvlsynth.sim import (Fault, FaultKind, SimFaultError, SimState, load_config,
                          reset_state)
from mvlsynth.synth import (Strategy, _emit_decoder_1, _emit_table, build_decoder_1,
                            build_fabric_decoder, build_fabric_mux,
                            build_nary_dff, build_nary_dlatch, compile_fsm,
                            derive_config, synth_tables)
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable


def _outcome(call, state):
    """(what happened, fault log) for one call, in comparable form. The
    reference logs no oscillation, so those entries are left out."""
    try:
        got = ("ok", call(state))
    except SimFaultError as e:
        f = e.fault
        if f.kind is FaultKind.OSCILLATION:
            assert state.faults[-1] == f
            got = ("oscillation",)
        else:
            got = ("fault", (f.kind, f.ref, f.vector))
    except RuntimeError as e:
        assert str(e) == "latch settling did not converge"
        got = ("oscillation",)
    return got, [f for f in state.faults if f.kind is not FaultKind.OSCILLATION]


def _same(call_new, call_ref, new_state, ref_state):
    got = _outcome(call_new, new_state)
    want = _outcome(call_ref, ref_state)
    assert got == want
    assert new_state.latches == ref_state.latches
    return got[0][0]


def _all_vectors(nl, rng, cap=64):
    spans = [nl.gates[g].radix or 2 for g in nl.inputs]
    space = list(itertools.product(*(range(s) for s in spans)))
    return space if len(space) <= cap else rng.sample(space, cap)


def _batch(nl, vectors, state=None):
    """Compare one batch; returns how many faults it logged."""
    state = state or SimState()
    _same(lambda s: sim.eval_vectors(nl, vectors, s),
          lambda s: ref.eval_vectors(nl, vectors, s),
          state, copy.deepcopy(state))
    return len(state.faults)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_tables(strategy, n):
    rng = random.Random(100 * n + len(strategy.value))
    for arity in (1, 2):
        tts = [random_table(n, arity, rng) for _ in range(2)]
        nl = synth_tables(tts, strategy)
        _batch(nl, _all_vectors(nl, rng))


@pytest.mark.parametrize("build", [
    build_fabric_decoder,
    lambda n, m: build_fabric_mux(n, m, tree=True),
    lambda n, m: build_fabric_mux(n, m, tree=False),
], ids=["decoder", "mux-tree", "mux-flat"])
def test_fabrics_with_random_bitstreams(build):
    rng = random.Random(7)
    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        nl = build(n, m)
        vectors = _all_vectors(nl, rng)
        for density in (0.0, 0.1, 0.3, 0.5, 1.0):
            bits = tuple(int(rng.random() < density) for _ in nl.latch_order)
            _batch(nl, vectors, load_config(nl, ConfigBitstream(bits)))


def _inverter(b, prefix, d, n):
    """Radix-n inverter (v -> n-1-v), as the decoder strategy realizes it."""
    tt = TruthTable.make(n, 1, range(n - 1, -1, -1))
    return _emit_table(b, prefix, [d], tt, Strategy.DECODER)


def _bank(b, rng, prefix, x, n, kinds):
    """A constant bank on select x, as the decoder strategy builds one:
    level k's constant is switched on by the OR of a group of x's one-hot
    lines. The groups cover each line once, or one line is in two groups
    (contention), or in none (floating); the kind drawn is added to kinds.
    Returns the bank's net, {prefix}y."""
    lines = _emit_decoder_1(b, f"{prefix}dec/", x, n)
    groups = [[] for _ in range(n)]
    for line in lines:
        rng.choice(groups).append(line)
    kind = rng.choice(["cover", "overlap", "gap"])
    kinds.add(kind)
    if kind != "cover":
        line = rng.choice(lines)
        home = next(g for g in groups if line in g)
        if kind == "gap":
            home.remove(line)
        else:
            rng.choice([g for g in groups if g is not home]).append(line)
    y = b.net(n, nid=f"{prefix}y")
    for level, group in enumerate(groups):
        if group:
            ctl = group[0] if len(group) == 1 else b.or_(f"{prefix}or{level}", group)
            b.switch(f"{prefix}sw{level}", b.const(level, n), ctl, y)
    return y


def _random_mesh(rng, latches=0, banks=None):
    """Switch meshes with contention, floating nets and poison chains.

    Every gate reads nets made before it; latch outputs are made first so
    that latch inputs can depend on them. Given a set as banks, some gates
    are constant banks (see _bank), half of them on a select that is a
    switch net of the mesh, which may float or contend; the kinds drawn,
    and "switch select", are added to the set.
    """
    b = NetlistBuilder()
    n = rng.choice([2, 3, 4])
    rad, bins = [], [b.const(rng.randrange(2), None)]
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            rad.append(b.add_input(f"x{i}", n))
        else:
            bins.append(b.add_input(f"b{i}", None))
    rad.append(b.const(rng.randrange(n), n))
    for i in range(rng.randint(0, 2)):
        bins.append(b.config_latch(f"cfg{i}"))
    qs = [b.net(n) for _ in range(latches)]
    rad.extend(qs)
    sws = []  # the switch nets
    for i in range(rng.randint(4, 16)):
        if banks is not None and rng.random() < 0.3:
            x = rng.choice(rad)
            if sws and rng.random() < 0.5:
                x = rng.choice(sws)
                banks.add("switch select")
            rad.append(_bank(b, rng, f"bank{i}/", x, n, banks))
            continue
        pick = rng.random()
        if pick < 0.2:
            bins.append(b.tlg(f"t{i}", rng.choice(rad), rng.randint(-1, n - 1)))
        elif pick < 0.3:
            bins.append(b.not_(f"n{i}", rng.choice(bins)))
        elif pick < 0.45:
            ins = [rng.choice(bins) for _ in range(rng.randint(2, 3))]
            gate = b.and_ if rng.random() < 0.5 else b.or_
            bins.append(gate(f"g{i}", ins))
        elif pick < 0.55:
            rad.append(_inverter(b, f"inv{i}/", rng.choice(rad), n))
        else:
            y = b.net(n)
            for k in range(rng.randint(1, 3)):
                b.switch(f"sw{i}_{k}", rng.choice(rad), rng.choice(bins), y)
            rad.append(y)
            sws.append(y)
    for i, q in enumerate(qs):
        b.add_gate(f"lat{i}", GateType.NARY_DLATCH,
                   {"d": rng.choice(rad), "q": q}, radix=n)
        b.add_state_group([f"lat{i}"])
    for i in range(rng.randint(1, 3)):
        b.add_output(f"o{i}", rng.choice(rad + bins))
    return b.finish()


def _random_config(nl, rng):
    bits = tuple(rng.randrange(2) for _ in nl.latch_order)
    return load_config(nl, ConfigBitstream(bits))


def test_switch_meshes():
    rng = random.Random(11)
    faults = 0
    for _ in range(300):
        nl = _random_mesh(rng)
        faults += _batch(nl, _all_vectors(nl, rng), _random_config(nl, rng))
    assert faults  # the meshes do reach the fault paths


def _steps(nl, state, vectors):
    """Step one state through both simulators, comparing after each step."""
    ref_state = copy.deepcopy(state)
    kinds = []
    for vec in vectors:
        kinds.append(_same(lambda s: sim.eval_combinational(nl, vec, s)[0],
                           lambda s: ref.eval_combinational(nl, vec, s)[0],
                           state, ref_state))
    return kinds


def _settle_endings(monkeypatch):
    """Collect how the new simulator's settles end: "early" when the last
    sweep committed a change, "confirmed" when a sweep confirmed a commit."""
    endings = set()
    starts = []  # latch contents at the start of each sweep of one settle
    settling = []  # the state of the settle in progress
    run, settle = sim._run, sim._settle

    def watched_run(*args):
        starts.append(dict(settling[0].latches))
        return run(*args)

    def watched_settle(*args):
        starts.clear()
        settling[:] = [args[3]]
        got = settle(*args)
        if args[3].latches != starts[-1]:
            endings.add("early")
        elif len(starts) > 1:
            endings.add("confirmed")
        return got

    monkeypatch.setattr(sim, "_run", watched_run)
    monkeypatch.setattr(sim, "_settle", watched_settle)
    return endings


def _latch_mesh_steps(rng, banks=None):
    """Draw a latch mesh, its configuration, a reset and four input
    vectors from rng, and step them through both simulators."""
    nl = _random_mesh(rng, latches=rng.randint(1, 3), banks=banks)
    state = _random_config(nl, rng)
    if rng.random() < 0.9:
        reset_state(nl, [rng.randrange(nl.gates[g[0]].radix)
                         for g in nl.state_groups], state)
    spans = [nl.gates[g].radix or 2 for g in nl.inputs]
    vectors = [tuple(rng.randrange(s) for s in spans) for _ in range(4)]
    return _steps(nl, state, vectors)


def test_latch_meshes_with_poison_chains(monkeypatch):
    endings = _settle_endings(monkeypatch)
    rng = random.Random(12)
    seen = set()
    for _ in range(250):
        seen.update(_latch_mesh_steps(rng))
    assert seen == {"ok", "fault", "oscillation"}
    assert endings == {"early", "confirmed"}


def test_a_faulting_latch_step_lowers_its_netlist_only_once(monkeypatch):
    # the cone a faulting sweep walks reads its sources' planes from the
    # compiled program: each mesh is lowered by its first step and never
    # again, whatever its steps fault on
    lowered = []
    lower = sim._lower

    def counted(nl, records):
        lowered.append(nl)
        return lower(nl, records)

    monkeypatch.setattr(sim, "_lower", counted)
    rng = random.Random(16)
    seen = []
    for _ in range(60):
        seen += _latch_mesh_steps(rng, set())
    assert "fault" in seen
    assert len(lowered) == len(set(map(id, lowered))) == 60


def test_a_mesh_that_oscillates_past_the_sweep_bound():
    # Three latches that cycle through their contents without settling: a
    # loop that stopped at the sweep bound would leave {lat0: 1, lat1: 1,
    # lat2: 1} after the first step, the first recurrence {1, 0, 0}.
    assert _latch_mesh_steps(random.Random(6)) == ["oscillation"] * 4


def _bank_faults(nl, faults):
    """The kinds of the faults on bank nets, and the number of nl's
    switch nets that lower as level functions."""
    levels = sim._lower(nl, levelized(nl))[2]
    functions = sum(type(got[1]) is tuple for got in levels if got)
    return {f.kind for f in faults if f.ref.startswith("bank")}, functions


def test_constant_banks():
    rng = random.Random(14)
    drawn, kinds, functions = set(), set(), 0
    for _ in range(300):
        nl = _random_mesh(rng, banks=drawn)
        state = _random_config(nl, rng)
        _batch(nl, _all_vectors(nl, rng), state)
        got = _bank_faults(nl, state.faults)
        kinds |= got[0]
        functions += got[1]
    assert drawn == {"cover", "overlap", "gap", "switch select"}
    assert functions and kinds == {FaultKind.CONTENTION, FaultKind.FLOATING_NET}


def test_constant_banks_in_latch_meshes(monkeypatch):
    endings = _settle_endings(monkeypatch)
    rng = random.Random(15)
    drawn, seen = set(), set()
    for _ in range(250):
        seen.update(_latch_mesh_steps(rng, drawn))
    assert drawn == {"cover", "overlap", "gap", "switch select"}
    assert seen == {"ok", "fault", "oscillation"}
    assert endings == {"early", "confirmed"}


def test_two_poisons_meeting_at_a_latch():
    # the latch input has two conducting drivers, each carrying a different
    # floating fault: one through its data, one through its control
    b = NetlistBuilder()
    g = b.add_input("g", None)
    never = b.const(0, None)
    f1, f2, m, q = (b.net(3) for _ in range(4))
    b.switch("off1", b.const(0, 3), never, f1)
    b.switch("off2", b.const(0, 3), never, f2)
    b.switch("s1", _inverter(b, "inv/", f1, 3), g, m)
    b.switch("s2", b.const(1, 3), b.tlg("t", f2, 0), m)
    b.add_gate("lat", GateType.NARY_DLATCH, {"d": m, "q": q}, radix=3)
    b.add_state_group(["lat"])
    b.add_output("y", q)
    nl = b.finish()
    assert _steps(nl, reset_state(nl, [0]), [(1,), (0,)]) == ["fault"] * 2


def test_fsms_with_and_without_reset():
    rng = random.Random(13)
    for i in range(12):
        n = rng.choice([2, 3])
        sa, ia = rng.randint(1, 2), rng.randint(0, 1)
        def tables(count):
            return tuple(random_table(n, sa + ia, rng) for _ in range(count))
        spec = FsmSpec(tables(1)[0].radix, sa, ia, tables(sa),
                       tables(1) if rng.random() < 0.5 else None)
        nl = compile_fsm(spec, list(Strategy)[i % 3])
        state = SimState()
        if i % 4:
            reset_state(nl, [rng.randrange(n) for _ in range(sa)], state)
        ref_state = copy.deepcopy(state)
        for _ in range(6):
            vec = tuple(rng.randrange(n) for _ in range(ia))
            _same(lambda s: sim.step_sequential(nl, vec, s)[0],
                  lambda s: ref.step_sequential(nl, vec, s)[0],
                  state, ref_state)


def _reference_report(nl, spec, reset, input_seqs):
    """check_fsm_equivalence's report as stepping the reference one
    step_sequential at a time from reset_state gives it."""
    total, mismatches = 0, []
    for seq in input_seqs:
        state, soft = reset_state(nl, reset), tuple(reset)
        for t, ins in enumerate(seq):
            total += 1
            soft = spec.step(soft, ins)
            expected = spec.observe(soft, ins)
            try:
                got = ref.step_sequential(nl, ins, state)[0]
            except SimFaultError as e:
                got = e.fault
            if got != expected:
                mismatches.append(Mismatch(tuple(seq[:t + 1]), expected, got))
                if isinstance(got, Fault):
                    break
    return EquivalenceReport(total, tuple(mismatches))


def _broken(nl, rng):
    """nl with one switch of its tables removed, from a net that other
    switches still drive: the net floats on the rows that switch served,
    which a machine may reach only some steps into a sequence."""
    drivers = {}
    for g in nl.gates.values():
        if g.kind is GateType.SWITCH and not g.gid.startswith("dff"):
            drivers.setdefault(g.pins["y"], []).append(g.gid)
    shared = [gids for gids in drivers.values() if len(gids) > 1]
    gone = rng.choice(rng.choice(shared))
    gates = {gid: g for gid, g in nl.gates.items() if gid != gone}
    return dataclasses.replace(nl, gates=gates, nets=dict(nl.nets))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_fsm_checks_match_the_reference_stepped_one_step_at_a_time(strategy):
    # check_fsm_equivalence carries one load of the sources through each
    # sequence; stepping the reference from a fresh reset_state per
    # sequence must give the same report: totals, mismatches in order, and
    # each fault's kind, ref and vector. Every third machine is checked
    # against other tables (mismatches, no fault), every third has a
    # switch removed (faults)
    rng = random.Random(17 + len(strategy.value))
    faulted_at, mismatched = [], 0
    for i in range(24):
        n = rng.choice([2, 3, 4])
        sa = rng.randint(1, 2)
        ia = rng.randint(1, 3 - sa)

        def machine():
            def tables(count):
                return tuple(random_table(n, sa + ia, rng) for _ in range(count))
            return FsmSpec(tables(1)[0].radix, sa, ia, tables(sa),
                           tables(1) if i % 2 else None)
        spec = machine()
        nl = compile_fsm(spec, strategy)
        if i % 3 == 1:
            spec = machine()
        elif i % 3 == 2:
            nl = _broken(nl, rng)
        reset = tuple(rng.randrange(n) for _ in range(sa))
        seqs = [[tuple(rng.randrange(n) for _ in range(ia))
                 for _ in range(rng.randint(1, 6))] for _ in range(3)]
        report = check_fsm_equivalence(nl, spec, reset, seqs)
        assert report == _reference_report(nl, spec, reset, seqs)
        assert report.passed or i % 3
        faulted_at += [len(m.inputs) for m in report.mismatches
                       if isinstance(m.got, Fault)]
        mismatched += sum(not isinstance(m.got, Fault) for m in report.mismatches)
    # some machines fault some steps into a sequence, whose rest is dropped
    assert mismatched and faulted_at and max(faulted_at) > 1


@pytest.mark.parametrize("build", [build_nary_dlatch, build_nary_dff])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_storage_under_random_gate_sequences(build, n):
    rng = random.Random(n)
    nl = build(n)
    for reset in range(n):
        vectors = [(rng.randrange(n), rng.randrange(n)) for _ in range(25)]
        assert set(_steps(nl, reset_state(nl, [reset] * len(nl.state_groups)),
                          vectors)) == {"ok"}
    assert set(_steps(nl, SimState(), [(0, 1)])) == {"fault"}


# -- the program's exhaustive rows against the checked walk --------------------


FABRICS = {
    "decoder": build_fabric_decoder,
    "mux-tree": lambda n, m: build_fabric_mux(n, m, tree=True),
    "mux-flat": lambda n, m: build_fabric_mux(n, m, tree=False),
}


def _rows_match_the_walk(nl, state=None):
    """Evaluate nl's kept rows and a fresh list of the same rows, each from
    a copy of state; both must give the same results and fault log, and
    the kept planes must be left as they were. Returns the fault log."""
    state = state or SimState()
    rows = sim._exhaustive(nl)
    spans = [nl.gates[g].radix or 2 for g in nl.inputs]
    walked = list(itertools.product(*(range(s) for s in spans)))
    assert list(rows) == walked
    kept = list(nl._program.domain[1])
    got = _outcome(lambda s: sim.eval_vectors(nl, rows, s), copy.deepcopy(state))
    want = _outcome(lambda s: sim.eval_vectors(nl, walked, s), copy.deepcopy(state))
    assert got == want
    assert nl._program.domain[1] == kept
    return got[1]


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kept_rows_of_random_tables(strategy, n):
    rng = random.Random(10 * n + len(strategy.value))
    for arity in (1, 2, 3):
        _rows_match_the_walk(synth_tables([random_table(n, arity, rng)], strategy))


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_kept_rows_of_fabrics_across_bitstreams(kind):
    rng = random.Random(len(kind))
    kinds = set()
    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        nl = FABRICS[kind](n, m)
        faults = _rows_match_the_walk(nl)  # unprogrammed
        rows = sim._exhaustive(nl)
        derived = derive_config(random_table(n, m, rng), nl)
        for i in range(-1, len(derived.bits)):  # derived, then each flip
            bits = derived if i < 0 else derived.flipped(i)
            faults += _rows_match_the_walk(nl, load_config(nl, bits))
            assert sim._exhaustive(nl) is rows  # one tuple for every stream
        validate(nl)  # drops the program and the rows with it
        _rows_match_the_walk(nl, load_config(nl, derived))
        assert sim._exhaustive(nl) is not rows
        kinds.update(f.kind for f in faults)
    assert kinds == {FaultKind.UNINITIALIZED_LATCH, FaultKind.CONTENTION,
                     FaultKind.FLOATING_NET}


def test_kept_rows_of_switch_meshes():
    rng = random.Random(11)
    faults = 0
    for _ in range(300):
        nl = _random_mesh(rng)
        faults += len(_rows_match_the_walk(nl, _random_config(nl, rng)))
    assert faults  # the meshes do reach the fault paths


def test_kept_rows_load_from_the_kept_planes():
    # the batch that is the kept tuple is loaded from the kept planes, not
    # walked: swapping two levels' planes there swaps their results
    nl = build_decoder_1(3)
    rows = sim._exhaustive(nl)
    sources = nl._program.domain[1]
    (x0, x1, _), = nl._program.inputs
    sources[x0], sources[x1] = sources[x1], sources[x0]
    assert sim.eval_vectors(nl, rows) == [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    assert sim.eval_vectors(nl, list(rows)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kept_rows_still_check_the_configuration():
    # a stream stored by hand gets load_config's refusals at the settle,
    # on the kept rows as on the checked walk, before any sweep
    nl = build_fabric_decoder(2, 1)
    other = build_fabric_mux(2, 1)  # same latch count, another addressing
    rows = sim._exhaustive(nl)
    bits = derive_config(TruthTable.make(2, 1, (1, 0)), nl).bits
    for stream in (ConfigBitstream(bits, fingerprint(other)),
                   ConfigBitstream(bits[:-1]), bits, list(bits)):
        with pytest.raises(ValueError) as refused:
            load_config(nl, stream)
        for vectors in (rows, list(rows)):
            state = SimState(config=stream)
            with pytest.raises(ValueError, match=re.escape(str(refused.value))):
                sim.eval_vectors(nl, vectors, state)
            assert state.faults == []


def _streams(rng, nbits):
    """A random sequence of bitstreams for one fabric: a random start, then
    one-bit flips, a flip and back, the same stream twice (as one object
    and as an equal one), many-bit changes and the all-zero stream."""
    bits = tuple(rng.randrange(2) for _ in range(nbits))
    streams = [ConfigBitstream(bits)]
    for _ in range(10):
        kind = rng.choice(["flip", "flip and back", "same", "equal", "many",
                           "zero"])
        last = streams[-1]
        if kind == "same":
            streams.append(last)
        elif kind == "equal":
            streams.append(ConfigBitstream(last.bits))
        elif kind == "zero":
            streams.append(ConfigBitstream((0,) * nbits))
        elif kind == "many":
            streams.append(ConfigBitstream(
                tuple(rng.randrange(2) for _ in range(nbits))))
        elif nbits:
            k = rng.randrange(nbits)
            streams.append(last.flipped(k))
            if kind == "flip and back":
                streams.append(streams[-1].flipped(k))
    return streams


def _kept_sweeps_match(nl, streams, states=1):
    """Evaluate nl's kept rows under each stream in turn, round-robin over
    states SimStates, against the checked walk over an equal list of the
    rows and against the reference, each with its own states: results
    and each state's fault log, in order, must agree. Returns the faults."""
    rows = sim._exhaustive(nl)
    walked = list(rows)
    kept, full, want = ([SimState() for _ in range(states)] for _ in range(3))
    for i, stream in enumerate(streams):
        j = i % states
        for s in (kept[j], full[j], want[j]):
            s.config = stream
        got = _outcome(lambda s: sim.eval_vectors(nl, rows, s), kept[j])
        assert nl._program.kept is not None
        assert _outcome(lambda s: sim.eval_vectors(nl, walked, s), full[j]) == got
        assert _outcome(lambda s: ref.eval_vectors(nl, walked, s), want[j]) == got
    return [f for s in kept for f in s.faults]


def test_kept_sweeps_of_switch_meshes_across_streams():
    rng = random.Random(17)
    kinds = set()
    for _ in range(150):
        nl = _random_mesh(rng)
        streams = _streams(rng, len(nl.latch_order))
        kinds.update(f.kind for f in _kept_sweeps_match(nl, streams))
    assert kinds == {FaultKind.CONTENTION, FaultKind.FLOATING_NET}


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_kept_sweeps_of_fabrics_across_streams(kind):
    rng = random.Random(len(kind) + 1)
    kinds = set()
    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)):
        nl = FABRICS[kind](n, m)
        derived = derive_config(random_table(n, m, rng), nl)
        flips = [derived]
        for k in rng.sample(range(len(derived.bits)), 4):
            flips += [derived.flipped(k), derived]
        streams = flips + _streams(rng, len(derived.bits))
        kinds.update(f.kind for f in _kept_sweeps_match(nl, streams))
    assert kinds == {FaultKind.CONTENTION, FaultKind.FLOATING_NET}


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_two_states_alternating_on_one_fabric(kind):
    # each state's stream differs from the kept sweep, which the other
    # state's last check left, in bits the state never changed itself
    rng = random.Random(len(kind) + 2)
    for n, m in ((2, 2), (3, 2)):
        nl = FABRICS[kind](n, m)
        ours, theirs = (_streams(rng, len(nl.latch_order)) for _ in range(2))
        _kept_sweeps_match(nl, [s for pair in zip(ours, theirs) for s in pair],
                           states=2)
