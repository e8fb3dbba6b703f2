"""What a compiled program keeps from one check for the next: its kept sweep,
which a rerun takes and rewrites in place, the plan of each rerun of one or
two changed bits, and the wanted planes of the last table it was checked
against.

A rerun from a kept plan, a check that overlaps a rerun on the same
program, and one that follows an interrupted rerun must report, and log,
what a freshly built fabric does; reused wanted planes must give the
reports and fault logs of test_verdict's per-row reference. The records a
check builds per failing vector fill their fields in one step and keep
every dataclass behaviour, and a bitstream keeps its own.
"""

import copy
import dataclasses
import inspect
import pickle
import random
import sys
import threading

import pytest

from mvlsynth import oracle, sim
from mvlsynth.oracle import (EquivalenceReport, Mismatch, check_equivalence,
                             random_table)
from mvlsynth.sim import Fault, FaultKind, SimState
from mvlsynth.synth import (Strategy, build_decoder_1, derive_config,
                            synth_tables)
from mvlsynth.tables import ConfigBitstream, TruthTable
from test_verdict import FABRICS, _edited, compare  # noqa: F401 (a fixture)


# -- a rerun takes the kept sweep ----------------------------------------------


def _fresh(kind, n, m, tt, stream):
    """The report of a freshly built fabric's first check, a full sweep."""
    return check_equivalence(FABRICS[kind](n, m), tt, stream)


def _changed(a, b):
    """The key of the bits in which streams a and b differ: bit 8k for bit k."""
    return sum(1 << 8 * k for k, (x, y) in enumerate(zip(a.bits, b.bits)) if x != y)


def _plans_in_bound(prog):
    """The plan store holds at most two plans per latch, each of a change of
    one or two bits."""
    plans = dict(prog.plans)
    return len(plans) <= 2 * len(prog.config) and all(
        0 < bin(key).count("1") <= 2 for key in plans)


@pytest.fixture
def logged(monkeypatch):
    """logged(nl, tt, stream): a check's report and its state's fault log."""
    states = []

    def kept(**fields):
        states.append(SimState(**fields))
        return states[-1]

    monkeypatch.setattr(oracle, "SimState", kept)

    def run(nl, tt, stream):
        report = check_equivalence(nl, tt, stream)
        return report, states[-1].faults
    return run


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_reruns_from_kept_plans_match_a_fresh_fabric(logged, kind):
    n, m = 3, 2
    rng = random.Random(len(kind) + 41)
    fab = FABRICS[kind](n, m)
    prog = sim._compiled(fab)
    tt, other = random_table(n, m, rng), random_table(n, m, rng)
    derived, theirs = derive_config(tt, fab), derive_config(other, fab)
    size = len(derived.bits)
    zero = ConfigBitstream((0,) * size)
    shuffled = rng.sample(range(size), size)
    cases = [(tt, derived)]
    for _ in range(2):  # the second pass reruns from the first one's plans
        cases += [(tt, derived.flipped(k)) for k in range(size)]
    for _ in range(2):  # new pairs of bits, past the store's bound
        cases += [(tt, derived.flipped(k)) for k in rng.sample(range(size), size)]
    cases += [(tt, derived.flipped(j).flipped(k))  # two bits from derived
              for j, k in (rng.sample(range(size), 2) for _ in range(6))]
    cases += [(tt, ConfigBitstream(tuple(rng.randrange(2) for _ in range(size))))
              for _ in range(4)]
    cases += [(tt, derived), (tt, derived), (tt, zero), (tt, zero.flipped(3)),
              (tt, zero)]
    for k in shuffled[:6]:  # two tables in turn, each with its flips
        cases += [(other, theirs), (tt, derived.flipped(k)),
                  (other, theirs.flipped(k)), (tt, derived)]
    last, sizes = None, []
    for want, stream in cases:
        got = logged(fab, want, stream)
        assert got == logged(FABRICS[kind](n, m), want, stream), stream
        key = 0 if last is None else _changed(last, stream)
        # a change of one or two bits keeps its plan, a wider one none
        assert (key in prog.plans) == (0 < bin(key).count("1") <= 2)
        assert _plans_in_bound(prog)
        last = stream
        sizes.append(len(prog.plans))
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the store was emptied


@pytest.mark.parametrize("where", ["run", "read"])
@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_a_check_nested_in_a_rerun_sweeps_afresh(monkeypatch, kind, where):
    # halfway through each rerun of a flip, or as its planes are read, the
    # same fabric is checked against another table under a flip of that
    # table's stream
    n, m = 3, 2
    rng = random.Random(len(kind) + 34)
    fab = FABRICS[kind](n, m)
    prog = sim._compiled(fab)
    tt, other = random_table(n, m, rng), random_table(n, m, rng)
    derived, theirs = derive_config(tt, fab), derive_config(other, fab)
    run, misses = sim._run, oracle._misses
    armed, nested = [], []

    def nest():
        armed.clear()
        assert prog.kept is None  # the rerun took it
        stream = theirs.flipped(rng.randrange(len(theirs.bits)))
        nested.append((stream, check_equivalence(fab, other, stream)))

    def reentrant(ops, v, masks):
        if not armed or ops is prog.ops:  # not a rerun, or done nesting
            return run(ops, v, masks)
        half = len(ops) // 2
        run(ops[:half], v, masks)
        nest()
        run(ops[half:], v, masks)

    def reading(*args):
        if armed:
            nest()
        return misses(*args)

    if where == "run":
        monkeypatch.setattr(sim, "_run", reentrant)
    else:
        monkeypatch.setattr(oracle, "_misses", reading)
    assert check_equivalence(fab, tt, derived).passed
    for k in range(len(derived.bits)):
        stream = derived.flipped(k)
        armed.append(True)
        outer = check_equivalence(fab, tt, stream)
        assert not armed and len(nested) == k + 1  # it did nest
        inner, report = nested[-1]
        assert outer == _fresh(kind, n, m, tt, stream), k
        assert report == _fresh(kind, n, m, other, inner), k
        # the next check starts from whichever sweep was kept last
        assert check_equivalence(fab, tt, derived).passed
        assert prog.kept is not None


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_an_interrupted_rerun_leaves_nothing_kept(monkeypatch, kind):
    n, m = 3, 2
    rng = random.Random(len(kind) + 35)
    fab = FABRICS[kind](n, m)
    prog = sim._compiled(fab)
    tt = random_table(n, m, rng)
    derived = derive_config(tt, fab)
    run = sim._run

    def interrupted(ops, v, masks):
        if ops is prog.ops:
            return run(ops, v, masks)
        run(ops[:len(ops) // 2], v, masks)
        raise _Interrupted

    assert check_equivalence(fab, tt, derived).passed
    for k in rng.sample(range(len(derived.bits)), 6):
        stream = derived.flipped(k)
        monkeypatch.setattr(sim, "_run", interrupted)
        with pytest.raises(_Interrupted):
            check_equivalence(fab, tt, stream)
        assert prog.kept is None
        monkeypatch.setattr(sim, "_run", run)
        assert check_equivalence(fab, tt, stream) == _fresh(kind, n, m, tt, stream)
        assert prog.kept is not None
        # and a rerun from that sweep is exact too
        back = stream.flipped(k ^ 1)
        assert check_equivalence(fab, tt, back) == _fresh(kind, n, m, tt, back)


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_threads_checking_one_fabric_get_a_fresh_fabrics_reports(kind):
    # more threads than cores, each with its own table and streams, on one
    # fabric, switching as often as the interpreter lets them
    n, m = 3, 2
    rng = random.Random(len(kind) + 40)
    fab = FABRICS[kind](n, m)
    prog = sim._compiled(fab)
    jobs = []
    for _ in range(4):
        tt = random_table(n, m, rng)
        derived = derive_config(tt, fab)
        size = len(derived.bits)
        flips = rng.sample(range(size), 10)
        streams = [derived] + [derived.flipped(k) for k in flips[:8]]
        streams += [derived.flipped(k).flipped((k + 1) % size)
                    for k in flips[8:]]
        streams += [ConfigBitstream(tuple(rng.randrange(2) for _ in range(size))),
                    ConfigBitstream((0,) * size)]
        jobs.append([(tt, s, _fresh(kind, n, m, tt, s)) for s in streams])
    wrong = []

    def work(job):
        for _ in range(5):
            for tt, stream, want in job:
                if check_equivalence(fab, tt, stream) != want:
                    wrong.append((tt, stream))
                if not _plans_in_bound(prog):
                    wrong.append(dict(prog.plans))

    threads = [threading.Thread(target=work, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- the wanted planes of the last table ---------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The levels whose wanted plane a check builds, in order."""
    got = []

    class Counted(dict):
        def get(self, lvl, default=None):
            got.append(lvl)
            return super().get(lvl, default)

    monkeypatch.setattr(sim, "_WANTED", Counted())
    return got


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_one_tables_planes_are_built_once_under_every_stream(compare, builds, kind):
    rng = random.Random(len(kind) + 36)
    n, m = 3, 3
    fab = FABRICS[kind](n, m)
    prog = sim._compiled(fab)
    tt = random_table(n, m, rng)
    derived = derive_config(tt, fab)
    size = len(derived.bits)
    assert compare(fab, tt, derived).passed
    wanted = prog.wanted
    assert wanted[0] is tt.entries
    assert sorted(builds) == sorted(set(tt.entries))  # each level once
    streams = [derived.flipped(k) for k in range(size)]
    streams += [derived, ConfigBitstream((0,) * size)]
    streams += [ConfigBitstream(tuple(rng.randrange(2) for _ in range(size)))
                for _ in range(4)]
    for stream in streams:
        compare(fab, tt, stream)
        assert prog.wanted is wanted
    assert len(builds) == len(set(builds))  # a new level is built once too


def test_two_tables_checked_alternately(compare, builds):
    # only the last table's planes are kept: each switch builds them anew
    rng = random.Random(37)
    fab = FABRICS["mux-flat"](3, 2)
    prog = sim._compiled(fab)
    tables = [random_table(3, 2, rng) for _ in range(2)]
    for _ in range(3):
        for tt in tables:
            builds.clear()
            derived = derive_config(tt, fab)
            assert compare(fab, tt, derived).passed
            assert prog.wanted[0] is tt.entries
            assert sorted(builds) == sorted(set(tt.entries))
            builds.clear()
            for k in (0, 5, 11):  # faults only, on no new level
                assert not compare(fab, tt, derived.flipped(k)).passed
            assert builds == []
            compare(fab, _edited(tt, rng), derived)  # a third table, once
            assert prog.wanted[0] is not tt.entries


def test_an_equal_table_reuses_the_planes(compare, builds):
    rng = random.Random(38)
    tt = random_table(4, 2, rng)
    equal = TruthTable(tt.radix, tt.arity, tuple(list(tt.entries)))
    assert equal.entries is not tt.entries and equal == tt
    for kind in sorted(FABRICS):
        fab = FABRICS[kind](4, 2)
        derived = derive_config(tt, fab)
        builds.clear()
        assert compare(fab, tt, derived).passed
        wanted = sim._compiled(fab).wanted
        built = list(builds)
        for want, stream in ((equal, derived), (equal, derived.flipped(3)),
                             (tt, derived.flipped(7))):
            compare(fab, want, stream)
        assert builds == built and sim._compiled(fab).wanted is wanted
        # a table given as a list is kept as a tuple, so changing the list
        # after a check changes the next check's planes
        entries = list(_edited(tt, rng).entries)
        listed = TruthTable(tt.radix, tt.arity, entries)
        compare(fab, listed, derived)
        assert sim._compiled(fab).wanted[0] == tuple(entries)
        entries[:] = tt.entries
        assert compare(fab, listed, derived).passed


@pytest.mark.parametrize("strategy", list(Strategy))
def test_sampled_checks_reuse_their_planes(compare, builds, strategy):
    rng = random.Random(39)
    tt = random_table(3, 3, rng)
    nl = synth_tables([tt], strategy)
    prog = sim._compiled(nl)
    for want in (tt, _edited(tt, rng, 27)):  # every entry moved
        builds.clear()
        compare(nl, want, cap=5)
        wanted, built = prog.wanted, list(builds)
        assert type(wanted[0]) is tuple and len(wanted[0]) == 5
        compare(nl, want, cap=5)  # the same sample: equal wants
        assert prog.wanted is wanted and builds == built
        compare(nl, want)  # exhaustive: other wants, built anew
        assert prog.wanted[0] is want.entries
        before = len(builds)
        compare(nl, want, cap=5)
        assert prog.wanted is not wanted and builds[before:] == built


def test_a_level_the_output_cannot_carry_is_never_built(compare, builds):
    nl = dataclasses.replace(build_decoder_1(3), outputs=["b1"])  # x == 1
    for entries in ((0, 1, 2), (2, 2, 2), (2, 1, 0)):
        builds.clear()
        tt = TruthTable.make(3, 1, entries)
        report = compare(nl, tt)
        assert 2 not in builds and set(builds) <= {0, 1}
        assert [mm.inputs for mm in report.mismatches] == [
            (k,) for k in range(3) if entries[k] != int(k == 1)]
        built = list(builds)
        compare(nl, tt)
        assert builds == built


# -- the records a failing vector builds ---------------------------------------


RECORDS = [
    (Fault, (FaultKind.CONTENTION, "n1", (0, 1)), (FaultKind.FLOATING_NET,)),
    (Mismatch, ((0, 1), (2,), (1,)), ((1, 1),)),
    (EquivalenceReport, (9, (), False, 7), (10,)),
]


@pytest.mark.parametrize("cls, args, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_every_dataclass_behaviour(cls, args, other):
    names = [f.name for f in dataclasses.fields(cls)]
    params = inspect.signature(cls).parameters
    assert list(params) == names
    for f in dataclasses.fields(cls):
        default = params[f.name].default
        assert default == (inspect.Parameter.empty
                           if f.default is dataclasses.MISSING else f.default)
    obj = cls(*args)
    assert vars(obj) == dict(zip(names, args))
    assert obj == cls(**dict(zip(names, args)))
    assert hash(obj) == hash(cls(*args))
    changed = cls(*other, *args[len(other):])
    assert obj != changed and dataclasses.replace(obj, **{names[0]: other[0]}) == changed
    assert repr(obj) == "{}({})".format(
        cls.__name__, ", ".join(f"{k}={v!r}" for k, v in zip(names, args)))
    assert dataclasses.asdict(obj) == dict(zip(names, args))
    assert dataclasses.astuple(obj) == args
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert twin == obj and twin is not obj and hash(twin) == hash(obj)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, names[0], other[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, names[0])
    assert obj == cls(*args)


def test_a_bitstream_keeps_every_dataclass_behaviour_and_packs_its_bits():
    # the packed key is no field: it takes no part in eq, hash, repr or
    # pickle, and every way of making a stream packs its bits again
    names = [f.name for f in dataclasses.fields(ConfigBitstream)]
    assert names == ["bits", "fingerprint"]
    params = inspect.signature(ConfigBitstream).parameters
    assert list(params) == names and params["fingerprint"].default is None
    stream = ConfigBitstream([1, 0, 1, 1], "fp")
    fields = {"bits": (1, 0, 1, 1), "fingerprint": "fp"}
    assert dataclasses.asdict(stream) == fields
    assert dataclasses.astuple(stream) == ((1, 0, 1, 1), "fp")
    assert repr(stream) == "ConfigBitstream(bits=(1, 0, 1, 1), fingerprint='fp')"
    assert stream == ConfigBitstream((1, 0, 1, 1), "fp") != ConfigBitstream((1, 0, 1, 1))
    assert hash(stream) == hash(((1, 0, 1, 1), "fp"))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert stream.__reduce_ex__(protocol)[2] == fields
        twin = pickle.loads(pickle.dumps(stream, protocol))
        assert twin == stream and twin._key == stream._key == 0x01010001
    for twin in (copy.copy(stream), copy.deepcopy(stream),
                 dataclasses.replace(stream, fingerprint=None)):
        assert twin.bits == stream.bits and twin._key == stream._key
    assert dataclasses.replace(stream, bits=(0, 1))._key == 0x0100
    assert stream.flipped(3)._key == 0x00010001
    with pytest.raises(dataclasses.FrozenInstanceError):
        stream.bits = (0,)
    assert ConfigBitstream(())._key == 0
