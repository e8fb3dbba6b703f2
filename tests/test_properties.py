"""Input-surface, synthesis and fabric properties.

Loaders: whatever JSON value is put wherever in a valid table, FSM,
netlist or bitstream document, its loader returns or raises
FileFormatError, never any other exception, and what loads also runs: a
table's decoder synthesis computes it, and a netlist or a machine compiled
from an FSM simulates to levels and faults. Netlists: a builder netlist
with one of test_netlist_diff's mutations either fails validate with
NetlistError or simulates to levels and faults, never another exception.
Synthesis and fabrics: a synthesized table and a fabric programmed for it
compute the table; a fabric with random bits gives a report.
"""

import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvlsynth.fileio import FileFormatError
from mvlsynth.netlist import NetlistError, validate
from mvlsynth.oracle import check_equivalence
from mvlsynth.sim import (Fault, SimFaultError, SimState, eval_vectors,
                          load_config, reset_state, step_sequential)
from mvlsynth.synth import (Strategy, build_fabric_decoder, build_fabric_mux,
                            compile_fsm, derive_config, synth_tables)
from mvlsynth.tables import ConfigBitstream, FsmSpec, TruthTable
from test_io import DOCUMENTS
from test_netlist_diff import FAMILIES, MUTATIONS, _copy


@functools.cache
def _text(kind):
    return DOCUMENTS[kind][0]()


def _paths(node, path=()):
    """Every position in a document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for k in node if isinstance(node, dict) else range(len(node)):
            yield from _paths(node[k], path + (k,))


def _leaves(node):
    """The document's own scalars: ids and levels that name real things."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in _leaves(child)]
    return [node]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_any_value_anywhere_loads_or_is_refused(kind, data):
    doc = json.loads(_text(kind))
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(_JSON | st.sampled_from(_leaves(doc)), label="value")
    if path:
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        loaded = DOCUMENTS[kind][1](json.dumps(doc))
    except FileFormatError:
        return
    # what loads also runs
    if isinstance(loaded, tuple):  # a table and its name
        tt = loaded[0]
        report = check_equivalence(synth_tables([tt], Strategy.DECODER), tt)
        assert report.passed, report.summary()
    elif not isinstance(loaded, ConfigBitstream):
        if isinstance(loaded, FsmSpec):
            loaded = compile_fsm(loaded, Strategy.DECODER)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        _simulates_to_levels_or_faults(loaded, random.Random(seed))


# -- mutated netlists ----------------------------------------------------------


@functools.cache
def _builder_netlists():
    return [nl for family in sorted(FAMILIES) for nl in FAMILIES[family]()]


def _simulate(nl, rng):
    """Simulate a validated netlist as its storage allows: a batch when it
    is latch-free, one vector when it has latches, two clock steps when it
    is clocked. Returns the results, or the fault that stopped the run."""
    state = SimState()
    if nl.latch_order:
        load_config(nl, ConfigBitstream(tuple(rng.randrange(2)
                                              for _ in nl.latch_order)), state)
    if nl.state_latches:
        reset_state(nl, [rng.randrange(nl.gates[group[0]].radix)
                         for group in nl.state_groups], state)
    tops = [nl.gates[gid].radix or 2 for gid in nl.inputs]
    count = 1 if nl.state_latches else rng.randint(1, 9)
    vectors = [tuple(rng.randrange(top) for top in tops) for _ in range(count)]
    try:
        if nl.clock is None:
            return eval_vectors(nl, vectors, state)
        return [step_sequential(nl, vector, state)[0] for vector in vectors * 2]
    except SimFaultError as e:
        return [e.fault]


def _simulates_to_levels_or_faults(nl, rng):
    tops = [nl.gates[gid].radix or 2 for gid in nl.outputs]
    for result in _simulate(nl, rng):
        assert isinstance(result, Fault) or all(
            type(x) is int and 0 <= x < top for x, top in zip(result, tops))


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(MUTATIONS),
       seed=st.integers(0, 2**32 - 1))
def test_a_mutated_netlist_is_refused_or_simulates(data, mutation, seed):
    rng = random.Random(seed)
    nl = _copy(data.draw(st.sampled_from(_builder_netlists()), label="netlist"))
    if mutation(nl, rng) is False:
        return
    try:
        validate(nl)
    except NetlistError:
        return
    _simulates_to_levels_or_faults(nl, rng)


# -- synthesis and fabrics against the oracle ----------------------------------

# (radix, arity) at radix 2-5, each table at most 27 rows
TABLE_SHAPES = [(n, m) for n in (2, 3, 4, 5) for m in (1, 2, 3) if n**m <= 27]
FABRIC_SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1)]
FABRICS = ["decoder", "mux-tree", "mux-flat"]


def _table(data, n, m):
    entries = data.draw(st.lists(st.integers(0, n - 1), min_size=n**m,
                                 max_size=n**m), label="entries")
    return TruthTable.make(n, m, entries)


@functools.cache
def _fabric(kind, n, m):
    if kind == "decoder":
        return build_fabric_decoder(n, m)
    return build_fabric_mux(n, m, tree=kind == "mux-tree")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), shape=st.sampled_from(TABLE_SHAPES),
       strategy=st.sampled_from(list(Strategy)))
def test_synthesis_matches_the_oracle(data, shape, strategy):
    n, m = shape
    tt = _table(data, n, m)
    vectors = list(itertools.product(range(n), repeat=m))
    assert eval_vectors(synth_tables([tt], strategy), vectors) == [
        (tt.lookup(vec),) for vec in vectors]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(FABRICS),
       shape=st.sampled_from(FABRIC_SHAPES))
def test_a_derived_bitstream_programs_the_fabric(data, kind, shape):
    fabric = _fabric(kind, *shape)
    tt = _table(data, *shape)
    report = check_equivalence(fabric, tt, config=derive_config(tt, fabric))
    assert report.passed, report.summary()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(FABRICS),
       shape=st.sampled_from(FABRIC_SHAPES))
def test_random_bits_give_a_report(data, kind, shape):
    n, m = shape
    fabric = _fabric(kind, n, m)
    count = len(fabric.latch_order)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=count,
                              max_size=count), label="bits")
    report = check_equivalence(fabric, _table(data, n, m),
                               config=ConfigBitstream(tuple(bits)))
    assert report.total_vectors == n**m
    assert report.passed == (not report.mismatches)
