"""Differential test: validate, levelize and the port table against the
frozen per-call versions in reference_netlist.py.

On builder netlists the eval order must be identical, both after validate
and on a copy that skipped it. On seeded random mutations of those
netlists both validates must pass or raise the same error with the same
message; when they pass, the eval orders and driver maps must agree.
"""

import random

import pytest

import reference_netlist as ref
from mvlsynth.netlist import (Gate, GateType, Netlist, _driver_map,
                              gate_ports, validate)
from mvlsynth.oracle import random_table
from mvlsynth.synth import (Strategy, build_fabric_decoder, build_fabric_mux,
                            build_nary_dff, build_nary_dlatch, compile_fsm,
                            synth_tables)
from mvlsynth.tables import FsmSpec


def _tables():
    rng = random.Random(7)
    for strategy in Strategy:
        for n in (2, 3, 4, 5):
            yield synth_tables([random_table(n, 2 if n < 4 else 1, rng)
                                for _ in range(2)], strategy)


def _fabrics():
    for n, m in ((2, 1), (3, 1), (2, 2), (3, 2)):
        yield build_fabric_decoder(n, m)
        yield build_fabric_mux(n, m, tree=m > 1)


def _fsms():
    rng = random.Random(11)
    for i in range(8):
        n, sa, ia = rng.choice([2, 3]), rng.randint(1, 2), rng.randint(0, 1)

        def tables(count):
            return tuple(random_table(n, sa + ia, rng) for _ in range(count))
        spec = FsmSpec(tables(1)[0].radix, sa, ia, tables(sa),
                       tables(1) if i % 2 else None)
        yield compile_fsm(spec, list(Strategy)[i % 3])
    yield build_nary_dlatch(3)
    yield build_nary_dff(3)


FAMILIES = {"tables": _tables, "fabrics": _fabrics, "fsms": _fsms}


def _copy(nl):
    """A fresh, unvalidated copy: nothing cached, nothing shared."""
    return Netlist(
        gates={gid: Gate(g.gid, g.kind, dict(g.pins), g.param, g.radix)
               for gid, g in nl.gates.items()},
        nets=dict(nl.nets),
        inputs=list(nl.inputs), outputs=list(nl.outputs),
        latch_order=list(nl.latch_order),
        state_latches=list(nl.state_latches),
        state_groups=list(nl.state_groups),
        clock=nl.clock, fabric_kind=nl.fabric_kind)


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as e:  # compared, never swallowed
        return type(e).__name__, str(e)


def _ports(call, g):
    got = _outcome(call, g)
    if got[0] != "ok":
        return got
    return [(s.name, s.is_input, s.radix) for s in got[1]]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_builder_netlists_keep_their_eval_order(family):
    for nl in FAMILIES[family]():
        want = ref._levelize(nl)
        assert nl.eval_order() == want
        assert _copy(nl).eval_order() == want   # validated on first use
        again = _copy(nl)
        validate(again)
        assert again.eval_order() == want
        assert _driver_map(nl) == ref._driver_map(nl)
        for g in nl.gates.values():
            assert _ports(gate_ports, g) == _ports(ref.gate_ports, g)


def test_port_table_matches_the_reference_on_every_kind():
    # every kind, unknown ones included, over radixes and fan-ins; twice
    # over, so a signature from the cache must match too
    for _ in range(2):
        for kind in [*GateType, "bogus", ["bogus"]]:
            for radix in (None, 2, 3, 4, 5):
                for fan_in in (None, True, -1, 0, 1, 2, 3, 4):
                    g = Gate("g", kind, {}, fan_in, radix)
                    assert (_ports(gate_ports, g) == _ports(ref.gate_ports, g)
                            ), (kind, radix, fan_in)


# -- mutations: each edits a fresh copy in place, or returns False when the
# netlist has nothing it applies to


def _gate(nl, rng, *kinds):
    gates = [g for g in nl.gates.values() if not kinds or g.kind in kinds]
    return rng.choice(gates) if gates else None


def _drop_pin(nl, rng):
    g = _gate(nl, rng)
    del g.pins[rng.choice(sorted(g.pins))]


def _add_pin(nl, rng):
    g = _gate(nl, rng)
    g.pins[rng.choice(["a9", "z", "c"])] = rng.choice(sorted(nl.nets))


def _retarget_pin(nl, rng):
    g = _gate(nl, rng)
    g.pins[rng.choice(sorted(g.pins))] = rng.choice(sorted(nl.nets))


def _unknown_net(nl, rng):
    g = _gate(nl, rng)
    g.pins[rng.choice(sorted(g.pins))] = "nowhere"


def _net_radix(nl, rng):
    nid = rng.choice(sorted(nl.nets))
    nl.nets[nid] = rng.choice([r for r in (None, 0, 1, 2, 3, 4, 5) if r != nl.nets[nid]])


def _shared_input(nl, rng):
    g = _gate(nl, rng, GateType.AND, GateType.OR)
    if g is None:
        return False
    g.pins["a0"] = g.pins[f"a{g.param - 1}"]


def _fan_in(nl, rng):
    g = _gate(nl, rng, GateType.AND, GateType.OR)
    if g is None:
        return False
    g.param = rng.choice([-1, 0, g.param - 1, g.param + 1])


def _second_driver(nl, rng):
    nid = rng.choice(sorted(nl.nets))
    radix = nl.nets[nid]
    binary = [n for n in sorted(nl.nets) if nl.nets[n] is None]
    kind = rng.choice([GateType.CONST, GateType.NOT, GateType.SWITCH])
    if kind is GateType.CONST:
        extra = Gate("extra", kind, {"y": nid}, 0, radix)
    elif kind is GateType.NOT:
        extra = Gate("extra", kind, {"a": rng.choice(binary), "y": nid})
    else:
        same = [n for n in sorted(nl.nets) if nl.nets[n] == radix] or [nid]
        extra = Gate("extra", kind, {"d": rng.choice(same),
                                     "c": rng.choice(binary), "y": nid})
    nl.gates["extra"] = extra


def _tlg_threshold(nl, rng):
    g = _gate(nl, rng, GateType.TLG)
    if g is None:
        return False
    n = nl.nets[g.pins["d"]]
    g.param = rng.choice([None, -2, -1, 0, n - 1, n, 9])


def _const_value(nl, rng):
    g = _gate(nl, rng, GateType.CONST)
    if g is None:
        return False
    g.param = rng.choice([None, -1, 0, 1, 2, 5])


def _cycle(nl, rng):
    # feed a gate's binary input from itself or from a gate ordered after it
    order = ref._levelize(nl)
    for _ in range(20 if order else 0):
        i = rng.randrange(len(order))
        g = nl.gates[order[i]]
        pins = sorted(p for p in g.pins if p in ("a", "c") or p[1:].isdigit())
        later = [nl.gates[gid].pins["y"] for gid in order[i:]
                 if nl.nets[nl.gates[gid].pins["y"]] is None]
        if pins and later:
            g.pins[rng.choice(pins)] = rng.choice(later)
            return True
    return False


def _ordering_list(nl, rng):
    name = rng.choice(["latch_order", "state_latches", "state_groups"])
    lst = getattr(nl, name)
    if not lst:
        return False
    how = rng.choice(["shuffle", "truncate", "duplicate"])
    if how == "shuffle":
        rng.shuffle(lst)
    elif how == "truncate":
        del lst[rng.randrange(len(lst))]
    else:
        lst.append(rng.choice(lst))


def _port_lists(nl, rng):
    a, b = nl.inputs or nl.outputs, nl.outputs
    if not b:
        return False
    i, j = rng.randrange(len(a)), rng.randrange(len(b))
    a[i], b[j] = b[j], a[i]


def _move_clock(nl, rng):
    nl.clock = rng.choice([None, "nowhere", *sorted(nl.nets)])


MUTATIONS = [_drop_pin, _add_pin, _retarget_pin, _unknown_net, _shared_input,
             _fan_in, _net_radix, _second_driver, _tlg_threshold,
             _const_value, _cycle, _ordering_list, _port_lists, _move_clock]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mutated_netlists_fail_alike(family):
    rng = random.Random(sum(map(ord, family)))
    seen = {}
    for nl in FAMILIES[family]():
        for _ in range(3 * len(MUTATIONS)):
            mutated = _copy(nl)
            mutation = rng.choice(MUTATIONS)
            if mutation(mutated, rng) is False:
                continue
            want = _outcome(ref.validate, mutated)
            for g in mutated.gates.values():
                assert _ports(gate_ports, g) == _ports(ref.gate_ports, g)
            fresh = _copy(mutated)
            got = _outcome(validate, fresh)
            assert got == want, mutation.__name__
            assert got[0] in ("ok", "NetlistError"), (mutation.__name__, got)
            if got[0] == "ok":
                assert fresh.eval_order() == ref._levelize(mutated)
                assert _driver_map(fresh) == ref._driver_map(mutated)
            seen.setdefault(mutation.__name__, set()).add(got[0])
    # every mutation ran, and most both passed and failed somewhere
    assert set(seen) == {m.__name__ for m in MUTATIONS} - (
        {"_ordering_list"} if family == "tables" else set())
    assert sum(len(kinds) == 2 for kinds in seen.values()) >= 4
