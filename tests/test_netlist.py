"""Netlist IR construction and structural validation."""

import pytest

from mvlsynth.netlist import (Gate, GateType, Net, Netlist, NetlistBuilder,
                              NetlistError, gate_ports, validate)


def _passthrough():
    b = NetlistBuilder()
    n = b.add_input("a", 3)
    b.add_output("y", n)
    return b


def test_builder_minimal_netlist():
    nl = _passthrough().finish()
    assert nl.inputs == ["a"]
    assert nl.outputs == ["y"]
    assert nl.eval_order() == []


def test_duplicate_gate_and_net_ids_rejected():
    b = NetlistBuilder()
    b.net(3, nid="w")
    with pytest.raises(NetlistError):
        b.net(3, nid="w")
    b.add_gate("g", GateType.CONST, {"y": "w"}, param=1, radix=3)
    with pytest.raises(NetlistError):
        b.add_gate("g", GateType.CONST, {"y": "w"}, param=0, radix=3)


def test_dangling_port_rejected():
    b = _passthrough()
    b.add_gate("bad", GateType.NOT, {"a": "a"})  # no y pin
    with pytest.raises(NetlistError, match="missing"):
        b.finish()


def test_unknown_net_rejected():
    b = _passthrough()
    b.add_gate("bad", GateType.TLG, {"d": "a", "y": "nosuch"}, param=0)
    with pytest.raises(NetlistError, match="unknown net"):
        b.finish()


def test_multiply_driven_non_switch_net_rejected():
    b = NetlistBuilder()
    x = b.add_input("x", None)
    w = b.net(None)
    b.add_gate("n1", GateType.NOT, {"a": x, "y": w})
    b.add_gate("n2", GateType.NOT, {"a": x, "y": w})
    with pytest.raises(NetlistError, match="multiply driven"):
        b.finish()


def test_multiple_switch_drivers_allowed():
    b = NetlistBuilder()
    d = b.add_input("d", 3)
    c = b.add_input("c", None)
    cb = b.not_("inv", c)
    y = b.net(3)
    b.switch("s1", d, c, y)
    b.switch("s2", d, cb, y)
    b.add_output("y", y)
    b.finish()  # no error


def test_undriven_net_rejected():
    b = _passthrough()
    b.net(3, nid="orphan")
    with pytest.raises(NetlistError, match="no driver"):
        b.finish()


def test_binary_port_on_nary_net_rejected():
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    w = b.net(None)
    b.add_gate("bad", GateType.NOT, {"a": x, "y": w})
    b.add_output("y", w)
    with pytest.raises(NetlistError, match="binary port"):
        b.finish()


def test_nary_port_on_binary_net_rejected():
    b = NetlistBuilder()
    x = b.add_input("x", None)
    w = b.net(None)
    b.add_gate("bad", GateType.TLG, {"d": x, "y": w}, param=0)
    b.add_output("y", w)
    with pytest.raises(NetlistError, match="radix-N port"):
        b.finish()


def test_switch_radix_mismatch_rejected():
    b = NetlistBuilder()
    d = b.add_input("d", 3)
    c = b.add_input("c", None)
    y = b.net(4)
    b.switch("sw", d, c, y)
    b.add_output("y", y)
    with pytest.raises(NetlistError, match="radix"):
        b.finish()


def test_tlg_threshold_bounds():
    # -1 and n-1 are legal in the IR (always/never fire)
    for t in (-1, 0, 2):
        b = NetlistBuilder()
        x = b.add_input("x", 3)
        y = b.tlg("t", x, t)
        b.add_output("y", y)
        b.finish()
    for t in (-2, 3):
        b = NetlistBuilder()
        x = b.add_input("x", 3)
        y = b.tlg("t", x, t)
        b.add_output("y", y)
        with pytest.raises(NetlistError, match="threshold"):
            b.finish()


def test_const_range_checked():
    b = NetlistBuilder()
    w = b.net(3, nid="w")
    b.add_gate("c", GateType.CONST, {"y": "w"}, param=3, radix=3)
    b.add_output("y", w)
    with pytest.raises(NetlistError, match="constant"):
        b.finish()


def test_combinational_cycle_rejected():
    b = NetlistBuilder()
    w1 = b.net(None, nid="w1")
    w2 = b.net(None, nid="w2")
    b.add_gate("n1", GateType.NOT, {"a": "w1", "y": "w2"})
    b.add_gate("n2", GateType.NOT, {"a": "w2", "y": "w1"})
    with pytest.raises(NetlistError, match="cycle"):
        b.finish()


def test_latch_order_must_match_gates():
    b = NetlistBuilder()
    q = b.config_latch("cfg")
    b.add_output("y", q)
    b.latch_order.remove("cfg")
    with pytest.raises(NetlistError, match="ordering"):
        b.finish()


def test_state_groups_must_partition_latches():
    b = NetlistBuilder()
    d = b.add_input("d", 3)
    b.add_output("q", b.nary_dlatch("lat", d, 3))
    with pytest.raises(NetlistError, match="partition"):
        b.finish()
    b.add_state_group(["lat"])
    b.finish()


def test_port_lists_checked():
    b = _passthrough()
    b.inputs.append("y")  # an output gate id in the input list
    with pytest.raises(NetlistError, match="not an input port"):
        b.finish()


def test_and_or_single_input_collapses_to_wire():
    b = NetlistBuilder()
    x = b.add_input("x", None)
    assert b.and_("a", [x]) == x
    assert b.or_("o", [x]) == x
    assert "a" not in b.gates and "o" not in b.gates


def test_const_deduplication():
    b = NetlistBuilder()
    n1 = b.const(2, 3)
    n2 = b.const(2, 3)
    n3 = b.const(2, None)
    assert n1 == n2
    assert n1 != n3
    assert sum(1 for g in b.gates.values() if g.kind is GateType.CONST) == 2


def test_eval_order_is_topological():
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    y0 = b.tlg("t0", x, 0)
    inv = b.not_("n", y0)
    b.add_output("y", b.and_("a", [inv, y0]))
    nl = b.finish()
    order = nl.eval_order()
    assert order.index("t0") < order.index("n") < order.index("a")


def test_validate_standalone_on_raw_netlist():
    g = Gate("x", GateType.INPUT, {"y": "w"}, radix=3)
    out = Gate("y", GateType.OUTPUT, {"a": "w"}, radix=3)
    nl = Netlist(gates={"x": g, "y": out}, nets={"w": Net("w", 3)},
                 inputs=["x"], outputs=["y"], latch_order=[],
                 state_latches=[], state_groups=[])
    validate(nl)
    nl.nets["w"] = Net("w", 4)
    with pytest.raises(NetlistError):
        validate(nl)


def test_validate_rechecks_cycles_after_an_edit():
    b = NetlistBuilder()
    x = b.add_input("x", 3)
    y0 = b.tlg("t0", x, 0)
    inv = b.not_("n", y0)
    b.add_output("y", b.and_("a", [inv, y0]))
    nl = b.finish()
    nl.gates["n"].pins["a"] = nl.gates["a"].pins["y"]  # n -> a -> n
    with pytest.raises(NetlistError, match="combinational cycle"):
        validate(nl)


def test_port_signatures_are_shared():
    wide = Gate("a", GateType.AND, {}, param=3)
    assert gate_ports(wide) is gate_ports(Gate("b", GateType.AND, {}, param=3))
    assert gate_ports(wide) is not gate_ports(Gate("c", GateType.AND, {}, param=2))
    inv = gate_ports(Gate("i", GateType.NARY_INVERTER, {}, radix=3))
    assert inv is gate_ports(Gate("j", GateType.NARY_INVERTER, {}, radix=3))
    assert [s.radix for s in inv] == [3, 3]
    with pytest.raises(AttributeError):
        inv[0].radix = 4  # shared, so frozen


def test_bad_signatures_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(NetlistError, match="fan-in must be >= 1"):
            gate_ports(Gate("a", GateType.OR, {}, param=0))
        with pytest.raises(NetlistError, match="unknown gate kind"):
            gate_ports(Gate("g", "bogus", {}))
