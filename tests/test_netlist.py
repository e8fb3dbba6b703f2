"""Netlist IR construction and structural validation."""

import pytest

import reference_netlist
from mvlsynth.netlist import (Gate, GateType, Netlist, NetlistBuilder,
                              NetlistError, gate_ports, validate)
from mvlsynth.fileio import export_dot
from mvlsynth.synth import (build_decoder_1, build_fabric_decoder, build_nary_dff,
                            build_nary_dlatch, mux_block_count)


def _passthrough():
    b = NetlistBuilder()
    n = b.add_input("a", 3)
    b.add_output("y", n)
    return b


def test_an_output_on_an_unknown_net_is_named_by_finish():
    # the builder once read the net's radix with [] and raised KeyError
    b = _passthrough()
    b.add_output("z", "nope")
    with pytest.raises(NetlistError, match=r"^z\.a: unknown net 'nope'$"):
        b.finish()


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
    nl = b.finish()
    nl.state_groups.insert(0, ())  # an empty group takes a reset digit
    with pytest.raises(NetlistError, match="partition"):
        validate(nl)


def test_a_storage_list_entry_that_is_no_string_is_refused():
    # sorting a list of str and int entries once raised TypeError
    fabric = build_fabric_decoder(2, 1)
    fabric.latch_order[-1] = 7
    with pytest.raises(NetlistError, match="^config_latch ordering list"):
        validate(fabric)
    dff = build_nary_dff(2)
    dff.state_latches[-1] = 7
    with pytest.raises(NetlistError, match="^nary_dlatch ordering list"):
        validate(dff)
    dff = build_nary_dff(2)
    dff.state_groups = [(dff.state_latches[0], 7)]
    with pytest.raises(NetlistError, match="partition"):
        validate(dff)
    dff.state_groups = [tuple(dff.state_latches), [["unhashable"]]]
    with pytest.raises(NetlistError, match="partition"):
        validate(dff)


def test_port_lists_checked():
    b = _passthrough()
    b.inputs.append("y")  # an output gate id in the input list
    with pytest.raises(NetlistError, match="not an input port"):
        b.finish()


@pytest.mark.parametrize("ports", ["inputs", "outputs"])
def test_port_list_entries_naming_no_gate_rejected(ports):
    b = _passthrough()
    getattr(b, ports).append("ghost")
    with pytest.raises(NetlistError,
                       match=f"{ports[:-1]} list entry ghost is not an "
                             f"{ports[:-1]} port"):
        b.finish()


@pytest.mark.parametrize("ports", ["inputs", "outputs"])
def test_port_list_repeating_an_entry_rejected(ports):
    b = _passthrough()
    getattr(b, ports).append(getattr(b, ports)[0])
    with pytest.raises(NetlistError, match=f"{ports[:-1]} list repeats an entry"):
        b.finish()


@pytest.mark.parametrize("port", ["a", "y"])
@pytest.mark.parametrize("radix", [-1, 0, 1])
def test_gate_radix_below_two_rejected(port, radix):
    # -1 is also the any-radix port marker, which let such a port load
    nl = _passthrough().finish()
    nl.gates[port].radix = radix
    with pytest.raises(NetlistError) as info:
        validate(nl)
    assert str(info.value) == f"gate {port}: radix {radix} is below 2"


def _tlg(threshold):
    b = NetlistBuilder()
    b.add_output("y", b.tlg("t", b.add_input("x", 3), threshold))
    return b


def _and(fan_in):
    b = NetlistBuilder()
    y = b.net(None)
    b.add_gate("g", GateType.AND, {"a0": b.add_input("x", None), "y": y},
               param=fan_in)
    b.add_output("y", y)
    return b


def _const(value):
    b = NetlistBuilder()
    b.add_output("y", b.const(value, None))
    return b


def _input(radix):
    b = NetlistBuilder()
    b.add_output("y", b.add_input("x", radix))
    return b


def _port_radix(radix):
    b = _passthrough()
    b.gates["y"].radix = radix
    return b


@pytest.mark.parametrize("build, value, message", [
    (_tlg, 1.0, "t: threshold 1.0 is not an integer"),
    (_tlg, True, "t: threshold True is not an integer"),
    (_and, True, "g: fan-in True is not an integer"),
    (_const, True, "const_b_True: constant True is not an integer"),
    (_input, 3.0, "net x: radix 3.0 is not an integer"),
    (_port_radix, 3.0, "gate y: radix 3.0 is not an integer"),
    (_port_radix, True, "gate y: radix True is not an integer"),
], ids=["tlg-float", "tlg-bool", "and-bool", "const-bool", "net-float",
        "gate-float", "gate-bool"])
def test_a_param_or_radix_that_is_no_integer_is_refused(build, value, message):
    # each of these once validated, then made the simulator raise
    # TypeError or read the bool as 1
    with pytest.raises(NetlistError) as info:
        build(value).finish()
    assert str(info.value) == message


def test_fan_in_above_the_pin_count_rejected():
    b = _passthrough()
    one = b.const(1, None)
    b.and_("g", [one, one])
    nl = b.finish()
    nl.gates["g"].param = 3    # one above the inputs: the missing pin is named
    with pytest.raises(NetlistError, match=r"g: .*missing \['a2'\], extra \[\]"):
        validate(nl)
    nl.gates["g"].param = 4
    with pytest.raises(NetlistError) as info:
        validate(nl)
    assert str(info.value) == "g: fan-in 4 exceeds its 3 pins"


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


@pytest.mark.parametrize("int_call, call, message", [
    ((1, None), (True, None), "const_b_True: constant True is not an integer"),
    ((1, None), (1.0, None), "const_b_1.0: constant 1.0 is not an integer"),
    ((1, 3), (1, 3.0), "net const_r3.0_1_w: radix 3.0 is not an integer"),
], ids=["bool", "float", "radix-float"])
@pytest.mark.parametrize("int_first", [True, False])
def test_const_refuses_a_non_int_whichever_call_came_first(int_call, call, message,
                                                           int_first):
    # True == 1 and 3.0 == 3, so the non-int call once found the int's
    # entry, and was accepted, if the int call came first
    b = NetlistBuilder()
    for value, radix in (int_call, call) if int_first else (call, int_call):
        b.add_output(f"y{len(b.outputs)}", b.const(value, radix))
    with pytest.raises(NetlistError) as info:
        b.finish()
    assert str(info.value) == message


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
    nl = Netlist(gates={"x": g, "y": out}, nets={"w": 3},
                 inputs=["x"], outputs=["y"], latch_order=[],
                 state_latches=[], state_groups=[])
    validate(nl)
    nl.nets["w"] = 4
    with pytest.raises(NetlistError):
        validate(nl)


def test_a_gate_stored_under_another_key_is_refused():
    nl = build_nary_dlatch(3)
    nl.gates["renamed"] = nl.gates.pop("lat")
    with pytest.raises(NetlistError, match=r"^gate lat is stored under key 'renamed'$"):
        validate(nl)
    nl.gates["renamed"].radix = 1   # the key is checked first
    with pytest.raises(NetlistError, match=r"^gate lat is stored under key 'renamed'$"):
        validate(nl)


def _rekey_gate(nl, gid, key, new_gid):
    nl.gates = {key if k == gid else k: g for k, g in nl.gates.items()}
    nl.gates[key].gid = new_gid


def _rekey_net(nl, nid, key):
    nl.nets = {key if k == nid else k: r for k, r in nl.nets.items()}
    for g in nl.gates.values():
        g.pins = {p: key if n == nid else n for p, n in g.pins.items()}


@pytest.mark.parametrize("edit, message", [
    (lambda nl: _rekey_gate(nl, "dec/not0", 7, 7), "gate id 7 is not a string"),
    # the key's type is checked before the key is matched with the id
    (lambda nl: _rekey_gate(nl, "dec/not0", 7, "dec/not0"),
     "gate id 7 is not a string"),
    (lambda nl: _rekey_net(nl, "w0", 5), "net id 5 is not a string"),
], ids=["gate", "gate-key", "net"])
def test_an_id_that_is_not_a_string_is_refused(edit, message):
    # the file format cannot carry such an id, so the netlist could be
    # saved but never read back
    nl = build_decoder_1(2)
    edit(nl)
    with pytest.raises(NetlistError, match=f"^{message}$"):
        validate(nl)
    with pytest.raises(NetlistError, match=f"^{message}$"):
        reference_netlist.validate(nl)


def _set_pin(gid, pin, net):
    def edit(nl):
        nl.gates[gid].pins[pin] = net
    return edit


def _set_field(name, value):
    return lambda nl: setattr(nl, name, value)


def _decoder():
    return build_decoder_1(2)


@pytest.mark.parametrize("build, edit, message", [
    (_decoder, lambda nl: nl.gates.update({"dec/not0": "g"}),
     "gate dec/not0 is not a Gate: 'g'"),
    (_decoder, lambda nl: setattr(nl.gates["dec/not0"], "pins", [("a", "w0")]),
     r"dec/not0: pins \[\('a', 'w0'\)\] is not a dict"),
    # an AND counts its pins before it reads them
    (lambda: build_decoder_1(3), lambda nl: setattr(nl.gates["dec/and1"], "pins", None),
     "dec/and1: pins None is not a dict"),
    (_decoder, _set_pin("dec/not0", "a", ["w0"]),
     r"dec/not0.a: unknown net \['w0'\]"),
    (_decoder, _set_field("inputs", [["x"]]),
     r"input list entry \['x'\] is not an input port"),
    (_decoder, _set_field("outputs", ["b0", ["b1"]]),
     r"output list entry \['b1'\] is not an output port"),
    (_decoder, _set_field("inputs", "x"), "input list 'x' is not a list"),
    (_decoder, _set_field("outputs", None), "output list None is not a list"),
    (_decoder, _set_field("clock", ["x"]), r"clock net \['x'\] does not exist"),
    (lambda: build_fabric_decoder(2, 1), _set_field("latch_order", None),
     "config_latch ordering list does not match gates"),
    (_decoder, _set_field("state_latches", None),
     "nary_dlatch ordering list does not match gates"),
    (lambda: build_nary_dff(2), _set_field("state_groups", [1]),
     "state_groups do not partition the state latches"),
    (_decoder, _set_field("state_groups", None),
     "state_groups do not partition the state latches"),
], ids=["gate", "pins", "and-pins", "pin-net", "inputs-entry", "outputs-entry",
        "inputs-str", "outputs-none", "clock", "latch-order", "state-latches",
        "group", "groups"])
def test_a_field_of_the_wrong_type_is_named(build, edit, message):
    # each of these once escaped validate as a TypeError or AttributeError,
    # and a port list that is a str passed
    nl = build()
    edit(nl)
    with pytest.raises(NetlistError, match=f"^{message}$"):
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
    lat = gate_ports(Gate("l", GateType.NARY_DLATCH, {}, radix=3))
    assert lat is gate_ports(Gate("k", GateType.NARY_DLATCH, {}, radix=3))
    assert [s.radix for s in lat] == [3, 3]
    with pytest.raises(AttributeError):
        lat[0].radix = 4  # shared, so frozen


def test_bad_signatures_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(NetlistError, match="fan-in must be >= 1"):
            gate_ports(Gate("a", GateType.OR, {}, param=0))
        with pytest.raises(NetlistError, match="unknown gate kind"):
            gate_ports(Gate("g", "bogus", {}))


def test_gate_ports_refuses_a_radix_that_validate_refuses():
    # with radix 2's signature cached, 2.0 and True must not find it
    gate_ports(Gate("g", GateType.INPUT, {}, radix=2))
    for radix, why in ((2.0, "radix 2.0 is not an integer"),
                       (True, "radix True is not an integer"),
                       ([3], "radix [3] is not an integer"),
                       (1, "radix 1 is below 2"), (-1, "radix -1 is below 2"),
                       (257, "radix 257 is above 256")):
        with pytest.raises(NetlistError) as err:
            gate_ports(Gate("g", GateType.INPUT, {}, radix=radix))
        assert str(err.value) == f"gate g: {why}"


@pytest.mark.parametrize("reader", [export_dot, mux_block_count])
def test_structure_readers_refuse_what_validate_refuses(reader):
    nl = Netlist(
        gates={"x": Gate("x", GateType.INPUT, {"y": "x"}, radix=3),
               "t": Gate("t", GateType.TLG, {"d": "x", "y": "nope"}, param=1),
               "y": Gate("y", GateType.OUTPUT, {"a": "x"})},
        nets={"x": 3}, inputs=["x"], outputs=["y"], latch_order=[],
        state_latches=[], state_groups=[])
    with pytest.raises(NetlistError, match="t.y: unknown net 'nope'"):
        reader(nl)
