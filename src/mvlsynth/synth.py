"""Circuit constructions: decoders, multiplexers, function synthesis,
reconfigurable fabrics, storage elements, and FSM compilation.

All builders are pure functions from parameters to fresh Netlists. Digit
tuples are most-significant-first everywhere; truth table row k corresponds
to the input tuple with positional index k. Multi-level "sums" are realized
as switch wiring onto a shared net, never as arithmetic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .netlist import GateType, Netlist, NetlistBuilder, _driver_map, _keep
from .sim import _radixes
from .tables import ConfigBitstream, FsmSpec, TruthTable
from .values import RadixLike, as_radix


class Strategy(enum.Enum):
    """How a truth table becomes gates."""

    DECODER = "decoder"      # one-hot decode, OR groups, switched constants
    MUX_TREE = "mux"         # selector tree fed by constants
    MUX_FLAT = "mux-flat"    # single decoder driving one switch per row


# -- primitive blocks (emitted into a shared builder) -------------------------


class _Ids(dict):
    """Block gate ids: _ids[prefix, stem, count, end] is the tuple of ids
    f"{prefix}{stem}{k}{end}" for k < count. A block's gate ids are a pure
    function of (prefix, radix, digits), so they are formatted at their
    first read and read back after that, from a table bounded by the ids
    it holds, as the port tables are."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> tuple[str, ...]:
        prefix, stem, count, end = key
        ids = tuple(f"{prefix}{stem}{k}{end}" for k in range(count))
        return _keep(self, key, ids, count)


_ids = _Ids()


def _emit_decoder_1(b: NetlistBuilder, prefix: str, x: str, n: int) -> list[str]:
    """One-hot decode of a single radix-n net: returns nets for b_0..b_{n-1}.

    y_t = (x > t) for thresholds n-2 down to 0; the boundary lines collapse
    to a plain inverter (b_0) and a direct wire (b_{n-1}).
    """
    tlgs = _ids[prefix, "tlg", n - 1, ""]
    nots = _ids[prefix, "not", n - 1, ""]
    ands = _ids[prefix, "and", n - 1, ""]
    y = [b.tlg(tlgs[t], x, t) for t in range(n - 2, -1, -1)][::-1]  # y[t]
    outs = [b.not_(nots[0], y[0])]
    for v in range(1, n - 1):
        ybar = b.not_(nots[v], y[v])
        outs.append(b.and_(ands[v], [ybar, y[v - 1]]))
    outs.append(y[n - 2])
    return outs


def _emit_decoder_m(b: NetlistBuilder, prefix: str, xs: Sequence[str],
                    n: int) -> list[str]:
    """One-hot decode of m digits (nets given MS-first) into n^m lines.

    Line k is the AND of the per-digit lines selected by k's digits; a
    single digit degenerates to the plain one-digit decoder.
    """
    m = len(xs)
    if m == 1:
        return _emit_decoder_1(b, prefix, xs[0], n)
    per = [_emit_decoder_1(b, p, xs[m - 1 - j], n)
           for j, p in enumerate(_ids[prefix, "d", m, "/"])]  # j = positional weight
    per.reverse()  # MS-first, as each row's digits
    rows = itertools.product(range(n), repeat=m)  # line k's digits are row k's
    return [b.and_(gid, [p[d] for p, d in zip(per, digits)])
            for gid, digits in zip(_ids[prefix, "and", n**m, ""], rows)]


def _emit_mux_m(b: NetlistBuilder, prefix: str, data: Sequence[str],
                sels: Sequence[str], n: int, tree: bool) -> str:
    """n^m-way selector over data nets indexed 0..n^m-1 (selects MS-first).

    Tree mode: stage j collapses groups of n using select digit j (the
    least significant digit switches first). Flat mode: one m-digit decoder
    and a single rail of switches.
    """
    m = len(sels)
    if tree:
        layer = list(data)
        for j in range(m):
            s = sels[m - 1 - j]  # stage j consumes digit of weight j
            groups = _ids[prefix, f"s{j}m", len(layer) // n, "/"]
            layer = [_emit_mux_m(b, group, layer[q * n:(q + 1) * n], [s], n, tree=False)
                     for q, group in enumerate(groups)]
        return layer[0]
    ctl = _emit_decoder_m(b, f"{prefix}dec/", sels, n)
    y = b.net(n)
    for k, gid in enumerate(_ids[prefix, "sw", n**m, ""]):
        b.switch(gid, data[k], ctl[k], y)
    return y


def _emit_table(b: NetlistBuilder, prefix: str, ins: Sequence[str],
                tt: TruthTable, strategy: Strategy,
                shared_decode: Optional[list[str]] = None) -> str:
    """Realize one truth table over existing input nets; returns the output net.

    Decoder strategy groups one-hot lines per output level and switches the
    level constant onto the output; only levels that actually occur get a
    control. Mux strategies feed the table entries as constants into a
    selector driven by the inputs.
    """
    if not isinstance(strategy, Strategy):
        raise ValueError(f"strategy must be a Strategy, got {strategy!r}")
    n = tt.radix.n
    if strategy is not Strategy.DECODER:
        data = [b.const(v, n) for v in tt.entries]
        return _emit_mux_m(b, prefix, data, ins, n, strategy is Strategy.MUX_TREE)
    lines = shared_decode
    if lines is None:
        lines = _emit_decoder_m(b, f"{prefix}dec/", ins, n)
    y = b.net(n)
    groups: list[list[str]] = [[] for _ in range(n)]  # each level's rows' lines
    for line, e in zip(lines, tt.entries):
        groups[e].append(line)
    ors, switches = _ids[prefix, "or", n, ""], _ids[prefix, "sw", n, ""]
    for level, rows in enumerate(groups):
        if not rows:
            continue
        ctl = b.or_(ors[level], rows)
        b.switch(switches[level], b.const(level, n), ctl, y)
    return y


def _check_digits(m: int) -> None:
    if type(m) is not int:  # a bool is no digit count
        raise ValueError(f"m {m!r} is not an integer")
    if m < 1:
        raise ValueError("m must be >= 1")


def _function_inputs(b: NetlistBuilder, n: int, m: int,
                     port: str = "x") -> list[str]:
    """m radix-n inputs MS-first: port for one digit, else port{m-1}..port0."""
    _check_digits(m)
    if m == 1:
        return [b.add_input(port, n)]
    return [b.add_input(f"{port}{j}", n) for j in range(m - 1, -1, -1)]


# -- public builders ----------------------------------------------------------


def build_decoder_1(radix: RadixLike) -> Netlist:
    """One radix-N input x to N one-hot binary outputs b_0..b_{N-1}."""
    return build_decoder_m(radix, 1)


def build_decoder_m(radix: RadixLike, m: int) -> Netlist:
    """m radix-N inputs (MS-first) to N^m one-hot outputs b_0..b_{N^m-1}."""
    n = as_radix(radix).n
    b = NetlistBuilder()
    xs = _function_inputs(b, n, m)
    for k, net in enumerate(_emit_decoder_m(b, "dec/", xs, n)):
        b.add_output(f"b{k}", net)
    return b.finish()


def build_mux_1(radix: RadixLike) -> Netlist:
    """N-to-one selector: output y equals data input i_s for select s."""
    return build_mux_m(radix, 1, tree=False)


def build_mux_m(radix: RadixLike, m: int, tree: bool = True) -> Netlist:
    """N^m-to-one selector with m select digits; y = i_k at k = index(selects).
    Selects are named like synth_tables' inputs: s, or s{m-1}..s0 for m > 1."""
    n = as_radix(radix).n
    _check_digits(m)  # before n**m
    b = NetlistBuilder()
    data = [b.add_input(f"i{k}", n) for k in range(n**m - 1, -1, -1)]
    data.reverse()  # i_0 .. i_{n^m-1}, ports declared MS-first
    sels = _function_inputs(b, n, m, "s")
    b.add_output("y", _emit_mux_m(b, "", data, sels, n, tree))
    return b.finish()


def synth_tables(tts: Sequence[TruthTable], strategy: Strategy) -> Netlist:
    """Multi-output synthesis over a common input tuple.

    All tables must agree on radix and arity. With the decoder strategy the
    one-hot stage is built once and shared across outputs. Output ports are
    y0..y{T-1}, or just y for one table.
    """
    if not tts:
        raise ValueError("need at least one table")
    first = tts[0]
    for tt in tts:
        if tt.radix != first.radix or tt.arity != first.arity:
            raise ValueError("tables differ in radix or arity")
    n = first.radix.n
    b = NetlistBuilder()
    ins = _function_inputs(b, n, first.arity)
    shared = None
    if strategy is Strategy.DECODER and len(tts) > 1:
        shared = _emit_decoder_m(b, "dec/", ins, n)
    for t, tt in enumerate(tts):
        prefix = "" if len(tts) == 1 else f"f{t}/"
        y = _emit_table(b, prefix, ins, tt, strategy, shared)
        b.add_output("y" if len(tts) == 1 else f"y{t}", y)
    return b.finish()


# synth_decoder_based and synth_mux_based are one-line wrappers over
# synth_tables, kept while perfbench/spans.py wraps them by name.
def synth_decoder_based(tt: TruthTable) -> Netlist:
    """Realize one table as decode, per-level OR groups, switched constants."""
    return synth_tables([tt], Strategy.DECODER)


def synth_mux_based(tt: TruthTable, tree: bool = True) -> Netlist:
    """Realize one table as a selector with the table entries as constants."""
    return synth_tables([tt], Strategy.MUX_TREE if tree else Strategy.MUX_FLAT)


def build_fabric_decoder(radix: RadixLike, m: int) -> Netlist:
    """Reconfigurable decoder-style block for any radix-N function of m digits.

    Each output level k owns one configuration latch per one-hot line; the
    ORed AND terms form the level control c_k. N^(m+1) latches, ordered
    level-major then line-minor.
    """
    n = as_radix(radix).n
    b = NetlistBuilder()
    ins = _function_inputs(b, n, m)
    lines = _emit_decoder_m(b, "dec/", ins, n)
    y = b.net(n)
    for k in range(n):
        terms = []
        for i, line in enumerate(lines):
            q = b.config_latch(f"lvl{k}/d{i}")
            terms.append(b.and_(f"lvl{k}/and{i}", [line, q]))
        ctl = b.or_(f"lvl{k}/or", terms)
        b.switch(f"lvl{k}/sw", b.const(k, n), ctl, y)
    b.add_output("y", y)
    b.fabric_kind = "decoder"
    return b.finish()


def build_fabric_mux(radix: RadixLike, m: int, tree: bool = True) -> Netlist:
    """Reconfigurable selector-style block: every selector data input is fed
    by a latch-controlled bank of level constants. N^(m+1) latches, ordered
    input-major then level-minor.
    """
    n = as_radix(radix).n
    b = NetlistBuilder()
    ins = _function_inputs(b, n, m)
    data = []
    for k in range(n**m):
        net = b.net(n)
        for v in range(n):
            q = b.config_latch(f"selb{k}/d{v}")
            b.switch(f"selb{k}/sw{v}", b.const(v, n), q, net)
        data.append(net)
    b.add_output("y", _emit_mux_m(b, "", data, ins, n, tree))
    b.fabric_kind = "mux"
    return b.finish()


def derive_config(tt: TruthTable, fabric: Netlist) -> ConfigBitstream:
    """Bits programming a fabric to compute tt, aligned to its latch_order.

    Decoder fabric: level k's latch for line i is 1 iff tt maps row i to k.
    Mux fabric: input k's latch for level v is 1 iff tt's row k equals v.
    The fabric's latch count and inputs must match the table; its input
    radixes are read off its compiled program, so a fabric that validate
    refuses raises its NetlistError there.
    """
    n = tt.radix.n
    rows = n**tt.arity
    kind = fabric.fabric_kind
    if kind is None:
        raise ValueError("netlist is not a reconfigurable fabric")
    if len(fabric.latch_order) != n * rows:
        raise ValueError(
            f"table needs {n * rows} latches; fabric has {len(fabric.latch_order)}")
    if _radixes(fabric)[0] != (n,) * tt.arity:
        raise ValueError("table radix/arity do not match fabric inputs")
    if kind == "decoder":
        bits = [1 if tt.entries[i] == k else 0
                for k in range(n) for i in range(rows)]
    elif kind == "mux":
        bits = [1 if tt.entries[k] == v else 0
                for k in range(rows) for v in range(n)]
    else:
        raise ValueError(f"unknown fabric kind {kind!r}")
    return ConfigBitstream(tuple(bits))


# -- storage elements ---------------------------------------------------------


def _emit_dlatch(b: NetlistBuilder, prefix: str, d: str, load: str,
                 hold: str, n: int, out: Optional[str] = None,
                 ) -> tuple[str, tuple[str]]:
    """Level-sensitive store: transparent while `load`=1, holding while
    `hold`=1 (callers pass complementary controls). Returns (output net,
    (storage gate id,))."""
    m = out if out is not None else b.net(n)
    q = b.nary_dlatch(f"{prefix}lat", m, n)
    b.switch(f"{prefix}sw_d", d, load, m)
    b.switch(f"{prefix}sw_h", q, hold, m)
    return m, (f"{prefix}lat",)


def _emit_dff(b: NetlistBuilder, prefix: str, d: str, en: str, enb: str,
              n: int, out: Optional[str] = None) -> tuple[str, tuple[str, str]]:
    """Master-slave store capturing d when the gate leaves 0.

    Master is transparent while the gate is 0, slave while it is nonzero;
    en/enb are the shared binary gate and its complement. The slave reads
    the master's stored value (identical to its transparent node whenever
    the slave conducts), which keeps feedback paths through the committed
    element rather than through a combinational switch chain.
    """
    _, (mlat,) = _emit_dlatch(b, f"{prefix}m/", d, enb, en, n)
    qm = b.gates[mlat].pins["q"]
    m2, (slat,) = _emit_dlatch(b, f"{prefix}s/", qm, en, enb, n, out)
    return m2, (mlat, slat)


def _build_storage(radix: RadixLike, emit) -> Netlist:
    """Data d and gate g around one storage element emitted by emit (as
    _emit_dlatch or _emit_dff), with output q and one state group."""
    n = as_radix(radix).n
    b = NetlistBuilder()
    d = b.add_input("d", n)
    g = b.add_input("g", n)
    en = b.tlg("en_tlg", g, 0)         # binary enable: g > 0
    enb = b.not_("en_not", en)
    q, lats = emit(b, "", d, en, enb, n)
    b.add_state_group(lats)
    b.add_output("q", q)
    return b.finish()


def build_nary_dlatch(radix: RadixLike) -> Netlist:
    """Radix-N D-latch: q follows d while gate g is nonzero, else holds."""
    return _build_storage(radix, _emit_dlatch)


def build_nary_dff(radix: RadixLike) -> Netlist:
    """Radix-N flip-flop: output updates to d only when g rises from 0."""
    return _build_storage(radix, _emit_dff)


# -- state machines -----------------------------------------------------------


def compile_fsm(spec: FsmSpec, strategy: Strategy) -> Netlist:
    """Synthesize an FsmSpec into flip-flops plus next-state logic.

    One flip-flop per state digit (MS-first), clocked by a dedicated net
    that the sequential stepper drives; the next-state and output functions
    see the state digits followed by the machine inputs. With the decoder
    strategy all tables share a single one-hot stage. Outputs are the
    declared output tables, or the state digits themselves.
    """
    n = spec.radix.n
    b = NetlistBuilder()

    state_nets = []
    for i in range(spec.state_arity):
        state_nets.append(b.net(n, nid=f"q{i}"))
    input_nets = [b.add_input(f"i{j}", n)
                  for j in range(spec.input_arity - 1, -1, -1)]
    clk = b.net(n, nid="clk")
    b.add_gate("clk", GateType.INPUT, {"y": clk}, radix=n)
    b.clock = clk
    en = b.tlg("clk_tlg", clk, 0)
    enb = b.not_("clk_not", en)

    combined = state_nets + input_nets
    shared = None
    if strategy is Strategy.DECODER:
        shared = _emit_decoder_m(b, "dec/", combined, n)

    for i, tt in enumerate(spec.transition):
        d = _emit_table(b, f"f{i}/", combined, tt, strategy, shared)
        _, lats = _emit_dff(b, f"dff{i}/", d, en, enb, n, out=state_nets[i])
        b.add_state_group(lats)

    if spec.output is None:
        for i in range(spec.state_arity):
            b.add_output(f"q{i}", state_nets[i])
    else:
        for t, tt in enumerate(spec.output):
            y = _emit_table(b, f"o{t}/", combined, tt, strategy, shared)
            b.add_output(f"y{t}", y)
    return b.finish()


# -- accounting ---------------------------------------------------------------


@dataclass(frozen=True)
class GateStats:
    """Per-kind gate counts for one netlist."""

    tlg_count: int = 0
    and_count: int = 0
    or_count: int = 0
    not_count: int = 0
    switch_count: int = 0
    latch_count: int = 0        # configuration bits
    dlatch_count: int = 0       # radix-N storage
    const_count: int = 0
    input_count: int = 0
    output_count: int = 0

    def lines(self) -> list[str]:
        """One "kind count" line per gate kind, named by its file-format name."""
        return [f"{kind.value:<14} {getattr(self, name)}"
                for kind, name in _STAT_FIELDS.items()]


_STAT_FIELDS = {
    GateType.TLG: "tlg_count",
    GateType.AND: "and_count",
    GateType.OR: "or_count",
    GateType.NOT: "not_count",
    GateType.SWITCH: "switch_count",
    GateType.CONFIG_LATCH: "latch_count",
    GateType.NARY_DLATCH: "dlatch_count",
    GateType.CONST: "const_count",
    GateType.INPUT: "input_count",
    GateType.OUTPUT: "output_count",
}


def gate_stats(nl: Netlist) -> GateStats:
    counts = {field: 0 for field in _STAT_FIELDS.values()}
    for g in nl.gates.values():
        counts[_STAT_FIELDS[g.kind]] += 1
    return GateStats(**counts)


def mux_block_count(nl: Netlist) -> int:
    """Number of N-way selector blocks: switch-driven nets of radix N with
    exactly N switch drivers. A selector tree over m digits has
    (N^m - 1)/(N - 1), a flat one none unless m = 1; a decoder realization
    using all N levels, and each constant bank of a mux fabric, add one."""
    # _driver_map validates, so a net with two or more drivers has only switches
    return sum(len(ds) == nl.nets[nid] for nid, ds in _driver_map(nl).items())
