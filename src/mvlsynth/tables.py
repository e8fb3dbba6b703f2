"""Function and machine specifications: truth tables, FSM tables, bitstreams."""

from __future__ import annotations

from dataclasses import dataclass
from operator import countOf
from typing import Callable, Optional, Sequence

from .values import Radix, RadixLike, as_radix, tt_digits, tt_index


def _check_arity(arity) -> None:
    """Refuse a table arity that is not an int >= 1 (a bool is no arity)."""
    if type(arity) is not int or arity < 1:
        raise ValueError(f"arity must be an integer >= 1, got {arity!r}")


@dataclass(frozen=True)
class TruthTable:
    """Dense radix-N function of M digits.

    entries[k] is the output level for the input tuple whose tt_index is k;
    length is exactly N^M.
    """

    radix: Radix
    arity: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.radix, Radix):
            raise ValueError(f"radix must be a Radix, got {self.radix!r}")
        n = self.radix.n
        _check_arity(self.arity)
        rows = len(self.entries)
        # n**arity > rows once 2**arity > rows: a huge arity is refused
        # without computing its power
        if self.arity > rows.bit_length() or rows != n**self.arity:
            raise ValueError(
                f"expected {n}**{self.arity} entries for radix {n} arity "
                f"{self.arity}, got {rows}"
            )
        for e in self.entries:
            if type(e) is not int or not 0 <= e < n:  # a bool is no level
                raise ValueError(f"entry {e!r} out of range for radix {n}")

    @staticmethod
    def make(radix: RadixLike, arity: int, entries: Sequence[int]) -> "TruthTable":
        return TruthTable(as_radix(radix), arity, tuple(entries))

    @staticmethod
    def from_function(radix: RadixLike, arity: int,
                      fn: Callable[..., int]) -> "TruthTable":
        """Tabulate fn over every MS-first digit tuple."""
        r = as_radix(radix)
        _check_arity(arity)
        rows = r.n**arity
        entries = tuple(fn(*tt_digits(k, r, arity)) for k in range(rows))
        return TruthTable(r, arity, entries)

    def lookup(self, digits: Sequence[int]) -> int:
        return self.entries[self._row(digits)]

    def _row(self, digits: Sequence[int]) -> int:
        """The row of a digit tuple; refuses a wrong count or a digit that
        is not an int in range."""
        if len(digits) != self.arity:
            raise ValueError(f"expected {self.arity} digits, got {len(digits)}")
        return tt_index(digits, self.radix)


@dataclass(frozen=True)
class FsmSpec:
    """State machine over radix-N digits.

    Each transition table gives one next-state digit as a function of the
    present state digits followed by the input digits (MS-first); output
    tables, when present, are functions of the same tuple.
    """

    radix: Radix
    state_arity: int
    input_arity: int
    transition: tuple[TruthTable, ...]
    output: Optional[tuple[TruthTable, ...]] = None

    def __post_init__(self):
        if not isinstance(self.radix, Radix):
            raise ValueError(f"radix must be a Radix, got {self.radix!r}")
        for name in ("state_arity", "input_arity"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is no arity
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.state_arity < 1:
            raise ValueError("state_arity must be >= 1")
        if self.input_arity < 0:
            raise ValueError("input_arity must be >= 0")
        if len(self.transition) != self.state_arity:
            raise ValueError("need one transition table per state digit")
        want = self.state_arity + self.input_arity
        for tt in self.transition + (self.output or ()):
            if tt.radix != self.radix:
                raise ValueError("table radix differs from machine radix")
            if tt.arity != want:
                raise ValueError(
                    f"table arity {tt.arity} != state+input arity {want}"
                )

    def step(self, state: Sequence[int], inputs: Sequence[int]) -> tuple[int, ...]:
        """Next state digits for one software-iterated step.

        The row of (state, inputs) is worked out once, with
        TruthTable.lookup's refusals, and each transition table's entry is
        read at that row; observe reads its output tables the same way.
        """
        return self._at_row(self.transition, state, inputs)

    def observe(self, state: Sequence[int], inputs: Sequence[int]) -> tuple[int, ...]:
        """Visible outputs: output tables if declared, else the state digits."""
        if self.output is None:
            return tuple(state)
        return self._at_row(self.output, state, inputs)

    def _at_row(self, tables: tuple[TruthTable, ...], state: Sequence[int],
                inputs: Sequence[int]) -> tuple[int, ...]:
        digits = tuple(state) + tuple(inputs)
        if not tables:  # output=(): no table to read
            return ()
        row = tables[0]._row(digits)  # every table has this radix and arity
        return tuple([tt.entries[row] for tt in tables])


@dataclass(frozen=True)
class ConfigBitstream:
    """Binary values for a fabric's configuration latches, in latch_order.

    The bits are kept as a tuple, so the values checked here cannot change
    afterwards: the simulator loads them with no per-bit check. The check
    also packs them into one int whose byte k is bit k, which the
    simulator XORs with the last stream's to find the bits that changed.
    It is no field: a stream pickles and copies as its fields alone, and
    is packed again when loaded.
    """

    bits: tuple[int, ...]
    fingerprint: Optional[str] = None

    def __init__(self, bits: tuple[int, ...], fingerprint: Optional[str] = None):
        if type(bits) is not tuple:
            try:
                bits = tuple(bits)
            except TypeError:  # not iterable
                raise ValueError(
                    f"bitstream bits must be a sequence, got {bits!r}") from None
        # every bit checked in C: each is an int (a bool is no bit), 0 or 1
        packed = None
        if countOf(map(type, bits), int) == len(bits):
            try:
                packed = bytes(bits)
            except ValueError:  # a value outside 0..255
                pass
        if packed is None or packed.translate(None, b"\0\1"):
            bad = next(b for b in bits if type(b) is not int or not 0 <= b <= 1)
            raise ValueError(f"bitstream values must be 0 or 1, got {bad!r}")
        d = self.__dict__  # one dict fill, as Fault's
        d["bits"], d["fingerprint"] = bits, fingerprint
        d["_key"] = int.from_bytes(packed, "little")

    def __getstate__(self) -> dict:
        return {"bits": self.bits, "fingerprint": self.fingerprint}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def flipped(self, index: int) -> "ConfigBitstream":
        """Copy with one bit inverted (mutation testing helper)."""
        if type(index) is not int or not 0 <= index < len(self.bits):
            raise ValueError(
                f"bit index {index!r} is not in 0..{len(self.bits) - 1}")
        bits = list(self.bits)
        bits[index] ^= 1
        return ConfigBitstream(tuple(bits), self.fingerprint)
