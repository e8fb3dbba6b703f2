"""Radix-N value system: logic levels, digit/index conversion, inversion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

MAX_RADIX = 256  # the most levels a signal may take; simulation cost grows with it


def radix_problem(r: object) -> str:
    """Why r is no radix, or "" for an int from 2 to MAX_RADIX: the one
    radix rule, which Radix, validate and the file loaders all apply."""
    if type(r) is not int:  # a bool or another int subclass is no radix
        return f"radix {r!r} is not an integer"
    if r < 2:
        return f"radix {r} is below 2"
    if r > MAX_RADIX:
        return f"radix {r} is above {MAX_RADIX}"
    return ""


@dataclass(frozen=True)
class Radix:
    """Number of logic levels a signal may take. n = 2 is ordinary binary."""

    n: int

    def __post_init__(self):
        if why := radix_problem(self.n):
            raise ValueError(why)


RadixLike = Union[Radix, int]


def as_radix(r: RadixLike) -> Radix:
    return r if isinstance(r, Radix) else Radix(r)


@dataclass(frozen=True)
class MvValue:
    """One radix-N logic level."""

    value: int
    radix: Radix

    def __post_init__(self):
        if not 0 <= self.value <= self.radix.n - 1:
            raise ValueError(
                f"value {self.value} out of range for radix {self.radix.n}"
            )


def nary_invert(v: MvValue) -> MvValue:
    """Level reflection: maps d to N-1-d within the same radix."""
    return MvValue(v.radix.n - 1 - v.value, v.radix)


def tt_index(digits: Sequence[int], radix: RadixLike) -> int:
    """Positional index of a digit tuple, most-significant digit first.

    digits = (x_{M-1}, ..., x_0) maps to sum of N^j * x_j, the row number
    used throughout for truth tables and decoder outputs.
    """
    n = as_radix(radix).n
    if not digits:
        raise ValueError("digit tuple must be nonempty")
    k = 0
    for d in digits:
        if type(d) is not int or not 0 <= d < n:  # a bool is no digit
            raise ValueError(f"digit {d!r} out of range for radix {n}")
        k = k * n + d
    return k


def tt_digits(k: int, radix: RadixLike, arity: int) -> tuple[int, ...]:
    """Inverse of tt_index: decompose k into an arity-long MS-first tuple."""
    n = as_radix(radix).n
    if type(arity) is not int:  # a bool is no arity
        raise ValueError(f"arity {arity!r} is not an integer")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if type(k) is not int:  # a bool is no index
        raise ValueError(f"index {k!r} is not an integer")
    if not 0 <= k < n**arity:
        raise ValueError(f"index {k} out of range for {arity} radix-{n} digits")
    out = []
    for _ in range(arity):
        out.append(k % n)
        k //= n
    return tuple(reversed(out))


def mv_tuple(digits: Sequence[int], radix: RadixLike) -> tuple[MvValue, ...]:
    """Wrap plain digits as MvValues, validating the range."""
    r = as_radix(radix)
    return tuple(MvValue(d, r) for d in digits)
