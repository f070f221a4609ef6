"""Hash-function analysis and the adversary's strategy construction.

Truth tables use a fixed bit order: ``index(x) = sum x_i * 2^(n-i)``,
i.e. the first bit x_1 is most significant.  A prefix of length L is
then the top L bits, and the strings sharing it form one contiguous
index range.

The adversary machinery, for a hash f:

- ``ZeroCountTree`` counts, for every prefix, how many completions map
  to 0; influences are exact Fractions read off those counts.
- ``ZeroCountTree.influence(i, prefix_code)`` is the gap between the
  probabilities of f = 0 when bit i is 0 versus 1, conditioned on the
  prefix.
- ``pivotal_index(f, x)`` finds the first position where that gap
  reaches 2/(3n); for almost balanced f one always exists, and the
  direction sigma points at the more-zeros branch.
- ``build_pivotal_profile(f)`` records the pivotal prefixes only; a
  string's pivot is found by walking its own prefix down the tree.
- ``build_attack_partition(f, params)`` assembles the two half-weight
  parts that bias each string's pivotal pair towards (or away from) a
  zero of f, which is the whole attack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from ._coding import bits_to_int
from .boxes import BoxParams, bias_box, build_unbiased_box
from .systems import AttackedSystem, Partition

#: Truth-table machinery is O(2^n); refuse beyond this.
MAX_FUNCTION_BITS = 24


@dataclass(frozen=True)
class HashFunction:
    """A function {0,1}^n -> {0,1} as a truth table (x_1 most significant)."""

    n: int
    bits: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_FUNCTION_BITS:
            raise ValueError(f"n must be in 1..{MAX_FUNCTION_BITS}, got {self.n}")
        if len(self.bits) != 2**self.n:
            raise ValueError(
                f"truth table needs {2 ** self.n} bits, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("truth table entries must be bits")

    def value(self, x: Sequence[int]) -> int:
        return self.bits[bits_to_int(x)]

    @property
    def zeros_total(self) -> int:
        return self.tree.zeros(0, 0)

    @cached_property
    def tree(self) -> "ZeroCountTree":
        return ZeroCountTree.from_function(self)


class ZeroCountTree:
    """Per-prefix counts of suffixes mapping to 0.

    ``levels[L][p]`` is the number of length-(n-L) completions s with
    f(p.s) = 0, for the length-L prefix with code p.
    """

    def __init__(self, n: int, levels: list[list[int]]):
        self.n = n
        self.levels = levels

    @classmethod
    def from_function(cls, f: HashFunction) -> "ZeroCountTree":
        levels = [[1 - b for b in f.bits]]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            levels.append([prev[k] + prev[k + 1] for k in range(0, len(prev), 2)])
        levels.reverse()
        return cls(f.n, levels)

    def zeros(self, prefix_len: int, prefix_code: int) -> int:
        return self.levels[prefix_len][prefix_code]

    def influence(self, i: int, prefix_code: int) -> Fraction:
        """|Pr[f=0 | prefix.0] - Pr[f=0 | prefix.1]| for a length-(i-1)
        prefix, over uniform completions."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index must be in 1..{self.n}, got {i}")
        z0 = self.zeros(i, prefix_code << 1)
        z1 = self.zeros(i, (prefix_code << 1) | 1)
        return Fraction(abs(z0 - z1), 2 ** (self.n - i))

    def pivot_direction(self, prefix_len: int, prefix_code: int) -> int | None:
        """Direction of the more-zeros branch if the next bit's influence
        reaches 2/(3n), else None: 3n*|z0 - z1| >= 2^(n - prefix_len)."""
        below = self.levels[prefix_len + 1]
        z0 = below[prefix_code << 1]
        z1 = below[(prefix_code << 1) | 1]
        if 3 * self.n * abs(z0 - z1) >= 1 << (self.n - prefix_len):
            return 0 if z0 > z1 else 1
        return None


def is_almost_balanced(f: HashFunction) -> bool:
    """|Pr[f=0] - Pr[f=1]| <= 1/3, compared exactly."""
    size = 2**f.n
    return 3 * abs(2 * f.zeros_total - size) <= size


def pivotal_threshold(n: int) -> Fraction:
    return Fraction(2, 3 * n)


class PivotRecord(NamedTuple):
    """One pivotal prefix: all strings sharing it pivot at ``index``."""

    prefix_len: int
    prefix_code: int
    index: int  # 1-based, = prefix_len + 1
    sigma: int
    zeros0: int  # completions of prefix.0 mapping to 0
    zeros1: int


class PivotalProfile:
    """The pivotal prefixes of an almost balanced function.

    ``records`` holds one ``PivotRecord`` per prefix after which the next
    bit is pivotal, in ascending order of the strings they cover: their
    string ranges are disjoint, contiguous and cover [0, 2^n).  They are
    the profile's only data.  The pivotal data of a string depends on
    the prefix before the pivot only (the prefix property), so ``pivot``
    finds it by walking the string's prefix from the root.
    """

    def __init__(self, function: HashFunction, records: tuple[PivotRecord, ...]):
        self.function = function
        self.n = function.n
        self.records = records

    def pivot(self, x_code: int) -> tuple[int, int]:
        """(pivotal index, bias direction) for the string with this code."""
        tree = self.function.tree
        n = self.n
        for length in range(n):
            sigma = tree.pivot_direction(length, x_code >> (n - length))
            if sigma is not None:
                return length + 1, sigma
        raise AssertionError("no pivotal index on a path of an almost balanced function")

    def histogram(self) -> dict[int, int]:
        """Count of input strings per pivotal index."""
        out: dict[int, int] = {}
        for rec in self.records:
            size = 2 ** (self.n - rec.prefix_len)
            out[rec.index] = out.get(rec.index, 0) + size
        return out


def build_pivotal_profile(f: HashFunction) -> PivotalProfile:
    """Locate the pivotal prefix above every string of an almost balanced f,
    depth first with the 0 branch first: records ascend by string."""
    if not is_almost_balanced(f):
        raise ValueError(
            f"{f.name or 'function'} is not almost balanced; "
            "the pivotal index is not guaranteed to exist"
        )
    n = f.n
    tree = f.tree
    records = []
    stack = [(0, 0)]
    while stack:
        length, code = stack.pop()
        if length == n:
            raise AssertionError(
                "no pivotal index on a path of an almost balanced function"
            )
        sigma = tree.pivot_direction(length, code)
        if sigma is not None:
            below = tree.levels[length + 1]
            records.append(PivotRecord(length, code, length + 1, sigma,
                                       below[code << 1], below[(code << 1) | 1]))
        else:
            stack.append((length + 1, (code << 1) | 1))
            stack.append((length + 1, code << 1))
    return PivotalProfile(f, tuple(records))


def pivotal_index(f: HashFunction, x: Sequence[int]) -> tuple[int, int, Fraction]:
    """(index, sigma, delta) of the first position whose influence reaches
    2/(3n).  Requires an almost balanced f (which guarantees existence)."""
    if not is_almost_balanced(f):
        raise ValueError(
            f"{f.name or 'function'} is not almost balanced; "
            "use the trivial guessing strategy instead"
        )
    if len(x) != f.n:
        raise ValueError(f"x must have {f.n} bits, got {len(x)}")
    threshold = pivotal_threshold(f.n)
    tree = f.tree
    prefix = 0
    for i in range(1, f.n + 1):
        delta = tree.influence(i, prefix)
        if delta >= threshold:
            sigma = 0 if tree.zeros(i, prefix << 1) > tree.zeros(i, (prefix << 1) | 1) else 1
            return i, sigma, delta
        prefix = (prefix << 1) | x[i - 1]
    raise AssertionError("almost balanced function with no pivotal index")


def trivial_strategy(f: HashFunction) -> tuple[int, Fraction]:
    """Guess the majority value of f without touching the system.

    Returns (guess, distance from uniform) = (majority output,
    max(Pr[f=0], Pr[f=1]) - 1/2).
    """
    pr0 = Fraction(f.zeros_total, 2**f.n)
    guess = 0 if pr0 >= Fraction(1, 2) else 1
    return guess, max(pr0, 1 - pr0) - Fraction(1, 2)


def build_attack_partition(f: HashFunction, params: BoxParams) -> Partition:
    """The adversary's two-part strategy against an almost balanced f.

    Each part has weight 1/2; part z biases the pivotal pair of every
    string towards sigma when z = 0 and away from it when z = 1.  The
    parts average back to the unbiased product system pointwise.
    """
    profile = build_pivotal_profile(f)  # raises if not almost balanced
    base = build_unbiased_box(params)
    biased = (bias_box(base, 0, params.eps), bias_box(base, 1, params.eps))
    half = Fraction(1, 2)
    return Partition((
        (half, AttackedSystem(base, biased, profile, 0)),
        (half, AttackedSystem(base, biased, profile, 1)),
    ))


# ---------------------------------------------------------------------------
# Built-in function families and the CLI spec grammar.

def xor_function(n: int) -> HashFunction:
    bits = tuple(bin(i).count("1") & 1 for i in range(2**n))
    return HashFunction(n, bits, "xor")


def majority_function(n: int) -> HashFunction:
    """Majority of the input bits; ties (even n) resolve to 1."""
    bits = tuple(1 if 2 * bin(i).count("1") >= n else 0 for i in range(2**n))
    return HashFunction(n, bits, "majority")


def and_function(n: int) -> HashFunction:
    bits = tuple(1 if i == 2**n - 1 else 0 for i in range(2**n))
    return HashFunction(n, bits, "and")


def or_function(n: int) -> HashFunction:
    bits = tuple(0 if i == 0 else 1 for i in range(2**n))
    return HashFunction(n, bits, "or")


def random_function(n: int, seed: int | str) -> HashFunction:
    """Seeded uniform truth table, stable across platforms and runs."""
    rng = random.Random(f"chainbell:random:{seed}:n={n}")
    bits = tuple(rng.randrange(2) for _ in range(2**n))
    return HashFunction(n, bits, f"random:{seed}")


def function_from_hex(digits: str, n: int | None = None) -> HashFunction:
    """Truth table from hex digits, most significant digit first.

    The digit count fixes n via 4 * len(digits) = 2^n, so only n >= 2 is
    representable.
    """
    try:
        value = int(digits, 16)
    except ValueError:
        raise ValueError(f"not a hex truth table: {digits!r}") from None
    total = 4 * len(digits)
    inferred = total.bit_length() - 1
    if 2**inferred != total:
        raise ValueError(
            f"hex table must encode a power-of-two bit count, got {total} bits"
        )
    if n is not None and n != inferred:
        raise ValueError(
            f"hex table encodes n={inferred}, but n={n} was requested"
        )
    bits = tuple((value >> (total - 1 - k)) & 1 for k in range(total))
    return HashFunction(inferred, bits, f"hex:{digits}")


def parse_function_spec(spec: str, n: int | None = None) -> HashFunction:
    """Build a function from the CLI grammar:
    xor | majority | and | or | random:<seed> | hex:<digits>."""
    plain = {
        "xor": xor_function,
        "majority": majority_function,
        "and": and_function,
        "or": or_function,
    }
    if spec in plain:
        if n is None:
            raise ValueError(f"function {spec!r} needs an explicit n")
        return plain[spec](n)
    if spec.startswith("random:"):
        if n is None:
            raise ValueError("random functions need an explicit n")
        return random_function(n, spec.split(":", 1)[1])
    if spec.startswith("hex:"):
        return function_from_hex(spec.split(":", 1)[1], n)
    raise ValueError(
        f"unknown function spec {spec!r}; expected "
        "xor | majority | and | or | random:<seed> | hex:<digits>"
    )
