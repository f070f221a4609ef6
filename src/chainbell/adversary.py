"""Hash-function analysis and the adversary's strategy construction.

Truth tables use a fixed bit order: ``index(x) = sum x_i * 2^(n-i)``,
i.e. the first bit x_1 is most significant.  A prefix of length L is
then the top L bits, and the strings sharing it form one contiguous
index range.  ``HashFunction.bits`` holds the table as ``bytes``, one
0 or 1 per entry.

The adversary machinery, for a hash f:

- ``HashFunction.tree`` is the zero-count tree: ``tree[L][p]`` counts
  the completions of the length-L prefix with code p that map to 0.
  The influence of bit i given a prefix is the gap between the
  probabilities of f = 0 when bit i is 0 versus 1; the first position
  where it reaches 2/(3n) is the string's pivotal index.  For almost
  balanced f one always exists, and the direction sigma points at the
  more-zeros branch.
- ``build_pivotal_profile(f)`` walks the tree level by level; it is
  the package's only reader of the tree and its only statement of the
  pivot rule.  At each level it tests, in bulk, only the prefixes that
  have not pivoted yet, and it keeps the children of those that do not
  pivot for the next level.  It records each pivotal prefix as a plain
  ``(prefix_len, prefix_code, sigma)`` tuple of ints and sums the zeros
  of the branches sigma points at as it goes.  A string's pivot is
  read off the record whose range holds it.
- ``build_attack_partition(f, params)`` assembles the two half-weight
  parts that bias each string's pivotal pair towards (or away from) a
  zero of f, which is the whole attack.

The built-in families' truth tables (xor, majority, and, or, random),
the tree's levels and the pivotal walk are bulk sequence operations
(``bytes.translate``, ``bytes`` repetition, ``map`` over ``islice``,
``compress``), not per-index or per-node Python loops; they give the
same results as the plain loops.
``random_function`` keeps the exact ``randrange(2)`` stream:
``randrange(2)`` is rejection sampling on
``getrandbits(2)``, the top two bits of one 32-bit Mersenne Twister
word, so it keeps a word whose top bit is 0 and returns its second bit.
Reading those two bits off the top byte of every word of one
``getrandbits(32 * m)`` call gives the same bits (see its docstring).
"""

from __future__ import annotations

import random
import string
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from operator import add, itemgetter, sub
from typing import Callable, Sequence

from ._coding import bits_to_int
from .boxes import BoxParams, bias_box, build_unbiased_box
from .systems import AttackedSystem, Partition

#: Truth-table machinery is O(2^n); refuse beyond this.
MAX_FUNCTION_BITS = 24


def _table_size(n: int) -> int:
    """2^n for n in 1..MAX_FUNCTION_BITS, checked before any table is built."""
    if not 1 <= n <= MAX_FUNCTION_BITS:
        raise ValueError(f"n must be in 1..{MAX_FUNCTION_BITS}, got {n}")
    return 2**n


#: ``bytes.translate`` tables over truth-table bits and bit counts.
_INCREMENT = bytes(range(1, 256)) + b"\0"
_PARITY = bytes(b & 1 for b in range(256))
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")
_ASCII_BIT = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class HashFunction:
    """A function {0,1}^n -> {0,1} as a truth table (x_1 most significant).

    ``bits`` may be given as any sequence of 0/1 ints; it is stored as
    ``bytes``.
    """

    n: int
    bits: bytes
    name: str = ""

    def __post_init__(self) -> None:
        size = _table_size(self.n)
        if isinstance(self.bits, int):  # bytes(k) would be k zero bytes
            raise ValueError("truth table entries must be bits")
        if not isinstance(self.bits, bytes):
            try:
                object.__setattr__(self, "bits", bytes(self.bits))
            except (TypeError, ValueError):
                raise ValueError("truth table entries must be bits") from None
        if len(self.bits) != size:
            raise ValueError(f"truth table needs {size} bits, got {len(self.bits)}")
        if self.zeros_total + self.bits.count(1) != size:
            raise ValueError("truth table entries must be bits")

    def value(self, x: Sequence[int]) -> int:
        if len(x) != self.n:
            raise ValueError(f"x must have {self.n} bits, got {len(x)}")
        for b in x:
            if b not in (0, 1):
                raise ValueError(f"x must hold bits, got {b}")
        return self.bits[bits_to_int(x)]

    @cached_property
    def zeros_total(self) -> int:
        return self.bits.count(0)

    @cached_property
    def tree(self) -> list[list[int]]:
        """The zero-count tree: ``tree[L][p]`` is the number of
        length-(n-L) completions s with f(p.s) = 0, for the length-L
        prefix with code p."""
        levels = [list(self.bits.translate(_FLIP))]
        # islice, not slicing: a slice would copy each level twice more.
        while len(levels[-1]) > 1:
            prev = levels[-1]
            levels.append(list(map(add, islice(prev, 0, None, 2), islice(prev, 1, None, 2))))
        levels.reverse()
        return levels


def is_almost_balanced(f: HashFunction) -> bool:
    """|Pr[f=0] - Pr[f=1]| <= 1/3, compared exactly."""
    size = 2**f.n
    return 3 * abs(2 * f.zeros_total - size) <= size


def _first_string(n: int) -> Callable[[tuple[int, int, int]], int]:
    """Records' order key: the code of the first string a record covers."""
    return lambda record: record[1] << (n - record[0])


class PivotalProfile:
    """The pivotal prefixes of an almost balanced function.

    ``records`` holds one ``(prefix_len, prefix_code, sigma)`` tuple of
    ints per prefix after which the next bit is pivotal, in ascending
    order of the strings they cover: their string ranges are disjoint,
    contiguous and cover [0, 2^n).  ``zeros_toward`` is the number of
    zeros of f in the branches the records' sigmas point at; the other
    branches hold the rest of the zeros.  The pivotal data of a string
    depends on the prefix before the pivot only (the prefix property),
    so ``pivot`` finds it in the record whose range holds the string.
    """

    def __init__(self, function: HashFunction,
                 records: tuple[tuple[int, int, int], ...], zeros_toward: int):
        self.function = function
        self.n = function.n
        self.records = records
        self.zeros_toward = zeros_toward

    def pivot(self, x_code: int) -> tuple[int, int]:
        """(pivotal index, bias direction) for the string with this code."""
        n = self.n
        if not 0 <= x_code < 1 << n:
            raise ValueError(f"string code must be in [0, 2^{n}), got {x_code}")
        # the last record whose first string is at or before x_code
        at = bisect_right(self.records, x_code, key=_first_string(n))
        prefix_len, _, sigma = self.records[at - 1]
        return prefix_len + 1, sigma

    def histogram(self) -> dict[int, int]:
        """Count of input strings per pivotal index, in index order: a
        record with a length-L prefix covers 2^(n - L) strings."""
        counts = sorted(Counter(map(itemgetter(0), self.records)).items())
        return {length + 1: count << (self.n - length) for length, count in counts}


def build_pivotal_profile(f: HashFunction) -> PivotalProfile:
    """Locate the pivotal prefix above every string of an almost balanced f.

    One pass per tree level L over the codes of the length-L prefixes
    that have not pivoted yet, in ascending order; until one pivots,
    that is the whole level, read by slices.  For each, z0 and z1 are
    the zeros below its 0 and 1 children; it pivots when
    3n*|z0 - z1| >= 2^(n - L), towards sigma = 1 if z1 > z0 else 0, and
    the zeros below sigma's child add to ``zeros_toward``.  The children
    of the prefixes that do not pivot are live at level L + 1.  Records
    ascend by string within a level, and are sorted by the first string
    they cover when more than one level has pivots.
    """
    if not is_almost_balanced(f):
        raise ValueError(
            f"{f.name or 'function'} is not almost balanced; "
            "the pivotal index is not guaranteed to exist"
        )
    n = f.n
    tree = f.tree
    records = []
    zeros_toward = 0
    live = None  # every prefix of the level, until one pivots
    for length in range(n):
        above, below = tree[length], tree[length + 1]
        if live is None:
            codes = range(len(above))
            z0 = below[0::2]
            diff = list(map(sub, z0, below[1::2]))
        else:
            codes = live
            z0 = list(map(below.__getitem__, map(add, live, live)))
            # z0 - z1 = 2*z0 - (z0 + z1), the parent's count
            diff = list(map(sub, map(add, z0, z0), map(above.__getitem__, live)))
        # 3n*|diff| >= 2^(n - L) exactly when |diff| >= ceil(2^(n - L) / 3n)
        threshold = -(-(1 << (n - length)) // (3 * n))
        pivots = bytes(map(threshold.__le__, map(abs, diff)))
        if 1 in pivots:
            hit = list(compress(diff, pivots))
            sigmas = bytes(map((0).__gt__, hit))
            # sigma's child holds z0 zeros, or z1 = z0 - diff when sigma is 1
            zeros_toward += sum(compress(z0, pivots)) - sum(compress(hit, sigmas))
            del z0, diff, hit  # the level's counts go before its records are made
            records.extend(zip(repeat(length), compress(codes, pivots), sigmas))
            live = list(compress(codes, pivots.translate(_FLIP)))
            if not live:
                break
        elif live is None:
            continue
        children = [0] * (2 * len(live))
        children[0::2] = map(add, live, live)
        children[1::2] = map(add, children[0::2], repeat(1))
        live = children
    else:
        raise AssertionError("no pivotal index on a path of an almost balanced function")
    if records[0][0] != records[-1][0]:  # more than one level has pivots
        records.sort(key=_first_string(n))
    return PivotalProfile(f, tuple(records), zeros_toward)


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

def _popcounts(n: int) -> bytes:
    """The bit count of every index in [0, 2^n), by doubling: the upper
    half of each step is the lower half plus one."""
    _table_size(n)
    counts = b"\0"
    for _ in range(n):
        counts += counts.translate(_INCREMENT)
    return counts


def xor_function(n: int) -> HashFunction:
    return HashFunction(n, _popcounts(n).translate(_PARITY), "xor")


def majority_function(n: int) -> HashFunction:
    """Majority of the input bits; ties (even n) resolve to 1."""
    majority = bytes(1 if 2 * count >= n else 0 for count in range(256))
    return HashFunction(n, _popcounts(n).translate(majority), "majority")


def and_function(n: int) -> HashFunction:
    return HashFunction(n, bytes(_table_size(n) - 1) + b"\1", "and")


def or_function(n: int) -> HashFunction:
    return HashFunction(n, b"\0" + b"\1" * (_table_size(n) - 1), "or")


#: Mersenne Twister words per ``getrandbits`` call in ``random_function``,
#: which bounds the int and bytes each call makes.
_RANDOM_CHUNK_WORDS = 1 << 16

#: The top byte of a word -> the bit ``randrange(2)`` draws from it.
_SECOND_BIT = bytes((b >> 6) & 1 for b in range(256))

#: Top bytes of the words ``randrange(2)`` rejects: top bit set.
_REJECTED = bytes(range(128, 256))


def random_function(n: int, seed: int | str) -> HashFunction:
    """Seeded uniform truth table, stable across platforms and runs.

    Entry k is the k-th ``randrange(2)`` of ``random.Random`` seeded with
    ``chainbell:random:<seed>:n=<n>``, drawn in bulk.  ``randrange(2)``
    rejects a 32-bit Mersenne Twister word whose top bit is set and
    otherwise returns the word's second bit.  ``getrandbits(32 * m)``
    packs the next m words least significant first, so bytes 3, 7, 11,
    ... of its little-endian bytes are their top bytes in draw order.
    Deleting top bytes of 128 and more and mapping the rest to bit 6
    gives the ``randrange(2)`` results one for one.  A chunk holds at
    most the bits still needed, so the last word drawn is the last one
    accepted.
    """
    size = _table_size(n)
    rng = random.Random(f"chainbell:random:{seed}:n={n}")
    bits = bytearray()
    while len(bits) < size:
        words = min(size - len(bits), _RANDOM_CHUNK_WORDS)
        top_bytes = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        bits += top_bytes.translate(_SECOND_BIT, delete=_REJECTED)
    return HashFunction(n, bytes(bits), f"random:{seed}")


def function_from_hex(digits: str, n: int | None = None) -> HashFunction:
    """Truth table from hex digits, most significant digit first.

    Only the characters 0-9, a-f and A-F are digits; signs, a ``0x``
    prefix, underscores and spaces are refused.  The digit count fixes n
    via 4 * len(digits) = 2^n, so only n >= 2 is representable; an n
    outside 1..MAX_FUNCTION_BITS is refused before the digits are converted.
    """
    if not digits or not set(digits) <= set(string.hexdigits):
        raise ValueError(f"not a hex truth table: {digits!r}")
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
    _table_size(inferred)
    bits = format(int(digits, 16), f"0{total}b").encode("ascii").translate(_ASCII_BIT)
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
