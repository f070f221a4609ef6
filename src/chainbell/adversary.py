"""Hash-function analysis and the adversary's strategy construction.

Truth tables use a fixed bit order: ``index(x) = sum x_i * 2^(n-i)``,
i.e. the first bit x_1 is most significant.  A prefix of length L is
then the top L bits, and the strings sharing it form one contiguous
index range.  ``HashFunction.bits`` holds the table as ``bytes``, one
0 or 1 per entry.  The bit check and the zero count are one pass of
whole-word popcounts over fixed-size chunks, each read as one int: a
chunk is refused if any byte has a bit above bit 0, and its bit count
is its ones.  ``bytes.count`` would branch once per byte, and on a
random table that branch is mispredicted about half the time.

The adversary machinery, for a hash f:

- ``HashFunction.tree`` is the zero-count tree: ``tree[L][p]`` counts
  the completions of the length-L prefix with code p that map to 0.
  It is a list of ``array`` levels, root first, each of the narrowest
  unsigned type that holds its largest count, 2^(n-L).  A level is
  summed from the one below as two whole integers: the even and the odd
  entries, each read as one int over its bytes, add lane by lane, and
  no lane carries into the next because each is wide enough for its sum.
  One-byte levels (heights 1-7) are sliced as ``bytes``, which copy a
  byte at a time where an ``array`` slice copies an item at a time, and
  level 1 is 2 minus the summed ones of each pair of ``bits``, so no
  second table-sized copy of the flipped leaves is made.
  The influence of bit i given a prefix is the gap between the
  probabilities of f = 0 when bit i is 0 versus 1; the first position
  where it reaches 2/(3n) is the string's pivotal index.  For almost
  balanced f one always exists, and the direction sigma points at the
  more-zeros branch.
- ``build_pivotal_profile(f)`` walks the tree level by level; it is
  the package's only reader of the tree.  At each level it tests, in
  bulk, only the prefixes that have not pivoted yet, and it keeps the
  children of those that do not pivot for the next level.
  ``_level_marks``, the only statement of the pivot rule, decides them
  in whole-integer lanes: the whole level until the first pivot, then
  the live prefixes' gathered counts.  Each level with pivots is kept
  as one ``bytes`` of marks, one per prefix: 0 for no pivot, 1 + sigma
  for a pivot.  The walk sums the gap |z0 - z1| at each pivot, which
  fixes the zeros of the branches sigma points at.  A string's pivot is
  the first level that marks its prefix.  ``PivotalProfile.records``
  only counts the pivots: it is ``range`` of the levels' summed pivot
  counts, so it builds no record and holds no reference to the profile.
- ``build_attack_partition(f, params)`` assembles the two half-weight
  parts that bias each string's pivotal pair towards (or away from) a
  zero of f, which is the whole attack.

The built-in families' truth tables (xor, majority, and, or, random),
the tree's levels and the pivotal walk are bulk sequence operations
(``bytes.translate``, ``bytes`` repetition, whole-level integer adds and
masks, ``map`` over slices, ``compress``), not per-index or per-node Python
loops; they give the same results as the plain loops.
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
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import add

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
_PAIR_ZEROS = bytes.maketrans(b"\0\1\2", b"\2\1\0")

#: Table bytes per int in ``HashFunction``'s bit check, and the mask of
#: every bit above bit 0 of each of them.
_CHECK_CHUNK = 1 << 14
_NOT_BITS = int.from_bytes(b"\xfe" * _CHECK_CHUNK, "little")

#: Typecode of a tree level ``height`` steps above the leaves, whose
#: counts reach 2^height: the narrowest unsigned ``array`` type holding it.
_LEVEL_TYPECODES = tuple(
    next(t for t in "BHILQ" if height < 8 * array(t).itemsize)
    for height in range(MAX_FUNCTION_BITS + 1)
)


@dataclass(frozen=True)
class HashFunction:
    """A function {0,1}^n -> {0,1} as a truth table (x_1 most significant).

    ``bits`` may be given as any sequence of 0/1 ints; it is stored as
    ``bytes``.  ``zeros_total``, the number of entries that are 0, is
    counted by the same chunked whole-word pass that checks the entries
    are bits, so reading it builds no tree.
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
        # one int per chunk: a bit above bit 0 of any byte refuses the table,
        # and the int's bit count is the chunk's ones
        ones = 0
        for start in range(0, size, _CHECK_CHUNK):
            chunk = int.from_bytes(self.bits[start:start + _CHECK_CHUNK], "little")
            if chunk & _NOT_BITS:
                raise ValueError("truth table entries must be bits")
            ones += chunk.bit_count()
            del chunk  # not kept while the next chunk is read
        object.__setattr__(self, "zeros_total", size - ones)

    @cached_property
    def tree(self) -> list[array]:
        """The zero-count tree: ``tree[L][p]`` is the number of
        length-(n-L) completions s with f(p.s) = 0, for the length-L
        prefix with code p.  Each level is an ``array`` of the narrowest
        unsigned type that holds its largest possible count, 2^(n-L).
        Level 1 is 2 minus the summed ones of each pair of ``bits``; the
        other one-byte levels are summed from their level below sliced as
        ``bytes``, the wider ones from it sliced as an ``array``."""
        bits, order = self.bits, sys.byteorder
        levels = [array("B", bits.translate(_FLIP))]
        # level 1 from the ones: no bytes copy of the flipped leaves is made
        level = int.from_bytes(bits[0::2], order) + int.from_bytes(bits[1::2], order)
        level = level.to_bytes(len(bits) // 2, order).translate(_PAIR_ZEROS)
        levels.append(array("B", level))
        for height in range(2, self.n + 1):
            typecode = _LEVEL_TYPECODES[height]
            if typecode != levels[-1].typecode:
                level = array(typecode, levels[-1])  # entry by entry, not raw words
            # one lane per entry, each wide enough for its sum: no carries
            level = int.from_bytes(level[0::2], order) + int.from_bytes(level[1::2], order)
            level = level.to_bytes(len(levels[-1]) // 2 * array(typecode).itemsize, order)
            levels.append(array(typecode, level))
            if typecode != "B":  # one-byte levels are sliced as bytes
                level = levels[-1]
        levels.reverse()
        return levels


def is_almost_balanced(f: HashFunction) -> bool:
    """|Pr[f=0] - Pr[f=1]| <= 1/3, compared exactly."""
    size = 2**f.n
    return 3 * abs(2 * f.zeros_total - size) <= size


class PivotalProfile:
    """The pivotal prefixes of an almost balanced function.

    ``levels`` holds, for each prefix length L at which some prefix
    pivots, ascending, the pair ``(L, marks)``: ``marks`` is ``bytes`` of
    2^L marks, one per length-L prefix code, 0 where that prefix does not
    pivot and 1 + sigma where it does.  The pivotal prefixes' string
    ranges are disjoint and cover [0, 2^n), and a string's pivotal data
    depends on the prefix before the pivot only (the prefix property), so
    ``pivot`` reads it at the first level that marks the string's prefix.
    ``counts`` holds the pivots per level, and ``len(records)`` their
    sum, the number of pivotal prefixes: ``records`` is a ``range`` of
    that length, which keeps no reference to the profile, so a dropped
    profile is freed at once, with its function and the function's
    cached tree, not by the cyclic collector.  ``zeros_toward`` is the number
    of zeros of f in the branches the sigmas point at: (zeros_total +
    gap) / 2, for the pivots' summed gap |z0 - z1|.
    """

    def __init__(self, function: HashFunction,
                 levels: tuple[tuple[int, bytes], ...], zeros_toward: int):
        self.function = function
        self.n = function.n
        self.levels = levels
        self.counts = tuple(len(marks) - marks.count(0) for _, marks in levels)
        self.records = range(sum(self.counts))
        self.zeros_toward = zeros_toward

    def pivot(self, x_code: int) -> tuple[int, int]:
        """(pivotal index, bias direction) for the string with this code."""
        n = self.n
        if not 0 <= x_code < 1 << n:
            raise ValueError(f"string code must be in [0, 2^{n}), got {x_code}")
        for length, marks in self.levels:
            mark = marks[x_code >> (n - length)]
            if mark:
                return length + 1, mark - 1

    def histogram(self) -> dict[int, int]:
        """Count of input strings per pivotal index, in index order: a
        pivot with a length-L prefix covers 2^(n - L) strings."""
        return {length + 1: count << (self.n - length)
                for (length, _), count in zip(self.levels, self.counts)}


#: The top byte of a lane of ``_level_marks`` -> the prefix's mark: bit 7
#: is set where sigma = 0 pivots, else bit 6 where sigma = 1 does.
_TOP_BYTE_MARK = bytes(64) + b"\2" * 64 + b"\1" * 128

#: marks -> 1 where a prefix does not pivot.
_UNMARKED = bytes.maketrans(b"\0\1\2", b"\1\0\0")


def _level_marks(above: array, z0: array, threshold: int) -> tuple[bytes, int]:
    """The marks of the given prefixes of a tree level, and their summed
    gap: the package's only statement of the pivot rule.

    ``above`` holds the prefixes' counts and ``z0`` their 0-children's,
    entry for entry.  Each prefix gets one lane of w bits, the width of
    ``above``, whose counts reach 2^(h + 1) for the height h of the level
    below: so w >= h + 2.  With |z0 - z1| <= 2^h and t = ``threshold`` =
    ceil(2^(h + 1) / 3n) <= 2^h, the lanes z0 - z1 - t + 2^(w - 1) and
    z1 - z0 - t + 2^(w - 1) lie in [0, 2^w), so adding and subtracting
    the counts as whole integers makes them lane by lane, with no carry
    or borrow between lanes.  A lane's top bit is set exactly when its
    difference reaches t, which is a pivot towards sigma = 0 in the first
    and sigma = 1 in the second; below the top bit such a lane holds
    |z0 - z1| - t, and the masked lane sums give the gap.
    """
    typecode, itemsize = above.typecode, above.itemsize
    width, size = 8 * itemsize, len(above) * itemsize
    top_byte = itemsize - 1 if sys.byteorder == "little" else 0
    if z0.typecode != typecode:
        z0 = array(typecode, z0)  # entry by entry, not raw words
    ones = int.from_bytes((1).to_bytes(itemsize, sys.byteorder) * len(above), sys.byteorder)
    top = ones << (width - 1)
    offset = top - threshold * ones
    # z0 - z1 = 2*z0 - (z0 + z1), the parent's count
    toward0 = (2 * int.from_bytes(z0, sys.byteorder) + offset
               - int.from_bytes(above, sys.byteorder))
    del z0, ones
    toward1 = 2 * offset - toward0
    flags0, flags1 = toward0 & top, toward1 & top
    lanes = (flags0 | (flags1 >> 1)).to_bytes(size, sys.byteorder)
    marks = lanes[top_byte::itemsize].translate(_TOP_BYTE_MARK)
    del lanes
    pivots = len(marks) - marks.count(0)
    if not pivots:
        return marks, 0
    # flags - (flags >> (w - 1)) sets every bit below the top one of a flagged lane
    excess = ((toward0 & (flags0 - (flags0 >> (width - 1))))
              | (toward1 & (flags1 - (flags1 >> (width - 1)))))
    excess_lanes = memoryview(excess.to_bytes(size, sys.byteorder)).cast(typecode)
    return marks, threshold * pivots + sum(excess_lanes)


def build_pivotal_profile(f: HashFunction) -> PivotalProfile:
    """Locate the pivotal prefix above every string of an almost balanced f.

    One pass per tree level L over the length-L prefixes that have not
    pivoted yet, which ``_level_marks`` decides in whole-integer lanes:
    a prefix pivots when 3n*|z0 - z1| >= 2^(n - L) for the zeros z0 and
    z1 below its children, and |z0 - z1| adds to the gap,
    2·zeros_toward - zeros_total: sigma's child holds max(z0, z1) zeros
    and the pivots partition the strings.  Until a prefix pivots, every
    prefix of the level is live, and the walk passes the level and its
    0-children as they stand.  From then on it gathers the counts of the
    live prefixes, the children of those that did not pivot, and writes
    the pivots' marks into a zeroed level.  Each level with pivots is
    kept as its marks.
    """
    if not is_almost_balanced(f):
        raise ValueError(
            f"{f.name or 'function'} is not almost balanced; "
            "the pivotal index is not guaranteed to exist"
        )
    n = f.n
    tree = f.tree
    levels = []
    gap = 0
    live = None  # every prefix of the level, until one pivots
    for length in range(n):
        above, below = tree[length], tree[length + 1]
        # 3n*|diff| >= 2^(n - L) exactly when |diff| >= ceil(2^(n - L) / 3n)
        threshold = -(-(1 << (n - length)) // (3 * n))
        if live is None:
            codes = range(len(above))
            found, level_gap = _level_marks(above, below[0::2], threshold)
            marks = found
        else:
            codes = live
            found, level_gap = _level_marks(
                array(above.typecode, map(above.__getitem__, live)),
                array(above.typecode, map(below.__getitem__, map(add, live, live))),
                threshold)
            if level_gap:
                marks = bytearray(len(above))
                # a deque of length 0 runs the setitems and keeps nothing
                deque(map(marks.__setitem__, compress(live, found),
                          found.translate(None, b"\0")), 0)
        if level_gap:  # a pivot adds at least threshold >= 1
            gap += level_gap
            levels.append((length, bytes(marks)))
            # the prefixes that did not pivot: none if every one did
            live = list(compress(codes, found.translate(_UNMARKED))) if 0 in found else []
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
    return PivotalProfile(f, tuple(levels), (f.zeros_total + gap) // 2)


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
        if spec == "random:":
            raise ValueError("function spec 'random:' needs a seed, as in random:0")
        if n is None:
            raise ValueError("random functions need an explicit n")
        return random_function(n, spec.split(":", 1)[1])
    if spec.startswith("hex:"):
        return function_from_hex(spec.split(":", 1)[1], n)
    raise ValueError(
        f"unknown function spec {spec!r}; expected "
        "xor | majority | and | or | random:<seed> | hex:<digits>"
    )
