"""Shared test fixtures: mutated systems and independent oracles.

The oracles here recompute quantities by direct enumeration only, never
through the library's closed forms, so they stay valid checks of them.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Sequence

from chainbell import (
    FLOAT_ATOL,
    AttackedSystem,
    BoxParams,
    HashFunction,
    PivotalProfile,
    SinglePairBox,
    bias_box,
    build_unbiased_box,
    is_almost_balanced,
    materialize,
    random_function,
)
from chainbell.nonsignalling import CONDITION_SUBSET, MAX_WITNESSES, NsViolation
from chainbell.systems import (BoxProductSystem, Partition, SystemEvaluator, bits_to_int,
                               built_from_boxes)


def pivotal_threshold(n: int) -> Fraction:
    return Fraction(2, 3 * n)


def tree_zeros(tree: Sequence[Sequence[int]], prefix_len: int, prefix_code: int) -> int:
    """Completions of the prefix that map to 0, read off the tree's levels."""
    return tree[prefix_len][prefix_code]


def oracle_tree_level(f: HashFunction, prefix_len: int) -> list[int]:
    """Level ``prefix_len`` of the zero-count tree, each node's count read
    off the truth table: the zeros among the 2^(n - prefix_len) entries
    under its prefix."""
    w = 2 ** (f.n - prefix_len)
    return [f.bits[start:start + w].count(0) for start in range(0, 2**f.n, w)]


def influence(tree: Sequence[Sequence[int]], i: int, prefix_code: int) -> Fraction:
    """|Pr[f=0 | prefix.0] - Pr[f=0 | prefix.1]| for a length-(i-1)
    prefix, over uniform completions; the tree has n + 1 levels."""
    n = len(tree) - 1
    if not 1 <= i <= n:
        raise ValueError(f"index must be in 1..{n}, got {i}")
    z0 = tree_zeros(tree, i, prefix_code << 1)
    z1 = tree_zeros(tree, i, (prefix_code << 1) | 1)
    return Fraction(abs(z0 - z1), 2 ** (n - i))


#: A pivot record: (prefix_len, prefix_code, sigma).
Record = tuple[int, int, int]


def record_index(record: Record) -> int:
    """The 1-based pivotal index of the strings under a record's prefix."""
    prefix_len, _, _ = record
    return prefix_len + 1


def record_zeros(f: HashFunction, record: Record) -> tuple[int, int]:
    """Zeros of f under the record's prefix followed by 0, and by 1,
    counted off the truth table."""
    prefix_len, prefix_code, _ = record
    half = 2 ** (f.n - prefix_len - 1)
    start = prefix_code * 2 * half
    return (f.bits[start:start + half].count(0),
            f.bits[start + half:start + 2 * half].count(0))


def profile_records(profile: PivotalProfile) -> tuple[Record, ...]:
    """The profile's pivots as records, in ascending order of the strings
    they cover, read off its marks: one per nonzero mark, whose level is
    the prefix length and whose value is 1 + sigma.  Their number must be
    ``len(profile.records)``."""
    n = profile.n
    records = sorted(((length, code, mark - 1) for length, marks in profile.levels
                      for code, mark in enumerate(marks) if mark),
                     key=lambda record: record[1] << (n - record[0]))
    assert len(records) == len(profile.records)
    return tuple(records)


def oracle_pivotal_profile(f: HashFunction) -> tuple[tuple[Record, ...], int, dict[int, int]]:
    """(records, zeros_toward, histogram) of an almost balanced f, by a
    depth-first walk of the zero-count tree, 0 branch first: a node
    pivots when its next bit's ``influence``, in ``Fraction``s, reaches
    ``pivotal_threshold(n)``, so the records ascend by string.  The
    oracle for the library's level-wise walk, sharing none of its rule."""
    n = f.n
    tree = f.tree
    threshold = pivotal_threshold(n)
    records = []
    stack = [(0, 0)]
    while stack:
        length, code = stack.pop()
        if length == n:
            raise AssertionError("no pivotal index on a path of an almost balanced function")
        if influence(tree, length + 1, code) >= threshold:
            z0 = tree_zeros(tree, length + 1, code << 1)
            z1 = tree_zeros(tree, length + 1, (code << 1) | 1)
            records.append((length, code, 0 if z0 > z1 else 1))
        else:
            stack.append((length + 1, (code << 1) | 1))
            stack.append((length + 1, code << 1))
    zeros_toward = sum(tree_zeros(tree, length + 1, (code << 1) | sigma)
                       for length, code, sigma in records)
    histogram = {}
    for length, _, _ in records:
        histogram[length + 1] = histogram.get(length + 1, 0) + 2 ** (n - length)
    return tuple(records), zeros_toward, dict(sorted(histogram.items()))


def pivotal_index(f: HashFunction, x: Sequence[int]) -> tuple[int, int, Fraction]:
    """(index, sigma, delta) of the first position whose influence reaches
    2/(3n), found by walking x's prefixes and reading each influence off
    the zero-count tree.  Requires an almost balanced f (which guarantees
    existence)."""
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
        delta = influence(tree, i, prefix)
        if delta >= threshold:
            z0, z1 = tree_zeros(tree, i, prefix << 1), tree_zeros(tree, i, (prefix << 1) | 1)
            sigma = 0 if z0 > z1 else 1
            return i, sigma, delta
        prefix = (prefix << 1) | x[i - 1]
    raise AssertionError("almost balanced function with no pivotal index")


# Per-index truth-table builders: the oracles for the library's bulk ones.

def oracle_xor_bits(n: int) -> bytes:
    return bytes(bin(i).count("1") & 1 for i in range(2**n))


def oracle_majority_bits(n: int) -> bytes:
    return bytes(1 if 2 * bin(i).count("1") >= n else 0 for i in range(2**n))


def oracle_and_bits(n: int) -> bytes:
    return bytes(1 if i == 2**n - 1 else 0 for i in range(2**n))


def oracle_or_bits(n: int) -> bytes:
    return bytes(0 if i == 0 else 1 for i in range(2**n))


def oracle_random_bits(n: int, seed) -> bytes:
    rng = random.Random(f"chainbell:random:{seed}:n={n}")
    return bytes(rng.randrange(2) for _ in range(2**n))


class FuturePeekingSystem(SystemEvaluator):
    """An n-pair system whose pair ``early`` is biased by the *later*
    output bit at ``late`` -- the prefix property violated on purpose.
    Every other pair is unbiased.  By default the first of two pairs
    peeks at the second output bit."""

    def __init__(self, params: BoxParams, n: int = 2, early: int = 1, late: int = 2):
        self.base = build_unbiased_box(params)
        self.biased = (
            bias_box(self.base, 0, params.eps),
            bias_box(self.base, 1, params.eps),
        )
        self.n = n
        self.n_settings = params.n_settings
        self.early = early
        self.late = late

    def evaluate(self, x, y, u, v):
        val = 1
        for j in range(self.n):
            box = self.biased[x[self.late - 1]] if j == self.early - 1 else self.base
            val *= box.prob(u[j], v[j], x[j], y[j])
        return val


class MirroredSystem(SystemEvaluator):
    """Alice and Bob swapped: P'(x, y | u, v) = P(y, x | v, u)."""

    def __init__(self, inner: SystemEvaluator):
        self.inner = inner
        self.n = inner.n
        self.n_settings = inner.n_settings

    def evaluate(self, x, y, u, v):
        return self.inner.evaluate(y, x, v, u)


class NegatedPointSystem(SystemEvaluator):
    """Wrapper that negates the probability at one point."""

    def __init__(self, inner: SystemEvaluator, point):
        self.inner = inner
        self.point = point
        self.n = inner.n
        self.n_settings = inner.n_settings

    def evaluate(self, x, y, u, v):
        val = self.inner.evaluate(x, y, u, v)
        if (tuple(x), tuple(y), tuple(u), tuple(v)) == self.point:
            return -val
        return val


class PerPointSystem(SystemEvaluator):
    """Delegates ``evaluate`` to a wrapped system.  Not a box product, so
    ``materialize`` takes the per-point path: the oracle for tables built
    from boxes."""

    def __init__(self, inner: SystemEvaluator):
        self.inner = inner
        self.n = inner.n
        self.n_settings = inner.n_settings

    def evaluate(self, x, y, u, v):
        return self.inner.evaluate(x, y, u, v)


#: Per-point tables built this session, by ``_table_key``.
_ORACLE_TABLES: dict = {}


def _table_key(system: BoxProductSystem) -> tuple:
    """What determines a box product's table: its type, n, N and, for
    every string x, the cells of the boxes behind x, with their types,
    so a float cell never stands in for an equal Fraction.  For an
    attack part these are what f's bits, z and eps fix."""
    return (type(system), system.n, system.n_settings,
            tuple(tuple(repr(box.cells) for box in system.pair_boxes(x))
                  for x in range(2**system.n)))


def oracle_table(system: BoxProductSystem):
    """The per-point table of a box product that keeps the shared
    ``evaluate``: ``materialize`` of ``PerPointSystem(system)``, the
    oracle for the builder's tables.  Each table is built once per
    session and handed out as a ``dataclasses.replace`` copy, which
    starts with no answers, so no test reads another test's answers.
    Its ``values`` are shared: a test that changes them copies them
    first.  Tests of the per-point path itself call ``materialize``."""
    assert built_from_boxes(system), system
    key = _table_key(system)
    if key not in _ORACLE_TABLES:
        _ORACLE_TABLES[key] = materialize(PerPointSystem(system))
    return replace(_ORACLE_TABLES[key])


class IntZeroSystem(PerPointSystem):
    """Exact wrapper that returns the int 0 wherever the wrapped system's
    value is zero."""

    def evaluate(self, x, y, u, v):
        return self.inner.evaluate(x, y, u, v) or 0


class TableSystem(SystemEvaluator):
    """A joint table read back as a system: ``evaluate`` looks up the
    entry of (x, y, u, v) by the table's index rule, s * 4^n + o, over
    ``den`` when the table is exact.  Lets ``brute_force_violations``
    judge a table with planted entries."""

    def __init__(self, table):
        self.table = table
        self.n = table.n
        self.n_settings = table.n_settings

    def evaluate(self, x, y, u, v):
        settings = 0
        for digit in (*u, *v):
            settings = settings * self.n_settings + digit
        value = self.table.values[settings * 4**self.n + bits_to_int((*x, *y))]
        return Fraction(value, self.table.den) if self.table.exact else value


def perturbed_bob_marginal_box(params: BoxParams, amount=Fraction(1, 64)) -> SinglePairBox:
    """Unbiased box with one square's Bob marginal knocked off 1/2.

    Moves mass between the two y-cells of one Alice outcome, so square
    normalization and Alice's marginal survive.
    """
    box = build_unbiased_box(params)
    cells = list(box.cells)
    cells[0] += amount  # (a=0, b=0, x=0, y=0)
    cells[1] -= amount  # (a=0, b=0, x=0, y=1)
    return SinglePairBox(box.n_settings, tuple(cells))


def perturbed_alice_marginal_box(params: BoxParams, amount=Fraction(1, 64)) -> SinglePairBox:
    """Unbiased box whose Alice marginal in square (a=0, b=0) is knocked
    off 1/2, so it depends on Bob's setting.

    Moves mass between the two x-cells of one Bob outcome, so square
    normalization and Bob's marginal survive.
    """
    box = build_unbiased_box(params)
    cells = list(box.cells)
    cells[0] += amount  # (a=0, b=0, x=0, y=0)
    cells[2] -= amount  # (a=0, b=0, x=1, y=0)
    return SinglePairBox(box.n_settings, tuple(cells))


def brute_force_violations(system: SystemEvaluator, side: str, subset, *,
                           condition: str = CONDITION_SUBSET, cut=None):
    """Every violated marginal equality of one (side, subset), and the
    number of comparisons, by direct summation of ``evaluate``.

    For each setting of ``side`` outside ``subset``, each setting of the
    other side, each output of ``side`` outside ``subset`` and each output
    of the other side, the sum over ``side``'s outputs inside ``subset``
    at every nonzero assignment of ``side``'s settings inside ``subset``
    is compared with the sum at the all-zeros assignment.  The comparison
    is exact when every sum is an int or a Fraction, else to FLOAT_ATOL.
    Violations come in no particular order.
    """
    n, N = system.n, system.n_settings
    subset = tuple(sorted(subset))
    inside = [p - 1 for p in subset]
    outside = [p - 1 for p in range(1, n + 1) if p not in subset]

    def merge(outer, inner):
        full = [None] * n
        for pos, value in zip(outside, outer):
            full[pos] = value
        for pos, value in zip(inside, inner):
            full[pos] = value
        return tuple(full)

    def point(own_out, other_out, own_set, other_set):
        if side == "alice":
            return system.evaluate(own_out, other_out, own_set, other_set)
        return system.evaluate(other_out, own_out, other_set, own_set)

    zeros = (0,) * len(inside)
    comparisons = []
    for own_kept in product(range(N), repeat=len(outside)):
        for other_set in product(range(N), repeat=n):
            for out_kept in product((0, 1), repeat=len(outside)):
                for other_out in product((0, 1), repeat=n):
                    sums = {}
                    for assignment in product(range(N), repeat=len(inside)):
                        total = 0
                        for summed in product((0, 1), repeat=len(inside)):
                            total += point(merge(out_kept, summed), other_out,
                                           merge(own_kept, assignment), other_set)
                        sums[assignment] = total
                    comparisons.extend(
                        (own_kept, other_set, varied, out_kept, other_out, sums[zeros], total)
                        for varied, total in sums.items() if varied != zeros)

    exact = all(isinstance(c[-1], (int, Fraction)) and isinstance(c[-2], (int, Fraction))
                for c in comparisons)
    violations = []
    for own_kept, other_set, varied, out_kept, other_out, left, right in comparisons:
        if left == right if exact else abs(left - right) <= FLOAT_ATOL:
            continue
        own_left, own_right = merge(own_kept, zeros), merge(own_kept, varied)
        own_out = merge(out_kept, (None,) * len(inside))
        if side == "alice":
            fields = (own_out, other_out, own_left, other_set, own_right, other_set)
        else:
            fields = (other_out, own_out, other_set, own_left, other_set, own_right)
        violations.append(NsViolation(condition, side, cut, subset, *fields, left, right))
    return violations, len(comparisons)


def oracle_convex_mismatches(partition: Partition, base: SystemEvaluator):
    """(mismatches, mismatch total, entries compared) of the pointwise
    convex combination of ``partition``'s parts against ``base``, entry by
    entry: each entry's ``sum(map(mul, scales, column))`` against the
    base's value, on a common integer denominator when every table and
    weight is exact, else in floats.  The first MAX_WITNESSES mismatches
    are kept, in table order."""
    base_table = materialize(base)
    part_tables = [materialize(s) for s in partition.systems]
    weights = partition.weights
    exact = base_table.exact and all(t.exact for t in part_tables) and all(
        isinstance(w, (int, Fraction)) for w in weights)
    if exact:
        den = base_table.den
        for w, t in zip(weights, part_tables):
            den = math.lcm(den, t.den * w.denominator)
        scales = [w.numerator * (den // (t.den * w.denominator))
                  for w, t in zip(weights, part_tables)]
        wants = [v * (den // base_table.den) for v in base_table.values]
        columns = zip(*(t.values for t in part_tables))
    else:
        def as_floats(t):
            return [v / t.den for v in t.values] if t.exact else t.values

        den = None
        scales = [float(w) for w in weights]
        wants = as_floats(base_table)
        columns = zip(*map(as_floats, part_tables))
    mismatches = []
    total = 0
    for idx, (want, column) in enumerate(zip(wants, columns)):
        combo = sum(map(mul, scales, column))
        if combo != want and (exact or abs(combo - want) > FLOAT_ATOL):
            total += 1
            if len(mismatches) < MAX_WITNESSES:
                if exact:
                    want, combo = Fraction(want, den), Fraction(combo, den)
                mismatches.append((*base_table.point(idx), want, combo))
    return mismatches, total, len(base_table.values)


def witness_key(v: NsViolation):
    """The witness order of the nonsignalling module docstring, as a sort
    key: side, cut, left and right settings, then the kept outputs."""
    return (
        v.side,
        v.cut if v.cut is not None else 0,
        v.u_left,
        v.v_left,
        v.u_right,
        v.v_right,
        tuple(-1 if b is None else b for b in v.x_kept),
        tuple(-1 if b is None else b for b in v.y_kept),
    )


def x_marginal(system: AttackedSystem, x):
    """P(x) of an attacked part from the box marginals alone, with the
    pivot found by walking the function's prefixes (``pivotal_index``)."""
    index, sigma, _ = pivotal_index(system.profile.function, x)
    val = 1
    for j, bit in enumerate(x):
        box = system.biased[sigma ^ system.z] if j == index - 1 else system.base
        val *= box.alice_marginal(0, 0, bit)
    return val


def flip_pivotal_bit(system: AttackedSystem, x) -> tuple[int, ...]:
    """x with its pivotal bit flipped; pairs that cancel in normalization."""
    index, _, _ = pivotal_index(system.profile.function, x)
    flipped = list(x)
    flipped[index - 1] ^= 1
    return tuple(flipped)


def profile_delta(profile: PivotalProfile, x_code: int) -> Fraction:
    """The influence at the pivot record whose prefix covers x, read off
    the function's zero-count tree."""
    index, _ = profile.pivot(x_code)
    prefix = x_code >> (profile.n - index + 1)
    (record,) = [r for r in profile_records(profile) if r[:2] == (index - 1, prefix)]
    return influence(profile.function.tree, record_index(record), prefix)


def alice_output_distribution(system: SystemEvaluator, u=None, v=None):
    """Alice's output distribution sum_y P(x, y | u, v) for each x, by
    direct summation of ``evaluate``.  Settings default to all zeros."""
    n = system.n
    u = (0,) * n if u is None else u
    v = (0,) * n if v is None else v
    return {x: sum(system.evaluate(x, y, u, v) for y in product((0, 1), repeat=n))
            for x in product((0, 1), repeat=n)}


def joint_key_zero_prob(f: HashFunction, system: SystemEvaluator, u, v):
    """Pr[f(X) = 0] by raw double summation at a fixed input tuple."""
    total = 0
    for x in product((0, 1), repeat=system.n):
        if f.bits[bits_to_int(x)] != 0:
            continue
        for y in product((0, 1), repeat=system.n):
            total += system.evaluate(x, y, u, v)
    return total


def lemma_distance_oracle(f: HashFunction, partition: Partition, u, v):
    """The distance formula evaluated from scratch at one input tuple.

    Labels the larger-q part as z = 0, flipping the key labels too when
    even that stays below 1/2.
    """
    q = [joint_key_zero_prob(f, part, u, v) for part in partition.systems]
    pr0 = Fraction(sum(1 for b in f.bits if b == 0), 2**f.n)
    z0 = 0 if q[0] >= q[1] else 1
    q_top, pr_top = q[z0], pr0
    if q_top < Fraction(1, 2):
        z0 = 1 - z0
        q_top, pr_top = 1 - q[z0], 1 - pr0
    weight = partition.weights[z0]
    return weight * (q_top - (1 - q_top)) - Fraction(1, 2) * (pr_top - (1 - pr_top))


def constant_function(n: int, bit: int) -> HashFunction:
    return HashFunction(n, (bit,) * 2**n, f"const{bit}")


def exhaustive_almost_balanced(n: int) -> list[HashFunction]:
    """Every almost balanced function on n bits (n <= 3 stays small)."""
    size = 2**n
    out = []
    for code in range(2**size):
        bits = tuple((code >> (size - 1 - k)) & 1 for k in range(size))
        f = HashFunction(n, bits, f"enum:{code}")
        if is_almost_balanced(f):
            out.append(f)
    return out


def exhaustive_functions(n: int) -> list[HashFunction]:
    size = 2**n
    return [
        HashFunction(n, tuple((code >> (size - 1 - k)) & 1 for k in range(size)),
                     f"enum:{code}")
        for code in range(2**size)
    ]


def seeded_almost_balanced(n: int, count: int) -> list[HashFunction]:
    """First `count` almost balanced functions from the seeded family."""
    out = []
    seed = 0
    while len(out) < count:
        f = random_function(n, seed)
        if is_almost_balanced(f):
            out.append(f)
        seed += 1
    return out


def balanced_two_zero_functions_n2() -> list[HashFunction]:
    """All six n = 2 functions with exactly two zeros."""
    out = []
    for zeros in combinations(range(4), 2):
        bits = tuple(0 if k in zeros else 1 for k in range(4))
        out.append(HashFunction(2, bits, f"n2:{zeros}"))
    return out


def acceptance_corpus() -> list[HashFunction]:
    """Fifty almost balanced functions spread over n = 1..4."""
    n1 = [HashFunction(1, (0, 1), "identity"), HashFunction(1, (1, 0), "negation")]
    n2 = balanced_two_zero_functions_n2()
    n3 = seeded_almost_balanced(3, 30)
    n4 = seeded_almost_balanced(4, 12)
    functions = n1 + n2 + n3 + n4
    assert len(functions) == 50
    return functions


def lines_run_in(counted, function, *args, **kwargs) -> int:
    """Line events executed during one call of ``function``, in the frames
    whose code object ``counted`` accepts.  Counting lines, not seconds,
    makes a guard against per-element Python deterministic on any
    machine."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if counted(frame.f_code) else None)
    try:
        function(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return lines


def independent_table_checks(system: BoxProductSystem, table, samples: int,
                             seed: int = 0) -> dict[str, int]:
    """Mismatches between a box product's joint table and three checks
    that share no code with the box-product builder or with
    ``nonsignalling``: they read the index layout that ``JointTable``
    states (settings word, then x, then y, first digit most significant)
    and add entries with a plain ``sum`` over runs and strided slices.

    - ``sample``: ``samples`` seeded entries against ``evaluate``, which
      multiplies the boxes' cells point by point;
    - ``y_marginal``: summing every x out of a (u, v) block gives the
      product of the boxes' Bob marginals at every y, 1/2^n;
    - ``x_marginal``: summing every y out gives, at each x, the product
      of x's boxes' Alice marginals, taken once per (x, u) since a box's
      Alice marginal does not depend on Bob's setting.

    A single wrong entry changes both marginals, and the sample catches
    errors that cancel in every sum.  The identities hold for boxes that
    pass ``validate`` (Bob marginals 1/2, Alice's independent of b), the
    Y-marginal one only when the box at position j depends on
    x_1..x_{j-1} alone: both premises are asserted first.  Exact tables
    are compared exactly, float tables to within ``FLOAT_ATOL``."""
    n, N = system.n, system.n_settings
    values, run, block = table.values, 2**n, 4**n
    exact = table.den is not None
    scale = table.den if exact else 1.0
    boxes_by_x = [system.pair_boxes(x) for x in range(run)]
    for box in {id(box): box for boxes in boxes_by_x for box in boxes}.values():
        box.validate()
    for x, boxes in enumerate(boxes_by_x):
        for j, box in enumerate(boxes):
            assert box == boxes_by_x[x >> (n - j) << (n - j)][j], (x, j)

    def same(entry, expected) -> bool:
        return entry == expected if exact else abs(entry - expected) <= FLOAT_ATOL

    def digits(code: int, base: int, width: int) -> tuple[int, ...]:
        return tuple(code // base ** (width - 1 - d) % base for d in range(width))

    mismatches = dict.fromkeys(("sample", "y_marginal", "x_marginal"), 0)
    rng = random.Random(f"independent-table-checks:{seed}")
    for index in rng.sample(range(len(values)), min(samples, len(values))):
        settings, outcomes = divmod(index, block)
        word, (x, y) = digits(settings, N, 2 * n), divmod(outcomes, run)
        p = system.evaluate(digits(x, 2, n), digits(y, 2, n), word[:n], word[n:])
        mismatches["sample"] += not same(values[index], p * scale)

    words = list(product(range(N), repeat=n))
    alice = {(u, x): scale * math.prod(box.alice_marginal(a, 0, bit) for box, a, bit
                                       in zip(boxes, u, digits(x, 2, n)))
             for u in words for x, boxes in enumerate(boxes_by_x)}
    y_expected = Fraction(scale, run) if exact else scale / run
    for s, (u, _) in enumerate(product(words, repeat=2)):
        entries = values[s * block:(s + 1) * block]
        mismatches["y_marginal"] += sum(not same(sum(entries[y::run]), y_expected)
                                        for y in range(run))
        mismatches["x_marginal"] += sum(not same(sum(entries[x * run:(x + 1) * run]),
                                                 alice[u, x])
                                        for x in range(run))
    return mismatches
