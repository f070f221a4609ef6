"""Shared test fixtures: mutated systems and independent oracles.

The oracles here recompute quantities by direct enumeration only, never
through the library's closed forms, so they stay valid checks of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

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
    pivotal_index,
    random_function,
)
from chainbell.nonsignalling import CONDITION_SUBSET, NsViolation
from chainbell.systems import Partition, SystemEvaluator


class FuturePeekingSystem(SystemEvaluator):
    """Two-pair system whose first pair is biased by the *second* output
    bit -- the prefix property violated on purpose."""

    n = 2

    def __init__(self, params: BoxParams):
        self.base = build_unbiased_box(params)
        self.biased = (
            bias_box(self.base, 0, params.eps),
            bias_box(self.base, 1, params.eps),
        )
        self.n_settings = params.n_settings

    def evaluate(self, x, y, u, v):
        first = self.biased[x[1]]
        return first.prob(u[0], v[0], x[0], y[0]) * self.base.prob(u[1], v[1], x[1], y[1])


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


class IntZeroSystem(PerPointSystem):
    """Exact wrapper that returns the int 0 wherever the wrapped system's
    value is zero."""

    def evaluate(self, x, y, u, v):
        return self.inner.evaluate(x, y, u, v) or 0


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
    (record,) = [r for r in profile.records
                 if (r.prefix_len, r.prefix_code) == (index - 1, prefix)]
    return profile.function.tree.influence(record.index, record.prefix_code)


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
        if f.value(x) != 0:
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
