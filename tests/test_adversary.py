from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbell import (
    BoxParams,
    HashFunction,
    ZeroCountTree,
    and_function,
    bias_box,
    build_attack_partition,
    build_pivotal_profile,
    build_unbiased_box,
    function_from_hex,
    is_almost_balanced,
    majority_function,
    or_function,
    parse_function_spec,
    pivotal_index,
    pivotal_threshold,
    random_function,
    trivial_strategy,
    xor_function,
)

from chainbell._coding import bits_to_int

from helpers import constant_function, exhaustive_almost_balanced, profile_delta

# The worked three-bit example: truth table 00111001 (hex 39).
WORKED_BITS = (0, 0, 1, 1, 1, 0, 0, 1)


@pytest.fixture
def worked_example():
    return HashFunction(3, WORKED_BITS, "worked3")


@st.composite
def hash_functions(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.tuples(*([st.integers(0, 1)] * 2**n)))
    return HashFunction(n, bits, "hyp")


# ---------------------------------------------------------------------------
# truth table plumbing

def test_msb_first_index_convention(worked_example):
    # x_1 is the most significant bit of the table index
    assert worked_example.value((0, 1, 0)) == WORKED_BITS[2] == 1
    assert worked_example.value((1, 0, 1)) == WORKED_BITS[5] == 0
    assert worked_example.bits[0] == 0


def test_hash_function_validation():
    with pytest.raises(ValueError):
        HashFunction(2, (0, 1, 0))  # wrong size
    with pytest.raises(ValueError):
        HashFunction(1, (0, 2))
    with pytest.raises(ValueError):
        HashFunction(0, ())


def test_from_hex_fig_table(worked_example):
    f = function_from_hex("39")
    assert f.n == 3
    assert f.bits == worked_example.bits


def test_from_hex_errors():
    with pytest.raises(ValueError):
        function_from_hex("zz")
    with pytest.raises(ValueError):
        function_from_hex("393")  # 12 bits, not a power of two
    with pytest.raises(ValueError):
        function_from_hex("39", n=4)  # encodes n=3


def test_builders_small():
    assert xor_function(2).bits == (0, 1, 1, 0)
    assert and_function(2).bits == (0, 0, 0, 1)
    assert or_function(2).bits == (0, 1, 1, 1)
    # even-n majority breaks ties towards 1
    assert majority_function(2).bits == (0, 1, 1, 1)
    assert majority_function(3).bits == (0, 0, 0, 1, 0, 1, 1, 1)


def test_random_function_is_seed_stable():
    a = random_function(4, 7)
    b = random_function(4, 7)
    c = random_function(4, 8)
    assert a.bits == b.bits
    assert a.bits != c.bits
    assert a.name == "random:7"


def test_parse_function_spec():
    assert parse_function_spec("xor", 3).bits == xor_function(3).bits
    assert parse_function_spec("majority", 3).name == "majority"
    assert parse_function_spec("random:5", 3).bits == random_function(3, "5").bits
    assert parse_function_spec("hex:39").n == 3
    with pytest.raises(ValueError):
        parse_function_spec("xor")  # needs n
    with pytest.raises(ValueError, match="random functions need an explicit n"):
        parse_function_spec("random:5")
    with pytest.raises(ValueError):
        parse_function_spec("nope", 3)


# ---------------------------------------------------------------------------
# zero-count tree

def _pi0(tree: ZeroCountTree, length: int, code: int) -> Fraction:
    """Pr[f = 0] over a uniform completion of the prefix."""
    return Fraction(tree.zeros(length, code), 2 ** (tree.n - length))


@given(hash_functions())
@settings(max_examples=60)
def test_tree_counts_are_consistent(f):
    tree = f.tree
    assert tree.zeros(0, 0) == sum(1 for b in f.bits if b == 0)
    for length in range(f.n):
        for code in range(2**length):
            assert tree.zeros(length, code) == (
                tree.zeros(length + 1, code << 1)
                + tree.zeros(length + 1, (code << 1) | 1)
            )
    for code in range(2**f.n):
        assert _pi0(tree, f.n, code) in (Fraction(0), Fraction(1))


@given(hash_functions())
@settings(max_examples=40)
def test_pi0_averaging_identity(f):
    tree = f.tree
    for length in range(f.n):
        for code in range(2**length):
            assert _pi0(tree, length, code) == Fraction(1, 2) * (
                _pi0(tree, length + 1, code << 1) + _pi0(tree, length + 1, (code << 1) | 1)
            )


def test_tree_type_direct():
    tree = ZeroCountTree.from_function(xor_function(3))
    assert tree.zeros(0, 0) == 4
    assert tree.influence(3, 0b00) == 1


# ---------------------------------------------------------------------------
# influence

def _influence(f, i, prefix):
    return f.tree.influence(i, bits_to_int(prefix))


def test_influence_worked_values(worked_example):
    assert _influence(worked_example, 1, ()) == 0
    assert _influence(worked_example, 2, (0,)) == 1
    assert _influence(worked_example, 2, (1,)) == 0
    assert _influence(worked_example, 3, (1, 0)) == 1
    assert _influence(worked_example, 3, (1, 1)) == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_influence_xor(n):
    f = xor_function(n)
    for i in range(1, n):
        for prefix in product((0, 1), repeat=i - 1):
            assert _influence(f, i, prefix) == 0
    for prefix in product((0, 1), repeat=n - 1):
        assert _influence(f, n, prefix) == 1


def test_influence_prefix_length_checked(worked_example):
    """The bit index, one past the prefix length, must lie in 1..n."""
    tree = worked_example.tree
    for i in (0, 4):
        with pytest.raises(ValueError, match="index must be in 1..3"):
            tree.influence(i, 0)


# ---------------------------------------------------------------------------
# almost balanced

def test_worked_example_is_almost_balanced(worked_example):
    assert is_almost_balanced(worked_example)


def test_constant_is_not_almost_balanced():
    assert not is_almost_balanced(constant_function(3, 0))


def test_two_zeros_on_three_bits_is_not_almost_balanced():
    f = HashFunction(3, (0, 0, 1, 1, 1, 1, 1, 1))
    assert not is_almost_balanced(f)  # |2*2/8 - 1| = 1/2 > 1/3


# ---------------------------------------------------------------------------
# pivotal index

def test_pivotal_worked_x010(worked_example):
    assert pivotal_index(worked_example, (0, 1, 0)) == (2, 0, Fraction(1))


def test_pivotal_worked_x101(worked_example):
    assert pivotal_index(worked_example, (1, 0, 1)) == (3, 1, Fraction(1))


def test_pivotal_worked_profile_prefixes(worked_example):
    profile = build_pivotal_profile(worked_example)
    by_prefix = {(r.prefix_len, r.prefix_code): r.index for r in profile.records}
    assert by_prefix == {(1, 0): 2, (2, 2): 3, (2, 3): 3}
    assert profile.histogram() == {2: 4, 3: 4}


def test_pivotal_xor_always_last():
    f = xor_function(4)
    for x in product((0, 1), repeat=4):
        index, sigma, delta = pivotal_index(f, x)
        assert index == 4 and delta == 1
        # direction points at the parity-completing bit
        assert sigma == (x[0] ^ x[1] ^ x[2])


def test_pivotal_checks_string_length(worked_example):
    for x in [(0, 1), (0, 1, 0, 0)]:
        with pytest.raises(ValueError, match=f"x must have 3 bits, got {len(x)}"):
            pivotal_index(worked_example, x)


def test_pivotal_requires_almost_balanced():
    with pytest.raises(ValueError, match="almost balanced"):
        pivotal_index(constant_function(3, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="almost balanced"):
        build_pivotal_profile(and_function(3))


def assert_profile_matches_pointwise_walk(f):
    """The profile's prefix walk agrees with ``pivotal_index`` on every
    string, and its records tile [0, 2^n) in ascending order, each with
    an influence that reaches the threshold and matches its zero counts."""
    profile = build_pivotal_profile(f)
    for code, x in enumerate(product((0, 1), repeat=f.n)):
        index, sigma, delta = pivotal_index(f, x)
        assert profile.pivot(code) == (index, sigma)
        assert profile_delta(profile, code) == delta
        assert delta >= pivotal_threshold(f.n)
    end = 0
    for rec in profile.records:
        span = f.n - rec.prefix_len
        assert rec.prefix_code << span == end
        end = (rec.prefix_code + 1) << span
        delta = f.tree.influence(rec.index, rec.prefix_code)
        assert delta >= pivotal_threshold(f.n)
        assert delta == Fraction(abs(rec.zeros0 - rec.zeros1), 2 ** (f.n - rec.index))
    assert end == 2**f.n


@given(hash_functions(min_n=2, max_n=5))
@settings(max_examples=60)
def test_profile_agrees_with_pointwise_walk(f):
    if not is_almost_balanced(f):
        return
    assert_profile_matches_pointwise_walk(f)


def test_profile_agrees_with_pointwise_walk_every_3bit_function():
    functions = exhaustive_almost_balanced(3)
    assert len(functions) == 182  # 3, 4 or 5 zeros among 8 entries
    for f in functions:
        assert_profile_matches_pointwise_walk(f)


@given(st.integers(1, 10), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_profile_agrees_with_pointwise_walk_random_functions(n, seed):
    f = random_function(n, seed)
    if not is_almost_balanced(f):
        return
    assert_profile_matches_pointwise_walk(f)


@given(hash_functions(min_n=2, max_n=5))
@settings(max_examples=40)
def test_prefix_property(f):
    """Strings sharing the prefix before their pivot share the pivot data."""
    if not is_almost_balanced(f):
        return
    profile = build_pivotal_profile(f)
    for x in product((0, 1), repeat=f.n):
        index, sigma, _ = pivotal_index(f, x)
        prefix = x[: index - 1]
        for suffix in product((0, 1), repeat=f.n - index + 1):
            other = prefix + suffix
            assert pivotal_index(f, other)[:2] == (index, sigma)
    # and the profile groups cover all strings exactly once
    covered = sum(2 ** (f.n - r.prefix_len) for r in profile.records)
    assert covered == 2**f.n


def test_pivotal_exists_exhaustively_n2():
    for f in exhaustive_almost_balanced(2):
        for x in product((0, 1), repeat=2):
            index, sigma, delta = pivotal_index(f, x)
            assert delta >= pivotal_threshold(2)


@pytest.mark.parametrize("n,seed", [(8, 0), (10, 3), (12, 5), (12, 11)])
def test_pivotal_exists_for_random_large_n(n, seed):
    seed_offset = 0
    f = random_function(n, seed)
    while not is_almost_balanced(f):
        seed_offset += 100
        f = random_function(n, seed + seed_offset)
    profile = build_pivotal_profile(f)
    assert sum(2 ** (n - r.prefix_len) for r in profile.records) == 2**n
    assert all(f.tree.influence(r.index, r.prefix_code) >= pivotal_threshold(n)
               for r in profile.records)


@given(hash_functions(min_n=2, max_n=5))
@settings(max_examples=60)
def test_influence_chain_argument(f):
    """Every string whose leaf value differs enough from the root rate
    passes a 1/(3n) step, which doubles into a 2/(3n) influence."""
    tree = f.tree
    n = f.n
    root = _pi0(tree, 0, 0)
    for code in range(2**n):
        leaf = _pi0(tree, n, code)
        if abs(root - leaf) < Fraction(1, 3):
            continue
        steps = []
        for j in range(1, n + 1):
            prefix_j = code >> (n - j)
            steps.append(abs(_pi0(tree, j, prefix_j) - _pi0(tree, j - 1, prefix_j >> 1)))
        assert max(steps) >= Fraction(1, 3 * n)
        j = max(range(n), key=lambda k: steps[k]) + 1
        # averaging identity: the step is half the influence at that node
        assert tree.influence(j, code >> (n - j + 1)) == 2 * steps[j - 1]
        assert tree.influence(j, code >> (n - j + 1)) >= Fraction(2, 3 * n)


# ---------------------------------------------------------------------------
# trivial strategy

def test_trivial_strategy_constant():
    assert trivial_strategy(constant_function(3, 0)) == (0, Fraction(1, 2))
    assert trivial_strategy(constant_function(3, 1)) == (1, Fraction(1, 2))


def test_trivial_strategy_balanced_has_no_advantage():
    assert trivial_strategy(xor_function(3)) == (0, Fraction(0))


def test_trivial_strategy_beats_bound_when_unbalanced():
    f = HashFunction(3, (0, 0, 1, 1, 1, 1, 1, 1))  # 2 zeros
    guess, distance = trivial_strategy(f)
    assert guess == 1
    assert distance == Fraction(1, 4)
    assert distance > Fraction(1, 6)


# ---------------------------------------------------------------------------
# attack partition structure

def test_attack_partition_n1_identity_gives_single_biased_boxes():
    f = HashFunction(1, (0, 1), "identity")
    params = BoxParams.rational(2, Fraction(1, 8))
    partition = build_attack_partition(f, params)
    base = build_unbiased_box(params)
    b0 = bias_box(base, 0, params.eps)
    b1 = bias_box(base, 1, params.eps)
    assert partition.weights == (Fraction(1, 2), Fraction(1, 2))
    for part, box in zip(partition.systems, (b0, b1)):
        for a, b, x, y in product(range(2), range(2), (0, 1), (0, 1)):
            assert part.evaluate((x,), (y,), (a,), (b,)) == box.prob(a, b, x, y)


def test_attack_partition_xor_n2_biases_second_box():
    f = xor_function(2)
    params = BoxParams.rational(2, Fraction(1, 8))
    partition = build_attack_partition(f, params)
    base = build_unbiased_box(params)
    b0 = bias_box(base, 0, params.eps)
    b1 = bias_box(base, 1, params.eps)
    part0 = partition.systems[0]
    for x in product((0, 1), repeat=2):
        sigma = x[0]  # towards an even parity completion
        for y, u, v in product(product((0, 1), repeat=2),
                               product(range(2), repeat=2),
                               product(range(2), repeat=2)):
            expected = base.prob(u[0], v[0], x[0], y[0]) * (
                (b0 if sigma == 0 else b1).prob(u[1], v[1], x[1], y[1])
            )
            assert part0.evaluate(x, y, u, v) == expected


def test_attack_partition_rejects_unbalanced():
    with pytest.raises(ValueError, match="almost balanced"):
        build_attack_partition(and_function(3), BoxParams.rational(2, Fraction(1, 8)))
