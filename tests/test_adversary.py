import gc
import hashlib
import tracemalloc
import weakref
from array import array
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbell.adversary
from chainbell import (
    BoxParams,
    HashFunction,
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
    random_function,
    trivial_strategy,
    xor_function,
)

from chainbell.systems import bits_to_int

from helpers import (
    constant_function,
    exhaustive_almost_balanced,
    influence,
    lines_run_in,
    oracle_and_bits,
    oracle_majority_bits,
    oracle_or_bits,
    oracle_pivotal_profile,
    oracle_random_bits,
    oracle_tree_level,
    oracle_xor_bits,
    pivotal_index,
    pivotal_threshold,
    profile_delta,
    profile_records,
    record_index,
    record_zeros,
    tree_zeros,
)

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
    assert bits_to_int((0, 1, 0)) == 2 and bits_to_int((1, 0, 1)) == 5
    assert worked_example.bits[bits_to_int((0, 1, 0))] == WORKED_BITS[2] == 1
    assert worked_example.bits[bits_to_int((1, 0, 1))] == WORKED_BITS[5] == 0
    assert worked_example.bits[0] == 0


def test_hash_function_validation():
    with pytest.raises(ValueError):
        HashFunction(2, (0, 1, 0))  # wrong size
    with pytest.raises(ValueError):
        HashFunction(0, ())
    # -1 and 256 are no byte, 2 is a byte but no bit
    # and the int 4 is a length: bytes(4) would be four zero entries
    for bad in [(0, -1), (0, 2), (0, 256), b"\0\2", bytearray(b"\0\2"), "01", (0, 1.0), 4]:
        with pytest.raises(ValueError, match="entries must be bits"):
            HashFunction(1, bad)
    # the chunked check still finds a bad entry at the very end
    with pytest.raises(ValueError, match="entries must be bits"):
        HashFunction(17, (0, 1) * (2**16 - 1) + (0, 2))
    with pytest.raises(ValueError, match="entries must be bits"):
        HashFunction(17, b"\0\1" * (2**16 - 1) + b"\0\2")


@pytest.mark.parametrize("bad", [2, 0x80, 0xFE, 0xFF])
def test_bit_check_refuses_a_bad_entry_on_either_side_of_a_chunk_boundary(bad):
    """The check reads the table as one int per chunk: a non-bit entry
    is found at the first and last index of every chunk, not only in
    its inside.  At n = 18 the table spans several chunks."""
    chunk = chainbell.adversary._CHECK_CHUNK
    size = 2**18
    assert size >= 4 * chunk
    edges = [0, size - 1]
    for boundary in range(chunk, size, chunk):
        edges += [boundary - 1, boundary]
    good = random_function(18, 1).bits
    table = bytearray(good)
    for index in edges:
        table[index] = bad
        with pytest.raises(ValueError, match="entries must be bits"):
            HashFunction(18, bytes(table))
        table[index] = good[index]
    assert HashFunction(18, bytes(table)).bits == good


@pytest.mark.parametrize("n", range(1, 21))
def test_zeros_total_matches_counting_zero_bytes(n):
    """The chunked popcount pass gives the per-byte count, from tables
    shorter than a chunk to several chunks long."""
    for f in (xor_function(n), majority_function(n), random_function(n, 1),
              and_function(n), or_function(n),
              HashFunction(n, b"\0" * 2**n), HashFunction(n, b"\1" * 2**n)):
        assert f.zeros_total == f.bits.count(0), f.name


def test_bit_check_and_tree_add_no_table_sized_copy():
    """At random:1, n = 20, the check and zero count read the table a
    chunk at a time and peak near 3% of the table's bytes; a pass
    holding a table-sized copy peaks above its size.  The tree, whose
    levels alone take about twice the table's bytes, peaks near 2.9
    times them, and a second table-sized copy of the flipped leaves held
    while level 1 is built takes it near 3.9."""
    bits = random_function(20, 1).bits
    tracemalloc.start()
    try:
        f = HashFunction(20, bits)
        assert f.zeros_total == bits.count(0)
        check_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        f.tree
        tree_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check_peak < len(bits) / 4
    assert tree_peak < 3.5 * len(bits)


def test_truth_tables_are_stored_as_bytes():
    assert HashFunction(2, (0, 1, 1, 0)).bits == b"\0\1\1\0"
    assert HashFunction(2, bytearray(b"\0\1\1\0")).bits == b"\0\1\1\0"
    for f in (xor_function(3), majority_function(3), and_function(3), or_function(3),
              random_function(3, 0), function_from_hex("39")):
        assert type(f.bits) is bytes, f.name


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


def _no_format(*args, **kwargs):
    raise AssertionError("digits converted before n was checked")


def test_from_hex_refuses_n_out_of_range_before_converting(monkeypatch):
    """An n over MAX_FUNCTION_BITS is refused from the digit count alone:
    a 2^24-digit string would otherwise be converted, at 160 MiB, first."""
    monkeypatch.setattr(chainbell.adversary, "MAX_FUNCTION_BITS", 3)
    monkeypatch.setattr(chainbell.adversary, "format", _no_format, raising=False)
    with pytest.raises(ValueError, match=r"n must be in 1\.\.3, got 4"):
        function_from_hex("0000")


def test_from_hex_takes_hex_digits_of_either_case_only():
    assert function_from_hex("AbCd").bits == function_from_hex("abcd").bits
    assert function_from_hex("AbCd").bits == bytes(int(b) for b in format(0xABCD, "016b"))
    for digits in ["", "-3", "+39", "0x39", "3_99", " 399", "39\n", "\u0663\u0669"]:
        with pytest.raises(ValueError, match="not a hex truth table"):
            function_from_hex(digits)


def test_builders_small():
    assert xor_function(2).bits == bytes((0, 1, 1, 0))
    assert and_function(2).bits == bytes((0, 0, 0, 1))
    assert or_function(2).bits == bytes((0, 1, 1, 1))
    # even-n majority breaks ties towards 1
    assert majority_function(2).bits == bytes((0, 1, 1, 1))
    assert majority_function(3).bits == bytes((0, 0, 0, 1, 0, 1, 1, 1))


@pytest.mark.parametrize("build,oracle", [
    (xor_function, oracle_xor_bits),
    (majority_function, oracle_majority_bits),
    (and_function, oracle_and_bits),
    (or_function, oracle_or_bits),
], ids=["xor", "majority", "and", "or"])
def test_bulk_builders_match_per_index_oracles(build, oracle):
    for n in range(1, 15):
        assert build(n).bits == oracle(n), n


def test_random_function_matches_randrange_oracle():
    for seed in range(50):
        for n in range(1, 13):
            assert random_function(n, seed).bits == oracle_random_bits(n, seed), (n, seed)


@pytest.mark.parametrize("n", [17, 18])
def test_random_function_matches_randrange_oracle_across_chunks(n):
    """2^17 and 2^18 draws take more than one getrandbits chunk."""
    for seed in (0, "chunk"):
        assert random_function(n, seed).bits == oracle_random_bits(n, seed)


@pytest.mark.parametrize("build,digest", [
    (lambda: random_function(20, 0),
     "8431ef34f387297c2daa0ddbef7924bae87c713eaa11f1364a1dd7724f0b1c83"),
    (lambda: majority_function(20),
     "a2beec81c89c1ca0f1a61dd84bc41217ce92e11d5a4128ef1aa4f2065476932d"),
    (lambda: xor_function(19),
     "6846d320838bac106f856a3b8f2bbdbffb85527bf289781472d6825d45bc74aa"),
], ids=["random:0-n20", "majority-n20", "xor-n19"])
def test_large_truth_tables_are_pinned(build, digest):
    """sha256 of the tables the per-index builders gave; a change in how
    CPython packs getrandbits words would show here on every version."""
    assert hashlib.sha256(build().bits).hexdigest() == digest


@pytest.mark.parametrize("build", [
    xor_function, majority_function, and_function, or_function,
    lambda n: random_function(n, 0),
], ids=["xor", "majority", "and", "or", "random"])
def test_builders_refuse_out_of_range_n_before_building(build):
    for n in (-1, 0, 25):
        with pytest.raises(ValueError, match="n must be in 1..24"):
            build(n)


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

def _pi0(tree: Sequence[Sequence[int]], length: int, code: int) -> Fraction:
    """Pr[f = 0] over a uniform completion of the prefix; the tree has
    n + 1 levels."""
    return Fraction(tree_zeros(tree, length, code), 2 ** (len(tree) - 1 - length))


@given(hash_functions())
@settings(max_examples=60)
def test_tree_counts_are_consistent(f):
    tree = f.tree
    assert tree_zeros(tree, 0, 0) == sum(1 for b in f.bits if b == 0)
    for length in range(f.n):
        for code in range(2**length):
            assert tree_zeros(tree, length, code) == (
                tree_zeros(tree, length + 1, code << 1)
                + tree_zeros(tree, length + 1, (code << 1) | 1)
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


@given(hash_functions())
@settings(max_examples=60)
def test_zeros_total_matches_tree_root(f):
    assert f.zeros_total == tree_zeros(f.tree, 0, 0)


def test_unbalanced_functions_build_no_tree():
    for f in (and_function(12), or_function(12)):
        assert not is_almost_balanced(f)
        assert trivial_strategy(f)[1] == Fraction(1, 2) - Fraction(1, 2**12)
        assert "tree" not in vars(f)


def test_tree_type_direct():
    """The tree is a list of ``array`` levels, root first, each of the
    narrowest unsigned width: bytes while the counts stay below 256."""
    tree = xor_function(3).tree
    assert [len(level) for level in tree] == [1, 2, 4, 8]
    assert tree_zeros(tree, 0, 0) == 4
    assert influence(tree, 3, 0b00) == 1
    assert all(isinstance(level, array) for level in tree)
    assert [level.typecode for level in tree] == ["B"] * 4


def _level_itemsizes(n: int) -> list[int]:
    """Bytes per entry of each level, root first: a level whose counts
    reach 2^h needs 1 byte up to h = 7, 2 up to h = 15, else 4."""
    return [1 if h <= 7 else 2 if h <= 15 else 4 for h in range(n, -1, -1)]


@pytest.mark.parametrize("n", [7, 8, 15, 16, 17])
def test_tree_widens_at_the_lane_boundaries(n):
    """The constant-zero function fills every node: its root is 2^n, the
    largest count a lane of the root's width must hold.  A widening step
    one level late overflows there."""
    f = constant_function(n, 0)
    tree = f.tree
    assert tree[0][0] == 2**n
    assert [level.itemsize for level in tree] == _level_itemsizes(n)
    for length, level in enumerate(tree):
        assert list(level) == oracle_tree_level(f, length)


@pytest.mark.parametrize("build", [xor_function, majority_function,
                                   lambda n: random_function(n, 3)],
                         ids=["xor", "majority", "random"])
def test_tree_matches_truth_table_counts(build):
    """At n = 17 the levels span all three widths."""
    f = build(17)
    tree = f.tree
    assert [level.itemsize for level in tree] == _level_itemsizes(17)
    for length, level in enumerate(tree):
        assert list(level) == oracle_tree_level(f, length)


def test_tree_root_at_the_widest_table():
    """n = MAX_FUNCTION_BITS = 24: the constant-zero root is 2^24."""
    tree = constant_function(24, 0).tree
    assert tree[0][0] == 2**24
    assert [level.itemsize for level in tree] == _level_itemsizes(24)


def test_tree_runs_a_few_lines_per_level():
    """Each level is summed from the one below by whole-level integer
    adds, not Python code per node: at n = 16 the build runs at most 10
    lines per level, where a loop over nodes runs tens of thousands.
    Counting lines, not seconds, makes the guard deterministic."""
    f = xor_function(16)
    own = HashFunction.tree.func.__code__
    assert lines_run_in(lambda code: code is own, getattr, f, "tree") <= 10 * f.n
    assert "tree" in vars(f)


# ---------------------------------------------------------------------------
# influence

def _influence(f, i, prefix):
    return influence(f.tree, i, bits_to_int(prefix))


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
            influence(tree, i, 0)


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
    by_prefix = {}
    for rec in profile_records(profile):
        length, code, _ = rec
        by_prefix[length, code] = record_index(rec)
    assert by_prefix == {(1, 0): 2, (2, 2): 3, (2, 3): 3}
    assert profile.histogram() == {2: 4, 3: 4}


def test_pivot_records_hold_prefix_and_direction_only(worked_example):
    """Zero counts live in the tree alone; a record names its prefix and
    the direction of the more-zeros branch after it."""
    profile = build_pivotal_profile(worked_example)
    assert profile_records(profile) == ((1, 0, 0), (2, 2, 1), (2, 3, 0))
    assert [(length, bytes(marks)) for length, marks in profile.levels] == [
        (1, b"\1\0"), (2, b"\0\0\2\1")]
    assert profile.zeros_toward == 2 + 1 + 1


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
    records = profile_records(profile)
    end = 0
    for rec in records:
        length, code, _ = rec
        span = f.n - length
        assert code << span == end
        end = (code + 1) << span
        index, (zeros0, zeros1) = record_index(rec), record_zeros(f, rec)
        delta = influence(f.tree, index, code)
        assert delta >= pivotal_threshold(f.n)
        assert delta == Fraction(abs(zeros0 - zeros1), 2 ** (f.n - index))
    assert end == 2**f.n
    zeros = [record_zeros(f, r) for r in records]
    toward = sum(z[sigma] for (_, _, sigma), z in zip(records, zeros))
    away = sum(z[1 - sigma] for (_, _, sigma), z in zip(records, zeros))
    assert (profile.zeros_toward, f.zeros_total - profile.zeros_toward) == (toward, away)
    histogram = {}
    for rec in records:
        length, _, _ = rec
        index = record_index(rec)
        histogram[index] = histogram.get(index, 0) + 2 ** (f.n - length)
    assert list(profile.histogram().items()) == sorted(histogram.items())


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


def assert_profile_matches_record_oracle(f):
    """The level-wise walk's marks give the depth-first oracle's records
    in the same order, its ``zeros_toward`` and its histogram, and
    ``pivot`` at each record's first string returns the record's index
    and sigma as ints: a bool sigma would serialise as true/false."""
    profile = build_pivotal_profile(f)
    records, zeros_toward, histogram = oracle_pivotal_profile(f)
    assert profile_records(profile) == records
    assert all(type(marks) is bytes for _, marks in profile.levels)
    for length, code, sigma in records:
        pivot = profile.pivot(code << (f.n - length))
        assert pivot == (length + 1, sigma)
        assert all(type(field) is int for field in pivot)
    assert profile.zeros_toward == zeros_toward
    assert list(profile.histogram().items()) == list(histogram.items())


def test_walk_matches_record_oracle_every_3bit_function():
    functions = exhaustive_almost_balanced(3)
    assert len(functions) == 182
    for f in functions:
        assert_profile_matches_record_oracle(f)


@pytest.mark.parametrize("build", [xor_function, majority_function], ids=["xor", "majority"])
def test_walk_matches_record_oracle_xor_and_majority(build):
    functions = [f for f in map(build, range(1, 17)) if is_almost_balanced(f)]
    assert len(functions) >= 14  # majority on 2 and 4 bits is too biased
    for f in functions:
        assert_profile_matches_record_oracle(f)


@given(st.integers(1, 14), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_walk_matches_record_oracle_random_functions(n, seed):
    f = random_function(n, seed)
    if not is_almost_balanced(f):
        return
    assert_profile_matches_record_oracle(f)


def _dictator(n: int, k: int, negated: bool) -> HashFunction:
    """f = x_k, or its negation: blocks of 2^(n - k) zeros and as many
    ones, alternating from the start, or from the ones for the negation."""
    block = 1 << (n - k)
    zeros, ones = bytes(block), b"\1" * block
    return HashFunction(n, ((ones + zeros) if negated else (zeros + ones)) * (1 << (k - 1)))


@pytest.mark.parametrize("negated", [False, True], ids=["x_k", "not-x_k"])
@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17])
def test_walk_pivots_every_prefix_before_a_dictator_bit(n, negated):
    """f = x_k pivots at every length-(k - 1) prefix, and nowhere before:
    there |z0 - z1| = 2^(n - k), the widest difference a lane of that
    level must hold, so every k covers the lane widths on both sides of
    the switches at heights 6/7 and 14/15.  Sigma is 0 for x_k and 1 for
    its negation, and the sigma branches hold all 2^(n - 1) zeros."""
    sigma = int(negated)
    for k in range(1, n + 1):
        profile = build_pivotal_profile(_dictator(n, k, negated))
        expected = tuple((k - 1, code, sigma) for code in range(1 << (k - 1)))
        assert profile_records(profile) == expected
        assert profile.zeros_toward == 2 ** (n - 1)
        assert profile.histogram() == {k: 2**n}


def _half_dictator(n: int) -> HashFunction:
    """f = x_2 where x_1 = 0, and the xor of x_2..x_n where x_1 = 1.  The
    prefix 0 pivots at L = 1 and the prefix 1 does not, so the levels
    from L = 2 on are walked over the live half only, down to L = n - 1,
    where the xor half pivots."""
    quarter = 1 << (n - 2)
    return HashFunction(n, bytes(quarter) + b"\1" * quarter + xor_function(n - 1).bits,
                        "half-dictator")


@pytest.mark.parametrize("n", [10, 18])
def test_walk_decides_the_live_half_of_a_half_dictator(n):
    """The half-dictator's profile matches the oracle.  Its first pivot is
    at L = 1 and its last at L = n - 1, so the levels in between are
    walked over the live prefixes only, and at n = 18 they cross both
    lane-width switches: the 16/8-bit level pair at L = n - 8 and the
    32/16-bit pair at L = n - 16."""
    f = _half_dictator(n)
    assert_profile_matches_record_oracle(f)
    levels = build_pivotal_profile(f).levels
    assert [length for length, _ in levels] == [1, n - 1]
    live = {(f.tree[length].typecode, f.tree[length + 1].typecode)
            for length in range(2, n)}
    assert ("H", "B") in live
    if n == 18:
        assert ("I", "H") in live


@pytest.mark.parametrize("build", [xor_function, majority_function,
                                   lambda n: random_function(n, 1), _half_dictator],
                         ids=["xor", "majority", "random:1", "half-dictator"])
def test_every_walked_level_is_decided_by_level_marks(monkeypatch, build):
    """``_level_marks`` states the pivot rule for every level the walk
    visits, whether every prefix of it is live or only some are: one
    call per level, from the root to the deepest level with a pivot."""
    profile = build_pivotal_profile(build(16))
    calls = []
    level_marks = chainbell.adversary._level_marks

    def counted(above, z0, threshold):
        calls.append(len(above))
        return level_marks(above, z0, threshold)

    monkeypatch.setattr(chainbell.adversary, "_level_marks", counted)
    build_pivotal_profile(profile.function)
    assert len(calls) == profile.levels[-1][0] + 1


def test_record_count_builds_no_records():
    """``len(profile.records)`` sums the levels' pivot counts: at xor
    n = 16, with 2^15 pivotal prefixes, it runs a line or two in the
    package, where counting pivot by pivot runs lines per pivot."""
    profile = build_pivotal_profile(xor_function(16))
    in_package = lambda code: code.co_filename == chainbell.adversary.__file__
    assert lines_run_in(in_package, len, profile.records) <= 5
    assert len(profile.records) == 2**15


def test_dropped_profile_is_freed_without_the_cyclic_collector():
    """A profile is in no reference cycle: with the cyclic collector off,
    dropping the last references frees the profile, its function and the
    function's cached tree at once, and ``len(profile.records)`` keeps
    its value."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        f = random_function(12, 1)
        profile = build_pivotal_profile(f)
        assert len(f.tree) == f.n + 1 and len(profile.records) == sum(profile.counts) > 0
        refs = weakref.ref(profile), weakref.ref(f)
        del profile, f
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("build", [xor_function, majority_function, _half_dictator],
                         ids=["xor", "majority", "half-dictator"])
def test_walk_runs_a_few_lines_per_level(build):
    """The walk is bulk operations per tree level, not Python code per
    node: at n = 16 it runs at most 20 lines per level, where a walk with
    a line per node runs hundreds of thousands on xor, which pivots only
    at its last bit.  The half-dictator walks its levels from L = 2 on
    over the live prefixes only.  Counting lines, not seconds, makes the
    guard deterministic on any machine."""
    f = build(16)
    assert len(f.tree) == f.n + 1  # the tree is built before the count
    own = build_pivotal_profile.__code__
    assert lines_run_in(lambda code: code is own, build_pivotal_profile, f) <= 20 * f.n


@pytest.mark.parametrize("bits", [(0,) * 8, (0,) * 30 + (1, 1)],
                         ids=["no-prefix-pivots", "one-prefix-pivots"])
def test_walk_refuses_a_path_without_a_pivot(monkeypatch, bits):
    """Only a function that is not almost balanced has such a path.  With
    the balance check patched out, the walk still refuses one, both
    before any prefix pivots and after one has."""
    monkeypatch.setattr(chainbell.adversary, "is_almost_balanced", lambda f: True)
    f = HashFunction(len(bits).bit_length() - 1, bits)
    with pytest.raises(AssertionError, match="no pivotal index"):
        oracle_pivotal_profile(f)
    with pytest.raises(AssertionError, match="no pivotal index"):
        build_pivotal_profile(f)


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
    covered = sum(2 ** (f.n - length) for length, _, _ in profile_records(profile))
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
    records = profile_records(profile)
    assert sum(2 ** (n - length) for length, _, _ in records) == 2**n
    for rec in records:
        _, code, _ = rec
        assert influence(f.tree, record_index(rec), code) >= pivotal_threshold(n)


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
        assert influence(tree, j, code >> (n - j + 1)) == 2 * steps[j - 1]
        assert influence(tree, j, code >> (n - j + 1)) >= Fraction(2, 3 * n)


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
