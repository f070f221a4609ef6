"""Joint tables built from boxes against the per-point ``evaluate`` path.

``materialize`` builds a ``BoxProductSystem``'s table from its boxes.
Wrapping the same system in ``PerPointSystem`` forces the generic path,
which calls ``evaluate`` at every point; the two tables must be
identical, down to the denominator and the bits of every float.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbell import (
    BoxParams,
    HashFunction,
    InfeasibleSizeError,
    Partition,
    ProductSystem,
    SinglePairBox,
    bias_box,
    build_attack_partition,
    build_product_system,
    build_unbiased_box,
    check_time_ordered,
    is_almost_balanced,
    materialize,
    replay_violation,
    verify_partition,
)

from helpers import (
    FuturePeekingSystem,
    IntZeroSystem,
    NegatedPointSystem,
    PerPointSystem,
    seeded_almost_balanced,
)

EPS_VALUES = (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), "quantum")


def _params(n_settings, eps) -> BoxParams:
    if eps == "quantum":
        return BoxParams.quantum(n_settings)
    return BoxParams.rational(n_settings, eps)


def assert_same_table(fast, slow):
    assert fast.den == slow.den
    assert len(fast.values) == len(slow.values)
    if slow.den is None:
        assert [v.hex() for v in fast.values] == [v.hex() for v in slow.values]
    else:
        assert fast.values == slow.values


@st.composite
def shapes(draw):
    """(N, n, eps): n <= 4 for N = 2 and n <= 3 for N = 3."""
    n_settings = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 4 if n_settings == 2 else 3))
    return n_settings, n, draw(st.sampled_from(EPS_VALUES))


@st.composite
def attack_cases(draw):
    """(N, n, eps, truth table of a random almost balanced function)."""
    n_settings, n, eps = draw(shapes())
    bits = draw(st.lists(st.integers(0, 1), min_size=2**n, max_size=2**n).filter(
        lambda b: is_almost_balanced(HashFunction(n, tuple(b)))))
    return n_settings, n, eps, tuple(bits)


@given(attack_cases())
@settings(max_examples=6, deadline=None)
@example((2, 4, Fraction(1, 8), seeded_almost_balanced(4, 1)[0].bits))
@example((3, 3, "quantum", seeded_almost_balanced(3, 1)[0].bits))
def test_attacked_parts_match_per_point_tables(case):
    n_settings, n, eps, bits = case
    partition = build_attack_partition(HashFunction(n, bits), _params(n_settings, eps))
    for part in partition.systems:
        assert_same_table(materialize(part), materialize(PerPointSystem(part)))


@given(shapes(), st.lists(st.sampled_from((None, 0, 1)), min_size=4, max_size=4))
@settings(max_examples=8, deadline=None)
@example((2, 4, Fraction(1, 3)), [None, 1, None, 0])
@example((2, 2, Fraction(1, 8)), [None, 1, None, None])
@example((3, 3, "quantum"), [None, None, None, None])
def test_product_systems_match_per_point_tables(shape, directions):
    """Homogeneous and heterogeneous products: each position holds the
    base box (None) or the base box biased towards that bit."""
    n_settings, n, eps = shape
    params = _params(n_settings, eps)
    box = build_unbiased_box(params)
    system = ProductSystem(tuple(
        box if sigma is None else bias_box(box, sigma, params.eps)
        for sigma in directions[:n]
    ))
    assert_same_table(materialize(system), materialize(PerPointSystem(system)))


def test_max_evals_refuses_before_any_work():
    calls = []

    class CountingProductSystem(ProductSystem):
        def pair_boxes(self, x_code):
            calls.append(x_code)
            return super().pair_boxes(x_code)

    class CountingPerPointSystem(PerPointSystem):
        def evaluate(self, x, y, u, v):
            calls.append((x, y, u, v))
            return super().evaluate(x, y, u, v)

    box = build_unbiased_box(_params(2, Fraction(1, 8)))
    system = CountingProductSystem((box,) * 3)
    entries = 16**3
    for candidate in (system, CountingPerPointSystem(system)):
        with pytest.raises(InfeasibleSizeError, match=str(entries)):
            materialize(candidate, max_evals=entries - 1)
        assert calls == []
    materialize(system, max_evals=entries)
    assert calls == list(range(8))  # built from its boxes, one lookup per x


# ---------------------------------------------------------------------------
# systems that must keep the per-point path

def test_negated_point_over_product_system_fails_nonnegative():
    params = _params(2, Fraction(1, 8))
    base = build_product_system(build_unbiased_box(params), 2)
    point = ((0, 1), (1, 1), (0, 1), (1, 0))
    negated = NegatedPointSystem(base, point)
    table = materialize(negated)
    assert Fraction(table.values[_index(point, 2, 2)], table.den) == -base.evaluate(*point) < 0
    partition = Partition(((Fraction(1, 2), negated), (Fraction(1, 2), base)))
    report = verify_partition(partition, base, constraint="none")
    assert not report.part_reports[0].nonnegative
    assert report.part_reports[1].nonnegative
    assert not report.passed


def _index(point, n: int, N: int) -> int:
    x, y, u, v = point
    code = 0
    for digits, base in ((u, N), (v, N), (x, 2), (y, 2)):
        for d in digits:
            code = code * base + d
    return code


def test_subclass_overriding_evaluate_is_evaluated_per_point():
    class ReweightedProductSystem(ProductSystem):
        def evaluate(self, x, y, u, v):
            val = super().evaluate(x, y, u, v)
            return 2 * val if x[0] == 0 else val

    box = build_unbiased_box(_params(2, Fraction(1, 8)))
    plain = materialize(ProductSystem((box, box)))
    table = materialize(ReweightedProductSystem((box, box)))
    for index in range(len(table.values)):
        x_first = (index >> 3) & 1  # index = ((u * 4 + v) * 4 + x) * 4 + y
        scale = 2 if x_first == 0 else 1
        assert (Fraction(table.values[index], table.den)
                == scale * Fraction(plain.values[index], plain.den))


@pytest.mark.parametrize("eps", [Fraction(1, 8), "quantum"])
def test_future_peeking_system_still_caught_with_replayable_witnesses(eps):
    system = FuturePeekingSystem(_params(2, eps))
    report = check_time_ordered(system)
    assert not report.passed and report.violations
    for witness in report.violations:
        left, right = replay_violation(system, witness)
        if report.tolerance == 0:
            assert (left, right) == (witness.left, witness.right)
        else:
            assert abs(left - witness.left) <= report.tolerance
            assert abs(right - witness.right) <= report.tolerance


# ---------------------------------------------------------------------------
# exactness

def test_int_valued_tables_stay_exact():
    """An exact evaluator returning the int 0 keeps a zero-tolerance table."""
    inner = build_product_system(build_unbiased_box(_params(2, Fraction(0))), 2)
    reference = materialize(inner)
    table = materialize(IntZeroSystem(inner))
    assert 0 in table.values and table.exact
    assert table.den == reference.den and table.values == reference.values
    report = check_time_ordered(IntZeroSystem(inner), table=table)
    assert report.passed and report.tolerance == 0


def test_box_with_int_cells_is_exact():
    box = build_unbiased_box(_params(2, Fraction(0)))
    int_box = SinglePairBox(2, tuple(0 if c == 0 else c for c in box.cells))
    assert any(type(c) is int for c in int_box.cells) and int_box.exact
    system = build_product_system(int_box, 2)
    table = materialize(system)
    assert table.exact
    assert_same_table(table, materialize(PerPointSystem(system)))


def test_int_weights_keep_the_convex_check_exact():
    """Weights 1 and 0 are exact: a part 5e-14 off the base must fail."""
    eps = Fraction(1, 10**13)
    box = build_unbiased_box(_params(2, eps))
    base = build_product_system(box, 1)
    shifted = build_product_system(bias_box(box, 0, eps), 1)
    report = verify_partition(Partition(((1, shifted), (0, base))), base, constraint="none")
    assert report.weights_ok
    assert not report.convex_ok and report.convex_mismatch_total == 16
