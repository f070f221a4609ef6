"""Joint tables built from boxes against the per-point ``evaluate`` path.

``materialize`` builds a ``BoxProductSystem``'s table from its boxes.
Wrapping the same system in ``PerPointSystem`` forces the generic path,
which calls ``evaluate`` at every point (``helpers.oracle_table`` builds
each such table once per session); the two tables must be identical,
down to the denominator and the bits of every float.
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
    parse_function_spec,
    replay_violation,
    verify_partition,
)
from chainbell import nonsignalling
from chainbell.boxes import all_exact
from chainbell.nonsignalling import MAX_WITNESSES
from chainbell.systems import BoxProductSystem

from helpers import (
    FuturePeekingSystem,
    IntZeroSystem,
    NegatedPointSystem,
    PerPointSystem,
    oracle_table,
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
    assert list(map(type, fast.values)) == list(map(type, slow.values))
    if slow.den is None:
        assert [v.hex() for v in fast.values] == [v.hex() for v in slow.values]
    else:
        assert list(fast.values) == list(slow.values)


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
        assert_same_table(materialize(part), oracle_table(part))


def assert_entries_are_prob_products(tables, boxes):
    """Every entry of each table equals the product, in position order
    from 1, of each box's ``prob`` at the entry's decoded point.  The
    tables share one layout and one exactness; exact products are taken
    as a numerator and a denominator."""
    first = tables[0]
    for index in range(len(first.values)):
        x, y, u, v = first.point(index)
        num = den = want = 1
        for j, box in enumerate(boxes):
            cell = box.prob(u[j], v[j], x[j], y[j])
            if first.exact:
                num, den = num * cell.numerator, den * cell.denominator
            else:
                want *= cell
        if first.exact:
            assert all(t.values[index] * den == num * t.den for t in tables)
        else:
            assert all(t.values[index].hex() == float(want).hex() for t in tables)


#: A position holding the box whose 4N^2 exact cells are pairwise distinct.
DISTINCT = "distinct"


@given(shapes(), st.lists(st.sampled_from((None, 0, 1, DISTINCT)), min_size=4, max_size=4))
@settings(max_examples=8, deadline=None)
@example((2, 4, Fraction(1, 3)), [None, 1, None, 0])
@example((2, 2, Fraction(1, 8)), [None, 1, None, None])
@example((2, 3, Fraction(1, 8)), [0, 0, None, None])  # g = 4, split over two rows
@example((3, 3, "quantum"), [None, None, None, None])
@example((3, 2, Fraction(1, 8)), [DISTINCT, 0, None, None])
@example((2, 3, "quantum"), [1, DISTINCT, DISTINCT, None])
def test_product_systems_match_per_point_tables(shape, directions):
    """Homogeneous and heterogeneous products: each position holds the
    base box (None), the base box biased towards that bit, or a box with
    pairwise distinct cells, where reading a cell at swapped settings or
    outcomes changes the table.  Both paths agree with each other and
    with the boxes' ``prob``."""
    n_settings, n, eps = shape
    params = _params(n_settings, eps)
    box = build_unbiased_box(params)
    distinct = SinglePairBox(n_settings, tuple(
        Fraction(k + 1, 97) for k in range(4 * n_settings**2)))
    boxes = tuple(
        box if sigma is None else distinct if sigma == DISTINCT
        else bias_box(box, sigma, params.eps)
        for sigma in directions[:n]
    )
    fast = materialize(ProductSystem(boxes))
    slow = oracle_table(ProductSystem(boxes))
    assert_same_table(fast, slow)
    assert_entries_are_prob_products((fast, slow), boxes)


class BoxesByX(BoxProductSystem):
    """A box product given by its n boxes at every x."""

    def __init__(self, boxes_by_x):
        self.boxes_by_x = boxes_by_x
        self.n = len(boxes_by_x[0])
        self.n_settings = boxes_by_x[0][0].n_settings

    def pair_boxes(self, x_code):
        return self.boxes_by_x[x_code]


def _mixed(n, N):
    """x = 0 holds exact boxes only; every other x holds one float box, at
    position x mod n.  Fifths are not dyadic, so a float product of exact
    cells can differ from the float of their exact product."""
    exact = build_unbiased_box(_params(N, Fraction(1, 5)))
    quantum = build_unbiased_box(_params(N, "quantum"))
    return [(exact,) * n] + [tuple(quantum if j == x % n else exact for j in range(n))
                             for x in range(1, 2**n)]


def _reads_last_bit(n, eps):
    """Position 1's box is biased towards x_n: no prefix property."""
    params = _params(2, eps)
    box = build_unbiased_box(params)
    biased = (bias_box(box, 0, params.eps), bias_box(box, 1, params.eps))
    return [(biased[x & 1],) + (box,) * (n - 1) for x in range(2**n)]


def _unread_float_cell(n):
    """Position 1's box, for strings with x_1 = 0, holds one float cell at
    x = 1, which no string reads: the table stays exact."""
    box = build_unbiased_box(_params(2, Fraction(1, 8)))
    cells = list(box.cells)
    cells[2] = float(cells[2])  # (a, b, x, y) = (0, 0, 1, 0)
    unread = SinglePairBox(2, tuple(cells))
    return [(unread if x < 2 ** (n - 1) else box,) + (box,) * (n - 1) for x in range(2**n)]


def _attacked(spec, n, eps):
    part = build_attack_partition(parse_function_spec(spec, n), _params(2, eps)).systems[1]
    return [part.pair_boxes(x) for x in range(2**n)]


@pytest.mark.parametrize("boxes_by_x", [
    _mixed(4, 2),
    _mixed(3, 3),
    _reads_last_bit(3, Fraction(1, 8)),
    _reads_last_bit(3, "quantum"),
    _attacked("majority", 3, Fraction(0)),
    _attacked("majority", 3, Fraction(1, 2)),
    _attacked("random:9", 4, Fraction(1, 8)),
    _attacked("xor", 1, Fraction(1, 8)),
    _attacked("xor", 1, "quantum"),
    _unread_float_cell(2),
], ids=["mixed-N2-n4", "mixed-N3-n3", "last-bit-exact", "last-bit-quantum", "eps-0",
        "eps-half", "pivot-varies-with-x", "n1-exact", "n1-quantum", "unread-float-cell"])
def test_box_product_build_matches_per_point_path_at_edge_cases(boxes_by_x):
    """Same ``den``, values, value types and float bits as ``evaluate`` at
    every point: exact x among float ones (their entries are
    ``float(evaluate(...))``), a box that reads a later bit of x, zero
    cells, a factor 2 of the gcd at a pivot that moves with x, n = 1, and
    a float cell that no string reads."""
    fast = materialize(BoxesByX(boxes_by_x))
    assert_same_table(fast, oracle_table(BoxesByX(boxes_by_x)))


def test_zero_row_after_a_wide_row_zeroes_the_string():
    """String 11 reads a wide row, (1/1000, 999/1000) at every (a, b), at
    position 1 and an all-zero row at position 2; the other strings read
    flat rows of quarters.  The zero row's gcd 0 makes string 11's scale
    0, so its entries are 0 after every pass and the bound B, which
    counts nothing for it, still holds every partial product.  The
    lanes hold the per-point table value for value: den 16 in one-byte
    lanes."""
    quarter = Fraction(1, 4)
    flat = SinglePairBox(2, (quarter,) * 16)
    wide = SinglePairBox(2, tuple(quarter if x == 0 else Fraction(1 + 998 * y, 1000)
                                  for _ in range(4) for x in (0, 1) for y in (0, 1)))
    zero = SinglePairBox(2, tuple(quarter if x == 0 else 0
                                  for _ in range(4) for x in (0, 1) for _ in (0, 1)))
    boxes_by_x = [(flat, flat)] * 3 + [(wide, zero)]
    fast = materialize(BoxesByX(boxes_by_x))
    assert (fast.den, fast.values.typecode) == (16, "B")
    assert_same_table(fast, oracle_table(BoxesByX(boxes_by_x)))
    assert all(fast.values[i] == 0 for i in range(len(fast.values))
               if fast.point(i)[0] == (1, 1))


def test_max_evals_refuses_before_any_work(monkeypatch):
    """A table one entry over the evaluation cap is refused, on either
    path, before any box or point is looked up; one at the cap is built."""
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
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", entries - 1)
    for candidate in (system, CountingPerPointSystem(system)):
        with pytest.raises(InfeasibleSizeError, match=str(entries)):
            materialize(candidate)
        assert calls == []
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", entries)
    materialize(system)
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
    report = verify_partition(partition, base)
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
    assert table.den == reference.den and list(table.values) == list(reference.values)
    report = check_time_ordered(IntZeroSystem(inner), table=table)
    assert report.passed and report.tolerance == 0


def test_box_with_int_cells_is_exact():
    box = build_unbiased_box(_params(2, Fraction(0)))
    int_box = SinglePairBox(2, tuple(0 if c == 0 else c for c in box.cells))
    assert any(type(c) is int for c in int_box.cells) and all_exact(int_box.cells)
    system = build_product_system(int_box, 2)
    table = materialize(system)
    assert table.exact
    assert_same_table(table, oracle_table(system))


def test_int_weights_keep_the_convex_check_exact():
    """Weights 1 and 0 are exact: a part 5e-14 off the base must fail."""
    eps = Fraction(1, 10**13)
    box = build_unbiased_box(_params(2, eps))
    base = build_product_system(box, 1)
    shifted = build_product_system(bias_box(box, 0, eps), 1)
    report = verify_partition(Partition(((1, shifted), (0, base))), base)
    assert report.weights_ok
    assert not report.convex_ok and report.convex_mismatch_total == 16
    # Every one of the 16 entries differs; the first MAX_WITNESSES are kept.
    base_table = materialize(base)
    assert report.convex_mismatches == [
        (*base_table.point(i), Fraction(base_table.values[i], base_table.den),
         shifted.evaluate(*base_table.point(i)))
        for i in range(MAX_WITNESSES)
    ]


@pytest.mark.parametrize("spec, n, params, per_point", [
    ("hex:39", 3, BoxParams.rational(2, Fraction(1, 8)), True),
    ("xor", 2, BoxParams.rational(3, Fraction(1, 8)), True),
    ("hex:39", 3, BoxParams.quantum(2), False),
], ids=["exact-N2-n3", "exact-N3-n2", "quantum-N2-n3"])
def test_point_names_the_evaluate_point_of_every_index(spec, n, params, per_point):
    """``JointTable.point`` against the oracle: evaluate at the decoded
    point gives the stored value, exactly or to the float bit.  Each
    settings block of 4^n values holds one input (u, v)."""
    system = build_attack_partition(parse_function_spec(spec, n), params).systems[0]
    table = oracle_table(system) if per_point else materialize(system)
    points = [table.point(i) for i in range(len(table.values))]
    assert len(set(points)) == len(points)
    for start in range(0, len(points), 4**n):
        assert len({point[2:] for point in points[start:start + 4**n]}) == 1
    for point, value in zip(points, table.values):
        if table.exact:
            assert system.evaluate(*point) == Fraction(value, table.den)
        else:
            assert system.evaluate(*point).hex() == value.hex()
