import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbell import (
    FLOAT_ATOL,
    BoxParams,
    SinglePairBox,
    allowed_pairs,
    bell_value,
    bias_box,
    build_unbiased_box,
    cross_probability,
    quantum_eps,
)
from chainbell.boxes import all_exact, apart, at_least, close

EIGHTH = Fraction(1, 8)

eps_values = st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 2),
                          max_denominator=40)
n_settings_values = st.integers(min_value=2, max_value=4)


# ---------------------------------------------------------------------------
# allowed pairs

def test_allowed_pairs_n2_is_chsh():
    assert allowed_pairs(2) == {(0, 1), (2, 1), (2, 3), (0, 3)}


def test_allowed_pairs_n3():
    assert allowed_pairs(3) == {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)}


@pytest.mark.parametrize("n", range(2, 8))
def test_allowed_pairs_against_enumeration(n):
    # oracle: enumerate the full input grid and filter
    evens = range(0, 2 * n, 2)
    odds = range(1, 2 * n, 2)
    oracle = {(u, v) for u in evens for v in odds
              if abs(u - v) == 1 or (u, v) == (0, 2 * n - 1)}
    assert allowed_pairs(n) == oracle
    assert len(allowed_pairs(n)) == 2 * n


def test_allowed_pairs_rejects_degenerate():
    with pytest.raises(ValueError):
        allowed_pairs(1)


# ---------------------------------------------------------------------------
# parameters

def test_params_reject_bad_values():
    with pytest.raises(ValueError):
        BoxParams.rational(1, EIGHTH)
    with pytest.raises(ValueError):
        BoxParams.rational(2, Fraction(2, 3))
    with pytest.raises(ValueError):
        BoxParams.rational(2, Fraction(-1, 8))
    with pytest.raises(ValueError):
        BoxParams(2, 0.125, "rational")
    with pytest.raises(ValueError):
        BoxParams(2, None, "weird-mode")


def test_quantum_params_fix_eps():
    p = BoxParams.quantum(3)
    assert p.eps == pytest.approx(math.sin(math.pi / 12) ** 2, abs=1e-15)
    with pytest.raises(ValueError):
        BoxParams(2, 0.3, "quantum")


def test_eps_zero_is_allowed_as_degenerate():
    p = BoxParams.rational(2, 0)
    box = build_unbiased_box(p)
    assert bell_value(box) == 0
    assert bias_box(box, 0, p.eps).cells == box.cells


# ---------------------------------------------------------------------------
# unbiased box values

def test_unbiased_adjacent_square_n2():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    # (u, v) = (0, 1): correlated square
    assert box.prob(0, 0, 0, 0) == Fraction(7, 16)
    assert box.prob(0, 0, 1, 1) == Fraction(7, 16)
    assert box.prob(0, 0, 0, 1) == Fraction(1, 16)
    assert box.prob(0, 0, 1, 0) == Fraction(1, 16)


def test_unbiased_anticorrelated_square_n2():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    # (u, v) = (0, 3): the wrap-around pair
    assert box.prob(0, 1, 0, 0) == Fraction(1, 16)
    assert box.prob(0, 1, 0, 1) == Fraction(7, 16)


def test_unbiased_quantum_cells_n2():
    box = build_unbiased_box(BoxParams.quantum(2))
    eps = math.sin(math.pi / 8) ** 2
    assert eps == pytest.approx(0.146447, abs=1e-6)
    assert box.prob(0, 0, 0, 0) == pytest.approx((1 - eps) / 2, abs=1e-15)
    assert box.prob(0, 0, 0, 0) == pytest.approx(0.426777, abs=1e-6)


@given(n=n_settings_values, eps=eps_values)
def test_cross_probability_endpoints(n, eps):
    params = BoxParams.rational(n, eps)
    assert cross_probability(params, 1) == eps
    assert cross_probability(params, 2 * n - 1) == 1 - eps


@pytest.mark.parametrize("n", range(2, 7))
def test_cross_probability_endpoints_quantum(n):
    params = BoxParams.quantum(n)
    assert cross_probability(params, 1) == pytest.approx(params.eps, abs=1e-15)
    assert cross_probability(params, 2 * n - 1) == pytest.approx(1 - params.eps,
                                                                 abs=1e-15)


@given(n=n_settings_values, eps=eps_values)
@settings(max_examples=30)
def test_unbiased_box_invariants(n, eps):
    box = build_unbiased_box(BoxParams.rational(n, eps))
    box.validate()  # nonneg, normalized, Bob 1/2, Alice setting-independent
    for a in range(n):
        for b in range(n):
            for x in (0, 1):
                assert box.alice_marginal(a, b, x) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# biasing

def test_bias_matches_shifted_square():
    params = BoxParams.rational(2, EIGHTH)
    biased = bias_box(build_unbiased_box(params), 0, params.eps)
    # adjacent square rows after the shift towards x = 0
    assert biased.prob(0, 0, 0, 0) == Fraction(1, 2)
    assert biased.prob(0, 0, 1, 0) == 0
    assert biased.prob(0, 0, 0, 1) == EIGHTH           # the eps cell
    assert biased.prob(0, 0, 1, 1) == Fraction(3, 8)   # (1-eps)/2 - eps/2


@given(n=n_settings_values, eps=eps_values, sigma=st.integers(0, 1))
@settings(max_examples=30)
def test_bias_invariants(n, eps, sigma):
    params = BoxParams.rational(n, eps)
    box = build_unbiased_box(params)
    biased = bias_box(box, sigma, eps)
    assert bell_value(biased) == bell_value(box)
    for a in range(n):
        for b in range(n):
            assert biased.alice_marginal(a, b, sigma) == Fraction(1, 2) + eps
            assert biased.alice_marginal(a, b, 1 - sigma) == Fraction(1, 2) - eps
            for y in (0, 1):
                assert biased.bob_marginal(a, b, y) == Fraction(1, 2)


@given(n=n_settings_values, eps=eps_values)
@settings(max_examples=30)
def test_bias_averages_back(n, eps):
    box = build_unbiased_box(BoxParams.rational(n, eps))
    b0 = bias_box(box, 0, eps)
    b1 = bias_box(box, 1, eps)
    half = Fraction(1, 2)
    mixed = tuple(half * c0 + half * c1 for c0, c1 in zip(b0.cells, b1.cells))
    assert mixed == box.cells


def test_bias_alice_marginal_example_n3():
    params = BoxParams.rational(3, Fraction(1, 10))
    biased = bias_box(build_unbiased_box(params), 1, params.eps)
    for a in range(3):
        for b in range(3):
            assert biased.alice_marginal(a, b, 1) == Fraction(3, 5)


def test_bias_with_int_eps_stays_exact():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    biased = bias_box(box, 0, 0)
    assert all_exact(biased.cells)
    assert biased.cells == box.cells
    assert all(isinstance(c, Fraction) for c in biased.cells)


def test_bias_underflow_rejected():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    # off-diagonal cells are 1/16 < (1/2)/2: shifting 1/2 must fail, at
    # the first such source cell in (a, b, x, y) order
    for sigma, first in ((0, "x=1, y=0"), (1, "x=0, y=1")):
        with pytest.raises(ValueError, match=re.escape(
                f"cell (a=0, b=0, {first}) holds 1/16, cannot shift 1/4 out")):
            bias_box(box, sigma, Fraction(1, 2))


@pytest.mark.parametrize("params, eps", [
    (BoxParams.rational(2, EIGHTH), Fraction(-1, 4)),
    (BoxParams.quantum(2), -0.1),
], ids=["exact", "float"])
def test_bias_refuses_a_negative_eps(params, eps):
    """A negative eps would shift probability out of the x = sigma cells,
    which the underflow check on the other cells never sees: with
    eps = -1/4 the diagonal cells 3/16 would become -1/16."""
    box = build_unbiased_box(params)
    for sigma in (0, 1):
        with pytest.raises(ValueError, match=re.escape(f"eps must be >= 0, got {eps}")):
            bias_box(box, sigma, eps)


def test_bias_rejects_non_bit_sigma():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    with pytest.raises(ValueError):
        bias_box(box, 2, EIGHTH)


# ---------------------------------------------------------------------------
# bell value

@given(n=n_settings_values, eps=eps_values)
def test_bell_value_unbiased_is_2n_eps(n, eps):
    box = build_unbiased_box(BoxParams.rational(n, eps))
    assert bell_value(box) == 2 * n * eps


def test_bell_value_quantum_n2():
    box = build_unbiased_box(BoxParams.quantum(2))
    assert bell_value(box) == pytest.approx(4 * math.sin(math.pi / 8) ** 2, abs=1e-12)
    assert bell_value(box) < math.pi**2 / 16


@pytest.mark.parametrize("n", range(2, 7))
def test_bell_value_quantum_below_pi_squared_bound(n):
    box = build_unbiased_box(BoxParams.quantum(n))
    assert bell_value(box) < math.pi**2 / (8 * n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quantum_mode_structural_agreement(n):
    """Float boxes satisfy the same structural identities to 1e-12."""
    params = BoxParams.quantum(n)
    box = build_unbiased_box(params)
    box.validate()
    b0 = bias_box(box, 0, params.eps)
    b1 = bias_box(box, 1, params.eps)
    assert bell_value(b0) == pytest.approx(bell_value(box), abs=FLOAT_ATOL)
    for c0, c1, c in zip(b0.cells, b1.cells, box.cells):
        assert 0.5 * c0 + 0.5 * c1 == pytest.approx(c, abs=FLOAT_ATOL)
    for a in range(n):
        for b in range(n):
            assert b0.alice_marginal(a, b, 0) == pytest.approx(0.5 + params.eps,
                                                               abs=FLOAT_ATOL)


# ---------------------------------------------------------------------------
# direct construction and validation

def test_validate_catches_bad_bob_marginal():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    cells = list(box.cells)
    cells[0] += Fraction(1, 64)
    cells[1] -= Fraction(1, 64)
    with pytest.raises(ValueError, match="Bob marginal"):
        SinglePairBox(2, tuple(cells)).validate()


def test_validate_catches_negative_cell():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    cells = list(box.cells)
    cells[0] += cells[1]
    cells[1] = Fraction(-1, 16)
    with pytest.raises(ValueError, match="negative"):
        SinglePairBox(2, tuple(cells)).validate()


def test_prob_rejects_out_of_range_settings():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    with pytest.raises(ValueError):
        box.prob(2, 0, 0, 0)


@pytest.mark.parametrize("point", [(0, 0, 2, 0), (0, 0, -1, 0), (1, 1, 1, 3)])
def test_prob_rejects_outcomes_that_are_not_bits(point):
    """An outcome of 2 would read the next square's cell, -1 would wrap
    around to the last cell, and y = 3 on the last square would run off
    the end: each is refused."""
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    with pytest.raises(ValueError, match="no cell at"):
        box.prob(*point)


def test_prob_reads_a_bool_outcome_as_its_bit():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    assert box.prob(0, 0, True, 0) == box.prob(0, 0, 1, 0) == Fraction(1, 16)


@pytest.mark.parametrize("count", [20, 3, 0])
def test_box_refuses_a_cell_count_other_than_4n_squared(count):
    """Extra cells would never be read, and missing ones would fail only
    when ``prob`` reached them: both are refused at construction."""
    cells = tuple(Fraction(1, 16) for _ in range(count))
    with pytest.raises(ValueError, match=re.escape(f"needs 4N^2 = 16 cells, got {count}")):
        SinglePairBox(2, cells)


@pytest.mark.parametrize("n, cells", [(0, ()), (-1, (Fraction(1, 4),) * 4)],
                         ids=["N=0", "N=-1"])
def test_box_refuses_fewer_than_one_setting(n, cells):
    """Both boxes hold 4N^2 cells, yet have no setting to read them at."""
    with pytest.raises(ValueError, match=re.escape(f"a box needs N >= 1 settings, got N={n}")):
        SinglePairBox(n, cells)


def test_box_with_one_setting_is_allowed():
    box = SinglePairBox(1, (Fraction(1, 4),) * 4)
    assert box.prob(0, 0, 1, 1) == Fraction(1, 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_built_box_holds_4n_squared_cells(n):
    params = [BoxParams.rational(n, EIGHTH), BoxParams.quantum(n)]
    for p in params:
        base = build_unbiased_box(p)
        for box in (base, bias_box(base, 0, p.eps), bias_box(base, 1, p.eps)):
            assert len(box.cells) == 4 * n**2
            assert SinglePairBox(n, box.cells) == box


def test_quantum_eps_value():
    assert quantum_eps(2) == pytest.approx(0.14644660940672624, abs=1e-16)


def test_validate_catches_unnormalized_square():
    box = build_unbiased_box(BoxParams.rational(2, EIGHTH))
    cells = list(box.cells)
    cells[0] += Fraction(1, 64)
    with pytest.raises(ValueError, match=r"square \(a=0, b=0\) does not sum to 1"):
        SinglePairBox(2, tuple(cells)).validate()


def test_validate_catches_alice_marginal_moved_by_bob():
    from helpers import perturbed_alice_marginal_box

    box = perturbed_alice_marginal_box(BoxParams.rational(2, EIGHTH))
    with pytest.raises(ValueError, match=r"Alice marginal depends on Bob's setting at \(a=0, x=0\)"):
        box.validate()


@pytest.mark.parametrize("delta", [0, 2, 5])
def test_cross_probability_rejects_bad_setting_distance(delta):
    with pytest.raises(ValueError, match="setting distance must be odd"):
        cross_probability(BoxParams.rational(2, EIGHTH), delta)


# ---------------------------------------------------------------------------
# the tolerance rule

TINY = Fraction(1, 10**15)


@pytest.mark.parametrize("compare, lhs, rhs, expected", [
    # Exact against exact: no tolerance, however small the gap.
    (close, Fraction(1, 3), Fraction(1, 3) + TINY, False),
    (at_least, Fraction(1, 3), Fraction(1, 3) + TINY, False),
    # Float against float: within FLOAT_ATOL.
    (close, 0.25, 0.25 + 1e-13, True),
    (at_least, 0.25, 0.25 + 1e-13, True),
    (close, 0.25, 0.25 + 1e-11, False),
    (at_least, 0.25, 0.25 + 1e-11, False),
    # Exact against float: a float operand brings the tolerance.
    (close, Fraction(1, 4), 0.25 + 1e-13, True),
    (at_least, Fraction(1, 4), 0.25 + 1e-13, True),
    (close, 0.25 - 1e-13, Fraction(1, 4), True),
    # int against Fraction: exact.
    (close, 1, 1 + TINY, False),
    (close, 1, Fraction(2, 2), True),
    (at_least, 1, 1 + TINY, False),
    (at_least, 1 + TINY, 1, True),
    # Just below zero: a float rounding residue passes, an exact one does not.
    (at_least, -1e-13, 0, True),
    (at_least, -TINY, 0, False),
])
def test_tolerance_rule_decides_from_the_operands(compare, lhs, rhs, expected):
    assert compare(lhs, rhs) is expected


def test_apart_finds_exactly_the_pairs_close_refuses():
    """``apart`` over many pairs, in one call, against ``close`` pair by
    pair: NaN is apart from everything, itself included; -0.0 and 0.0
    are close; ints and Fractions compare exactly; a float gap of
    exactly FLOAT_ATOL is close and the next float above it apart; an
    infinity is apart from itself, as its gap is NaN."""
    nan, inf, above = math.nan, math.inf, math.nextafter(FLOAT_ATOL, 1)
    pairs = [
        (nan, nan), (nan, 0.5), (0.5, nan),  # apart
        (-0.0, 0.0), (0.0, -0.0), (-0.0, 0), (0, -0.0),  # close
        (3, 3), (3, 4), (2**70, 2**70 + 1), (0, 1),  # close, then apart
        (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3) + TINY),
        (1, Fraction(2, 2)), (1, 1 + TINY),
        (0.0, FLOAT_ATOL), (FLOAT_ATOL, 0.0), (0.0, above), (above, 0.0),
        (0.25, 0.25 + 1e-13), (0.25, 0.25 + 1e-11),
        (Fraction(1, 4), 0.25 + 1e-13), (1, 1.0 + 1e-11), (0, -FLOAT_ATOL),
        (inf, inf), (inf, 1.0),
    ]
    lhs, rhs = [p[0] for p in pairs], [p[1] for p in pairs]
    want = [k for k, (l, r) in enumerate(pairs) if not close(l, r)]
    assert want == [0, 1, 2, 8, 9, 10, 12, 14, 17, 18, 20, 22, 24, 25]
    assert apart(lhs, rhs, range(len(pairs))) == want
    assert apart(lhs, rhs, reversed(range(len(pairs)))) == want[::-1]
    assert apart(lhs, rhs, [3, 9, 9]) == [9, 9]
