from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbell import (
    FLOAT_ATOL,
    AttackedSystem,
    BoxParams,
    HashFunction,
    InfeasibleSizeError,
    Partition,
    build_attack_partition,
    build_product_system,
    build_unbiased_box,
    function_from_hex,
    verify_partition,
    xor_function,
)
from chainbell import nonsignalling
from chainbell.nonsignalling import MAX_WITNESSES
from chainbell._coding import bits_to_int

from helpers import (
    NegatedPointSystem,
    alice_output_distribution,
    flip_pivotal_bit,
    oracle_convex_mismatches,
    perturbed_bob_marginal_box,
    x_marginal,
)

EIGHTH = Fraction(1, 8)


def _params(eps=EIGHTH, n_settings=2):
    return BoxParams.rational(n_settings, eps)


@pytest.fixture
def fig_partition():
    f = function_from_hex("39")
    return f, build_attack_partition(f, _params())


# ---------------------------------------------------------------------------
# evaluation

def test_product_evaluate_squares_the_cell():
    system = build_product_system(build_unbiased_box(_params()), 2)
    value = system.evaluate((0, 0), (0, 0), (0, 0), (0, 0))
    assert value == Fraction(49, 256)  # (7/16)^2


def test_evaluate_validates_dimensions_and_ranges():
    system = build_product_system(build_unbiased_box(_params()), 2)
    with pytest.raises(ValueError):
        system.evaluate((0,), (0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        system.evaluate((0, 0), (0, 0), (0, 2), (0, 0))
    with pytest.raises(ValueError):
        system.evaluate((0, 2), (0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError, match="Bob setting 2 out of range"):
        system.evaluate((0, 0), (0, 0), (0, 0), (0, 2))
    with pytest.raises(ValueError, match="outcome vectors must hold bits, got 2"):
        system.evaluate((0, 0), (0, 2), (0, 0), (0, 0))


@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=25)
def test_systems_are_normalized(n, u_seed, v_seed):
    f = xor_function(n)
    partition = build_attack_partition(f, _params())
    base = build_product_system(build_unbiased_box(_params()), n)
    u = tuple((u_seed >> j) & 1 for j in range(n))
    v = tuple((v_seed >> j) & 1 for j in range(n))
    for system in (base, *partition.systems):
        total = sum(
            system.evaluate(x, y, u, v)
            for x in product((0, 1), repeat=n)
            for y in product((0, 1), repeat=n)
        )
        assert total == 1


def test_attacked_parts_average_to_product(fig_partition):
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    half = Fraction(1, 2)
    for x in product((0, 1), repeat=3):
        for y, u, v in [((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                        ((1, 0, 1), (0, 1, 0), (1, 1, 0)),
                        ((1, 1, 1), (1, 1, 1), (1, 1, 1))]:
            p0 = partition.systems[0].evaluate(x, y, u, v)
            p1 = partition.systems[1].evaluate(x, y, u, v)
            assert half * p0 + half * p1 == base.evaluate(x, y, u, v)
            # the complement identity: 2P - P0 = P1
            assert 2 * base.evaluate(x, y, u, v) - p0 == p1


def test_pair_boxes_refuse_a_code_outside_the_strings(fig_partition):
    """Codes index [0, 2^n): -1 must not wrap to the last string."""
    _, partition = fig_partition
    for system in partition.systems:
        for code in (-1, 2**3):
            with pytest.raises(ValueError, match=r"string code must be in \[0, 2\^3\)"):
                system.pair_boxes(code)


def test_pivotal_pair_cancellation(fig_partition):
    """P0(x) + P0(x with pivot flipped) matches the unbiased pair sum."""
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    p0 = partition.systems[0]
    for x in product((0, 1), repeat=3):
        flipped = flip_pivotal_bit(p0, x)
        # prefix property
        assert p0.profile.pivot(bits_to_int(x)) == p0.profile.pivot(bits_to_int(flipped))
        for y, u, v in [((0, 1, 0), (0, 0, 0), (1, 0, 1)),
                        ((1, 1, 0), (1, 0, 1), (0, 1, 1))]:
            lhs = p0.evaluate(x, y, u, v) + p0.evaluate(flipped, y, u, v)
            rhs = base.evaluate(x, y, u, v) + base.evaluate(flipped, y, u, v)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Alice's output distribution

def test_output_distribution_input_independent(fig_partition):
    f, partition = fig_partition
    part = partition.systems[0]
    reference = alice_output_distribution(part, (0, 0, 0), (0, 0, 0))
    assert sum(reference.values()) == 1
    for u in product(range(2), repeat=3):
        for v in [(0, 0, 0), (1, 1, 1), (0, 1, 0)]:
            assert alice_output_distribution(part, u, v) == reference


def test_output_distribution_single_biased_box():
    f = HashFunction(1, (0, 1), "identity")
    partition = build_attack_partition(f, _params())
    dist = alice_output_distribution(partition.systems[0])
    assert dist[(0,)] == Fraction(1, 2) + EIGHTH
    assert dist[(1,)] == Fraction(1, 2) - EIGHTH


def test_output_distribution_fig_x010(fig_partition):
    f, partition = fig_partition
    dist = alice_output_distribution(partition.systems[0])
    # pivot 2 with direction 0, x_2 = 1 mismatches: 2^-2 * (1/2 - eps)
    assert dist[(0, 1, 0)] == Fraction(1, 4) * (Fraction(1, 2) - EIGHTH)
    assert dist[(0, 0, 0)] == Fraction(1, 4) * (Fraction(1, 2) + EIGHTH)


def test_x_marginal_matches_joint_marginalization(fig_partition):
    f, partition = fig_partition
    for part in partition.systems:
        dist = alice_output_distribution(part, (1, 0, 1), (0, 1, 1))
        for x in product((0, 1), repeat=3):
            assert x_marginal(part, x) == dist[x]


def test_uniform_marginal_of_product_system():
    system = build_product_system(build_unbiased_box(_params()), 2)
    dist = alice_output_distribution(system)
    assert all(p == Fraction(1, 4) for p in dist.values())


# ---------------------------------------------------------------------------
# partition verification

def test_verify_partition_passes_on_attack(fig_partition):
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    report = verify_partition(partition, base)
    assert report.passed
    assert report.weights_ok
    assert report.convex_ok and report.convex_mismatch_total == 0
    for part in report.part_reports:
        assert part.nonnegative and part.normalized
        assert part.ns_report.passed


def test_verify_partition_flags_bad_weights(fig_partition):
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    skewed = Partition((
        (Fraction(3, 5), partition.systems[0]),
        (Fraction(1, 2), partition.systems[1]),
    ))
    report = verify_partition(skewed, base)
    assert not report.weights_ok
    assert not report.passed


def test_verify_partition_flags_negative_entry(fig_partition):
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    point = ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    broken = Partition((
        (Fraction(1, 2), NegatedPointSystem(partition.systems[0], point)),
        (Fraction(1, 2), partition.systems[1]),
    ))
    report = verify_partition(broken, base)
    assert not report.part_reports[0].nonnegative
    assert not report.part_reports[0].normalized
    assert not report.passed


def test_verify_partition_flags_convex_mismatch(fig_partition):
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    lopsided = Partition((
        (Fraction(1, 2), partition.systems[0]),
        (Fraction(1, 2), partition.systems[0]),
    ))
    report = verify_partition(lopsided, base)
    assert report.weights_ok
    assert not report.convex_ok
    assert report.convex_mismatches
    x, y, u, v, want, got = report.convex_mismatches[0]
    lhs = sum(Fraction(1, 2) * s.evaluate(x, y, u, v) for _, s in lopsided.parts)
    assert lhs == got != want


@pytest.mark.parametrize("params, amount, weight, total, first", [
    # float tables throughout
    (BoxParams.quantum(2), 1 / 64, None, 720,
     ("0x1.3e6454cd7aa29p-4", "0x1.4c4c7c671a718p-4")),
    # exact tables under float weights: compared as floats
    (_params(), Fraction(1, 64), 0.5, 720,
     ("0x1.5700000000000p-4", "0x1.6540000000000p-4")),
])
def test_verify_partition_float_convex_mismatches_are_stable(params, amount, weight,
                                                             total, first):
    """Characterization of the float convex check: a part whose base box
    has a perturbed Bob marginal gives the same mismatch count and first
    mismatch, down to the float bits."""
    partition = build_attack_partition(function_from_hex("39"), params)
    part = partition.systems[0]
    broken = AttackedSystem(perturbed_bob_marginal_box(params, amount),
                            part.biased, part.profile, part.z)
    weights = partition.weights if weight is None else (weight, weight)
    perturbed = Partition(((weights[0], broken), (weights[1], partition.systems[1])))
    base = build_product_system(build_unbiased_box(params), 3)
    report = verify_partition(perturbed, base)
    assert report.weights_ok
    assert report.convex_mismatch_total == total
    x, y, u, v, want, got = report.convex_mismatches[0]
    assert (x, y, u, v) == ((0, 0, 0),) * 4
    assert (want.hex(), got.hex()) == first


@pytest.mark.parametrize("params, float_weights", [
    (_params(), False),
    (BoxParams.quantum(2), False),
    (BoxParams.quantum(3), False),  # reject-float's field, Q(sqrt 3)
    (_params(), True),  # exact tables under float weights: compared as floats
], ids=["exact", "quantum", "quantum-3", "float-weights"])
@pytest.mark.parametrize("broken", [False, True], ids=["legal", "perturbed"])
def test_convex_check_matches_per_entry_oracle(params, float_weights, broken):
    """The block-by-block convex check against an entry-by-entry loop, on
    three-part partitions: the attack's z = 0 part split in two, one half
    possibly with a perturbed Bob marginal (hundreds of mismatches, far
    more than MAX_WITNESSES).  Totals, checks and the kept mismatches are
    equal, float values to within FLOAT_ATOL."""
    partition = build_attack_partition(function_from_hex("39"), params)
    part0, part1 = partition.systems
    half = part0
    if broken:
        half = AttackedSystem(perturbed_bob_marginal_box(params, params.eps / 8),
                              part0.biased, part0.profile, part0.z)
    w = Fraction(1, 2) if params.exact else 0.5
    w = float(w) if float_weights else w
    three = Partition(((w / 2, part0), (w / 2, half), (w, part1)))
    base = build_product_system(build_unbiased_box(params), 3)
    report = verify_partition(three, base)
    mismatches, total, compared = oracle_convex_mismatches(three, base)
    assert report.convex_mismatch_total == total
    assert (total > MAX_WITNESSES) == broken
    N = params.n_settings
    entries = 4**3 * N**6
    # each part's time-ordered check: on each side, the cut that varies m
    # inputs compares N^m - 1 settings words with each of N^(6-m)
    # reference words, over 2^(6-m) kept outcome words
    ns_checks = 2 * sum((2 * N) ** (6 - m) * (N**m - 1) for m in (1, 2, 3))
    assert report.checks_performed == len(three.parts) * (entries + ns_checks) + entries + compared
    assert len(report.convex_mismatches) == len(mismatches)
    for got, want in zip(report.convex_mismatches, mismatches):
        assert got[:4] == want[:4]
        if params.exact and not float_weights:
            assert got == want
        else:
            assert abs(got[4] - want[4]) <= FLOAT_ATOL
            assert abs(got[5] - want[5]) <= FLOAT_ATOL


def test_verify_partition_respects_eval_cap(fig_partition, monkeypatch):
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", 1000)
    with pytest.raises(InfeasibleSizeError):
        verify_partition(partition, base)


@pytest.mark.parametrize("weights, ok", [
    ((1.0 + 1e-13, -1e-13), True),
    ((1 + Fraction(1, 10**15), -Fraction(1, 10**15)), False),
])
def test_weight_signs_follow_the_tolerance_rule(weights, ok):
    """A weight's sign is judged as the weight sum is: a float weight
    within FLOAT_ATOL below zero counts as nonnegative, an exact negative
    weight never does."""
    base = build_product_system(build_unbiased_box(_params()), 1)
    report = verify_partition(Partition(tuple((w, base) for w in weights)), base)
    assert (report.weights_ok, report.convex_ok) == (ok, True)


def test_verify_partition_shape_mismatch(fig_partition):
    f, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 2)
    with pytest.raises(ValueError):
        verify_partition(partition, base)


def test_build_product_system_rejects_empty():
    with pytest.raises(ValueError):
        build_product_system(build_unbiased_box(_params()), 0)


def test_heterogeneous_product_system_supported():
    from chainbell import ProductSystem, bias_box, check_ab

    box = build_unbiased_box(_params())
    system = ProductSystem((box, bias_box(box, 1, EIGHTH)))
    value = system.evaluate((0, 0), (0, 0), (0, 0), (0, 0))
    # second pair shifted towards x = 1: its (x=0, y=0) cell lost eps/2
    assert value == Fraction(7, 16) * (Fraction(7, 16) - Fraction(1, 16))
    assert check_ab(system).passed  # biased pairs stay pairwise non-signalling


def test_product_system_requires_matching_settings():
    from chainbell import ProductSystem

    two = build_unbiased_box(_params())
    three = build_unbiased_box(_params(n_settings=3))
    with pytest.raises(ValueError):
        ProductSystem((two, three))


def test_product_system_rejects_no_boxes():
    from chainbell import ProductSystem

    with pytest.raises(ValueError, match="at least one box"):
        ProductSystem(())


def test_attacked_system_checks_its_fields(fig_partition):
    _, partition = fig_partition
    part = partition.systems[0]
    with pytest.raises(ValueError, match="z must be a bit, got 2"):
        AttackedSystem(part.base, part.biased, part.profile, 2)
    three = build_unbiased_box(_params(n_settings=3))
    with pytest.raises(ValueError, match="base and biased boxes must share n_settings"):
        AttackedSystem(three, part.biased, part.profile, 0)


def test_partition_rejects_no_parts():
    with pytest.raises(ValueError, match="at least one part"):
        Partition(())


@pytest.mark.parametrize("constraint", ["ab", "subset", "none"])
def test_verify_partition_rejects_unknown_constraint(fig_partition, constraint):
    _, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    with pytest.raises(ValueError, match=f"unknown constraint set '{constraint}'"):
        verify_partition(partition, base, constraint=constraint)


def test_partition_report_text(fig_partition):
    _, partition = fig_partition
    base = build_product_system(build_unbiased_box(_params()), 3)
    assert str(verify_partition(partition, base)).splitlines() == [
        "weights: ok (sum 1)",
        "part 0: nonnegative=ok normalized=ok ns=time-ordered: pass [4480 checks]",
        "part 1: nonnegative=ok normalized=ok ns=time-ordered: pass [4480 checks]",
        "convex combination: ok (0 mismatches)",
        "overall: pass [25344 checks]",
    ]
    skewed = Partition(((Fraction(3, 4), partition.systems[0]),
                        (Fraction(1, 2), partition.systems[1])))
    assert str(verify_partition(skewed, base)).splitlines() == [
        "weights: FAIL (sum 5/4)",
        "part 0: nonnegative=ok normalized=ok ns=time-ordered: pass [4480 checks]",
        "part 1: nonnegative=ok normalized=ok ns=time-ordered: pass [4480 checks]",
        "convex combination: FAIL (3072 mismatches)",
        "overall: FAIL [25344 checks]",
    ]
