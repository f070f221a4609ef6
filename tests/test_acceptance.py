"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Everything rational is compared exactly; only the
quantum-mode criterion uses float tolerances.
"""

import math
import time
from fractions import Fraction

import pytest

from chainbell import (
    BoxParams,
    bell_value,
    bias_box,
    build_attack_partition,
    build_product_system,
    build_unbiased_box,
    check_time_ordered,
    distance_details,
    function_from_hex,
    is_almost_balanced,
    random_function,
    replay_violation,
    run_attack,
    scan,
    theorem_bound,
    verify_partition,
    xor_function,
)
from chainbell.adversary import HashFunction, build_pivotal_profile

from helpers import (
    FuturePeekingSystem,
    acceptance_corpus,
    balanced_two_zero_functions_n2,
    exhaustive_almost_balanced,
    exhaustive_functions,
    influence,
    pivotal_index,
    pivotal_threshold,
    profile_records,
    record_index,
    seeded_almost_balanced,
)

EIGHTH = Fraction(1, 8)
CORPUS_EPS = (Fraction(1, 8), Fraction(1, 3))


def _announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def corpus_reports():
    """(f, eps) -> (partition, verify_partition report with time-ordered
    constraint); shared by the partition-legality and non-signalling
    criteria."""
    out = {}
    for f in acceptance_corpus():
        for eps in CORPUS_EPS:
            params = BoxParams.rational(2, eps)
            partition = build_attack_partition(f, params)
            base = build_product_system(build_unbiased_box(params), f.n)
            report = verify_partition(partition, base, constraint="time-ordered")
            out[(f.name, f.n, eps)] = (partition, report)
    return out


def test_criterion_1_theorem_bound_exact():
    params = BoxParams.rational(2, EIGHTH)
    started = time.monotonic()
    checked = 0
    for f in exhaustive_functions(3):
        report = run_attack(f, params)
        assert isinstance(report.distance, Fraction)
        assert report.distance >= theorem_bound(3, params)
        expected = "partition" if is_almost_balanced(f) else "trivial"
        assert report.strategy == expected
        checked += 1
    for n in range(4, 13):
        bound = theorem_bound(n, params)
        for seed in range(200):
            f = random_function(n, seed)
            report = run_attack(f, params)
            assert isinstance(report.distance, Fraction)
            assert report.distance >= bound
            expected = "partition" if is_almost_balanced(f) else "trivial"
            assert report.strategy == expected
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"theorem sweep took {elapsed:.1f}s, target is under 2 minutes"
    _announce(1, "theorem bound, exact",
              f"{checked} functions, n=3 exhaustive plus n=4..12 seeded, "
              f"{elapsed:.1f}s")


def test_criterion_2_partition_legality(corpus_reports):
    for (name, n, eps), (partition, report) in corpus_reports.items():
        assert report.weights_ok, (name, n, eps)
        assert sum(partition.weights) == 1
        for part_report in report.part_reports:
            assert part_report.nonnegative, (name, n, eps)
            assert part_report.normalized, (name, n, eps)
        assert report.convex_ok and report.convex_mismatch_total == 0, (name, n, eps)
    _announce(2, "partition legality, exact",
              f"{len(corpus_reports)} partitions over n<=4, eps in {{1/8, 1/3}}, "
              "zero tolerance")


def test_criterion_3_time_ordered_non_signalling(corpus_reports):
    for (name, n, eps), (partition, report) in corpus_reports.items():
        for part_report in report.part_reports:
            assert part_report.ns_report.passed, (name, n, eps)
            assert part_report.ns_report.tolerance == 0

    # the mutation whose bias peeks at a future bit must fail, replayably
    peeker = FuturePeekingSystem(BoxParams.rational(2, EIGHTH))
    broken = check_time_ordered(peeker)
    assert not broken.passed and broken.violations
    witness = broken.violations[0]
    left, right = replay_violation(peeker, witness)
    assert (left, right) == (witness.left, witness.right)
    assert left != right
    _announce(3, "time-ordered non-signalling, exact",
              f"{2 * len(corpus_reports)} parts pass; future-peeking mutation "
              "fails with a replayable witness")


def test_criterion_4_biased_box_lemma():
    cases = 0
    for n_settings in (2, 3, 4):
        for eps in (Fraction(1, 10), Fraction(1, 8), Fraction(1, 3)):
            params = BoxParams.rational(n_settings, eps)
            box = build_unbiased_box(params)
            reference = bell_value(box)
            assert reference == 2 * n_settings * eps
            shifted = [bias_box(box, sigma, eps) for sigma in (0, 1)]
            for sigma, biased in enumerate(shifted):
                assert bell_value(biased) == reference
                for a in range(n_settings):
                    for b in range(n_settings):
                        assert biased.alice_marginal(a, b, sigma) == Fraction(1, 2) + eps
            half = Fraction(1, 2)
            averaged = tuple(half * c0 + half * c1
                             for c0, c1 in zip(shifted[0].cells, shifted[1].cells))
            assert averaged == box.cells
            cases += 1
    _announce(4, "biased-box lemma, exact", f"{cases} (N, eps) combinations")


def test_criterion_5_quantum_value():
    box = build_unbiased_box(BoxParams.quantum(2))
    value = bell_value(box)
    assert abs(value - 0.5857864376269049) < 1e-9
    assert abs(value - 4 * math.sin(math.pi / 8) ** 2) < 1e-9
    for n_settings in range(2, 7):
        quantum = bell_value(build_unbiased_box(BoxParams.quantum(n_settings)))
        assert quantum < math.pi**2 / (8 * n_settings)
    _announce(5, "quantum bell value, float",
              "N=2 matches 4*sin^2(pi/8) to 1e-9; below pi^2/8N for N=2..6")


def test_criterion_6_xor_constant_bias():
    params = BoxParams.rational(2, EIGHTH)
    for n in range(2, 17):
        f = xor_function(n)
        partition = build_attack_partition(f, params)
        assert distance_details(f, partition).distance == EIGHTH
    _announce(6, "xor constant bias, exact", "distance == eps for n = 2..16")


def test_criterion_7_majority_scaling():
    rows = scan("majority", range(3, 14, 2), BoxParams.rational(2, EIGHTH))
    values = [row.distance_times_sqrt_n for row in rows]
    assert all(row.error is None for row in rows)
    assert max(values) <= 2 * min(values)
    _announce(7, "majority scaling, property",
              f"d*sqrt(n) in [{min(values):.6f}, {max(values):.6f}] over odd n=3..13")


def test_criterion_8_pivotal_existence():
    total = 0
    for n in (1, 2, 3):
        threshold = pivotal_threshold(n)
        for f in exhaustive_almost_balanced(n):
            records = profile_records(build_pivotal_profile(f))
            covered = sum(2 ** (n - length) for length, _, _ in records)
            assert covered == 2**n
            for rec in records:
                _, code, _ = rec
                assert influence(f.tree, record_index(rec), code) >= threshold
            total += 1
    fig = function_from_hex("39")
    by_prefix = {}
    for code in range(8):
        x = tuple((code >> (2 - k)) & 1 for k in range(3))
        index, _, delta = pivotal_index(fig, x)
        assert delta >= pivotal_threshold(3)
        by_prefix[x[: index - 1]] = index
    assert by_prefix == {(0,): 2, (1, 0): 3, (1, 1): 3}
    _announce(8, "pivotal existence, exact",
              f"{total} almost balanced functions exhaustively on n<=3; "
              "the worked 3-bit example pivots as circled")


def test_criterion_9_path_consistency():
    params = BoxParams.rational(2, EIGHTH)
    functions = (
        [HashFunction(1, (0, 1), "identity")]
        + balanced_two_zero_functions_n2()[:3]
        + seeded_almost_balanced(3, 4)
        + seeded_almost_balanced(4, 3)
    )
    for f in functions:
        n = f.n
        partition = build_attack_partition(f, params)
        closed = distance_details(f, partition).distance
        fixed = distance_details(
            f, partition, at_input=((0,) * n, (0,) * n)).distance
        other = distance_details(
            f, partition,
            at_input=(tuple(j % 2 for j in range(n)), tuple(1 - j % 2 for j in range(n))),
        ).distance
        assert closed == fixed == other
    _announce(9, "path consistency, exact",
              f"closed form == joint summation for {len(functions)} functions, n<=4")
