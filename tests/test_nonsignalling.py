from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbell import (
    DEFAULT_EVAL_CAP,
    FLOAT_ATOL,
    BoxParams,
    InfeasibleSizeError,
    ProductSystem,
    bias_box,
    build_attack_partition,
    build_product_system,
    build_unbiased_box,
    check_ab,
    check_subset,
    check_time_ordered,
    function_from_hex,
    materialize,
    replay_violation,
)
from chainbell.nonsignalling import MAX_WITNESSES, _witness_key

from helpers import (
    FuturePeekingSystem,
    MirroredSystem,
    PerPointSystem,
    brute_force_violations,
    perturbed_alice_marginal_box,
    perturbed_bob_marginal_box,
)

EIGHTH = Fraction(1, 8)


def _params(eps=EIGHTH, n_settings=2):
    return BoxParams.rational(n_settings, eps)


@pytest.fixture(scope="module")
def fig_parts():
    f = function_from_hex("39")
    partition = build_attack_partition(f, _params())
    base = build_product_system(build_unbiased_box(_params()), 3)
    return base, partition.systems


# ---------------------------------------------------------------------------
# passing systems

@pytest.mark.parametrize("n", [1, 2, 3])
def test_unbiased_product_fulfils_everything(n):
    system = build_product_system(build_unbiased_box(_params()), n)
    assert check_ab(system).passed
    assert check_time_ordered(system).passed


def test_attack_parts_are_time_ordered(fig_parts):
    base, parts = fig_parts
    for part in parts:
        report = check_time_ordered(part)
        assert report.passed
        assert report.violations_total == 0
        assert report.tolerance == 0


def test_attack_parts_pass_ab(fig_parts):
    base, parts = fig_parts
    for part in parts:
        assert check_ab(part).passed


def test_quantum_attack_part_is_time_ordered():
    params = BoxParams.quantum(2)
    partition = build_attack_partition(function_from_hex("39"), params)
    report = check_time_ordered(partition.systems[0])
    assert report.passed
    assert report.tolerance == 1e-12


def test_n3_settings_product_passes():
    system = build_product_system(build_unbiased_box(_params(n_settings=3)), 2)
    assert check_time_ordered(system).passed


# ---------------------------------------------------------------------------
# mutations must fail, with replayable witnesses

def test_perturbed_bob_marginal_fails_ab():
    system = build_product_system(perturbed_bob_marginal_box(_params()), 2)
    report = check_ab(system)
    assert not report.passed
    assert report.violations_total > 0
    witness = report.violations[0]
    assert witness.left != witness.right
    left, right = replay_violation(system, witness)
    assert (left, right) == (witness.left, witness.right)


def test_future_peeking_bias_fails_time_ordered():
    system = FuturePeekingSystem(_params())
    report = check_time_ordered(system)
    assert not report.passed
    # the peek shows up on Alice's side when the varied inputs include
    # the future position the bias depends on
    sides = {v.side for v in report.violations}
    assert "alice" in sides
    alice_cuts = {v.cut for v in report.violations if v.side == "alice"}
    assert 2 in alice_cuts
    for witness in report.violations:
        left, right = replay_violation(system, witness)
        assert (left, right) == (witness.left, witness.right)
        assert left != right


@pytest.mark.parametrize("params", [_params(), BoxParams.quantum(2)], ids=["exact", "quantum"])
def test_mirrored_future_peeking_fails_bob_side_cut_2(params):
    """The mirror P'(x, y | u, v) = P(y, x | v, u) moves the peek to Bob's
    side: his first output depends on his second input."""
    system = MirroredSystem(FuturePeekingSystem(params))
    report = check_time_ordered(system)
    assert not report.passed
    assert {(v.side, v.cut) for v in report.violations} == {("bob", 2)}
    for witness in report.violations:
        assert witness.u_left == witness.u_right
        assert witness.v_left[0] == witness.v_right[0]
        assert witness.v_left[1] != witness.v_right[1]
        left, right = replay_violation(system, witness)
        if params.exact:
            assert (left, right) == (witness.left, witness.right)
        else:
            assert left == pytest.approx(witness.left, abs=FLOAT_ATOL)
            assert right == pytest.approx(witness.right, abs=FLOAT_ATOL)
        assert abs(left - right) > FLOAT_ATOL


def test_perturbed_alice_marginal_fails_on_bob_side():
    """Mass moved within a row's x-cells makes Alice's marginal depend on
    Bob's setting: the Bob-to-Alice direction must fail, and the witness
    must replay."""
    system = build_product_system(perturbed_alice_marginal_box(_params()), 2)
    report = check_ab(system)
    assert not report.passed
    bob_witnesses = [v for v in report.violations if v.side == "bob"]
    assert bob_witnesses
    for witness in bob_witnesses:
        assert witness.v_left != witness.v_right
        assert witness.u_left == witness.u_right
        left, right = replay_violation(system, witness)
        assert (left, right) == (witness.left, witness.right)
        assert left != right


def test_future_peeking_system_is_otherwise_sane():
    # it is a legal distribution; only the ordering conditions break
    system = FuturePeekingSystem(_params())
    total = sum(
        system.evaluate(x, y, (0, 1), (1, 0))
        for x in product((0, 1), repeat=2)
        for y in product((0, 1), repeat=2)
    )
    assert total == 1


def test_time_ordered_implies_ab_across_corpus(fig_parts):
    base, parts = fig_parts
    corpus = [base, *parts,
              build_product_system(perturbed_bob_marginal_box(_params()), 2),
              FuturePeekingSystem(_params())]
    for system in corpus:
        to = check_time_ordered(system)
        ab = check_ab(system)
        assert (not to.passed) or ab.passed


# ---------------------------------------------------------------------------
# subset checks

def test_subset_check_passes_on_product():
    system = build_product_system(build_unbiased_box(_params()), 3)
    for side in ("alice", "bob"):
        for subset in [(1,), (2,), (3,), (1, 2), (1, 3), (1, 2, 3)]:
            assert check_subset(system, side, subset).passed


def test_subset_last_position_matches_last_cut(fig_parts):
    base, parts = fig_parts
    report = check_subset(parts[0], "alice", (3,))
    assert report.passed  # consistent with the time-ordered cut at i = n


def test_subset_first_position_exploratory(fig_parts):
    """Whether the first input can signal later outputs is reported, not
    asserted; whatever comes out must replay consistently."""
    base, parts = fig_parts
    report = check_subset(parts[0], "alice", (1,))
    assert report.violations_total >= 0
    for witness in report.violations:
        left, right = replay_violation(parts[0], witness)
        assert (left, right) == (witness.left, witness.right)


def test_subset_validation(fig_parts):
    base, parts = fig_parts
    with pytest.raises(ValueError):
        check_subset(base, "alice", ())
    with pytest.raises(ValueError):
        check_subset(base, "alice", (0,))
    with pytest.raises(ValueError):
        check_subset(base, "alice", (4,))
    with pytest.raises(ValueError):
        check_subset(base, "eve", (1,))


def test_subset_validated_before_materializing():
    calls = []

    class CountingSystem(PerPointSystem):
        def evaluate(self, x, y, u, v):
            calls.append(x)
            return super().evaluate(x, y, u, v)

    system = CountingSystem(build_product_system(build_unbiased_box(_params()), 3))
    for max_evals in (DEFAULT_EVAL_CAP, 1):
        with pytest.raises(ValueError, match="nonempty subset of 1..3"):
            check_subset(system, "alice", [4], max_evals=max_evals)
    assert calls == []


def test_subset_of_everything_equals_ab_direction():
    system = build_product_system(perturbed_bob_marginal_box(_params()), 2)
    alice_oracle = len(brute_force_violations(system, "alice", (1, 2))[0])
    bob_oracle = len(brute_force_violations(system, "bob", (1, 2))[0])
    assert alice_oracle > 0  # the perturbation lets Alice's input show on Bob's side
    full_alice = check_subset(system, "alice", (1, 2))
    full_bob = check_subset(system, "bob", (1, 2))
    assert full_alice.violations_total == alice_oracle
    assert full_bob.violations_total == bob_oracle
    ab = check_ab(system)
    assert ab.violations_total == alice_oracle + bob_oracle


# ---------------------------------------------------------------------------
# the one kernel against the evaluate oracle

@st.composite
def ns_systems(draw):
    """Small systems, exact or quantum, with violations on either side:
    products of unbiased, biased and marginal-perturbed boxes, or (n = 2)
    the future-peeking system, each possibly mirrored."""
    n_settings = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 3))
    quantum = draw(st.booleans())
    params = BoxParams.quantum(n_settings) if quantum else _params(n_settings=n_settings)
    amount = 1 / 64 if quantum else Fraction(1, 64)
    if n == 2 and draw(st.booleans()):
        system = FuturePeekingSystem(params)
    else:
        makers = {
            "unbiased": lambda: build_unbiased_box(params),
            "biased": lambda: bias_box(build_unbiased_box(params), 1, params.eps),
            "bob-perturbed": lambda: perturbed_bob_marginal_box(params, amount),
            "alice-perturbed": lambda: perturbed_alice_marginal_box(params, amount),
        }
        kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=n, max_size=n))
        system = ProductSystem(tuple(makers[kind]() for kind in kinds))
    return MirroredSystem(system) if draw(st.booleans()) else system


@st.composite
def subset_cases(draw):
    """(system, side, subset), the subset possibly non-contiguous."""
    system = draw(ns_systems())
    side = draw(st.sampled_from(("alice", "bob")))
    subset = draw(st.sets(st.integers(1, system.n), min_size=1))
    return system, side, tuple(sorted(subset))


@given(subset_cases())
@settings(max_examples=40, deadline=None)
# a few violations per marginal grid, in several grids: the witnesses
# kept depend on the order in which the grids are compared
@example((ProductSystem((build_unbiased_box(_params()),
                         perturbed_alice_marginal_box(_params()))), "bob", (2,)))
@example((ProductSystem((build_unbiased_box(_params()),
                         perturbed_bob_marginal_box(_params()))), "alice", (2,)))
def test_subset_kernel_matches_evaluate_oracle(case):
    """Counts equal the oracle's, and the witnesses are the oracle's
    MAX_WITNESSES smallest violations by witness key: equal in exact
    mode, within FLOAT_ATOL in float mode."""
    system, side, subset = case
    report = check_subset(system, side, subset)
    oracle, checks = brute_force_violations(system, side, subset)
    assert report.violations_total == len(oracle)
    assert report.checks_performed == checks
    expected = sorted(oracle, key=_witness_key)[:MAX_WITNESSES]
    if report.tolerance == 0:
        assert report.violations == expected
        return
    assert len(report.violations) == len(expected)
    for got, want in zip(report.violations, expected):
        assert replace(got, left=0, right=0) == replace(want, left=0, right=0)
        assert abs(got.left - want.left) <= FLOAT_ATOL
        assert abs(got.right - want.right) <= FLOAT_ATOL


@given(ns_systems())
@settings(max_examples=20, deadline=None)
def test_time_ordered_cuts_are_subsets(system):
    """A time-ordered cut i on either side is the subset check over
    {i..n}: same totals, and the witnesses are the first MAX_WITNESSES of
    the cuts' witnesses, alice before bob, cut by cut."""
    table = materialize(system)
    report = check_time_ordered(system, table=table)
    n = system.n
    parts = [(side, cut, check_subset(system, side, range(cut, n + 1), table=table))
             for side in ("alice", "bob") for cut in range(1, n + 1)]
    assert report.violations_total == sum(r.violations_total for _, _, r in parts)
    assert report.checks_performed == sum(r.checks_performed for _, _, r in parts)
    relabeled = [replace(v, condition=f"time-ordered-{side}", cut=cut)
                 for side, cut, r in parts for v in r.violations]
    assert report.violations == relabeled[:MAX_WITNESSES]


# ---------------------------------------------------------------------------
# determinism, caps, materialization

def test_reports_are_deterministic():
    system = FuturePeekingSystem(_params())
    assert check_time_ordered(system) == check_time_ordered(system)


def test_eval_cap_refuses_instead_of_sampling():
    system = build_product_system(build_unbiased_box(_params()), 3)
    with pytest.raises(InfeasibleSizeError):
        check_time_ordered(system, max_evals=4095)
    with pytest.raises(InfeasibleSizeError):
        materialize(system, max_evals=10)


def test_materialized_table_matches_evaluate():
    system = build_product_system(build_unbiased_box(_params()), 2)
    table = materialize(system)
    # spot-check the decode path on a few indices
    N, n = system.n_settings, system.n
    X = 2**n
    for raw in [0, 5, 100, 255]:
        idx = raw % len(table.values)
        rest, y = divmod(idx, X)
        rest, x = divmod(rest, X)
        u, v = divmod(rest, N**n)
        point = system.evaluate(
            tuple((x >> (n - 1 - j)) & 1 for j in range(n)),
            tuple((y >> (n - 1 - j)) & 1 for j in range(n)),
            tuple((u // N**(n - 1 - j)) % N for j in range(n)),
            tuple((v // N**(n - 1 - j)) % N for j in range(n)),
        )
        assert Fraction(table.values[idx], table.den) == point


def test_checks_performed_counts_are_stable(fig_parts):
    base, parts = fig_parts
    report = check_time_ordered(base)
    # per cut and side: comparisons = kept-assignments * (varied - 1)
    n, N = 3, 2
    expected = 0
    for cut in range(1, n + 1):
        kept = 2 ** (cut - 1) * 2**n * N ** (cut - 1) * N**n
        varied = N ** (n - cut + 1)
        expected += kept * (varied - 1)
    assert report.checks_performed == 2 * expected


def test_replay_rejects_tampered_witness():
    system = FuturePeekingSystem(_params())
    witness = check_time_ordered(system).violations[0]
    tampered = replace(witness, summed_positions=witness.summed_positions + (1,))
    with pytest.raises(ValueError, match="summed positions do not match its kept outputs"):
        replay_violation(system, tampered)
