import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbell import (
    BoxParams,
    HashFunction,
    InfeasibleSizeError,
    Partition,
    SystemEvaluator,
    and_function,
    build_attack_partition,
    build_product_system,
    build_unbiased_box,
    constant_function,
    distance_details,
    distance_from_uniform,
    function_from_hex,
    is_almost_balanced,
    majority_function,
    random_function,
    run_attack,
    scan,
    theorem_bound,
    xor_function,
)

from helpers import PerPointSystem, lemma_distance_oracle, seeded_almost_balanced

EIGHTH = Fraction(1, 8)


def _params(eps=EIGHTH, n_settings=2):
    return BoxParams.rational(n_settings, eps)


# ---------------------------------------------------------------------------
# distance values

@pytest.mark.parametrize("n", range(2, 9))
def test_xor_distance_is_exactly_eps(n):
    f = xor_function(n)
    partition = build_attack_partition(f, _params())
    assert distance_from_uniform(f, partition) == EIGHTH


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 8), Fraction(1, 3)])
def test_xor_distance_tracks_eps(eps):
    f = xor_function(3)
    partition = build_attack_partition(f, _params(eps))
    assert distance_from_uniform(f, partition) == eps


def test_fig_function_distance_frozen_and_oracle_checked():
    f = function_from_hex("39")
    partition = build_attack_partition(f, _params())
    d = distance_from_uniform(f, partition)
    # frozen: every pivotal node of this function has influence 1, so the
    # advantage is the full eps; the oracle recomputes from raw joints
    assert d == EIGHTH
    assert d == lemma_distance_oracle(f, partition, (0, 0, 0), (0, 0, 0))
    assert d >= EIGHTH * Fraction(2, 9)  # the n = 3 bound, 1/36


def test_distance_zero_at_degenerate_eps():
    f = xor_function(2)
    partition = build_attack_partition(f, BoxParams.rational(2, 0))
    assert distance_from_uniform(f, partition) == 0


def test_distance_detail_relabels_key_when_needed():
    # three zeros clustered so that the root is pivotal with influence 1/4:
    # q0 = 13/32 on both labelings' best part, below 1/2, so the key labels
    # must flip; the distance is unaffected.
    f = HashFunction(3, (0, 0, 1, 1, 0, 1, 1, 1), "clustered")
    assert is_almost_balanced(f)
    partition = build_attack_partition(f, _params())
    detail = distance_details(f, partition)
    assert detail.distance == Fraction(1, 32)
    assert detail.key_relabeled
    assert detail.pr_k0_given_z0 == Fraction(21, 32) >= Fraction(1, 2)
    assert detail.q_parts == (Fraction(13, 32), Fraction(11, 32))
    assert detail.distance == lemma_distance_oracle(f, partition,
                                                    (0, 0, 0), (0, 0, 0))
    assert detail.distance >= theorem_bound(3, _params())


def test_distance_labels_straightforward_case():
    f = function_from_hex("39")
    partition = build_attack_partition(f, _params())
    detail = distance_details(f, partition)
    assert not detail.key_relabeled
    assert detail.z0_part == 0
    assert detail.pr_k0_given_z0 == Fraction(1, 2) + EIGHTH


# ---------------------------------------------------------------------------
# path consistency

@given(st.integers(0, 40), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_closed_form_equals_joint_summation(seed, n):
    f = random_function(n, seed)
    if not is_almost_balanced(f):
        return
    partition = build_attack_partition(f, _params())
    closed = distance_from_uniform(f, partition)
    at_zero = distance_from_uniform(f, partition, at_input=((0,) * n, (0,) * n))
    at_mixed = distance_from_uniform(
        f, partition,
        at_input=(tuple(j % 2 for j in range(n)), tuple((j + 1) % 2 for j in range(n))),
    )
    assert closed == at_zero == at_mixed


@given(st.integers(0, 60))
@settings(max_examples=30, deadline=None)
def test_distance_decomposes_over_pivotal_influences(seed):
    """The per-string advantage aggregates to eps * E[influence at pivot]."""
    f = random_function(3, seed)
    if not is_almost_balanced(f):
        return
    partition = build_attack_partition(f, _params())
    profile = partition.systems[0].profile
    recombined = EIGHTH * sum(
        Fraction(1, 2**rec.prefix_len) * f.tree.influence(rec.index, rec.prefix_code)
        for rec in profile.records
    )
    assert distance_from_uniform(f, partition) == recombined


# ---------------------------------------------------------------------------
# run_attack

def test_run_attack_xor_report():
    report = run_attack(xor_function(8), _params())
    assert report.strategy == "partition"
    assert report.distance == EIGHTH
    assert report.bound == EIGHTH * Fraction(2, 24)
    assert report.passed
    assert report.pivotal_histogram == {8: 256}
    assert report.ratio == Fraction(12)


def test_run_attack_constant_goes_trivial():
    report = run_attack(constant_function(4, 0), _params())
    assert report.strategy == "trivial"
    assert report.distance == Fraction(1, 2)
    assert report.trivial_guess == 0
    assert report.pr_k0_given_z0 == 1
    assert report.passed
    assert report.pivotal_histogram == {}


def test_run_attack_majority9_frozen():
    report = run_attack(majority_function(9), _params())
    # frozen after matching the raw joint-summation oracle in development
    assert report.strategy == "partition"
    assert report.distance == Fraction(35, 1024)
    assert report.bound < report.distance < EIGHTH


def test_run_attack_unbalanced_uses_trivial():
    report = run_attack(and_function(5), _params())  # 31 of 32 inputs map to 0
    assert report.strategy == "trivial"
    assert report.trivial_guess == 0
    assert report.distance == Fraction(31, 32) - Fraction(1, 2)
    assert report.passed


@given(st.integers(0, 30), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_run_attack_meets_bound(seed, n):
    report = run_attack(random_function(n, seed), _params())
    assert report.passed
    assert report.distance >= theorem_bound(n, _params())
    assert report.pr_k0_given_z0 >= Fraction(1, 2)


def test_run_attack_quantum_mode():
    report = run_attack(function_from_hex("39"), BoxParams.quantum(2))
    eps = math.sin(math.pi / 8) ** 2
    assert report.distance == pytest.approx(eps, abs=1e-12)
    assert report.passed


# ---------------------------------------------------------------------------
# malformed partitions

def test_distance_needs_two_parts():
    f = xor_function(2)
    partition = build_attack_partition(f, _params())
    with pytest.raises(ValueError, match="two-part"):
        distance_from_uniform(f, Partition(partition.parts[:1]))


def test_distance_rejects_foreign_partition():
    partition = build_attack_partition(xor_function(3), _params())
    with pytest.raises(ValueError, match="different hash function"):
        distance_from_uniform(majority_function(3), partition)


def test_distance_rejects_input_dependent_marginal():
    from helpers import FuturePeekingSystem

    class InputLeaky(FuturePeekingSystem):
        """X-marginal varies with u: not a legal part for the formula."""

        def evaluate(self, x, y, u, v):
            val = super().evaluate(x, y, u, v)
            if u[0] == 1:
                # move mass between x-strings in a y-preserving way
                shift = Fraction(1, 100)
                if x == (0, 0):
                    return val + shift * val
                if x == (1, 1):
                    return val - shift * val
            return val

    f = xor_function(2)
    bad = InputLeaky(_params())
    partition = Partition(((Fraction(1, 2), bad), (Fraction(1, 2), bad)))
    with pytest.raises(ValueError, match="input-dependent"):
        distance_from_uniform(f, partition)


class ShiftedMarginalSystem(SystemEvaluator):
    """Exact two-pair system: x = 00 has probability 0, returned as the
    int 0, and 4e-14 of mass moves from x = 10 to x = 01 when u_1 = 1, so
    the x = 01 marginal moves by 1e-14 with u."""

    n = 2
    n_settings = 2

    def evaluate(self, x, y, u, v):
        if tuple(x) == (0, 0):
            return 0
        shift = Fraction(1, 4 * 10**14) if u[0] == 1 else Fraction(0)
        if tuple(x) == (0, 1):
            return Fraction(1, 12) + shift
        if tuple(x) == (1, 0):
            return Fraction(1, 12) - shift
        return Fraction(1, 12)


def test_distance_rejects_input_dependence_below_float_tolerance():
    """Int 0 values count as exact: a shift far below FLOAT_ATOL is caught."""
    system = ShiftedMarginalSystem()
    partition = Partition(((Fraction(1, 2), system), (Fraction(1, 2), system)))
    with pytest.raises(ValueError, match="input-dependent X-marginal"):
        distance_details(xor_function(2), partition)


class MixedInputShiftSystem(PerPointSystem):
    """An exact 2-pair product of unbiased boxes whose x = 01 and x = 10
    marginals move by +-1/25 at u = (1, 0) only, to 29/100 and 21/100."""

    def evaluate(self, x, y, u, v):
        val = self.inner.evaluate(x, y, u, v)
        if tuple(u) == (1, 0) and tuple(x) in ((0, 1), (1, 0)):
            return val * (Fraction(29, 25) if tuple(x) == (0, 1) else Fraction(21, 25))
        return val


def test_distance_rejects_input_dependence_at_mixed_inputs():
    """The X-marginal is compared at every (u, v), not only at the
    all-zeros and all-(N-1) inputs."""
    system = MixedInputShiftSystem(build_product_system(build_unbiased_box(_params()), 2))
    partition = Partition(((Fraction(1, 2), system), (Fraction(1, 2), system)))
    with pytest.raises(ValueError, match=r"input-dependent X-marginal at x=\(0, 1\): 1/4 vs 29/100"):
        distance_details(xor_function(2), partition)


def test_distance_refuses_generic_part_above_the_evaluation_cap():
    calls = []

    class CountingSystem(PerPointSystem):
        def evaluate(self, x, y, u, v):
            calls.append(x)
            return super().evaluate(x, y, u, v)

    # (4 * 2^2)^7 = 2^28 joint-table entries, above the 2^26 default cap
    system = CountingSystem(build_product_system(build_unbiased_box(_params()), 7))
    partition = Partition(((Fraction(1, 2), system), (Fraction(1, 2), system)))
    with pytest.raises(InfeasibleSizeError):
        distance_details(xor_function(7), partition)
    assert calls == []


# ---------------------------------------------------------------------------
# scans

def test_scan_xor_row_shape():
    rows = scan("xor", range(2, 17), _params())
    assert [r.n for r in rows] == list(range(2, 17))
    for row in rows:
        assert row.error is None
        assert row.strategy == "partition"
        assert row.distance == EIGHTH
        assert row.bound == theorem_bound(row.n, _params())
        assert row.ratio == row.distance / row.bound
        assert row.distance_times_n == EIGHTH * row.n
        assert row.distance_times_sqrt_n == pytest.approx(
            float(EIGHTH) * math.sqrt(row.n))
        assert row.passed


def test_scan_random_family_all_pass():
    rows = scan("random:7", range(4, 13), _params())
    assert all(row.error is None for row in rows)
    assert all(row.ratio >= 1 for row in rows)


def test_scan_majority_sqrt_band():
    rows = scan("majority", range(3, 14, 2), _params())
    values = [row.distance_times_sqrt_n for row in rows]
    assert max(values) <= 2 * min(values)


def test_scan_records_errors_and_continues():
    rows = scan("hex:39", [3, 4], _params())
    assert rows[0].error is None and rows[0].distance == EIGHTH
    assert rows[1].error is not None  # hex table pins n = 3
    assert rows[1].distance is None


def test_seeded_corpus_helper_is_deterministic():
    a = seeded_almost_balanced(3, 5)
    b = seeded_almost_balanced(3, 5)
    assert [f.bits for f in a] == [f.bits for f in b]
    assert all(is_almost_balanced(f) for f in a)
