import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbell import nonsignalling
from chainbell import (
    EVAL_CAP,
    FLOAT_ATOL,
    AttackedSystem,
    BoxParams,
    BoxProductSystem,
    HashFunction,
    InfeasibleSizeError,
    Partition,
    ProductSystem,
    SinglePairBox,
    SystemEvaluator,
    and_function,
    bias_box,
    build_attack_partition,
    build_pivotal_profile,
    build_product_system,
    build_unbiased_box,
    distance_details,
    function_from_hex,
    is_almost_balanced,
    majority_function,
    or_function,
    random_function,
    run_attack,
    scan,
    theorem_bound,
    xor_function,
)

from helpers import (
    FuturePeekingSystem,
    PerPointSystem,
    acceptance_corpus,
    constant_function,
    influence,
    joint_key_zero_prob,
    lemma_distance_oracle,
    profile_records,
    seeded_almost_balanced,
)

EIGHTH = Fraction(1, 8)


def _params(eps=EIGHTH, n_settings=2):
    return BoxParams.rational(n_settings, eps)


# ---------------------------------------------------------------------------
# distance values

@pytest.mark.parametrize("n", range(2, 9))
def test_xor_distance_is_exactly_eps(n):
    f = xor_function(n)
    partition = build_attack_partition(f, _params())
    assert distance_details(f, partition).distance == EIGHTH


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 8), Fraction(1, 3)])
def test_xor_distance_tracks_eps(eps):
    f = xor_function(3)
    partition = build_attack_partition(f, _params(eps))
    assert distance_details(f, partition).distance == eps


def test_fig_function_distance_frozen_and_oracle_checked():
    f = function_from_hex("39")
    partition = build_attack_partition(f, _params())
    d = distance_details(f, partition).distance
    # frozen: every pivotal node of this function has influence 1, so the
    # advantage is the full eps; the oracle recomputes from raw joints
    assert d == EIGHTH
    assert d == lemma_distance_oracle(f, partition, (0, 0, 0), (0, 0, 0))
    assert d >= EIGHTH * Fraction(2, 9)  # the n = 3 bound, 1/36


def test_distance_zero_at_degenerate_eps():
    f = xor_function(2)
    partition = build_attack_partition(f, BoxParams.rational(2, 0))
    assert distance_details(f, partition).distance == 0


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
    closed = distance_details(f, partition).distance
    at_zero = distance_details(f, partition, at_input=((0,) * n, (0,) * n)).distance
    at_mixed = distance_details(
        f, partition,
        at_input=(tuple(j % 2 for j in range(n)), tuple((j + 1) % 2 for j in range(n))),
    ).distance
    assert closed == at_zero == at_mixed


def _corpus_inputs(n, n_settings):
    """The all-zero, a mixed and the all-last input at n pairs."""
    last = n_settings - 1
    return [((0,) * n, (0,) * n),
            (tuple(j % n_settings for j in range(n)),
             tuple((j + 1) % n_settings for j in range(n))),
            ((last,) * n, (last,) * n)]


@pytest.mark.parametrize("params", [
    _params(), _params(Fraction(1, 3)), _params(EIGHTH, 3),
    BoxParams.quantum(2), BoxParams.quantum(3),
], ids=["N2-eps1/8", "N2-eps1/3", "N3-eps1/8", "quantum-N2", "quantum-N3"])
def test_box_products_sum_alice_marginals_as_evaluate_does(params, monkeypatch):
    """Every attacked part of the acceptance corpus, summed at one input
    from its boxes' Alice marginals, against the per-point sum of
    ``evaluate``: equal as exact values of the same types in rational
    mode, within FLOAT_ATOL in quantum mode, with no ``evaluate`` call."""
    calls = []
    shared = BoxProductSystem.evaluate

    def counting(self, x, y, u, v):
        calls.append(x)
        return shared(self, x, y, u, v)

    monkeypatch.setattr(BoxProductSystem, "evaluate", counting)
    for f in acceptance_corpus():
        partition = build_attack_partition(f, params)
        for u, v in _corpus_inputs(f.n, params.n_settings):
            want_q = [joint_key_zero_prob(f, part, u, v) for part in partition.systems]
            want = lemma_distance_oracle(f, partition, u, v)
            calls.clear()
            detail = distance_details(f, partition, at_input=(u, v))
            assert calls == [], (f.name, u, v)
            got, wants = [*detail.q_parts, detail.distance], [*want_q, want]
            assert list(map(type, got)) == list(map(type, wants)), (f.name, u, v)
            if params.exact:
                assert got == wants, (f.name, u, v)
            else:
                assert all(abs(a - b) <= FLOAT_ATOL for a, b in zip(got, wants)), (f.name, u, v)


class ShiftedProductSystem(ProductSystem):
    """A box product that overrides ``evaluate``: its x = 01 and x = 10
    marginals move by +-1/25 at u = (1, 0) only, to 29/100 and 21/100."""

    def evaluate(self, x, y, u, v):
        val = super().evaluate(x, y, u, v)
        if tuple(u) == (1, 0) and tuple(x) in ((0, 1), (1, 0)):
            return val * (Fraction(29, 25) if tuple(x) == (0, 1) else Fraction(21, 25))
        return val


def test_box_product_that_overrides_evaluate_is_summed_through_it():
    """Only a box product that keeps the shared ``evaluate`` is read off
    its boxes; the override's moved marginal shows at u = (1, 0)."""
    system = ShiftedProductSystem((build_unbiased_box(_params()),) * 2)
    partition = Partition(((Fraction(1, 2), system), (Fraction(1, 2), system)))
    f = HashFunction(2, (1, 0, 1, 1))  # f(x) = 0 at x = 01 only
    for u, q in [((0, 0), Fraction(1, 4)), ((1, 0), Fraction(29, 100))]:
        assert distance_details(f, partition, at_input=(u, (1, 0))).q_parts == (q, q)


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
        Fraction(1, 2**length) * influence(f.tree, length + 1, code)
        for length, code, _ in profile_records(profile)
    )
    assert distance_details(f, partition).distance == recombined


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
        distance_details(f, Partition(partition.parts[:1]))


def test_distance_rejects_foreign_partition():
    partition = build_attack_partition(xor_function(3), _params())
    with pytest.raises(ValueError, match="different hash function"):
        distance_details(majority_function(3), partition)


def test_distance_rejects_input_dependent_marginal():
    """A part that is not an AttackedSystem has no closed form: it is
    refused before any evaluate call, and summed at one input instead."""
    calls = []

    class InputLeaky(FuturePeekingSystem):
        """X-marginal varies with u: not a legal part for the formula."""

        def evaluate(self, x, y, u, v):
            calls.append(x)
            val = super().evaluate(x, y, u, v)
            if u[0] == 1:
                # move mass between x-strings in a y-preserving way
                shift = Fraction(1, 100)
                if x == (0, 0):
                    return val + shift * val
                if x == (1, 1):
                    return val - shift * val
            return val

    f = or_function(2)  # f(x) = 0 at x = 00 only
    bad = InputLeaky(_params())
    partition = Partition(((Fraction(1, 2), bad), (Fraction(1, 2), bad)))
    with pytest.raises(ValueError, match="at_input"):
        distance_details(f, partition)
    assert calls == []
    # P(x = 00) = (1/2 + eps) / 2 = 5/16, moved by 1% when u_1 = 1
    for u, q in [((0, 0), Fraction(5, 16)), ((1, 0), Fraction(101, 320))]:
        detail = distance_details(f, partition, at_input=(u, (0, 0)))
        assert detail.q_parts == (q, q)
        assert detail.distance == lemma_distance_oracle(f, partition, u, (0, 0))


@pytest.mark.parametrize("at_input, message", [
    (((0, 0, 0), (0, 0, 0)), "expected four length-2 vectors, got lengths 2, 2, 3, 3"),
    (((0, 0), (0,)), "expected four length-2 vectors, got lengths 2, 2, 2, 1"),
    (((0, 2), (0, 0)), "Alice setting 2 out of range for N=2"),
    (((0, 0), (0, -1)), "Bob setting -1 out of range for N=2"),
])
def test_distance_checks_the_input_against_every_part(at_input, message):
    """An input that does not fit the parts is refused before the first
    evaluate call, also for parts that do not check their own points."""
    calls = []

    class Counting(FuturePeekingSystem):
        def evaluate(self, x, y, u, v):
            calls.append(x)
            return super().evaluate(x, y, u, v)

    part = Counting(_params())
    partition = Partition(((Fraction(1, 2), part), (Fraction(1, 2), part)))
    with pytest.raises(ValueError, match=re.escape(message)):
        distance_details(xor_function(2), partition, at_input=at_input)
    assert calls == []


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
    """Sums at one input stay exact when some values are the int 0, so a
    shift far below FLOAT_ATOL shows between two inputs."""
    system = ShiftedMarginalSystem()
    partition = Partition(((Fraction(1, 2), system), (Fraction(1, 2), system)))
    f = HashFunction(2, (0, 0, 1, 1))  # f(x) = 0 at x = 00 and 01
    with pytest.raises(ValueError, match="at_input"):
        distance_details(f, partition)
    still = distance_details(f, partition, at_input=((0, 0), (0, 0))).q_parts
    moved = distance_details(f, partition, at_input=((1, 0), (0, 0))).q_parts
    assert still == (Fraction(1, 3),) * 2
    assert moved == (Fraction(1, 3) + Fraction(1, 10**14),) * 2
    assert all(isinstance(q, Fraction) for q in still + moved)


class MixedInputShiftSystem(PerPointSystem):
    """An exact 2-pair product of unbiased boxes whose x = 01 and x = 10
    marginals move by +-1/25 at u = (1, 0) only, to 29/100 and 21/100."""

    def evaluate(self, x, y, u, v):
        val = self.inner.evaluate(x, y, u, v)
        if tuple(u) == (1, 0) and tuple(x) in ((0, 1), (1, 0)):
            return val * (Fraction(29, 25) if tuple(x) == (0, 1) else Fraction(21, 25))
        return val


def test_distance_rejects_input_dependence_at_mixed_inputs():
    """A shift at a mixed input only is refused by the closed form and
    seen by summation at that input."""
    system = MixedInputShiftSystem(build_product_system(build_unbiased_box(_params()), 2))
    partition = Partition(((Fraction(1, 2), system), (Fraction(1, 2), system)))
    f = HashFunction(2, (1, 0, 1, 1))  # f(x) = 0 at x = 01 only
    with pytest.raises(ValueError, match="at_input"):
        distance_details(f, partition)
    for u, q in [((0, 0), Fraction(1, 4)), ((0, 1), Fraction(1, 4)),
                 ((1, 1), Fraction(1, 4)), ((1, 0), Fraction(29, 100))]:
        assert distance_details(f, partition, at_input=(u, (1, 0))).q_parts == (q, q)


def test_distance_refuses_generic_part_above_the_evaluation_cap():
    """Summation at one input needs zeros(f) * 2^n evaluate calls per part
    and is refused above EVAL_CAP before the first call."""
    calls = []

    class CountingSystem(PerPointSystem):
        def evaluate(self, x, y, u, v):
            calls.append(x)
            raise AssertionError("evaluate called")  # fail fast, not after 2^27 calls

    # xor on 14 bits: 2^13 zeros * 2^14 outputs y = 2^27 calls, above 2^26
    system = CountingSystem(build_product_system(build_unbiased_box(_params()), 14))
    partition = Partition(((Fraction(1, 2), system), (Fraction(1, 2), system)))
    f = xor_function(14)
    assert f.zeros_total * 2**f.n > EVAL_CAP
    with pytest.raises(InfeasibleSizeError, match=str(2**27)):
        distance_details(f, partition, at_input=((0,) * 14, (0,) * 14))
    with pytest.raises(ValueError, match="at_input"):
        distance_details(f, partition)
    assert calls == []


def test_distance_admits_box_products_by_alice_marginal_cells():
    """A box product built from its boxes costs zeros(f) * n Alice-marginal
    cells at one input, not zeros(f) * 2^n evaluations: xor on 14 bits,
    2^27 evaluations through ``evaluate``, is 2^13 * 14 cells from the
    boxes, and its distance at one input is the closed form's, eps."""
    f = xor_function(14)
    partition = build_attack_partition(f, _params())
    assert f.zeros_total * 2**f.n > EVAL_CAP >= f.zeros_total * f.n
    summed = distance_details(f, partition, at_input=((0,) * 14, (1,) * 14))
    assert summed == distance_details(f, partition)
    assert summed.distance == EIGHTH


@pytest.mark.parametrize("wrap, cost, path", [
    (lambda part: part, 32, "from its boxes' Alice marginals needs 32 Alice-marginal cells"),
    (PerPointSystem, 128, "through evaluate needs 128 evaluations"),
])
def test_distance_refusal_names_the_path(monkeypatch, wrap, cost, path):
    """Each path is counted in its own unit: xor on 4 bits has 8 zeros,
    so a part costs 8 * 4 cells from its boxes, or 8 * 2^4 ``evaluate``
    calls.  With the cap one below that cost the part is refused, and
    the message names the path; with the cap at the cost it runs."""
    f = xor_function(4)
    attack = build_attack_partition(f, _params())
    partition = Partition(tuple((w, wrap(part)) for w, part in attack.parts))
    at_input = ((0,) * 4, (0,) * 4)
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", cost - 1)
    with pytest.raises(InfeasibleSizeError, match=re.escape(path)):
        distance_details(f, partition, at_input=at_input)
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", cost)
    assert distance_details(f, partition, at_input=at_input).distance == EIGHTH


# ---------------------------------------------------------------------------
# closed-form premises

def _attacked_partition(f, base, biased):
    profile = build_pivotal_profile(f)
    return Partition(tuple((Fraction(1, 2), AttackedSystem(base, biased, profile, z))
                           for z in (0, 1)))


def _distance_at(f, partition, u):
    detail = distance_details(f, partition, at_input=(u, (1,) * f.n))
    assert detail.distance == lemma_distance_oracle(f, partition, u, (1,) * f.n)
    return detail.distance


def test_closed_form_refuses_base_box_with_biased_alice_marginal():
    """The closed form assumes a base Alice marginal of 1/2; here it is
    11/20, and the closed form had returned 1/10."""
    unbiased = build_unbiased_box(_params(Fraction(1, 4)))
    base = bias_box(unbiased, 0, Fraction(1, 20))
    biased = (bias_box(base, 0, Fraction(1, 20)), bias_box(base, 1, Fraction(1, 20)))
    f = xor_function(3)
    partition = _attacked_partition(f, base, biased)
    with pytest.raises(ValueError, match="base box's Alice marginal is 1/2 at every setting; pass at_input"):
        distance_details(f, partition)
    for u in [(0, 0, 0), (1, 0, 1)]:
        assert _distance_at(f, partition, u) == Fraction(101, 2000)


def test_closed_form_refuses_biased_boxes_that_do_not_mirror():
    """biased[1] shifts eps/2 = 1/16 instead of 1/8; the closed form read
    biased[0] alone and had returned 1/4."""
    unbiased = build_unbiased_box(_params(Fraction(1, 4)))
    biased = (bias_box(unbiased, 0, Fraction(1, 4)), bias_box(unbiased, 1, Fraction(1, 8)))
    f = xor_function(3)
    partition = _attacked_partition(f, unbiased, biased)
    with pytest.raises(ValueError, match=r"biased\[1\]'s Alice marginal mirrors biased\[0\]'s; pass at_input"):
        distance_details(f, partition)
    for u in [(0, 0, 0), (1, 0, 1)]:
        assert _distance_at(f, partition, u) == Fraction(3, 16)


def test_closed_form_refuses_setting_dependent_biased_marginal():
    """A legal box whose Alice marginal depends on her own setting: the
    attack's distance then depends on the input at the pivot."""
    unbiased = build_unbiased_box(_params(Fraction(1, 4)))

    def split_box(sigma):  # bias eps at a = 0, eps/2 at a = 1
        wide, narrow = (bias_box(unbiased, sigma, e) for e in (Fraction(1, 4), Fraction(1, 8)))
        box = SinglePairBox(2, wide.cells[:8] + narrow.cells[8:])
        box.validate()
        return box

    f = xor_function(3)
    partition = _attacked_partition(f, unbiased, (split_box(0), split_box(1)))
    with pytest.raises(ValueError, match=r"biased\[0\]'s Alice marginal is the same at every setting; pass at_input"):
        distance_details(f, partition)
    assert _distance_at(f, partition, (0, 0, 0)) == Fraction(1, 4)
    assert _distance_at(f, partition, (1, 1, 1)) == Fraction(1, 8)


def test_closed_form_premises_hold_for_the_paper_construction():
    f = function_from_hex("39")
    for params in [_params(), _params(Fraction(1, 2), 3), BoxParams.quantum(2), BoxParams.quantum(4)]:
        partition = build_attack_partition(f, params)
        closed = distance_details(f, partition).distance
        summed = distance_details(f, partition, at_input=((1, 0, 1), (0, 1, 1))).distance
        assert closed == summed if params.exact else abs(closed - summed) <= FLOAT_ATOL


# ---------------------------------------------------------------------------
# scans

def test_scan_xor_row_shape():
    rows = scan("xor", range(2, 17), _params())
    assert [r.n for r in rows] == list(range(2, 17))
    for row in rows:
        assert row.error is None
        assert row.report.strategy == "partition"
        assert row.report.distance == EIGHTH
        assert row.report.bound == theorem_bound(row.n, _params())
        assert row.report.ratio == row.report.distance / row.report.bound
        assert row.distance_times_n == EIGHTH * row.n
        assert row.distance_times_sqrt_n == pytest.approx(
            float(EIGHTH) * math.sqrt(row.n))
        assert row.report.passed


def test_scan_random_family_all_pass():
    rows = scan("random:7", range(4, 13), _params())
    assert all(row.error is None for row in rows)
    assert all(row.report.ratio >= 1 for row in rows)


def test_scan_majority_sqrt_band():
    rows = scan("majority", range(3, 14, 2), _params())
    values = [row.distance_times_sqrt_n for row in rows]
    assert max(values) <= 2 * min(values)


def test_scan_records_errors_and_continues():
    rows = scan("hex:39", [3, 4], _params())
    assert rows[0].error is None and rows[0].report.distance == EIGHTH
    assert rows[1].error is not None  # hex table pins n = 3
    assert rows[1].report is None


def test_seeded_corpus_helper_is_deterministic():
    a = seeded_almost_balanced(3, 5)
    b = seeded_almost_balanced(3, 5)
    assert [f.bits for f in a] == [f.bits for f in b]
    assert all(is_almost_balanced(f) for f in a)
