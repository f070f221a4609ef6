from array import array
from dataclasses import replace
from functools import cache
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbell import (
    EVAL_CAP,
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
from chainbell import nonsignalling
from chainbell.nonsignalling import MAX_WITNESSES

from helpers import (
    FuturePeekingSystem,
    MirroredSystem,
    PerPointSystem,
    TableSystem,
    acceptance_corpus,
    brute_force_violations,
    lines_run_in,
    oracle_table,
    perturbed_alice_marginal_box,
    perturbed_bob_marginal_box,
    seeded_almost_balanced,
    witness_key,
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


@pytest.mark.parametrize("subset, repeated", [((1, 1), 1), ((2, 1, 2), 2)])
def test_subset_refuses_repeated_positions(subset, repeated):
    """A position named twice is refused, as the CLI refuses it, not
    checked as the set of distinct positions."""
    system = build_product_system(build_unbiased_box(_params()), 2)
    with pytest.raises(ValueError, match=rf"names position {repeated} more than once, "
                                         rf"got \({subset[0]}, "):
        check_subset(system, "alice", subset)


def test_subset_validated_before_materializing(monkeypatch):
    calls = []

    class CountingSystem(PerPointSystem):
        def evaluate(self, x, y, u, v):
            calls.append(x)
            return super().evaluate(x, y, u, v)

    system = CountingSystem(build_product_system(build_unbiased_box(_params()), 3))
    for cap in (EVAL_CAP, 1):
        monkeypatch.setattr(nonsignalling, "EVAL_CAP", cap)
        with pytest.raises(ValueError, match="nonempty subset of 1..3"):
            check_subset(system, "alice", [4])
    assert calls == []


@pytest.mark.parametrize("subset", [[1.5], [2.0], ["2"], [1, 2.0], [True]])
def test_subset_positions_must_be_ints(subset):
    system = build_product_system(build_unbiased_box(_params()), 3)
    with pytest.raises(ValueError, match="nonempty subset of 1..3"):
        check_subset(system, "alice", subset)


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


def assert_same_witnesses(got, want, *, exact):
    """Equal witnesses in exact mode; in float mode the same points, with
    values within FLOAT_ATOL."""
    if exact:
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert replace(g, left=0, right=0) == replace(w, left=0, right=0)
        assert abs(g.left - w.left) <= FLOAT_ATOL
        assert abs(g.right - w.right) <= FLOAT_ATOL


@given(subset_cases())
@settings(max_examples=40, deadline=None)
# a few violations per marginal grid, in several grids: the witnesses
# kept depend on the order in which the grids are compared
@example((ProductSystem((build_unbiased_box(_params()),
                         perturbed_alice_marginal_box(_params()))), "bob", (2,)))
@example((ProductSystem((build_unbiased_box(_params()),
                         perturbed_bob_marginal_box(_params()))), "alice", (2,)))
# a gapped subset at n = 3, N = 3, with thousands of violations: each
# witness's grid index is spread over kept outcome digits with a hole
@example((ProductSystem((perturbed_bob_marginal_box(_params(n_settings=3)),) * 3),
          "alice", (1, 3)))
@example((ProductSystem((perturbed_alice_marginal_box(_params(n_settings=3)),) * 3),
          "bob", (1, 3)))
def test_subset_kernel_matches_evaluate_oracle(case):
    """Counts equal the oracle's, and the witnesses are the oracle's
    MAX_WITNESSES smallest violations by witness key: equal in exact
    mode, within FLOAT_ATOL in float mode."""
    system, side, subset = case
    report = check_subset(system, side, subset)
    oracle, checks = brute_force_violations(system, side, subset)
    assert report.violations_total == len(oracle)
    assert report.checks_performed == checks
    expected = sorted(oracle, key=witness_key)[:MAX_WITNESSES]
    assert_same_witnesses(report.violations, expected, exact=report.tolerance == 0)


@given(ns_systems())
@settings(max_examples=20, deadline=None)
def test_time_ordered_cuts_are_subsets(system):
    """A time-ordered cut i on either side is the subset check over
    {i..n}: same totals, and the witnesses are the first MAX_WITNESSES of
    the cuts' witnesses, alice before bob, cut by cut.  Each subset check
    runs on a fresh ``replace`` copy of the table, so it sums and
    compares its own marginal rather than reading the cut's answer."""
    table = materialize(system)
    report = check_time_ordered(system, table=table)
    n = system.n
    parts = [(side, cut, check_subset(system, side, range(cut, n + 1), table=replace(table)))
             for side in ("alice", "bob") for cut in range(1, n + 1)]
    assert report.violations_total == sum(r.violations_total for _, _, r in parts)
    assert report.checks_performed == sum(r.checks_performed for _, _, r in parts)
    relabeled = [replace(v, condition=f"time-ordered-{side}", cut=cut)
                 for side, cut, r in parts for v in r.violations]
    assert report.violations == relabeled[:MAX_WITNESSES]


class RememberingSystem(PerPointSystem):
    """Evaluates each point of the wrapped system once: the oracle below
    sums every point once per cut."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = {}

    def evaluate(self, x, y, u, v):
        point = (tuple(x), tuple(y), tuple(u), tuple(v))
        if point not in self.seen:
            self.seen[point] = self.inner.evaluate(x, y, u, v)
        return self.seen[point]


@pytest.mark.parametrize("params", [_params(n_settings=3), BoxParams.quantum(3)],
                         ids=["exact", "quantum"])
@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
def test_time_ordered_cuts_match_evaluate_oracle(monkeypatch, params, mirrored):
    """Every cut of the time-ordered chain, at n = 3 and N = 3, against
    direct summation of ``evaluate``: the first pair peeks at the third
    output bit, so Alice's (or, mirrored, Bob's) cuts 2 and 3 fail.  Each
    cut's count and checks equal the oracle's, and its witnesses are the
    oracle's first MAX_WITNESSES by witness key."""
    system = FuturePeekingSystem(params, n=3, early=1, late=3)
    system = RememberingSystem(MirroredSystem(system) if mirrored else system)
    kernel = nonsignalling._independence
    cuts = {}

    def recording(table, grid, side, subset):
        answer = kernel(table, grid, side, subset)
        cuts[side, subset[0]] = nonsignalling._labelled(
            table, side, subset, answer, f"time-ordered-{side}", subset[0])
        return answer

    monkeypatch.setattr(nonsignalling, "_independence", recording)
    report = check_time_ordered(system)
    assert sorted(cuts) == [(side, cut) for side in ("alice", "bob") for cut in (1, 2, 3)]
    failing = "bob" if mirrored else "alice"
    for (side, cut), (violations, total, checks) in cuts.items():
        oracle, oracle_checks = brute_force_violations(
            system, side, range(cut, 4), condition=f"time-ordered-{side}", cut=cut)
        assert (total, checks) == (len(oracle), oracle_checks)
        assert (total > 0) == (side == failing and cut > 1)
        expected = sorted(oracle, key=witness_key)[:MAX_WITNESSES]
        assert_same_witnesses(violations, expected, exact=params.exact)
    assert report.violations_total == sum(total for _, total, _ in cuts.values())


# ---------------------------------------------------------------------------
# whole-slice sums and comparisons on n = 3, N = 3 tables

@cache
def _slice_tables():
    """Passing n = 3, N = 3 product tables in the three layouts the
    kernel reads: floats in a list (quantum, built from the boxes), exact
    ints in a list (rational, per point) and lanes (rational, built from
    the boxes)."""
    quantum = build_product_system(build_unbiased_box(BoxParams.quantum(3)), 3)
    rational = build_product_system(build_unbiased_box(_params(n_settings=3)), 3)
    tables = {"float-list": materialize(quantum),
              "exact-list": oracle_table(rational),
              "lanes": materialize(rational)}
    assert [type(t.values) for t in tables.values()] == [list, list, array]
    return tables


@pytest.mark.parametrize("slab", [2**13, 2**6, 2**2])
def test_list_sum_out_is_the_run_by_run_sum(monkeypatch, slab):
    """Every stride of the n = 3, N = 3 float and exact lists against the
    definition, run by run, the floats bit for bit.  A list is summed
    _SLAB / 2 entries, or one run, at a time.  The table has 46,656
    entries, so its last slab of 2^12 is partial, and every stride reads
    one step-slice pair per offset; with _SLAB = 2^6 (slabs of 2^5)
    strides 1 and 2 do and strides 4 to 32 read one pair per run; with _SLAB = 2^2 every
    slab is one run."""
    monkeypatch.setattr(nonsignalling, "_SLAB", slab)
    tables = _slice_tables()
    for values in (tables["float-list"].values, tables["exact-list"].values):
        for stride in (1, 2, 4, 8, 16, 32):
            want = [a + b for start in range(0, len(values), 2 * stride)
                    for a, b in zip(values[start:start + stride],
                                    values[start + stride:start + 2 * stride])]
            got = nonsignalling._sum_out(values, stride)
            assert type(got) is list and len(got) == len(values) // 2
            assert list(map(_bits, got)) == list(map(_bits, want))


def _bits(value):
    return value.hex() if isinstance(value, float) else value


#: (side, subset) at n = 3, N = 3 -> the length of every slice the kernel
#: compares.  Alice {1, 3} keeps digit 2 inside the subset: its runs of
#: 27 settings words x 16 kept outcomes start three runs apart.  Bob {1, 3}: runs
#: of one settings word, 3 runs after each of 27 firsts.  Bob {2, 3}: 81
#: runs of 16 entries, so one strided slice of 81 per offset.
SLICE_CASES = {("alice", (1, 3)): 432, ("bob", (1, 3)): 16, ("bob", (2, 3)): 81}


def _planted(table, side, subset):
    """``table`` with violations planted: at the all-zero settings word,
    which every delta compares, one entry per kept outcome digit with
    that digit 1; and, at outcome 0, two moved from the last reference
    word (N - 1 at every kept digit): by the smallest delta, and by the
    largest, to the last settings word.  The smallest delta's sequences
    are read first, yet its second violation comes after all of the
    first word's in witness order.  An exact entry is raised by 1, a
    float by 1/64: 4 x 8 + 2 = 34 violations."""
    n, N = table.n, table.n_settings
    digits = {p + (0 if side == "alice" else n) for p in subset}
    kept = [q for q in range(1, 2 * n + 1) if q not in digits]
    last_ref = sum((N - 1) * N ** (2 * n - q) for q in kept)
    smallest = N ** (2 * n - max(digits))
    planted = [1 << (2 * n - q) for q in kept]
    planted += [(last_ref + smallest) * 4**n, (N ** (2 * n) - 1) * 4**n]
    values = (array(table.values.typecode, table.values) if isinstance(table.values, array)
              else list(table.values))
    for index in planted:
        values[index] += 1 if table.exact else 1 / 64
    return replace(table, values=values)


@pytest.mark.parametrize("layout", ["float-list", "exact-list", "lanes"])
@pytest.mark.parametrize("side, subset", list(SLICE_CASES),
                         ids=[f"{side}-{subset}" for side, subset in SLICE_CASES])
def test_slice_comparisons_match_the_oracle(monkeypatch, layout, side, subset):
    """The kernel compares whole slices, runs or strided per offset, and
    merges the first witnesses of each sequence of slices.  On planted
    tables its count, checks and witnesses equal the oracle's, summed
    from the planted table entry by entry: the first MAX_WITNESSES by
    witness key, which come from several deltas and kept outcomes, so
    from several sequences.  The float list also holds honest pairs
    that differ only in their last bits."""
    table = _planted(_slice_tables()[layout], side, subset)
    lengths = set()
    count_differing = nonsignalling._count_differing
    monkeypatch.setattr(nonsignalling, "_count_differing",
                        lambda lhs, rhs: lengths.add(len(lhs)) or count_differing(lhs, rhs))
    system = TableSystem(table)
    report = check_subset(system, side, subset, table=table)
    assert lengths == {SLICE_CASES[side, subset]}
    oracle, checks = brute_force_violations(system, side, subset)
    assert (report.violations_total, report.checks_performed) == (len(oracle), checks)
    assert len(oracle) == 34
    expected = sorted(oracle, key=witness_key)[:MAX_WITNESSES]
    assert_same_witnesses(report.violations, expected, exact=table.exact)
    assert len({(w.u_right, w.v_right) for w in expected}) > 1
    assert len({(w.x_kept, w.y_kept) for w in expected}) > 1


def test_time_ordered_runs_a_few_lines_per_block():
    """The chain sums whole tables in C and compares whole blocks: on a
    passing exact n = 4, N = 2 table it runs at most 16 lines per (u, v)
    block and cut, where a per-block gather of the marginals runs
    several times more."""
    n, N = 4, 2
    system = build_product_system(build_unbiased_box(_params()), n)
    table = materialize(system)
    module = nonsignalling.__file__
    lines = lines_run_in(lambda code: code.co_filename == module,
                         check_time_ordered, system, table=table)
    assert lines <= 16 * n * N ** (2 * n)


def test_time_ordered_runs_a_few_lines_per_cut():
    """On a passing exact n = 4, N = 2 table each cut is decided by
    comparing whole rows of the grid, a few per subset digit: at most 80
    lines per cut and side, whatever the number of settings blocks.
    Comparing block pairs one at a time runs about 1,260."""
    n = 4
    system = build_product_system(build_unbiased_box(_params()), n)
    table = materialize(system)
    module = nonsignalling.__file__
    lines = lines_run_in(lambda code: code.co_filename == module,
                         check_time_ordered, system, table=table)
    assert lines <= 80 * 2 * n


@pytest.mark.parametrize("n, N", [(4, 2), (3, 3)])
def test_materialize_runs_a_few_lines_per_table(n, N):
    """The box-product build multiplies whole tables in C: for an attacked
    part and a product system it runs at most 8 lines per position and
    settings block or cell pattern, where a per-x row build runs about
    one line per entry."""
    params = _params(n_settings=N)
    systems = (build_attack_partition(seeded_almost_balanced(n, 1)[0], params).systems[0],
               build_product_system(build_unbiased_box(params), n))
    module = nonsignalling.__file__
    for system in systems:
        lines = lines_run_in(lambda code: code.co_filename == module, materialize, system)
        assert lines <= 8 * n * (N ** (2 * n) + N**2 * 2**n)


# ---------------------------------------------------------------------------
# each (side, S) answered once per table

def _every_check(system, n):
    """(name, check) for every check on a table of ``system``: the
    time-ordered check, ab, and every nonempty subset of each side."""
    checks = [("time-ordered", lambda t: check_time_ordered(system, table=t)),
              ("ab", lambda t: check_ab(system, table=t))]
    checks += [(f"{side}{subset}",
                lambda t, side=side, subset=subset: check_subset(system, side, subset, table=t))
               for side in ("alice", "bob")
               for size in range(1, n + 1) for subset in combinations(range(1, n + 1), size)]
    return checks


def _assert_answers_do_not_leak(system, table):
    """Every report read from one shared table, in each order that puts
    the time-ordered check, ab or the subsets first, is ``repr``-identical
    to the same check on a fresh ``replace`` copy, which answers it
    afresh."""
    checks = _every_check(system, table.n)
    fresh = {name: repr(check(replace(table))) for name, check in checks}
    subsets = checks[2:]
    for order in (checks, [checks[1], *subsets, checks[0]], [*subsets, *checks[:2]]):
        shared = replace(table)
        assert {name: repr(check(shared)) for name, check in order} == fresh


@cache
def _quantum_n3_systems():
    """Honest and future-peeking (``tests/helpers``) quantum systems at
    N = 3, n = 1..3, with each peeking system's mirror: violations on
    both sides, at several cuts."""
    params = BoxParams.quantum(3)
    honest = [build_product_system(build_unbiased_box(params), n) for n in (1, 2, 3)]
    peeking = [FuturePeekingSystem(params, n=n, early=early, late=late)
               for n, early, late in ((2, 1, 2), (3, 1, 3), (3, 2, 3))]
    return honest + peeking + [MirroredSystem(s) for s in peeking]


@pytest.mark.parametrize("index", range(9))
def test_shared_answers_match_fresh_tables_in_floats(index):
    system = _quantum_n3_systems()[index]
    table = materialize(system)
    assert not table.exact
    _assert_answers_do_not_leak(system, table)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_answers_match_fresh_tables_on_the_corpus(n):
    """The acceptance corpus's tables at n, in lanes and as the same
    numerators in a list: the base and both attack parts."""
    base = build_product_system(build_unbiased_box(_params()), n)
    systems = [base] + [part for f in acceptance_corpus() if f.n == n
                        for part in build_attack_partition(f, _params()).systems]
    for system in systems:
        table = materialize(system)
        assert isinstance(table.values, array)
        for t in (table, replace(table, values=list(table.values))):
            _assert_answers_do_not_leak(system, t)


def test_a_changed_copy_of_a_checked_table_is_checked_afresh():
    """A ``replace`` copy starts with no answers: raising one lane of a
    checked n = 2 product by 1 makes ab fail on the copy, while the
    checked table still passes."""
    system = build_product_system(build_unbiased_box(_params()), 2)
    table = materialize(system)
    assert check_time_ordered(system, table=table).passed
    assert check_ab(system, table=table).passed
    values = array(table.values.typecode, table.values)
    values[5] += 1
    mutant = replace(table, values=values)
    assert not check_ab(system, table=mutant).passed
    assert not check_time_ordered(system, table=mutant).passed
    assert check_ab(system, table=table).passed


@pytest.mark.parametrize("system_shape, table_shape", [((3, 2), (2, 2)), ((2, 2), (2, 3))],
                         ids=["n", "N"])
def test_a_table_of_another_shape_is_refused(monkeypatch, system_shape, table_shape):
    """Each check refuses a ``table`` whose n or N is not its system's,
    naming both (n, N), before any sum.  Read as the system's, an n = 2
    table would pass Alice's {3} by checking Bob's position 1."""
    def product_of(n, N):
        return build_product_system(build_unbiased_box(_params(n_settings=N)), n)

    system, table = product_of(*system_shape), materialize(product_of(*table_shape))
    calls = []
    monkeypatch.setattr(nonsignalling, "_sum_out", lambda values, stride: calls.append(stride))
    message = (rf"table has \(n, N\) = \({table_shape[0]}, {table_shape[1]}\), "
               rf"system has \({system_shape[0]}, {system_shape[1]}\)")
    for check in (check_ab, check_time_ordered,
                  lambda system, table: check_subset(system, "alice", (system.n,), table=table)):
        with pytest.raises(ValueError, match=message):
            check(system, table=table)
    assert calls == []


def test_ab_and_suffixes_after_time_ordered_sum_nothing(monkeypatch):
    """ab is each side's time-ordered cut 1 and a subset {i..n} is cut i:
    after the time-ordered check, neither sums a marginal again."""
    system = FuturePeekingSystem(_params(n_settings=3), n=3, early=1, late=3)
    table = materialize(system)
    check_time_ordered(system, table=table)
    calls = []
    sum_out = nonsignalling._sum_out
    monkeypatch.setattr(nonsignalling, "_sum_out",
                        lambda values, stride: calls.append(stride) or sum_out(values, stride))
    reports = [check_ab(system, table=table)]
    reports += [check_subset(system, side, range(cut, 4), table=table)
                for side in ("alice", "bob") for cut in (1, 2, 3)]
    assert calls == [] and not all(r.passed for r in reports)
    check_subset(system, "alice", (1, 3), table=table)
    assert calls


# ---------------------------------------------------------------------------
# determinism, caps, materialization

def test_reports_are_deterministic():
    system = FuturePeekingSystem(_params())
    assert check_time_ordered(system) == check_time_ordered(system)


def test_eval_cap_refuses_instead_of_sampling(monkeypatch):
    system = build_product_system(build_unbiased_box(_params()), 3)
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", 4095)
    with pytest.raises(InfeasibleSizeError):
        check_time_ordered(system)
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", 10)
    with pytest.raises(InfeasibleSizeError):
        materialize(system)


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
    """A witness whose summed positions do not match its holes is refused
    before any evaluation, also when the stray hole is on the other side,
    on a generic system and on a box product alike."""
    for system in (FuturePeekingSystem(_params()),
                   build_product_system(perturbed_bob_marginal_box(_params()), 2)):
        witness = check_time_ordered(system).violations[0]
        assert witness.side == "alice"
        for tampered in (replace(witness, summed_positions=witness.summed_positions + (1,)),
                         replace(witness, y_kept=(None,) + witness.y_kept[1:])):
            with pytest.raises(ValueError,
                               match="summed positions do not match its kept outputs"):
                replay_violation(system, tampered)
