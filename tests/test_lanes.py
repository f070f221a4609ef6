"""Exact tables in unsigned lanes against the same numerators in a list.

The box-product builder packs an exact, nonnegative table into an
``array`` of the narrowest lane that holds a bound on every settings
block's sum; a table with a negative entry, or whose bound needs more
than 64 bits, stays a list, and so does every table built point by
point through ``evaluate``.  Every check must read the same verdicts,
counts, witnesses and ``den`` from both layouts, and a table whose
block sums exceed ``den`` must get lanes wide enough for them.
"""

from __future__ import annotations

import hashlib
import sys
import tracemalloc
from array import array
from dataclasses import replace
from functools import cache
from fractions import Fraction
from itertools import product

import pytest

from chainbell import (
    BoxParams,
    Partition,
    ProductSystem,
    SinglePairBox,
    bias_box,
    build_attack_partition,
    build_product_system,
    build_unbiased_box,
    check_ab,
    check_subset,
    check_time_ordered,
    materialize,
    parse_function_spec,
)
from chainbell import nonsignalling
from chainbell.boxes import at_least, close
from chainbell.nonsignalling import _SLAB, MAX_WITNESSES, check_part, convex_mismatches
from chainbell.systems import BoxProductSystem

from helpers import (
    NegatedPointSystem,
    acceptance_corpus,
    brute_force_violations,
    independent_table_checks,
    oracle_table,
    seeded_almost_balanced,
    witness_key,
)

EIGHTH = Fraction(1, 8)


def _rational(eps):
    return BoxParams.rational(2, eps)


def _base(n, eps=EIGHTH, off=Fraction(0)):
    box = build_unbiased_box(_rational(eps))
    return build_product_system(bias_box(box, 0, off) if off else box, n)


def _as_list(table):
    return replace(table, values=list(table.values))


def _raised(table, *indices):
    """A lane table with the numerator at each of ``indices`` raised by 1."""
    values = array(table.values.typecode, table.values)
    for index in indices:
        values[index] += 1
    return replace(table, values=values)


class FlippedSigma(BoxProductSystem):
    """An attack part whose string ``x_code`` takes the box biased the
    other way at its pivot."""

    def __init__(self, part, x_code):
        self.part, self.x_code = part, x_code
        self.n, self.n_settings = part.n, part.n_settings

    def pair_boxes(self, x_code):
        boxes = self.part.pair_boxes(x_code)
        if x_code != self.x_code:
            return boxes
        index, sigma = self.part.profile.pivot(x_code)
        flipped = self.part.biased[sigma ^ self.part.z ^ 1]
        return boxes[:index - 1] + (flipped,) + boxes[index:]


def _results(partition, base, tables):
    """Everything the checks report on ``tables`` (the base's first, then
    the parts'), as one ``repr``."""
    base_table, *part_tables = tables
    # (n,) and (1..n) are a cut and ab; at n = 1, (1, n) names 1 twice
    subsets = [(1,), (1, base.n)] if base.n > 1 else [(1,)]
    out = [convex_mismatches(base_table, part_tables, partition.weights)]
    for system, table in zip((base, *partition.systems), tables):
        out.append((table.den, check_part(table), check_ab(system, table=table)))
        out.extend(check_subset(system, side, subset, table=table)
                   for side in ("alice", "bob") for subset in subsets)
    return repr(out)


def _assert_layouts_agree(partition, base, tables):
    listed = [_as_list(t) for t in tables]
    assert _results(partition, base, tables) == _results(partition, base, listed)


CORPUS = [(f, eps) for f in acceptance_corpus() for eps in (EIGHTH, Fraction(1, 3))] + [
    (parse_function_spec("random:1", 5), EIGHTH)]


@pytest.mark.parametrize("f, eps", CORPUS, ids=[f"{f.name}-n{f.n}-eps{eps}" for f, eps in CORPUS])
def test_layouts_agree_on_the_corpus(f, eps):
    partition, base = build_attack_partition(f, _rational(eps)), _base(f.n, eps)
    tables = [materialize(s) for s in (base, *partition.systems)]
    assert all(isinstance(t.values, array) for t in tables)
    _assert_layouts_agree(partition, base, tables)


PER_POINT = [(f, eps) for f, eps in CORPUS if f.n <= 4]


@pytest.mark.parametrize("f, eps", PER_POINT,
                         ids=[f"{f.name}-n{f.n}-eps{eps}" for f, eps in PER_POINT])
def test_per_point_lists_report_as_builder_lanes(f, eps):
    """The per-point oracle holds lists and shares no packing code with
    the builder; every check reads the same from its tables as from the
    builder's lanes.  n = 5 is left out: one per-point table there takes
    over ten seconds."""
    partition, base = build_attack_partition(f, _rational(eps)), _base(f.n, eps)
    built = [materialize(s) for s in (base, *partition.systems)]
    per_point = [oracle_table(s) for s in (base, *partition.systems)]
    assert all(isinstance(t.values, list) for t in per_point)
    assert all(isinstance(t.values, array) for t in built)
    assert _results(partition, base, per_point) == _results(partition, base, built)


def _negative_cell_box():
    """The unbiased eps = 1/8 box with one cell of its first square
    negative, the square still summing to one."""
    cells = list(build_unbiased_box(_rational(EIGHTH)).cells)
    cells[0] += cells[1] + Fraction(1, 16)
    cells[1] = Fraction(-1, 16)
    return SinglePairBox(2, tuple(cells))


def _list_cases():
    """name -> (partition, base): systems whose builder tables are lists."""
    tiny = Fraction(1, 10**7)
    unbiased, negative = build_unbiased_box(_rational(EIGHTH)), _negative_cell_box()
    return {
        "bound-over-64-bits": (build_attack_partition(parse_function_spec("random:1", 4),
                                                      _rational(tiny)), _base(4, tiny)),
        "negative-cell": (
            Partition(((Fraction(1), ProductSystem((unbiased, negative, negative))),)),
            ProductSystem((negative, unbiased, negative))),
    }


@pytest.mark.parametrize("name", ["bound-over-64-bits", "negative-cell"])
def test_builder_lists_match_the_per_point_oracle(name):
    """The builder's exact list path: every table of a ``random:1``
    partition at n = 4, eps = 1/10^7, whose block sums need more than 64
    bits (each ``den`` has 97 or 98), and two products of boxes with a
    negative cell, which the convex check finds apart.  Each table
    equals the oracle's, ``den`` included, value for value, and every
    check reports the same on both."""
    partition, base = _list_cases()[name]
    systems = (base, *partition.systems)
    built = [materialize(s) for s in systems]
    per_point = [oracle_table(s) for s in systems]
    assert all(isinstance(t.values, list) for t in built + per_point)
    for fast, slow in zip(built, per_point):
        assert fast.den == slow.den and list(fast.values) == slow.values
    assert _results(partition, base, built) == _results(partition, base, per_point)


@cache
def _mutants():
    """name -> (partition, base, their tables, base first)."""
    n = 4
    f = parse_function_spec("random:1", n)
    attack = build_attack_partition(f, _rational(EIGHTH))
    part0, part1 = attack.systems
    wide = build_attack_partition(f, _rational(Fraction(1, 3)))
    tenth = Fraction(1, 10)
    point = ((0,) * n,) * 4
    mutants = {
        "base-off-by-a-twentieth": (attack, _base(n, off=Fraction(1, 20))),
        "flipped-sigma": (Partition(((attack.weights[0], FlippedSigma(part0, 5)),
                                     (attack.weights[1], part1))), _base(n)),
        "weights-half-plus-minus-a-tenth": (
            Partition(((Fraction(1, 2) + tenth, part0), (Fraction(1, 2) - tenth, part1))), _base(n)),
        "eps-third-parts-eighth-base": (wide, _base(n)),
        "negative-entry": (Partition(((attack.weights[0], NegatedPointSystem(part0, point)),
                                      (attack.weights[1], part1))), _base(n)),
    }
    return {name: (partition, base, [materialize(s) for s in (base, *partition.systems)])
            for name, (partition, base) in mutants.items()}


@pytest.mark.parametrize("name", ["base-off-by-a-twentieth", "flipped-sigma",
                                  "weights-half-plus-minus-a-tenth",
                                  "eps-third-parts-eighth-base", "negative-entry"])
def test_layouts_agree_on_mutants(name):
    partition, base, tables = _mutants()[name]
    negative = name == "negative-entry"
    assert [isinstance(t.values, list) for t in tables] == [False, negative, False]
    _assert_layouts_agree(partition, base, tables)


def test_mutants_fail():
    """Each mutant fails the convex check, and some fail more: the
    layouts above agree on failures, not only on passes.  The flipped
    string moves mass across a pivot, and the negated point changes
    both its block's sum and its marginals."""
    failing = {}
    for name, (partition, base, tables) in _mutants().items():
        _, total = convex_mismatches(tables[0], tables[1:], partition.weights)
        time_ordered = [check_time_ordered(s, table=t).passed
                        for s, t in zip(partition.systems, tables[1:])]
        failing[name] = (total > 0, all(time_ordered),
                         all(all(check_part(t)[:2]) for t in tables[1:]))
    assert failing == {
        "base-off-by-a-twentieth": (True, True, True),
        "flipped-sigma": (True, False, False),
        "weights-half-plus-minus-a-tenth": (True, True, True),
        "eps-third-parts-eighth-base": (True, True, True),
        "negative-entry": (True, False, False),
    }


def _block_sums_oracle(table):
    """(nonnegative, normalized) from a plain ``sum`` over each settings
    block's slice of ``table.values``: no code shared with
    ``nonsignalling``, only the tolerance rule of ``boxes``."""
    size, values = 4**table.n, list(table.values)
    one = table.den if table.exact else 1.0
    sums = [sum(values[start:start + size]) for start in range(0, len(values), size)]
    return at_least(min(values), 0), all(close(total, one) for total in sums)


def _assert_part_checks(system, table, verdict=(True, True)):
    """``check_part`` reads ``verdict`` from ``table``, as the oracle does,
    with the report ``check_time_ordered`` reads."""
    nonnegative, normalized, report = check_part(table)
    assert (nonnegative, normalized) == _block_sums_oracle(table) == verdict
    assert repr(report) == repr(check_time_ordered(system, table=table))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_part_matches_the_block_sum_oracle(n):
    """Every table of the acceptance corpus at n, in lanes, as the same
    numerators in a list, and in floats at the quantum eps: the base and
    both attack parts."""
    layouts = set()
    for f in [f for f in acceptance_corpus() if f.n == n]:
        for params in (_rational(EIGHTH), BoxParams.quantum(2)):
            base = build_product_system(build_unbiased_box(params), n)
            for system in (base, *build_attack_partition(f, params).systems):
                table = materialize(system)
                tables = [table, _as_list(table)] if table.exact else [table]
                for t in tables:
                    layouts.add((type(t.values), t.exact))
                    _assert_part_checks(system, t)
    assert layouts == {(array, True), (list, True), (list, False)}


def test_check_part_matches_the_block_sum_oracle_at_n5():
    params = _rational(EIGHTH)
    base = build_product_system(build_unbiased_box(params), 5)
    partition = build_attack_partition(parse_function_spec("random:1", 5), params)
    for system in (base, *partition.systems):
        _assert_part_checks(system, materialize(system))


def _moved(table, index, amount):
    """A list copy of ``table`` with ``amount`` added at ``index``."""
    values = list(table.values)
    values[index] += amount
    return replace(table, values=values)


def test_check_part_catches_one_entry_off():
    """One lane raised by 1 in the last block is not normalized; one list
    entry made -1 in a middle block, its block's sum kept by the next
    entry, is normalized but not nonnegative; one float entry raised by
    1e-9 in a middle block is not normalized, while 1e-15 at every
    entry, 2.6e-13 per block, is still within tolerance."""
    f = parse_function_spec("random:1", 4)
    part = build_attack_partition(f, _rational(EIGHTH)).systems[0]
    table = materialize(part)
    last, middle = len(table.values) - 5, len(table.values) // 2 + 4**4 * 3
    _assert_part_checks(part, _raised(table, last), (True, False))
    moved = table.values[middle] + 1
    negative = _moved(_moved(table, middle + 1, moved), middle, -moved)
    assert negative.values[middle] == -1
    _assert_part_checks(part, negative, (False, True))

    quantum = build_attack_partition(f, BoxParams.quantum(2)).systems[0]
    floats = materialize(quantum)
    _assert_part_checks(quantum, _moved(floats, middle + 7, 1e-9), (True, False))
    noisy = replace(floats, values=[v + 1e-15 for v in floats.values])
    _assert_part_checks(quantum, noisy, (True, True))


def test_check_part_sums_the_table_once(monkeypatch):
    """``check_part`` sums what ``check_time_ordered`` sums, then x_n..x_1
    out of Bob's cut-1 grid, 4^n / 2^n times smaller than the table: the
    table is not summed a second time for its block sums."""
    n = 4
    part = build_attack_partition(parse_function_spec("random:1", n), _rational(EIGHTH)).systems[0]
    table = materialize(part)
    read = []
    sum_out = nonsignalling._sum_out
    monkeypatch.setattr(nonsignalling, "_sum_out",
                        lambda values, stride: read.append(len(values)) or sum_out(values, stride))
    check_time_ordered(part, table=table)
    chain = sum(read)
    read.clear()
    check_part(table)
    assert sum(read) - chain == sum(len(table.values) >> (n + k) for k in range(n))


def test_block_sums_above_den_take_a_wider_lane():
    """Unnormalized boxes: ``den`` is 9 and every entry fits one byte, but
    a settings block sums to as much as 36^2 = 1296 ninths, so the table
    takes two-byte lanes.  Lanes sized from ``den`` would carry into
    their neighbours on the first sum.  The table, every subset check and
    the convex check match the ``evaluate`` oracle."""
    box = SinglePairBox(2, tuple(Fraction(7 * k % 13 + 1, 3) for k in range(16)))
    system = ProductSystem((box, box))
    table = materialize(system)
    assert table.den == 9 and max(table.values) < 2**8 and table.values.itemsize == 2
    points = [table.point(i) for i in range(len(table.values))]
    assert [Fraction(v, 9) for v in table.values] == [system.evaluate(*p) for p in points]
    assert check_part(table)[:2] == (True, False)
    for side, subset in product(("alice", "bob"), ((1,), (2,), (1, 2))):
        report = check_subset(system, side, subset, table=table)
        oracle, checks = brute_force_violations(system, side, subset)
        assert (report.violations_total, report.checks_performed) == (len(oracle), checks)
        assert report.violations == sorted(oracle, key=witness_key)[:MAX_WITNESSES]
    per_point = oracle_table(system)
    assert list(per_point.values) == list(table.values)
    half = Fraction(1, 2)
    assert convex_mismatches(table, [table, per_point], [half, half]) == ([], 0)


def _lane_sha256(values: array) -> str:
    """sha256 of a lane table's bytes, little-endian on any machine."""
    if sys.byteorder != "little":
        values = array(values.typecode, values)
        values.byteswap()
    return hashlib.sha256(values.tobytes()).hexdigest()


#: (n, N, eps) -> (typecode, den, lane sha256) of the base, then the two
#: ``random:1`` parts, as the entry-by-entry builder wrote them.
PINNED = {
    (5, 2, EIGHTH): [
        ("I", 2**20, "f4867898a2b644e364f98f746648352fadbe81d1bfc061220aeca1eda8ed582b"),
        ("I", 2**19, "f5b8ba5b33e1fe6c0f24cf2a1a936df13ec4f1e1cab90ea75ceee432ad395f34"),
        ("I", 2**19, "9355574fe371868ce7c53b8c541198c1d01f801de4f2c88ed4ec26e10013ab72")],
    (5, 2, Fraction(1, 3)): [
        ("H", 6**5, "01bc1a3984cddd19e3c06d0bfe7742e4cb69fc4b45a71da1499ada312d0a16d8"),
        ("H", 6**5, "6cd76ebfc512457df938feed39adc87167c9eede3658b2d576ce1d7f21dd2a3e"),
        ("H", 6**5, "d717455a0d89be0da3f2f233574f686fdb43fd560003d1b7188a2a12381d8ac0")],
    (4, 3, EIGHTH): [
        ("I", 2**16, "e7ae869efbc0fcebbc15e8f9be46bf82057b1068a3eae7af9935cbcb165225b8"),
        ("I", 2**16, "bbb2c048f8250951b08480ac32939fb885cb3ea33b1b26cf9a0ae4b9ecf83134"),
        ("I", 2**16, "faf01642fc0af6a13e618844a51bea8821e1195d6dfd75e08c4f31762f43713c")],
}


@pytest.mark.parametrize("n, N, eps", PINNED, ids=[f"n{n}-N{N}-eps{eps}" for n, N, eps in PINNED])
def test_lane_bytes_are_pinned(n, N, eps):
    """The base and both ``random:1`` parts, byte for byte."""
    params = BoxParams.rational(N, eps)
    base = build_product_system(build_unbiased_box(params), n)
    partition = build_attack_partition(parse_function_spec("random:1", n), params)
    tables = [materialize(s) for s in (base, *partition.systems)]
    assert [(t.values.typecode, t.den, _lane_sha256(t.values)) for t in tables] == PINNED[n, N, eps]


@pytest.mark.parametrize("n, N", [(5, 2), (4, 3)], ids=["n5-N2", "n4-N3"])
def test_builder_tables_pass_checks_independent_of_the_builder(n, N):
    """The base and both ``random:1`` parts, beyond the n <= 4 reach of the
    per-point oracle at N = 2, against a seeded sample of ``evaluate`` and
    both marginal identities, which share no code with the builder."""
    params = BoxParams.rational(N, EIGHTH)
    base = build_product_system(build_unbiased_box(params), n)
    partition = build_attack_partition(parse_function_spec("random:1", n), params)
    for system in (base, *partition.systems):
        assert independent_table_checks(system, materialize(system), samples=2048) == {
            "sample": 0, "y_marginal": 0, "x_marginal": 0}


def test_independent_checks_catch_a_wrong_entry_and_a_wrong_den():
    """One numerator raised by 1 moves one sum of each identity, and a
    sample of every entry finds it; a doubled ``den`` fails everywhere."""
    base = _base(3)
    table = materialize(base)
    size = len(table.values)
    assert independent_table_checks(base, _raised(table, 1234), samples=size) == {
        "sample": 1, "y_marginal": 1, "x_marginal": 1}
    assert independent_table_checks(base, replace(table, den=2 * table.den), samples=size) == {
        "sample": size, "y_marginal": size // 8, "x_marginal": size // 8}


def test_build_peaks_near_its_lane_bytes():
    """The ``random:1`` part at n = 5 (4 MiB of lanes) peaks at about 1.34
    times its lane bytes: the table, the table before the last pass, and
    one slab's ints and bytes.  Passes over the whole table at once, which
    hold every block of the last pass as an int and then as bytes, peak
    near 2.7 times."""
    part = build_attack_partition(parse_function_spec("random:1", 5), _rational(EIGHTH)).systems[0]
    tracemalloc.start()
    try:
        table = materialize(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * len(table.values) * table.values.itemsize


@pytest.mark.parametrize("n, N", [(3, 3), (4, 2)])
def test_unmoved_rows_skip_only_passing_grids(n, N):
    """A lane grid skips the block comparisons only when no block moves
    with one subset digit.  From a passing product table, raise one
    numerator by 1 in one block: at every settings digit q, the first
    block whose digit q is nonzero and the one where it is 2; and the
    first and last blocks.  The last block's subset digits are all
    N - 1, so reading only q = 1 against q = 0 misses it.  Then raise it
    in every block whose digit q is 1, which moves with digit q alone, so
    reading any one digit of the subset but q misses it.  The
    time-ordered and ab checks fail, and every check reports what the
    same numerators held as a list report, where nothing is skipped."""
    params = BoxParams.rational(N, EIGHTH)
    system = build_product_system(build_unbiased_box(params), n)
    table = materialize(system)
    size, blocks = 4**n, N ** (2 * n)
    singles = {(c * N ** (2 * n - q),) for q in range(1, 2 * n + 1) for c in range(1, N)}
    singles |= {(0,), (blocks - 1,)}
    columns = [tuple(s for s in range(blocks) if s // N ** (2 * n - q) % N == 1)
               for q in range(1, 2 * n + 1)]
    subsets = [tuple(range(2, n + 1)), (1, n - 1)]  # a suffix and a non-suffix subset

    def reports(mutant):
        out = [check_time_ordered(system, table=mutant), check_ab(system, table=mutant)]
        out.extend(check_subset(system, side, subset, table=mutant)
                   for side in ("alice", "bob") for subset in subsets)
        return out

    for mutated in sorted(singles) + columns:
        mutant = _raised(table, *(s * size + 5 for s in mutated))
        assert isinstance(mutant.values, array)
        lanes = reports(mutant)
        assert not lanes[0].passed and not lanes[1].passed
        assert repr(lanes) == repr(reports(_as_list(mutant)))


def test_convex_check_reads_lanes_in_slabs():
    """At n = 3, N = 3 the table has 46,656 entries, so its last slab of
    2^13 entries is partial.  Mismatches in two blocks inside the second
    slab, neither its first, and one in the last block are all found, in
    ascending index, with the list layout's witnesses and total: a check
    that keys its witnesses by anything but the slab's start, or stops
    at a slab's first differing block, reports other points."""
    n, N = 3, 3
    params = BoxParams.rational(N, EIGHTH)
    partition = build_attack_partition(seeded_almost_balanced(n, 1)[0], params)
    base = build_product_system(build_unbiased_box(params), n)
    tables = [materialize(s) for s in (base, *partition.systems)]
    assert all(isinstance(t.values, array) for t in tables)
    entries = len(tables[0].values)
    assert entries == 46656 and entries % _SLAB
    assert convex_mismatches(tables[0], tables[1:], partition.weights) == ([], 0)
    planted = [_SLAB + 2 * 4**n + 3, _SLAB + 5 * 4**n + 7, entries - 4**n + 5]
    mutant = _raised(tables[0], *planted)
    lanes = convex_mismatches(mutant, tables[1:], partition.weights)
    listed = convex_mismatches(_as_list(mutant), list(map(_as_list, tables[1:])), partition.weights)
    assert lanes == listed
    assert lanes[1] == 3
    assert [w[:4] for w in lanes[0]] == list(map(mutant.point, planted))
