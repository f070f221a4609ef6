"""Exhaustive checks on joint tables: non-signalling by exact marginal
equality, and a partition's distribution and convex-combination checks.

All checks share one strategy: materialize the full joint table of a
system (refused by ``refuse_over_cap`` above the evaluation cap --
never sampled), then compare sums of its entries.  Box products are
built from their boxes in n whole-table append passes, one position
each, every entry the left fold in position order that ``evaluate``
takes; an exact table's denominator is reduced by a gcd read off the
cells, the gcd of a set of products being the product of the factors'
gcds.  Other systems are materialized point by point through
``evaluate``.
``systems.verify_partition`` does no table arithmetic: it calls
``distribution_checks``, ``check_time_ordered`` and
``convex_mismatches``.

All three conditions are one marginal-independence equation over an
index subset S of one side: that side's outputs outside S, together
with all of the other side's outputs, must not depend on that side's
inputs inside S.  One kernel checks it:

- ``check_ab``: S = {1..n} on each side -- neither party's full output
  marginal depends on the other party's inputs;
- ``check_time_ordered``: S = {i..n} for every cut i on each side --
  outputs before the cut (together with the whole other side) do not
  depend on inputs from the cut onwards;
- ``check_subset``: S given by the caller, on one side.

The table is indexed by two 2n-digit words (see ``JointTable``): the
settings word (u_1..u_n, v_1..v_n) in base N and the outcome word
(x_1..x_n, y_1..y_n) in base 2.  Alice's position p is digit p of both
words and Bob's is digit n + p; ``_digits`` is the only mapping from a
side to digits, and everything else works on digits.

Marginals are whole-table passes, never gathered block by block.
``_sum_out`` sums one outcome digit out of a flat grid that covers
every settings word at once; S is summed out one digit at a time,
highest first.  The time-ordered cuts of one side are one chain: cut n
sums position n out of the table, and cut i sums position i out of cut
i+1's grid, so all n cuts together sum about one table's worth of
entries.  Every check sums in this order, so in float tables it is the
summation order, and a marginal has the same float bits whichever check
computes it.

Every violation is counted.  A report keeps as witnesses the first
``MAX_WITNESSES`` violations in witness order: by side (alice before
bob), then cut (none counts as 0), then the left settings word, then
the right settings word, then the kept outcome word, compared digit by
digit from digit 1 with a summed digit before either bit.  The kernel
and the convex check alike count the entries at which two blocks differ,
and keep the first ones, through ``_count_differing``; only
``JointTable.point`` decodes their indices into points.

Exact tables (all ints or Fractions) are normalized to integer numerators
over a common denominator, so every marginal comparison is exact integer
arithmetic.  Marginals are compared by ``boxes.close``, under the
tolerance rule stated in ``boxes``; its float tolerance is far above
double rounding at desk scale and far below any structural violation.

Every reported violation is replayable: ``replay_violation`` recomputes
the two marginal sums from the stored witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, compress, count, cycle, product, repeat
from operator import add, mul, ne, truediv
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._coding import int_to_digits
from .boxes import FLOAT_ATOL, Prob, all_exact, at_least, close

if TYPE_CHECKING:  # pragma: no cover
    from .systems import SystemEvaluator

#: Evaluations allowed per joint table, per partition verification and
#: per part's distance at one input.  Only ``refuse_over_cap`` reads it.
EVAL_CAP = 2**26

#: Violation witnesses retained per report: the first in witness
#: order.  All violations are counted.
MAX_WITNESSES = 10

CONDITION_AB = "ab"
CONDITION_TIME_ORDERED = "time-ordered"
CONDITION_SUBSET = "subset"


class InfeasibleSizeError(RuntimeError):
    """The requested exhaustive check exceeds the evaluation cap."""


@dataclass(frozen=True)
class NsViolation:
    """A replayable witness of one violated marginal equality.

    ``x_kept``/``y_kept`` are full-length tuples with ``None`` at the
    summed positions.  The two sides of the inequality differ only in
    the varied inputs: left uses ``u_left``/``v_left``, right uses
    ``u_right``/``v_right``.
    """

    condition: str
    side: str
    cut: int | None
    summed_positions: tuple[int, ...]
    x_kept: tuple[int | None, ...]
    y_kept: tuple[int | None, ...]
    u_left: tuple[int, ...]
    v_left: tuple[int, ...]
    u_right: tuple[int, ...]
    v_right: tuple[int, ...]
    left: Prob
    right: Prob


@dataclass
class NsReport:
    condition: str
    passed: bool
    checks_performed: int
    violations_total: int
    tolerance: Prob
    violations: list[NsViolation]

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.violations_total} violations)"
        return f"{self.condition}: {status} [{self.checks_performed} checks]"


@dataclass
class JointTable:
    """A fully materialized joint distribution.

    Exact tables hold integer numerators over ``den``; float tables hold
    raw floats with ``den`` None.  The index is ``s * 4^n + o``, with s
    the settings word (u_1..u_n, v_1..v_n) in base N and o the outcome
    word (x_1..x_n, y_1..y_n) in base 2, digit 1 most significant.
    Alice's position p is digit p of both words, Bob's digit n + p, and
    ``_digits`` is the only mapping from a side to digits.  ``point``
    decodes an index and ``blocks`` cuts the table by settings word.
    """

    n: int
    n_settings: int
    values: list
    den: int | None

    @property
    def exact(self) -> bool:
        return self.den is not None

    def point(self, index: int) -> tuple[tuple[int, ...], ...]:
        """The point (x, y, u, v) whose value is ``values[index]``."""
        n = self.n
        settings, outcomes = divmod(index, 4**n)
        xy = int_to_digits(outcomes, 2 * n, 2)
        uv = int_to_digits(settings, 2 * n, self.n_settings)
        return xy[:n], xy[n:], uv[:n], uv[n:]

    def blocks(self) -> Iterator[list]:
        """The values at each settings word in index order, 4^n per block."""
        size = 4**self.n
        return (self.values[start:start + size] for start in range(0, len(self.values), size))


def table_entries(n: int, n_settings: int) -> int:
    """Entries of the joint table of n pairs with N settings: (4 N^2)^n."""
    return (4 * n_settings**2) ** n


def refuse_over_cap(what: str, evaluations: int) -> None:
    """Raise InfeasibleSizeError if ``what`` needs more than EVAL_CAP evaluations."""
    if evaluations > EVAL_CAP:
        raise InfeasibleSizeError(f"{what} needs {evaluations} evaluations, cap is {EVAL_CAP}")


def materialize(system: "SystemEvaluator") -> JointTable:
    """The full joint table of a system.

    A ``BoxProductSystem`` that keeps the shared ``evaluate`` is built from
    its boxes in n append passes (``_box_product_table``); every other
    system, including a subclass that overrides ``evaluate``, is evaluated
    at every (x, y, u, v) point.  Both paths give the same table: same
    ``den``, same values and value types, same float bits.  The table is
    exact when every value is an int or a Fraction.

    ``refuse_over_cap`` raises InfeasibleSizeError, before any work, when
    the table has more than EVAL_CAP entries -- on either path.
    """
    from .systems import BoxProductSystem  # deferred: systems imports this module

    n, N = system.n, system.n_settings
    refuse_over_cap("joint table", table_entries(n, N))
    if (isinstance(system, BoxProductSystem)
            and type(system).evaluate is BoxProductSystem.evaluate):
        return _box_product_table(system)
    settings = list(product(range(N), repeat=n))
    outcomes = list(product((0, 1), repeat=n))
    raw = [system.evaluate(x, y, u, v)
           for u in settings for v in settings for x in outcomes for y in outcomes]
    if not all_exact(raw):
        return JointTable(n, N, [float(v) for v in raw], None)
    den = 1
    for d in {v.denominator for v in raw}:
        den = math.lcm(den, d)
    return JointTable(n, N, [v.numerator * (den // v.denominator) for v in raw], den)


def _box_product_table(system) -> JointTable:
    """Joint table of a box product, built from its boxes in n append passes.

    Pass k turns P_{k-1}, indexed by (u_1..u_{k-1}, v_1..v_{k-1}, x_1..x_n,
    y_1..y_{k-1}), into P_k: each entry is doubled for y_k and each
    settings block repeated over (u_k, v_k), then multiplied entry by entry
    with position k's cells, one block per (u_k, v_k).  P_0 is 1 at every
    x, and P_n is the table, so every x is carried from the start and a
    box may depend on any bit of x.  Each entry is the left fold, in
    position order from 1, that ``evaluate`` takes, so float entries have
    its bits; a float table takes ``float`` of each entry in the last pass,
    so an entry whose cells are all exact is rounded once, as on the
    per-point path.

    Each string x gives one row per position k: x's box at k read through
    ``prob`` at x_k only, its N^2 (y = 0, y = 1) pairs in (a, b) order --
    at most 2^n n 2N^2 reads, against the (4N^2)^n entries built.  The
    table is exact when every cell read is, the per-point path's rule.

    Exact cells are scaled to integers over D, the lcm of their
    denominators.  The table's ``den`` is D^n over g, the gcd of D^n and
    every entry: the lcm of the entries' reduced denominators, as on the
    per-point path.  The gcd of a set of products is the product of the
    factors' gcds, so g is read off the rows: it is the gcd of D^n and,
    over x, the product of x's row gcds.  g divides each x's product, so
    it is divided out of x's rows one by one, before any entry is built.
    """
    n, N = system.n, system.n_settings
    rows = [[[box.prob(a, b, bit, y) for a in range(N) for b in range(N) for y in (0, 1)]
             for box, bit in zip(system.pair_boxes(x), int_to_digits(x, n, 2))]
            for x in range(2**n)]
    read = [c for x_rows in rows for row in x_rows for c in row]
    den = None
    if all_exact(read):
        D = math.lcm(*{c.denominator for c in read})
        rows = [[[c.numerator * (D // c.denominator) for c in row] for row in x_rows]
                for x_rows in rows]
        g = math.gcd(D**n, *(math.prod(math.gcd(*row) for row in x_rows) for x_rows in rows))
        den = D**n // g
        for x_rows in rows:
            rest = g
            for j, row in enumerate(x_rows):
                h = math.gcd(rest, *row)
                x_rows[j] = [c // h for c in row]
                rest //= h

    values = [1] * 2**n  # P_0
    for j in range(n):
        # position j + 1's cells at every x, one block per (u_{j+1}, v_{j+1})
        cells = [list(chain.from_iterable(x_rows[j][2 * s:2 * s + 2] * 2**j for x_rows in rows))
                 for s in range(N * N)]
        size = len(values) // N ** (2 * j)
        doubled = [list(chain.from_iterable(zip(block, block)))
                   for block in (values[i:i + size] for i in range(0, len(values), size))]
        order = list(product(range(N**j), range(N), range(N**j), range(N)))
        products = map(mul, chain.from_iterable(doubled[U * N**j + V] for U, _, V, _ in order),
                       chain.from_iterable(cells[a * N + b] for _, a, _, b in order))
        values = list(products if den is not None or j < n - 1 else map(float, products))
    return JointTable(n, N, values, den)


def _scaled(value, den: int | None) -> Prob:
    return value if den is None else Fraction(value, den)


def _count_differing(lhs: list, rhs: list, found: list, key: tuple) -> int:
    """The number of entries at which two equal-length blocks differ under
    ``boxes.close``.  The first ones, ``(*key, k, lhs[k], rhs[k])`` in
    ascending k, go on ``found`` until it holds MAX_WITNESSES."""
    ks = [k for k in compress(count(), map(ne, lhs, rhs)) if not close(lhs[k], rhs[k])]
    for k in ks[:MAX_WITNESSES - len(found)]:
        found.append((*key, k, lhs[k], rhs[k]))
    return len(ks)


def _digits(n: int, side: str, positions: Iterable[int]) -> tuple[int, ...]:
    """The digits of ``side``'s ``positions`` in the settings and outcome
    words: Alice's position p is digit p, Bob's digit n + p."""
    shift = 0 if side == "alice" else n
    return tuple(p + shift for p in positions)


def _scatter_codes(digits: Sequence[int], width: int, base: int) -> list[int]:
    """Codes of all assignments over ``digits``, embedded in a ``width``-digit
    word, the last digit varying fastest: in ascending order when
    ``digits`` is."""
    weights = [base ** (width - d) for d in digits]
    codes = [0]
    for w in weights:
        codes = [c + d * w for c in codes for d in range(base)]
    return codes


def _sum_out(values: list, stride: int) -> list:
    """``values`` with one outcome digit summed out, the digit whose two
    outcomes lie ``stride`` entries apart: in each run of 2·stride
    entries, the first half plus the second.  One pass over the whole
    flat grid, every settings word at once."""
    low = (1,) * stride + (0,) * stride
    return list(map(add, compress(values, cycle(low)), compress(values, cycle(low[::-1]))))


def _strides(n: int, digits: Sequence[int]) -> Iterator[int]:
    """The ``_sum_out`` strides that sum the outcome ``digits`` out of a
    table, highest digit first: the outcomes at digit q lie 2^k entries
    apart, k the digits after q not yet summed out."""
    return (1 << (2 * n - q - done) for done, q in enumerate(reversed(digits)))


def _independence_violations(
    table: JointTable,
    grid: list,
    side: str,
    subset: tuple[int, ...],
    condition: str,
    cut: int | None,
) -> tuple[list[NsViolation], int, int]:
    """Check that ``side``'s outputs outside ``subset``, together with all
    of the other side's outputs, do not depend on ``side``'s inputs inside
    ``subset``.

    ``grid`` is ``table`` with the outcome digits of ``subset`` summed out
    (by ``_sum_out``, highest digit first; in float tables this is the
    summation order): one block of kept outcome words per settings word,
    in table order.  The blocks whose settings words differ only at the
    subset's digits are compared with the one that has zeros there, as
    whole slices, and through ``_count_differing`` where two slices differ.
    Comparisons run in witness order (see the module docstring), so the
    first MAX_WITNESSES violations found are the report's witnesses.
    Returns (witnesses, total violation count, comparisons performed).
    """
    n, den = table.n, table.den
    digits = _digits(n, side, subset)
    kept = [q for q in range(1, 2 * n + 1) if q not in digits]
    refs = _scatter_codes(kept, 2 * n, table.n_settings)
    deltas = _scatter_codes(digits, 2 * n, table.n_settings)[1:]
    G = len(grid) // table.n_settings ** (2 * n)

    found: list[tuple] = []
    total = 0
    for ref_index in refs:
        ref = grid[ref_index * G:(ref_index + 1) * G]
        for d in deltas:
            index = ref_index + d
            other = grid[index * G:(index + 1) * G]
            if other != ref:
                total += _count_differing(ref, other, found, (ref_index, index))
    checks = len(refs) * len(deltas) * G

    violations = []
    # grid index k, a code over the kept outcome digits, as an outcome word
    offsets = _scatter_codes(kept, 2 * n, 2) if found else []
    for left, right, k, lhs, rhs in found:
        x, y, u_left, v_left = table.point(left * 4**n + offsets[k])
        u_right, v_right = table.point(right * 4**n + offsets[k])[2:]
        xy = tuple(None if q in digits else b for q, b in enumerate(x + y, 1))
        violations.append(NsViolation(
            condition, side, cut, subset, xy[:n], xy[n:], u_left, v_left, u_right, v_right,
            _scaled(lhs, den), _scaled(rhs, den)))
    return violations, total, checks


def _merge(condition: str, parts: Iterable[tuple[list[NsViolation], int, int]],
           den: int | None) -> NsReport:
    """One report from kernel results given in witness order."""
    violations: list[NsViolation] = []
    total = 0
    checks = 0
    for viols, t, c in parts:
        violations.extend(viols)
        total += t
        checks += c
    return NsReport(
        condition=condition,
        passed=total == 0,
        violations=violations[:MAX_WITNESSES],
        violations_total=total,
        checks_performed=checks,
        tolerance=Fraction(0) if den is not None else FLOAT_ATOL,
    )


def _marginal(table: JointTable, side: str, subset: tuple[int, ...]) -> list:
    """``table`` with ``side``'s outputs at ``subset`` summed out, highest
    digit first."""
    return reduce(_sum_out, _strides(table.n, _digits(table.n, side, subset)), table.values)


def check_ab(system: "SystemEvaluator", *, table: JointTable | None = None) -> NsReport:
    """Neither full output marginal may depend on the other side's inputs."""
    t = table if table is not None else materialize(system)
    everything = tuple(range(1, t.n + 1))
    parts = [_independence_violations(t, _marginal(t, side, everything), side, everything,
                                      CONDITION_AB, 1)
             for side in ("alice", "bob")]
    return _merge(CONDITION_AB, parts, t.den)


def check_time_ordered(system: "SystemEvaluator", *,
                       table: JointTable | None = None) -> NsReport:
    """Future inputs may not influence past outputs, on either side.

    Each side's grids are one chain: cut n sums position n out of the
    table, and each cut after it sums one more position out of the grid
    before, so the whole check sums about one table's worth of entries.
    """
    t = table if table is not None else materialize(system)
    n = t.n
    everything = tuple(range(1, n + 1))
    parts = []
    for side in ("alice", "bob"):
        grids = accumulate(_strides(n, _digits(n, side, everything)), _sum_out,
                           initial=t.values)
        next(grids)  # the table itself
        cuts = [_independence_violations(t, grid, side, everything[cut - 1:],
                                         f"{CONDITION_TIME_ORDERED}-{side}", cut)
                for cut, grid in zip(range(n, 0, -1), grids)]
        parts.extend(reversed(cuts))
    return _merge(CONDITION_TIME_ORDERED, parts, t.den)


def check_subset(system: "SystemEvaluator", side: str, subset: Iterable[int], *,
                 table: JointTable | None = None) -> NsReport:
    """Outputs outside ``subset`` on ``side`` (plus the whole other side)
    must not depend on the inputs inside ``subset``."""
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    positions = tuple(subset)
    ints = all(isinstance(p, int) for p in positions)
    sub = tuple(sorted(set(positions))) if ints else positions
    if not ints or not sub or sub[0] < 1 or sub[-1] > system.n:
        raise ValueError(f"subset must be a nonempty subset of 1..{system.n}, got {sub}")
    t = table if table is not None else materialize(system)
    part = _independence_violations(t, _marginal(t, side, sub), side, sub, CONDITION_SUBSET, None)
    return _merge(CONDITION_SUBSET, [part], t.den)


def distribution_checks(table: JointTable) -> tuple[bool, bool]:
    """Whether ``table`` is nonnegative, and whether each settings word's
    block sums to one."""
    one = table.den if table.exact else 1.0
    return (at_least(min(table.values), 0),
            all(close(sum(block), one) for block in table.blocks()))


def convex_mismatches(base: JointTable, parts: Sequence[JointTable],
                      weights: Sequence[Prob]) -> tuple[list[tuple], int]:
    """The first MAX_WITNESSES entries, as (x, y, u, v, base value,
    weighted sum), at which the weighted ``parts`` do not add up to
    ``base``, and how many there are.  One settings-word block at a time,
    the base weighted 1, the parts added in order: exact on a common
    denominator when every table and weight is exact, else in floats
    (exact tables divided as read)."""
    tables, factors = [base, *parts], (1, *weights)
    if all(t.exact for t in tables) and all_exact(weights):
        den = math.lcm(*(t.den * w.denominator for w, t in zip(factors, tables)))
        scales = [w.numerator * (den // (t.den * w.denominator)) for w, t in zip(factors, tables)]
    else:
        den = None
        scales = list(map(float, factors))

    def weighted(scale, t: JointTable, block: list):
        if den is None and t.exact:
            block = map(truediv, block, repeat(t.den))
        return map(mul, repeat(scale), block)

    found, total = [], 0
    for start, blocks in zip(count(0, 4**base.n), zip(*(t.blocks() for t in tables))):
        want, *terms = map(weighted, scales, tables, blocks)
        want, combo = list(want), list(reduce(partial(map, add), terms))
        if want != combo:
            total += _count_differing(want, combo, found, (start,))
    return [(*base.point(start + k), _scaled(lhs, den), _scaled(rhs, den))
            for start, k, lhs, rhs in found], total


def replay_violation(system: "SystemEvaluator", violation: NsViolation) -> tuple[Prob, Prob]:
    """Recompute both marginal sums of a witness directly from evaluate()."""
    n = system.n
    template = violation.x_kept + violation.y_kept
    holes = [q for q, b in enumerate(template, 1) if b is None]
    if sorted(_digits(n, violation.side, violation.summed_positions)) != holes:
        raise ValueError("witness summed positions do not match its kept outputs")

    def marginal(u, v):
        tot = None
        for combo in product((0, 1), repeat=len(holes)):
            filled = list(template)
            for q, bit in zip(holes, combo):
                filled[q - 1] = bit
            val = system.evaluate(tuple(filled[:n]), tuple(filled[n:]), u, v)
            tot = val if tot is None else tot + val
        return tot

    left = marginal(violation.u_left, violation.v_left)
    right = marginal(violation.u_right, violation.v_right)
    return left, right
