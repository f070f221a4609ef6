"""Exhaustive checks on joint tables: non-signalling by exact marginal
equality, and a partition's distribution and convex-combination checks.

All checks share one strategy: materialize the full joint table of a
system (refused by ``refuse_over_cap`` above the evaluation cap --
never sampled), then compare sums of its entries.  Box products are
built from their boxes in n passes, one position each, every entry the
left fold in position order that ``evaluate`` takes; an exact table's
denominator is reduced by a gcd read off the rows, since the gcd of one
string's entries is the product of its row gcds.  A lane table is built
in lanes from the first pass: each pass scales whole slabs of the table
so far by one multiply per distinct row and settings pair, on ints of
masked, widened lanes.  Other systems are materialized point by point
through ``evaluate``.
``systems.verify_partition`` does no table arithmetic: it calls
``check_part`` on each part's table and ``convex_mismatches`` on them
all.

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

So ab is each side's time-ordered cut 1, and a subset {i..n} is cut i.
Each check is a family of (side, S) conditions, listed in witness order
with the label and cut its report gives them.  Each (side, S) is
answered once per table: the kernel's answer, free of any condition or
cut label, is kept on the table (``JointTable``), and one builder,
``_report``, decodes every check's answers under that check's labels, so
a report does not depend on which checks ran on the table before it.  A
table is read-only once ``materialize`` returns it; a
``dataclasses.replace`` copy starts with no answers.  A check given a
``table`` whose n or N is not its system's refuses it, before any sum.

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
entries.  A part's block sums continue Bob's chain (``check_part``):
x_n..x_1 are summed out of its cut-1 grid, which holds every y summed
out and is 2^n times smaller than the table, so one sweep of a part's
table yields its time-ordered report and its block sums.  Every check
sums in this order, so in float tables it is the summation order, and a
marginal has the same float bits whichever check computes it.  A list
is summed a slab at a time, its two halves read as step slices.  A lane
table is read through 2-D views of equal rows (``_rows``): one C-level
slice of the rows stands for a Python loop over runs or settings
blocks.

The kernel compares whole slices, never block by block.  For each
delta -- one nonzero assignment of the subset's settings digits -- the
blocks with zeros at those digits are compared with the blocks the
delta moves them to, either as the contiguous runs of settings digits
after the subset's last digit or as one strided slice per offset in a
run, whichever loop is shorter (``_independence``).

Every violation is counted.  A report keeps as witnesses the first
``MAX_WITNESSES`` violations in witness order: by side (alice before
bob), then cut (none counts as 0), then the left settings word, then
the right settings word, then the kept outcome word, compared digit by
digit from digit 1 with a summed digit before either bit.  The kernel
and the convex check alike count the entries at which two slices
differ, and keep the first ones, through ``_count_differing``; only
``JointTable.point`` decodes their indices into points.

Exact tables (all ints or Fractions) are normalized to integer numerators
over a common denominator, so every marginal comparison is exact integer
arithmetic.  Marginals are compared under the tolerance rule stated in
``boxes``, entry by entry through ``boxes.apart``; its float tolerance is
far above double rounding at desk scale and far below any structural
violation.

A table has one of two layouts:

- *Lanes.*  An exact box product built from boxes with no negative cell
  holds its numerators in an ``array`` of unsigned W-bit lanes, W the
  narrowest of 8, 16, 32 and 64 with B < 2^W, B an upper bound on every
  settings block's sum taken from the rows the builder reads
  (``_box_product_table``), never from ``den``, which an unnormalized
  system's block sums exceed.  Only the builder makes lanes.  Every
  marginal entry sums nonnegative entries of one block, so it is at
  most B and fits a lane.
  ``_sum_out`` reads all first halves of its runs as one int, all second
  halves as another, and adds the two: lane i of the sum is the sum of
  the two lanes i, below 2^W, so no carry crosses into the next lane.
  At stride 1 the halves are ``array`` step slices; at stride s > 1
  they are the even and odd rows of the table viewed as rows of s
  entries.  The kernel first asks whether any block moves with one
  subset digit q (``_unmoved``): viewed as N^q rows, the rows with
  digit q = c must equal, as bytes, the rows with q = 0, for every c.
  If no block moves with any single subset digit, every block equals
  the one with zeros at all of S's digits, so there is no violation, and the
  check skips its slice comparisons.  Otherwise it compares slices as on
  a list, so counts and witness order do not change.
- *Lists.*  Every table built point by point through ``evaluate`` --
  the reference layout -- and every float table, box product with a
  negative cell, or box product whose B needs more than 64 bits holds a
  ``list``, summed entry by entry through step slices.

The convex check reads the tables in slabs of ``_SLAB`` entries (or one
settings block, if larger); the last slab may be partial.  When every
table is in lanes, it first reads a slab of each as one int, its lanes
widened to W' bits with 2^W' at least Σ|scale|·2^W, and compares the
base's scaled int with the sum of the parts' scaled ints.  Equal ints
mean equal entries, whatever the number of lanes: their difference is
Σ_i d_i·2^(W'i) with every |d_i| < 2^W', and were it zero with some d_i
nonzero, the lowest such d_i would be a nonzero multiple of 2^W'; such
a slab is skipped.  Every other slab is compared entry by entry.

Every reported violation is replayable: ``replay_violation`` recomputes
the two marginal sums from the stored witness.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress, count, cycle, product, repeat
from operator import add, mul, ne, truediv
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .boxes import FLOAT_ATOL, Prob, all_exact, apart, at_least, close

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


def int_to_digits(code: int, n: int, base: int) -> tuple[int, ...]:
    """The n base-``base`` digits of an integer, first digit most
    significant: the order of both words of a joint table's index."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, base)
    return tuple(out)


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
    decodes an index.

    ``values`` is an ``array`` of unsigned lanes when the box-product
    builder made the table exact from nonnegative cells and its settings
    blocks' sums have an upper bound below 2^64; the lane is the
    narrowest of 1, 2, 4 or 8 bytes that holds the bound.  Every other
    table -- per-point, float, with a negative entry, or with a wider
    bound -- holds a ``list`` (see the module docstring).

    A table is read-only once ``materialize`` returns it: each (side, S)
    condition is answered once per table and kept, label-free, in
    ``_answers`` (see ``_answer``).  A copy made by
    ``dataclasses.replace`` starts with no answers, so a table made by
    changing a copy's values is checked afresh.
    """

    n: int
    n_settings: int
    values: array | list
    den: int | None
    _answers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def table_entries(n: int, n_settings: int) -> int:
    """Entries of the joint table of n pairs with N settings: (4 N^2)^n."""
    return (4 * n_settings**2) ** n


def refuse_over_cap(what: str, cost: int, unit: str = "evaluations") -> None:
    """Raise InfeasibleSizeError if ``what`` costs more than EVAL_CAP.

    ``cost`` is counted in its path's ``unit``, named in the message: a
    joint table's entries count as per-point evaluations on either path
    (see ``materialize``), and the distance at one input counts
    Alice-marginal cells for a box product built from its boxes and
    evaluations for any other part.  A cell and an evaluation each cost
    a few microseconds, so one cap serves both."""
    if cost > EVAL_CAP:
        raise InfeasibleSizeError(f"{what} needs {cost} {unit}, cap is {EVAL_CAP}")


def materialize(system: "SystemEvaluator") -> JointTable:
    """The full joint table of a system.

    A ``BoxProductSystem`` that keeps the shared ``evaluate`` is built from
    its boxes in n passes (``_box_product_table``); every other
    system, including a subclass that overrides ``evaluate``, is evaluated
    at every (x, y, u, v) point.  Both paths give the same table: same
    ``den``, same values and value types, same float bits.  The per-point
    path holds an exact table's numerators in a ``list``, the reference
    layout; the builder may hold them in lanes (see ``JointTable``).  The
    table is exact when every value is an int or a Fraction.

    ``refuse_over_cap`` raises InfeasibleSizeError, before any work, when
    the table has more than EVAL_CAP entries -- on either path, each
    entry counted as one evaluation, the per-point path's unit.
    """
    from .systems import built_from_boxes  # deferred: systems imports this module

    n, N = system.n, system.n_settings
    refuse_over_cap("joint table", table_entries(n, N))
    if built_from_boxes(system):
        return _box_product_table(system)
    settings = list(product(range(N), repeat=n))
    outcomes = list(product((0, 1), repeat=n))
    raw = [system.evaluate(x, y, u, v)
           for u in settings for v in settings for x in outcomes for y in outcomes]
    if not all_exact(raw):
        return JointTable(n, N, list(map(float, raw)), None)
    den = math.lcm(*{v.denominator for v in raw})
    return JointTable(n, N, [v.numerator * (den // v.denominator) for v in raw], den)


#: The unsigned ``array`` typecode of each lane width in bytes.
_LANE_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _relaned(data: bytes, item: int, width: int) -> bytearray:
    """The ``item``-byte lanes of ``data`` widened to ``width``-byte lanes
    with zero bytes, a byte column at a time."""
    dst = 0 if sys.byteorder == "little" else width - item
    out = bytearray(len(data) // item * width)
    for b in range(item):
        out[dst + b::width] = data[b::item]
    return out


#: Entries of P_{k-1} that one slab of a build pass reads, rounded to
#: whole values of (u_1..u_{k-1}): it bounds the pass's transient ints
#: and bytes, so a build peaks near the table itself.  The convex check
#: reads every table in slabs of this many entries, or one block, and a
#: list ``_sum_out`` sums half a slab, or one run, at a time.
_SLAB = 2**13


def _box_product_table(system) -> JointTable:
    """Joint table of a box product, built from its boxes in n passes.

    Pass k turns P_{k-1}, indexed by (u_1..u_{k-1}, v_1..v_{k-1}, x_1..x_n,
    y_1..y_{k-1}), into P_k.  Each string x reads one row at position k,
    and each (a, b) = (u_k, v_k) gives one block: P_{k-1} with every entry
    of x's run doubled for y_k and the two copies multiplied by the y_k = 0
    and y_k = 1 cells of that row at (a, b).  P_k holds the blocks'
    settings blocks in (U_k, a, V_k, b) order, U_k = (u_1..u_{k-1}) and
    V_k = (v_1..v_{k-1}).  A pass reads P_{k-1} in slabs of whole U_k
    ranges, about ``_SLAB`` entries each; a slab's part of P_k is one run
    of it, appended in order.  P_0 holds one entry per x: 1 in a float
    table, x's scale (below) in an exact one.  P_n is the table, so every
    x is carried from the start and a box may depend on any bit of x.  A
    float entry is the left fold, in position order from 1, that
    ``evaluate`` takes, so it has its bits; a float table takes ``float``
    of each entry in the last pass, so an entry whose cells are all exact
    is rounded once, as on the per-point path.

    Each string x reads one row per position k: x's box at k at bit x_k,
    its N^2 (y = 0, y = 1) pairs in (a, b) order.  Each distinct (box,
    bit) row is read through ``prob`` once per build and shared by every
    string that reads it; a cell that no string reads is never read.  The
    table is exact when every cell read is, the per-point path's rule.

    Exact cells are scaled to integers over D, the lcm of their
    denominators, and each row is divided by its own gcd (an all-zero
    row, gcd 0, is kept).  The table's ``den`` is D^n over g, the gcd of
    D^n and every entry: the lcm of the entries' reduced denominators, as
    on the per-point path.  The gcd of one string's entries is the product
    of its row gcds, its scale, so g is the gcd of D^n and every scale,
    and P_0 at x is x's scale over g.

    When no cell read is negative, P_0 to P_n are all held in the
    narrowest of 1, 2, 4 or 8-byte lanes that holds B, if one does: the
    only lanes made anywhere.  B is the sum over x of P_0 at x times, at
    each position, the largest y = 0 plus y = 1 pair of x's row there: a
    settings block's sum is that sum with each position's pair taken at
    the block's (a, b).  Each slab of a pass is then a few whole-int
    operations (``_lane_pass``), carry-free because every partial product
    fits a lane.  An entry of P_k at x is P_0 at x times one cell of each
    of x's first k rows.  If one of x's rows is all zero, its gcd 0 makes
    x's scale and P_0 at x zero, so every entry at x is zero.  Otherwise
    every row of x has a pair of at least 1, so multiplying in the pairs
    of the later positions shrinks nothing, and the entry is at most x's
    term in B, below 2^W.  Other exact tables, and float tables, are held
    in lists and multiplied entry by entry (``_list_pass``).
    """
    n, N = system.n, system.n_settings
    boxes_by_x = [system.pair_boxes(x) for x in range(2**n)]
    keys_by_x = [tuple(zip(map(id, boxes), int_to_digits(x, n, 2)))
                 for x, boxes in enumerate(boxes_by_x)]
    distinct = {key: box for boxes, keys in zip(boxes_by_x, keys_by_x)
                for key, box in zip(keys, boxes)}
    rows = {key: [box.prob(a, b, key[1], y) for a in range(N) for b in range(N) for y in (0, 1)]
            for key, box in distinct.items()}
    cells_read = list(chain.from_iterable(rows.values()))
    den = None
    values = [1] * 2**n  # P_0
    if all_exact(cells_read):
        D = math.lcm(*{c.denominator for c in cells_read})
        rows = {key: [c.numerator * (D // c.denominator) for c in row]
                for key, row in rows.items()}
        gcds = {key: math.gcd(*row) for key, row in rows.items()}
        rows = {key: [c // (gcds[key] or 1) for c in row] for key, row in rows.items()}
        scales = [math.prod(map(gcds.get, keys)) for keys in keys_by_x]
        g = math.gcd(D**n, *scales)
        den = D**n // g
        values = [scale // g for scale in scales]
        if min(cells_read) >= 0:
            # a block sums, at each x, P_0 times each position's y = 0 plus
            # y = 1 cells at its (a, b): at most their largest pair sum
            widest = {key: max(map(add, row[::2], row[1::2])) for key, row in rows.items()}
            bound = sum(map(mul, values, map(math.prod, map(partial(map, widest.get), keys_by_x))))
            size = next((size for size in (1, 2, 4, 8) if bound >> 8 * size == 0), None)
            if size is not None:
                values = array(_LANE_CODES[size], values)

    lanes = isinstance(values, array)
    for j in range(n):
        # position j + 1's row at every x; one block per (u_{j+1}, v_{j+1})
        column = [rows[keys[j]] for keys in keys_by_x]
        scaled = (_lane_pass(column, N, j, values.itemsize) if lanes
                  else _list_pass(column, N, j, float if den is None and j == n - 1 else None))
        per_u = N**j << (n + j)  # P_j's entries at one (u_1..u_j)
        step = max(1, _SLAB // per_u) * per_u
        previous, values = values, array(values.typecode) if lanes else []
        append = values.frombytes if lanes else values.extend
        for start in range(0, len(previous), step):
            slab = previous[start:start + step]
            blocks = scaled(slab)
            count = len(slab) >> (n + j)  # settings blocks in the slab
            size = len(blocks[0]) // count
            for u, a, V, b in product(range(count // N**j), range(N), range(N**j), range(N)):
                append(blocks[a * N + b][(u * N**j + V) * size:(u * N**j + V + 1) * size])
    return JointTable(n, N, values, den)


def _list_pass(column: list, N: int, j: int, cast=None):
    """Pass j + 1 on list slabs: the function that maps a slab of P_j to
    its N^2 blocks, one list per (a, b), in which every entry is doubled
    for y_{j+1} and the two copies multiplied by the y = 0 and y = 1
    cells of its string x's row ``column[x]`` at (a, b), then passed
    through ``cast`` when one is given."""
    cells = [list(chain.from_iterable(row[2 * s:2 * s + 2] * 2**j for row in column))
             for s in range(N * N)]

    def scaled(slab: list) -> list[list]:
        doubled = list(chain.from_iterable(zip(slab, slab)))
        products = (map(mul, doubled, cycle(pattern)) for pattern in cells)
        return [list(map(cast, block) if cast else block) for block in products]
    return scaled


def _lane_pass(column: list, N: int, j: int, width: int):
    """``_list_pass`` on slabs of ``width``-byte lanes, each block as bytes
    of the same lanes.

    A slab's lanes are widened to twice their width, which leaves each
    entry in its y_{j+1} = 0 lane with an empty y_{j+1} = 1 lane beside
    it, and read as one int.  Each distinct row masks that int to the
    runs of the strings that read it (every string, unmasked, when there
    is one row).  The block at (a, b) is the sum over the rows of the
    masked int times the row's pair c0 + c1·2^W at (a, b): no lane
    carries (see ``_box_product_table``), and the masks leave each entry
    to one row."""
    order = sys.byteorder
    run = 2 * width << j  # bytes of one string's entries in one widened settings block
    marks = list(map(tuple, column))
    rows = list(dict.fromkeys(marks))
    masks = [b"".join(b"\xff" * run if mark == row else bytes(run) for mark in marks)
             for row in rows] if len(rows) > 1 else [None]
    # the y = 0 lane is the low half of the wide lane on a little-endian machine
    pairs = [[low | high << 8 * width for low, high in
              (zip(row[::2], row[1::2]) if order == "little" else zip(row[1::2], row[::2]))]
             for row in rows]

    def scaled(slab: array) -> list[memoryview]:
        whole = int.from_bytes(_relaned(slab.tobytes(), width, 2 * width), order)
        count = len(slab) // (len(marks) << j)  # settings blocks in the slab
        masked = [whole if mask is None else whole & int.from_bytes(mask * count, order)
                  for mask in masks]
        return [memoryview(sum(map(mul, masked, at)).to_bytes(2 * width * len(slab), order))
                for at in zip(*pairs)]
    return scaled


def _scaled(value, den: int | None) -> Prob:
    return value if den is None else Fraction(value, den)


def _count_differing(lhs: Sequence, rhs: Sequence) -> tuple[int, list[int]]:
    """How many entries two equal-length sequences differ at under the
    tolerance rule, and the first MAX_WITNESSES such positions, ascending.
    ``ne`` narrows the entries to those not equal, and ``boxes.apart``
    holds these to the tolerance entry by entry, in one call."""
    ks = apart(lhs, rhs, compress(count(), map(ne, lhs, rhs)))
    return len(ks), ks[:MAX_WITNESSES]


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


def _rows(values: array, count: int) -> memoryview:
    """The lanes of ``values`` as a 2-D byte view of ``count`` equal rows:
    a slice of its rows reads many runs of entries in one C-level copy."""
    view = memoryview(values).cast("B")
    return view.cast("B", (count, len(view) // count))


def _sum_out(values: array | list, stride: int) -> array | list:
    """``values`` with one outcome digit summed out, the digit whose two
    outcomes lie ``stride`` entries apart: in each run of 2·stride
    entries, the first half plus the second.  One pass over the whole
    flat grid, every settings word at once.

    A list is summed ``_SLAB / 2`` entries (or one run, if longer) at a
    time, so its transients stay bounded: a slab's step slices and their
    sum hold fewer references than one ``_SLAB``.  In a slab the halves
    are read as step slices: one pair per offset inside the stride when
    offsets are fewer than runs, else one pair per run.
    Each entry is the first half's plus the second's, so float bits do
    not depend on the branch.

    Lanes stay in their width: the first halves of all runs and the
    second halves are read as two ints and added, which adds every lane
    to its partner with no carry between lanes (see the module
    docstring).  At stride 1 the halves are ``array`` step slices; at a
    wider stride the table is viewed as rows of ``stride`` entries, and
    the halves are its even and odd rows, each read by one C-level copy."""
    if isinstance(values, list):
        out = [None] * (len(values) // 2)
        run = 2 * stride
        slab = max(_SLAB // 2, run)  # both powers of two, so whole runs
        for start in range(0, len(values), slab):
            stop = min(start + slab, len(values))
            if stride < (stop - start) // run:
                for i in range(stride):
                    out[start // 2 + i:stop // 2:stride] = map(
                        add, values[start + i:stop:run], values[start + stride + i:stop:run])
            else:
                for first in range(start, stop, run):
                    out[first // 2:first // 2 + stride] = map(
                        add, values[first:first + stride], values[first + stride:first + run])
        return out
    if stride == 1:
        halves = values[::2], values[1::2]
    else:
        rows = _rows(values, len(values) // stride)
        halves = rows[::2], rows[1::2]
    total = int.from_bytes(halves[0], sys.byteorder) + int.from_bytes(halves[1], sys.byteorder)
    out = array(values.typecode)
    out.frombytes(total.to_bytes(len(values) // 2 * values.itemsize, sys.byteorder))
    return out


def _strides(n: int, digits: Sequence[int]) -> Iterator[int]:
    """The ``_sum_out`` strides that sum the outcome ``digits`` out of a
    table, highest digit first: the outcomes at digit q lie 2^k entries
    apart, k the digits after q not yet summed out."""
    return (1 << (2 * n - q - done) for done, q in enumerate(reversed(digits)))


def _unmoved(grid: array, digits: Sequence[int], N: int) -> bool:
    """Whether no settings block of a lane grid changes when any one
    settings digit in ``digits`` moves from 0: then every block equals
    the one with zeros at all of ``digits``.  At digit q the grid is
    viewed as N^q rows, one per value of settings digits 1..q, so row r
    has digit q = r mod N; the rows with q = c, read as one ``bytes``,
    must equal the rows with q = 0, for every c."""
    for q in digits:
        rows = _rows(grid, N**q)
        zero = rows[::N].tobytes()
        if any(rows[c::N].tobytes() != zero for c in range(1, N)):
            return False
    return True


def _independence(
    table: JointTable,
    grid: list,
    side: str,
    subset: tuple[int, ...],
) -> tuple[list[tuple], int, int]:
    """Check that ``side``'s outputs outside ``subset``, together with all
    of the other side's outputs, do not depend on ``side``'s inputs inside
    ``subset``.

    ``grid`` is ``table`` with the outcome digits of ``subset`` summed out
    (by ``_sum_out``, highest digit first; in float tables this is the
    summation order): one block of kept outcome words per settings word,
    in table order.  The blocks whose settings words differ only at the
    subset's digits are compared with the one that has zeros there, one
    delta (a nonzero assignment of those digits) at a time, as whole
    slices, and through ``_count_differing`` where two slices differ.
    A lane grid in which no block moves with one subset digit
    (``_unmoved``) has no violation, and skips the comparisons.

    The settings digits after the subset's last digit are all kept, so
    each settings prefix up to that digit owns one contiguous run of the
    grid.  ``tail``, the highest run of consecutive kept digits before
    that digit, gives ``spaced`` runs ``step`` entries apart; the kept
    digits before ``tail`` give where each such group starts
    (``firsts``), which also covers kept digits between the subset's
    first and last digits.  Of the two loops that cover the runs, the
    shorter runs:

    - one slice per run, the delta's runs in order, all one sequence;
    - one strided slice per offset in a run, across the ``spaced`` runs
      of one first, each its own sequence.

    Each sequence finds its violations in witness order, so a witness
    of the report is among the first MAX_WITNESSES of its own sequence.
    Each sequence keeps that many, merged into witness order as each
    sequence ends, so at most MAX_WITNESSES candidates stay alive
    between sequences.
    Returns the answer, free of any condition or cut label: (the first
    MAX_WITNESSES witnesses as (grid index, shift, lhs, rhs), total
    violation count, comparisons performed).  ``_labelled`` turns it into
    report parts.
    """
    n, N = table.n, table.n_settings
    digits = _digits(n, side, subset)
    kept = [q for q in range(1, 2 * n + 1) if q not in digits]
    G = len(grid) // N ** (2 * n)
    checks = N ** len(kept) * (N ** len(digits) - 1) * G  # refs × deltas × G
    if isinstance(grid, array) and _unmoved(grid, digits, N):
        return [], 0, checks
    last = digits[-1]
    run = N ** (2 * n - last) * G
    inner = [q for q in kept if q < last]
    split = max(len(inner) - 1, 0)
    while split and inner[split - 1] == inner[split] - 1:
        split -= 1
    tail = inner[split:]
    spaced, step = N ** len(tail), N ** (last - tail[-1]) * run if tail else run
    firsts = [code * run for code in _scatter_codes(inner[:split], last, N)]
    if spaced <= run:  # one slice per run, all in one sequence
        sequences = [[(first + t * step, 1, run) for first in firsts for t in range(spaced)]]
    else:  # one strided slice per offset in a run, each its own sequence
        sequences = [[(first + i, step, spaced)] for first in firsts for i in range(run)]

    def order(witness):
        ref, k = divmod(witness[0], G)
        return ref, witness[1], k

    found: list[tuple] = []
    total = 0
    for shift in (code * run for code in _scatter_codes(digits, last, N)[1:]):
        for sequence in sequences:
            candidates = []
            for start, stride, length in sequence:
                stop = start + stride * length
                lhs, rhs = grid[start:stop:stride], grid[start + shift:stop + shift:stride]
                if lhs != rhs:
                    differing, ks = _count_differing(lhs, rhs)
                    total += differing
                    candidates.extend((start + k * stride, shift, lhs[k], rhs[k])
                                      for k in ks[:MAX_WITNESSES - len(candidates)])
            if candidates:
                found = sorted(found + candidates, key=order)[:MAX_WITNESSES]
    return found, total, checks


def _labelled(table: JointTable, side: str, subset: tuple[int, ...],
              answer: tuple[list[tuple], int, int], condition: str,
              cut: int | None) -> tuple[list[NsViolation], int, int]:
    """One report part from an answer of ``_independence``: its witnesses
    decoded into points under this call's ``condition`` and ``cut``."""
    found, total, checks = answer
    if not found:
        return [], total, checks
    n, den = table.n, table.den
    digits = _digits(n, side, subset)
    G = 1 << 2 * n - len(digits)  # kept outcome words per settings word
    # grid index k, a code over the kept outcome digits, as an outcome word
    offsets = _scatter_codes([q for q in range(1, 2 * n + 1) if q not in digits], 2 * n, 2)
    violations = []
    for index, shift, lhs, rhs in found:
        left, k = divmod(index, G)
        x, y, u_left, v_left = table.point(left * 4**n + offsets[k])
        u_right, v_right = table.point((left + shift // G) * 4**n + offsets[k])[2:]
        xy = tuple(None if q in digits else b for q, b in enumerate(x + y, 1))
        violations.append(NsViolation(
            condition, side, cut, subset, xy[:n], xy[n:], u_left, v_left, u_right, v_right,
            _scaled(lhs, den), _scaled(rhs, den)))
    return violations, total, checks


def _report(t: JointTable, condition: str, answered: Iterable[tuple]) -> NsReport:
    """The report of ``condition`` on ``t`` from its (side, subset, answer,
    label, cut) conditions, given in witness order: each answer decoded
    under its label and cut by ``_labelled``, and the parts added up."""
    violations, total, checks = [], 0, 0
    for side, subset, answer, label, cut in answered:
        found, violated, compared = _labelled(t, side, subset, answer, label, cut)
        violations += found
        total += violated
        checks += compared
    return NsReport(condition=condition, passed=total == 0, checks_performed=checks,
                    violations_total=total, tolerance=Fraction(0) if t.exact else FLOAT_ATOL,
                    violations=violations[:MAX_WITNESSES])


def _answer(t: JointTable, side: str, subset: tuple[int, ...],
            grid: array | list | None = None) -> tuple[list[tuple], int, int]:
    """``_independence``'s answer for (side, subset) on ``t``: read from
    ``t._answers`` when a check on ``t`` gave it, else compared now on
    ``grid``, by default ``t`` with ``side``'s outputs at ``subset``
    summed out, highest digit first, and kept."""
    key = side, subset
    if key not in t._answers:
        if grid is None:
            grid = reduce(_sum_out, _strides(t.n, _digits(t.n, side, subset)), t.values)
        t._answers[key] = _independence(t, grid, side, subset)
    return t._answers[key]


def _table(system: "SystemEvaluator", table: JointTable | None) -> JointTable:
    """The joint table a check reads: ``system``'s, materialized, or
    ``table``, refused unless it has the system's n and N."""
    if table is None:
        return materialize(system)
    if (table.n, table.n_settings) != (system.n, system.n_settings):
        raise ValueError(f"table has (n, N) = ({table.n}, {table.n_settings}), "
                         f"system has ({system.n}, {system.n_settings})")
    return table


def check_ab(system: "SystemEvaluator", *, table: JointTable | None = None) -> NsReport:
    """Neither full output marginal may depend on the other side's inputs:
    each side's time-ordered cut 1, so read from the table's answers when
    the time-ordered check ran on it."""
    t = _table(system, table)
    everything = tuple(range(1, t.n + 1))
    return _report(t, CONDITION_AB, [(side, everything, _answer(t, side, everything),
                                      CONDITION_AB, 1) for side in ("alice", "bob")])


def _time_ordered(t: JointTable) -> tuple[NsReport, array | list]:
    """The time-ordered report of ``t``, and Bob's cut-1 grid: ``t`` with
    every y summed out, y_n first, one block of 2^n entries per settings
    word.

    Each side's grids are one chain: cut n sums position n out of the
    table, and each cut after it sums one more position out of the grid
    before, so the whole check sums about one table's worth of entries.
    Each cut is answered through ``_answer`` on its grid, so a cut that a
    check on ``t`` answered before is read, not compared again, and each
    cut's answer is kept for ``check_ab`` and ``check_subset``.
    """
    n = t.n
    everything = tuple(range(1, n + 1))
    answered = []
    for side in ("alice", "bob"):
        grid, cuts = t.values, []
        for cut, stride in zip(range(n, 0, -1), _strides(n, _digits(n, side, everything))):
            grid = _sum_out(grid, stride)
            subset = everything[cut - 1:]
            cuts.append((side, subset, _answer(t, side, subset, grid),
                         f"{CONDITION_TIME_ORDERED}-{side}", cut))
        answered += reversed(cuts)
    return _report(t, CONDITION_TIME_ORDERED, answered), grid


def check_time_ordered(system: "SystemEvaluator", *,
                       table: JointTable | None = None) -> NsReport:
    """Future inputs may not influence past outputs, on either side: one
    chain of sums per side (see ``_time_ordered``)."""
    return _time_ordered(_table(system, table))[0]


def check_part(table: JointTable) -> tuple[bool, bool, NsReport]:
    """Whether a partition part's table is nonnegative, whether each
    settings word's block sums to one, and its time-ordered report, from
    one sweep of the table.

    The block sums continue Bob's time-ordered chain: x_n..x_1 are summed
    out of its cut-1 grid, each the last outcome digit left, so the block
    sums are the table with every outcome digit summed out, highest
    first, the module's summation order.  Lanes are nonnegative by
    construction; a list is read for its ``min``."""
    report, grid = _time_ordered(table)
    sums = reduce(_sum_out, repeat(1, table.n), grid)
    one = table.den if table.exact else 1.0
    return (isinstance(table.values, array) or at_least(min(table.values), 0),
            all(close(s, one) for s in sums), report)


def check_subset(system: "SystemEvaluator", side: str, subset: Iterable[int], *,
                 table: JointTable | None = None) -> NsReport:
    """Outputs outside ``subset`` on ``side`` (plus the whole other side)
    must not depend on the inputs inside ``subset``: distinct positions in
    1..n, in any order.  A suffix {i..n} is time-ordered cut i, read from
    the table's answers when that check ran on it."""
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    positions = tuple(subset)
    ints = all(isinstance(p, int) and not isinstance(p, bool) for p in positions)
    sub = tuple(sorted(set(positions))) if ints else positions
    if not ints or not sub or sub[0] < 1 or sub[-1] > system.n:
        raise ValueError(f"subset must be a nonempty subset of 1..{system.n}, got {sub}")
    if len(sub) < len(positions):
        repeated = next(p for i, p in enumerate(positions) if p in positions[:i])
        raise ValueError(f"subset names position {repeated} more than once, got {positions}")
    t = _table(system, table)
    return _report(t, CONDITION_SUBSET,
                   [(side, sub, _answer(t, side, sub), CONDITION_SUBSET, None)])


def _widened(values: array, start: int, size: int, width: int) -> int:
    """Entries ``start`` to ``start + size`` of a lane table read as one
    int of ``width``-byte lanes."""
    block = values[start:start + size].tobytes()
    return int.from_bytes(_relaned(block, values.itemsize, width), sys.byteorder)


def convex_mismatches(base: JointTable, parts: Sequence[JointTable],
                      weights: Sequence[Prob]) -> tuple[list[tuple], int]:
    """The first MAX_WITNESSES entries, as (x, y, u, v, base value,
    weighted sum), at which the weighted ``parts`` do not add up to
    ``base``, and how many there are.  One slab of settings blocks at a
    time (lane tables first as whole ints, see the module docstring),
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

    def weighted(scale, t: JointTable, block):
        if den is None and t.exact:
            block = map(truediv, block, repeat(t.den))
        return map(mul, repeat(scale), block)

    packed = den is not None and all(isinstance(t.values, array) for t in tables)
    if packed:
        # a wide lane holds sum |scale| * 2^(lane bits) > any lane's difference
        lane_bits = 8 * max(t.values.itemsize for t in tables)
        width = -(-(lane_bits + sum(map(abs, scales)).bit_length()) // 8)

    slab = max(4**base.n, _SLAB)
    found, total = [], 0
    for start in range(0, len(base.values), slab):
        if packed:
            want, *terms = (scale * _widened(t.values, start, slab, width)
                            for scale, t in zip(scales, tables))
            if want == sum(terms):
                continue
        blocks = [t.values[start:start + slab] for t in tables]
        want, *terms = map(weighted, scales, tables, blocks)
        want, combo = list(want), list(reduce(partial(map, add), terms))
        if want != combo:
            differing, ks = _count_differing(want, combo)
            total += differing
            found.extend((start + k, want[k], combo[k]) for k in ks[:MAX_WITNESSES - len(found)])
    return [(*base.point(index), _scaled(lhs, den), _scaled(rhs, den))
            for index, lhs, rhs in found], total


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
