"""Package-wide layout rules.

The package carries no code that only tests use: every function and
class defined under ``src/chainbell`` is referenced by name somewhere in
the package outside its own definition, and every method is read as an
attribute there, so a variable that shares a method's name does not keep
it; or the definition is exported from ``chainbell/__init__.py``.
Dunder methods are not checked: Python calls them, not code by name.
Oracles that only tests need live in ``tests/helpers.py`` instead.

One predicate decides exactness: ``isinstance(value, (int, Fraction))``
appears only in ``boxes.all_exact``.  One method reads a box's cell at a
point: only ``SinglePairBox.prob`` subscripts its point map
``._cell_at``, and no code subscripts a ``.cells`` attribute.  One rule
chooses a comparison's tolerance: ``FLOAT_ATOL`` is read only by
``boxes.close``, ``boxes.apart`` (``close`` over many entries in one
call) and ``boxes.at_least``, and by ``nonsignalling._report``, which
reports it, and no code names an ``atol`` of its own.  One guard
decides whether a run is too big: ``EVAL_CAP`` is read, and
``InfeasibleSizeError`` raised, only in
``nonsignalling.refuse_over_cap``.  One walk states the pivot rule: a
function's zero-count tree ``.tree`` is read only by
``adversary.build_pivotal_profile``, whose every level is decided by
``adversary._level_marks``, and every other pivot is read off the marks
it makes.  One mapping tells Alice from Bob in the joint table: only
``nonsignalling._digits`` compares a side with ``"alice"`` or ``"bob"``,
and everything else works on the digits it returns.  One rule finds the
entries at which two tables differ: ``operator.ne`` is read only by
``nonsignalling._count_differing``, which the non-signalling kernel and
the convex check both call.  One builder makes lanes:
``nonsignalling._LANE_CODES`` is read only by
``nonsignalling._box_product_table``, so the per-point tables that every
fast path is tested against share no packing code with it.  One
predicate says which systems are read off their boxes:
``BoxProductSystem.evaluate`` is read only by
``systems.built_from_boxes``, which ``materialize`` and the distance at
one input both call.  One module
does arithmetic on joint tables: ``systems`` imports nothing private and
no ``MAX_WITNESSES`` from ``nonsignalling``, and reads no table
attribute (``values``, ``den``, ``exact``, ``blocks``, ``point``).
"""

import ast
from collections import Counter
from pathlib import Path

import chainbell

PACKAGE = Path(chainbell.__file__).parent

#: Reached from outside the package: the console script in pyproject.toml.
ENTRY_POINTS = {("cli.py", "entry")}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node: ast.AST) -> Counter:
    """Names read as variables or attributes anywhere under node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _attribute_reads(node: ast.AST) -> Counter:
    """Names read as attributes anywhere under node: the only way a
    method is used, so a variable of the same name does not count."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _methods(tree: ast.Module) -> set[int]:
    """``id`` of every function defined directly in a class body."""
    return {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _exported_names(init: ast.Module) -> set[str]:
    return {alias.asname or alias.name
            for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unreferenced_definitions(package: Path) -> list[str]:
    """``file:name`` of every definition with no reference outside itself."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    exported = _exported_names(trees["__init__.py"])
    names = sum(map(_referenced_names, trees.values()), Counter())
    attributes = sum(map(_attribute_reads, trees.values()), Counter())
    unused = []
    for filename, tree in trees.items():
        methods = _methods(tree)
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in exported \
                    or (filename, name) in ENTRY_POINTS:
                continue
            uses, everywhere = ((_attribute_reads, attributes) if id(node) in methods
                                else (_referenced_names, names))
            if everywhere[name] - uses(node)[name] <= 0:
                unused.append(f"{filename}:{name}")
    return unused


def test_every_definition_is_used_in_the_package_or_exported():
    assert unreferenced_definitions(PACKAGE) == []


def owners_of(package: Path, matches) -> list[str]:
    """``file:owner`` of every node for which ``matches`` holds, owner
    being the dotted names of the enclosing definitions."""
    found = []

    def visit(node: ast.AST, filename: str, owner: str) -> None:
        if isinstance(node, DEFINITIONS):
            owner = f"{owner}.{node.name}" if owner else node.name
        if matches(node):
            found.append(f"{filename}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, filename, owner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def is_exactness_test(node: ast.AST) -> bool:
    """An ``isinstance(..., (int, Fraction))`` call."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
            and sorted(map(ast.unparse, node.args[1].elts)) == ["Fraction", "int"])


def subscripts(attribute: str):
    """A predicate for a subscript of an ``attribute`` attribute, such as
    ``box.cells[i]``."""

    def matches(node: ast.AST) -> bool:
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == attribute)

    return matches


def test_exactness_is_decided_only_by_all_exact():
    assert owners_of(PACKAGE, is_exactness_test) == ["boxes.py:all_exact"]


def test_box_cells_are_indexed_only_by_prob():
    assert owners_of(PACKAGE, subscripts("_cell_at")) == ["boxes.py:SinglePairBox.prob"]
    assert owners_of(PACKAGE, subscripts("cells")) == []


def reads(name: str):
    """A predicate for a read of ``name``, bare or as an attribute."""

    def matches(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id == name and isinstance(node.ctx, ast.Load)
        return (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.ctx, ast.Load))

    return matches


def names_atol(node: ast.AST) -> bool:
    """A variable, parameter, keyword, attribute or definition named ``atol``."""
    return any(getattr(node, field, None) == "atol" for field in ("id", "arg", "attr", "name"))


def test_float_tolerance_is_read_only_by_the_comparisons():
    assert owners_of(PACKAGE, reads("FLOAT_ATOL")) == [
        "boxes.py:close", "boxes.py:apart", "boxes.py:at_least", "nonsignalling.py:_report"]


def test_no_code_chooses_its_own_tolerance():
    assert owners_of(PACKAGE, names_atol) == []


def raises_infeasible_size(node: ast.AST) -> bool:
    """A ``raise`` of ``InfeasibleSizeError``, called or bare."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return reads("InfeasibleSizeError")(exc)


def test_size_is_refused_only_by_refuse_over_cap():
    owner = "nonsignalling.py:refuse_over_cap"
    assert set(owners_of(PACKAGE, reads("EVAL_CAP"))) == {owner}
    assert owners_of(PACKAGE, raises_infeasible_size) == [owner]


def test_zero_count_tree_is_read_only_by_the_pivotal_walk():
    assert set(owners_of(PACKAGE, reads("tree"))) == {"adversary.py:build_pivotal_profile"}


def compares_side(node: ast.AST) -> bool:
    """An ``==`` or ``!=`` comparison with the constant ``"alice"`` or ``"bob"``."""
    return (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(isinstance(operand, ast.Constant) and operand.value in ("alice", "bob")
                    for operand in (node.left, *node.comparators)))


def test_sides_are_told_apart_only_by_digits():
    assert owners_of(PACKAGE, compares_side) == ["nonsignalling.py:_digits"]


def test_differing_entries_are_found_only_by_differing():
    assert owners_of(PACKAGE, reads("ne")) == ["nonsignalling.py:_count_differing"]


def test_lanes_are_made_only_by_the_box_product_builder():
    assert owners_of(PACKAGE, reads("_LANE_CODES")) == ["nonsignalling.py:_box_product_table"]


def reads_shared_evaluate(node: ast.AST) -> bool:
    """A read of ``BoxProductSystem.evaluate``."""
    return (isinstance(node, ast.Attribute) and node.attr == "evaluate"
            and isinstance(node.value, ast.Name) and node.value.id == "BoxProductSystem")


def test_box_products_are_told_apart_only_by_built_from_boxes():
    assert owners_of(PACKAGE, reads_shared_evaluate) == [
        "systems.py:built_from_boxes"]
    assert owners_of(PACKAGE, reads("built_from_boxes")) == [
        "analysis.py:_part_key_zero_at_input", "nonsignalling.py:materialize"]


def _systems_tree() -> ast.Module:
    return ast.parse((PACKAGE / "systems.py").read_text(encoding="utf-8"))


def test_systems_imports_nothing_private_from_nonsignalling():
    imported = [alias.name for node in ast.walk(_systems_tree())
                if isinstance(node, ast.ImportFrom) and node.module == "nonsignalling"
                for alias in node.names]
    assert "check_time_ordered" in imported
    assert [name for name in imported
            if name.startswith("_") or name == "MAX_WITNESSES"] == []


def test_systems_reads_no_table_attribute():
    table_attributes = {"values", "den", "exact", "blocks", "point"}
    assert [node.attr for node in ast.walk(_systems_tree())
            if isinstance(node, ast.Attribute) and node.attr in table_attributes] == []
