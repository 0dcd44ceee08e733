"""Layout guards: every public name in src/gnk, and every public method of
every class there, is used, documented or traced; every private function
and class there is used in src/; no module imports another's private
name; no module writes a private attribute onto anything but self;
every function the benchmark's tracer wraps exists; and outside
homsearch._Indexed no index-table product is read off the 2-D table."""

import ast
import importlib
import os
import re

from oracle_utils import bench_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "gnk")


def _sources():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                out[name[:-3]] = ast.parse(fh.read())
    return out


def _readme_words():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return set(re.findall(r"\w+", fh.read()))


def _referenced(node, skip=None):
    """Every name and attribute a subtree reads or imports, not descending
    into skip."""
    names = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            names.add(cur.attr)
        elif isinstance(cur, ast.alias):
            names.add(cur.name)
        stack.extend(ast.iter_child_nodes(cur))
    return names


def test_wrapped_functions_resolve():
    spans = bench_module("spans")
    for module, function in spans.WRAPPED:
        mod = importlib.import_module(f"gnk.{module}")
        assert callable(getattr(mod, function, None)), (module, function)
    wrapped = {function for _, function in spans.WRAPPED}
    assert set(spans.ON_RESULT) <= wrapped


def test_every_public_name_is_used_documented_or_traced():
    trees = _sources()
    readme = _readme_words()
    wrapped = {(module, function) for module, function in bench_module("spans").WRAPPED}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or (module, node.name) in wrapped:
                continue
            used = any(
                node.name in _referenced(other, skip=node)
                for other in trees.values()
            )
            if not used and node.name not in readme:
                unused.append(f"{module}.{node.name}")
    assert unused == [], unused


def test_every_public_method_is_used_documented_or_traced():
    # a use is an attribute read (x.name) in some src/ module; local
    # variables that share a method's name do not count.  Private classes
    # are checked too, and a method that overrides one of its class's bases
    # (argparse calls _Parser.error) counts as used
    trees = _sources()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    allowed = read | _readme_words() | {f for _, f in bench_module("spans").WRAPPED}

    def overrides(module, cls, name):
        bases = getattr(importlib.import_module(f"gnk.{module}"), cls).__mro__[1:]
        return any(name in vars(base) for base in bases)

    unused = [
        f"{module}.{cls.name}.{fn.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in allowed
        and not overrides(module, cls.name, fn.name)
    ]
    assert unused == [], unused


def test_every_private_definition_is_used_in_src():
    # a private helper that only tests call belongs in tests/oracle_utils.py
    trees = _sources()
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(
            node.name in _referenced(other, skip=node) for other in trees.values()
        )
    ]
    assert unused == [], unused


def test_no_module_imports_a_private_name():
    # a name that another module needs is public: a private name stays
    # inside the module that defines it
    crossing = [
        f"{module} imports {node.module or '.'}.{alias.name}"
        for module, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("gnk"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert crossing == [], crossing


def test_one_process_pool():
    # every fan-out goes through homsearch.pool_map, so a second pool (and a
    # second shard-and-merge path around it) cannot come back unnoticed
    holders = [
        f"{module}.{getattr(node, 'name', node.lineno)}"
        for module, tree in _sources().items()
        for node in tree.body
        if "ProcessPoolExecutor" in _referenced(node)
    ]
    assert holders == ["homsearch.pool_map"], holders


def test_no_module_stamps_private_attributes_on_other_objects():
    # a table derived from an object is cached by a function keyed on that
    # object, not written onto it: only self gets underscore attributes, by
    # assignment (chained or augmented ones included) or by setattr
    def private_store(node):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            return node.attr, node.value
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
        ):
            return node.args[1].value, node.args[0]
        return "", None

    stamped = []
    for module, tree in _sources().items():
        for node in ast.walk(tree):
            name, owner = private_store(node)
            if name.startswith("_") and not (
                isinstance(owner, ast.Name) and owner.id == "self"
            ):
                stamped.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    assert stamped == [], stamped


def test_index_table_products_go_through_product():
    # idx.mul[a, b], idx.mul[x] and idx.mul[np.ix_(...)] are products, or
    # rows of them, gathered off the 2-D table: outside _Indexed they go
    # through _Indexed.product, one flat gather.  Slices such as
    # idx.mul[:, c] read a column or row and stay allowed
    def indexed(tree):
        skip = [n for n in tree.body if getattr(n, "name", "") == "_Indexed"]
        stack = [tree]
        while stack:
            cur = stack.pop()
            if cur not in skip:
                yield cur
                stack.extend(ast.iter_child_nodes(cur))

    gathers = [
        f"{module}:{node.lineno} {ast.unparse(node)}"
        for module, tree in _sources().items()
        for node in indexed(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "mul"
        and not any(
            isinstance(part, ast.Slice)
            for part in (
                node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            )
        )
    ]
    assert gathers == [], gathers
