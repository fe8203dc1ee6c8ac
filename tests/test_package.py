"""Public surface of the package."""

import ast
import re
from pathlib import Path

import ctrlflow


def test_all_names_resolve():
    missing = [name for name in ctrlflow.__all__ if not hasattr(ctrlflow, name)]
    assert missing == []
    assert len(set(ctrlflow.__all__)) == len(ctrlflow.__all__)


def test_no_unused_imports():
    # every name a module imports is read in it; __init__ only re-exports
    unused = []
    for path in sorted(Path(ctrlflow.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_module_constants_are_read():
    # every module-level ALL_CAPS name of the package is read or imported
    # somewhere in it: a constant no code reads is dead
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(ctrlflow.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            for target in node.targets if isinstance(node, ast.Assign) else []:
                if (isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
                        and target.id not in used):
                    unread.append(f"{name}: {target.id}")
    assert unread == []


def test_stream_key_called_only_in_seeding():
    # every derived seed or substream goes through seeding.py's helpers
    callers = []
    for path in sorted(Path(ctrlflow.__file__).parent.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "stream_key":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_trajectory_table_layout_only_in_trajectory():
    # the (traj_id, t, x, u) table is the one format of trajectory rows on
    # disk: no other module names its id column or writes an index file (a
    # dataclass setting its own traj_id field names an attribute, not a column)
    found = []
    for path in sorted(Path(ctrlflow.__file__).parent.glob("*.py")):
        if path.name == "trajectory.py":
            continue
        tree = ast.parse(path.read_text())
        attr_names = {
            call.args[1] for call in ast.walk(tree)
            if isinstance(call, ast.Call) and len(call.args) > 1
            and getattr(call.func, "attr", getattr(call.func, "id", None))
            in ("setattr", "__setattr__")
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node not in attr_names
                    and (node.value == "traj_id" or node.value.endswith("_index.json"))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_np_exp_called_only_in_the_weights_helper():
    # every kernel weight and the entropic W2 kernel go through
    # linalg.floored_exp, which keeps numpy's exp off its slow path for
    # arguments below EXP_FLOOR
    callers = []
    for path in sorted(Path(ctrlflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "linalg.py":
            helper = next(fn for fn in tree.body
                          if isinstance(fn, ast.FunctionDef) and fn.name == "floored_exp")
            allowed = set(ast.walk(helper))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node not in allowed:
                fn = node.func
                if (isinstance(fn, ast.Attribute) and fn.attr == "exp"
                        and isinstance(fn.value, ast.Name) and fn.value.id == "np"):
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_config_reads_kind_facts_from_its_table():
    # what an experiment kind accepts lives in config.KIND_SPECS: config.py
    # compares `kind` against no string literal
    tree = ast.parse((Path(ctrlflow.__file__).parent / "config.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {getattr(op, "id", getattr(op, "attr", None)) for op in operands}
            literal = any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                          for op in operands for sub in ast.walk(op))
            if "kind" in names and literal:
                found.append(node.lineno)
    assert found == []
