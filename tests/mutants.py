"""Mutation check: does tier-1 notice a one-site change to a module?

    python tests/mutants.py MODULE [FUNCTION ...]

MODULE names a module of src/snakescroll (`scroll` or `scroll.py`); each
FUNCTION names a function or method in it (`ids` or `Scroll.ids`), and
with none given every site of the module is mutated.  Each mutant changes
one site of the module's syntax tree (stdlib `ast` only):

- + and - swapped, * and // swapped, % turned into //;
- a comparison flipped (< and >=, > and <=, == and !=, is and is not,
  in and not in);
- `and` and `or` swapped;
- 1 added to an integer constant;
- a `not` dropped.

The repository is copied once to a temporary directory.  The module
re-emitted unchanged by `ast.unparse` must pass tier-1 there first, less
the check of line lengths, which the re-emitted source does not keep, and
the check of the accepted survivors' source text, which it rewrites; then
each mutant is written over it and tier-1 runs with `-x` and a timeout of
TIMEOUT seconds.  A mutant is killed when the run fails, survives when it
passes, and times out when it is stopped.  Each survivor is printed with
its line, function and mutation, and with its reason where
tests/mutants_accepted.txt lists it as accepted; then the killed,
survived and timed-out counts.  Exits 1 when a survivor is not accepted.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "snakescroll"
ACCEPTED = ROOT / "tests" / "mutants_accepted.txt"
TIMEOUT = 180
# `ast.unparse` re-emits the module without its line wraps, so the check of
# the source's line lengths is left out of each run; so is the check that
# each accepted survivor's source is in its function, which reads the text
# a mutant changes, not what the module does
LAYOUT = "tests/test_line_length.py::test_no_line_is_longer_than_100_characters"
LISTED = "tests/test_mutants.py::test_every_accepted_survivor_names_code_that_is_there"
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIER1 += ["--deselect", LAYOUT, "--deselect", LISTED]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench")

SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.And: ast.Or,
    ast.Or: ast.And,
}


def owners(tree: ast.Module) -> dict[int, str]:
    """Per node of a function or method of tree (by id), the function's
    name, qualified by its class for a method."""
    owner = {}
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in inner:
            if isinstance(f, ast.FunctionDef):
                name = f"{node.name}.{f.name}" if f is not node else f.name
                owner.update((id(sub), name) for sub in ast.walk(f))
    return owner


def sites(source: str, names: list[str]) -> list[tuple[int, int, int, str]]:
    """Each mutation of the functions named by names (bare or qualified by
    their class; the whole module where names is empty) as (line, position
    of its node in `ast.walk` order, choice, what it changes), in line
    order: the position finds the node again in a fresh parse of source.
    What it changes is the source of the node, or of the expression or
    statement holding a constant, before and after."""
    tree = ast.parse(source)
    owner = owners(tree)
    known = {n for name in owner.values() for n in (name, name.rpartition(".")[2])}
    if set(names) - known:
        raise SystemExit(f"no function {', '.join(sorted(set(names) - known))} in the module")
    parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    position = {id(node): at for at, node in enumerate(ast.walk(tree))}
    found = []
    for at, node in enumerate(ast.walk(tree)):
        name = owner.get(id(node), "")
        if names and name not in names and name.rpartition(".")[2] not in names:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            choices = [0] if type(node.op) in SWAPS else []
        elif isinstance(node, ast.Compare):
            choices = list(range(len(node.ops)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            choices = [0]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            choices = [0]
        else:
            continue
        shown = node
        if isinstance(node, ast.Constant):  # shown with what it is a term of
            shown = parent[id(node)]
            # up to a node with a source position: a comprehension has none
            while isinstance(shown, (ast.Tuple, ast.List, ast.UnaryOp)) and hasattr(
                parent[id(shown)], "lineno"
            ):
                shown = parent[id(shown)]
            if not hasattr(shown, "lineno"):  # a default argument: shown alone
                shown = node
        before = " ".join(ast.get_source_segment(source, shown).split())
        for choice in choices:
            mutant, replaced = mutated(source, at, choice)
            after = replaced if shown is node else list(ast.walk(mutant))[position[id(shown)]]
            what = f"`{before}` -> `{ast.unparse(after)}`"
            found.append((node.lineno, at, choice, f"{name or '<module>'}: {what}"))
    return sorted(found)


class _Replace(ast.NodeTransformer):
    def __init__(self, target: ast.AST, replacement: ast.AST) -> None:
        self.target, self.replacement = target, replacement

    def visit(self, node):
        return self.replacement if node is self.target else self.generic_visit(node)


def mutated(source: str, at: int, choice: int) -> tuple[ast.Module, ast.AST]:
    """A fresh parse of source with the one mutation (at, choice) of
    `sites` applied, and the node that now stands where the mutated one
    stood."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[at]
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[choice] = SWAPS[type(node.ops[choice])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:  # a `not`, dropped
        tree, node = _Replace(node, node.operand).visit(tree), node.operand
    return tree, node


def accepted() -> dict[str, str]:
    """The accepted survivors, "module function: mutation" to its reason:
    in ACCEPTED each is one unindented line and its reason the indented
    lines after it; lines starting with # are comments."""
    reasons: dict[str, str] = {}
    key = ""
    for line in ACCEPTED.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if line[0].isspace():
            reasons[key] = f"{reasons[key]} {line.strip()}".lstrip()
        else:
            key = line.strip()
            reasons[key] = ""
    return reasons


def tier1(copy: Path) -> str:
    """Run tier-1 with -x in copy: "killed", "survived" or "timed out"."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    with subprocess.Popen(
        TIER1,
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as run:
        try:
            code = run.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    module, names = argv[0].removesuffix(".py"), argv[1:]
    source = (ROOT / PACKAGE / f"{module}.py").read_text()
    found, reasons = sites(source, names), accepted()
    print(f"{module}: {len(found)} mutants", flush=True)
    counts = dict.fromkeys(("killed", "survived", "timed out"), 0)
    unaccepted = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / PACKAGE / f"{module}.py"
        target.write_text(ast.unparse(ast.parse(source)))
        if tier1(copy) != "survived":
            print("tier-1 does not pass on the unmutated module; no mutant run")
            return 2
        for line, at, choice, what in found:
            target.write_text(ast.unparse(mutated(source, at, choice)[0]))
            outcome = tier1(copy)
            counts[outcome] += 1
            if outcome == "killed":
                continue
            reason = reasons.get(f"{module} {what}")
            unaccepted += outcome == "survived" and reason is None
            note = "" if reason is None else f"\n    accepted: {reason}"
            print(f"{outcome}: line {line}: {what}{note}", flush=True)
    took = time.perf_counter() - start
    summary = ", ".join(f"{count} {outcome}" for outcome, count in counts.items())
    print(f"{summary} ({counts['survived'] - unaccepted} accepted) in {took:.0f} s")
    return 1 if unaccepted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
