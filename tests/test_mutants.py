"""The mutation check's tool: each accepted survivor names code that is there,
and each run selects the changed functions and orders the test files as stated."""

import ast
import re

from mutants import LAST, PACKAGE, ROOT, accepted, changed, tier1_files

# "module function: `before` -> `after`", as tests/mutants.py prints a mutant
ENTRY = re.compile(r"(\w+) ([\w.]+): `(.*?)` -> `")


def functions(source: str) -> dict[str, str]:
    """Per function or method of source (a method qualified by its class),
    its source with whitespace normalised as a mutant's `before` is."""
    found = {}
    for node in ast.parse(source).body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in inner:
            if isinstance(f, ast.FunctionDef):
                name = f.name if f is node else f"{node.name}.{f.name}"
                found[name] = " ".join(ast.get_source_segment(source, f).split())
    return found


def stale(entries, read) -> list[str]:
    """The entries whose function is not in its module, or whose source
    does not hold the entry's `before`; read(module) is the module's
    source."""
    sources, out = {}, []
    for entry in entries:
        module, name, before = ENTRY.match(entry).groups()
        if module not in sources:
            sources[module] = functions(read(module))
        if before not in sources[module].get(name, ""):
            out.append(entry)
    return out


def test_every_accepted_survivor_names_code_that_is_there():
    def read(module):
        return (ROOT / PACKAGE / f"{module}.py").read_text()

    entries = accepted()
    assert entries and all(ENTRY.match(entry) for entry in entries)
    assert stale(entries, read) == []


def test_a_stale_entry_is_named():
    source = "def f(x):\n    return (x *\n        3)\n\nclass C:\n    def g(self):\n        pass\n"
    entries = [
        "m f: `x * 3` -> `x // 3`",  # the source, whitespace normalised
        "m f: `x * 4` -> `x * 5`",  # no such text in f
        "m C.g: `pass` -> `pass`",  # a method, qualified by its class
        "m g: `pass` -> `pass`",  # no function g at top level
        "m h: `x` -> `y`",  # no function h
    ]
    assert stale(entries, {"m": source}.get) == [entries[1], entries[3], entries[4]]


def test_the_functions_whose_code_changed_are_selected():
    before = '''
def same(x):
    return x + 1


def edited(x):
    return x * 2


def documented(x):
    """Old words."""

    def inner(y):
        """Old inner words."""
        return y

    return inner(x)


class C:
    def method(self):
        return 1

    def nested(self):
        def inner():
            return 1

        return inner()
'''
    after = '''
class C:
    def nested(self):
        def inner():
            return 2

        return inner()

    def method(self):
        return 1


def documented(x):
    """New words, and more of them."""

    def inner(y):
        return y

    return inner(x)


def edited(x):
    return x // 2


def added(x):
    return x


def same(x):
    return x + 1
'''
    # moved (`same`, `C.method`) or only its docstrings edited
    # (`documented`): not selected; a changed body, a nested function's
    # included (`C.nested`), and a new function are
    assert changed(after, before) == ["C.nested", "edited", "added"]
    assert changed(after, "") == ["C.nested", "C.method", "documented", "edited", "added", "same"]
    assert changed(before, before) == []


def test_each_mutant_run_passes_every_test_file_with_the_slow_ones_last():
    files = tier1_files(ROOT)
    assert sorted(files) == sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py"))
    assert files[-len(LAST) :] == [f"tests/{name}" for name in LAST]
