"""Each accepted survivor of the mutation check names code that is there."""

import ast
import re

from mutants import PACKAGE, ROOT, accepted

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
