"""Every line of the Python files under src/ and tests/ is at most 100
characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 100


def long_lines(root: Path) -> list[str]:
    """Each line of the Python files under root/src and root/tests longer
    than LIMIT characters, as "path:line: length characters"."""
    return [
        f"{path.relative_to(root)}:{i}: {len(line)} characters"
        for top in ("src", "tests")
        for path in sorted((root / top).rglob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]


def test_no_line_is_longer_than_100_characters():
    assert long_lines(ROOT) == []


def test_a_long_line_is_named(tmp_path):
    # a tree with one line of each length: only the 101-character line of a
    # Python file under src/ or tests/ is named
    for top in ("src", "tests", "perfbench"):
        (tmp_path / top / "pkg").mkdir(parents=True)
        (tmp_path / top / "pkg" / "m.py").write_text("x" * 100 + "\n" + "y" * 101 + "\n")
    (tmp_path / "src" / "notes.txt").write_text("z" * 101)
    assert long_lines(tmp_path) == [
        "src/pkg/m.py:2: 101 characters",
        "tests/pkg/m.py:2: 101 characters",
    ]
