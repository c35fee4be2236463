"""Print the cold-start cost of the package: import time and stdlib modules.

    python tests/import_cost.py

Imports `snakescroll` and `snakescroll.cli` in RUNS (nine) fresh
interpreters under `-X importtime`, with PYTHONPATH set to the
checkout's `src`, after one warm-up run, and prints the median and least
of their summed cumulative times: the time the package's own imports
take, stdlib modules that the interpreter had already loaded excluded.
Then it prints the modules outside the package that such an interpreter
holds beyond a bare one.  Both interpreters start as any process does
(with `site`); where PYTHONDONTWRITEBYTECODE is set, as it says, the
package's bytecode is compiled again in every run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT = "import snakescroll, snakescroll.cli"
MODULES = "import sys; print(' '.join(sorted(sys.modules)))"
RUNS = 9


def run(flags: list[str], code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def import_ms() -> float:
    """The summed cumulative times of the top-level `snakescroll` imports
    of one fresh interpreter, in ms."""
    total = 0
    for line in run(["-X", "importtime"], IMPORT).stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <name>", the name
        # indented by its nesting
        _, cumulative, name = line.split("|")
        if name.startswith(" snakescroll"):
            total += int(cumulative)
    return total / 1000


def main() -> int:
    import_ms()  # warm-up: writes the bytecode cache where that is allowed
    times = sorted(import_ms() for _ in range(RUNS))
    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"Python {sys.version.split()[0]}, bytecode cache {cache}: `{IMPORT}`")
    print(f"import time over {RUNS} interpreters: median {statistics.median(times):.1f} ms, "
          f"least {times[0]:.1f} ms")
    bare = set(run([], MODULES).stdout.split())
    loaded = set(run([], f"{IMPORT}; {MODULES}").stdout.split()) - bare
    added = sorted(m for m in loaded if m.split(".")[0] != "snakescroll")
    print(f"modules beyond a bare interpreter ({len(added)}): {' '.join(added)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
