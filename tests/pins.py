"""Run the pinned CLI results of `tests/pins.json`, by group.

    python tests/pins.py GROUP...

The manifest maps each group name to a list of entries.  Each entry runs
`python -m snakescroll.cli *argv` as a fresh process from the repository
root, with PYTHONPATH=src and COLUMNS=80 (argparse wraps the usage and
help text at the terminal width), and checks what the entry pins:

    exit            the exit code (0 when not pinned)
    total           the sum of N over the `PASS <law>: N checks` lines
    lines           lines each of which stdout must hold exactly
    stdout_sha256   the SHA-256 of stdout
    stderr_sha256   the SHA-256 of stderr
    rss_mib         a bound on the process's peak RSS, in MiB

Stdout is hashed line by line as it streams and stderr is spooled to a
temporary file, so the driver never holds a whole output: a child's peak
RSS starts from the forking process's own, so a large driver would raise
every peak it reads.  The exit code and the peak (`ru_maxrss`, KiB on
Linux) come from `os.wait4`.  Each entry's wall time and peak are
printed, with every check it failed; the exit code is 1 if any failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "pins.json"
CHECKS = ("exit", "total", "lines", "stdout_sha256", "stderr_sha256", "rss_mib")


def _sha256(stream) -> str:
    digest = hashlib.sha256()
    while chunk := stream.read(1 << 16):
        digest.update(chunk)
    return digest.hexdigest()


def run(entry: dict) -> tuple[dict, float]:
    """What the entry's process gave for each check, and its wall time in
    seconds."""
    env = dict(os.environ, PYTHONPATH="src", COLUMNS="80")
    stdout, total = hashlib.sha256(), 0
    wanted, seen = {line.encode() for line in entry.get("lines", ())}, set()
    start = time.perf_counter()
    with tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "snakescroll.cli", *entry["argv"]],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        with proc:
            for line in proc.stdout:
                stdout.update(line)
                if line.startswith(b"PASS"):
                    total += int(line.split()[-2])
                if line.rstrip(b"\n") in wanted:
                    seen.add(line.rstrip(b"\n").decode())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        stderr.seek(0)
        got = {
            "exit": proc.returncode,
            "total": total,
            "lines": seen,
            "stdout_sha256": stdout.hexdigest(),
            "stderr_sha256": _sha256(stderr),
            "rss_mib": usage.ru_maxrss / 1024,
        }
        if proc.returncode != entry.get("exit", 0):
            stderr.seek(0)
            sys.stdout.flush()
            shutil.copyfileobj(stderr, sys.stderr.buffer)
            sys.stderr.flush()
    return got, wall


def failures(entry: dict, got: dict) -> list[str]:
    """One line per check of the entry that its run did not meet."""
    out = []
    for check in CHECKS:
        pinned = entry.get(check, 0 if check == "exit" else None)
        if pinned is None:
            continue
        if check == "rss_mib":
            if got[check] > pinned:
                out.append(f"peak RSS {got[check]:.1f} MiB exceeds {pinned} MiB")
        elif check == "lines":
            out += [f"missing line {line!r}" for line in pinned if line not in got[check]]
        elif got[check] != pinned:
            out.append(f"{check} {got[check]}, pinned {pinned}")
    return out


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description="Run the pinned CLI results by group.")
    parser.add_argument("groups", nargs="+", choices=list(manifest), metavar="GROUP")
    failed = []
    for group in parser.parse_args(argv).groups:
        for entry in manifest[group]:
            got, wall = run(entry)
            faults = failures(entry, got)
            status = "FAIL" if faults else "ok  "
            print(f"{status} {group}: {entry['name']} ({wall:.2f} s, {got['rss_mib']:.1f} MiB)")
            for fault in faults:
                print(f"    {fault}")
            sys.stdout.flush()
            if faults:
                failed.append(entry["name"])
    if failed:
        print(f"{len(failed)} failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
