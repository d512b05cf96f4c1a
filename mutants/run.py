"""Run the recorded mutants of `catalog.py` and report which the tests kill.

    python3 mutants/run.py

Each mutant is applied to its own copy of the repository (without
`.git`) in a temporary directory, and its test subset runs there with
pytest, stopping at the first failure.  A
mutant is killed when pytest exits 1, survives when it exits 0; any other
exit is an error.  The run exits 1 when a mutant recorded as killed
survives, when an equivalent one is killed, or on any error, and 0
otherwise.  It takes no arguments, uses the standard library only and
runs the whole catalog on two workers.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalog import MUTANTS, Mutant  # noqa: E402

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_work")
MAX_JOBS = 2


def run_mutant(mutant: Mutant) -> tuple[str, float, str]:
    """Apply `mutant` in a fresh copy and run its tests: (outcome, seconds,
    pytest's last lines), the outcome "killed", "survived" or "error"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, root, ignore=IGNORED)
        path = os.path.join(root, mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "error", 0.0, f"`old` occurs {text.count(mutant.old)} times in {mutant.file}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        # the copy's own src, whatever the caller's environment points at
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = os.path.join(root, "src")
        started = time.perf_counter()
        # the catalog's own guard fails on any applied mutant, so it cannot judge one
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutant_catalog.py", *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - started
    tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-3:])
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, seconds, tail


def main() -> int:
    bad = 0
    with ThreadPoolExecutor(max_workers=MAX_JOBS) as pool:
        futures = [pool.submit(run_mutant, m) for m in MUTANTS]
        for mutant, future in zip(MUTANTS, futures):
            outcome, seconds, tail = future.result()
            expected = "killed" if mutant.status == "killed" else "survived"
            ok = outcome == expected
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {mutant.id}: {outcome} "
                  f"(recorded {mutant.status}), {seconds:.1f} s", flush=True)
            if not ok:
                print("    " + tail.replace("\n", "\n    "), flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants as recorded")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
