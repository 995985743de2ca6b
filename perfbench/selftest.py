"""Self-test of the benchmark's correctness accounting.

    python3 perfbench/selftest.py

Run from the root of a checkout. Every workload runs at a tiny size, and
the script asserts that:

* clean outputs give wrong_frac = 0 and failed_frac = 0;
* one output value changed in its 7th significant digit (one report
  flipped to passed=false, on default-suite) raises wrong_frac;
* a process that exits nonzero raises failed_frac;
* a process whose output differs from the others of its seed raises
  failed_frac.

Prints one line per workload and exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 7


class SelftestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelftestFailure(message)


def shrink() -> None:
    # at most checks.SAMPLE_ROWS rows, so every row is checked; each point
    # workload keeps at least one row inside a disk
    workloads.PW_GRID_STEPS = (11, 5)
    workloads.HB_POINTS = 60
    workloads.NEAR_ZERO_POINTS = 12


def corrupt(kind: str, path: str) -> None:
    lines = Path(path).read_text().splitlines(keepends=True)
    if kind == "suite":
        lines[1] = lines[1].replace('"passed": true', '"passed": false')
    else:
        cells = lines[2].rstrip("\n").split(",")
        cells[-2:] = (format(float(c) * (1 + 1e-6), ".17g") for c in cells[-2:])
        lines[2] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines))


def fractions(wl, samples) -> tuple[float, float]:
    t = run.tally(wl, samples, SEED)
    return t.wrong / t.checked, t.failed / len(samples)


def selftest_workload(name: str, work: Path, env: dict) -> None:
    wl = workloads.generate(name, SEED)
    config = work / "config.json"
    config.write_text(json.dumps(wl.config))

    clean = [run.run_child(wl, config, work, i, env, False) for i in (1, 2)]
    expect(fractions(wl, clean) == (0.0, 0.0), f"{name}: clean run not clean")

    single = [run.run_child(wl, config, work, 3, env, False)]
    corrupt(wl.kind, single[0].output)
    wrong_frac, _ = fractions(wl, single)
    expect(wrong_frac > 0, f"{name}: corrupted value not detected")

    broken = work / "broken.json"
    broken.write_text(json.dumps({**wl.config, "space": {"family": "none"}, "seed": "x"}))
    failing = clean + [run.run_child(wl, broken, work, 4, env, False)]
    _, failed_frac = fractions(wl, failing)
    expect(failed_frac > 0, f"{name}: nonzero exit not counted")

    divergent = [run.run_child(wl, config, work, i, env, False) for i in (5, 6, 7)]
    corrupt(wl.kind, divergent[2].output)
    divergent[2].digest = run.digest(divergent[2].output)
    _, failed_frac = fractions(wl, divergent)
    expect(failed_frac > 0, f"{name}: divergent output not counted")
    print(f"selftest {name}: ok (corrupted wrong_frac {wrong_frac:.3g})", flush=True)


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "debranges" / "__init__.py").is_file():
        print("run from the root of a debranges checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    shrink()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    try:
        for name in workloads.GENERATORS:
            selftest_workload(name, work, run.child_env(src))
    except SelftestFailure as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
