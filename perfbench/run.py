"""End-to-end and per-module benchmark of the debranges CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; debranges is imported from its `src/`.
The seed generates the workload's input (see workloads.py), which is
written to a JSON file under `.perfbench_work/`. Then, in a closed loop
with one client, fresh processes (child.py) run that input one after
another until S seconds have passed: each process imports debranges,
parses the configuration and runs the CLI command (or the default suite),
with BLAS capped at one thread. Each process is one sample.

End-to-end metrics (trace 0), medians over the samples:
  setup_s      launch until debranges is imported and the config is parsed
  run_s        launch until the process has written its output and exited
  work_per_s   points (check reports, on default-suite) per second of
               run_s - setup_s; printed as points_per_s / checks_per_s
  peak_rss_mb  peak resident memory of the process
The three times are wall times scaled to a fixed machine speed with a
reference process run between the samples (see closed_loop); the
unscaled median of run_s is printed too.

Correctness: a seeded sample of rows of one output is recomputed by a
second library route (checks.py); on default-suite every report must
pass. `wrong_frac` is the share of checked values that disagree. A process
fails when it exits nonzero or its output differs byte-wise from the
other processes of the same seed; `failed_frac` is the share that failed.

With trace 1, traced and untraced processes alternate; the traced ones
report span totals of the library's public functions (spans.py), which
give the per-layer metrics, and `python -X importtime` processes split the
import cost. Metric names and units are those of BENCHMARK.json. The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import import_split  # noqa: E402

CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
# Wall time of reference.py on the machine the bounds were set on (2 vCPUs,
# Python 3.11). Times are reported at that machine speed; see closed_loop.
REFERENCE_S = 0.32
BLAS_THREADS = "1"
MIN_SAMPLES = 3
# a process normally takes 1-2 s; these caps keep a hung run under 180 s
CHILD_TIMEOUT_S = 45
OVERTIME_S = 45
IMPORTTIME_REPEATS = 3


@dataclass
class Sample:
    ok: bool
    run_s: float = math.nan
    setup_s: float = math.nan
    rss_mb: float = math.nan
    digest: str = ""
    output: str = ""
    trace: dict = field(default_factory=dict)
    speed: float = 1.0  # REFERENCE_S over the reference time around this sample


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(src)
    return env


def digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_child(wl, config: Path, work: Path, index: int, env: dict, traced: bool) -> Sample:
    output, stamp, trace = (work / f"{stem}{index}" for stem in ("out", "stamp", "trace"))
    argv = [sys.executable, str(CHILD), wl.kind, str(config), str(output), str(stamp)]
    if traced:
        argv.append(str(trace))
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sample {index}: timed out", file=sys.stderr)
        return Sample(False)
    end = time.monotonic()
    if proc.returncode != 0 or not output.is_file() or not stamp.is_file():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        print(f"sample {index}: exit {proc.returncode}: {' | '.join(tail)}", file=sys.stderr)
        return Sample(False)
    info = json.loads(stamp.read_text())
    sample = Sample(
        True,
        run_s=end - start,
        setup_s=info["parsed"] - start,
        rss_mb=info["maxrss_kb"] / 1024.0,
        digest=digest(str(output)),
        output=str(output),
    )
    if traced:
        sample.trace = json.loads(trace.read_text())
    return sample


def time_reference(env: dict) -> float:
    start = time.monotonic()
    subprocess.run([sys.executable, str(REFERENCE)], env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return time.monotonic() - start


def closed_loop(wl, config: Path, work: Path, env: dict, seconds: float, trace: bool) -> list[Sample]:
    """Fresh processes one after another until `seconds` have passed.

    The speed of a shared machine drifts by 10-30% over tens of seconds,
    and that drift moves every process alike. So a reference process
    (reference.py) runs before each measured process and after the last,
    and each sample's times are scaled by REFERENCE_S over the mean of the
    two reference times around it: times read as on the machine where
    reference.py takes REFERENCE_S.
    """
    run_child(wl, config, work, 0, env, False)  # warm-up: bytecode cache, file cache
    samples: list[Sample] = []
    refs = [time_reference(env)]
    start = time.monotonic()
    wanted = MIN_SAMPLES * (2 if trace else 1)
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (len(samples) >= wanted or elapsed >= seconds + OVERTIME_S):
            break
        samples.append(run_child(wl, config, work, len(samples) + 1, env, trace and len(samples) % 2 == 1))
        refs.append(time_reference(env))
    for i, sample in enumerate(samples):
        sample.speed = REFERENCE_S / (0.5 * (refs[i] + refs[i + 1]))
    return samples


@dataclass
class Tally:
    checked: int
    wrong: int
    failed: int
    inside: int  # output rows with z or w inside a de-singularization disk
    rows: int


def tally(wl, samples: list[Sample], seed: int) -> Tally:
    """Fail every sample whose output differs from the most common one, then
    check a sample of that common output against a second route."""
    digests = Counter(s.digest for s in samples if s.ok)
    checked = wrong = inside = rows = 0
    if digests:
        reference = digests.most_common(1)[0][0]
        for s in samples:
            if s.ok and s.digest != reference:
                print(f"output {s.output} differs from the other processes of this seed", file=sys.stderr)
                s.ok = False
        first = next(s for s in samples if s.ok)
        checked, wrong, inside, rows = checks.check_output(wl.kind, wl.config, first.output, seed)
    return Tally(checked, wrong, sum(not s.ok for s in samples), inside, rows)


def percentile_note(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return f"max {max(values):.6g} (too few samples for a tail percentile)"


def per_layer_values(wl, t: Tally, traced: list[Sample], plain: list[Sample], env: dict) -> dict:
    """Per-layer metrics: medians over the traced processes of their span totals."""
    values: dict[str, float] = {}
    for name in {n for s in traced for n in s.trace["totals"]}:
        calls = statistics.median(s.trace["totals"].get(name, [0, 0.0])[0] for s in traced)
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = statistics.median(s.trace["totals"].get(name, [0, 0.0])[1] for s in traced)
        values[f"{name}.per_point"] = calls / wl.points if wl.points else 0.0
    hits = statistics.median(s.trace["counters"].get("sigma.local_group.hits", 0) for s in traced)
    values["sigma.local_group.hits"] = hits
    lookups = values.get("sigma.local_group.calls", 0)
    values["sigma.local_group.hit_share"] = hits / lookups if lookups else 0.0
    values["gram.condition_estimate.max"] = max(
        s.trace["counters"].get("gram.condition_estimate.max", 0.0) for s in traced
    )
    if wl.kind == "suite":
        values["verify.reports"] = t.checked
        values["verify.failed"] = t.wrong
    else:
        values["cli.output_bytes"] = os.path.getsize(traced[0].output)
    values["trace.overhead_frac"] = (
        statistics.median(s.run_s for s in traced) / statistics.median(s.run_s for s in plain) - 1.0
    )
    splits = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import debranges.cli"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=True)
        splits.append(import_split(proc.stderr.decode()))
    for key in splits[0]:
        values[key] = statistics.median(split[key] for split in splits)
    return values


def package_version(name: str) -> str:
    try:
        return version(name)
    except PackageNotFoundError:
        return "not installed"


def environment(root: Path) -> dict:
    commit = ""
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip()
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
    }


def end_to_end_samples(wl, t: Tally, plain: list[Sample]) -> dict[str, list[float]]:
    work_items = t.checked if wl.kind == "suite" else wl.points
    return {
        "setup_s": [s.setup_s * s.speed for s in plain],
        "run_s": [s.run_s * s.speed for s in plain],
        "work_per_s": [work_items / ((s.run_s - s.setup_s) * s.speed) for s in plain],
        "peak_rss_mb": [s.rss_mb for s in plain],
    }


def report(wl, seed: int, spec: dict, samples: list[Sample], t: Tally, trace: bool, env: dict) -> dict:
    """Print the human-readable summary; return the metrics of the JSON result."""
    good = [s for s in samples if s.ok]
    plain = [s for s in good if not s.trace]
    traced = [s for s in good if s.trace]
    print(f"workload {wl.name} seed {seed}: {len(samples)} processes in a closed loop, one client")
    if wl.kind == "cli" and t.rows:
        print(f"points inside a de-singularization disk: {t.inside}/{t.rows} ({100.0 * t.inside / t.rows:.3g}%)")
    print(f"wrong_frac = {t.wrong / t.checked if t.checked else 1.0:.6g} ratio ({t.wrong}/{t.checked} checked values)")
    print(f"failed_frac = {t.failed / len(samples):.6g} ratio ({t.failed}/{len(samples)} processes)")
    if not plain or (trace and not traced):
        return {}

    print(f"machine speed: reference process {statistics.median(REFERENCE_S / s.speed for s in plain):.4g} s "
          f"median (times below are scaled to {REFERENCE_S} s); unscaled run_s "
          f"{statistics.median(s.run_s for s in plain):.6g} s median")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_sample = end_to_end_samples(wl, t, plain)
    alias = {"work_per_s": "checks_per_s" if wl.kind == "suite" else "points_per_s"}
    for name, unit in units.items():
        values = per_sample[name]
        label = f"{name} ({alias[name]})" if name in alias else name
        print(f"{label} = {statistics.median(values):.6g} {unit} median, "
              f"{percentile_note(values)}, n = {len(values)}")
    if not trace:
        return {name: {"value": statistics.median(per_sample[name]), "unit": unit}
                for name, unit in units.items()}

    layer = per_layer_values(wl, t, traced, plain, env)
    metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "debranges" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a debranges checkout (src/debranges and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import debranges

    if Path(debranges.__file__).resolve().parent != (src / "debranges").resolve():
        print(f"imported debranges from {debranges.__file__}, not from {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    print("environment " + json.dumps(environment(root)))

    wl = workloads.generate(args.workload, args.seed)
    env = child_env(src)
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(wl.config))
        samples = closed_loop(wl, config, work, env, args.seconds, bool(args.trace))
        t = tally(wl, samples, args.seed)
        metrics = report(wl, args.seed, spec, samples, t, bool(args.trace), env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": t.checked > 0 and t.wrong == 0, "attempted": len(samples),
              "failed": t.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
