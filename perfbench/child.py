"""One measured process of the benchmark.

    python3 child.py KIND CONFIG OUTPUT STAMP [TRACE]

KIND `cli` runs the debranges CLI (`debranges.cli.main`) on the JSON
configuration CONFIG and writes its output to OUTPUT. KIND `suite` reads
the seed from CONFIG, runs `run_default_suite(seed)` and writes one JSON
line per report to OUTPUT. The process exits with the CLI's exit code.

STAMP receives the monotonic time at which the configuration was parsed
(the end of set-up) and the process's peak resident memory. With TRACE,
the library's public functions are wrapped before the run and their span
totals are written to TRACE at the end. debranges is imported from
PYTHONPATH, which the caller points at the checkout's `src/`.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    kind, config_path, output_path, stamp_path = argv[:4]
    trace_path = argv[4] if len(argv) > 4 else None

    import debranges
    from debranges import cli

    tracer = None
    if trace_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    stamp = {}
    if kind == "cli":
        load_config = cli.load_config

        def stamped_load_config(path):
            config = load_config(path)
            stamp["parsed"] = time.monotonic()
            return config

        cli.load_config = stamped_load_config
        code = cli.main(["--config", config_path, "--output", output_path])
    else:
        with open(config_path, encoding="utf-8") as handle:
            seed = json.load(handle)["seed"]
        stamp["parsed"] = time.monotonic()
        reports = debranges.run_default_suite(seed)
        with open(output_path, "w", encoding="utf-8", newline="\n") as handle:
            for report in reports:
                handle.write(json.dumps(dataclasses.asdict(report)) + "\n")
        code = 0

    stamp["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stamp_path, "w", encoding="utf-8") as handle:
        json.dump(stamp, handle)
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
