"""Command-line front end.

Reads a JSON run configuration, executes one command and writes CSV or
structured-text output. Complex numbers in the configuration are
two-element arrays [re, im].

Commands:
  kernel      evaluate the derived-space kernel K_z(w) on a grid / point list
  structure   evaluate the derived structure function on a grid / point list
  verify      run the identity checks for the configured space and zeros
  pw-example  run the sinc-kernel determinant identities

Exit codes: 0 success / all checks passed, 1 verification failure,
2 configuration error (also an unreadable config or an unwritable
output), 3 numerical breakdown (dependent evaluators),
4 range error (a value overflows the double range; the library raises
RangeError for any kernel or structure value past it, and nothing is
written).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

from ._record import Record
from .errors import ConfigError, DeBrangesError, DomainError, LinearDependenceError, RangeError
from .kernels import PaleyWiener, PolynomialHB, StructureFunction
from .sigma import ZeroSequence, canonicalize
from .structure import derive
from .gram import build

# `verify` is imported by the code that uses it (tolerance keys, the verify and
# pw-example commands, --list-checks), so a kernel or structure run never loads it

# the documented keys of each configuration object; any other key is a configuration error.
# At the top level every command reads COMMON_KEYS and its own keys below, and no other.
COMMON_KEYS = ("command", "space", "sigma", "output")
COMMAND_KEYS = {
    "kernel": ("z", "grid", "eval_points"),
    "structure": ("grid", "eval_points"),
    "verify": ("seed", "tolerances"),
    "pw-example": ("eval_points", "tolerances"),
}
COMMANDS = tuple(COMMAND_KEYS)
FORMATS = ("csv", "structured-text")
SPACE_KEYS = {"paley-wiener": ("family", "x"), "polynomial-hb": ("family", "roots")}
GRID_KEYS = ("re_min", "re_max", "re_steps", "im_min", "im_max", "im_steps")
OUTPUT_KEYS = ("path", "format")


class RunConfig(Record):
    """One parsed configuration; `main` overrides its out_path and seed from the command line."""

    space: StructureFunction
    sigma: ZeroSequence
    command: str
    grid: dict | None
    eval_points: list[complex] | None
    kernel_z: complex
    seed: int
    tolerances: dict
    out_path: str
    out_format: str

    def __init__(
        self, space, sigma, command, grid=None, eval_points=None, kernel_z=0j, seed=0, tolerances=None,
        out_path="", out_format="",
    ):
        # each configuration gets its own tolerances dict
        tolerances = {} if tolerances is None else tolerances
        self._set(space, sigma, command, grid, eval_points, kernel_z, seed, tolerances, out_path, out_format)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _require(cond: bool, fld: str, message: str) -> None:
    if not cond:
        raise ConfigError(fld, message)


def _known_keys(prefix: str, raw: dict, keys: tuple[str, ...], of: str = "") -> None:
    """ConfigError naming the first key of raw that is not one of keys.

    prefix names raw's field, and `of` what the keys belong to, if not raw itself.
    """
    for key in raw:
        _require(
            key in keys, prefix + key, f"is not a configuration key{of} (the keys are {', '.join(keys)})"
        )


def _number(fld: str, value, message: str, finite_message: str = "") -> float:
    """A JSON number as a finite float.

    A bool or a non-number raises ConfigError(fld, message); a number past
    the double range (NaN, Infinity or an integer too large for a float)
    raises it with finite_message, if given.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(fld, message)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(fld, finite_message or message)
    return number


def _seed(fld: str, value) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**64,
        fld,
        "must be an unsigned 64-bit integer",
    )
    return value


def _as_complex(fld: str, value) -> complex:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        fld,
        "complex numbers are two-element arrays [re, im]",
    )
    re, im = value
    numbers, finite = "re and im must be numbers", "re and im must be finite"
    return complex(_number(fld, re, numbers, finite), _number(fld, im, numbers, finite))


def _complex_array(fld: str, value, message: str, allow_empty: bool = False) -> list[complex]:
    """A JSON array of [re, im] pairs as complex numbers.

    Anything but an array, or an empty one unless allowed, raises ConfigError(fld, message).
    """
    _require(isinstance(value, list) and (allow_empty or value), fld, message)
    points = []
    for i, v in enumerate(value):
        # the common [float, float] directly; anything else gets _as_complex's checks and messages
        if type(v) is list and len(v) == 2:
            re, im = v
            if type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im):
                points.append(complex(re, im))
                continue
        points.append(_as_complex(f"{fld}[{i}]", v))
    return points


def _parse_space(raw) -> StructureFunction:
    _require(isinstance(raw, dict), "space", "must be an object")
    family = raw.get("family")
    _require(
        isinstance(family, str) and family in SPACE_KEYS,
        "space.family", "must be 'paley-wiener' or 'polynomial-hb'",
    )
    _known_keys("space.", raw, SPACE_KEYS[family])
    if family == "paley-wiener":
        _require("x" in raw, "space.x", "missing exponential type")
        x = _number(
            "space.x", raw["x"], "must be a positive number",
            "exponential type x must be a positive finite real",
        )
        _require(x > 0, "space.x", "must be a positive number")
        return PaleyWiener(x)
    roots = _complex_array("space.roots", raw.get("roots"), "must be a non-empty array")
    try:
        return PolynomialHB(tuple(roots))
    except ValueError as exc:
        raise ConfigError("space.roots", str(exc)) from None


def _parse_grid(raw) -> dict:
    _require(isinstance(raw, dict), "grid", "must be an object")
    _known_keys("grid.", raw, GRID_KEYS)
    for key in GRID_KEYS:
        _require(key in raw, f"grid.{key}", "missing")
    grid = {}
    for key in ("re_min", "re_max", "im_min", "im_max"):
        grid[key] = _number(f"grid.{key}", raw[key], "must be a finite number")
    for key in ("re_steps", "im_steps"):
        val = raw[key]
        _require(isinstance(val, int) and not isinstance(val, bool) and val >= 1,
                 f"grid.{key}", "must be an integer >= 1")
        grid[key] = val
    _require(grid["re_min"] <= grid["re_max"], "grid.re_min", "re_min must not exceed re_max")
    _require(grid["im_min"] <= grid["im_max"], "grid.im_min", "im_min must not exceed im_max")
    return grid


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path} is not UTF-8: {exc}") from None
    except (RecursionError, ValueError) as exc:  # JSONDecodeError, or nesting or digits past Python's limits
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config", "top level must be an object")

    command = raw.get("command")
    _require(command in COMMANDS, "command", f"must be one of {', '.join(COMMANDS)}")
    _known_keys("", raw, COMMON_KEYS + COMMAND_KEYS[command], f" of the {command} command")

    space = _parse_space(raw.get("space"))

    sigma_raw = raw.get("sigma", [])
    sigma = canonicalize(
        _complex_array("sigma", sigma_raw, "must be an array of [re, im] pairs", allow_empty=True)
    )

    grid = _parse_grid(raw["grid"]) if "grid" in raw and raw["grid"] is not None else None
    pts_raw = raw.get("eval_points")
    eval_points = None
    if pts_raw is not None:
        eval_points = _complex_array("eval_points", pts_raw, "must be a non-empty array")

    if command in ("kernel", "structure"):
        _require(
            (grid is None) != (eval_points is None),
            "grid",
            f"the {command} command requires exactly one of grid / eval_points",
        )

    kernel_z = _as_complex("z", raw["z"]) if "z" in raw else 0j

    seed = _seed("seed", raw.get("seed", 0))

    tolerances_raw = raw.get("tolerances", {})
    _require(isinstance(tolerances_raw, dict), "tolerances", "must be an object")
    tolerances = {}
    if tolerances_raw:
        from .verify import CHECKS
    for key, val in tolerances_raw.items():
        fld = f"tolerances.{key}"
        _require(key in CHECKS, fld, "is not a check identifier (see --list-checks)")
        tolerances[key] = _number(fld, val, "must be a nonnegative number")
        _require(tolerances[key] >= 0, fld, "must be a nonnegative number")

    out_raw = raw.get("output", {})
    _require(isinstance(out_raw, dict), "output", "must be an object")
    _known_keys("output.", out_raw, OUTPUT_KEYS)
    out_path = out_raw.get("path", "")
    _require(isinstance(out_path, str), "output.path", "must be a string")
    default_format = "csv" if command in ("kernel", "structure") else "structured-text"
    out_format = out_raw.get("format", default_format)
    _require(out_format in FORMATS, "output.format", f"must be one of {', '.join(FORMATS)}")

    return RunConfig(
        space=space, sigma=sigma, command=command, grid=grid, eval_points=eval_points, kernel_z=kernel_z,
        seed=seed, tolerances=tolerances, out_path=out_path, out_format=out_format,
    )


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced points from start to stop, equal bit for bit to numpy.linspace.

    start + i * step, with the last point set to stop; a step that
    underflows to zero is taken as (i / (num - 1)) * (stop - start).
    """
    div = num - 1
    delta = stop - start
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _grid_points(grid: dict) -> list[complex]:
    res = _linspace(grid["re_min"], grid["re_max"], grid["re_steps"])
    ims = _linspace(grid["im_min"], grid["im_max"], grid["im_steps"])
    # deterministic order: imaginary rows outer, real part fastest
    return [complex(re, im) for im in ims for re in res]


def _value_lines(
    header: list[str], rows: list[tuple[float, ...]], fmt: str, lead: tuple[float, ...] = ()
) -> str:
    """The header and one line of "%.17g" values per row, each row led by the constant `lead`.

    The lead columns are formatted once, into the row format itself.
    """
    sep = "," if fmt == "csv" else "  "
    # a formatted float holds no "%", so the formatted lead is a literal of the row format
    row_format = sep.join(["%.17g" % v for v in lead] + ["%.17g"] * (len(header) - len(lead)))
    lines = [sep.join(header)]
    lines.extend(row_format % row for row in rows)
    return "\n".join(lines) + "\n"


def _report_lines(reports: list, fmt: str) -> str:
    """The `verify.CheckReport`s, one line each, then the PASS or FAIL tally."""
    passed = sum(1 for r in reports if r.passed)
    total = len(reports)
    summary = f"PASS {passed}/{total}" if passed == total else f"FAIL {total - passed}/{total}"
    if fmt == "csv":
        lines = ["check_id,samples,max_rel_residual,tolerance,condition_estimate,passed,note"]
        for r in reports:
            note = r.note.replace('"', "'")
            lines.append(
                f'{r.check_id},{r.samples},{_fmt(r.max_rel_residual)},{_fmt(r.tolerance)},'
                f'{_fmt(r.condition_estimate)},{str(r.passed).lower()},"{note}"'
            )
    else:
        lines = []
        for r in reports:
            lines.append(
                f"check={r.check_id} samples={r.samples} "
                f"max_rel_residual={_fmt(r.max_rel_residual)} tolerance={_fmt(r.tolerance)} "
                f"condition_estimate={_fmt(r.condition_estimate)} passed={str(r.passed).lower()}"
                + (f" note={r.note!r}" if r.note else "")
            )
    lines.append(summary)
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError("output.path", f"cannot write {path}: {exc}") from None
    else:
        sys.stdout.write(text)


def run(config: RunConfig) -> int:
    """Execute one parsed configuration; returns the process exit code.

    A value that overflows the double range, in any command, raises
    RangeError before anything is written: kernel and structure values
    raise it from the library, and an OverflowError in a check's own
    arithmetic is turned into it here.
    """
    try:
        return _run(config)
    except OverflowError as exc:
        raise RangeError(f"a {config.command} value overflows: {exc}") from None


def _run(config: RunConfig) -> int:
    if config.command in ("kernel", "structure"):
        points = config.eval_points if config.eval_points is not None else _grid_points(config.grid)
        gs = build(config.space, config.sigma)
        if config.command == "kernel":
            z = config.kernel_z
            fn, lead, lead_header = gs.kernel_row(z), (z.real, z.imag), ["re_z", "im_z"]
        else:
            ssf = derive(gs)
            fn, lead, lead_header = (lambda w: ssf.eval("E", w)), (), []
        values = [fn(w) for w in points]
        rows = [(w.real, w.imag, v.real, v.imag) for w, v in zip(points, values)]
        header = [*lead_header, "re_w", "im_w", "re_val", "im_val"]
        _write(config.out_path, _value_lines(header, rows, config.out_format, lead))
        return 0

    from .verify import PW_EXAMPLE_SAMPLES, check_pw_example, run_config_checks

    if config.command == "verify":
        reports = run_config_checks(
            config.space, config.sigma, seed=config.seed, tolerances=config.tolerances
        )
    else:  # pw-example
        if not isinstance(config.space, PaleyWiener):
            raise ConfigError("space.family", "the pw-example command requires the paley-wiener family")
        if any(k != 0 for k in config.sigma.confluence):
            raise ConfigError("sigma", "the pw-example command requires distinct zeros")
        samples = config.eval_points if config.eval_points else list(PW_EXAMPLE_SAMPLES)
        try:
            reports = check_pw_example(config.space.x, config.sigma.points, samples, config.tolerances)
        except DomainError as exc:
            raise ConfigError("eval_points", str(exc)) from None
    _write(config.out_path, _report_lines(reports, config.out_format))
    return 0 if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    """The process entry (the `debranges` script, `python -m debranges`); returns the exit code.

    It freezes every object alive at its start for the rest of the
    process (`gc.freeze`); the library functions leave the collector alone.
    """
    gc.freeze()  # finalization would otherwise run full collections over the import-time heap
    parser = argparse.ArgumentParser(
        prog="debranges",
        description="Kernels and derived structure functions for spaces of "
        "entire functions with imposed zeros.",
    )
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--output", help="output path, overrides the configuration")
    parser.add_argument("--seed", type=int, help="verify's sampling seed, overrides the configuration")
    parser.add_argument(
        "--list-checks", action="store_true", help="print the check identifiers and exit"
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        from .verify import CHECKS

        for check_id, (description, _) in CHECKS.items():
            print(f"{check_id}: {description}")
        return 0

    try:
        if not args.config:
            raise ConfigError("--config", "a configuration file is required")
        config = load_config(args.config)
        if args.output is not None:
            config.out_path = args.output
        if args.seed is not None:
            command = config.command
            _require("seed" in COMMAND_KEYS[command], "--seed", f"the {command} command reads no seed")
            config.seed = _seed("--seed", args.seed)
        return run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LinearDependenceError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except RangeError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return 4
    except DeBrangesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
