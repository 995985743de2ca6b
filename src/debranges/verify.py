"""Floating-point verification of the library's identities.

Every check samples seeded points from `random.Random(seed)`, the standard
library's Mersenne Twister (Matsumoto & Nishimura, ACM TOMACS 8, 1998), for
a non-negative integer seed. It draws only through `random()`, whose output
Python keeps across versions, and the arithmetic adds floats without the
builtin `sum` (compensated since Python 3.12), so reports are
bit-reproducible for a given seed on Python 3.10 to 3.13. Each check
measures the worst relative residual of one identity and reports it
against a base tolerance scaled linearly with the Gram condition estimate
(floored at the base). A NaN residual never passes.
"""

from __future__ import annotations

import math
import operator
import os
import random
import sys
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace

from .errors import DomainError
from .gram import _span, bordered_det, build
from .kernels import PaleyWiener, PolynomialHB, StructureFunction
from .sigma import ZeroSequence, canonicalize
from .structure import SigmaStructureFunction, derive

DIAGONAL_MARGIN = 1e-3
SAMPLE_RADIUS = 3.0
_Uniform = Callable[[float, float], float]  # (lo, hi) -> a uniform draw between lo and hi

# check id -> (description printed by --list-checks, base tolerance); the
# one place a base lives, overridden per id by a `tolerances` mapping
CHECKS = {
    "theorem2": ("derived kernel equals the structure-function quotient form", 1e-8),
    "n1-star": ("single-zero derived F equals the closed single-zero remainder of Estar", 1e-10),
    "n1-evaluator": ("single-zero boundary-data combination reproduces the evaluator", 1e-10),
    "n1-kernel": ("single-zero bordered determinant equals the quotient form", 1e-10),
    "pw-det-diag": ("sinc-kernel determinant diagonal identity", 1e-9),
    "pw-det-star": ("sinc-kernel determinant reflection identity", 1e-9),
    "hb-inheritance": ("derived structure function keeps a positive half-plane margin", 0.0),
    "projection": ("projection residual vanishes on the sequence; routes agree", 1e-9),
}


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    samples: int
    max_rel_residual: float
    tolerance: float
    condition_estimate: float
    passed: bool
    note: str = ""


def _report(
    check_id: str,
    samples: int,
    residual: float,
    tolerance: float,
    condition_estimate: float,
    note: str = "",
) -> CheckReport:
    residual = float(residual)
    tolerance = float(tolerance)
    passed = bool(residual <= tolerance)  # NaN compares False and fails
    return CheckReport(check_id, samples, residual, tolerance, float(condition_estimate), passed, note)


def base_tolerance(check_id: str, overrides: dict | None = None) -> float:
    """The base tolerance of one check id: its override if given, else its CHECKS entry."""
    if overrides and check_id in overrides:
        return float(overrides[check_id])
    return CHECKS[check_id][1]


def _reject_unknown_keys(tolerances: dict | None) -> None:
    """DomainError for a key of a `tolerances` mapping that names no check in CHECKS."""
    for key in tolerances or ():
        if key not in CHECKS:
            raise DomainError(f"unknown tolerance key {key!r}; the check ids are {', '.join(CHECKS)}")


def _scaled_report(
    check_id: str,
    samples: int,
    residual: float,
    tolerances: dict | None,
    condition_estimate: float,
    note: str = "",
) -> CheckReport:
    """The report of check_id, whose base tolerance scales linearly with the condition estimate."""
    tol = base_tolerance(check_id, tolerances) * max(1.0, condition_estimate / 1e4)
    return _report(check_id, samples, residual, tol, condition_estimate, note)


def _checked_seed(seed: int) -> int:
    """The sampling seed as an int: TypeError for a float or a string, ValueError if negative."""
    seed = operator.index(seed)
    if seed < 0:  # Random would seed it as its absolute value
        raise ValueError(f"the sampling seed must be a non-negative integer, got {seed}")
    return seed


def _check_count(count: int) -> None:
    """ValueError for a sample count below 1: the check would sample nothing and pass."""
    if operator.index(count) < 1:
        raise ValueError(f"the sample count must be at least 1, got {count}")


def _uniforms(seed: int) -> _Uniform:
    """uniform(lo, hi) = lo + (hi - lo) * random(): Python does not promise `Random.uniform`'s code."""
    draw = random.Random(_checked_seed(seed)).random
    return lambda lo, hi: lo + (hi - lo) * draw()


def _sample_point(uniform: _Uniform) -> complex:
    r = SAMPLE_RADIUS
    while True:
        re, im = uniform(-r, r), uniform(-r, r)
        if re * re + im * im <= r * r:
            return complex(re, im)


def _sample_pair(uniform: _Uniform, avoid: ZeroSequence | None = None) -> tuple[complex, complex]:
    """z, w off the diagonal w = conj(z) and, given `avoid`, both outside its disks."""
    while True:
        z = _sample_point(uniform)
        w = _sample_point(uniform)
        if abs(z.conjugate() - w) < DIAGONAL_MARGIN:
            continue
        if avoid is not None and (avoid.local_group(z) or avoid.local_group(w)):
            continue
        return z, w


def _rel(diff: complex, scale: complex) -> float:
    return abs(diff) / max(1.0, abs(scale))


def _quotient(
    ssf: SigmaStructureFunction, z: complex, w: complex, ew: complex, fw: complex
) -> complex:
    """(conj E(z) E(w) - conj F(z) F(w)) / (i (conj z - w)) of the derived pair, given E(w), F(w)."""
    ez, fz = ssf.eval("E", z), ssf.eval("F", z)
    return (ez.conjugate() * ew - fz.conjugate() * fw) / (1j * (z.conjugate() - w))


def check_theorem2(
    space: StructureFunction,
    zeros: ZeroSequence,
    sample_count: int = 200,
    seed: int = 0,
    tolerances: dict | None = None,
) -> CheckReport:
    """Derived kernel against the quotient built from the derived E and F."""
    _reject_unknown_keys(tolerances)
    _check_count(sample_count)
    gs = build(space, zeros)
    ssf = derive(gs)
    uniform = _uniforms(seed)
    worst = 0.0
    for _ in range(sample_count):
        z, w = _sample_pair(uniform)
        lhs = gs.sigma_kernel(z, w)
        rhs = _quotient(ssf, z, w, ssf.eval("E", w), ssf.eval("F", w))
        worst = max(worst, _rel(lhs - rhs, lhs))
    return _scaled_report("theorem2", sample_count, worst, tolerances, gs.condition_estimate)


def check_n1_identities(
    space: StructureFunction,
    z1: complex,
    sample_count: int = 50,
    seed: int = 0,
    tolerances: dict | None = None,
) -> list[CheckReport]:
    """The three exact single-zero identities, sampled pointwise."""
    _reject_unknown_keys(tolerances)
    _check_count(sample_count)
    z1 = complex(z1)
    zeros = canonicalize([z1])
    gs = build(space, zeros)
    ssf = derive(gs)
    e1 = space.eval_E(z1)
    f1 = space.eval_E_star(z1)
    g11 = gs.rows[0][0]
    z1_and_conj = canonicalize([z1, z1.conjugate()])
    uniform = _uniforms(seed)

    worst_star = 0.0
    worst_eval = 0.0
    worst_det = 0.0
    for _ in range(sample_count):
        z, w = _sample_pair(uniform, z1_and_conj)
        ew, fw = ssf.eval("E", w), ssf.eval("F", w)
        z1w = space.kernel(z1, w)
        # the reflected derived E against the closed single-zero remainder of Estar
        star = (space.eval_E_star(w) - f1 / g11 * z1w) / (w - z1)
        worst_star = max(worst_star, _rel(fw - star, fw))
        # boundary-data combination reproduces the evaluator
        worst_eval = max(
            worst_eval, _rel(e1.conjugate() * ew - f1.conjugate() * fw + 1j * z1w, z1w)
        )
        # bordered 2x2 determinant equals the quotient of the derived forms
        lhs = gs.sigma_kernel_det(z, w)
        rhs = _quotient(ssf, z, w, ew, fw)
        worst_det = max(worst_det, _rel(lhs - rhs, rhs))

    return [
        _scaled_report(check_id, sample_count, worst, tolerances, gs.condition_estimate)
        for check_id, worst in (
            ("n1-star", worst_star), ("n1-evaluator", worst_eval), ("n1-kernel", worst_det)
        )
    ]


def check_pw_example(
    x: float,
    zeros: Sequence[complex],
    z_samples: Sequence[complex],
    tolerances: dict | None = None,
) -> list[CheckReport]:
    """Determinant identities of the sinc-kernel family.

    The evaluator Gram matrix, its determinant and its condition estimate
    come from `build`, so numerically dependent zeros raise
    LinearDependenceError as in every other check. Bordered by the
    diagonal kernel and by the two structure functions, it gives the
    determinants of the diagonal identity and the reflection identity,
    which are verified at each z sample. The reflection
    identity is tested under both conjugation readings (conjugating the
    whole reflected determinant value versus not conjugating it) and the
    note records which reading holds.
    """
    _reject_unknown_keys(tolerances)
    space = PaleyWiener(x)
    pts = [complex(p) for p in zeros]
    if len(set(pts)) != len(pts):
        raise DomainError("determinant example requires distinct zeros")
    samples = [complex(z) for z in z_samples]
    if not samples:
        raise DomainError("at least one z sample is required")
    forbidden = set(pts) | {p.conjugate() for p in pts}
    for z in samples:
        if z.imag == 0:
            raise DomainError("z samples must be non-real")
        if z in forbidden:
            raise DomainError("z samples must avoid the zeros and their conjugates")

    gs = build(space, canonicalize(pts))
    a, gn = gs.rows, gs.det
    e_col = [space.eval_E(p) for p in pts]
    f_col = [space.eval_E_star(p) for p in pts]

    def det_e(at: complex) -> complex:
        return bordered_det(a, e_col, [space.kernel(zj, at) for zj in pts], space.eval_E(at))

    def det_f(at: complex) -> complex:
        return bordered_det(a, f_col, [space.kernel(zj, at) for zj in pts], space.eval_E_star(at))

    worst_diag = 0.0
    worst_conj = 0.0
    worst_bare = 0.0
    for z in samples:
        row = [space.kernel(zj, z) for zj in pts]
        col = [space.kernel(z, zi) for zi in pts]
        gzz = bordered_det(a, col, row, space.kernel(z, z))
        ez = det_e(z)
        fz = det_f(z)
        lhs = gzz * gn
        rhs = (abs(ez) ** 2 - abs(fz) ** 2) / (2.0 * z.imag)
        worst_diag = max(worst_diag, _rel(lhs - rhs, lhs))

        blaschke = 1.0 + 0j
        for p in pts:
            blaschke *= (z - p) / (z - p.conjugate())
        reflected = det_e(z.conjugate())
        worst_conj = max(worst_conj, _rel(fz - blaschke * reflected.conjugate(), fz))
        worst_bare = max(worst_bare, _rel(fz - blaschke * reflected, fz))

    if worst_conj <= worst_bare:
        star_worst = worst_conj
        note = (
            "conjugated reading holds: reflection determinant enters as "
            f"conj(value at conj(z)) (residual {worst_conj:.3e}); "
            f"unconjugated reading residual {worst_bare:.3e}"
        )
    else:
        star_worst = worst_bare
        note = (
            "unconjugated reading holds: reflection determinant enters as "
            f"plain value at conj(z) (residual {worst_bare:.3e}); "
            f"conjugated reading residual {worst_conj:.3e}"
        )
    return [
        _scaled_report("pw-det-diag", len(samples), worst_diag, tolerances, gs.condition_estimate),
        _scaled_report("pw-det-star", len(samples), star_worst, tolerances, gs.condition_estimate, note),
    ]


def check_hb_inheritance(
    space: StructureFunction,
    zeros: ZeroSequence,
    sample_count: int = 100,
    seed: int = 0,
    tolerances: dict | None = None,
) -> CheckReport:
    """Strict positivity of |E(z)|^2 - |F(z)|^2 for the derived pair; its tolerance is not scaled."""
    _reject_unknown_keys(tolerances)
    _check_count(sample_count)
    gs = build(space, zeros)
    ssf = derive(gs)
    uniform = _uniforms(seed)
    min_margin = math.inf
    for _ in range(sample_count):
        z = complex(uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS), uniform(0.05, SAMPLE_RADIUS))
        ev = ssf.eval("E", z)
        fv = ssf.eval("F", z)
        min_margin = min(min_margin, abs(ev) ** 2 - abs(fv) ** 2)
    note = f"min margin {min_margin:.6e} over Im(z) > 0 samples"
    return _report(
        "hb-inheritance",
        sample_count,
        -min_margin,
        base_tolerance("hb-inheritance", tolerances),
        gs.condition_estimate,
        note,
    )


def check_projection(
    space: StructureFunction,
    zeros: ZeroSequence,
    z: complex,
    sample: int = 50,
    seed: int = 0,
    tolerances: dict | None = None,
) -> CheckReport:
    """Projection-residual orthogonality plus solve/determinant agreement.

    z must lie outside every de-singularization disk of the zeros
    (`ZeroSequence.local_group`), where the determinant route is an
    independent check of the solve; the samples w are drawn outside them too.
    The orthogonality is read from the projection residual of Z_z, the
    checked `combination` of Z_z and the span over `solve_beta(z)`; on a
    space that is not of polynomials that fit is the row's own.

    The route agreement is 0 by construction at n = 0, where neither row
    fits anything and both read Z_z (on HB the same Bezoutian polynomial),
    and on a space of polynomials at n = d, where both rows' quotients are
    the empty polynomial. So the suite's `projection` ids at n0 (pw-x0.5,
    pw-x1, pw-x2, hb-deg1, hb-deg3) and at hb-deg1:n1, hb-deg3:n3 and
    hb-deg3:n3-double test orthogonality alone, until Theorem 2 is checked
    as a matrix identity (ROADMAP).
    """
    _reject_unknown_keys(tolerances)
    _check_count(sample)
    z = complex(z)
    if zeros.local_group(z) is not None:
        raise DomainError("projection check requires z outside the disks of the zeros")
    gs = build(space, zeros)
    pts, ks = zeros.points, zeros.confluence
    row = gs.kernel_row(z)
    rhs = [space.kernel_mixed_partial(k, 0, z, p) for p, k in zip(pts, ks)]
    scale = max(math.hypot(*(part for v in rhs for part in (v.real, v.imag))), 1e-300)
    # the projection residual of Z_z, which the constraints make vanish on the zeros
    residual = space.combination(0, [(1.0, 0, z), *_span(zeros, gs.solve_beta(z))])
    worst_orth = max((abs(residual(p, k)) / scale for p, k in zip(pts, ks)), default=0.0)

    det_row = gs.det_row(z)
    uniform = _uniforms(seed)
    worst_route = 0.0
    for _ in range(sample):
        _, w = _sample_pair(uniform, zeros)
        via_solve = row(w)
        via_det = det_row(w)
        worst_route = max(worst_route, _rel(via_det - via_solve, via_solve))

    return _scaled_report(
        "projection",
        sample,
        max(worst_orth, worst_route),
        tolerances,
        gs.condition_estimate,
        f"orthogonality {worst_orth:.3e}, route agreement {worst_route:.3e}",
    )


# ----------------------------------------------------------------------
# default suite
# ----------------------------------------------------------------------

DEFAULT_SPACES: tuple[tuple[str, StructureFunction], ...] = (
    ("pw-x0.5", PaleyWiener(0.5)),
    ("pw-x1", PaleyWiener(1.0)),
    ("pw-x2", PaleyWiener(2.0)),
    ("hb-deg1", PolynomialHB((-1j,))),
    ("hb-deg3", PolynomialHB((-1j, 1 - 1j, -1 - 2j))),
)

DEFAULT_SIGMAS: tuple[tuple[str, tuple[complex, ...]], ...] = (
    ("n0", ()),
    ("n1", (1j,)),
    ("n2", (1j, 2j)),
    ("n3", (1j, 1 + 1j, -1 + 2j)),
    ("n4", (1j, 2j, 1 + 1j, -1 + 2j)),
    ("n2-double", (1j, 1j)),
    ("n3-double", (1j, 1j, 2j)),
    ("n4-double", (1j, 1j, 2j, 1 + 1j)),
)

N1_POINTS: tuple[complex, ...] = (1j, 1 + 1j, 1.0 + 0j)
PW_EXAMPLE_ZEROS: tuple[complex, ...] = (1j, 1 + 1j, -0.5 + 2j)
PW_EXAMPLE_SAMPLES: tuple[complex, ...] = (2j, 0.5 + 1.5j)
PROJECTION_POINT = 0.7 + 1.3j


def _sequence_checks(
    space: StructureFunction,
    zeros: ZeroSequence,
    seed: int,
    tolerances: dict | None,
) -> list[CheckReport]:
    """theorem2, projection and, where it applies, hb-inheritance for one configuration.

    The projection point is PROJECTION_POINT, stepped by 0.25j until it is
    outside the disks of the zeros.
    """
    dim = space.dimension
    z = PROJECTION_POINT
    while zeros.local_group(z) is not None:
        z += 0.25j
    reports = [
        check_theorem2(space, zeros, 200, seed, tolerances),
        check_projection(space, zeros, z, 50, seed, tolerances),
    ]
    # a full set of constraints in a finite-dimensional space leaves only
    # the zero space, whose margin is identically zero; skip the strict check
    if dim is None or len(zeros) < dim:
        reports.append(check_hb_inheritance(space, zeros, 100, seed, tolerances))
    return reports


def run_config_checks(
    space: StructureFunction,
    zeros: ZeroSequence,
    seed: int = 0,
    tolerances: dict | None = None,
) -> list[CheckReport]:
    """All checks that apply to one (space, zero sequence) configuration."""
    _reject_unknown_keys(tolerances)
    n = len(zeros)
    reports = _sequence_checks(space, zeros, seed, tolerances)
    if n == 1:
        reports.extend(check_n1_identities(space, zeros.points[0], 50, seed, tolerances))
    if isinstance(space, PaleyWiener) and n and all(k == 0 for k in zeros.confluence):
        forbidden = set(zeros.points) | {p.conjugate() for p in zeros.points}
        samples = [z for z in PW_EXAMPLE_SAMPLES if z not in forbidden]
        if samples:
            reports.extend(check_pw_example(space.x, zeros.points, samples, tolerances))
    return reports


# one configuration of the default suite: its tag, a check function and its arguments
_Task = tuple[str, Callable[..., list[CheckReport]], tuple[object, ...]]


def _suite_tasks(seed: int, tolerances: dict | None) -> list[_Task]:
    """The default suite's configurations, in report order; each task is independent of the others."""
    tasks: list[_Task] = []
    for space_tag, space in DEFAULT_SPACES:
        dim = space.dimension
        for sigma_tag, pts in DEFAULT_SIGMAS:
            if dim is not None and len(pts) > dim:
                continue  # dependent evaluators, covered by degenerate-input tests
            zeros = canonicalize(pts)
            tasks.append((f"{space_tag}:{sigma_tag}", _sequence_checks, (space, zeros, seed, tolerances)))
        for z1 in N1_POINTS:
            tasks.append((f"{space_tag}:z1={z1:g}", check_n1_identities, (space, z1, 50, seed, tolerances)))
        if isinstance(space, PaleyWiener):
            for n in (1, 2, 3):
                args = (space.x, PW_EXAMPLE_ZEROS[:n], PW_EXAMPLE_SAMPLES, tolerances)
                tasks.append((f"{space_tag}:pw-n{n}", check_pw_example, args))
    return tasks


def _run_task(task: _Task) -> list[CheckReport]:
    """The task's reports, each id suffixed with the task's tag."""
    tag, check, args = task
    return [replace(r, check_id=f"{r.check_id}:{tag}") for r in check(*args)]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether the suite may fork its workers from this process.

    Not without `os.fork`; not in a daemonic `multiprocessing` process,
    which may not have children (the module is only looked up, never
    imported); and not while another thread runs, since a fork copies only
    the calling thread and a lock another thread holds stays held in the
    child.
    """
    mp = sys.modules.get("multiprocessing")
    daemonic = mp is not None and mp.current_process().daemon
    return hasattr(os, "fork") and not daemonic and threading.active_count() == 1


_INDEX_BYTES = 2  # one task index in the queue pipe


def _run_share(tasks: Sequence[_Task], queue: int) -> dict[int, list[CheckReport] | Exception]:
    """Run the tasks whose indices this process reads from the queue pipe, by index.

    Each task run maps to its reports, or to the error it raised, after
    which this process takes no further task. A read of one index is
    atomic, so each index reaches one process.
    """
    done: dict[int, list[CheckReport] | Exception] = {}
    while chunk := os.read(queue, _INDEX_BYTES):
        index = int.from_bytes(chunk, "little")
        try:
            done[index] = _run_task(tasks[index])
        except Exception as error:
            done[index] = error
            break
    return done


def _forked_map(tasks: Sequence[_Task], workers: int) -> list[list[CheckReport]]:
    """The reports of every task, in task order, from this process and workers - 1 forked children.

    Every task index is written into one pipe before the first fork, and
    each process reads one index at a time until the pipe is empty, so the
    pipe is the only scheduler. A child pickles its share, an error
    included, into a pipe of its own and leaves through `os._exit`, which
    neither flushes the caller's stdio buffers nor runs its exit handlers.
    The caller runs its share, reads every child's pipe and reaps every
    child before it joins the reports or raises the earliest task's error.
    """
    import pickle

    queue, feed = os.pipe()
    # 56 two-byte indices fit in any pipe's buffer, so this write never blocks
    os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(tasks))))
    os.close(feed)
    children = []  # (pid, the read end of its result pipe)
    try:
        for _ in range(workers - 1):
            out, into = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never returns
                code = 1
                try:
                    os.close(out)
                    with open(into, "wb") as sink:
                        sink.write(pickle.dumps(_run_share(tasks, queue)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(into)
            children.append((pid, open(out, "rb")))
        results = _run_share(tasks, queue)
        for _, source in children:
            data = source.read()
            results.update(pickle.loads(data) if data else {})
    finally:
        os.close(queue)
        # a child blocked on its result pipe ends once that pipe is closed
        statuses = []
        for pid, source in children:
            source.close()
            statuses.append(os.waitpid(pid, 0)[1])
    ordered = []
    for index, (tag, _, _) in enumerate(tasks):
        result = results.get(index)
        if isinstance(result, Exception):  # the task a one-process map stops at
            raise result
        if result is None:
            raise ChildProcessError(f"a suite worker ended (wait statuses {statuses}) before task {tag} reported")
        ordered.append(result)
    return ordered


def run_default_suite(seed: int = 0, tolerances: dict | None = None) -> list[CheckReport]:
    """The whole desk-scale matrix of spaces and zero sequences.

    The checks report bare ids; the suite labels each report of a
    configuration `check:tag`, the tag naming the space and the zeros
    (`theorem2:pw-x1:n2`, `n1-star:hb-deg3:z1=1+1j`, `pw-det-diag:pw-x2:pw-n3`).
    Its 56 configurations are independent, so they run on one process per
    CPU the process may use: the caller and forked children, which take
    one configuration at a time from one pipe of task indices
    (`_forked_map`). Only reports and errors cross back, pickled; the
    reports are joined in the one-process order, equal value for value.
    The suite runs in the calling process when there is one CPU, when the
    platform has no `os.fork`, when the caller is a daemonic
    `multiprocessing` process and when other threads run (`_may_fork`).
    The seed and the tolerance keys are checked before anything forks. A
    failure raises the error of the earliest failing configuration, with
    its type and message, whichever process ran it, once every child has
    been reaped.
    """
    _reject_unknown_keys(tolerances)
    _checked_seed(seed)
    tasks = _suite_tasks(seed, tolerances)
    workers = min(_usable_cpus(), len(tasks))
    if workers > 1 and _may_fork():
        results: Iterable[list[CheckReport]] = _forked_map(tasks, workers)
    else:
        results = map(_run_task, tasks)
    return [report for reports in results for report in reports]
