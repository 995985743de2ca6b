"""Check suite behavior: determinism, tolerances, report semantics."""

import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from debranges import (
    DomainError,
    LinearDependenceError,
    PaleyWiener,
    PolynomialHB,
    RangeError,
    canonicalize,
    check_hb_inheritance,
    check_n1_identities,
    check_projection,
    check_pw_example,
    check_theorem2,
    run_config_checks,
    run_default_suite,
)
from debranges import verify
from debranges.verify import CHECKS, CheckReport, _report

_PW1, _ZEROS = PaleyWiener(1.0), canonicalize([1j])
# every library entry point that takes a `tolerances` mapping, called with it
UNKNOWN_KEY_CALLS = {
    "check_theorem2": lambda tol: check_theorem2(_PW1, _ZEROS, tolerances=tol),
    "check_n1_identities": lambda tol: check_n1_identities(_PW1, 1j, tolerances=tol),
    "check_pw_example": lambda tol: check_pw_example(1.0, [1j], [2j], tolerances=tol),
    "check_hb_inheritance": lambda tol: check_hb_inheritance(_PW1, _ZEROS, tolerances=tol),
    "check_projection": lambda tol: check_projection(_PW1, _ZEROS, 0.7 + 1.3j, tolerances=tol),
    "run_config_checks": lambda tol: run_config_checks(_PW1, _ZEROS, tolerances=tol),
    "run_default_suite": lambda tol: run_default_suite(tolerances=tol),
}
# every check that takes a sample count, called with it
SAMPLE_COUNT_CALLS = {
    "check_theorem2": lambda n: check_theorem2(_PW1, _ZEROS, n),
    "check_n1_identities": lambda n: check_n1_identities(_PW1, 1j, n),
    "check_hb_inheritance": lambda n: check_hb_inheritance(_PW1, _ZEROS, n),
    "check_projection": lambda n: check_projection(_PW1, _ZEROS, 0.7 + 1.3j, n),
}


class TestReportSemantics:
    def test_passed_iff_within_tolerance(self):
        assert _report("x", 1, 1e-12, 1e-9, 1.0).passed
        assert not _report("x", 1, 1e-6, 1e-9, 1.0).passed
        assert _report("x", 1, 1e-9, 1e-9, 1.0).passed

    def test_nan_never_passes(self):
        assert not _report("x", 1, float("nan"), 1e-9, 1.0).passed
        assert not _report("x", 1, float("inf"), 1e-9, 1.0).passed

    def test_loosening_tolerance_is_monotone(self, pw1):
        zs = canonicalize([1j, 2j])
        tight = check_theorem2(pw1, zs, 50, seed=3, tolerances={"theorem2": 1e-8})
        loose = check_theorem2(pw1, zs, 50, seed=3, tolerances={"theorem2": 1e-4})
        assert tight.max_rel_residual == loose.max_rel_residual
        assert tight.passed
        assert loose.passed


class TestTheorem2:
    def test_empty_sequence_reduces_to_base_kernel(self, pw1):
        report = check_theorem2(pw1, canonicalize([]), 100, seed=1)
        assert report.passed
        assert report.max_rel_residual <= 1e-12

    def test_single_zero(self, pw1):
        report = check_theorem2(pw1, canonicalize([1j]), 200, seed=42)
        assert report.passed
        assert report.tolerance == pytest.approx(1e-8)

    def test_confluent_mixed(self, pw1):
        zs = canonicalize([1j, 1j, 1 + 1j])
        report = check_theorem2(pw1, zs, 200, seed=42)
        assert report.passed

    def test_deterministic_given_seed(self, pw1):
        zs = canonicalize([1j, 2j])
        a = check_theorem2(pw1, zs, 100, seed=7)
        b = check_theorem2(pw1, zs, 100, seed=7)
        assert a == b
        c = check_theorem2(pw1, zs, 100, seed=8)
        assert c.max_rel_residual != a.max_rel_residual


class TestN1Identities:
    @pytest.mark.parametrize("z1", [1j, 1 + 1j, 1.0])
    def test_pw(self, pw1, z1):
        reports = check_n1_identities(pw1, z1, 50, seed=5)
        assert len(reports) == 3
        assert all(r.passed for r in reports)
        assert {r.check_id for r in reports} == {"n1-star", "n1-evaluator", "n1-kernel"}

    def test_polynomial_two_roots(self):
        sf = PolynomialHB((-1j, -2j))
        reports = check_n1_identities(sf, 1 + 1j, 50, seed=5)
        assert all(r.passed for r in reports)


class TestPwExample:
    def test_single_zero(self):
        reports = check_pw_example(1.0, [1j], [2j])
        assert all(r.passed for r in reports)
        diag = next(r for r in reports if r.check_id == "pw-det-diag")
        assert diag.max_rel_residual <= 1e-10

    def test_n2(self):
        reports = check_pw_example(1.0, [1j, 1 + 1j], [0.5 + 2j])
        assert all(r.passed for r in reports)

    def test_degenerate_n0(self):
        reports = check_pw_example(1.0, [], [2j, 0.5 + 1.5j])
        assert all(r.passed for r in reports)

    def test_conjugation_resolution_recorded(self):
        reports = check_pw_example(1.0, [1j, 1 + 1j], [2j, 0.5 + 1.5j])
        star = next(r for r in reports if r.check_id == "pw-det-star")
        assert "conjugated reading holds" in star.note
        assert star.passed

    def test_a_tie_is_recorded_as_a_tie(self):
        # on the imaginary axis every value is real, so both readings leave the same residual, here not 0
        star = next(r for r in check_pw_example(1.0, [1j, 2j], [3j]) if r.check_id == "pw-det-star")
        assert star.note == "the readings tie: conjugated and unconjugated reading residuals are both 3.775e-15"
        assert star.passed

    def test_an_error_in_estar_fails_the_reflection_identity(self, monkeypatch):
        # E* off by a relative 1e-4 must fail: whole determinants, which carry
        # det G = 5.8e-4 here, read it as 3.0e-10 under _rel's floor of 1
        eval_E_star = PaleyWiener.eval_E_star
        monkeypatch.setattr(PaleyWiener, "eval_E_star", lambda self, z: eval_E_star(self, z) * (1 + 1e-4))
        reports = check_pw_example(0.5, verify.PW_EXAMPLE_ZEROS, verify.PW_EXAMPLE_SAMPLES)
        star = next(r for r in reports if r.check_id == "pw-det-star")
        assert not star.passed
        assert star.max_rel_residual > 1e-7

    @pytest.mark.parametrize("n, calls", [(1, 8), (2, 14), (3, 20)])
    def test_each_evaluator_row_built_once(self, monkeypatch, n, calls):
        # per sample: the row at z, the column at z, K(z, z) and the row at conj z, so 3n + 1
        counted = 0
        kernel = PaleyWiener.kernel

        def counting(self, z, w):
            nonlocal counted
            counted += 1
            return kernel(self, z, w)

        monkeypatch.setattr(PaleyWiener, "kernel", counting)
        check_pw_example(1.0, (1j, 1 + 1j, -0.5 + 2j)[:n], (2j, 0.5 + 1.5j))
        assert counted == calls

    def test_real_sample_rejected(self):
        with pytest.raises(DomainError):
            check_pw_example(1.0, [1j], [0.5])

    def test_repeated_zero_rejected(self):
        with pytest.raises(DomainError):
            check_pw_example(1.0, [1j, 1j], [2j])

    def test_no_samples_rejected(self):
        with pytest.raises(DomainError):
            check_pw_example(1.0, [1j], [])

    def test_dependent_zeros_rejected(self):
        # the Gram matrix comes from `build`, which stops at dependent
        # evaluators; its condition estimate would otherwise make the tolerance inf
        with pytest.raises(LinearDependenceError):
            check_pw_example(1.0, [1j, 1j + 1e-9], [2j])


class TestHbInheritance:
    def test_empty(self, pw1):
        report = check_hb_inheritance(pw1, canonicalize([]), 100, seed=2)
        assert report.passed
        assert "min margin" in report.note

    def test_two_zeros(self, pw1):
        report = check_hb_inheritance(pw1, canonicalize([1j, 2j]), 100, seed=2)
        assert report.passed
        assert report.max_rel_residual < 0  # strictly positive margin

    def test_polynomial(self, hb3):
        report = check_hb_inheritance(hb3, canonicalize([3j]), 100, seed=2)
        assert report.passed


class TestProjection:
    def test_basis_vector(self, pw1):
        report = check_projection(pw1, canonicalize([1j]), 1j + 1e-9j + 1, 25, seed=3)
        assert report.passed

    def test_two_zeros(self, pw1):
        report = check_projection(pw1, canonicalize([1j, 2j]), 1 + 1j, 50, seed=3)
        assert report.passed

    def test_empty_vacuous(self, pw1):
        report = check_projection(pw1, canonicalize([]), 1 + 1j, 10, seed=3)
        assert report.passed
        assert report.max_rel_residual <= 1e-12

    def test_z_on_sequence_rejected(self, pw1):
        with pytest.raises(DomainError):
            check_projection(pw1, canonicalize([1j]), 1j, 10, seed=3)

    def test_z_in_a_disk_rejected(self, pw1):
        # 4e-4 from the zero, inside its disk of radius 1e-3 * (1 + |p|)
        with pytest.raises(DomainError):
            check_projection(pw1, canonicalize([0.7 + 1.3004j]), 0.7 + 1.3j, 50, 1)

    def test_config_checks_step_off_a_disk(self, pw1):
        # the suite's projection point is in this zero's disk; the check
        # steps off it and compares both routes
        reports = run_config_checks(pw1, canonicalize([0.7 + 1.3004j]))
        (projection,) = [r for r in reports if r.check_id == "projection"]
        route = float(projection.note.rsplit("route agreement ", 1)[1])
        assert 0 < route <= 1e-9
        assert projection.passed


class TestSampleStream:
    # the first pairs a seed draws; any change to how the checks sample moves them
    PAIRS = {
        0: [
            (2.0665311091502883 + 1.5477264176418153j, -0.47657051501493 - 1.44649949824222j),
            (0.0676483282116509 - 0.5703951752975143j, 1.702791534208636 - 1.1801236435264353j),
            (-0.14041827508586513 + 0.5002922367301874j, 2.448677311172011 + 0.028121134904341538j),
        ],
        2**64 - 1: [
            (-1.728195080635076 + 0.6907559973754367j, 2.5174258903031896 - 0.7737346991303831j),
            (1.392674700716694 + 1.4551626319149147j, 1.4227521207577913 + 1.3798190444285714j),
            (-0.1817606691229825 + 2.2713392950486666j, -2.5305790543089026 - 1.0211051486395801j),
        ],
    }

    @pytest.mark.parametrize("seed", sorted(PAIRS))
    def test_first_pairs_are_pinned(self, seed):
        uniform = verify._uniforms(seed)
        assert [verify._sample_pair(uniform) for _ in range(3)] == self.PAIRS[seed]

    def test_seed_contract(self, pw1):
        zs = canonicalize([1j])
        with pytest.raises(ValueError):
            run_default_suite(-1)
        with pytest.raises(ValueError):
            check_theorem2(pw1, zs, 5, seed=-1)
        with pytest.raises(TypeError):
            check_theorem2(pw1, zs, 5, seed=1.5)
        with pytest.raises(TypeError):
            check_theorem2(pw1, zs, 5, seed="1")
        # an integer of another type seeds as its value
        assert check_theorem2(pw1, zs, 5, seed=True) == check_theorem2(pw1, zs, 5, seed=1)
        assert check_theorem2(pw1, zs, 5, seed=np.uint64(7)) == check_theorem2(pw1, zs, 5, seed=7)

    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("check", sorted(SAMPLE_COUNT_CALLS))
    def test_a_count_that_samples_nothing_is_rejected(self, check, count):
        # it would report `passed` over no samples
        with pytest.raises(ValueError, match="sample count"):
            SAMPLE_COUNT_CALLS[check](count)


class TestSuites:
    def test_config_checks_pass_with_bare_ids(self, pw1):
        reports = run_config_checks(pw1, canonicalize([1j]), seed=0)
        assert all(r.passed for r in reports)
        assert all(":" not in r.check_id for r in reports)
        ids = {r.check_id for r in reports}
        assert "theorem2" in ids and "n1-star" in ids

    def test_tolerance_override_applies(self, pw1):
        reports = run_config_checks(
            pw1, canonicalize([1j]), seed=0, tolerances={"theorem2": 1e-3}
        )
        th = next(r for r in reports if r.check_id.startswith("theorem2"))
        assert th.tolerance == pytest.approx(1e-3)

    @pytest.mark.parametrize("check_id", list(CHECKS))
    def test_each_id_override_takes_effect(self, pw1, check_id):
        # the pw-det ids need two distinct zeros, every other id runs on one
        zs = canonicalize((1j, 2j) if check_id.startswith("pw-det") else (1j,))
        default = {r.check_id: r.tolerance for r in run_config_checks(pw1, zs, seed=0)}
        overridden = {
            r.check_id: r.tolerance
            for r in run_config_checks(pw1, zs, seed=0, tolerances={check_id: 0.0})
        }
        assert check_id in default
        assert overridden == {cid: 0.0 if cid == check_id else tol for cid, tol in default.items()}

    @pytest.mark.parametrize("entry", sorted(UNKNOWN_KEY_CALLS))
    def test_unknown_tolerance_key_raises_before_any_work(self, monkeypatch, entry):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the tolerance keys were checked")

        for name in ("_uniforms", "build"):
            monkeypatch.setattr(verify, name, no_work)
        with pytest.raises(DomainError, match="theorm2"):
            UNKNOWN_KEY_CALLS[entry]({"theorem2": 1e-8, "theorm2": 0.0})

    def test_default_suite_green_and_deterministic(self):
        a = run_default_suite(seed=0)
        b = run_default_suite(seed=0)
        assert a == b
        assert all(r.passed for r in a)
        assert not any(math.isnan(r.max_rel_residual) for r in a)
        # the suite labels each id check:tag, the tag naming its configuration
        assert all(r.check_id.split(":", 1)[0] in CHECKS and ":" in r.check_id for r in a)
        # the matrix spans every check family
        families = {r.check_id.split(":")[0] for r in a}
        assert families == {
            "theorem2",
            "projection",
            "hb-inheritance",
            "n1-star",
            "n1-evaluator",
            "n1-kernel",
            "pw-det-diag",
            "pw-det-star",
        }

    def test_zero_space_excluded_from_margin_check(self):
        # a full constraint set in the finite-dimensional family has zero
        # margin identically; the suite must not run the strict check there
        suite = run_default_suite(seed=0)
        hb_deg1_margin = [
            r for r in suite if r.check_id.startswith("hb-inheritance:hb-deg1")
        ]
        assert all(":n0" in r.check_id for r in hb_deg1_margin)

    def test_reports_are_frozen_records(self):
        report = _report("x", 1, 0.0, 1.0, 1.0)
        assert isinstance(report, CheckReport)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.passed = False


def _no_fork():
    raise AssertionError("a worker process was forked")


def _has_children() -> bool:
    """Whether this process has a child, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _run_task_failing(monkeypatch, fails):
    """Patch verify._run_task to raise RangeError, naming the task and the process, where fails(index, in_caller)."""
    caller, run = os.getpid(), verify._run_task
    index_of = {task[0]: i for i, task in enumerate(verify._suite_tasks(0, None))}

    def task(t):
        index = index_of[t[0]]
        if fails(index, os.getpid() == caller):
            raise RangeError(f"task {index} forced in process {os.getpid()}")
        return run(t)

    monkeypatch.setattr(verify, "_run_task", task)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestSuitePool:
    """run_default_suite runs its configurations on the caller and forked children; two CPUs are forced so it forks."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 11])
    def test_reports_equal_a_one_process_run(self, monkeypatch, seed):
        pooled = run_default_suite(seed)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(verify.os, "fork", _no_fork)
        # repr tells -0.0 from 0.0 and shows a nan, which == would not
        assert list(map(repr, pooled)) == list(map(repr, run_default_suite(seed)))
        assert len(pooled) == 156

    def test_no_worker_outlives_the_suite(self, monkeypatch):
        run_default_suite(0)
        assert not _has_children()

        def fail(*args, **kwargs):
            raise RangeError(f"forced in process {os.getpid()}")

        # only check_pw_example calls verify's _lu_apply; the caller or a child may run it
        monkeypatch.setattr(verify, "_lu_apply", fail)
        with pytest.raises(RangeError) as caught:
            run_default_suite(0)
        assert type(caught.value) is RangeError
        assert re.fullmatch(r"forced in process \d+", str(caught.value))
        assert not _has_children()

    @pytest.mark.parametrize("where", ["child", "caller"])
    def test_an_error_of_either_side_reaches_the_caller(self, monkeypatch, where):
        # the failing side raises at its first task; the other sleeps 0.2 s
        # before its first, so the failing side is sure to read one
        first = [True]  # each process has its own copy after the fork

        def fails(index, in_caller):
            if in_caller == (where == "caller"):
                return True
            if first[0]:
                first[0] = False
                time.sleep(0.2)
            return False

        _run_task_failing(monkeypatch, fails)
        with pytest.raises(RangeError) as caught:
            run_default_suite(0)
        assert type(caught.value) is RangeError
        raised = re.fullmatch(r"task \d+ forced in process (\d+)", str(caught.value))
        assert raised and (int(raised[1]) == os.getpid()) == (where == "caller")
        assert not _has_children()

    @pytest.mark.parametrize("where", ["child", "caller"])
    def test_the_earliest_failing_task_wins(self, monkeypatch, where):
        # one side fails 0.3 s into its first task, the other at once at
        # task 30 or later: the error is the earlier task's, as a one-process
        # map raises it, whichever side ran it and whichever failed first
        def fails(index, in_caller):
            if in_caller == (where == "caller"):
                time.sleep(0.3)
                return True
            return index >= 30

        _run_task_failing(monkeypatch, fails)
        with pytest.raises(RangeError) as caught:
            run_default_suite(0)
        raised = re.fullmatch(r"task (\d+) forced in process (\d+)", str(caught.value))
        assert raised and int(raised[1]) < 30
        assert (int(raised[2]) == os.getpid()) == (where == "caller")
        assert not _has_children()

    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        # a child that ends without reporting (here at its first task; the
        # caller sleeps 0.2 s first, so the child reads one) loses its tasks
        first = [True]

        def fails(index, in_caller):
            if not in_caller:
                os._exit(7)
            if first[0]:
                first[0] = False
                time.sleep(0.2)
            return False

        _run_task_failing(monkeypatch, fails)
        with pytest.raises(ChildProcessError, match=r"wait statuses \[1792\]\) before task "):
            run_default_suite(0)
        assert not _has_children()

    def test_seed_and_keys_are_checked_before_any_worker_starts(self, monkeypatch):
        monkeypatch.setattr(verify.os, "fork", _no_fork)
        with pytest.raises(ValueError, match="non-negative"):
            run_default_suite(-1)
        with pytest.raises(TypeError):
            run_default_suite(1.5)
        with pytest.raises(DomainError, match="theorm2"):
            run_default_suite(0, {"theorm2": 0.0})
        with pytest.raises(AssertionError, match="forked"):
            run_default_suite(0)

    def test_a_pool_worker_runs_the_suite_in_process(self):
        direct = run_default_suite(0)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply_async(run_default_suite, (0,)).get(timeout=120)
        assert inside == direct

    def test_another_thread_keeps_the_suite_in_process(self, monkeypatch):
        direct = run_default_suite(0)
        monkeypatch.setattr(verify.os, "fork", _no_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert run_default_suite(0) == direct
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_the_suite_never_imports_multiprocessing(self):
        # in a fresh interpreter, forked or in process as its CPUs allow
        env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))
        code = (
            "import sys, debranges\n"
            "print(len(debranges.run_default_suite(0)), 'multiprocessing' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["156", "False"]
