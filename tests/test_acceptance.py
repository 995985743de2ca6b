"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE criterion-N PASS/FAIL` line (visible
with `pytest -s`); the assertions enforce the same bounds.

The space/zeros matrix honors the structural limits of the polynomial
family: with d = deg E the space has dimension d, so n > d zeros have
dependent evaluators (a diagnosed error, exercised by criterion 7) and
n = d leaves only the zero space, whose half-plane margin is identically
zero and therefore outside the strict-positivity claim.
"""

import json
import math

import numpy as np
import pytest

from debranges import (
    LinearDependenceError,
    PaleyWiener,
    PolynomialHB,
    UnsupportedOrderError,
    build,
    canonicalize,
    check_hb_inheritance,
    check_n1_identities,
    check_pw_example,
    check_theorem2,
    derive,
    derive_iterative,
    run_default_suite,
)
from debranges.cli import main

from split_zero_oracle import derive_epsilon_oracle

SPACES = [
    ("pw-x0.5", PaleyWiener(0.5)),
    ("pw-x1", PaleyWiener(1.0)),
    ("pw-x2", PaleyWiener(2.0)),
    ("hb-deg1", PolynomialHB((-1j,))),
    ("hb-deg3", PolynomialHB((-1j, 1 - 1j, -1 - 2j))),
]

SIGMAS = [
    ("empty", []),
    ("single", [1j]),
    ("pair", [1j, 2j]),
    ("triple", [1j, 1 + 1j, -1 + 2j]),
    ("double", [1j, 1j]),
    ("double+1", [1j, 1j, 2j]),
]


def _runs(space, pts):
    dim = space.dimension
    return dim is None or len(pts) <= dim


def _zero_space(space, pts):
    dim = space.dimension
    return dim is not None and len(pts) == dim


def _announce(name, ok, detail=""):
    print(f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")


def test_criterion_1_main_identity():
    worst = 0.0
    for space_tag, space in SPACES:
        for sigma_tag, pts in SIGMAS:
            if not _runs(space, pts):
                continue
            report = check_theorem2(space, canonicalize(pts), 200, seed=42)
            worst = max(worst, report.max_rel_residual / report.tolerance)
            assert report.passed, f"{space_tag}/{sigma_tag}: {report}"
    _announce("criterion-1 main-identity", True, f"worst residual/tol {worst:.3e}")


def test_criterion_2_single_zero_identities():
    worst = 0.0
    for space_tag, space in SPACES:
        for z1 in (1j, 1 + 1j, 1.0):
            reports = check_n1_identities(space, z1, 50, seed=42)
            for report in reports:
                assert report.tolerance <= 1e-10 * max(1.0, report.condition_estimate / 1e4)
                assert report.passed, f"{space_tag}/z1={z1}: {report}"
                worst = max(worst, report.max_rel_residual)
    _announce("criterion-2 single-zero-identities", True, f"worst residual {worst:.3e}")


def test_criterion_3_route_equivalence():
    # coefficients: direct vs iterative, distinct zeros up to n = 4
    cases = [[1j], [1j, 2j], [1j, 2j, 1 + 1j], [1j, 2j, 1 + 1j, -1 + 2j]]
    for space_tag, space in SPACES:
        for pts in cases:
            if not _runs(space, pts):
                continue
            zs = canonicalize(pts)
            direct = derive(build(space, zs))
            iterative = derive_iterative(space, zs)
            for got, want in zip(iterative.coeffs_E, direct.coeffs_E):
                scale = max(abs(c) for c in direct.coeffs_E)
                assert abs(got - want) <= 1e-9 * scale, f"{space_tag}/{pts}"
    # kernel: solve route vs bordered determinant on 100 samples
    rng = np.random.default_rng(42)
    for space_tag, space in [("pw-x1", PaleyWiener(1.0)), ("hb-deg3", SPACES[4][1])]:
        for pts in ([1j, 2j], [1j, 1j]):
            gs = build(space, canonicalize(pts))
            checked = 0
            while checked < 100:
                z = complex(*rng.uniform(-3, 3, 2))
                w = complex(*rng.uniform(-3, 3, 2))
                if any(abs(q - z) < 1e-2 or abs(q - w) < 1e-2 for q in gs.zeros.points):
                    continue
                checked += 1
                a = gs.sigma_kernel(z, w)
                b = gs.sigma_kernel_det(z, w)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), f"{space_tag}/{pts}"
    _announce("criterion-3 route-equivalence", True)


def test_criterion_4_confluence_limits():
    space = PaleyWiener(1.0)
    schedule = [1e-2, 5e-3, 2.5e-3]
    worst = 0.0
    for pts in ([1j, 1j], [1j, 1j, 2j]):
        zs = canonicalize(pts)
        gs = build(space, zs)
        ssf = derive(gs)
        oracle = derive_epsilon_oracle(space, zs, schedule)
        for i in range(len(zs)):
            for j in range(len(zs)):
                got = oracle.gram_entry(i, j)
                want = complex(np.array(gs.rows)[i, j])
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
                assert err <= 1e-5, f"gram entry ({i},{j}) of {pts}"
        for z, w in [(0.5 + 0.5j, 1 - 0.3j), (-1 + 0.7j, 0.2 + 0.1j)]:
            got = oracle.incomplete_kernel(z, w)
            want = gs.incomplete_kernel(z, w)
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            assert err <= 1e-5, f"kernel at ({z},{w}) of {pts}"
        for w in (0j, 1 + 0.5j):
            got = oracle.incomplete(w)
            want = ssf.incomplete(w)
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            assert err <= 1e-5, f"incomplete E at {w} of {pts}"
    _announce("criterion-4 confluence-limits", True, f"worst rel err {worst:.3e}")


def test_criterion_5_determinant_identities():
    pool = [1j, 1 + 1j, -0.5 + 2j]
    samples = [2j, 0.5 + 1.5j]
    notes = []
    for n in (1, 2, 3):
        reports = check_pw_example(1.0, pool[:n], samples)
        for report in reports:
            assert report.passed, f"n={n}: {report}"
            assert report.max_rel_residual <= 1e-9 * max(1.0, report.condition_estimate / 1e4)
        star = next(r for r in reports if r.check_id == "pw-det-star")
        assert star.note, "conjugation-reading resolution must be recorded"
        notes.append(star.note.split(":")[0])
    assert set(notes) == {"conjugated reading holds"}
    _announce("criterion-5 determinant-identities", True, f"resolution: {notes[0]}")


def test_criterion_6_half_plane_margin():
    for space_tag, space in SPACES:
        for sigma_tag, pts in SIGMAS:
            if not _runs(space, pts) or _zero_space(space, pts):
                continue
            report = check_hb_inheritance(space, canonicalize(pts), 100, seed=42)
            assert report.passed, f"{space_tag}/{sigma_tag}: {report}"
            assert report.max_rel_residual < 0, "margin must be strictly positive"
    _announce("criterion-6 half-plane-margin", True)


def test_criterion_7_degenerate_inputs(tmp_path):
    # duplicate zeros beyond the derivative budget: generic family fails at
    # Gram assembly, the closed-form family at the boundary-data solve
    tight_hb = PolynomialHB((-1j, 1 - 1j, -1 - 2j), max_derivative_order=1)
    with pytest.raises(UnsupportedOrderError):
        build(tight_hb, canonicalize([1j, 1j, 1j]))
    tight_pw = PaleyWiener(1.0, max_derivative_order=1)
    gs = build(tight_pw, canonicalize([1j, 1j, 1j]))
    with pytest.raises(UnsupportedOrderError):
        derive(gs)

    # near-singular: two zeros at distance 1e-9
    with pytest.raises(LinearDependenceError):
        build(PaleyWiener(1.0), canonicalize([1j, 1j + 1e-9]))

    # dependent evaluators in the finite-dimensional family
    with pytest.raises(LinearDependenceError):
        build(PolynomialHB((-1j,)), canonicalize([1j, 2j]))

    # empty sequence short-circuits to the base space
    space = PaleyWiener(1.0)
    gs = build(space, canonicalize([]))
    assert gs.sigma_kernel(0.5 + 0.5j, 1j) == space.kernel(0.5 + 0.5j, 1j)
    ssf = derive(gs)
    assert ssf.eval("E", 0.3 - 0.4j) == space.eval_E(0.3 - 0.4j)

    # exit codes surface through the CLI
    dep_cfg = tmp_path / "dep.json"
    dep_cfg.write_text(json.dumps({
        "command": "verify",
        "space": {"family": "polynomial-hb", "roots": [[0.0, -1.0]]},
        "sigma": [[0.0, 1.0], [0.0, 2.0]],
        "output": {"path": str(tmp_path / "dep.txt")},
    }))
    assert main(["--config", str(dep_cfg)]) == 3
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{")
    assert main(["--config", str(bad_cfg)]) == 2

    # no NaN anywhere in a passing suite
    suite = run_default_suite(seed=42)
    assert all(r.passed for r in suite)
    for r in suite:
        assert math.isfinite(r.max_rel_residual)
        assert math.isfinite(r.condition_estimate)
    _announce("criterion-7 degenerate-inputs", True)


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "command": "kernel",
        "space": {"family": "paley-wiener", "x": 1.0},
        "sigma": [[0.0, 1.0], [0.0, 2.0]],
        "z": [0.25, 1.5],
        "grid": {"re_min": -2, "re_max": 2, "re_steps": 9,
                 "im_min": -1, "im_max": 1, "im_steps": 5},
        "output": {"path": "", "format": "csv"},
    }
    path = tmp_path / "cfg.json"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--output", str(out1)]) == 0
    assert main(["--config", str(path), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # the same space and zeros for verify, which reads a seed and no kernel point or grid
    verify_cfg = dict(cfg, command="verify", seed=42)
    del verify_cfg["z"], verify_cfg["grid"]
    path2 = tmp_path / "cfg2.json"
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    path2.write_text(json.dumps(verify_cfg))
    assert main(["--config", str(path2), "--output", str(r1)]) == 0
    assert main(["--config", str(path2), "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    assert run_default_suite(seed=42) == run_default_suite(seed=42)
    _announce("criterion-8 determinism", True)
