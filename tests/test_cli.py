"""CLI: config validation, commands, exit codes, output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import debranges
from debranges.cli import _value_lines, load_config, main
from debranges.errors import ConfigError


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "command": "verify",
        "space": {"family": "paley-wiener", "x": 1.0},
        "sigma": [[0.0, 1.0]],
        "output": {"path": str(tmp_path / "out.txt")},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# the kernel command's parameter point; the structure command reads no z
POINT_Z = {"kernel": {"z": [0.5, 0.5]}, "structure": {}}


class TestConfigValidation:
    def test_minimal_verify(self, tmp_path):
        cfg = load_config(str(write_config(tmp_path)))
        assert cfg.command == "verify"
        assert cfg.sigma.points == (1j,)

    def test_unknown_command(self, tmp_path):
        path = write_config(tmp_path, command="frobnicate")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "command"

    def test_unknown_family(self, tmp_path):
        path = write_config(tmp_path, space={"family": "bessel"})
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "space.family"

    def test_bad_complex_entry(self, tmp_path):
        path = write_config(tmp_path, sigma=[[0.0, 1.0], [1.0]])
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "sigma[1]"

    def test_kernel_needs_exactly_one_point_source(self, tmp_path):
        path = write_config(tmp_path, command="kernel")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "grid"
        path = write_config(
            tmp_path,
            command="kernel",
            eval_points=[[0.0, 0.0]],
            grid={"re_min": 0, "re_max": 1, "re_steps": 2,
                  "im_min": 0, "im_max": 1, "im_steps": 2},
        )
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_grid_validation(self, tmp_path):
        path = write_config(
            tmp_path,
            command="kernel",
            grid={"re_min": 1, "re_max": 0, "re_steps": 2,
                  "im_min": 0, "im_max": 1, "im_steps": 2},
        )
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "grid.re_min"

    def test_seed_range(self, tmp_path):
        path = write_config(tmp_path, seed=-1)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "seed"

    # a JSON integer too large for a float; float() and math.isfinite() overflow on it
    HUGE = 10**400
    GRID = {"re_min": 0, "re_max": 1, "re_steps": 2, "im_min": 0, "im_max": 1, "im_steps": 2}

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"command": "structure", "eval_points": [[0.0, 0.5], [HUGE, 1.0]]}, "eval_points[1]"),
            ({"sigma": [[0.0, 1.0], [0.0, HUGE]]}, "sigma[1]"),
            ({"space": {"family": "polynomial-hb", "roots": [[HUGE, -1.0]]}}, "space.roots[0]"),
            ({"space": {"family": "paley-wiener", "x": HUGE}}, "space.x"),
            ({"command": "kernel", "grid": dict(GRID, re_max=HUGE)}, "grid.re_max"),
            ({"command": "kernel", "grid": dict(GRID, im_min=-HUGE)}, "grid.im_min"),
            ({"command": "kernel", "eval_points": [[0.0, 0.5]], "z": [0.0, HUGE]}, "z"),
            ({"tolerances": {"theorem2": HUGE}}, "tolerances.theorem2"),
        ],
    )
    def test_huge_integer_is_a_config_error(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == field
        assert main(["--config", str(path)]) == 2
        assert f"configuration error: {field}: " in capsys.readouterr().err

    def test_messages_name_the_failed_test(self, tmp_path):
        cases = [
            ({"sigma": [[0.0, True]]}, "re and im must be numbers"),
            ({"sigma": [[0.0, float("inf")]]}, "re and im must be finite"),
            ({"space": {"family": "paley-wiener", "x": "1"}}, "must be a positive number"),
            ({"space": {"family": "paley-wiener", "x": -1.0}}, "must be a positive number"),
            ({"space": {"family": "paley-wiener", "x": float("inf")}}, "positive finite real"),
            ({"command": "kernel", "grid": dict(self.GRID, re_min=float("nan"))}, "must be a finite number"),
            ({"tolerances": {"theorem2": -1.0}}, "must be a nonnegative number"),
        ]
        for overrides, message in cases:
            path = write_config(tmp_path, **overrides)
            with pytest.raises(ConfigError) as err:
                load_config(str(path))
            assert str(err.value).endswith(message), overrides

    def test_unknown_tolerance_key_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, tolerances={"theorm2": 1e-3})
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == "tolerances.theorm2"
        assert main(["--config", str(path)]) == 2
        assert "configuration error: tolerances.theorm2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"command": "structure", "eval_points": [[0.1, 0.2]], "sgima": [[0, 1]]}, "sgima"),
            ({"space": {"family": "paley-wiener", "x": 1.0, "roots": [[0, -1]]}}, "space.roots"),
            (
                {"command": "kernel", "grid": {"re_min": 0, "re_max": 1, "re_stpes": 2,
                                               "im_min": 0, "im_max": 1, "im_steps": 2}},
                "grid.re_stpes",
            ),
            ({"output": {"fromat": "csv"}}, "output.fromat"),
        ],
        ids=["top", "space", "grid", "output"],
    )
    def test_misspelt_key_is_a_config_error(self, tmp_path, capsys, overrides, field):
        # an undocumented key would otherwise be ignored: a misspelt sigma imposes no zeros
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field == field
        assert main(["--config", str(path)]) == 2
        assert f"configuration error: {field}: is not a configuration key" in capsys.readouterr().err

    # every key a command reads, and keys that only another command reads
    READS = {
        "kernel": {"z": [0.5, 0.5], "grid": GRID},
        "structure": {"eval_points": [[0.1, 0.2]]},
        "verify": {"seed": 3, "tolerances": {"theorem2": 1e-8}},
        "pw-example": {"eval_points": [[0.0, 2.0]], "tolerances": {"pw-det-star": 1e-6}},
    }
    FOREIGN = {
        "kernel": {"seed": 3, "tolerances": {"theorem2": 1e-8}},
        "structure": {"z": [3.0, 3.0], "tolerances": {"theorem2": 0}, "seed": 5},
        "verify": {"grid": GRID, "eval_points": [[0.1, 0.2]], "z": [3.0, 3.0]},
        "pw-example": {"z": [3.0, 3.0], "seed": 5, "grid": GRID},
    }

    @pytest.mark.parametrize("command", sorted(READS))
    def test_command_reads_its_keys(self, tmp_path, command):
        path = write_config(tmp_path, command=command, **self.READS[command])
        assert load_config(str(path)).command == command

    @pytest.mark.parametrize("command", sorted(FOREIGN))
    def test_key_of_another_command_is_a_config_error(self, tmp_path, capsys, command):
        # a key the command never reads would otherwise be ignored, with another command's meaning
        for key, value in self.FOREIGN[command].items():
            path = write_config(tmp_path, command=command, **self.READS[command], **{key: value})
            with pytest.raises(ConfigError) as err:
                load_config(str(path))
            assert err.value.field == key
            assert main(["--config", str(path)]) == 2
            message = f"configuration error: {key}: is not a configuration key of the {command} command"
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(READS))
    def test_seed_option_only_where_the_command_reads_a_seed(self, tmp_path, capsys, command):
        # --seed on a command that samples nothing would otherwise be ignored
        path = write_config(tmp_path, command=command, **self.READS[command])
        code = main(["--config", str(path), "--seed", "1"])
        err = capsys.readouterr().err
        if command == "verify":
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert f"configuration error: --seed: the {command} command reads no seed" in err

    def test_seed_override_range(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["--config", str(path), "--seed", "-1"]) == 2
        assert "configuration error: --seed: " in capsys.readouterr().err

    def test_noncontiguous_duplicates_canonicalized(self, tmp_path):
        path = write_config(tmp_path, sigma=[[0.0, 1.0], [0.0, 2.0], [0.0, 1.0]])
        cfg = load_config(str(path))
        assert cfg.sigma.points == (1j, 1j, 2j)


class TestExitCodes:
    def test_verify_pass(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["--config", str(path)]) == 0
        text = (tmp_path / "out.txt").read_text()
        assert text.strip().endswith("PASS 8/8")

    def test_verify_sigma_on_the_projection_point(self, tmp_path):
        # 0.7+1.3j is the suite's projection point; the check steps off it
        path = write_config(tmp_path, sigma=[[0.7, 1.3]])
        assert main(["--config", str(path)]) == 0
        assert (tmp_path / "out.txt").read_text().strip().endswith("PASS 8/8")

    def test_no_config_option(self, capsys):
        assert main([]) == 2
        assert "--config" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad)]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"command": "verify"}')
        with pytest.raises(ConfigError) as err:
            load_config(str(bad))
        assert err.value.field == "config"
        assert main(["--config", str(bad)]) == 2
        assert f"configuration error: config: {bad} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            # nested past the interpreter's recursion limit
            '{"command": "verify", "space": ' + "[" * 100000 + "]" * 100000 + "}",
            # an integer literal past int's string-conversion digit limit
            '{"command": "verify", "space": {"family": "paley-wiener", "x": 1.0}, "seed": '
            + "9" * 5000 + "}",
        ],
        ids=["deeply-nested", "long-integer"],
    )
    def test_unparsable_config_exit_two(self, tmp_path, text):
        # the process itself: exit 2 and one line naming the config, no traceback
        path = tmp_path / "config.json"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "debranges", "--config", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: config: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_exit_two(self, tmp_path, where):
        # the process itself: exit 2 and one line naming the path, no traceback;
        # the missing directory comes by --output, the directory by output.path
        path = write_config(tmp_path, output={"path": str(tmp_path)})
        args = [sys.executable, "-m", "debranges", "--config", str(path)]
        out = tmp_path
        if where == "missing-directory":
            out = tmp_path / "nope" / "out.txt"
            args += ["--output", str(out)]
        env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
        proc = subprocess.run(args, env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"configuration error: output.path: cannot write {out}: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "nope").exists()

    def test_validation_error(self, tmp_path):
        path = write_config(tmp_path, command="kernel")  # no grid, no points
        assert main(["--config", str(path)]) == 2

    def test_dependent_evaluators(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            space={"family": "polynomial-hb", "roots": [[0.0, -1.0]]},
            sigma=[[0.0, 1.0], [0.0, 2.0]],
        )
        assert main(["--config", str(path)]) == 3
        assert capsys.readouterr().err.count("condition estimate") == 1

    def test_forced_failure_exit_one(self, tmp_path):
        # an impossible tolerance turns a passing check into a failure
        path = write_config(tmp_path, tolerances={"theorem2": 0.0})
        assert main(["--config", str(path)]) == 1
        assert "FAIL" in (tmp_path / "out.txt").read_text()

    def test_overflow_exit_four(self, tmp_path):
        # sin(conj(z) - w) overflows at Im w = 800
        out = tmp_path / "kernel.csv"
        path = write_config(
            tmp_path, command="kernel", z=[0.5, 0.5], eval_points=[[0.0, 800.0]],
            output={"path": str(out)},
        )
        assert main(["--config", str(path)]) == 4
        assert not out.exists()

    def test_overflow_in_verify_exit_four(self, tmp_path):
        # the Gram entry of a zero at Im = 800 overflows sin
        path = write_config(tmp_path, sigma=[[0.0, 800.0]])
        assert main(["--config", str(path)]) == 4
        assert not (tmp_path / "out.txt").exists()

    def test_overflow_in_a_checks_own_arithmetic_exit_four(self, tmp_path, capsys):
        # every kernel and E value is finite; abs(ez) ** 2 of the bordered E determinant overflows
        path = write_config(
            tmp_path, command="pw-example", space={"family": "paley-wiener", "x": 100.0},
            eval_points=[[0.0, 2.0]],
        )
        assert main(["--config", str(path)]) == 4
        assert not (tmp_path / "out.txt").exists()
        assert capsys.readouterr().err.startswith("range error: a pw-example value overflows: ")

    def test_unwritable_output_in_process_exit_two(self, tmp_path, capsys):
        # --output names a directory
        path = write_config(tmp_path)
        assert main(["--config", str(path), "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: output.path: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("command", ["kernel", "structure"])
    def test_non_finite_value_exit_four(self, tmp_path, capsys, command):
        # at |w| = 1e160 the cubic E and the quadratic kernel both exceed
        # the double range and evaluate to inf / nan; with no zeros they are
        # the derived ones (a zero would lower both degrees by one, and the
        # linear derived kernel would be finite there)
        out = tmp_path / "values.csv"
        path = write_config(
            tmp_path, command=command, **POINT_Z[command], sigma=[],
            space={"family": "polynomial-hb", "roots": [[0.0, -1.0], [1.0, -1.0], [-1.0, -2.0]]},
            eval_points=[[0.5, 0.5], [1e160, 1.0]],
            output={"path": str(out)},
        )
        assert main(["--config", str(path)]) == 4
        assert not out.exists()
        assert "range error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["kernel", "structure"])
    def test_point_past_the_double_range_exit_four(self, tmp_path, capsys, command):
        # |w - zero| overflows: the library raises RangeError, not OverflowError
        out = tmp_path / "values.csv"
        path = write_config(
            tmp_path, command=command, **POINT_Z[command],
            sigma=[[0.0, 1.0], [0.0, 1.0], [0.0, 2.0], [1.0, 1.0]],
            eval_points=[[1.5e308, 1.5e308]],
            output={"path": str(out)},
        )
        assert main(["--config", str(path)]) == 4
        assert not out.exists()
        assert "range error" in capsys.readouterr().err

    def test_hb_root_in_upper_half_plane(self, tmp_path, capsys):
        path = write_config(tmp_path, space={"family": "polynomial-hb", "roots": [[0.0, 1.0]]})
        assert main(["--config", str(path)]) == 2
        assert "space.roots" in capsys.readouterr().err

    def test_list_checks(self, capsys):
        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for cid in ("theorem2", "n1-kernel", "pw-det-star", "hb-inheritance", "projection"):
            assert cid in out


class TestKernelCommand:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "kernel.csv"
        path = write_config(
            tmp_path,
            command="kernel",
            z=[0.5, 0.5],
            grid={"re_min": -1, "re_max": 1, "re_steps": 3,
                  "im_min": 0, "im_max": 1, "im_steps": 2},
            output={"path": str(out), "format": "csv"},
        )
        assert main(["--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_z,im_z,re_w,im_w,re_val,im_val"
        assert len(lines) == 1 + 6

    def test_stdout_without_output_path(self, tmp_path, capsys):
        path = write_config(
            tmp_path, command="kernel", z=[0.5, 0.5], eval_points=[[0.0, 0.5]], output={}
        )
        assert main(["--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "re_z,im_z,re_w,im_w,re_val,im_val"
        assert len(lines) == 2
        assert not (tmp_path / "out.txt").exists()

    def test_csv_round_trip(self, tmp_path):
        from debranges import PaleyWiener, build, canonicalize

        out = tmp_path / "kernel.csv"
        path = write_config(
            tmp_path,
            command="kernel",
            z=[0.5, 0.5],
            eval_points=[[0.3, 0.7], [-1.2, 0.4]],
            output={"path": str(out), "format": "csv"},
        )
        assert main(["--config", str(path)]) == 0
        gs = build(PaleyWiener(1.0), canonicalize([1j]))
        lines = out.read_text().strip().splitlines()[1:]
        for line in lines:
            re_z, im_z, re_w, im_w, re_v, im_v = map(float, line.split(","))
            want = gs.sigma_kernel(complex(re_z, im_z), complex(re_w, im_w))
            assert complex(re_v, im_v) == want  # 17 digits round-trip exactly

    def test_eval_points(self, tmp_path):
        out = tmp_path / "kernel.csv"
        path = write_config(
            tmp_path,
            command="kernel",
            z=[0.0, 0.0],
            eval_points=[[0.1, 0.2]],
            output={"path": str(out), "format": "csv"},
        )
        assert main(["--config", str(path)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2


    def test_triple_zero_rows_in_a_process(self, tmp_path):
        # degree 5 with a triple zero: the derived space is one-dimensional and
        # K_z the constant 2.123910814966684 (50-digit mpmath), also at 1.0021j,
        # just outside the triple zero's disk
        out = tmp_path / "kernel.csv"
        path = write_config(
            tmp_path, command="kernel", z=[0.0, 1.05],
            space={"family": "polynomial-hb",
                   "roots": [[0, -1], [1, -1], [-1, -2], [0.5, -0.5], [-0.5, -1.5]]},
            sigma=[[0, 1], [0, 1], [0, 1], [0, 2]],
            eval_points=[[0, 1.0021], [0, 1.0019], [0, 1.1]],
            output={"path": str(out), "format": "csv"},
        )
        env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "debranges", "--config", str(path)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            re_v, im_v = map(float, row.split(",")[4:])
            assert abs(complex(re_v, im_v) - 2.123910814966684) <= 1e-12


class TestStructureCommand:
    def test_structure_csv(self, tmp_path):
        from debranges import PaleyWiener, build, canonicalize, derive

        out = tmp_path / "structure.csv"
        path = write_config(
            tmp_path,
            command="structure",
            eval_points=[[0.0, 0.0], [1.0, 0.5]],
            output={"path": str(out), "format": "csv"},
        )
        assert main(["--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_w,im_w,re_val,im_val"
        ssf = derive(build(PaleyWiener(1.0), canonicalize([1j])))
        re_w, im_w, re_v, im_v = map(float, lines[1].split(","))
        assert complex(re_v, im_v) == ssf.eval("E", complex(re_w, im_w))


class TestPwExampleCommand:
    def test_default_samples(self, tmp_path):
        out = tmp_path / "pw.txt"
        path = write_config(
            tmp_path, command="pw-example", sigma=[[0.0, 1.0], [1.0, 1.0]],
            output={"path": str(out)},
        )
        assert main(["--config", str(path)]) == 0
        text = out.read_text()
        assert "pw-det-diag" in text and "pw-det-star" in text

    def test_tolerance_override_per_id(self, tmp_path):
        out = tmp_path / "pw.csv"
        path = write_config(
            tmp_path, command="pw-example", sigma=[[0.0, 1.0], [1.0, 1.0]],
            tolerances={"pw-det-star": 0.0}, output={"path": str(out), "format": "csv"},
        )
        main(["--config", str(path)])
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()}
        assert float(rows["pw-det-star"][3]) == 0.0
        assert float(rows["pw-det-diag"][3]) > 0.0

    def test_requires_pw_family(self, tmp_path):
        path = write_config(
            tmp_path,
            command="pw-example",
            space={"family": "polynomial-hb", "roots": [[0.0, -1.0]]},
        )
        assert main(["--config", str(path)]) == 2

    def test_requires_distinct_zeros(self, tmp_path):
        path = write_config(
            tmp_path, command="pw-example", sigma=[[0.0, 1.0], [0.0, 1.0]]
        )
        assert main(["--config", str(path)]) == 2

    def test_dependent_zeros_are_a_numerical_breakdown(self, tmp_path, capsys):
        # zeros 1e-9 apart: the Gram matrix from `build` is singular to rounding
        path = write_config(tmp_path, command="pw-example", sigma=[[0.0, 1.0], [0.0, 1.000000001]])
        assert main(["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical breakdown: ") and "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    def test_sample_on_a_zero(self, tmp_path, capsys):
        path = write_config(
            tmp_path, command="pw-example", sigma=[[0.0, 1.0], [1.0, 1.0]],
            eval_points=[[1.0, 1.0]],
        )
        assert main(["--config", str(path)]) == 2
        assert "eval_points" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(
            tmp_path,
            command="kernel",
            z=[0.25, 1.5],
            grid={"re_min": -2, "re_max": 2, "re_steps": 7,
                  "im_min": -1, "im_max": 1, "im_steps": 5},
            sigma=[[0.0, 1.0], [0.0, 2.0]],
            output={"path": "ignored", "format": "csv"},
        )
        assert main(["--config", str(path), "--output", str(out1)]) == 0
        assert main(["--config", str(path), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        path = write_config(tmp_path, seed=11)
        assert main(["--config", str(path), "--output", str(out1)]) == 0
        assert main(["--config", str(path), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        path = write_config(tmp_path, seed=11)
        assert main(["--config", str(path), "--output", str(out1)]) == 0
        assert main(["--config", str(path), "--output", str(out2), "--seed", "12"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("txt", "  ")])
    def test_value_rows_print_17_significant_digits(self, fmt, sep):
        # negative zero, the smallest subnormal, a subnormal, a huge and a plain value
        row = (-0.0, 5e-324, 1e-310, 1e300, 0.1, -2.5)
        header = ["a", "b", "c", "d", "e", "f"]
        want = sep.join(header) + "\n" + sep.join(format(v, ".17g") for v in row) + "\n"
        assert _value_lines(header, [row], fmt) == want
        assert want.splitlines()[1].split(sep)[:4] == [
            "-0", "4.9406564584124654e-324", "9.9999999999999694e-311", "1.0000000000000001e+300"
        ]

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("txt", "  ")])
    def test_lead_columns_format_like_the_rest_of_the_row(self, fmt, sep):
        # the constant lead is formatted once; each line must read as "%.17g" of lead + row
        lead = (-0.0, 5e-324)
        rows = [(1e-310, 1e300, 0.1, -2.5), (-0.0, 0.0, 3.0, -7.25)]
        header = ["a", "b", "c", "d", "e", "f"]
        want = "".join(sep.join("%.17g" % v for v in lead + row) + "\n" for row in rows)
        assert _value_lines(header, rows, fmt, lead) == sep.join(header) + "\n" + want


def _stdlib_configs(tmp_path) -> list[Path]:
    """One kernel, one structure and one verify configuration, each writing into tmp_path."""
    common = {"space": {"family": "paley-wiener", "x": 1.0}, "sigma": [[0.0, 1.0], [1.0, 1.0]]}
    grid = {"re_min": -1, "re_max": 1, "re_steps": 3, "im_min": 0, "im_max": 1, "im_steps": 2}
    configs = {
        "kernel": dict(common, command="kernel", z=[0.5, 0.5], grid=grid),
        "structure": dict(common, command="structure", eval_points=[[0.3, 0.7], [1.0, 1.0]]),
        "verify": dict(common, command="verify", seed=3),
    }
    paths = []
    for name, cfg in configs.items():
        cfg["output"] = {"path": str(tmp_path / f"{name}.out")}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths.append(path)
    return paths


def test_cli_import_leaves_out_scipy(tmp_path):
    # and numpy: importing the CLI and running kernel, structure and verify load neither
    env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
    paths = [str(p) for p in _stdlib_configs(tmp_path)]
    code = (
        "import sys, debranges.cli\n"
        "for path in sys.argv[1:]:\n"
        "    assert debranges.cli.main(['--config', path]) == 0, path\n"
        "print('scipy' in sys.modules, 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *paths], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False False"
    assert all((tmp_path / f"{name}.out").stat().st_size for name in ("kernel", "structure", "verify"))


def test_cli_runs_without_site_packages(tmp_path):
    # python -S leaves site-packages, and with it numpy, off the path
    env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
    probe = subprocess.run(
        [sys.executable, "-S", "-c", "import numpy"], env=env, capture_output=True, text=True
    )
    assert probe.returncode != 0
    cli = [sys.executable, "-S", "-m", "debranges"]
    listed = subprocess.run([*cli, "--list-checks"], env=env, capture_output=True, text=True)
    assert listed.returncode == 0, listed.stderr
    assert "theorem2" in listed.stdout
    for path in _stdlib_configs(tmp_path):
        proc = subprocess.run([*cli, "--config", str(path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert "PASS" in (tmp_path / "verify.out").read_text()
    assert len((tmp_path / "kernel.out").read_text().splitlines()) == 1 + 6


_UNUSED_BY_KERNEL_AND_STRUCTURE = ("debranges.verify", "dataclasses", "random", "typing")


def test_kernel_and_structure_runs_load_only_what_they_run(tmp_path):
    # python -S, so no site-packages .pth file imports any of these first
    env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
    kernel, structure, _ = (str(p) for p in _stdlib_configs(tmp_path))
    code = (
        "import json, sys\n"
        "loaded = lambda: [m for m in json.loads(sys.argv[1]) if m in sys.modules]\n"
        "import debranges\n"
        "print('import', loaded())\n"
        "import debranges.cli\n"
        "for name, path in (('kernel', sys.argv[2]), ('structure', sys.argv[3])):\n"
        "    assert debranges.cli.main(['--config', path]) == 0, path\n"
        "    print(name, loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(_UNUSED_BY_KERNEL_AND_STRUCTURE), kernel, structure],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import []", "kernel []", "structure []"]
    assert (tmp_path / "kernel.out").stat().st_size and (tmp_path / "structure.out").stat().st_size


def test_verify_pw_example_and_list_checks_load_verify(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
    *_, verify = _stdlib_configs(tmp_path)
    # a tolerance key is checked against verify's table while the config loads
    pw_example = write_config(
        tmp_path, "pw-example.json", command="pw-example", sigma=[[0.0, 1.0], [1.0, 1.0]],
        tolerances={"pw-det-star": 1e-6}, output={"path": str(tmp_path / "pw-example.out")},
    )
    code = (
        "import sys, debranges.cli\n"
        "code = debranges.cli.main(sys.argv[1:])\n"
        "print(code, 'debranges.verify' in sys.modules, 'typing' in sys.modules)\n"
    )
    for argv in (["--config", str(verify)], ["--config", str(pw_example)], ["--list-checks"]):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        # verify itself imports no typing either
        assert proc.stdout.splitlines()[-1] == "0 True False", argv
    assert "PASS" in (tmp_path / "verify.out").read_text()
    assert "PASS" in (tmp_path / "pw-example.out").read_text()


class TestProcessEntry:
    """`main` as the process entry: it freezes the heap, and the exit still flushes stdout."""

    @staticmethod
    def _env():
        return dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))

    def test_only_main_freezes_the_heap(self, tmp_path):
        path = write_config(
            tmp_path, command="kernel", z=[0.5, 0.5], sigma=[[0.0, 1.0], [1.0, 1.0]],
            eval_points=[[0.3, 0.7]], output={"path": str(tmp_path / "kernel.csv")},
        )
        code = (
            "import gc, sys\n"
            "import debranges\n"
            "from debranges import PaleyWiener, build, canonicalize, derive, run_config_checks\n"
            "space, sigma = PaleyWiener(1.0), canonicalize([1j, 1 + 1j])\n"
            "gs = build(space, sigma)\n"
            "derive(gs).eval('E', 0.3 + 0.7j)\n"
            "gs.kernel_row(0.5 + 0.5j)(0.3 + 0.7j)\n"
            "assert all(r.passed for r in run_config_checks(space, sigma, seed=1))\n"
            "import debranges.cli\n"
            "print(gc.get_freeze_count())\n"
            "assert debranges.cli.main(['--config', sys.argv[1]]) == 0\n"
            "print(gc.get_freeze_count())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=self._env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stdout.split())
        assert before == 0
        assert after > 0

    @pytest.mark.parametrize("command", ["kernel", "structure"])
    def test_stdout_matches_the_output_file(self, tmp_path, command):
        # the process writes to stdout at its exit the bytes --output writes to a file
        path = write_config(
            tmp_path, command=command, **POINT_Z[command], sigma=[[0.0, 1.0], [0.0, 1.0], [0.0, 2.0]],
            eval_points=[[0.3, 0.7], [0.0, 1.0], [-0.0004, 1.0009], [-1.2, 0.4]], output={},
        )
        cli = [sys.executable, "-m", "debranges", "--config", str(path)]
        to_stdout = subprocess.run(cli, env=self._env(), capture_output=True)
        assert to_stdout.returncode == 0, to_stdout.stderr
        out = tmp_path / "values.csv"
        to_file = subprocess.run([*cli, "--output", str(out)], env=self._env(), capture_output=True)
        assert to_file.returncode == 0, to_file.stderr
        assert to_file.stdout == b""
        assert len(to_stdout.stdout.splitlines()) == 1 + 4
        assert to_stdout.stdout == out.read_bytes()

    def test_range_error_exit_four(self, tmp_path):
        # sin(conj(z) - w) overflows at Im w = 800: one line on stderr, no traceback
        path = write_config(
            tmp_path, command="kernel", z=[0.5, 0.5], eval_points=[[0.0, 800.0]], output={}
        )
        proc = subprocess.run(
            [sys.executable, "-m", "debranges", "--config", str(path)],
            env=self._env(), capture_output=True, text=True,
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("range error: ")
        assert "Traceback" not in proc.stderr
