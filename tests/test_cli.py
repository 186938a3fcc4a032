import hashlib
import shlex
from pathlib import Path

import numpy as np
import pytest

from allmach import cli
from allmach.benchmarks import CASES
from allmach.errors import NoConvergence, NonPhysicalState
from allmach.snapshots import snapshot_read, snapshot_rows


def test_run_writes_final_snapshot(tmp_path, capsys):
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "12",
        "--t-final", "0.02", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    snaps = sorted(tmp_path.glob("gresho_t*.dat"))
    assert len(snaps) == 1
    header, rows = snapshot_read(snaps[0])
    assert header["nx"] == 12
    assert rows.shape[0] == 144
    out = capsys.readouterr().out
    assert "gresho" in out and "steps" in out


def test_run_summary_counts_rejected_steps(capsys):
    code = cli.main(["run", "--case", "explosion", "--eps", "0.3", "--nx", "24"])
    assert code == 0
    assert capsys.readouterr().out.startswith("explosion: 10 steps (1 rejected) to t=0.08 ")


def test_failed_run_names_the_copy_that_failed(tmp_path, capsys):
    # at eps 0.1 the blend still reads the conservative copy, which loses
    # positivity first while the primitive state stays valid
    code = cli.main(["run", "--case", "gresho", "--eps", "0.1", "--nx", "32", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("non-physical state: step 11, t=")
    assert ": conservative copy: non-positive " in err


def test_summary_prints_diagnostics_only_after_a_step(capsys):
    args = ["run", "--case", "gresho", "--eps", "0.1", "--nx", "8", "--t-final"]
    assert cli.main(args + ["0"]) == 0
    assert capsys.readouterr().out == "gresho: 0 steps (0 rejected) to t=0 (eps=0.1, 8x8)\n"
    assert cli.main(args + ["0.01"]) == 0
    assert "; max|div u|=" in capsys.readouterr().out


def test_run_snapshot_times(tmp_path):
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "10",
        "--t-final", "0.02", "--snap-times", "0.01", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    names = {p.name for p in tmp_path.glob("*.dat")}
    assert "gresho_t0.010000.dat" in names
    assert "gresho_t0.020000.dat" in names


def counting_writes(monkeypatch) -> list:
    """Route cli.snapshot_write through a recorder; returns the paths written."""
    paths = []
    write = cli.snapshot_write

    def recording(state, grid, cfg, path):
        paths.append(path.name)
        write(state, grid, cfg, path)

    monkeypatch.setattr(cli, "snapshot_write", recording)
    return paths


def test_snap_time_at_final_time_is_written_once(tmp_path, monkeypatch):
    paths = counting_writes(monkeypatch)
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "10",
        "--t-final", "0.02", "--snap-times", "0.01,0.02", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert sorted(paths) == ["gresho_t0.010000.dat", "gresho_t0.020000.dat"]


@pytest.mark.parametrize("spec,first,second,name", [
    ("0.0100001,0.0100004,0.0199999", "0.0100001", "0.0100004", "gresho_t0.010000.dat"),
    ("0.0199999", "0.0199999", "0.02", "gresho_t0.020000.dat"),  # the final file
])
def test_snap_times_sharing_a_file_name_are_config_error(
    tmp_path, monkeypatch, capsys, spec, first, second, name
):
    paths = counting_writes(monkeypatch)
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "10", "--t-final", "0.02",
        "--snap-times", spec, "--out-dir", str(tmp_path),
    ])
    assert code == 4
    assert paths == []
    err = capsys.readouterr().err
    assert f"{first} and {second}" in err and name in err


def test_repeated_snap_time_shares_its_file(tmp_path, monkeypatch):
    paths = counting_writes(monkeypatch)
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "10",
        "--t-final", "0.02", "--snap-times", "0.01,0.01", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert paths == ["gresho_t0.010000.dat", "gresho_t0.020000.dat"]


def test_snap_time_at_start_holds_initial_state(tmp_path, monkeypatch):
    paths = counting_writes(monkeypatch)
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "10",
        "--t-final", "0.02", "--snap-times", "0,0.01", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert paths == ["gresho_t0.000000.dat", "gresho_t0.010000.dat", "gresho_t0.020000.dat"]
    header, rows = snapshot_read(tmp_path / "gresho_t0.000000.dat")
    grid, cfg, initial = CASES["gresho"].start(0.1, 10, 10)
    assert header["time"] == 0.0
    assert np.array_equal(rows, snapshot_rows(initial, grid, cfg))


def test_snap_time_before_the_start_is_config_error(tmp_path, monkeypatch, capsys):
    paths = counting_writes(monkeypatch)
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "8", "--t-final", "0.01",
        "--snap-times=-0.5,0", "--out-dir", str(tmp_path),
    ])
    assert code == 4
    assert paths == []
    assert "snapshot time -0.5 precedes the start" in capsys.readouterr().err


@pytest.mark.golden
def test_snapshot_series_golden(tmp_path, capsys):
    # a snapshot at the start, forced steps that cross a snapshot time, a
    # repeated time and the final file; digest over sorted names and bytes
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "16", "--t-final", "0.02",
        "--snap-times", "0,0.0025,0.01,0.01", "--dt-override", "4:1e-3",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("gresho: 6 steps (0 rejected) to t=0.02 ")
    paths = sorted(tmp_path.glob("*.dat"))
    assert [p.name for p in paths] == [
        "gresho_t0.000000.dat", "gresho_t0.002500.dat",
        "gresho_t0.010000.dat", "gresho_t0.020000.dat",
    ]
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    assert digest.hexdigest() == (
        "6102f110a4756faf1b349df085f833176f51402fc090fba912a6b472f8bbfade"
    )


def test_unknown_case_is_config_error(capsys):
    assert cli.main(["run", "--case", "nonsense"]) == 4


def test_malformed_dt_override_is_config_error(tmp_path):
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "8",
        "--t-final", "0.01", "--dt-override", "abc",
    ])
    assert code == 4


def test_config_file_supplies_values_and_flags_win(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# gresho at a moderate Mach number\n"
        "case = gresho\n"
        "\n"
        "eps = 0.1\n"
        "nx = 8\n"
        "t-final = 0.01  # inline comment\n"
    )
    out_dir = tmp_path / "out"
    code = cli.main([
        "run", "--config", str(cfg_file), "--nx", "10", "--out-dir", str(out_dir),
    ])
    assert code == 0
    header, _ = snapshot_read(next(out_dir.glob("*.dat")))
    assert header["nx"] == 10  # flag beats file
    assert header["eps"] == 0.1  # file beats default


@pytest.mark.parametrize(
    "line, key",
    [("epss = 0.1", "epss"), ("elliptic-tol = 1e-3", "elliptic_tol"), ("order = 2", "order")],
)
def test_config_file_unknown_key_is_config_error(tmp_path, capsys, line, key):
    # a misspelt or removed key must not be silently ignored
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"case = gresho\nnx = 8\nt-final = 0.01\n{line}\n")
    assert cli.main(["run", "--config", str(cfg_file)]) == 4
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_config_file_line_without_equals_is_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("case = gresho\n# nx = 8\nnx 8\n")
    assert cli.main(["run", "--config", str(cfg_file)]) == 4
    assert f"{cfg_file}:3: expected key = value" in capsys.readouterr().err


def test_config_file_value_is_parsed_like_its_flag(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("case = gresho\nnx = 8\nt-final = 0.01\ndt-override = abc\n")
    assert cli.main(["run", "--config", str(cfg_file)]) == 4
    assert "--dt-override" in capsys.readouterr().err


def test_convergence_config_file_rejects_run_only_key(tmp_path, capsys):
    cfg_file = tmp_path / "conv.cfg"
    cfg_file.write_text("case = vortex\nnx = 8\n")
    assert cli.main(["convergence", "--config", str(cfg_file)]) == 4
    assert "unknown key 'nx'" in capsys.readouterr().err


def test_convergence_lists_from_config_file_match_flags(tmp_path, capsys):
    flags = ["--eps-list", "1.0,0.5", "--n-list", "8,12"]
    assert cli.main(["convergence", "--case", "vortex", "--t-final", "0.01", *flags]) == 0
    from_flags = capsys.readouterr().out
    cfg_file = tmp_path / "conv.cfg"
    cfg_file.write_text("case = vortex\neps-list = 1.0,0.5\nn-list = 8,12\n")
    assert cli.main(["convergence", "--config", str(cfg_file), "--t-final", "0.01"]) == 0
    assert capsys.readouterr().out == from_flags


@pytest.mark.parametrize("argv", [
    ["diagnose", "--cfl", "0.1"],
    ["convergence", "--case", "vortex", "--nx", "64"],
    ["run", "--case", "gresho", "--order", "2"],
    ["convergence", "--case", "vortex", "--order", "1"],
])
def test_flag_the_subcommand_does_not_read_is_usage_error(argv):
    assert cli.main(argv) == 4


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.cfg")]) == 4


def test_convergence_subcommand(tmp_path, capsys):
    code = cli.main([
        "convergence", "--case", "vortex", "--eps-list", "1.0",
        "--n-list", "12,24", "--t-final", "0.01", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "L1(rho)" in out
    table = (tmp_path / "convergence_vortex.dat").read_text()
    assert table.startswith("n eps")
    assert len(table.strip().splitlines()) == 3


@pytest.mark.parametrize("flag, value, name", [
    ("--n-list", "", "n_list"), ("--eps-list", ",", "eps_list"),
])
def test_convergence_empty_sweep_is_config_error(capsys, flag, value, name):
    code = cli.main(["convergence", "--case", "vortex", "--t-final", "0.01", flag, value])
    assert code == 4
    captured = capsys.readouterr()
    assert f"{name} is empty" in captured.err and captured.out == ""


def test_empty_snap_times_write_only_the_final_file(tmp_path):
    code = cli.main([
        "run", "--case", "gresho", "--eps", "0.1", "--nx", "10",
        "--t-final", "0.02", "--snap-times", "", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert [p.name for p in tmp_path.glob("*.dat")] == ["gresho_t0.020000.dat"]


def test_final_time_before_the_start_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    for t_final, message in (
        ("-1", "t_final precedes the current time"),
        ("nan", "t_final must be finite"),
        ("inf", "t_final must be finite"),
    ):
        code = cli.main([
            "run", "--case", "gresho", "--nx", "8", "--t-final", t_final, "--out-dir", str(out),
        ])
        assert code == 4, t_final
        assert message in capsys.readouterr().err
        assert not out.exists(), t_final


@pytest.mark.parametrize("argv", [
    ["run", "--case", "gresho", "--eps", "0.1", "--nx", "8", "--t-final", "0.001"],
    ["convergence", "--case", "vortex", "--n-list", "8", "--t-final", "0.001"],
], ids=["run", "convergence"])
def test_out_dir_at_or_under_a_file_is_config_error(tmp_path, capsys, argv):
    # rejected before the first step, where mkdir would fail after the work
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out_dir in (taken, taken / "sub"):
        assert cli.main(argv + ["--out-dir", str(out_dir)]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: --out-dir {out_dir}: {taken} is not a directory\n"
        assert captured.out == ""
    assert taken.read_text() == "kept"


def test_nonphysical_state_maps_to_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_run", lambda ns: (_ for _ in ()).throw(NonPhysicalState("boom")))
    assert cli.main(["run", "--case", "gresho"]) == 2


def test_no_convergence_maps_to_exit_3(monkeypatch):
    monkeypatch.setattr(
        cli, "cmd_run", lambda ns: (_ for _ in ()).throw(NoConvergence("boom"))
    )
    assert cli.main(["run", "--case", "gresho"]) == 3


def test_internal_key_error_is_not_a_config_error(monkeypatch):
    monkeypatch.setattr(cli, "cmd_run", lambda ns: {}["missing"])
    with pytest.raises(KeyError):
        cli.main(["run", "--case", "gresho"])


def test_blowup_run_exits_with_failure_code(tmp_path, capsys):
    # oversized forced steps on the explosion: aborts via 2 or 3 depending on
    # which guard trips first; a forced step is not retried, and the message
    # names the step that failed
    code = cli.main([
        "run", "--case", "explosion", "--eps", "1.0", "--nx", "12",
        "--t-final", "0.25", "--dt-override", "5:0.5",
    ])
    assert code in (2, 3)
    assert "step 0, t=0: " in capsys.readouterr().err


def test_negative_cfl_is_config_error(tmp_path, capsys):
    # a non-positive or non-finite CFL number must not reach the stepper (0
    # never advances, nan and inf give a non-finite step)
    for cfl in ("-0.5", "nan", "inf"):
        code = cli.main([
            "run", "--case", "gresho", "--nx", "8", "--t-final", "0.01", "--cfl", cfl,
            "--out-dir", str(tmp_path),
        ])
        assert code == 4, cfl
        assert "k_cfl must be positive" in capsys.readouterr().err
        assert list(tmp_path.glob("*.dat")) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--snap-times", "0.005,nan", "invalid float_list value"),
    ("--dt-override", "2:nan", "positive finite step"),
    ("--dt-override", "2:inf", "positive finite step"),
])
def test_non_finite_run_input_is_config_error(tmp_path, capsys, flag, value, message):
    code = cli.main([
        "run", "--case", "gresho", "--nx", "8", "--t-final", "0.01", flag, value,
        "--out-dir", str(tmp_path),
    ])
    assert code == 4
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("*.dat")) == []


@pytest.mark.parametrize("case, eps, message", [
    ("baroclinic", "0", "epsilon must lie in (0, 1]"),  # the domain divides by eps
    ("baroclinic", "-1", "epsilon must lie in (0, 1]"),
    ("gresho", "1e-158", "1/epsilon^2 overflows"),
    ("gresho", "1e-200", "1/epsilon^2 overflows"),
])
def test_mach_number_out_of_range_is_config_error(capsys, case, eps, message):
    assert cli.main(["run", "--case", case, f"--eps={eps}", "--nx", "8"]) == 4
    assert message in capsys.readouterr().err


def test_convergence_config_error_exits_4(capsys):
    code = cli.main([
        "convergence", "--case", "vortex", "--n-list", "8", "--t-final", "0.01", "--theta", "3",
    ])
    assert code == 4
    assert "theta must lie in [1, 2]" in capsys.readouterr().err


def test_usage_error_exits_4():
    assert cli.main(["run", "--bogus-flag"]) == 4


def test_run_without_case_is_config_error(capsys):
    assert cli.main(["run", "--nx", "8"]) == 4
    assert "--case" in capsys.readouterr().err


def test_diagnose_probes_pass(capsys):
    code = cli.main(["diagnose", "--eps", "1e-2", "--nx", "32"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3


def test_diagnose_fails_at_the_round_off_floor(capsys):
    # gresho's fluctuation at eps 1e-9 on 16^2 is exactly 0: the ratio is
    # inf, a failed probe rather than a division error
    code = cli.main(["diagnose", "--eps", "1e-8", "--nx", "16"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.count("PASS ") == 2
    assert out.endswith("FAIL pressure-scaling: fluctuation ratio inf (target 100)\n")
    assert out.count("FAIL ") == 1
    assert err == ""


def readme_commands() -> list[str]:
    """Every ``allmach ...`` line in README's code blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("allmach ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 4
    for line in commands:
        cli.build_parser().parse_args(shlex.split(line)[1:])
