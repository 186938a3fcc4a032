import numpy as np

from builders import load_tool

TWO_RUNS = [("gresho", 1e-3, 16), ("gresho", 0.1, 16)]


def test_save_then_compare_on_the_same_tree(tmp_path, monkeypatch, capsys):
    tool = load_tool("step_digest")
    monkeypatch.setattr(tool, "RUNS", TWO_RUNS)
    monkeypatch.setattr(tool, "STEPS", 3)
    saved = str(tmp_path / "digests.npz")
    assert tool.main(["--save", saved]) == 0
    assert tool.main(["--compare", saved]) == 0
    out = capsys.readouterr().out
    assert out.count("state bit-identical; reports bit-identical") == 2  # one per run
    assert out.count(" saved, ") == 2  # the saved step peak next to the current one
    assert "largest ratio of max|delta| to the 1-ulp sensitivity: 0\n" in out


def test_compare_exits_1_unless_every_run_is_bit_identical(tmp_path, monkeypatch, capsys):
    tool = load_tool("step_digest")
    monkeypatch.setattr(tool, "RUNS", TWO_RUNS)
    monkeypatch.setattr(tool, "STEPS", 3)
    saved, altered = str(tmp_path / "saved.npz"), str(tmp_path / "altered.npz")
    assert tool.main(["--save", saved]) == 0
    with np.load(saved) as data:
        runs = {k: data[k] for k in data.files}
    runs["gresho_0.001_16.V"][0, 0, 0] += 1e-12
    np.savez(altered, **runs)
    capsys.readouterr()

    assert tool.main(["--compare", saved]) == 0
    assert capsys.readouterr().out.endswith("bit-identical: 2 of 2 runs\n")
    assert tool.main(["--compare", altered]) == 1
    out = capsys.readouterr().out
    assert "state differs" in out
    assert out.endswith("bit-identical: 1 of 2 runs\n")

    del runs["gresho_0.1_16.V"]  # a run the saved file does not hold
    np.savez(altered, **runs)
    assert tool.main(["--compare", altered]) == 1
    out = capsys.readouterr().out
    assert "no saved run" in out
    assert out.endswith("bit-identical: 0 of 2 runs\n")

    step = tool.run

    def failing_at_eps_0_1(name, eps, n, ulp=False):
        if eps == 0.1:
            raise tool.NonPhysicalState("blown up")
        return step(name, eps, n, ulp)

    monkeypatch.setattr(tool, "run", failing_at_eps_0_1)
    assert tool.main(["--compare", saved]) == 1
    out = capsys.readouterr().out
    assert "FAILED: blown up" in out
    assert out.endswith("bit-identical: 1 of 2 runs\n")


def test_compare_exits_1_when_a_step_peak_rises(tmp_path, monkeypatch, capsys):
    tool = load_tool("step_digest")
    monkeypatch.setattr(tool, "RUNS", TWO_RUNS)
    monkeypatch.setattr(tool, "STEPS", 3)
    saved, lowered = str(tmp_path / "saved.npz"), str(tmp_path / "lowered.npz")
    assert tool.main(["--save", saved]) == 0
    with np.load(saved) as data:
        runs = {k: data[k] for k in data.files}
    capsys.readouterr()

    runs["gresho_0.001_16.step_peak"] = runs["gresho_0.001_16.step_peak"] - tool.PEAK_SLACK / 2
    np.savez(lowered, **runs)
    assert tool.main(["--compare", lowered]) == 0  # within the slack
    assert ", risen" not in capsys.readouterr().out

    runs["gresho_0.001_16.step_peak"] = runs["gresho_0.001_16.step_peak"] - tool.PEAK_SLACK
    np.savez(lowered, **runs)
    assert tool.main(["--compare", lowered]) == 1
    out = capsys.readouterr().out
    assert out.count(", risen") == 1
    assert "step peak risen by more than 0.05 state arrays: gresho_0.001_16\n" in out
    assert out.endswith("bit-identical: 2 of 2 runs\n")
