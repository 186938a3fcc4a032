import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("step_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_save_then_compare_on_the_same_tree(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "RUNS", [("gresho", 1e-3, 16)])
    monkeypatch.setattr(tool, "STEPS", 3)
    saved = str(tmp_path / "digests.npz")
    assert tool.main(["--save", saved]) == 0
    assert tool.main(["--compare", saved]) == 0
    out = capsys.readouterr().out
    assert out.count("state bit-identical; reports bit-identical") == 2  # orders 1 and 2
    assert out.count(" saved, ") == 2  # the saved step peak next to the current one
    assert "largest ratio of max|delta| to the 1-ulp sensitivity: 0\n" in out

    # a file saved before the step peak was stored still compares
    with np.load(saved) as data:
        old = {k: data[k] for k in data.files if not k.endswith(".step_peak")}
    np.savez(saved, **old)
    assert tool.main(["--compare", saved]) == 0
    out = capsys.readouterr().out
    assert out.count("state bit-identical; reports bit-identical") == 2
    assert " saved, " not in out
