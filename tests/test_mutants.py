from builders import load_tool


def test_every_mutant_matches_its_module_exactly_once():
    tool = load_tool("mutants")
    assert tool.unmatched() == []
    for module, original, mutant, _ in tool.MUTANTS + tool.EQUIVALENT:
        assert mutant != original, module


def test_a_string_that_no_longer_matches_is_reported(tmp_path):
    tool = load_tool("mutants")
    package = tmp_path / tool.PACKAGE
    package.mkdir(parents=True)
    for module in {m for m, *_ in tool.MUTANTS + tool.EQUIVALENT}:
        (package / module).write_text((tool.ROOT / tool.PACKAGE / module).read_text())
    module, original, _, what = tool.MUTANTS[0]
    (package / module).write_text((package / module).read_text().replace(original, ""))
    assert tool.unmatched(tmp_path) == [f"{module}: {what}: original found 0 times"]


def test_killing_test_is_named_for_failures_and_errors():
    tool = load_tool("mutants")
    failed = (
        "..F\n=========================== short test summary info ============================\n"
        "FAILED tests/test_grid.py::test_ghosts[periodic] - AssertionError: assert False\n"
        "FAILED tests/test_grid.py::test_centres - AssertionError\n"
        "!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
        "1 failed, 2 passed in 0.51s\n"
    )
    errored = (
        "....E\n=========================== short test summary info ============================\n"
        "ERROR tests/test_acceptance.py::test_criterion_07 - allmach.errors.NonPhysicalState: boom\n"
        "4 passed, 1 error in 32.10s\n"
    )
    assert tool.killing_test(failed) == "tests/test_grid.py::test_ghosts[periodic]"
    assert tool.killing_test(errored) == "tests/test_acceptance.py::test_criterion_07"
    assert tool.killing_test("5 passed in 0.20s\n") == ""
