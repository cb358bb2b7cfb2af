"""The fit-stream-tax repeatability record: compared only within one
program."""

from report import Result
from workloads import check_repeatable, program_fingerprint


def test_fingerprint_follows_the_sources(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    before = program_fingerprint(tmp_path)
    assert program_fingerprint(tmp_path) == before
    (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
    assert program_fingerprint(tmp_path) != before
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a source\n")
    assert program_fingerprint(tmp_path) == before


def test_record_is_compared_within_one_fingerprint(tmp_path):
    state = tmp_path / "state.json"
    res = Result("fit-stream-tax")
    check_repeatable(res, "1/sizes/aaaa", {"mask": "m1"}, state)
    check_repeatable(res, "1/sizes/aaaa", {"mask": "m1"}, state)
    assert res.correct
    check_repeatable(res, "1/sizes/aaaa", {"mask": "m2"}, state)
    assert not res.correct and res.failed == 1


def test_changed_fingerprint_starts_a_fresh_record(tmp_path):
    state = tmp_path / "state.json"
    res = Result("fit-stream-tax")
    check_repeatable(res, "1/sizes/aaaa", {"mask": "m1"}, state)
    # Another version of the program may change the masks legitimately.
    check_repeatable(res, "1/sizes/bbbb", {"mask": "m2"}, state)
    check_repeatable(res, "1/sizes/bbbb", {"mask": "m2"}, state)
    check_repeatable(res, "1/sizes/aaaa", {"mask": "m1"}, state)
    assert res.correct and res.failed == 0
