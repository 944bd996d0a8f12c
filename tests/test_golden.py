"""The golden rows recorded under golden.FAST seconds, run in process.

python tests/golden.py runs every row, each in its own process."""
import pytest

from golden import FAST, ROOT, expected, load_rows, run_in_process

ROWS = [row for row in load_rows() if row["seconds"] < FAST]


def test_the_fast_rows_cover_every_subcommand():
    commands = {"tree", "check", "witness", "equiv", "reiter", "cfw"}
    assert {row["argv"][0] for row in load_rows()} == commands
    assert {row["argv"][0] for row in ROWS} == commands


@pytest.mark.parametrize("row", ROWS, ids=lambda row: " ".join(row["argv"]))
def test_golden_row(row, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_in_process(row["argv"]) == expected(row)
