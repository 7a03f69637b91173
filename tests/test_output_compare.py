"""scripts/output_compare.py: the number-by-number gate between two checkouts."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from output_compare import Comparison  # noqa: E402

ECHO = "# scan=random config={}"
HEADER = "index,Q1,nullspace_residual,flags"
ROWS = ["0,0.0015,2.5e-17,", "1,-0.000725,3.1e-17,warn:SecularValidityWarning"]


def _csv(rows):
    return "\n".join([ECHO, HEADER, *rows]) + "\n"


def _compare(rows_b):
    comparison = Comparison()
    comparison.csv(_csv(ROWS), _csv(rows_b), "sweep")
    return comparison, comparison.report()


def test_identical_outputs_pass_with_nothing_changed(capsys):
    comparison, code = _compare(ROWS)
    assert code == 0
    assert comparison.changed == {"index": 0, "Q1": 0, "nullspace_residual": 0}
    assert "result: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("column,code", [(1, 1), (2, 0)], ids=["Q1", "nullspace_residual"])
def test_a_relative_change_of_1e_8_fails_only_gated_columns(capsys, column, code):
    cells = ROWS[0].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-8))
    comparison, got = _compare([",".join(cells), ROWS[1]])
    assert got == code
    assert comparison.changed[HEADER.split(",")[column]] == 1
    out = capsys.readouterr().out
    assert ("VIOLATION" in out) == bool(code)


def test_a_changed_flags_cell_fails(capsys):
    comparison, code = _compare([ROWS[0], ROWS[1].replace("Secular", "ZeroMode")])
    assert code == 1
    assert any("flags" in error for error in comparison.errors)
    assert "result: FAIL" in capsys.readouterr().out
