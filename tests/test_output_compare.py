"""scripts/output_compare.py: the number-by-number gate between two checkouts."""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from output_compare import (  # noqa: E402
    CSV_RUNS, FIRST_LAW_HEADER, Comparison, _runs, first_law_bound, first_law_figures,
)

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


def test_matching_bytes_and_exit_codes_are_identical(capsys):
    comparison = Comparison()
    comparison.digests("sweep", _csv(ROWS).encode(), _csv(ROWS).encode(), 0, 0)
    comparison.csv(_csv(ROWS), _csv(ROWS), "sweep")
    assert comparison.report() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[0] == "parent" and out[1].split()[0] == "root"
    assert out[0].split()[1:] == out[1].split()[1:]
    assert out[-1] == "result: IDENTICAL"


def test_the_same_numbers_in_other_bytes_pass(capsys):
    # 1.5e-3 and 0.0015 are one number written two ways
    other = _csv([ROWS[0].replace("0.0015", "1.5e-3"), ROWS[1]])
    comparison = Comparison()
    comparison.digests("sweep", _csv(ROWS).encode(), other.encode(), 0, 0)
    comparison.csv(_csv(ROWS), other, "sweep")
    assert comparison.report() == 0
    assert comparison.changed["Q1"] == 1
    assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"


def test_an_empty_point_report_is_a_violation(capsys):
    # a point run that exits 2 prints nothing, against a report on the other side
    report = json.dumps({"flags": [], "nullspace_residual": 2.5e-17}, indent=2)
    comparison = Comparison()
    comparison.digests("point", report.encode(), b"", 0, 2)
    comparison.point(report, "", "point")
    assert comparison.report() == 1
    out = capsys.readouterr().out
    assert "VIOLATION point: exit code: 0 != 2" in out
    assert f"VIOLATION point: stdout of {len(report)} and 0 characters, not readable" in out
    assert out.splitlines()[-1] == "result: FAIL"
    # empty on both sides, the stdout itself is no violation
    both = Comparison()
    both.point("", "", "point")
    assert both.errors == []


def test_a_missing_csv_is_reported_by_its_size():
    comparison = Comparison()
    comparison.csv(_csv(ROWS), "", "sweep")
    assert comparison.errors == [f"sweep: CSV of {len(_csv(ROWS))} and 0 characters, "
                                 "not readable on both sides"]


def test_first_law_median_is_the_gates_over_the_leading_records(tmp_path):
    columns = ["sample_index", "bath_model", "Q1", "Q2", "Q3", "W", "Sdot",
               "I12", "I13", "I23", "mibound12", "mibound13", "mibound23", "flags"]
    # relative first-law residuals 1e-16, 3e-16, an error row, then 5e-16
    rows = [[0, 1.0, -0.5, -0.5 + 1e-16], [1, 1.0, -0.5, -0.5 + 3e-16],
            [2, 1.0, -0.5, -0.5], [3, 1.0, -0.5, -0.5 + 5e-16]]
    lines = [ECHO, ",".join(columns)]
    for index, q1, q2, q3 in rows:
        flags = "error:NumericalConsistencyError" if index == 2 else ""
        lines.append(",".join(map(str, [index, "harmonic", q1, q2, q3, 0.0, 0.0,
                                        0, 0, 0, 0, 0, 0, flags])))
    data = ("\n".join(lines) + "\n").encode()
    scratch = tmp_path / "cut.csv"
    got = [first_law_figures(data, records, scratch) for records in (2, 3, None)]
    clean = [[abs(math.fsum(q)) for index, *q in rows[:n] if index != 2] for n in (2, 3, 4)]
    assert got == [(statistics.median(rel), max(rel)) for rel in clean]
    assert first_law_figures(b"", 200, scratch) == (None, None)


def test_a_first_law_regression_past_the_benchmark_bound_fails(capsys):
    bound = first_law_bound()  # the benchmark's, 0.2 when this was written
    assert 0.0 < bound < 1.0
    parent = 4.728448643743028e-15
    tail = 1e-10  # the max is reported, never gated
    comparison = Comparison()
    comparison.first_law("global_scatter", (parent, 0.0), (parent * (1.0 + bound) * 1.01, 0.0),
                         bound)
    # inside the bound, better, or without an output on one side
    comparison.first_law("local_scatter", (parent, 0.0), (parent * (1.0 + bound) * 0.99, tail),
                         bound)
    comparison.first_law("boost_pool", (parent, 0.0), (0.5 * parent, tail), bound)
    comparison.first_law("boost_pool", (None, None), (parent, tail), bound)
    assert comparison.report() == 1
    violations = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("VIOLATION")]
    assert len(violations) == 1
    assert violations[0].startswith("VIOLATION first_law_rel_p50 global_scatter")


def test_first_law_line_prints_both_medians_and_both_maxima(capsys):
    comparison = Comparison()
    comparison.first_law("global_scatter", (4.728448643743028e-15, 2.589e-12),
                         (3.363801354750725e-15, 1.574e-13), 0.2)
    comparison.first_law("boost_pool", (None, None), (4.0143829873014997e-16, 0.0), 0.2)
    lines = [FIRST_LAW_HEADER] + capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["first_law_rel", "p50", "parent", "p50", "root",
                                "max", "parent", "max", "root"]
    assert lines[1].split() == ["global_scatter", "4.728448643743028e-15",
                                "3.363801354750725e-15", "2.589e-12", "1.574e-13"]
    assert lines[2].split() == ["boost_pool", "None", "4.0143829873014997e-16", "None", "0.0"]
    # every value is right-aligned in its heading's column
    assert {len(line) for line in lines} == {len(FIRST_LAW_HEADER)}
    assert comparison.errors == []


def test_each_csv_run_is_one_output_at_one_and_one_at_two_workers():
    runs = [(name, argv) for name, argv, _ in _runs()]
    names = [name for name, _ in runs]
    assert len(set(names)) == len(names)
    for label, _ in CSV_RUNS:
        twins = [(name, argv[-2:]) for name, argv in runs
                 if name.rsplit(" --workers ", 1)[0] == label]
        assert twins == [(f"{label} --workers 1", ["--workers", "1"]),
                         (f"{label} --workers 2", ["--workers", "2"])]


@pytest.mark.parametrize("moved", [(b"# scan=grid config={}\n", 0), (b"", 1)],
                         ids=["bytes", "exit code"])
def test_a_csv_run_that_moves_at_two_workers_fails_on_its_side_alone(capsys, moved):
    outputs = {name: (b"", 0) for name, _, _ in _runs()}
    label = CSV_RUNS[2][0]
    comparison = Comparison()
    comparison.twins("parent", outputs)
    comparison.twins("root", {**outputs, f"{label} --workers 2": moved})
    assert comparison.report() == 1
    out = capsys.readouterr().out.splitlines()
    runs = len(CSV_RUNS)
    assert out[0] == (f"parent  {runs} of {runs} CSV runs write the same bytes and exit code "
                      "at --workers 1 and 2")
    assert out[1].startswith(f"root    {runs - 1} of {runs} ")
    violations = [line for line in out if line.startswith("VIOLATION")]
    what = "bytes at --workers 1 and 2 differ" if moved[0] else \
        "exit code at --workers 1 and 2: 0 != 1"
    assert violations == [f"VIOLATION root {label}: {what}"]
    assert out[-1] == "result: FAIL"
