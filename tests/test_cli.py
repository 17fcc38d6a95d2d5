"""Tests for the command-line interface."""

import asyncio
import pathlib
import threading

import pytest

from repro.cli import _TelemetryFlusher, main


@pytest.fixture
def employee_csv(tmp_path):
    path = tmp_path / "emp.csv"
    path.write_text(
        "Name,Salary\npage,5K\npage,8K\nsmith,3K\nstowe,7K\n"
    )
    return str(path)


@pytest.fixture
def supply_csvs(tmp_path):
    supply = tmp_path / "supply.csv"
    supply.write_text(
        "Company,Receiver,Item\nC1,R1,I1\nC2,R2,I2\nC2,R1,I3\n"
    )
    articles = tmp_path / "articles.csv"
    articles.write_text("Item\nI1\nI2\n")
    return str(supply), str(articles)


class TestCheck:
    def test_inconsistent_exit_code(self, employee_csv, capsys):
        rc = main([
            "check", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 violation(s)" in out
        assert "consistent: False" in out

    def test_consistent_exit_code(self, tmp_path, capsys):
        path = tmp_path / "clean.csv"
        path.write_text("Name,Salary\nsmith,3K\n")
        rc = main([
            "check", "--csv", f"Employee={path}",
            "--fd", "Employee: Name -> Salary",
        ])
        assert rc == 0
        assert "consistent: True" in capsys.readouterr().out

    def test_inclusion_dependency(self, supply_csvs, capsys):
        supply, articles = supply_csvs
        rc = main([
            "check",
            "--csv", f"Supply={supply}",
            "--csv", f"Articles={articles}",
            "--ind", "Supply[Item] <= Articles[Item]",
        ])
        assert rc == 1
        assert "1 violation(s)" in capsys.readouterr().out


class TestRepairs:
    def test_s_repairs(self, employee_csv, capsys):
        rc = main([
            "repairs", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 S-repair(s)" in out
        assert "5K" in out and "8K" in out

    def test_c_repairs_with_insertions(self, supply_csvs, capsys):
        supply, articles = supply_csvs
        rc = main([
            "repairs", "--cardinality",
            "--csv", f"Supply={supply}",
            "--csv", f"Articles={articles}",
            "--ind", "Supply[Item] <= Articles[Item]",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 C-repair(s)" in out


class TestCQA:
    @pytest.mark.parametrize("method", ["enumerate", "rewrite", "sql"])
    def test_all_methods_agree(self, employee_csv, capsys, method):
        rc = main([
            "cqa", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X, Y) :- Employee(X, Y)",
            "--method", method,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "smith,3K" in out
        assert "stowe,7K" in out
        assert "page" not in out

    def test_projection_query(self, employee_csv, capsys):
        rc = main([
            "cqa", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X) :- Employee(X, Y)",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "page" in out


class TestMeasure:
    def test_report(self, employee_csv, capsys):
        rc = main([
            "measure", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "C-repair distance" in out
        assert "0.25" in out


class TestObservabilityFlags:
    def test_trace_writes_jsonl(self, employee_csv, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        rc = main([
            "cqa", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X, Y) :- Employee(X, Y)",
            "--method", "sql",
            "--trace", str(trace),
        ])
        assert rc == 0
        import json

        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line
        ]
        names = {r["name"] for r in records if "name" in r}
        assert "cqa.sql" in names
        metrics_lines = [r for r in records if r.get("kind") == "metrics"]
        assert metrics_lines and "cqa.sql_rows" in metrics_lines[0]["snapshot"]

    def test_metrics_summary_on_stderr(self, employee_csv, capsys):
        rc = main([
            "repairs", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--metrics",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "repairs.s_repairs" in err
        assert "repairs.s_emitted" in err

    def test_no_collector_left_installed(self, employee_csv, capsys):
        from repro import observability

        main([
            "repairs", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--metrics",
        ])
        assert observability.installed() is None


class TestErrors:
    def test_unparsable_fd_exits_nonzero(self, employee_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "check", "--csv", f"Employee={employee_csv}",
                "--fd", "Employee Name Salary",
            ])
        assert excinfo.value.code != 0
        assert "cannot parse --fd" in str(excinfo.value.code)

    def test_unparsable_query_returns_2(self, employee_csv, capsys):
        rc = main([
            "cqa", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "not a query",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unsupported_method_returns_2(self, tmp_path, capsys):
        # Self-joins fall outside C_forest: the rewriting raises a
        # RewritingError, which must surface as exit code 2, not a
        # traceback.
        path = tmp_path / "r.csv"
        path.write_text("A,B\n1,2\n")
        rc = main([
            "cqa", "--csv", f"R={path}", "--fd", "R: A -> B",
            "--query", "Q(X) :- R(X, Y), R(Y, X)",
            "--method", "rewrite",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
    def test_missing_constraints(self, employee_csv):
        with pytest.raises(SystemExit):
            main(["check", "--csv", f"Employee={employee_csv}"])

    def test_missing_csv(self):
        with pytest.raises(SystemExit):
            main(["check", "--fd", "R: a -> b"])

    def test_bad_csv_spec(self):
        with pytest.raises(SystemExit):
            main(["check", "--csv", "nodelimiter", "--fd", "R: a -> b"])

    def test_numeric_coercion(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("K,V\n1,2.5\n1,3.5\n")
        rc = main([
            "repairs", "--csv", f"R={path}", "--fd", "R: K -> V",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 S-repair(s)" in out
        assert "2.5" in out


    def test_non_finite_numerals_stay_strings(self, tmp_path, capsys):
        from repro.cli import _coerce

        assert [_coerce(v) for v in ("Nan", "nan", "inf", "Infinity",
                                     "-inf", "1e999", "2.5", "7")] == [
            "Nan", "nan", "inf", "Infinity", "-inf", "1e999", 2.5, 7,
        ]
        # Two salaries for the surname Nan violate the key, as they
        # would for any other name (a float NaN equals nothing).
        path = tmp_path / "emp.csv"
        path.write_text("Name,Salary\nNan,5K\nNan,8K\n")
        rc = main(["check", "--csv", f"Employee={path}",
                   "--fd", "Employee: Name -> Salary"])
        capsys.readouterr()
        assert rc == 1


class TestBudgetFlags:
    def test_budget_flags_parse_and_complete_run_is_unmarked(
        self, employee_csv, capsys
    ):
        rc = main([
            "repairs", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--timeout", "30", "--max-steps", "1000000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "INCOMPLETE" not in out

    def test_step_budget_marks_output_incomplete(
        self, employee_csv, capsys
    ):
        rc = main([
            "repairs", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--max-steps", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "INCOMPLETE: budget exhausted (steps)" in out

    def test_strict_step_budget_exits_6(self, employee_csv, capsys):
        rc = main([
            "repairs", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--max-steps", "5", "--strict",
        ])
        err = capsys.readouterr().err
        assert rc == 6
        assert "steps" in err

    def test_strict_without_budget_is_a_usage_error(self, employee_csv):
        with pytest.raises(SystemExit):
            main([
                "check", "--csv", f"Employee={employee_csv}",
                "--fd", "Employee: Name -> Salary", "--strict",
            ])


class TestTelemetryFlusher:
    def test_loop_keeps_serving_while_a_write_blocks(self):
        started = threading.Event()
        release = threading.Event()
        writes = []

        def write():
            started.set()
            release.wait(5.0)
            writes.append(release.is_set())

        async def scenario():
            loop = asyncio.get_running_loop()
            flusher = _TelemetryFlusher(write, 0.01)
            assert await loop.run_in_executor(None, started.wait, 5.0)
            # The write is blocked, and the loop still runs callbacks
            # and timers.
            ticks = 0
            for _ in range(5):
                await asyncio.sleep(0.001)
                ticks += 1
            assert ticks == 5 and writes == []
            # close() waits the blocked write out and starts no other.
            closing = asyncio.ensure_future(flusher.close())
            await asyncio.sleep(0.05)
            assert not closing.done()
            release.set()
            await asyncio.wait_for(closing, 5.0)
            assert writes == [True]

        asyncio.run(scenario())

    def test_close_before_the_first_write(self):
        writes = []

        async def scenario():
            flusher = _TelemetryFlusher(lambda: writes.append(1), 60.0)
            await asyncio.sleep(0)
            await flusher.close()

        asyncio.run(scenario())
        assert writes == []
