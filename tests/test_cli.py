"""Tests for the command-line interface."""

import io
import sys

import pytest

from repro.cli import main
from repro.challenge.format import dumps_instance
from repro.challenge.generator import pressure_instance
from repro.graphs.io import dumps_dimacs
from repro.ir import format_function

#: ``repro allocate --coalescing`` choices: no coalescing, then the light
#: STRATEGY_TABLE rows whose quotient is greedy-k-colourable.
ALLOCATE_COALESCING = (
    "none", "briggs", "briggs_george", "brute", "george", "george_extended",
    "optimistic", "biased", "chordal", "irc",
)


@pytest.fixture
def challenge_file(tmp_path):
    import random

    path = tmp_path / "insts.txt"
    text = "".join(
        dumps_instance(
            pressure_instance(5, 6, rng=random.Random(seed), name=f"p{seed}")
        )
        for seed in range(2)
    )
    path.write_text(text)
    return str(path)


# Hand-written strict-SSA functions with no dead code: the checker
# reports dead definitions (FLOW002) as warnings, so the "clean file"
# fixture must genuinely be clean — randomly generated programs are not.
_CLEAN_IR = """\
func f0 entry entry
entry:
  a = const
  b = const
  c = add a, b
  br c
  -> left, right
left:
  d = add c, a
  -> join
right:
  e = mul c, b
  -> join
join:
  r = phi(left: d, right: e)
  ret r
func f1 entry entry
entry:
  n = const
  one = const
  i0 = const
  -> head
head:
  i = phi(entry: i0, body: i1)
  cond = cmp i, n
  br cond
  -> body, exit
body:
  i1 = add i, one
  -> head
exit:
  ret i
"""


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "funcs.ir"
    path.write_text(_CLEAN_IR)
    return str(path)


class TestInfo:
    def test_prints_stats(self, challenge_file, capsys):
        assert main(["info", challenge_file]) == 0
        out = capsys.readouterr().out
        assert "p0" in out and "p1" in out
        assert "chordal" in out

    def test_dimacs_input(self, tmp_path, capsys):
        import random

        from repro.graphs.generators import random_graph

        path = tmp_path / "g.col"
        path.write_text(dumps_dimacs(random_graph(6, 0.4, random.Random(0))))
        assert main(["info", str(path), "--dimacs"]) == 0
        assert str(path) in capsys.readouterr().out


class TestCoalesce:
    @pytest.mark.parametrize(
        "strategy", ["briggs", "brute", "aggressive", "optimistic", "biased"]
    )
    def test_strategies(self, challenge_file, capsys, strategy):
        assert main(["coalesce", challenge_file, "--strategy", strategy]) == 0
        out = capsys.readouterr().out
        assert strategy in out

    def test_k_override(self, challenge_file, capsys):
        assert main(["coalesce", challenge_file, "--k", "7"]) == 0
        assert " 7 " in capsys.readouterr().out

    def test_missing_k_for_dimacs(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        path.write_text("p edge 2 1\ne 1 2\n")
        assert main(["coalesce", str(path), "--dimacs"]) == 2


class TestAllocate:
    def test_ssa_allocator(self, ir_file, capsys):
        assert main(["allocate", ir_file, "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_chaitin_allocator(self, ir_file, capsys):
        assert main(
            ["allocate", ir_file, "--k", "4", "--allocator", "chaitin"]
        ) == 0
        assert "OK" in capsys.readouterr().out

    # chaitin takes only a conservative test; a name outside the
    # allocate choices exits 2 with the whole list, for either allocator
    @pytest.mark.parametrize("allocator,strategy", [
        pytest.param("chaitin", "bogus", id="bogus"),
        pytest.param("chaitin", "aggressive", id="aggressive"),
        pytest.param("chaitin", "optimistic", id="optimistic"),
        pytest.param("ssa", "bogus", id="ssa-bogus"),
        pytest.param("ssa", "aggressive", id="ssa-aggressive"),
    ])
    def test_chaitin_rejects_non_conservative_coalescing(
        self, ir_file, capsys, allocator, strategy
    ):
        assert main(
            ["allocate", ir_file, "--k", "4", "--allocator", allocator,
             "--coalescing", strategy]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "briggs, briggs_george, brute, george, george_extended" in (
            captured.err
        )
        if strategy != "optimistic":
            assert ", ".join(ALLOCATE_COALESCING) in captured.err

    def test_ssa_allocator_accepts_any_coalescing(self, ir_file, capsys):
        for strategy in ALLOCATE_COALESCING:
            assert main(
                ["allocate", ir_file, "--k", "4", "--coalescing", strategy]
            ) == 0, strategy
            assert capsys.readouterr().out.count("OK") == 2, strategy


class TestGenerate:
    def test_pressure_to_file(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        assert main(
            ["generate", "--count", "2", "--k", "5", "-o", str(out)]
        ) == 0
        text = out.read_text()
        assert text.count("graph ") == 2

    def test_program_kind_stdout(self, capsys):
        assert main(["generate", "--kind", "program", "--count", "1"]) == 0
        assert "graph program0" in capsys.readouterr().out


class TestDot:
    def test_first_instance(self, challenge_file, capsys):
        assert main(["dot", challenge_file]) == 0
        assert capsys.readouterr().out.startswith("graph ")

    def test_named_instance(self, challenge_file, capsys):
        assert main(["dot", challenge_file, "--instance", "p1"]) == 0
        assert "p1" in capsys.readouterr().out

    def test_missing_instance(self, challenge_file, capsys):
        assert main(["dot", challenge_file, "--instance", "zzz"]) == 2


class TestSolveAndScore:
    def test_solve_then_score(self, challenge_file, tmp_path, capsys):
        solutions = tmp_path / "sols.txt"
        assert main(
            ["solve", challenge_file, "--strategy", "brute", "-o", str(solutions)]
        ) == 0
        assert main(["score", challenge_file, str(solutions)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "ok" in out

    def test_score_missing_solution(self, challenge_file, tmp_path, capsys):
        solutions = tmp_path / "sols.txt"
        solutions.write_text("solution p0\n")  # incomplete and missing p1
        assert main(["score", challenge_file, str(solutions)]) == 1
        out = capsys.readouterr().out
        assert "invalid" in out or "missing" in out


class TestCheck:
    def test_clean_ir_file(self, ir_file, capsys):
        assert main(["check", ir_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_clean_challenge_file(self, challenge_file, capsys):
        assert main(["check", challenge_file]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ir"
        path.write_text(
            "func broken entry entry\nentry:\n  ret ghost\n"
        )
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "STRICT001" in out

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "definitely-not-there.ir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["check", str(path)]) == 2

    def test_json_output(self, ir_file, capsys):
        import json

        assert main(["check", ir_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_diagnostics"] == 0
        assert report["severity"] == "warning"
        assert len(report["files"]) == 1

    def test_info_severity_shows_certifications(self, tmp_path, capsys):
        from tests.reference.gadget_programs import rotation_loop

        path = tmp_path / "gadget.ir"
        path.write_text(format_function(rotation_loop(2)))
        assert main(["check", str(path), "--severity", "info"]) == 1
        assert "LIVE004" in capsys.readouterr().out

    def test_budget_flag(self, challenge_file, capsys):
        # a tiny budget degrades to a warning finding, exit 1
        assert main(["check", challenge_file, "--max-steps", "1"]) == 1
        assert "BUDGET001" in capsys.readouterr().out


class TestExitCodes:
    def test_info_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["info", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_info_missing_file(self, capsys):
        assert main(["info", "nope.txt"]) == 2

    def test_coalesce_missing_file(self, capsys):
        assert main(["coalesce", "nope.txt", "--strategy", "briggs"]) == 2

    def test_score_missing_files(self, tmp_path, capsys):
        assert main(["score", "nope.txt", str(tmp_path / "sol.txt")]) == 2

    @pytest.mark.parametrize("argv", [
        ["check"], ["allocate", "--k", "4"], ["info"],
        ["coalesce", "--strategy", "briggs"], ["dot"],
    ])
    @pytest.mark.parametrize("name,content", [
        ("bin.ll", b"\xff\xfe"),
        ("chal.txt", b"graph g 3\nnode a\xff\n"),
    ])
    def test_undecodable_file_exit_two(self, tmp_path, capsys, argv, name,
                                       content):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["generate", "--k", "0"],
        ["generate", "--k", "4", "--margin", "4"],
        ["generate", "--k", "4", "--margin", "-1"],
        ["generate", "--kind", "program", "--k", "-3"],
        ["generate", "--kind", "program", "--k", "1"],
    ])
    def test_generate_bad_k_or_margin_exit_two(self, capsys, argv):
        assert main(argv + ["--count", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["coalesce", "examples/llvm/interp.ll", "--strategy", "briggs",
         "--k", "-1"],
        ["report", "examples/llvm/interp.ll", "--strategy", "briggs",
         "--k", "-1"],
    ])
    def test_negative_k_exit_two(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --k must be >= 0, got -1\n"

    def test_allocate_k_zero_exit_two(self, tmp_path, capsys):
        path = tmp_path / "f.ir"
        path.write_text("func f\nentry:\n  a = op\n  ret a\n")
        assert main(["allocate", str(path), "--k", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --k must be >= 1, got 0\n"

    def test_closed_stdout_exits_141_quietly(self):
        import subprocess
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "generate", "--kind", "program",
             "--count", "2000", "--k", "4", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        )
        with proc.stdout, proc.stderr:
            assert proc.stdout.readline().startswith(b"graph ")
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestCampaignVerify:
    def test_verify_flag_records_certification(self, tmp_path, capsys):
        import json

        spec = tmp_path / "camp.json"
        spec.write_text(json.dumps({
            "name": "verify-test",
            "defaults": {"generator": "pressure", "k": 5, "rounds": 4},
            "grid": {"seed": {"count": 2}, "strategy": ["briggs"]},
        }))
        out = tmp_path / "summary.json"
        status = main([
            "campaign", "run", str(spec), "--verify", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", "-o", str(out),
        ])
        assert status == 0
        summary = json.loads(out.read_text())
        verification = summary["verification"]
        assert verification["enabled"] is True
        assert verification["certified"] == summary["total_tasks"]
        assert verification["failed"] == []
