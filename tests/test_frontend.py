"""Tests for repro.frontend: tokenizer, parser, lowering, corpus, CLI.

The frontend is the door for real programs, so these tests hold it to
the same contract as the generators: everything it lowers must
validate, pass the analysis passes, and give the same results as the
dict-of-set references in ``tests/reference`` (the corpus-wide
properties live in ``test_fuzz_invariants.py``).
"""

import json

import pytest

from repro.cli import main
from repro.frontend import (
    FrontendSyntaxError,
    LoweringError,
    corpus_functions,
    corpus_paths,
    function_instance,
    instance_from_path,
    instances_from_path,
    load_functions,
    lower_module,
    parse_module,
    tokenize,
)
from repro.frontend import corpus
from repro.frontend.corpus import cfg_dot, corpus_dir, parse_path
from repro.frontend.parser import parse_module as _parse
from tests import allocation_errors

GCD = """
define i32 @gcd(i32 %a, i32 %b) {
entry:
  %bzero = icmp eq i32 %b, 0
  br i1 %bzero, label %done, label %loop

loop:
  %x = phi i32 [ %a, %entry ], [ %y, %loop ]
  %y = phi i32 [ %b, %entry ], [ %r, %loop ]
  %r = urem i32 %x, %y
  %rzero = icmp eq i32 %r, 0
  br i1 %rzero, label %done, label %loop

done:
  %res = phi i32 [ %a, %entry ], [ %y, %loop ]
  ret i32 %res
}
"""


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------
class TestTokenizer:
    def test_kinds_and_sigil_stripping(self):
        tokens = tokenize('%x = add i32 %"a b", @glob, 42, 0x1F ; note')
        kinds = [(t.kind, t.text) for t in tokens]
        assert ("local", "x") in kinds
        assert ("local", "a b") in kinds  # quoted name unquoted
        assert ("global", "glob") in kinds
        assert ("number", "42") in kinds
        assert ("number", "0x1F") in kinds
        assert all(k != "comment" for k, _ in kinds)

    def test_line_numbers(self):
        tokens = tokenize("define\n\n  ret\n")
        assert [(t.text, t.line) for t in tokens] == [
            ("define", 1), ("ret", 3)]

    def test_metadata_attr_and_ellipsis(self):
        tokens = tokenize("!dbg #0 (...) !42")
        kinds = [(t.kind, t.text) for t in tokens]
        assert ("meta", "dbg") in kinds
        assert ("attr", "#0") in kinds
        assert ("word", "...") in kinds  # '.' is an identifier char
        assert ("meta", "42") in kinds

    def test_unrecognized_character(self):
        with pytest.raises(FrontendSyntaxError) as err:
            tokenize("define i32 @f()\n  ?bad")
        assert err.value.lineno == 2
        assert "unrecognized" in err.value.message
        assert str(err.value).startswith("line 2:")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
class TestParser:
    def test_module_shape(self):
        module = _parse(GCD)
        assert [f.name for f in module.functions] == ["gcd"]
        func = module.function("gcd")
        assert func.params == ["a", "b"]
        assert func.block_labels() == ["entry", "loop", "done"]
        loop = func.blocks[1]
        assert [p.dest for p in loop.phis] == ["x", "y"]
        assert loop.phis[0].incomings[0][1] == "entry"
        assert loop.terminator.targets == ("done", "loop")

    def test_implicit_numbering(self):
        module = _parse("define i32 @f(i32, i32) {\n"
                        "  %t = add i32 %0, %1\n  ret i32 %t\n}\n")
        func = module.functions[0]
        assert func.params == ["0", "1"]
        assert func.blocks[0].label == "2"

    def test_skips_flags_metadata_and_annotations(self):
        module = _parse(
            "define dso_local i32 @f(i32 noundef %x) local_unnamed_addr #0 {\n"
            "  %a = add nsw i32 %x, 1, !dbg !7\n"
            "  %p = alloca i32, align 4\n"
            "  %v = load i32, ptr %p, align 4, !tbaa !3\n"
            "  ret i32 %a\n}\n"
            "attributes #0 = { nounwind \"frame-pointer\"=\"all\" }\n"
            "!7 = !{!\"line\"}\n"
        )
        instrs = module.functions[0].blocks[0].instrs
        assert [i.opcode for i in instrs] == ["add", "alloca", "load", "ret"]

    def test_both_load_styles(self):
        module = _parse(
            "define i32 @f(i32* %p, ptr %q) {\n"
            "  %a = load i32* %p, align 4\n"
            "  %b = load i32, ptr %q\n"
            "  %s = add i32 %a, %b\n  ret i32 %s\n}\n"
        )
        loads = [i for i in module.functions[0].blocks[0].instrs
                 if i.opcode == "load"]
        assert [tuple(o.text for o in i.operands if o.is_local)
                for i in loads] == [("p",), ("q",)]

    def test_switch_multiline(self):
        module = _parse(
            "define void @f(i32 %x) {\n"
            "  switch i32 %x, label %d [\n"
            "    i32 0, label %a\n    i32 1, label %b\n  ]\n"
            "d:\n  ret void\na:\n  ret void\nb:\n  ret void\n}\n"
        )
        term = module.functions[0].blocks[0].terminator
        assert term.targets == ("d", "a", "b")

    @pytest.mark.parametrize("text,line,needle", [
        ("define i32 @f() {\n  ret i32 0\n  %x = add i32 1, 2\n}\n",
         3, "after the terminator"),
        ("define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n"
         "  %p = phi i32 [ %x, %entry ]\n  ret i32 %p\n}\n",
         4, "phi"),
        ("define void @f() {\nentry:\n  br label %entry\n"
         "entry:\n  ret void\n}\n", 4, "duplicate"),
        ("define i32 @f(i32 %x) {\n  %x = add i32 %x, 1\n  ret i32 %x\n}\n",
         2, "redefinition"),
        ("define void @f(ptr %fp) {\n  call void %fp()\n  ret void\n}\n",
         2, "indirect calls"),
        ("define i32 @f() {\n  %v = va_arg ptr null, i32\n  ret i32 %v\n}\n",
         2, "unsupported opcode"),
        # the missing-terminator error anchors at the function header
        ("define i32 @f() {\n  %x = add i32 1, 2\n}\n", 1, "terminator"),
    ])
    def test_malformed_input(self, text, line, needle):
        with pytest.raises(FrontendSyntaxError) as err:
            _parse(text)
        assert err.value.lineno == line, str(err.value)
        assert needle in err.value.message


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------
class TestLowering:
    def test_gcd_shape(self):
        func = lower_module(_parse(GCD))[0]
        assert func.entry == "entry"
        # params are defs at the top of the entry block
        assert [(i.op, i.defs) for i in func.blocks["entry"].instrs[:2]] == [
            ("param", ("a",)), ("param", ("b",))]
        assert func.successors("loop") == ["done", "loop"]
        phi = func.blocks["loop"].phis[0]
        assert phi.target == "x" and phi.args == {"entry": "a", "loop": "y"}
        func.validate()

    def test_copy_ops_become_movs(self):
        func = load_functions(
            "define i32 @f(i32 %x) {\n"
            "  %a = freeze i32 %x\n"
            "  %b = bitcast i32 %a to i32\n"
            "  %c = trunc i32 %b to i16\n"
            "  ret i16 %c\n}\n"
        )[0]
        ops = [(i.op, i.defs, i.uses) for i in func.blocks[func.entry].instrs]
        assert ("mov", ("a",), ("x",)) in ops
        assert ("mov", ("b",), ("a",)) in ops
        assert ("trunc", ("c",), ("b",)) in ops  # width change: not a copy

    def test_phi_constants_materialize_in_pred(self):
        func = load_functions(
            "define i32 @f(i1 %c) {\nentry:\n"
            "  br i1 %c, label %a, label %b\n"
            "a:\n  br label %join\n"
            "b:\n  br label %join\n"
            "join:\n  %v = phi i32 [ 1, %a ], [ 2, %b ]\n  ret i32 %v\n}\n"
        )[0]
        phi = func.blocks["join"].phis[0]
        for pred in ("a", "b"):
            name = phi.args[pred]
            defs = [i for i in func.blocks[pred].instrs if name in i.defs]
            assert len(defs) == 1 and defs[0].op == "const"
        func.validate()

    def test_critical_edge_phi_and_split(self):
        # loop->loop is a critical edge (loop has 2 succs, 2 preds);
        # the lowered phi must survive Function.split_critical_edges
        func = lower_module(_parse(GCD))[0]
        assert func.is_critical_edge("loop", "loop")
        func.split_critical_edges()
        func.validate()
        assert not any(
            func.is_critical_edge(u, v)
            for u in func.block_names() for v in func.successors(u)
        )

    @pytest.mark.parametrize("text,needle", [
        ("define void @f() {\n  br label %nowhere\n}\n", "undefined label"),
        ("define i32 @f() {\n  %x = add i32 %ghost, 1\n  ret i32 %x\n}\n",
         "undefined value"),
        ("define i32 @f(i1 %c) {\nentry:\n"
         "  br i1 %c, label %a, label %join\n"
         "a:\n  br label %join\n"
         "join:\n  %v = phi i32 [ 1, %a ]\n  ret i32 %v\n}\n",
         "predecessors"),
    ])
    def test_structural_errors(self, text, needle):
        with pytest.raises(LoweringError) as err:
            load_functions(text)
        assert needle in err.value.message
        assert err.value.lineno > 0

    def test_duplicate_function_names(self):
        text = "define void @f() {\n  ret void\n}\n" * 2
        with pytest.raises(LoweringError, match="duplicate function"):
            load_functions(text)

    def test_full_stack_allocates(self):
        from repro.allocator import ssa_allocate
        from repro.engine.tasks import STRATEGY_TABLE

        func = lower_module(_parse(GCD))[0]
        result, stats = ssa_allocate(func, 4, STRATEGY_TABLE["brute"].run)
        assert allocation_errors(result) == []
        assert stats.chordal


# ---------------------------------------------------------------------------
# corpus and instances
# ---------------------------------------------------------------------------
class TestCorpus:
    def test_corpus_size_floor(self):
        assert len(corpus_paths()) >= 6
        assert len(corpus_functions()) >= 10

    def test_instances_default_to_maxlive(self):
        from repro.ir.liveness import maxlive

        path = corpus_dir() / "loops.ll"
        instances = instances_from_path(path)
        assert [i.name for i in instances] == [
            "loops:sum_squares", "loops:gcd", "loops:popcount"]
        funcs = load_functions(path.read_text())
        for inst, func in zip(instances, funcs):
            assert inst.k == maxlive(func)

    def test_instance_selection_and_pinning(self):
        import hashlib

        path = corpus_dir() / "loops.ll"
        inst = instance_from_path(path, function="gcd")
        assert inst.name == "loops:gcd"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert instance_from_path(path, sha256=digest).name != ""
        with pytest.raises(ValueError, match="sha256"):
            instance_from_path(path, sha256="0" * 64)
        with pytest.raises(KeyError):
            instance_from_path(path, function="nope")

    def test_corpus_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LLVM_CORPUS", str(tmp_path))
        assert corpus_dir() == tmp_path
        (tmp_path / "one.ll").write_text(
            "define void @f() {\n  ret void\n}\n")
        assert [p.name for p in corpus_paths()] == ["one.ll"]

    def test_cfg_dot(self):
        func = lower_module(_parse(GCD))[0]
        dot = cfg_dot(func)
        assert dot.startswith('digraph "gcd"')
        for block in ("entry", "loop", "done"):
            assert f'"{block}"' in dot
        assert '"loop" -> "done"' in dot and '"loop" -> "loop"' in dot

    def test_weighted_affinities_scale_with_loop_depth(self):
        func = lower_module(_parse(GCD))[0]
        inst = function_instance(func)
        weights = {frozenset((u, v)): w
                   for u, v, w in inst.graph.affinities()}
        # the loop-carried phi affinity outweighs the entry one
        assert weights[frozenset(("x", "y"))] > weights[frozenset(("x", "a"))]


class TestParseMemo:
    """``parse_path`` memoises the parse of identical text per process."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        from repro.engine import tasks

        corpus._parse_memo.cache_clear()
        tasks._build_memo.clear()

    def test_unchanged_content_returns_the_same_module(self, ll_file):
        first = parse_path(ll_file)
        assert parse_path(ll_file) is first
        assert first.source == ll_file

    def test_rewritten_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "f.ll"
        path.write_text(GCD)
        first = parse_path(path)
        path.write_text(GCD.replace("@gcd", "@gcd2"))
        second = parse_path(path)
        assert second is not first
        assert [f.name for f in second.functions] == ["gcd2"]
        assert [f.name for f in first.functions] == ["gcd"]

    def test_sha256_pin_still_checked_when_warm(self):
        path = corpus_dir() / "loops.ll"
        parse_path(path)
        with pytest.raises(ValueError, match="sha256"):
            instance_from_path(path, sha256="0" * 64)

    @pytest.mark.parametrize("strategy", ["briggs", "linear-scan"])
    def test_verified_task_parses_once(self, strategy, monkeypatch):
        from repro.engine.tasks import TaskSpec, run_task

        calls = []

        def counting(text):
            calls.append(text)
            return _parse(text)

        monkeypatch.setattr(corpus, "parse_module", counting)
        spec = TaskSpec(generator="llvm", seed=0, k=0, strategy=strategy,
                        params={"path": "loops.ll", "function": "gcd"})
        record = run_task(spec, verify=True)
        assert record["verification"]["status"] == "certified"
        assert len(calls) == 1

    def test_tasks_leave_the_shared_module_untouched(self):
        """Every e2ebench task shape, verified, on the two largest files:
        the memoised module still equals a fresh parse of its text."""
        from repro.engine.tasks import TaskSpec, run_task
        from repro.ir.liveness import maxlive

        strategies = (
            "briggs", "george", "briggs_george", "george_extended",
            "brute", "aggressive", "optimistic", "biased", "chordal",
            "irc", "interval",
        )
        for name in ("chacha_block.ll", "interp.ll"):
            path = corpus_dir() / name
            module = parse_path(path)
            for func in lower_module(module):
                ml = maxlive(func)
                tasks = [(s, 0) for s in strategies]
                for allocator in ("linear-scan", "second-chance"):
                    tasks.append((allocator, 0))
                    if ml - 1 >= 2:
                        tasks.append((allocator, ml - 1))
                for strategy, k in tasks:
                    spec = TaskSpec(
                        generator="llvm", seed=0, k=k, strategy=strategy,
                        params={"path": name, "function": func.name})
                    assert run_task(spec, verify=True)["status"] == "ok"
            assert parse_path(path) is module
            fresh = _parse(path.read_text())
            fresh.source = str(path)
            assert module == fresh


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------
class TestEngine:
    def test_llvm_generator_runs_and_verifies(self):
        from repro.engine.tasks import TaskSpec, run_task

        spec = TaskSpec(generator="llvm", seed=0, k=0, strategy="briggs",
                        params={"path": "loops.ll", "function": "gcd"})
        record = run_task(spec, verify=True)
        assert record["status"] == "ok"
        assert record["payload"]["instance"] == "loops:gcd"
        assert record["verification"]["status"] == "certified"

    def test_llvm_generator_is_deterministic(self):
        from repro.engine.tasks import TaskSpec, run_task

        spec = TaskSpec(generator="llvm", seed=0, k=0, strategy="brute",
                        params={"path": "basics.ll"})
        first = run_task(spec)
        second = run_task(spec)
        assert first["result_hash"] == second["result_hash"]

    def test_llvm_generator_requires_path(self):
        from repro.engine.tasks import TaskSpec, run_task

        spec = TaskSpec(generator="llvm", seed=0, strategy="briggs")
        with pytest.raises(ValueError, match="path"):
            run_task(spec)

    def test_frontend_campaign_spec_loads(self):
        from repro.engine import load_campaign

        campaign = load_campaign(
            str(corpus_dir().parents[0] / "campaign_frontend.json"))
        generators = {spec.generator for spec in campaign.tasks}
        assert generators == {"llvm", "program"}
        llvm = [s for s in campaign.tasks if s.generator == "llvm"]
        assert len(llvm) == 7 * len(corpus_functions())

    def test_task_shapes_independent_of_hash_seed(self):
        """Every e2ebench task shape (eleven strategies, both allocators
        at k = Maxlive and Maxlive - 1), verified, on the largest corpus
        function and on interp.ll: result_hash and verification status
        are identical under three PYTHONHASHSEED values, so no set
        iteration order leaks into a result."""
        import subprocess
        import sys
        from pathlib import Path

        probe = (
            "import json\n"
            "from repro.engine.tasks import TaskSpec, run_task\n"
            "from repro.frontend.corpus import corpus_dir, parse_path\n"
            "from repro.frontend.lower import lower_module\n"
            "from repro.ir.liveness import maxlive\n"
            "strategies = ('briggs', 'george', 'briggs_george',\n"
            "    'george_extended', 'brute', 'aggressive', 'optimistic',\n"
            "    'biased', 'chordal', 'irc', 'interval')\n"
            "out = []\n"
            "for name, function in (('chacha_block.ll', 'chacha_mix'),\n"
            "                       ('interp.ll', 'interp_run')):\n"
            "    module = parse_path(corpus_dir() / name)\n"
            "    (func,) = [f for f in lower_module(module)\n"
            "               if f.name == function]\n"
            "    ml = maxlive(func)\n"
            "    tasks = [(s, 0) for s in strategies]\n"
            "    for allocator in ('linear-scan', 'second-chance'):\n"
            "        tasks += [(allocator, 0), (allocator, ml - 1)]\n"
            "    for strategy, k in tasks:\n"
            "        spec = TaskSpec(generator='llvm', seed=0, k=k,\n"
            "            strategy=strategy,\n"
            "            params={'path': name, 'function': function})\n"
            "        rec = run_task(spec, verify=True)\n"
            "        out.append([name, strategy, k, rec['status'],\n"
            "                    rec['result_hash'],\n"
            "                    rec['verification']['status']])\n"
            "print(json.dumps(out))\n"
        )
        root = Path(__file__).resolve().parent.parent
        outputs = set()
        for seed in ("0", "42", "1337"):
            proc = subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True, text=True, cwd=str(root),
                env={"PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(root / "src"),
                     "REPRO_LLVM_CORPUS": str(corpus_dir()),
                     "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        records = json.loads(outputs.pop())
        assert len(records) == 2 * (11 + 4)
        assert all(r[3] == "ok" for r in records)
        # the two known COAL004 failures (ROADMAP); every other certifies
        failed = {(r[0], r[1]) for r in records if r[5] != "certified"}
        assert failed == {("chacha_block.ll", "biased"),
                          ("chacha_block.ll", "chordal")}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
@pytest.fixture
def ll_file(tmp_path):
    path = tmp_path / "gcd.ll"
    path.write_text(GCD)
    return str(path)


class TestCLI:
    def test_info(self, ll_file, capsys):
        assert main(["info", ll_file]) == 0
        out = capsys.readouterr().out
        assert "gcd:gcd" in out and "True" in out

    def test_info_k_override(self, ll_file, capsys):
        assert main(["info", ll_file, "--k", "7"]) == 0
        assert " 7 " in capsys.readouterr().out

    def test_check_clean(self, ll_file, capsys):
        assert main(["check", ll_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_json(self, ll_file, capsys):
        assert main(["check", ll_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_diagnostics"] == 0

    def test_coalesce_and_allocate(self, ll_file, capsys):
        assert main(["coalesce", ll_file, "--strategy", "briggs"]) == 0
        assert main(["allocate", ll_file, "--k", "4"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_dot_interference_and_cfg(self, ll_file, capsys):
        assert main(["dot", ll_file]) == 0
        assert capsys.readouterr().out.startswith("graph")
        assert main(["dot", ll_file, "--cfg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "gcd"') and "->" in out

    def test_parse_error_reports_file_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ll"
        path.write_text("define i32 @f() {\n  %x = ??? i32 1\n}\n")
        for command in (["info", str(path)], ["check", str(path)],
                        ["allocate", str(path), "--k", "4"],
                        ["dot", str(path), "--cfg"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert f"{path}:2: " in err

    def test_lowering_error_reports_file_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ll"
        path.write_text("define void @f() {\n  br label %gone\n}\n")
        assert main(["check", str(path)]) == 2
        assert f"{path}:2: " in capsys.readouterr().err

    def test_ir_syntax_error_reports_file_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ir"
        path.write_text("func f\ne:\n  x = phi(no-colon)\n")
        assert main(["check", str(path)]) == 2
        assert f"{path}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["check"], ["allocate", "--k", "3"]])
    def test_ir_cfg_error_reports_file_line(self, argv, tmp_path, capsys):
        path = tmp_path / "bad.ir"
        path.write_text(
            "func f entry entry\nentry:\n  x = const\n  -> join\n"
            "join:\n  y = phi(entry: x, ghost: x)\n  ret y\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert f"{path}:6: " in err
        assert "predecessors are ['entry']" in err

    def test_empty_ll_file(self, tmp_path, capsys):
        path = tmp_path / "empty.ll"
        path.write_text("; only a comment\n")
        assert main(["info", str(path)]) == 2
        assert "error" in capsys.readouterr().err
