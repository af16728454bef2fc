"""Tests for the CFG/dataflow static analyzer (repro.analyze).

Three layers:

- unit tests for the CFG builder, path enumeration, and the worklist
  solvers (the machinery every checker rides on);
- the known-bad corpus under ``tests/analyze_corpus/``: each fixture must
  reproduce its advertised finding -- exact rule id and line -- and the
  path-sensitive rules must attach a CFG path witness;
- engine-level contracts: escape analysis, the SARIF export, CLI exit
  codes, and the shipped tree analyzing clean.
"""

import ast
import json
import os
import textwrap

import pytest

from repro.analyze import analyze_paths, analyze_source, main
from repro.analyze.cfg import build_cfg, enumerate_paths
from repro.analyze.checkers import ALL_CHECKERS, RULE_CATALOG
from repro.analyze.dataflow import FactSolver
from repro.analyze.sarif import to_sarif

_HERE = os.path.dirname(__file__)
_CORPUS = os.path.join(_HERE, "analyze_corpus")
_REPO = os.path.abspath(os.path.join(_HERE, os.pardir))
_SRC_REPRO = os.path.join(_REPO, "src", "repro")


def _analyze(code: str, path: str = "src/repro/somemod.py"):
    return analyze_source(textwrap.dedent(code), path)


def _fn(code: str):
    tree = ast.parse(textwrap.dedent(code))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in snippet")


# --------------------------------------------------------------------------
# CFG construction
# --------------------------------------------------------------------------


class TestCFG:
    def test_straight_line_single_path(self):
        cfg = build_cfg(_fn("def f():\n    x = 1\n    return x\n"))
        paths, complete = enumerate_paths(cfg)
        assert complete
        assert len(paths) == 1

    def test_if_else_two_paths(self):
        cfg = build_cfg(
            _fn(
                """
                def f(a):
                    if a:
                        x = 1
                    else:
                        x = 2
                    return x
                """
            )
        )
        paths, complete = enumerate_paths(cfg)
        assert complete
        assert len(paths) == 2
        kinds = {p.edges[1].kind for p in paths}
        assert kinds == {"true", "false"}

    def test_loop_zero_and_one_iteration(self):
        cfg = build_cfg(
            _fn(
                """
                def f(items):
                    for it in items:
                        use(it)
                    return None
                """
            )
        )
        paths, complete = enumerate_paths(cfg)
        assert complete
        # Zero-iteration path and the single unrolled iteration.
        assert len(paths) == 2
        assert any(any(e.kind == "back" for e in p.edges) for p in paths)

    def test_while_true_has_no_false_exit(self):
        cfg = build_cfg(
            _fn(
                """
                def f(q):
                    while True:
                        if q.done():
                            return q.result()
                """
            )
        )
        header = next(b for b in cfg.blocks if isinstance(b.stmt, ast.While))
        assert all(e.kind != "false" for e in header.succs)

    def test_exception_edge_to_raise_exit(self):
        cfg = build_cfg(_fn("def f():\n    risky()\n    return 1\n"))
        call_block = next(b for b in cfg.blocks if b.line == 2)
        assert any(
            e.kind == "exc" and e.dst is cfg.raise_exit for e in call_block.succs
        )

    def test_try_except_routes_exception_to_handler(self):
        cfg = build_cfg(
            _fn(
                """
                def f():
                    try:
                        risky()
                    except ValueError:
                        recover()
                    return 1
                """
            )
        )
        call_block = next(b for b in cfg.blocks if b.line == 4)
        handler = next(b for b in cfg.blocks if b.label.startswith("except@"))
        assert any(e.dst is handler for e in call_block.succs if e.kind == "exc")

    def test_except_handler_owns_only_its_type(self):
        cfg = build_cfg(
            _fn(
                """
                def f():
                    try:
                        risky()
                    except ValueError:
                        recover()
                """
            )
        )
        handler = next(b for b in cfg.blocks if b.label.startswith("except@"))
        calls = [n for n in handler.walk_owned() if isinstance(n, ast.Call)]
        assert calls == []  # recover() is its own block's statement

    def test_finally_runs_on_both_continuations(self):
        cfg = build_cfg(
            _fn(
                """
                def f():
                    try:
                        risky()
                    finally:
                        cleanup()
                    return 1
                """
            )
        )
        # The finally body is duplicated: one copy on the normal path, one
        # on the exceptional path that continues to raise_exit.
        cleanup_blocks = [b for b in cfg.blocks if b.line == 6]
        assert len(cleanup_blocks) == 2
        paths, complete = enumerate_paths(cfg, include_exc=True)
        assert complete
        exc_paths = [p for p in paths if p.exceptional]
        assert exc_paths and all(
            any(b.line == 6 for b in p.blocks) for p in exc_paths
        )

    def test_return_in_try_runs_finally(self):
        cfg = build_cfg(
            _fn(
                """
                def f():
                    try:
                        return compute()
                    finally:
                        cleanup()
                """
            )
        )
        paths, complete = enumerate_paths(cfg)
        assert complete
        assert all(any(b.line == 6 for b in p.blocks) for p in paths)

    def test_path_cap_reports_incomplete(self):
        branches = "\n".join(
            f"    if a{i}:\n        x = {i}" for i in range(12)
        )
        cfg = build_cfg(_fn(f"def f({', '.join(f'a{i}' for i in range(12))}):\n{branches}\n    return x\n"))
        paths, complete = enumerate_paths(cfg, max_paths=16)
        assert not complete
        assert len(paths) <= 16


# --------------------------------------------------------------------------
# Dataflow solver
# --------------------------------------------------------------------------


class TestSolvers:
    def test_fact_solver_branch_join(self):
        cfg = build_cfg(
            _fn(
                """
                def f(a):
                    if a:
                        x = 1
                    return x
                """
            )
        )

        def transfer(edge, fact):
            if edge.src.line == 4:  # the assignment
                return ("assigned",)
            return (fact,)

        solver = FactSolver(cfg, transfer, "start").solve()
        facts = solver.at(cfg.exit)
        assert facts == {"assigned", "start"}

    def test_fact_solver_witness_ends_at_entry(self):
        cfg = build_cfg(_fn("def f():\n    x = 1\n    return x\n"))
        solver = FactSolver(cfg, lambda e, f: (f,), "init").solve()
        steps = solver.witness(cfg.exit, "init")
        assert steps[0] == "entry"


# --------------------------------------------------------------------------
# Known-bad corpus
# --------------------------------------------------------------------------

#: fixture -> exact expected (rule id, line) findings.
CORPUS_EXPECTATIONS = {
    "rank_guarded_collective.py": {("rank-divergent-collectives", 9)},
    "loop_divergent_collective.py": {("collective-in-rank-loop", 10)},
    "early_exit_collective.py": {("rank-divergent-collectives", 10)},
    "timer_leak_exception.py": {("timer-typestate", 12)},
    "timer_leak_branch.py": {("timer-typestate", 11)},
    "timer_chained_start.py": {("timer-typestate", 10)},
    "memory_label_unpaired.py": {
        ("memory-typestate", 15),
        ("memory-typestate", 18),
        ("memory-typestate", 22),
    },
}

#: Rules that must attach a CFG path witness to every finding.
_PATH_SENSITIVE = {
    "rank-divergent-collectives",
    "collective-in-rank-loop",
    "timer-typestate",
    "memory-typestate",
}

#: Fixtures whose findings come from a module-scope pass, not a CFG path.
_MODULE_SCOPE = {"memory_label_unpaired.py"}


class TestCorpus:
    def test_corpus_is_exhaustive(self):
        files = {f for f in os.listdir(_CORPUS) if f.endswith(".py")}
        assert files == set(CORPUS_EXPECTATIONS)

    @pytest.mark.parametrize("fixture", sorted(CORPUS_EXPECTATIONS))
    def test_fixture_reproduces_advertised_findings(self, fixture):
        path = os.path.join(_CORPUS, fixture)
        with open(path, "r", encoding="utf-8") as fh:
            findings = analyze_source(fh.read(), path)
        got = {(f.rule_id, f.line) for f in findings}
        assert got == CORPUS_EXPECTATIONS[fixture]
        for f in findings:
            if f.rule_id in _PATH_SENSITIVE and fixture not in _MODULE_SCOPE:
                assert f.witness, f"{fixture}: {f.rule_id} finding lacks a path witness"


# --------------------------------------------------------------------------
# Engine contracts
# --------------------------------------------------------------------------


class TestEngine:
    def test_rule_catalog_ids_unique_and_complete(self):
        ids = [r.id for r in RULE_CATALOG]
        assert len(ids) == len(set(ids))
        emitted = {rid for c in ALL_CHECKERS for rid in c.emits}
        assert emitted == set(ids)

    def test_try_finally_timer_is_clean(self):
        out = _analyze(
            """
            def work(registry, comm):
                t = registry.timer("phase")
                t.start()
                try:
                    comm.allreduce(1)
                finally:
                    t.stop()
            """
        )
        assert out == []

    def test_escaped_resource_not_reported(self):
        # A running timer that is returned belongs to the caller.
        out = _analyze(
            """
            def make(registry):
                t = registry.timer("x")
                t.start()
                return t
            """
        )
        assert out == []

    def test_handed_off_resource_not_reported(self):
        # Ownership moves to the foreign call once it succeeds; if it raises,
        # the handler stops the timer (once: a handler owns only its type).
        out = _analyze(
            """
            def hand_off(registry, phases):
                t = registry.timer("x")
                t.start()
                try:
                    phases.adopt(t)
                except Exception:
                    t.stop()
                    raise
            """
        )
        assert out == []

    def test_syntax_error_reported_not_raised(self):
        out = _analyze("def broken(:\n")
        assert [f.rule_id for f in out] == ["syntax-error"]

    def test_shipped_tree_clean(self):
        findings = analyze_paths([_SRC_REPRO])
        assert findings == [], "\n".join(str(f) for f in findings)


class TestSarif:
    def test_sarif_shape_and_code_flows(self):
        path = os.path.join(_CORPUS, "timer_leak_branch.py")
        with open(path, "r", encoding="utf-8") as fh:
            findings = analyze_source(fh.read(), path)
        doc = to_sarif(findings)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert {r.id for r in RULE_CATALOG} <= {r["id"] for r in rules}
        assert {r["defaultConfiguration"]["level"] for r in rules} == {"error"}
        result = run["results"][0]
        assert result["ruleId"] == "timer-typestate"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("timer_leak_branch.py")
        flow = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert flow and flow[0]["location"]["message"]["text"] == "entry"


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "def drain(comm, rank):\n"
            "    for _ in range(rank):\n"
            "        comm.barrier()\n"
        )
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main([str(tmp_path / "missing.py")]) == 2
        out = capsys.readouterr().out
        assert "collective-in-rank-loop" in out
        # Every rule runs and only text and SARIF are written.
        for knob in (["--rules", "bare-time-call"], ["--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                main([str(clean), *knob])
            assert exc.value.code == 2

    def test_sarif_output_file(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        out = tmp_path / "report.sarif"
        assert main([str(dirty), "--format", "sarif", "--output", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "bare-time-call"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULE_CATALOG:
            assert rule.id in out
