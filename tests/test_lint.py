"""Rule-level cases for ``repro.analyze``: one rule answers each question.

``TestAnalysisSimImport`` and ``TestBareTimeCall`` cover the two syntactic
contract rules.  The rank-branch, timer balance and memory pairing classes
hold the cases of the retired syntactic twins, each now answered by its
path-sensitive rule (``rank-divergent-collectives``, ``timer-typestate``,
``memory-typestate``) with the full checker set enabled.
"""

import os
import textwrap
import tokenize

from repro.analyze import RULE_CATALOG, analyze_paths, analyze_source, main
from repro.analyze.checkers.contracts import ALL_RULES, CONTRACT_CHECKERS

_SRC_REPRO = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _lint(code: str, path: str = "src/repro/somemod.py"):
    return analyze_source(textwrap.dedent(code), path)


def _ids(violations):
    return [v.rule_id for v in violations]


class TestCollectiveInRankBranch:
    def test_seeded_violation_caught(self):
        out = _lint(
            """
            def exchange(comm):
                if comm.rank == 0:
                    comm.barrier()
            """
        )
        assert _ids(out) == ["rank-divergent-collectives"]
        assert "barrier" in out[0].message
        assert out[0].line == 3  # the rank-dependent ``if``

    def test_collective_after_rank_branch_ok(self):
        out = _lint(
            """
            def setup(comm):
                if comm.rank == 0:
                    prepare()
                comm.barrier()
            """
        )
        assert out == []

    def test_self_rank_attribute_detected(self):
        out = _lint(
            """
            class A:
                def go(self):
                    if self._rank == self.root:
                        self.comm.reduce(x)
            """
        )
        assert _ids(out) == ["rank-divergent-collectives"]

    def test_non_comm_receiver_ignored(self):
        out = _lint(
            """
            def f(rank, path, net):
                if rank == 0:
                    parts = path.split(".")
                    cost = net.reduce(64, 8)
            """
        )
        assert out == []

    def test_mpi_package_exempt(self):
        out = _lint(
            """
            def broadcast(comm, root):
                if comm.rank == root:
                    comm.bcast(1)
            """,
            path="src/repro/mpi/communicator.py",
        )
        assert out == []


class TestTimerBalance:
    def test_seeded_unbalanced_start_caught(self):
        out = _lint(
            """
            def work(timers):
                t = timers.timer("phase")
                t.start()
                compute()
            """
        )
        assert _ids(out) == ["timer-typestate"]
        assert "'t'" in out[0].message

    def test_balanced_pair_ok(self):
        out = _lint(
            """
            def work(timers):
                t = timers.timer("phase")
                t.start()
                try:
                    compute()
                finally:
                    t.stop()
            """
        )
        assert out == []

    def test_chained_start_caught(self):
        out = _lint(
            """
            def work(timers):
                timers.timer("phase").start()
            """
        )
        assert _ids(out) == ["timer-typestate"]
        assert "chained" in out[0].message

    def test_unrelated_start_calls_ignored(self):
        out = _lint(
            """
            import threading

            def work():
                thread = threading.Thread(target=run)
                thread.start()
            """
        )
        assert out == []


class TestMemoryPairing:
    def test_seeded_unpaired_allocate_caught(self):
        out = _lint(
            """
            class A:
                def initialize(self):
                    self.memory.allocate(1024, label="a::buffer")
            """
        )
        assert _ids(out) == ["memory-typestate"]
        assert "a::buffer" in out[0].message

    def test_free_without_allocate_caught(self):
        out = _lint(
            """
            def teardown(memory):
                memory.free(1024, label="b::buffer")
            """
        )
        assert _ids(out) == ["memory-typestate"]
        assert "never allocate()d" in out[0].message

    def test_paired_labels_ok(self):
        out = _lint(
            """
            class A:
                def initialize(self):
                    self.memory.allocate(1024, label="a::buffer")

                def finalize(self):
                    self.memory.free(1024, label="a::buffer")
            """
        )
        assert out == []

    def test_dynamic_labels_ignored(self):
        out = _lint(
            """
            def work(memory, label):
                memory.allocate(1024, label=label)
            """
        )
        assert out == []

    def test_add_static_not_matched(self):
        out = _lint(
            """
            def init(memory):
                memory.add_static(1024, label="lib::static")
            """
        )
        assert out == []


class TestAnalysisSimImport:
    def test_seeded_violation_caught(self):
        out = _lint(
            """
            from repro.miniapp import OscillatorSimulation
            """,
            path="src/repro/analysis/evil.py",
        )
        assert _ids(out) == ["analysis-sim-import"]
        assert "repro.miniapp" in out[0].message

    def test_infrastructure_also_covered(self):
        out = _lint(
            "import repro.apps.nyx_proxy\n",
            path="src/repro/infrastructure/evil.py",
        )
        assert _ids(out) == ["analysis-sim-import"]

    def test_dataadaptor_import_ok(self):
        out = _lint(
            "from repro.core.adaptors import DataAdaptor\n",
            path="src/repro/analysis/fine.py",
        )
        assert out == []

    def test_rule_scoped_to_decoupled_dirs(self):
        out = _lint(
            "from repro.miniapp import OscillatorSimulation\n",
            path="src/repro/perf/calibrate.py",
        )
        assert out == []


class TestBareTimeCall:
    def test_seeded_violation_caught(self):
        out = _lint(
            """
            import time

            def measure():
                t0 = time.time()
                compute()
                return time.time() - t0
            """
        )
        assert _ids(out) == ["bare-time-call", "bare-time-call"]

    def test_perf_counter_ok(self):
        out = _lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """
        )
        assert out == []

    def test_timers_module_exempt(self):
        out = _lint(
            "import time\nnow = time.time()\n",
            path="src/repro/util/timers.py",
        )
        assert out == []


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        out = _lint("def broken(:\n")
        assert _ids(out) == ["syntax-error"]

    def test_pragma_for_other_rule_does_not_waive(self):
        # No comment waives a finding: the retired pragma syntax is plain
        # text, whichever rule it names.
        out = _lint(
            """
            def measure():
                start = time.time()  # analyze: allow(timer-typestate)
                # analyze: allow(bare-time-call)
                return time.time() - start
            """
        )
        assert _ids(out) == ["bare-time-call", "bare-time-call"]

    def test_rule_ids_unique(self):
        ids = [r.id for r in ALL_RULES]
        assert len(ids) == len(set(ids)) == 2

    def test_shipped_tree_is_clean(self):
        assert analyze_paths([_SRC_REPRO], checkers=CONTRACT_CHECKERS) == []

    def test_shipped_tree_has_no_pragmas(self):
        waivers = []
        for root, _, files in os.walk(_SRC_REPRO):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    for tok in tokenize.tokenize(fh.readline):
                        if tok.type == tokenize.COMMENT and "analyze: allow" in tok.string:
                            waivers.append(f"{path}:{tok.start[0]}")
        assert waivers == []

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main([str(tmp_path / "missing.py")]) == 2
        out = capsys.readouterr().out
        assert "bare-time-call" in out

    def test_main_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(RULE_CATALOG) == 6
        for rule in RULE_CATALOG:
            assert rule.id in out
