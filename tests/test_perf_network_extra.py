"""Additional coverage for the network model, machine helpers and CLI
surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.perf import CORI, MIRA, TITAN, NetworkModel


class TestNetworkModelExtra:
    net = NetworkModel(CORI)

    def test_gather_grows_linearly_in_payload(self):
        t1 = self.net.gather(128, 1e4)
        t2 = self.net.gather(128, 2e4)
        assert t2 > t1
        assert t2 / t1 == pytest.approx(2.0, rel=0.1)

    def test_barrier_latency_only(self):
        t = self.net.barrier(1024)
        assert t == pytest.approx(2 * 10 * CORI.net_latency)

    def test_bcast_log_rounds(self):
        t8 = self.net.bcast(8, 1000)
        t64 = self.net.bcast(64, 1000)
        assert t64 == pytest.approx(2 * t8)

    def test_reduce_single_rank_free(self):
        assert self.net.reduce(1, 1e6) == 0.0
        assert self.net.gather(1, 1e6) == 0.0
        assert self.net.barrier(1) == 0.0

    def test_stage_block_same_node_cheaper(self):
        nbytes = 1e7
        on = self.net.stage_block(nbytes, same_node=True)
        off = self.net.stage_block(nbytes, same_node=False)
        assert on < off


class TestMachineExtra:
    def test_nodes_for(self):
        assert CORI.nodes_for(32) == 1
        assert CORI.nodes_for(33) == 2
        assert MIRA.nodes_for(16_384) == 1024
        assert TITAN.nodes_for(1) == 1

    def test_machine_relative_speeds(self):
        """Haswell cores outpace BG/Q cores; zlib rates reflect the
        measured PNG behaviour on each platform."""
        assert CORI.elem_rate > TITAN.elem_rate > MIRA.elem_rate
        assert CORI.zlib_rate > MIRA.zlib_rate


class TestCLIExtra:
    def test_burstbuffer_experiment_registered(self, capsys):
        from repro.cli import main

        assert main(["run", "burstbuffer"]) == 0
        out = capsys.readouterr().out
        assert "burst buffer" in out
        assert "True" in out
