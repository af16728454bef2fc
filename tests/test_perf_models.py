"""Tests for the extreme-scale performance models.

These assert the *shape claims* of the paper's figures hold in the model --
the same claims EXPERIMENTS.md records quantitatively.
"""

import numpy as np
import pytest

from repro.perf import CORI, MIRA, TITAN, IOModel, NetworkModel
from repro.perf.apps_model import (
    AVFRun,
    NYX_RUNS,
    PHASTA_RUNS,
    avf_periteration_series,
    avf_strong_scaling,
    nyx_scaling,
    phasta_table2,
)
from repro.perf.events import simulate_staging
from repro.perf.miniapp_model import SCALES, MiniappConfig, MiniappModel


class TestNetworkModel:
    net = NetworkModel(CORI)

    def test_ptp_monotone_in_size(self):
        assert self.net.ptp(1e6) < self.net.ptp(1e7)

    def test_collectives_zero_for_single_rank(self):
        assert self.net.bcast(1, 100) == 0.0
        assert self.net.allreduce(1, 100) == 0.0
        assert self.net.binary_swap(1, 1e6) == 0.0
        assert self.net.direct_send(1, 1e6) == 0.0

    def test_collectives_grow_logarithmically(self):
        r1k = self.net.allreduce(1024, 8)
        r1m = self.net.allreduce(1024 * 1024, 8)
        assert r1m == pytest.approx(2 * r1k)

    def test_binary_swap_beats_direct_send_at_scale(self):
        """The structural reason Catalyst and Libsim composite differently."""
        img = 1920 * 1080 * 4
        for p in (64, 1024, 45440):
            assert self.net.binary_swap(p, img) < self.net.direct_send(p, img)

    def test_binary_swap_traffic_bounded(self):
        """Binary swap's exchange cost approaches ~1 image transfer,
        regardless of P."""
        img = 1e7
        t_small = self.net.binary_swap(16, img)
        t_big = self.net.binary_swap(65536, img)
        assert t_big < 4 * t_small


class TestIOModel:
    io = IOModel(CORI)

    def test_table1_vtk_faster_than_mpiio_everywhere(self):
        for scale, (cores, ppc) in SCALES.items():
            nbytes = cores * ppc * 8
            assert self.io.file_per_process_write(cores, nbytes) < self.io.shared_file_write(cores, nbytes)

    def test_table1_magnitudes(self):
        """Within ~2x of the paper's Table 1 absolutes (same machine)."""
        paper = {"1K": (0.12, 0.40), "6K": (0.67, 3.17), "45K": (9.05, 22.87)}
        for scale, (vtk_ref, mpiio_ref) in paper.items():
            cores, ppc = SCALES[scale]
            nbytes = cores * ppc * 8
            vtk = self.io.file_per_process_write(cores, nbytes)
            mpiio = self.io.shared_file_write(cores, nbytes)
            assert vtk_ref / 2 < vtk < vtk_ref * 2, f"{scale} vtk {vtk}"
            assert mpiio_ref / 2 < mpiio < mpiio_ref * 2, f"{scale} mpiio {mpiio}"

    def test_metadata_term_dominates_at_scale(self):
        """The 45K write cost is metadata-, not bandwidth-, dominated."""
        cores, ppc = SCALES["45K"]
        nbytes = cores * ppc * 8
        transfer_only = nbytes / CORI.io_aggregate_bw
        total = self.io.file_per_process_write(cores, nbytes)
        assert total > 5 * transfer_only

    def test_read_variability_is_real(self):
        samples = self.io.read_samples(4544, 45440, 123e9, n=50, seed=1)
        assert samples.std() / samples.mean() > 0.2

    def test_read_deterministic_without_rng(self):
        a = self.io.read(100, 1000, 1e9)
        b = self.io.read(100, 1000, 1e9)
        assert a == b


class TestMiniappModelShapes:
    @pytest.fixture(params=["1K", "6K", "45K"])
    def model(self, request):
        return MiniappModel(MiniappConfig.at_scale(request.param))

    def test_fig3_sensei_overhead_negligible(self, model):
        """Original vs SENSEI-instrumented: 'no measurable difference'."""
        orig = model.original()
        base = model.baseline()
        assert base.analysis_per_step < 0.001 * base.sim_per_step

    def test_fig4_memory_overhead_negligible(self, model):
        orig = model.original()
        base = model.baseline()
        assert base.high_water_bytes_per_rank == orig.high_water_bytes_per_rank

    def test_fig5_libsim_init_grows_with_scale(self):
        inits = [
            MiniappModel(MiniappConfig.at_scale(s)).libsim_slice().analysis_initialize
            for s in ("1K", "6K", "45K")
        ]
        assert inits[0] < inits[1] < inits[2]
        assert 2.0 < inits[2] < 5.0  # ~3.5 s at 45K

    def test_fig5_autocorr_finalize_nonneg_and_grows(self):
        fins = [
            MiniappModel(MiniappConfig.at_scale(s)).autocorrelation().finalize
            for s in ("1K", "45K")
        ]
        assert fins[0] > 0
        assert fins[1] > fins[0]

    def test_fig6_sim_weak_scales(self):
        """Near-perfect weak scaling of the simulation phase."""
        t1 = MiniappModel(MiniappConfig.at_scale("1K")).sim_step
        t6 = MiniappModel(MiniappConfig.at_scale("6K")).sim_step
        assert t1 == pytest.approx(t6)

    def test_fig6_slice_analysis_grows_with_scale(self, model):
        cat = model.catalyst_slice()
        hist = model.histogram()
        assert cat.analysis_per_step > hist.analysis_per_step

    def test_fig7_memory_ranking(self, model):
        """Slice configs carry the library + framebuffer; histogram ~bins."""
        base = model.baseline().high_water_bytes_per_rank
        hist = model.histogram().high_water_bytes_per_rank
        cat = model.catalyst_slice().high_water_bytes_per_rank
        assert hist - base == model.cfg.bins * 8
        assert cat - base > 80 * 1024 * 1024

    def test_fig10_write_to_sim_ratio_blows_up(self):
        ratios = {}
        for scale in ("1K", "6K", "45K"):
            m = MiniappModel(MiniappConfig.at_scale(scale))
            b = m.baseline_with_writes()
            ratios[scale] = b.write_per_step / b.sim_per_step
        assert ratios["1K"] < 1.0  # "little impact on time to solution"
        assert 2.0 < ratios["6K"] < 8.0  # "about four times"
        assert 12.0 < ratios["45K"] < 30.0  # "about 20x"

    def test_fig11_posthoc_read_dominates_at_scale(self):
        m = MiniappModel(MiniappConfig.at_scale("45K"))
        ph = m.posthoc("histogram")
        sim_total = m.cfg.steps * m.sim_step
        assert 5.0 < ph["read"] / sim_total < 15.0  # "5x to 10x"

    def test_fig12_insitu_beats_posthoc(self):
        """Each in situ configuration vs the *matching* post hoc pipeline
        (write every step + read at 10% cores + the same analysis)."""
        matching = {
            "histogram": "histogram",
            "autocorrelation": "autocorrelation",
            "catalyst-slice": "slice",
            "libsim-slice": "slice",
        }
        for scale in ("1K", "6K", "45K"):
            m = MiniappModel(MiniappConfig.at_scale(scale))
            for b in m.all_insitu_configs():
                if b.config_name not in matching:
                    continue
                insitu_total = b.time_to_solution(m.cfg.steps)
                sim_only = m.cfg.steps * b.sim_per_step
                writes = m.cfg.steps * m.io.file_per_process_write(
                    m.cfg.cores, m.cfg.step_bytes
                )
                ph = m.posthoc(matching[b.config_name])
                posthoc_total = (
                    sim_only + writes + ph["read"] + ph["process"] + ph["write"]
                )
                assert insitu_total < posthoc_total, (scale, b.config_name)

    def test_fig8_flexpath_writer_blocking_appears_when_endpoint_slow(self):
        m = MiniappModel(MiniappConfig.at_scale("6K"))
        fp = m.flexpath("catalyst-slice")
        assert fp["adios_analysis"] > 0
        # ~50% in transit penalty on the Catalyst-slice operation.
        inline = m.catalyst_slice().analysis_per_step
        assert 1.3 < fp["endpoint_analysis"] / inline < 1.7

    def test_fig9_reader_init_cheaper_on_titan(self):
        cfg_c = MiniappConfig.at_scale("6K", machine=CORI)
        cfg_t = MiniappConfig(cores=6496, points_per_core=308_000, machine=TITAN)
        init_c = MiniappModel(cfg_c).flexpath()["endpoint_initialize"]
        init_t = MiniappModel(cfg_t).flexpath()["endpoint_initialize"]
        assert init_c / init_t == pytest.approx(10.0, rel=0.1)

    def test_scale_names(self):
        assert SCALES["1K"][0] == 812
        assert SCALES["6K"][0] == 6496
        assert SCALES["45K"][0] == 45440


class TestStagingSimulator:
    def test_fast_endpoint_no_blocking(self):
        tl = simulate_staging(10, sim_time=1.0, advance_time=0.01, transfer_time=0.05, endpoint_time=0.5)
        assert tl.writer_analysis_mean == pytest.approx(0.05)
        assert sum(tl.endpoint_idle) > 0

    def test_slow_endpoint_blocks_writer(self):
        tl = simulate_staging(20, sim_time=1.0, advance_time=0.0, transfer_time=0.0, endpoint_time=2.0)
        # Steady state: writer waits ~1 s per step.
        assert tl.writer_analysis[-1] == pytest.approx(1.0)
        assert tl.makespan == pytest.approx(1.0 + 20 * 2.0, rel=0.05)

    def test_larger_window_reduces_blocking(self):
        t1 = simulate_staging(20, 1.0, 0.0, 0.0, 1.5, window=1)
        t4 = simulate_staging(20, 1.0, 0.0, 0.0, 1.5, window=4)
        assert sum(t4.writer_analysis) <= sum(t1.writer_analysis)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_staging(0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            simulate_staging(5, 1, 1, 1, 1, window=0)


class TestPhastaTable2:
    def test_percentages_match_paper_band(self):
        paper_pct = {"IS1": 8.2, "IS2": 33.0, "IS3": 13.0}
        for name, run in PHASTA_RUNS.items():
            r = phasta_table2(run)
            assert paper_pct[name] * 0.6 < r.percent_insitu < paper_pct[name] * 1.4, name

    def test_image_size_not_problem_size_drives_cost(self):
        """IS1 vs IS2: image grows, cost jumps; IS2 vs IS3: problem grows
        4.9x, cost ~flat."""
        r1 = phasta_table2(PHASTA_RUNS["IS1"])
        r2 = phasta_table2(PHASTA_RUNS["IS2"])
        r3 = phasta_table2(PHASTA_RUNS["IS3"])
        assert r2.insitu_per_step > 3 * r1.insitu_per_step
        assert abs(r3.insitu_per_step - r2.insitu_per_step) < 0.5

    def test_png_compression_is_the_culprit(self):
        with_c = phasta_table2(PHASTA_RUNS["IS2"], compression=True)
        without = phasta_table2(PHASTA_RUNS["IS2"], compression=False)
        assert with_c.insitu_per_step > 2.5 * without.insitu_per_step
        assert with_c.png_time > 0.5 * with_c.insitu_per_step

    def test_onetime_cost_small_fraction(self):
        for run in PHASTA_RUNS.values():
            r = phasta_table2(run)
            assert r.onetime_cost < 0.01 * r.total_time


class TestAVF:
    def test_libsim_cost_band(self):
        res = avf_strong_scaling(AVFRun(cores=65_536))
        assert 6.0 < res.libsim_per_invocation < 9.0  # "7-8 seconds"
        assert res.sensei_overhead_per_step < 0.5

    def test_avg_added_per_step_band(self):
        for cores in (8192, 32768, 131072):
            res = avf_strong_scaling(AVFRun(cores=cores))
            assert 1.0 < res.libsim_per_invocation / 5 < 2.0  # "1-1.5 s"

    def test_analysis_exceeds_solver_at_scale(self):
        res = avf_strong_scaling(AVFRun(cores=65_536))
        assert res.libsim_per_invocation > res.solver_per_step

    def test_strong_scaling_efficiency_degrades(self):
        t16 = avf_strong_scaling(AVFRun(cores=16_384)).solver_per_step
        t131 = avf_strong_scaling(AVFRun(cores=131_072)).solver_per_step
        ideal = t16 / 8
        assert t131 > ideal * 1.1

    def test_temporal_resolution_gain_3_to_4x(self):
        res = avf_strong_scaling(AVFRun(cores=65_536))
        assert 20.0 < res.posthoc_write_per_step < 30.0  # "approximately 24 s"
        assert 2.5 < res.temporal_resolution_gain < 4.5  # "3-4 times"

    def test_periteration_sawtooth(self):
        series = avf_periteration_series(AVFRun(cores=65_536, steps=20))
        assert len(series) == 20
        expensive = [s for i, s in enumerate(series, 1) if i % 5 == 0]
        cheap = [s for i, s in enumerate(series, 1) if i % 5 != 0]
        assert min(expensive) > 10 * max(cheap)
        assert all(c < 0.5 for c in cheap)
        assert all(6.5 < e < 9.5 for e in expensive)


class TestNyx:
    def test_analysis_negligible_vs_solver(self):
        for run in NYX_RUNS:
            r = nyx_scaling(run)
            assert r.histogram_per_step < 1.0
            assert r.slice_per_step < 1.0
            assert r.solver_per_step > 50 * r.slice_per_step

    def test_solver_times_match_paper_band(self):
        paper = {1024: 67.5, 2048: 90.0, 4096: 202.0}
        for run in NYX_RUNS:
            r = nyx_scaling(run)
            assert paper[run.grid] * 0.6 < r.solver_per_step < paper[run.grid] * 1.4

    def test_plotfile_cost_matches_paper_band(self):
        paper = {1024: 17.0, 2048: 80.0, 4096: 312.0}
        for run in NYX_RUNS:
            r = nyx_scaling(run)
            assert paper[run.grid] * 0.5 < r.plotfile_write < paper[run.grid] * 2.0

    def test_memory_overheads(self):
        r = nyx_scaling(NYX_RUNS[0])
        assert r.ghost_bytes_per_rank == 2 * 1024 * 1024
        assert 200e6 < r.slice_extra_bytes < 320e6

    def test_insitu_amortizes_skipped_plotfiles(self):
        """'each plot file that does not need to be written saves
        significant time'"""
        for run in NYX_RUNS:
            r = nyx_scaling(run)
            per_step_insitu = r.histogram_per_step + r.slice_per_step
            assert r.plotfile_write > 10 * per_step_insitu


class TestHostCalibration:
    def test_rates_positive_and_ordered(self):
        from repro.perf.calibrate import calibrate_host

        cal = calibrate_host(n=32, window=4, image=128)
        assert cal.oscillator_rate > 0
        assert cal.histogram_rate > 0
        assert cal.autocorr_rate > cal.oscillator_rate  # vectorized MACs
        assert cal.zlib_rate > 1e6
        assert cal.hist_factor > 0.1
        assert cal.autocorr_factor > 0.1
