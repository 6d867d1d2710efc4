"""Tests for processors, interconnects, platforms, and power accounting."""

import pytest

from repro.mpsoc import (
    DSP,
    ME_ACCEL,
    RISC_CPU,
    Crossbar,
    InterconnectSpec,
    MeshNoC,
    Platform,
    Processor,
    ProcessorType,
    SharedBus,
    battery_life_hours,
    homogeneous,
    integrate_energy,
    symmetric_multicore,
)
from repro.core import DEVICES


class TestProcessorType:
    def test_dsp_macs_faster_than_risc(self):
        ops = {"mac": 1_000_000}
        assert DSP.time_for(ops) < RISC_CPU.time_for(ops)

    def test_cycles_use_fallback_for_unknown_class(self):
        pt = ProcessorType("x", clock_mhz=100.0, fallback=0.5)
        assert pt.cycles_for({"weird": 100}) == pytest.approx(200.0)

    def test_affinity(self):
        assert ME_ACCEL.can_run("motion_estimation")
        assert not ME_ACCEL.can_run("dct")
        assert RISC_CPU.can_run("anything")

    def test_dvfs_scaling(self):
        slow = DSP.scaled(0.5)
        assert slow.clock_mhz == pytest.approx(DSP.clock_mhz * 0.5)
        # Cubic dynamic power law.
        assert slow.active_power_mw == pytest.approx(DSP.active_power_mw / 8)
        ops = {"mac": 1000}
        assert slow.time_for(ops) == pytest.approx(2 * DSP.time_for(ops))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ProcessorType("bad", clock_mhz=0.0)
        with pytest.raises(ValueError):
            DSP.scaled(0.0)


class TestInterconnect:
    def test_same_pe_transfer_free(self):
        for ic in (SharedBus(), Crossbar(), MeshNoC(2, 2)):
            assert ic.transfer_time(1, 1, 1e6) == 0.0
            assert ic.energy_j(1e6, 1, 1) == 0.0

    def test_bus_single_resource(self):
        bus = SharedBus()
        assert bus.resource(0, 1) == bus.resource(2, 3)

    def test_crossbar_pairwise_resources(self):
        xbar = Crossbar()
        assert xbar.resource(0, 1) != xbar.resource(2, 3)
        assert xbar.resource(0, 1) == xbar.resource(1, 0)

    def test_noc_hop_latency(self):
        noc = MeshNoC(2, 2)
        near = noc.transfer_time(0, 1, 1000)  # 1 hop
        far = noc.transfer_time(0, 3, 1000)  # 2 hops (XY)
        assert far > near

    def test_noc_placement(self):
        noc = MeshNoC(2, 2)
        noc.place(5, 1, 1)
        assert noc.position(5) == (1, 1)
        with pytest.raises(ValueError):
            noc.place(6, 2, 0)

    def test_noc_energy_scales_with_hops(self):
        noc = MeshNoC(4, 1)
        assert noc.energy_j(1000, 0, 3) > noc.energy_j(1000, 0, 1)

    def test_crossbar_cost_grows_quadratically(self):
        xbar = Crossbar()
        assert xbar.cost(8) / xbar.cost(4) == pytest.approx(4.0)

    def test_transfer_time_includes_bandwidth(self):
        bus = SharedBus(InterconnectSpec(bandwidth_bytes_per_s=1e6))
        t = bus.transfer_time(0, 1, 1e6)
        assert t == pytest.approx(1.0, rel=0.01)


class TestPlatform:
    def test_duplicate_pe_ids_rejected(self):
        with pytest.raises(ValueError):
            Platform(
                name="dup",
                processors=[Processor(0, DSP), Processor(0, RISC_CPU)],
            )

    def test_compatible_pes_respects_affinity(self):
        p = Platform(
            name="p",
            processors=[Processor(0, RISC_CPU), Processor(1, ME_ACCEL)],
        )
        assert p.compatible_pes("motion_estimation") == [0, 1]
        assert p.compatible_pes("dct") == [0]

    def test_cost_sums_components(self):
        p = homogeneous("h", DSP, 4)
        assert p.cost() > 4 * DSP.cost_units  # plus interconnect + memory

    def test_presets_constructible(self):
        for name, device in DEVICES.items():
            platform = device.platform()
            assert platform.num_pes >= 2, name
            assert platform.cost() > 0
            assert platform.describe()

    def test_symmetric_multicore(self):
        p = symmetric_multicore(3)
        assert p.num_pes == 3
        assert len({pe.ptype.name for pe in p.processors}) == 1


class TestEnergy:
    def test_idle_platform_burns_idle_power(self):
        p = homogeneous("h", DSP, 2)
        breakdown = integrate_energy(p, {}, span_s=1.0)
        expected = 2 * DSP.idle_power_mw * 1e-3
        assert breakdown.total_j == pytest.approx(expected)

    def test_busy_costs_more_than_idle(self):
        p = homogeneous("h", DSP, 1)
        idle = integrate_energy(p, {0: 0.0}, span_s=1.0)
        busy = integrate_energy(p, {0: 1.0}, span_s=1.0)
        assert busy.total_j > idle.total_j

    def test_average_power(self):
        p = homogeneous("h", DSP, 1)
        b = integrate_energy(p, {0: 0.5}, span_s=1.0)
        expected_mw = 0.5 * DSP.active_power_mw + 0.5 * DSP.idle_power_mw
        assert b.average_power_mw == pytest.approx(expected_mw)

    def test_battery_life(self):
        assert battery_life_hours(100.0, battery_mwh=1000.0) == pytest.approx(10.0)
        assert battery_life_hours(0.0) == float("inf")

    def test_negative_span_rejected(self):
        p = homogeneous("h", DSP, 1)
        with pytest.raises(ValueError):
            integrate_energy(p, {}, span_s=-1.0)
