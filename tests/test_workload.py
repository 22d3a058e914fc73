"""Tests for applications, VMs, demand generation and traces."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.workload import (
    SIMULATION_APPS,
    TESTBED_APPS,
    AppType,
    DemandGenerator,
    DemandTrace,
    TraceDemandSource,
    VM,
    random_placement,
    replay_trace,
    scale_for_target_utilization,
)


class TestAppType:
    def test_simulation_catalog_relative_powers(self):
        assert [a.mean_power for a in SIMULATION_APPS] == [1.0, 2.0, 5.0, 9.0]

    def test_testbed_catalog_table2(self):
        assert {a.name: a.mean_power for a in TESTBED_APPS} == {
            "A1": 8.0,
            "A2": 10.0,
            "A3": 15.0,
        }

    def test_scaled(self):
        app = AppType("x", 2.0).scaled(3.0)
        assert app.mean_power == 6.0

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            AppType("x", 0.0)
        with pytest.raises(ValueError):
            AppType("x", 1.0).scaled(0.0)


class TestVM:
    def test_history_starts_with_initial_host(self):
        vm = VM(vm_id=0, app=TESTBED_APPS[0], host_id=7)
        assert vm.host_history == [(0.0, 7)]

    def test_place_records_history(self):
        vm = VM(vm_id=0, app=TESTBED_APPS[0], host_id=7)
        vm.place(9, time=3.0)
        assert vm.host_id == 9
        assert vm.host_history[-1] == (3.0, 9)
        assert vm.last_migration_time == 3.0

    def test_place_same_host_rejected(self):
        vm = VM(vm_id=0, app=TESTBED_APPS[0], host_id=7)
        with pytest.raises(ValueError):
            vm.place(7, time=1.0)

    def test_residence_time(self):
        vm = VM(vm_id=0, app=TESTBED_APPS[0], host_id=7)
        assert vm.residence_time(5.0) == 5.0
        vm.place(9, time=3.0)
        assert vm.residence_time(5.0) == 2.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            VM(vm_id=0, app=TESTBED_APPS[0], host_id=1, current_demand=-1.0)


class TestPlacement:
    def test_every_server_gets_vms(self):
        rng = np.random.default_rng(0)
        plan = random_placement([1, 2, 3], SIMULATION_APPS, rng, vms_per_server=4)
        hosts = plan.by_host()
        assert set(hosts) == {1, 2, 3}
        assert all(len(vms) == 4 for vms in hosts.values())

    def test_vm_ids_dense(self):
        rng = np.random.default_rng(0)
        plan = random_placement([1, 2], SIMULATION_APPS, rng)
        assert [vm.vm_id for vm in plan.vms] == list(range(len(plan.vms)))

    def test_apps_drawn_from_catalog(self):
        rng = np.random.default_rng(0)
        plan = random_placement([1], SIMULATION_APPS, rng, vms_per_server=50)
        names = {vm.app.name for vm in plan.vms}
        assert names <= {a.name for a in SIMULATION_APPS}
        assert len(names) > 1  # actually a mix

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_placement([], SIMULATION_APPS, rng)
        with pytest.raises(ValueError):
            random_placement([1], (), rng)
        with pytest.raises(ValueError):
            random_placement([1], SIMULATION_APPS, rng, vms_per_server=0)


class TestScaling:
    def test_expected_fleet_utilization_hits_target(self):
        rng = np.random.default_rng(1)
        plan = random_placement(list(range(10)), SIMULATION_APPS, rng)
        scale_for_target_utilization(plan, dynamic_capacity=420.0, target_utilization=0.4)
        mean_total = sum(vm.app.mean_power for vm in plan.vms) * plan.scale
        fleet_capacity = 10 * 420.0
        assert mean_total / fleet_capacity == pytest.approx(0.4)

    def test_target_validated(self):
        rng = np.random.default_rng(1)
        plan = random_placement([1], SIMULATION_APPS, rng)
        with pytest.raises(ValueError):
            scale_for_target_utilization(plan, 420.0, 0.0)
        with pytest.raises(ValueError):
            scale_for_target_utilization(plan, 0.0, 0.5)


class TestDemandGenerator:
    def _plan(self, seed=0):
        streams = RandomStreams(seed)
        plan = random_placement([1, 2], SIMULATION_APPS, streams["placement"])
        plan.scale = 2.0
        return plan, streams

    def test_sample_updates_vms_and_aggregates(self):
        plan, streams = self._plan()
        generator = DemandGenerator(plan, streams)
        per_host = generator.sample_tick()
        assert set(per_host) == {1, 2}
        for host, total in per_host.items():
            expected = sum(
                vm.current_demand for vm in plan.vms if vm.host_id == host
            )
            assert total == pytest.approx(expected)

    def test_deterministic_under_seed(self):
        plan1, streams1 = self._plan(seed=9)
        plan2, streams2 = self._plan(seed=9)
        g1, g2 = DemandGenerator(plan1, streams1), DemandGenerator(plan2, streams2)
        for _ in range(5):
            assert g1.sample_tick() == g2.sample_tick()

    def test_migration_does_not_perturb_other_vms(self):
        # Per-VM streams: moving one VM must not change others' draws.
        plan1, streams1 = self._plan(seed=4)
        plan2, streams2 = self._plan(seed=4)
        g1, g2 = DemandGenerator(plan1, streams1), DemandGenerator(plan2, streams2)
        g1.sample_tick()
        g2.sample_tick()
        plan2.vms[0].place(2, time=1.0) if plan2.vms[0].host_id != 2 else plan2.vms[0].place(1, time=1.0)
        g1.sample_tick()
        g2.sample_tick()
        for vm1, vm2 in zip(plan1.vms[1:], plan2.vms[1:]):
            assert vm1.current_demand == vm2.current_demand

    def test_long_run_mean_matches_expectation(self):
        plan, streams = self._plan(seed=2)
        generator = DemandGenerator(plan, streams)
        totals = []
        for _ in range(3000):
            totals.append(sum(generator.sample_tick().values()))
        expected = sum(vm.app.mean_power for vm in plan.vms) * plan.scale
        assert np.mean(totals) == pytest.approx(expected, rel=0.05)


#: An app whose Poisson draws exceed 255: they do not fit uint8.
WIDE_APP = AppType("wide", 400.0)


def _block_plan(seed, n_servers, apps, vms_per_server=2):
    streams = RandomStreams(seed)
    plan = random_placement(
        list(range(n_servers)), apps, streams["placement"],
        vms_per_server=vms_per_server,
    )
    plan.scale = 1.7
    return plan, streams


def _vm_major_block(seed, plan, block_size):
    """The prefetched block in the checkpoint's VM-major layout: row
    ``r`` is VM ``r``'s next ``block_size`` draws, ``(n_vms, block)``
    int64."""
    streams = RandomStreams(seed)
    return np.stack(
        [
            streams[f"demand/vm-{vm.vm_id}"].poisson(
                vm.app.mean_power, size=block_size
            )
            for vm in plan.vms
        ]
    )


class TestDemandBlock:
    """The tick-major narrow block draws exactly what unbatched sampling
    draws, and checkpoints in the VM-major int64 layout."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        block_size=st.integers(1, 300),
        refills=st.integers(1, 2),
        extra=st.integers(0, 5),
        chunk=st.integers(1, 9),
        wide=st.booleans(),
    )
    def test_tick_major_block_equals_unbatched_sampling(
        self, seed, block_size, refills, extra, chunk, wide
    ):
        apps = list(SIMULATION_APPS) + ([WIDE_APP] if wide else [])
        plan_a, streams_a = _block_plan(seed, 3, apps)
        plan_b, streams_b = _block_plan(seed, 3, apps)
        blocked = DemandGenerator(plan_a, streams_a, block_size=block_size)
        blocked.FILL_CHUNK = chunk  # fill across several chunks
        single = DemandGenerator(plan_b, streams_b, block_size=1)
        # The reference: one scalar draw per VM and tick, no block.
        plan_r, streams_r = _block_plan(seed, 3, apps)
        reference = [
            (streams_r[f"demand/vm-{vm.vm_id}"], vm.app.mean_power)
            for vm in plan_r.vms
        ]
        biggest = 0
        for _ in range(refills * block_size + extra):
            draws = [int(stream.poisson(mean)) for stream, mean in reference]
            expected = np.array(draws, dtype=float) * plan_r.scale
            np.testing.assert_array_equal(blocked.sample_tick_array(), expected)
            np.testing.assert_array_equal(single.sample_tick_array(), expected)
            biggest = max(biggest, *draws)
        block = blocked._block
        assert block.shape == (block_size, len(plan_a.vms))  # tick-major
        assert block.dtype.kind == "u"
        if biggest > 255:
            # Widened, so the wide draws arrived whole.
            assert block.dtype.itemsize > 1
        else:
            assert block.dtype == np.uint8

    @pytest.mark.parametrize("apps", [SIMULATION_APPS, [WIDE_APP]])
    def test_mid_block_state_is_the_vm_major_int64_block(self, apps):
        block_size, consumed = 16, 5
        plan, streams = _block_plan(9, 4, apps)
        generator = DemandGenerator(plan, streams, block_size=block_size)
        for _ in range(consumed):
            generator.sample_tick_array()
        state = generator.state_dict()
        expected = _vm_major_block(9, plan, block_size)
        buffer = state["buffer"]
        assert buffer.dtype == np.int64 and buffer.flags.c_contiguous
        np.testing.assert_array_equal(buffer, expected)
        assert state["cursor"] == consumed
        # The same checkpoint bytes as that VM-major array.
        assert pickle.dumps(buffer, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            expected, pickle.HIGHEST_PROTOCOL
        )

        # A fresh generator resumes the same demands, across a refill.
        resumed_plan, resumed_streams = _block_plan(9, 4, apps)
        resumed = DemandGenerator(
            resumed_plan, resumed_streams, block_size=block_size
        )
        resumed_streams.load_state_dict(
            pickle.loads(pickle.dumps(streams.state_dict()))
        )
        resumed.load_state_dict(pickle.loads(pickle.dumps(state)))
        for _ in range(2 * block_size):
            np.testing.assert_array_equal(
                resumed.sample_tick_array(), generator.sample_tick_array()
            )

    def test_load_state_dict_refuses_negative_draws(self):
        plan, streams = _block_plan(1, 2, SIMULATION_APPS)
        generator = DemandGenerator(plan, streams, block_size=4)
        state = {
            "buffer": -np.ones((len(plan.vms), 4), dtype=np.int64),
            "cursor": 0,
            "block_size": 4,
        }
        with pytest.raises(ValueError, match="negative"):
            generator.load_state_dict(state)


class TestDemandTrace:
    def test_constant_trace(self):
        trace = DemandTrace.constant([1.0, 2.0], n_ticks=3)
        assert trace.n_ticks == 3 and trace.n_vms == 2
        assert np.array_equal(trace.tick(2), [1.0, 2.0])

    def test_negative_demands_rejected(self):
        with pytest.raises(ValueError):
            DemandTrace(np.array([[-1.0]]))

    def test_replay_updates_vms(self):
        vms = [
            VM(vm_id=0, app=TESTBED_APPS[0], host_id=1),
            VM(vm_id=1, app=TESTBED_APPS[1], host_id=2),
        ]
        trace = DemandTrace.from_samples([[5.0, 6.0], [7.0, 8.0]])
        rounds = list(replay_trace(trace, vms))
        assert rounds == [{1: 5.0, 2: 6.0}, {1: 7.0, 2: 8.0}]
        assert vms[0].current_demand == 7.0

    def test_replay_vm_count_mismatch(self):
        vms = [VM(vm_id=0, app=TESTBED_APPS[0], host_id=1)]
        trace = DemandTrace.from_samples([[5.0, 6.0]])
        with pytest.raises(ValueError):
            list(replay_trace(trace, vms))


class TestTraceDemandSource:
    def test_repeats_final_row(self):
        vms = [VM(vm_id=0, app=TESTBED_APPS[0], host_id=1)]
        source = TraceDemandSource(DemandTrace.from_samples([[3.0], [9.0]]), vms)
        assert source.sample_tick() == {1: 3.0}
        assert source.sample_tick() == {1: 9.0}
        assert source.sample_tick() == {1: 9.0}  # clamped

    def test_tracks_migrated_host(self):
        vms = [VM(vm_id=0, app=TESTBED_APPS[0], host_id=1)]
        source = TraceDemandSource(DemandTrace.constant([4.0], 1), vms)
        source.sample_tick()
        vms[0].place(2, time=1.0)
        assert source.sample_tick() == {2: 4.0}


class TestDemandTraceCSV:
    def test_round_trip(self, tmp_path):
        trace = DemandTrace.from_samples([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "demand.csv"
        trace.to_csv(path, header=["vm0", "vm1"])
        loaded = DemandTrace.from_csv(path)
        assert np.array_equal(loaded.demands, trace.demands)

    def test_round_trip_without_header(self, tmp_path):
        trace = DemandTrace.constant([5.0], n_ticks=3)
        path = tmp_path / "demand.csv"
        trace.to_csv(path)
        loaded = DemandTrace.from_csv(path)
        assert np.array_equal(loaded.demands, trace.demands)

    def test_header_length_validated(self, tmp_path):
        trace = DemandTrace.constant([5.0, 6.0], n_ticks=1)
        with pytest.raises(ValueError):
            trace.to_csv(tmp_path / "x.csv", header=["only-one"])

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            DemandTrace.from_csv(path)

    def test_malformed_mid_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nx,y\n")
        with pytest.raises(ValueError):
            DemandTrace.from_csv(path)
