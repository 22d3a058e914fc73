"""Fused vs. scalar federation equivalence (the formal contract).

``build_federation(vectorized=True)`` promises: identical *decisions*
(cross-site transfers and migrations, per-site migrations, drops,
unmatched deficits, control messages, sleep states) and floats within
``rtol=1e-12`` of the same federation over scalar site controllers,
for N >= 2 sites under every policy, with batteries and a plant-fault
site in the mix.  Consecutive vectorized sites tick fused in one array
segment, and cross-site WAN costs must reach the segment's cost rows
through the hosting hooks.  A single-site neutral federation is
additionally bit-exact with the per-site vectorized controller (nothing
reorders a sum across sites).  Also covered here: the views contract
(every runtime object of an array site reads its lanes -- after every
``run``, across runs and inside hooks -- a tick that no scalar reader
needs touches no view, and whole-site gathers run only where a reader
may change every object), the
:mod:`repro.binpack.prescreen` kernels against their scalar reference
loops, the array rebalance pre-screens against the coordinator's object
walks, and the :class:`~repro.core.fleet.FederationFleet` view-aliasing
invariants the fused tick relies on.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack.prescreen import deficient_order, destination_order
from repro.control_plane import run_distributed
from repro.core.config import WillowConfig
from repro.core.controller import run_willow
from repro.core.events import MigrationCause
from repro.core.fleet import (
    FleetState,
    LaneServerRuntime,
    LaneSmoother,
    LaneThermal,
    LaneVM,
)
from repro.core.state import ServerRuntime
from repro.core.vectorized import VectorizedWillowController, _Segment
from repro.federation import (
    FederationCoordinator,
    POLICIES,
    SiteSpec,
    build_federation,
    run_federation,
)
from repro.federation.vectorized import (
    destination_bins,
    preshed_candidates,
    shed_candidates,
)
from repro.plant_faults import random_plant_schedule
from repro.plant_faults.controller import (
    FaultTolerantWillowController,
    run_resilient,
)
from repro.power import Battery, renewable_supply
from repro.power.smoothing import ExponentialSmoother
from repro.power.supply import constant_supply
from repro.service.simulation import (
    LiveSimulation,
    ServiceSpec,
    decision_digest,
)
from repro.thermal.model import TemperatureIntegrator
from repro.topology import build_balanced, build_paper_simulation
from repro.workload import BurstyDemandGenerator
from repro.workload.vm import VM

RTOL = 1e-12
TICKS = 96
UTIL = 0.55


def make_specs(n_sites=3, fault_site=True, battery_site=True):
    """Fresh specs per call: batteries, supply buffers and fault
    schedules are stateful, so scalar and fused runs must not share
    them."""
    specs = []
    for i in range(n_sites):
        kwargs = dict(
            name=f"site{i}",
            seed=i + 1,
            target_utilization=UTIL,
            supply=renewable_supply(
                5200.0,
                base_fraction=0.3,
                cloud_noise=0.0,
                phase=i / n_sites,
            ),
        )
        if battery_site and i == 0:
            kwargs["battery"] = Battery(1500.0, 1500.0 / 8.0, charge=0.0)
        if fault_site and i == 1 and n_sites > 2:
            tree = build_paper_simulation()
            kwargs["tree"] = tree
            kwargs["plant_faults"] = random_plant_schedule(
                tree,
                seed=11,
                horizon_ticks=TICKS,
                n_crashes=1,
                n_sensor_faults=1,
                n_circuit_trips=1,
            )
        specs.append(SiteSpec(**kwargs))
    return specs


def federation_pair(policy, **spec_kw):
    """The same specs on scalar site controllers and on fused array
    sites (``build_federation(vectorized=True)``)."""
    scalar = run_federation(
        make_specs(**spec_kw), n_ticks=TICKS, policy=policy
    )
    assert not scalar.segments
    fused = run_federation(
        make_specs(**spec_kw), n_ticks=TICKS, policy=policy, vectorized=True
    )
    assert type(fused) is FederationCoordinator
    assert fused.segments
    assert all(
        isinstance(s.controller, VectorizedWillowController)
        for s in fused.sites
        if s.spec.plant_faults is None
    )
    return scalar, fused


def _server_series(collector, attr):
    return np.array([getattr(s, attr) for s in collector.server_samples])


def assert_federations_equal(scalar, batched):
    # Grid-level decisions.
    mig_key = lambda m: (
        m.time, m.vm_id, m.src_site, m.dst_site, m.src_node, m.dst_node,
    )
    assert [mig_key(m) for m in scalar.cross_migrations] == [
        mig_key(m) for m in batched.cross_migrations
    ]
    for attr in ("demand", "src_deficit", "dst_surplus", "wan_cost_power"):
        np.testing.assert_allclose(
            [getattr(m, attr) for m in scalar.cross_migrations],
            [getattr(m, attr) for m in batched.cross_migrations],
            rtol=RTOL,
            atol=0,
        )
    assert [
        (t, [(x.src, x.dst) for x in transfers])
        for t, transfers in scalar.transfer_log
    ] == [
        (t, [(x.src, x.dst) for x in transfers])
        for t, transfers in batched.transfer_log
    ]
    np.testing.assert_allclose(
        [x.watts for _t, tr in scalar.transfer_log for x in tr],
        [x.watts for _t, tr in batched.transfer_log for x in tr],
        rtol=RTOL,
        atol=0,
    )

    # Per-site trajectories and decisions.
    for s_site, b_site in zip(scalar.sites, batched.sites):
        assert s_site.name == b_site.name
        assert s_site.vms_sent == b_site.vms_sent
        assert s_site.vms_received == b_site.vms_received
        sc, bc = s_site.collector, b_site.collector
        for attr in ("power", "temperature", "utilization", "demand", "budget"):
            a, b = _server_series(sc, attr), _server_series(bc, attr)
            assert a.shape == b.shape, (s_site.name, attr)
            np.testing.assert_allclose(
                a, b, rtol=RTOL, atol=0, err_msg=f"{s_site.name}:{attr}"
            )
        assert [s.asleep for s in sc.server_samples] == [
            s.asleep for s in bc.server_samples
        ], s_site.name
        key = lambda m: (m.time, m.vm_id, m.src_id, m.dst_id, m.cause)
        assert [key(m) for m in sc.migrations] == [
            key(m) for m in bc.migrations
        ], s_site.name
        dkey = lambda d: (d.time, d.node_id, d.vm_id)
        for series in ("drops", "unmatched_deficits"):
            assert [dkey(d) for d in getattr(sc, series)] == [
                dkey(d) for d in getattr(bc, series)
            ], (s_site.name, series)
            # A drop is ``demand - grant``: near-zero drops amplify the
            # contract's ulp-level sum reorderings into relative error,
            # so the float check gets a nanowatt absolute floor.
            np.testing.assert_allclose(
                [d.power for d in getattr(sc, series)],
                [d.power for d in getattr(bc, series)],
                rtol=RTOL,
                atol=1e-9,
            )
        mkey = lambda m: (m.time, m.link, m.upward)
        assert [mkey(m) for m in sc.messages] == [
            mkey(m) for m in bc.messages
        ], s_site.name
        for attr in ("base_traffic", "migration_traffic", "power"):
            np.testing.assert_allclose(
                [getattr(s, attr) for s in sc.switch_samples],
                [getattr(s, attr) for s in bc.switch_samples],
                rtol=RTOL,
                atol=0,
            )


# --------------------------------------------------------------- contract
class TestBatchedFederationEquivalence:
    """N=3 sites (battery site, plant-fault site, plain site) under
    every shipped policy: same decisions, same floats, on scalar site
    controllers and on fused array sites."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_policy_equivalent(self, policy):
        scalar, batched = federation_pair(policy)
        assert_federations_equal(scalar, batched)

    def test_shifting_actually_happens(self):
        """The contract must be exercised with real cross-site moves."""
        scalar, batched = federation_pair("proportional")
        assert scalar.cross_migrations
        assert batched.cross_migrations
        assert_federations_equal(scalar, batched)

    def test_two_site_fused_segment(self):
        """All-array federation: one segment spans every site."""
        scalar, batched = federation_pair(
            "proportional", n_sites=2, fault_site=False
        )
        assert len(batched.segments) == 1
        assert len(batched.segments[0].controllers) == 2
        assert_federations_equal(scalar, batched)


class TestSingleSiteBitExact:
    def test_matches_vectorized_controller_bit_for_bit(self):
        """A 1-site neutral federation runs the same array expressions
        as the per-site vectorized controller: bit-identical floats."""
        _, vector = run_willow(
            n_ticks=60, seed=3, target_utilization=0.5, vectorized=True
        )
        coordinator = run_federation(
            [SiteSpec(name="solo", seed=3, target_utilization=0.5)],
            n_ticks=60,
            policy="neutral",
            vectorized=True,
        )
        federated = coordinator.sites[0].collector
        for attr in ("power", "temperature", "utilization", "demand", "budget"):
            a = _server_series(vector, attr)
            b = _server_series(federated, attr)
            assert np.array_equal(a, b), f"{attr} differs bit-wise"
        key = lambda m: (m.time, m.vm_id, m.src_id, m.dst_id, m.cause)
        assert [key(m) for m in vector.migrations] == [
            key(m) for m in federated.migrations
        ]


# ------------------------------------------------------------- structure
class TestSegmentPartitioning:
    def test_fault_site_splits_segments(self):
        coordinator = build_federation(
            make_specs(n_sites=3), n_ticks=TICKS, vectorized=True
        )
        # site1 carries the fault schedule: scalar island between two
        # single-site segments.
        assert isinstance(
            coordinator.sites[1].controller, FaultTolerantWillowController
        )
        assert len(coordinator.segments) == 2
        assert [
            seg.global_idx for seg in coordinator.segments
        ] == [[0], [2]]
        plan_kinds = [
            "segment" if isinstance(part, _Segment) else "site"
            for part in coordinator._plan
        ]
        assert plan_kinds == ["segment", "site", "segment"]

    def test_other_demand_source_ticks_its_own_controller(self):
        """A vectorized site over another demand source ticks its own
        controller between two segments, and the federation decides as
        it does on scalar site controllers over the same sources."""

        def build(vectorized):
            built = build_federation(
                make_specs(n_sites=3, fault_site=False),
                n_ticks=TICKS,
                policy="proportional",
                vectorized=vectorized,
            )
            middle = built.sites[1].controller
            middle.demand_source = BurstyDemandGenerator(
                middle.placement, middle.streams
            )
            # Partition again, now that the middle site's source changed.
            return FederationCoordinator(
                built.sites, federation=built.federation
            ).run(TICKS)

        fused = build(vectorized=True)
        assert [seg.global_idx for seg in fused.segments] == [[0], [2]]
        assert fused._plan[1] is fused.sites[1]
        assert isinstance(
            fused.sites[1].controller, VectorizedWillowController
        )
        scalar = build(vectorized=False)
        assert scalar.cross_migrations
        assert_federations_equal(scalar, fused)

    def test_resume_around_a_scalar_island(self):
        """Segments on both sides of a plant-fault site: a snapshot
        taken after cross-site moves resumes to the straight run's
        per-site decisions."""

        def build():
            return build_federation(
                make_specs(n_sites=3),
                n_ticks=TICKS,
                policy="proportional",
                vectorized=True,
            )

        def digests(coordinator):
            return [
                decision_digest(site.collector) for site in coordinator.sites
            ]

        reference = build().run(TICKS)
        first = build().run(40)
        assert first.cross_migrations
        twin = build()
        twin.restore_state(copy.deepcopy(first.snapshot_state()))
        assert [seg.global_idx for seg in twin.segments] == [[0], [2]]
        twin.run(TICKS - 40)
        assert digests(twin) == digests(reference)
        assert len(twin.cross_migrations) == len(reference.cross_migrations)

    def test_all_array_sites_one_segment(self):
        coordinator = build_federation(
            make_specs(n_sites=3, fault_site=False),
            n_ticks=TICKS,
            vectorized=True,
        )
        assert len(coordinator.segments) == 1
        assert coordinator.segments[0].global_idx == [0, 1, 2]
        assert coordinator.fed_fleet.n == sum(
            s.controller.fleet.n for s in coordinator.sites
        )


class TestArrayPrescreens:
    """At every rebalance of a fused federation, the array pre-screens
    return exactly what the coordinator's object walks return on the
    same site: the same VMs in the same order, the same floats."""

    @staticmethod
    def _items(items):
        return [
            (node, deficit, item.key, item.size, id(item.payload))
            for node, deficit, item in items
        ]

    @pytest.mark.parametrize("policy", sorted(set(POLICIES) - {"neutral"}))
    def test_array_screens_match_object_walks(self, policy):
        coordinator = build_federation(
            make_specs(n_sites=3, fault_site=False),
            n_ticks=TICKS,
            policy=policy,
            horizon=3 if policy == "predictive" else 0,
            vectorized=True,
        )
        assert [seg.global_idx for seg in coordinator.segments] == [[0, 1, 2]]
        execute = coordinator._execute_transfer
        compared = []

        def compare_then_execute(transfer, now):
            src = coordinator.site(transfer.src)
            dst = coordinator.site(transfer.dst)
            watts = transfer.watts
            for array, walk in (
                (shed_candidates, coordinator._shed_candidates),
                (preshed_candidates, coordinator._preshed_candidates),
            ):
                got = self._items(array(src, watts))
                assert got == self._items(walk(src, watts))
                compared.append(len(got))
            wan_power = coordinator._wan_cost(dst)[0]
            got_bins = [
                (b.key, b.capacity) for b in destination_bins(dst, wan_power)
            ]
            assert got_bins == [
                (b.key, b.capacity)
                for b in coordinator._destination_bins(dst, wan_power)
            ]
            compared.append(len(got_bins))
            execute(transfer, now)

        coordinator._execute_transfer = compare_then_execute
        coordinator.run(TICKS)
        assert coordinator.cross_migrations
        assert sum(1 for n in compared if n) > 10


# ---------------------------------------------------------- sync contract
SYNC_TICKS = 48


def sync_federation(seed=1, utilization=0.4):
    """Three fused sites on anti-correlated solar: consolidation sleeps
    and wakes, cross-site WAN moves and slow-served rows."""
    return build_federation(
        [
            SiteSpec(
                name=f"site{i}",
                seed=seed + i,
                target_utilization=utilization,
                supply=renewable_supply(
                    5200.0, base_fraction=0.3, cloud_noise=0.0, phase=i / 3
                ),
            )
            for i in range(3)
        ],
        n_ticks=SYNC_TICKS,
        policy="proportional",
        vectorized=True,
    )


def steady_federation(seed=1):
    """Three fused sites provisioned at 1.2x capacity with 16 VMs per
    server: most ticks have no deficient or slow row, like the
    benchmark's fleet-steady at a smaller scale."""
    limit = WillowConfig().circuit_limit
    specs = []
    for i in range(3):
        tree = build_balanced((2, 4, 4))
        specs.append(
            SiteSpec(
                name=f"site{i}",
                tree=tree,
                supply=constant_supply(1.2 * len(tree.servers()) * limit),
                target_utilization=0.6,
                vms_per_server=16,
                seed=seed + i,
            )
        )
    return build_federation(
        specs, n_ticks=SYNC_TICKS, policy="proportional", vectorized=True
    )


def assert_reads_lanes(ctrl, servers, vms):
    """``servers`` and ``vms`` (a site's rows, in plan order) read the
    site's lanes: the fleet lanes, and the home VMs' latest sample.  A
    VM away from home is plain and holds the same sample value, which
    its home site wrote when it sampled."""
    fleet = ctrl.fleet
    values = fleet.smoother.values
    for attr, got, lane in (
        ("raw", [s.raw_demand for s in servers], fleet.raw),
        ("served", [s.served_power for s in servers], fleet.served),
        ("smoothed", [s.smoothed_demand for s in servers], values),
        ("smoother", [s.smoother._value for s in servers], values),
        ("temp", [s.thermal.temperature for s in servers], fleet.temperature),
        ("peak", [s.thermal.peak for s in servers], fleet.peak),
        ("violations", [s.thermal.violations for s in servers],
         fleet.violations),
    ):
        assert got == lane.tolist(), attr
    sample = ctrl.fleet.vm_lane.sample.tolist()
    away = ctrl._vm_away.tolist()
    for r, vm in enumerate(vms):
        assert isinstance(vm, LaneVM) is not away[r], vm.vm_id
        assert vm.current_demand == sample[r], vm.vm_id


def assert_objects_current(coordinator):
    """Every fused site's objects hold exactly its lanes, and a full
    re-read of the objects reproduces every lane the tick kept."""
    for segment in coordinator.segments:
        for i, ctrl in enumerate(segment.controllers):
            sl = segment.local_slices[i]
            servers = ctrl.fleet.servers
            name = coordinator.sites[segment.global_idx[i]].name
            assert_reads_lanes(ctrl, servers, ctrl.placement.vms)
            # The objects show what the tick recorded for them.
            samples = ctrl.collector.server_samples
            n = len(servers)
            assert [s.raw_demand for s in servers] == samples.column(
                "demand"
            )[-n:], name
            assert [
                s.thermal.temperature for s in servers
            ] == samples.column("temperature")[-n:], name
            scratch = FleetState(servers, ctrl.config)
            scratch.gather()
            for lane in (
                "awake", "asleep", "waking", "mig_cost", "budget",
                "temperature", "peak", "violations", "raw", "served",
            ):
                assert np.array_equal(
                    getattr(scratch, lane), getattr(segment, lane)[sl]
                ), (name, lane)
            for lane in ("values", "primed"):
                assert np.array_equal(
                    getattr(scratch.smoother, lane),
                    getattr(ctrl.fleet.smoother, lane),
                ), (name, lane)


def count_view_accesses(monkeypatch, counter):
    """Count every read and write of a lane-backed attribute."""
    for cls, names in (
        (LaneServerRuntime, LaneServerRuntime._LANES + ("vm_demand",)),
        (LaneThermal, LaneThermal._LANES),
        (LaneSmoother, LaneSmoother._LANES),
        (LaneVM, ("current_demand",)),
    ):
        for name in names:
            view = cls.__dict__[name]

            def get(obj, _view=view):
                counter[0] += 1
                return _view.fget(obj)

            def set(obj, value, _view=view):
                counter[0] += 1
                _view.fset(obj, value)

            monkeypatch.setattr(
                cls, name, property(get, set if view.fset else None)
            )


class TestSyncContract:
    """Every runtime object of a fused site is a view onto its lanes:
    current after every ``run``, across runs and inside hooks, with
    nothing written back."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000), utilization=st.floats(0.35, 0.55)
    )
    def test_objects_current_after_every_run(self, seed, utilization):
        coordinator = sync_federation(seed, utilization)
        for _ in range(SYNC_TICKS):
            coordinator.run(1)
            assert_objects_current(coordinator)

    @pytest.mark.parametrize("k", [1, 3])
    def test_references_held_across_runs_read_their_lanes(self, k):
        """Server and VM references taken before ``run(k)`` read the
        lanes after it: binding keeps object identity."""
        coordinator = sync_federation()
        controllers = [s.controller for s in coordinator.sites]
        for _ in range(SYNC_TICKS // k):
            held = [
                (ctrl, list(ctrl.fleet.servers), list(ctrl.placement.vms))
                for ctrl in controllers
            ]
            coordinator.run(k)
            for ctrl, servers, vms in held:
                assert_reads_lanes(ctrl, servers, vms)
        assert coordinator.cross_migrations

    def test_hooks_read_current_objects(self):
        """Site and coordinator ``on_tick`` hooks read current objects,
        with no call to make them so (``on_migration`` hooks: below)."""
        coordinator = sync_federation()
        seen = {"tick": 0, "coordinator": 0}

        def servers_current(controller):
            fleet = controller.fleet
            servers = fleet.servers
            # What this tick just recorded for each server.
            samples = controller.collector.server_samples
            n = len(servers)
            assert [s.raw_demand for s in servers] == samples.column(
                "demand"
            )[-n:]
            assert [
                s.thermal.temperature for s in servers
            ] == samples.column("temperature")[-n:]
            assert [
                s.smoothed_demand for s in servers
            ] == fleet.smoother.values.tolist()
            assert [s.served_power for s in servers] == fleet.served.tolist()
            sample = controller.fleet.vm_lane.sample.tolist()
            for r, vm in enumerate(controller.placement.vms):
                if isinstance(vm, LaneVM):
                    assert vm.current_demand == sample[r]

        def on_tick(controller, tick, now):
            servers_current(controller)
            seen["tick"] += 1

        def coordinator_hook(coord, completed):
            for site in coord.sites:
                assert_reads_lanes(
                    site.controller,
                    site.controller.fleet.servers,
                    site.controller.placement.vms,
                )
            seen["coordinator"] += 1

        for site in coordinator.sites:
            site.controller.on_tick.append(on_tick)
        coordinator.on_tick.append(coordinator_hook)
        coordinator.run(SYNC_TICKS)
        assert seen["tick"] == len(coordinator.sites) * SYNC_TICKS
        assert seen["coordinator"] == SYNC_TICKS

    def test_migration_hook_reads_current_servers(self):
        """An ``on_migration`` hook may read any server object, and the
        planner's moves see current objects everywhere."""
        coordinator = sync_federation()
        causes = []

        def hook(controller, record):
            fleet = controller.fleet
            servers = fleet.servers
            assert [s.raw_demand for s in servers] == fleet.raw.tolist()
            assert [
                s.smoothed_demand for s in servers
            ] == fleet.smoother.values.tolist()
            assert [s.served_power for s in servers] == fleet.served.tolist()
            assert [
                s.thermal.temperature for s in servers
            ] == fleet.temperature.tolist()
            causes.append(record.cause)

        for site in coordinator.sites:
            site.controller.on_migration.append(hook)
        coordinator.run(SYNC_TICKS)
        assert MigrationCause.DEMAND in causes

    def test_vm_away_and_home_again(self):
        """A home VM moved to another site is a plain object holding its
        home sample; moved back, it reads its home lane again."""
        coordinator = sync_federation()
        coordinator.run(3)
        home, host = coordinator.sites[0], coordinator.sites[1]
        ctrl = home.controller
        vm = next(
            vm
            for vm in ctrl.placement.vms
            if vm.vm_id in ctrl.servers[vm.host_id].vms
        )
        row = ctrl._vm_row[vm.vm_id]
        src_node = vm.host_id
        dst_node = next(iter(host.controller.servers))

        def move(src_site, src, dst_site, dst):
            coordinator._move_vm(
                vm, src_site, src, dst_site, dst,
                coordinator._tick_index * coordinator.delta_d,
                src_deficit=1.0, dst_surplus=1.0,
            )

        assert isinstance(vm, LaneVM)
        move(home, src_node, host, dst_node)
        assert type(vm) is VM
        for _ in range(3):
            coordinator.run(1)
            assert type(vm) is VM
            assert vm.current_demand == ctrl.fleet.vm_lane.sample.item(row)
        # The host's planner may have moved the guest meanwhile.
        move(host, vm.host_id, home, src_node)
        assert isinstance(vm, LaneVM)
        coordinator.run(1)
        assert vm.current_demand == ctrl.fleet.vm_lane.sample.item(row)
        assert vm in ctrl.servers[src_node].vms.values()

    def test_whole_site_syncs_only_where_every_object_is_read(
        self, monkeypatch
    ):
        """No hooks, no tracer: sleep and cost lanes are re-read in full
        only after consolidation, otherwise only on the rows some actor
        changed; and a tick with no deficient, slow or consolidating row
        reads or writes no lane-backed attribute."""
        context = []
        rows_read = {"sleep": 0, "costs": 0}

        def within(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                context.append(label)
                try:
                    return original(*args, **kwargs)
                finally:
                    context.pop()

            monkeypatch.setattr(owner, name, wrapper)

        within(_Segment, "tick", "tick")
        within(FederationCoordinator, "_rebalance", "rebalance")
        within(FleetState, "gather", "gather")

        def refuse_whole(name):
            original = getattr(FleetState, name)

            def wrapper(self):
                assert context and context[-1] == "gather", name
                return original(self)

            monkeypatch.setattr(FleetState, name, wrapper)

        refuse_whole("gather_sleep")
        refuse_whole("gather_costs")
        sleep_rows = FleetState.gather_sleep_rows
        cost_rows = FleetState.gather_cost_rows

        def read_sleep(self, rows):
            if context[-1] != "gather":
                # Only a waking server changes state between
                # consolidations.
                assert all(self.waking[r] for r in rows)
                rows_read["sleep"] += len(rows)
            return sleep_rows(self, rows)

        def read_costs(self, rows):
            if context[-1] != "gather":
                # Only rows holding costs, or clearing their last one.
                assert all(
                    self.servers[r]._pending_costs or self.mig_cost[r]
                    for r in rows
                )
                rows_read["costs"] += len(rows)
            return cost_rows(self, rows)

        monkeypatch.setattr(FleetState, "gather_sleep_rows", read_sleep)
        monkeypatch.setattr(FleetState, "gather_cost_rows", read_costs)

        coordinator = sync_federation()
        for _ in range(SYNC_TICKS // 3):
            coordinator.run(3)
        # The federation exercises every per-row path: wakes and
        # charged costs, plus cross-site moves.
        assert all(rows_read.values()), rows_read
        assert coordinator.cross_migrations

        # The views guard, on a provisioned federation.
        readers = set()

        def reader(name):
            original = getattr(VectorizedWillowController, name)

            def wrapper(*args, **kwargs):
                readers.add(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(VectorizedWillowController, name, wrapper)

        reader("_plan_demand_migrations")  # some row is deficient
        reader("_serve_scalar")  # some row is served slowly
        reader("_consolidate")
        accesses = [0]
        count_view_accesses(monkeypatch, accesses)
        tick = _Segment.tick
        clean = []

        def counted_tick(self, now):
            readers.clear()
            accesses[0] = 0
            tick(self, now)
            if not readers:
                clean.append(accesses[0])
            else:
                assert accesses[0] > 0, readers

        monkeypatch.setattr(_Segment, "tick", counted_tick)
        steady = steady_federation()
        steady.run(SYNC_TICKS)
        assert len(clean) > SYNC_TICKS // 2
        assert clean == [0] * len(clean)


class TestScalarObjectsStayPlain:
    """Only array sites bind: the scalar controllers' runtime objects
    are the plain classes, so the specification path pays nothing."""

    @staticmethod
    def assert_plain(controller):
        for server in controller.servers.values():
            assert type(server) is ServerRuntime
            assert type(server.thermal) is TemperatureIntegrator
            assert type(server.smoother) is ExponentialSmoother
        for vm in controller.placement.vms:
            assert type(vm) is VM

    def test_scalar_controllers(self):
        scalar, _ = run_willow(n_ticks=10, seed=3)
        self.assert_plain(scalar)
        faulty, _ = run_resilient(n_ticks=10, seed=3)
        self.assert_plain(faulty)
        distributed, _ = run_distributed(n_ticks=10, seed=3)
        self.assert_plain(distributed)
        live = LiveSimulation(ServiceSpec(branching=(2, 2)))
        for _ in range(3):
            live.step()
        self.assert_plain(live.controller)

    def test_scalar_sites_of_a_fused_federation(self):
        coordinator = build_federation(
            make_specs(n_sites=3), n_ticks=TICKS, vectorized=True
        )
        coordinator.run(8)
        self.assert_plain(coordinator.sites[1].controller)
        array = coordinator.sites[0].controller
        assert all(
            isinstance(s, LaneServerRuntime) for s in array.servers.values()
        )


class TestFederationFleetAliasing:
    """The fused tick writes block arrays; per-site code must see the
    same memory through the site views (and vice versa)."""

    @pytest.fixture()
    def fed(self):
        coordinator = build_federation(
            make_specs(n_sites=2, fault_site=False),
            n_ticks=8,
            vectorized=True,
        )
        return coordinator.fed_fleet, [
            s.controller.fleet for s in coordinator.sites
        ]

    def test_views_share_memory(self, fed):
        block, fleets = fed
        for name in ("raw", "served", "budget", "temperature", "awake"):
            for fleet in fleets:
                assert np.shares_memory(
                    getattr(block, name), getattr(fleet, name)
                ), name

    def test_smoother_lanes_share_memory(self, fed):
        block, fleets = fed
        for fleet in fleets:
            assert np.shares_memory(block.smoother_values, fleet.smoother.values)
            assert np.shares_memory(block.smoother_primed, fleet.smoother.primed)

    def test_site_update_lands_in_block(self, fed):
        block, fleets = fed
        obs = np.full(fleets[0].n, 123.0)
        fleets[0].smoother.update(obs, mask=np.ones(fleets[0].n, dtype=bool))
        assert np.all(block.smoother_values[: fleets[0].n] == 123.0)


# ------------------------------------------------------- prescreen kernels
class TestPrescreenKernels:
    EPS = 1e-9

    def test_deficient_order_matches_sorted(self):
        rng = np.random.default_rng(5)
        n = 40
        raw = rng.uniform(50.0, 150.0, n)
        budget = rng.uniform(50.0, 150.0, n)
        awake = rng.random(n) > 0.2
        node_ids = rng.permutation(n) + 100
        rows = deficient_order(awake, raw, budget, node_ids, self.EPS)
        ref = sorted(
            (
                i
                for i in range(n)
                if awake[i] and raw[i] > budget[i] + self.EPS
            ),
            key=lambda i: (budget[i] - raw[i], node_ids[i]),
        )
        assert rows.tolist() == ref

    def test_destination_order_matches_scalar_screen(self):
        rng = np.random.default_rng(6)
        n = 40
        raw = rng.uniform(50.0, 150.0, n)
        budget = rng.uniform(50.0, 150.0, n)
        awake = rng.random(n) > 0.2
        squeezed = rng.random(n) > 0.7
        node_ids = rng.permutation(n) + 7
        capacity = budget - raw - 5.0 - 2.0
        order, caps = destination_order(
            awake, raw, budget, squeezed, capacity, node_ids, self.EPS
        )
        ref = sorted(
            (
                i
                for i in range(n)
                if awake[i]
                and not raw[i] > budget[i] + self.EPS
                and not squeezed[i]
                and capacity[i] > self.EPS
            ),
            key=lambda i: node_ids[i],
        )
        assert order.tolist() == ref
        assert caps.tolist() == [capacity[i] for i in ref]
