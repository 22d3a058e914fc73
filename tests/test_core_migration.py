"""Unit tests for the demand-side migration planner (Sec. IV-E)."""

import pytest

from repro.core import NodeRuntime, ServerRuntime, WillowConfig
from repro.core.migration import MigrationPlanner
from repro.topology import NodeKind, Tree
from repro.workload import AppType, VM


def build_cluster(config, groups=2, per_group=2):
    """A 2-level tree with runtimes; returns (tree, servers, internals)."""
    tree = Tree(root_name="dc", root_level=2)
    for g in range(groups):
        group = tree.add_child(tree.root, f"g{g}", NodeKind.ENCLOSURE)
        for s in range(per_group):
            tree.add_child(group, f"s{g}{s}", NodeKind.SERVER)
    servers = {
        leaf.node_id: ServerRuntime(leaf, config) for leaf in tree.servers()
    }
    internals = {
        node.node_id: NodeRuntime(node, config)
        for node in tree
        if not node.is_leaf
    }
    return tree, servers, internals


def load(server, demands, start_id=0):
    """Host VMs with the given current demands on ``server``."""
    app = AppType("app", 1.0)
    for offset, demand in enumerate(demands):
        vm = VM(
            vm_id=start_id + offset, app=app, host_id=server.node.node_id
        )
        vm.current_demand = float(demand)
        server.vms[vm.vm_id] = vm
    server.observe_demand()


def set_budgets(servers, internals, budgets):
    """Assign per-server budgets by name and sum them up the tree."""
    by_name = {s.node.name: s for s in servers.values()}
    for name, budget in budgets.items():
        by_name[name].set_budget(budget)
    for runtime in internals.values():
        total = 0.0
        for leaf in runtime.node.leaves():
            total += servers[leaf.node_id].budget
        runtime.set_budget(total)
        runtime.observe_demand(
            sum(servers[leaf.node_id].smoothed_demand for leaf in runtime.node.leaves())
        )


@pytest.fixture
def config():
    # static 30 W, margin 10 W, cost 5 W: numbers below are chosen to be
    # easy to reason about.
    return WillowConfig(p_min=10.0, migration_cost_power=5.0)


def test_no_deficit_no_moves(config):
    tree, servers, internals = build_cluster(config)
    for i, server in enumerate(servers.values()):
        load(server, [50.0], start_id=i * 10)
        server.set_budget(200.0)
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert plan.moves == [] and plan.dropped == []


def test_local_migration_preferred(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0, 60.0], start_id=0)  # demand 30+160=190
    load(s01, [10.0], start_id=10)
    load(s10, [10.0], start_id=20)
    load(s11, [10.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 120.0, "s01": 200.0, "s10": 200.0, "s11": 200.0},
    )
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert len(plan.moves) >= 1
    # The local sibling (s01) has plenty of surplus: everything shed
    # must land there, not across the tree.
    for move in plan.moves:
        assert move.dst.name == "s01"
        assert move.local


def test_nonlocal_when_local_siblings_full(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0], start_id=0)  # demand 130
    load(s01, [150.0], start_id=10)  # sibling full: demand 180 = budget
    load(s10, [10.0], start_id=20)  # distant surplus
    load(s11, [10.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 100.0, "s01": 180.0, "s10": 200.0, "s11": 200.0},
    )
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert len(plan.moves) == 1
    move = plan.moves[0]
    assert move.dst.name in ("s10", "s11")
    assert not move.local


def test_margin_respected_at_target(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0], start_id=0)  # deficit on s00
    load(s01, [55.0], start_id=10)  # surplus 100-85=15 < item+margin
    load(s10, [150.0], start_id=20)
    load(s11, [150.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 50.0, "s01": 100.0, "s10": 180.0, "s11": 180.0},
    )
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    # s01's capacity = 100 - 85 - 10 - 5 = 0: can't accept the 100 W VM;
    # nobody else can either -> demand dropped.
    assert plan.moves == []
    assert len(plan.dropped) == 1
    assert plan.dropped[0][1].name == "s00"


def test_sheds_largest_vms_first(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [80.0, 20.0, 5.0], start_id=0)  # demand 135
    load(s01, [5.0], start_id=10)
    load(s10, [5.0], start_id=20)
    load(s11, [5.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 100.0, "s01": 300.0, "s10": 300.0, "s11": 300.0},
    )
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    # Deficit 35, goal demand <= 90: shedding the 80 W VM suffices.
    assert len(plan.moves) == 1
    assert plan.moves[0].vm.current_demand == 80.0


def test_unidirectional_rule_excludes_squeezed_targets(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0], start_id=0)
    load(s01, [20.0], start_id=10)  # sibling has surplus but is squeezed
    load(s10, [20.0], start_id=20)
    load(s11, [20.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 80.0, "s01": 200.0, "s10": 200.0, "s11": 200.0},
    )
    # Simulate a supply event that *reduced* s01's budget below its
    # smoothed demand: it must not receive migrations.
    s01.set_budget(40.0)  # smoothed demand is 50, so s01 is squeezed
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert all(move.dst.name != "s01" for move in plan.moves)


def test_budget_reduced_but_not_squeezed_still_receives(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0], start_id=0)
    load(s01, [20.0], start_id=10)
    load(s10, [200.0], start_id=20)
    load(s11, [200.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 80.0, "s01": 300.0, "s10": 230.0, "s11": 230.0},
    )
    # s01's budget shrank but still covers its demand comfortably.
    s01.set_budget(250.0)
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert len(plan.moves) == 1
    assert plan.moves[0].dst.name == "s01"


def test_squeezed_ancestor_excludes_whole_subtree(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0], start_id=0)
    load(s01, [200.0], start_id=10)  # local sibling full
    load(s10, [20.0], start_id=20)  # distant group has surplus...
    load(s11, [20.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 80.0, "s01": 230.0, "s10": 200.0, "s11": 200.0},
    )
    # ...but the distant group's PMU was squeezed by the supply event.
    g1 = tree.by_name("g1")
    internals[g1.node_id].smoothed_demand = 500.0
    internals[g1.node_id].set_budget(300.0)  # below aggregated demand
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert plan.moves == []
    assert len(plan.dropped) == 1


def test_sleeping_server_not_a_target(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0], start_id=0)
    load(s10, [20.0], start_id=20)
    load(s11, [20.0], start_id=30)
    s01.observe_demand()
    set_budgets(
        servers,
        internals,
        {"s00": 80.0, "s01": 300.0, "s10": 60.0, "s11": 60.0},
    )
    s01.sleep()
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert all(move.dst.name != "s01" for move in plan.moves)


def test_deficient_server_not_a_target(config):
    tree, servers, internals = build_cluster(config)
    s00, s01, s10, s11 = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s00, [100.0], start_id=0)
    load(s01, [100.0], start_id=10)
    load(s10, [5.0], start_id=20)
    load(s11, [5.0], start_id=30)
    set_budgets(
        servers,
        internals,
        {"s00": 80.0, "s01": 80.0, "s10": 300.0, "s11": 300.0},
    )
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    for move in plan.moves:
        assert move.dst.name in ("s10", "s11")


def test_dropped_power_property(config):
    tree, servers, internals = build_cluster(config)
    s00 = servers[tree.servers()[0].node_id]
    load(s00, [100.0, 50.0], start_id=0)
    for leaf in tree.servers()[1:]:
        servers[leaf.node_id].observe_demand()
        servers[leaf.node_id].set_budget(10.0)
    set_budgets(servers, internals, {"s00": 40.0})
    plan = MigrationPlanner(tree, config).plan(servers, internals)
    assert plan.dropped_power == pytest.approx(
        sum(vm.current_demand for vm, _node in plan.dropped)
    )
    assert plan.dropped_power > 0


class TestDistributedVsFlatMatching:
    """Paper Properties 1-2: the distributed (local-first) solution is
    optimal within FFDLR's bounds; it may differ from the flat global
    solution, but not by much."""

    @staticmethod
    def _scenario(seed, local_first):
        import numpy as np

        rng = np.random.default_rng(seed)
        cfg = WillowConfig(p_min=10.0, local_first=local_first)
        tree = Tree(root_name="dc", root_level=2)
        servers = {}
        for g in range(3):
            grp = tree.add_child(tree.root, f"g{g}", NodeKind.ENCLOSURE)
            for s in range(3):
                leaf = tree.add_child(grp, f"s{g}{s}", NodeKind.SERVER)
                servers[leaf.node_id] = ServerRuntime(leaf, cfg)
        internals = {
            n.node_id: NodeRuntime(n, cfg) for n in tree if not n.is_leaf
        }
        app = AppType("a", 1.0)
        vid = 0
        for runtime in servers.values():
            for _ in range(rng.integers(2, 6)):
                vm = VM(vm_id=vid, app=app, host_id=runtime.node.node_id)
                vid += 1
                vm.current_demand = float(rng.uniform(10, 120))
                runtime.vms[vm.vm_id] = vm
            runtime.observe_demand()
            runtime.set_budget(float(rng.uniform(100, 450)))
        for runtime in internals.values():
            runtime.set_budget(
                sum(servers[l.node_id].budget for l in runtime.node.leaves())
            )
            runtime.smoothed_demand = sum(
                servers[l.node_id].smoothed_demand
                for l in runtime.node.leaves()
            )
        plan = MigrationPlanner(tree, cfg).plan(servers, internals)
        matched = sum(m.vm.current_demand for m in plan.moves)
        return matched, plan.dropped_power

    def test_locality_costs_little_matching_quality(self):
        import numpy as np

        extra_drops = []
        totals = []
        for seed in range(40):
            matched_local, dropped_local = self._scenario(seed, True)
            matched_flat, dropped_flat = self._scenario(seed, False)
            # Demand is conserved either way.
            assert matched_local + dropped_local == pytest.approx(
                matched_flat + dropped_flat, rel=1e-9
            )
            extra_drops.append(dropped_local - dropped_flat)
            totals.append(matched_local + dropped_local)
        mean_shed = float(np.mean([t for t in totals if t > 0]))
        # On average the locality preference costs < 10 % of the shed
        # demand in extra drops (FFDLR's bound keeps both near-optimal).
        assert float(np.mean(extra_drops)) < 0.10 * mean_shed


class TestOversizePrescreen:
    """An item larger than every bin of its group is never offered to
    FFDLR (it could not be packed, and leaving it out changes nothing
    else), and a group left with no item makes no FFDLR call."""

    @staticmethod
    def plan_counting(config, monkeypatch, shed, capacity=50.0):
        import repro.core.migration as migration

        calls = []
        real = migration.ffdlr_pack

        def counting(items, bins):
            calls.append(sorted(item.size for item in items))
            return real(items, bins)

        monkeypatch.setattr(migration, "ffdlr_pack", counting)
        tree, servers, internals = build_cluster(config)
        s00, *others = [servers[leaf.node_id] for leaf in tree.servers()]
        load(s00, shed, start_id=0)
        for k, server in enumerate(others):
            load(server, [10.0], start_id=10 * (k + 1))
        overhead = config.p_min + config.migration_cost_power
        budgets = {s00.node.name: 60.0}
        for server in others:
            budgets[server.node.name] = server.raw_demand + overhead + capacity
        set_budgets(servers, internals, budgets)
        return MigrationPlanner(tree, config).plan(servers, internals), calls

    def test_group_of_oversized_items_makes_no_call(self, config, monkeypatch):
        plan, calls = self.plan_counting(config, monkeypatch, [100.0, 90.0])
        assert calls == []
        assert plan.moves == []
        assert sorted(vm.current_demand for vm, _node in plan.dropped) == [
            90.0,
            100.0,
        ]

    def test_oversized_items_stay_pending(self, config, monkeypatch):
        plan, calls = self.plan_counting(config, monkeypatch, [100.0, 40.0])
        assert calls == [[40.0]]
        assert [move.vm.current_demand for move in plan.moves] == [40.0]
        assert [vm.current_demand for vm, _node in plan.dropped] == [100.0]
