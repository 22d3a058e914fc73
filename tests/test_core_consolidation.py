"""Unit tests for the consolidation planner."""

import pytest

from repro.core import NodeRuntime, ServerRuntime, SleepState, WillowConfig
from repro.core.consolidation import ConsolidationPlanner
from repro.topology import NodeKind, Tree
from repro.workload import AppType, VM


def build_cluster(config, n=4):
    tree = Tree(root_name="dc", root_level=2)
    group = tree.add_child(tree.root, "g", NodeKind.ENCLOSURE)
    for i in range(n):
        tree.add_child(group, f"s{i}", NodeKind.SERVER)
    servers = {
        leaf.node_id: ServerRuntime(leaf, config) for leaf in tree.servers()
    }
    internals = {
        node.node_id: NodeRuntime(node, config)
        for node in tree
        if not node.is_leaf
    }
    return tree, servers, internals


def load(server, demands, start_id, budget):
    app = AppType("app", 1.0)
    for offset, demand in enumerate(demands):
        vm = VM(vm_id=start_id + offset, app=app, host_id=server.node.node_id)
        vm.current_demand = float(demand)
        server.vms[vm.vm_id] = vm
    server.observe_demand()
    server.set_budget(budget)


@pytest.fixture
def config():
    # threshold 20% of 420 W slope = 84 W of VM demand.
    return WillowConfig(p_min=10.0, migration_cost_power=5.0)


def test_light_server_drained_and_slept(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s[0], [20.0], start_id=0, budget=450.0)  # below threshold
    load(s[1], [200.0], start_id=10, budget=450.0)
    load(s[2], [200.0], start_id=20, budget=450.0)
    load(s[3], [200.0], start_id=30, budget=450.0)
    plan = ConsolidationPlanner(tree, config).plan(servers, internals)
    assert s[0] in plan.to_sleep
    assert len(plan.moves) == 1
    assert plan.moves[0].src.name == "s0"


def test_busy_server_not_drained(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    for i, server in enumerate(s):
        load(server, [200.0], start_id=i * 10, budget=450.0)
    plan = ConsolidationPlanner(tree, config).plan(servers, internals)
    assert plan.to_sleep == [] and plan.moves == []


def test_empty_server_sleeps_without_moves(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    s[0].observe_demand()
    s[0].set_budget(450.0)
    for i, server in enumerate(s[1:], start=1):
        load(server, [200.0], start_id=i * 10, budget=450.0)
    plan = ConsolidationPlanner(tree, config).plan(servers, internals)
    assert s[0] in plan.to_sleep
    assert plan.moves == []


def test_no_drain_when_targets_lack_margin(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s[0], [50.0], start_id=0, budget=450.0)
    # Other servers are all nearly at budget: no capacity.
    for i, server in enumerate(s[1:], start=1):
        load(server, [300.0], start_id=i * 10, budget=340.0)
    plan = ConsolidationPlanner(tree, config).plan(servers, internals)
    assert s[0] not in plan.to_sleep
    assert plan.moves == []


def test_partial_drain_never_planned(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    # Candidate hosts two VMs; targets can absorb only one.
    load(s[0], [40.0, 40.0], start_id=0, budget=450.0)
    load(s[1], [330.0], start_id=10, budget=430.0)  # capacity ~55: one VM
    load(s[2], [400.0], start_id=20, budget=435.0)
    load(s[3], [400.0], start_id=30, budget=435.0)
    plan = ConsolidationPlanner(tree, config).plan(servers, internals)
    moved_from_s0 = [m for m in plan.moves if m.src.name == "s0"]
    assert moved_from_s0 == []  # all-or-nothing
    assert s[0] not in plan.to_sleep


def test_hot_zone_drained_first(config):
    tree, servers, internals = build_cluster(config)
    leaves = tree.servers()
    hot = ServerRuntime(leaves[0], config, config.thermal.with_ambient(40.0))
    servers[leaves[0].node_id] = hot
    s = [servers[leaf.node_id] for leaf in leaves]
    # Hot server slightly busier than a cold candidate; both below
    # threshold.  Hot must still be drained first.
    load(s[0], [50.0], start_id=0, budget=300.0)  # hot
    load(s[1], [30.0], start_id=10, budget=450.0)  # cold, lighter
    load(s[2], [200.0], start_id=20, budget=450.0)
    load(s[3], [200.0], start_id=30, budget=450.0)
    plan = ConsolidationPlanner(tree, config).plan(servers, internals)
    assert plan.to_sleep
    assert plan.to_sleep[0] is s[0]


def test_drain_disabled_in_deficit_regime(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s[0], [20.0], start_id=0, budget=450.0)
    for i, server in enumerate(s[1:], start=1):
        load(server, [200.0], start_id=i * 10, budget=450.0)
    plan = ConsolidationPlanner(tree, config).plan(
        servers, internals, recent_dropped_power=100.0, root_budget=2000.0,
        total_demand=1000.0,
    )
    assert plan.to_sleep == []  # drops in flight: keep capacity up


def test_wake_heuristic_fires_on_drops_with_headroom(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    s[0].observe_demand()
    s[0].set_budget(0.0)
    s[0].sleep()
    for i, server in enumerate(s[1:], start=1):
        load(server, [400.0], start_id=i * 10, budget=440.0)
    plan = ConsolidationPlanner(tree, config).plan(
        servers,
        internals,
        recent_dropped_power=200.0,
        root_budget=1800.0,
        total_demand=1300.0,
    )
    assert plan.to_wake == [s[0]]


def test_wake_heuristic_respects_headroom(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    s[0].observe_demand()
    s[0].set_budget(0.0)
    s[0].sleep()
    for i, server in enumerate(s[1:], start=1):
        load(server, [400.0], start_id=i * 10, budget=440.0)
    plan = ConsolidationPlanner(tree, config).plan(
        servers,
        internals,
        recent_dropped_power=200.0,
        root_budget=1300.0,  # no room for another static floor
        total_demand=1295.0,
    )
    assert plan.to_wake == []


def test_consolidation_disabled(config):
    import dataclasses

    off = dataclasses.replace(config, consolidation_enabled=False)
    tree, servers, internals = build_cluster(off)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s[0], [20.0], start_id=0, budget=450.0)
    for i, server in enumerate(s[1:], start=1):
        load(server, [200.0], start_id=i * 10, budget=450.0)
    plan = ConsolidationPlanner(tree, off).plan(servers, internals)
    assert plan.to_sleep == [] and plan.moves == []


def test_floor_starved_server_drained_even_in_deficit_regime(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    # s0's budget fell below the 30 W static floor: it cannot comply
    # while awake, so it must drain and sleep even while drops persist.
    load(s[0], [10.0], start_id=0, budget=20.0)
    load(s[1], [100.0], start_id=10, budget=450.0)
    load(s[2], [100.0], start_id=20, budget=450.0)
    load(s[3], [100.0], start_id=30, budget=450.0)
    plan = ConsolidationPlanner(tree, config).plan(
        servers, internals, recent_dropped_power=500.0,
        root_budget=1400.0, total_demand=1350.0,
    )
    assert s[0] in plan.to_sleep
    assert any(m.src.name == "s0" for m in plan.moves)


def test_floor_starved_server_stays_up_when_vms_cannot_move(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    load(s[0], [10.0], start_id=0, budget=20.0)
    for i, server in enumerate(s[1:], start=1):
        # Everyone else also floor-starved: no targets at all.
        load(server, [100.0], start_id=i * 10, budget=20.0)
    plan = ConsolidationPlanner(tree, config).plan(
        servers, internals, recent_dropped_power=500.0,
        root_budget=100.0, total_demand=400.0,
    )
    assert s[0] not in plan.to_sleep  # VMs cannot be stranded


def test_chained_drains_do_not_target_draining_servers(config):
    tree, servers, internals = build_cluster(config)
    s = [servers[leaf.node_id] for leaf in tree.servers()]
    # Everyone light: the pass must not move VMs onto a server that is
    # itself being put to sleep this round.
    for i, server in enumerate(s):
        load(server, [30.0 + i], start_id=i * 10, budget=450.0)
    plan = ConsolidationPlanner(tree, config).plan(servers, internals)
    slept_ids = {srv.node.node_id for srv in plan.to_sleep}
    for move in plan.moves:
        assert move.dst.node_id not in slept_ids
    assert plan.to_sleep  # something consolidated


class TestBinsPerPass:
    """A pass builds a ``Bin`` only for a receiver that gets a VM.

    Building one per receiver for every drain candidate (C x R in a
    pass) is what stalled the first passes of a large fleet."""

    RECEIVERS, CANDIDATES = 20, 30

    @pytest.fixture
    def bins_built(self, monkeypatch):
        from repro.binpack.items import Bin

        built = []
        real = Bin.__post_init__

        def counting(bin_):
            built.append(bin_.key)
            real(bin_)

        monkeypatch.setattr(Bin, "__post_init__", counting)
        return built

    def fleet(self, config, candidate_budget):
        n = self.RECEIVERS + self.CANDIDATES
        tree, servers, internals = build_cluster(config, n=n)
        s = [servers[leaf.node_id] for leaf in tree.servers()]
        for i, server in enumerate(s[: self.RECEIVERS]):
            load(server, [200.0], start_id=10 * i, budget=450.0)
        candidates = s[self.RECEIVERS :]
        for i, server in enumerate(candidates, start=self.RECEIVERS):
            load(server, [10.0 + i / 100], start_id=10 * i, budget=candidate_budget)
        return tree, servers, internals, candidates

    def check(self, plan, candidates, built):
        assert plan.to_sleep == sorted(candidates, key=lambda s: s.vm_demand)
        assert len(plan.moves) == self.CANDIDATES
        pairs = {(m.src.node_id, m.dst.node_id) for m in plan.moves}
        assert 0 < len(built) <= len(pairs)

    def test_normal_pass(self, config, bins_built):
        tree, servers, internals, candidates = self.fleet(config, 450.0)
        plan = ConsolidationPlanner(tree, config).plan(servers, internals)
        self.check(plan, candidates, bins_built)

    def test_deficit_regime_pass(self, config, bins_built):
        # Budgeted under the 30 W static floor: drained even while
        # drops persist.
        tree, servers, internals, candidates = self.fleet(config, 20.0)
        plan = ConsolidationPlanner(tree, config).plan(
            servers,
            internals,
            recent_dropped_power=500.0,
            root_budget=10_000.0,
            total_demand=9_990.0,
        )
        self.check(plan, candidates, bins_built)
