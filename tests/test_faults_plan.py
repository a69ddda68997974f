"""Unit tests for the deterministic fault schedule and its injector."""

import numpy as np
import pytest

from repro.errors import ConfigError, MachineDownError
from repro.faults import CrashFault, FaultInjector, FaultPlan, Partition
from repro.net import SimNetwork
from repro.obs import MetricsRegistry


class TestFaultPlan:
    def test_crash_normalisation_and_lookup(self):
        plan = FaultPlan(crashes=((3, 1), CrashFault(3, 2), (5, 0)))
        assert plan.crashes_at(3) == [1, 2]
        assert plan.crashes_at(5) == [0]
        assert plan.crashes_at(4) == []

    def test_partition_normalisation(self):
        plan = FaultPlan(partitions=((2, 4, {0, 1}),))
        assert plan.partitions == (Partition(2, 4, frozenset({0, 1})),)
        # Active only inside [start, end), and only across the cut.
        assert plan.is_partitioned(0, 2, round_=2)
        assert plan.is_partitioned(2, 1, round_=3)
        assert not plan.is_partitioned(0, 1, round_=2)   # same side
        assert not plan.is_partitioned(0, 2, round_=4)   # healed
        assert not plan.is_partitioned(0, 2, round_=1)   # not yet

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(max_attempts=0)
        with pytest.raises(ConfigError):
            FaultPlan(retry_timeout=0.0)
        with pytest.raises(ConfigError):
            FaultPlan(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            FaultPlan(partitions=((4, 4, {0}),))  # empty interval

    def test_draws_are_deterministic_across_instances(self):
        a = FaultPlan(seed=7, drop_rate=0.3, duplicate_rate=0.3,
                      delay_rate=0.3, corrupt_rate=0.3)
        b = FaultPlan(seed=7, drop_rate=0.3, duplicate_rate=0.3,
                      delay_rate=0.3, corrupt_rate=0.3)
        for src in range(3):
            for dst in range(3):
                for round_ in range(5):
                    args = (src, dst, round_)
                    assert (a.should_drop(*args, attempt=0)
                            == b.should_drop(*args, attempt=0))
                    assert (a.should_duplicate(*args)
                            == b.should_duplicate(*args))
                    assert a.delay_for(*args) == b.delay_for(*args)
        assert a.should_corrupt(11, 2) == b.should_corrupt(11, 2)

    def test_draws_depend_on_values_not_on_integer_type(self):
        """``repr(np.int64(0)) != repr(0)`` under numpy 2: a machine id
        out of an array must draw what the same id out of a ``range``
        draws, for every kind of fault."""
        plan = FaultPlan(seed=1, drop_rate=0.5, duplicate_rate=0.5,
                         delay_rate=0.5, corrupt_rate=0.5,
                         partitions=((0, 3, {0}),))
        queries = {
            "drop": lambda a, b, c: plan.should_drop(a, b, c, a),
            "duplicate": plan.should_duplicate,
            "delay": plan.delay_for,
            "partition": plan.is_partitioned,
            "corrupt": plan.should_corrupt,
        }
        coordinates = [(0, dst, round_)
                       for dst in range(12) for round_ in range(5)]
        for kind, query in queries.items():
            differing = sum(
                query(*parts) != query(*map(np.int64, parts))
                for parts in coordinates)
            assert not differing, (
                f"{kind}: {differing} of {len(coordinates)} draws differ")

    def test_seed_changes_the_schedule(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        draws_a = [a.should_drop(0, 1, r, 0) for r in range(64)]
        draws_b = [b.should_drop(0, 1, r, 0) for r in range(64)]
        assert draws_a != draws_b

    def test_rates_roughly_respected(self):
        plan = FaultPlan(seed=3, drop_rate=0.25)
        hits = sum(plan.should_drop(0, 1, r, 0) for r in range(2000))
        assert 0.18 < hits / 2000 < 0.32

    def test_zero_rates_never_fire(self):
        plan = FaultPlan(seed=9)
        assert not plan.should_drop(0, 1, 0, 0)
        assert not plan.should_duplicate(0, 1, 0)
        assert plan.delay_for(0, 1, 0) == 0.0
        assert not plan.should_corrupt(0, 0)

    def test_backoff_is_exponential(self):
        plan = FaultPlan(retry_timeout=1e-3, backoff_factor=2.0)
        assert plan.backoff(0) == pytest.approx(1e-3)
        assert plan.backoff(3) == pytest.approx(8e-3)


class TestFaultInjector:
    def _injector(self, **plan_kwargs):
        registry = MetricsRegistry()
        injector = FaultInjector(FaultPlan(**plan_kwargs),
                                 registry=registry)
        return injector, registry, SimNetwork(registry=registry)

    def test_crashes_fire_exactly_once(self):
        injector, registry, _ = self._injector(crashes=((2, 1), (2, 3)))
        assert injector.take_crashes(0) == []
        assert injector.take_crashes(2) == [1, 3]
        # A rollback replaying round 2 must not crash again.
        assert injector.take_crashes(2) == []
        assert registry.counter("faults.crash.total").value == 2

    def test_rpc_partition_exhausts_budget(self):
        injector, registry, net = self._injector(
            partitions=((0, 10, {1}),), max_attempts=3,
        )
        before = net.clock.now
        with pytest.raises(MachineDownError):
            injector.charge_rpc_faults(net, 0, 1, size=64)
        # Every lost attempt paid wire time plus its backoff timeout.
        assert net.clock.now > before
        assert registry.counter("rpc.timeout.total").value == 1
        assert registry.counter("rpc.retry.total").value == 3
        assert registry.counter(
            "faults.partition.blocked.total"
        ).value == 1

    def test_rpc_same_side_of_partition_unaffected(self):
        injector, registry, net = self._injector(partitions=((0, 10, {1, 2}),))
        injector.charge_rpc_faults(net, 1, 2, size=64)
        assert registry.counter("rpc.timeout.total").value == 0

    def test_transfer_partition_charges_but_never_raises(self):
        injector, registry, net = self._injector(
            partitions=((0, 10, {1}),), max_attempts=3,
        )
        extra = injector.charge_transfer_faults(net, 0, 1, size=256, count=4)
        assert extra > 0.0
        assert registry.counter("rpc.retry.total").value == 3

    def test_no_faults_costs_nothing(self):
        injector, _, net = self._injector()
        assert injector.charge_transfer_faults(net, 0, 1, 256, 4) == 0.0
        before = net.clock.now
        injector.charge_rpc_faults(net, 0, 1, 64)
        assert net.clock.now == before

    def test_duplicate_and_delay_are_metered(self):
        injector, registry, net = self._injector(
            duplicate_rate=1.0, delay_rate=1.0, extra_latency=1e-4,
        )
        extra = injector.charge_transfer_faults(net, 0, 1, 256, 4)
        assert extra >= 1e-4
        assert registry.counter("faults.duplicate.total").value == 1
        assert registry.counter("faults.delay.total").value == 1

    def test_tokens_give_independent_draws_per_send(self):
        # With drop_rate=0.5, repeated sends over the same link in the
        # same round must not all share one fate.
        injector, _, net = self._injector(drop_rate=0.5, max_attempts=2)
        injector.begin_round(0)
        fates = []
        for _ in range(32):
            try:
                injector.charge_rpc_faults(net, 0, 1, 64)
                fates.append("ok")
            except MachineDownError:
                fates.append("down")
        assert len(set(fates)) == 2

    def test_corrupt_replica_metered(self):
        injector, registry, _ = self._injector(corrupt_rate=1.0)
        assert injector.corrupt_replica(5, 0)
        assert registry.counter("faults.corrupt.total").value == 1
