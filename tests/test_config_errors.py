"""Tests for configuration validation and the exception hierarchy."""

import pytest

from repro import errors
from repro.config import (
    ClusterConfig,
    ConfigError,
    MemoryParams,
    NetworkParams,
)


class TestClusterConfig:
    def test_defaults_valid(self):
        config = ClusterConfig()
        assert config.machines == 8
        assert config.trunk_count == 2 ** config.trunk_bits

    def test_trunks_must_exceed_machines(self):
        with pytest.raises(ConfigError, match="must exceed"):
            ClusterConfig(machines=8, trunk_bits=3)

    @pytest.mark.parametrize("kwargs", [
        dict(machines=0),
        dict(trunk_bits=0),
        dict(trunk_bits=30),
        dict(proxies=-1),
        dict(replication=0),
        dict(machines=2.5),
        dict(trunk_bits=4.0),
        dict(machines=True),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs)

    def test_frozen(self):
        config = ClusterConfig()
        with pytest.raises(Exception):
            config.machines = 99


class TestMemoryParams:
    @pytest.mark.parametrize("kwargs", [
        dict(trunk_size=0),
        dict(trunk_size=5000, page_size=4096),   # not page-aligned
        dict(page_size=0),
        dict(defrag_trigger_ratio=0.0),
        dict(defrag_trigger_ratio=1.5),
        dict(reservation_factor=0.5),
        dict(trunk_size=float(1 << 20)),
        dict(page_budget=True),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MemoryParams(**kwargs)

    def test_defaults_valid(self):
        params = MemoryParams()
        assert params.trunk_size % params.page_size == 0


class TestNetworkParams:
    def test_transfer_time_monotone_in_size(self):
        params = NetworkParams()
        assert params.transfer_time(10**6) > params.transfer_time(10**3)

    def test_components_sum_to_total(self):
        params = NetworkParams()
        for size, messages in ((100, 1), (10**6, 500), (0, 1)):
            latency, serial = params.transfer_components(size, messages)
            assert latency + serial == pytest.approx(
                params.transfer_time(size, messages)
            )

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            NetworkParams().transfer_time(-5)

    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth=0),
        dict(bandwidth=-1),
        dict(latency=-1.0),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NetworkParams(**kwargs)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc_class", [
        errors.ConfigError, errors.MemoryCloudError,
        errors.CellNotFoundError, errors.TrunkFullError,
        errors.CellLockedError, errors.AddressingError,
        errors.TslError, errors.TslSyntaxError, errors.TslTypeError,
        errors.SchemaMismatchError, errors.NetworkError,
        errors.ProtocolError, errors.MachineDownError,
        errors.ClusterError, errors.LeaderElectionError,
        errors.RecoveryError, errors.TfsError, errors.BlockNotFoundError,
        errors.ComputeError, errors.SuperstepError, errors.QueryError,
    ])
    def test_all_derive_from_trinity_error(self, exc_class):
        if exc_class is errors.CellNotFoundError:
            instance = exc_class(1)
        elif exc_class is errors.MachineDownError:
            instance = exc_class(1)
        elif exc_class is errors.BlockNotFoundError:
            instance = exc_class("x")
        else:
            instance = exc_class("boom")
        assert isinstance(instance, errors.TrinityError)

    def test_cell_not_found_is_key_error(self):
        exc = errors.CellNotFoundError(0xAB)
        assert isinstance(exc, KeyError)
        assert "0xab" in str(exc)

    def test_machine_down_carries_id(self):
        exc = errors.MachineDownError(7)
        assert exc.machine_id == 7
        assert "7" in str(exc)

    def test_tsl_syntax_error_position(self):
        exc = errors.TslSyntaxError("bad", line=3, column=9)
        assert "line 3" in str(exc)
        plain = errors.TslSyntaxError("bad")
        assert str(plain) == "bad"

    def test_block_not_found_readable(self):
        assert "'/a'" in str(errors.BlockNotFoundError("/a"))
