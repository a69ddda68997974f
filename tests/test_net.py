"""Tests for the network substrate: cost model, rounds, runtime."""

import pytest

from repro.config import PER_MESSAGE_OVERHEAD, NetworkParams
from repro.errors import MachineDownError, ProtocolError
from repro.net import Message, MessageRuntime, ParallelRound, SimNetwork
from repro.tsl import compile_tsl


class TestNetworkParams:
    def test_transfer_time_components(self):
        params = NetworkParams(latency=1e-4, bandwidth=1e8,
                               packing_enabled=False)
        # 1 message, 1e6 bytes: latency + bytes/bw + overhead
        assert params.transfer_time(10**6) == pytest.approx(
            1e-4 + 0.01 + PER_MESSAGE_OVERHEAD
        )
        # unpacked, every message pays a latency and its overhead
        assert params.transfer_time(10**6, messages=3) == pytest.approx(
            3 * 1e-4 + 0.01 + 3 * PER_MESSAGE_OVERHEAD
        )

    def test_packing_shares_latency(self):
        packed = NetworkParams(packing_enabled=True)
        unpacked = NetworkParams(packing_enabled=False)
        size, messages = 1000, 100
        assert (packed.transfer_time(size, messages)
                < unpacked.transfer_time(size, messages))

    def test_negative_size_rejected(self):
        with pytest.raises(Exception):
            NetworkParams().transfer_time(-1)


class TestSimNetwork:
    def test_remote_transfer_counts(self):
        net = SimNetwork()
        elapsed = net.transfer(0, 1, 100, messages=2)
        assert elapsed > 0
        assert net.counters.messages == 2
        assert net.counters.transfers == 1
        assert net.counters.payload_bytes == 100

    def test_local_transfer_skips_wire(self):
        net = SimNetwork()
        local = net.transfer(0, 0, 10**6)
        remote = net.transfer(0, 1, 10**6)
        assert local < remote
        assert net.counters.local_messages == 1
        assert net.counters.transfers == 1

    def test_clock_advances(self):
        net = SimNetwork()
        net.clock.advance(1.5)
        assert net.clock.now == 1.5
        with pytest.raises(ValueError):
            net.clock.advance(-1)

    def test_reset_counters(self):
        net = SimNetwork()
        net.transfer(0, 1, 10)
        net.reset_counters()
        assert net.counters.messages == 0


class TestParallelRound:
    def test_elapsed_is_slowest_machine(self):
        net = SimNetwork()
        round_ = ParallelRound(net)
        round_.add_compute(0, 0.5)
        round_.add_compute(1, 2.0)
        assert round_.finish() == pytest.approx(2.0)
        assert net.clock.now == pytest.approx(2.0)

    def test_parallelism_divides_compute(self):
        net = SimNetwork()
        round_ = ParallelRound(net)
        round_.add_compute(0, 8.0)
        assert round_.finish(parallelism=8) == pytest.approx(1.0)

    def test_serial_compute_not_divided(self):
        net = SimNetwork()
        round_ = ParallelRound(net)
        round_.add_serial_compute(0, 1.0)
        round_.add_compute(0, 8.0)
        assert round_.finish(parallelism=8) == pytest.approx(2.0)

    def test_messages_charged_per_link(self):
        net = SimNetwork()
        round_ = ParallelRound(net)
        round_.add_message(0, 1, 1000, count=10)
        elapsed = round_.finish()
        assert elapsed > 0
        # Ten logical messages on one link pack into one physical send.
        assert net.counters.messages == 10
        assert net.counters.transfers == 1

    def test_double_finish_rejected(self):
        round_ = ParallelRound(SimNetwork())
        round_.finish()
        with pytest.raises(RuntimeError):
            round_.finish()

    def test_machines_touched(self):
        round_ = ParallelRound(SimNetwork())
        round_.add_compute(0, 1.0)
        round_.add_message(2, 3, 10)
        assert round_.machines_touched == 2


class TestMessage:
    def test_size_includes_envelope(self):
        message = Message(0, 1, "p", b"12345")
        assert message.size == 5 + 24

    def test_reply_swaps_endpoints(self):
        request = Message(0, 1, "p", b"req")
        response = request.reply(b"resp")
        assert (response.src, response.dst) == (1, 0)
        assert response.correlation_id == request.correlation_id
        assert not response.is_request


class TestMessageRuntime:
    def test_sync_roundtrip_bytes(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "echo", lambda m, d: d + b"!")
        assert runtime.send_sync(0, 1, "echo", b"hi") == b"hi!"
        assert runtime.network.clock.now > 0

    def test_sync_with_tsl_schema(self):
        schema = compile_tsl("""
        struct M { string Text; }
        protocol Echo { Type: Syn; Request: M; Response: M; }
        """)
        runtime = MessageRuntime(schema=schema)
        runtime.register_handler(
            1, "Echo", lambda m, d: {"Text": d["Text"].upper()},
        )
        reply = runtime.send_sync(0, 1, "Echo", {"Text": "hello"})
        assert reply == {"Text": "HELLO"}

    def test_missing_handler_raises(self):
        runtime = MessageRuntime()
        with pytest.raises(ProtocolError, match="no handler"):
            runtime.send_sync(0, 1, "ghost", b"")

    def test_send_to_down_machine(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "p", lambda m, d: None)
        runtime.fail_machine(1)
        with pytest.raises(MachineDownError):
            runtime.send_sync(0, 1, "p", b"")
        runtime.recover_machine(1)
        runtime.send_sync(0, 1, "p", b"")

    def test_void_protocol_payload_validation(self):
        schema = compile_tsl("protocol Ping { Type: Syn; Request: void; }")
        runtime = MessageRuntime(schema=schema)
        runtime.register_handler(1, "Ping", lambda m, d: None)
        assert runtime.send_sync(0, 1, "Ping") is None
        with pytest.raises(ProtocolError, match="void"):
            runtime.send_sync(0, 1, "Ping", {"x": 1})

    def test_unencodable_payload_rejected(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "p", lambda m, d: None)
        with pytest.raises(ProtocolError, match="cannot encode"):
            runtime.send_sync(0, 1, "p", {"dict": "without schema"})
