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
        assert net.counters.messages == 10

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

    def test_async_buffers_until_flush(self):
        runtime = MessageRuntime()
        received = []
        runtime.register_handler(1, "note", lambda m, d: received.append(d))
        runtime.send_async(0, 1, "note", b"a")
        runtime.send_async(0, 1, "note", b"b")
        assert received == []
        assert runtime.pending_async == 2
        elapsed = runtime.flush()
        assert received == [b"a", b"b"]
        assert elapsed > 0
        assert runtime.pending_async == 0

    def test_flush_packs_per_link(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "n", lambda m, d: None)
        runtime.register_handler(2, "n", lambda m, d: None)
        for _ in range(50):
            runtime.send_async(0, 1, "n", b"x")
            runtime.send_async(0, 2, "n", b"x")
        runtime.flush()
        # 100 logical messages but only a handful of physical transfers.
        assert runtime.network.counters.messages == 100
        assert runtime.network.counters.transfers <= 4

    def test_send_to_down_machine(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "p", lambda m, d: None)
        runtime.fail_machine(1)
        with pytest.raises(MachineDownError):
            runtime.send_sync(0, 1, "p", b"")
        with pytest.raises(MachineDownError):
            runtime.send_async(0, 1, "p", b"")
        runtime.recover_machine(1)
        runtime.send_sync(0, 1, "p", b"")

    def test_void_protocol_payload_validation(self):
        schema = compile_tsl("protocol Ping { Type: Syn; Request: void; }")
        runtime = MessageRuntime(schema=schema)
        runtime.register_handler(1, "Ping", lambda m, d: None)
        assert runtime.send_sync(0, 1, "Ping") is None
        with pytest.raises(ProtocolError, match="void"):
            runtime.send_sync(0, 1, "Ping", {"x": 1})

    def test_register_everywhere(self):
        runtime = MessageRuntime()
        runtime.register_everywhere(
            range(3), "who",
            lambda machine_id: (lambda m, d: machine_id.to_bytes(1, "little")),
        )
        assert runtime.send_sync(9, 2, "who", b"") == b"\x02"

    def test_unencodable_payload_rejected(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "p", lambda m, d: None)
        with pytest.raises(ProtocolError, match="cannot encode"):
            runtime.send_sync(0, 1, "p", {"dict": "without schema"})


class TestAsyncReplies:
    def test_callback_receives_reply(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "double", lambda m, d: d + d)
        received = []
        runtime.send_async(0, 1, "double", b"ab",
                           on_reply=received.append)
        assert received == []
        runtime.flush()
        assert received == [b"abab"]

    def test_callbacks_with_schema(self):
        schema = compile_tsl("""
        struct M { int X; }
        protocol Inc { Type: Asyn; Request: M; Response: M; }
        """)
        runtime = MessageRuntime(schema=schema)
        runtime.register_handler(
            2, "Inc", lambda m, d: {"X": d["X"] + 1},
        )
        out = []
        for value in range(5):
            runtime.send_async(0, 2, "Inc", {"X": value},
                               on_reply=lambda r: out.append(r["X"]))
        runtime.flush()
        assert out == [1, 2, 3, 4, 5]

    def test_fire_and_forget_has_no_reply_cost(self):
        runtime = MessageRuntime()
        runtime.register_handler(1, "note", lambda m, d: b"ignored")
        runtime.send_async(0, 1, "note", b"x")
        runtime.flush()
        transfers_without = runtime.network.counters.transfers
        runtime.send_async(0, 1, "note", b"x", on_reply=lambda r: None)
        runtime.flush()
        # The reply ride adds one extra transfer.
        assert runtime.network.counters.transfers == transfers_without + 2


class TestBroadcastSync:
    def test_gathers_replies_in_order(self):
        runtime = MessageRuntime()
        for machine in range(4):
            runtime.register_handler(
                machine, "who",
                lambda m, d, mid=machine: mid.to_bytes(1, "little"),
            )
        replies = runtime.broadcast_sync(9, range(4), "who", b"")
        assert replies == [b"\x00", b"\x01", b"\x02", b"\x03"]

    def test_down_machine_rejected(self):
        runtime = MessageRuntime()
        runtime.register_handler(0, "p", lambda m, d: b"")
        runtime.register_handler(1, "p", lambda m, d: b"")
        runtime.fail_machine(1)
        with pytest.raises(MachineDownError):
            runtime.broadcast_sync(9, [0, 1], "p", b"")

    def test_charges_two_rounds(self):
        runtime = MessageRuntime()
        for machine in range(3):
            runtime.register_handler(machine, "p", lambda m, d: b"r")
        before = runtime.network.clock.now
        runtime.broadcast_sync(9, range(3), "p", b"payload")
        assert runtime.network.clock.now > before
