"""Tests for the eBPF substrate and fragmentation."""

from __future__ import annotations

import pytest

from repro.dataplane.ebpf import (
    EBPFMap,
    EBPFProgram,
    Hook,
    Kernel,
    MapFullError,
)
from repro.dataplane.fragmentation import build_udp_fragments
from repro.dataplane.packet import (
    FiveTuple,
    IPV4_HEADER_LEN,
    IPv4Header,
    PROTO_UDP,
    UDPHeader,
)


class TestEBPFMap:
    def test_lookup_missing_returns_none(self):
        m = EBPFMap("m")
        assert m.lookup("k") is None

    def test_update_and_delete(self):
        m = EBPFMap("m")
        m.update("k", 1)
        assert m.lookup("k") == 1
        assert "k" in m
        assert m.delete("k")
        assert not m.delete("k")
        assert len(m) == 0

    def test_delete_key_stored_with_none(self):
        m = EBPFMap("m")
        m.update("k", None)
        assert m.delete("k")
        assert "k" not in m
        assert not m.delete("k")

    def test_capacity_e2big(self):
        m = EBPFMap("m", max_entries=2)
        m.update("a", 1)
        m.update("b", 2)
        with pytest.raises(MapFullError):
            m.update("c", 3)
        # Overwriting existing keys always succeeds.
        m.update("a", 9)
        assert m.lookup("a") == 9

    def test_items_snapshot(self):
        m = EBPFMap("m")
        m.update("a", 1)
        items = m.items()
        m.update("b", 2)
        assert dict(items) == {"a": 1}

    def test_clear(self):
        m = EBPFMap("m")
        m.update("a", 1)
        m.clear()
        assert len(m) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EBPFMap("m", max_entries=0)


class TestKernel:
    def test_create_map_registers(self):
        kernel = Kernel()
        m = kernel.create_map("env_map")
        assert kernel.maps["env_map"] is m

    def test_duplicate_map_rejected(self):
        kernel = Kernel()
        kernel.create_map("m")
        with pytest.raises(ValueError):
            kernel.create_map("m")

    def test_emit_dispatches_in_attach_order(self):
        kernel = Kernel()
        calls = []
        for name in ("first", "second"):
            kernel.attach(
                EBPFProgram(
                    name=name,
                    hook=Hook.TC_EGRESS,
                    fn=lambda ctx, maps, n=name: calls.append((n, ctx)),
                )
            )
        kernel.emit(Hook.TC_EGRESS, "pkt")
        assert calls == [("first", "pkt"), ("second", "pkt")]

    def test_emit_returns_program_results(self):
        kernel = Kernel()
        kernel.attach(
            EBPFProgram(
                name="p",
                hook=Hook.SYS_ENTER_EXECVE,
                fn=lambda ctx, maps: ctx * 2,
            )
        )
        assert kernel.emit(Hook.SYS_ENTER_EXECVE, 21) == [42]

    def test_other_hooks_untouched(self):
        kernel = Kernel()
        kernel.attach(
            EBPFProgram(
                name="p",
                hook=Hook.TC_EGRESS,
                fn=lambda ctx, maps: "x",
            )
        )
        assert kernel.emit(Hook.SYS_ENTER_EXECVE, None) == []

    def test_programs_can_share_maps(self):
        kernel = Kernel()
        kernel.create_map("shared")
        kernel.attach(
            EBPFProgram(
                name="writer",
                hook=Hook.SYS_ENTER_EXECVE,
                fn=lambda ctx, maps: maps["shared"].update(*ctx),
            )
        )
        kernel.attach(
            EBPFProgram(
                name="reader",
                hook=Hook.TC_EGRESS,
                fn=lambda ctx, maps: maps["shared"].lookup(ctx),
            )
        )
        kernel.emit(Hook.SYS_ENTER_EXECVE, ("k", 7))
        assert kernel.emit(Hook.TC_EGRESS, "k") == [7]


class TestFragmentation:
    FLOW = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_UDP, 1234, 80)

    def test_small_datagram_single_packet(self):
        packets = build_udp_fragments(self.FLOW, 100, ipid=7, mtu=1500)
        assert len(packets) == 1
        ip, l4 = IPv4Header.decode(packets[0])
        assert not ip.is_fragment
        udp, _ = UDPHeader.decode(l4)
        assert udp.src_port == 1234

    def test_large_datagram_fragments(self):
        packets = build_udp_fragments(self.FLOW, 4000, ipid=9, mtu=1500)
        assert len(packets) == 3
        headers = [IPv4Header.decode(p)[0] for p in packets]
        # All share the ipid.
        assert {h.identification for h in headers} == {9}
        # First has MF and offset 0; last has no MF.
        assert headers[0].is_first_fragment
        assert headers[-1].fragment_offset_bytes > 0
        assert not headers[-1].more_fragments
        # Middle fragments have MF set.
        for h in headers[1:-1]:
            assert h.more_fragments

    def test_offsets_contiguous(self):
        packets = build_udp_fragments(self.FLOW, 5000, ipid=1, mtu=1000)
        offset = 0
        for p in packets:
            ip, rest = IPv4Header.decode(p)
            assert ip.fragment_offset_bytes == offset
            offset += ip.total_length - IPV4_HEADER_LEN

    def test_payload_reassembles(self):
        packets = build_udp_fragments(self.FLOW, 3000, ipid=1, mtu=800)
        body = b"".join(IPv4Header.decode(p)[1] for p in packets)
        udp, payload = UDPHeader.decode(body)
        assert len(payload) == 3000

    def test_only_first_fragment_has_ports(self):
        packets = build_udp_fragments(self.FLOW, 4000, ipid=2, mtu=1500)
        _, first_l4 = IPv4Header.decode(packets[0])
        udp, _ = UDPHeader.decode(first_l4)
        assert udp.dst_port == 80

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_udp_fragments(self.FLOW, -1, ipid=0)
        with pytest.raises(ValueError):
            build_udp_fragments(self.FLOW, 10, ipid=0, mtu=10)

    @pytest.mark.parametrize("mtu", [70_000, 1500])
    def test_payload_capped_at_one_ipv4_datagram(self, mtu):
        """65 535 B of IPv4 datagram leave 65 507 B of UDP payload."""
        for too_long in (65_508, 65_520):
            with pytest.raises(ValueError, match="65507"):
                build_udp_fragments(self.FLOW, too_long, ipid=1, mtu=mtu)
        packets = build_udp_fragments(self.FLOW, 65_507, ipid=1, mtu=mtu)
        l4 = b"".join(IPv4Header.decode(p)[1] for p in packets)
        assert IPV4_HEADER_LEN + len(l4) == 0xFFFF
        udp, payload = UDPHeader.decode(l4)
        assert udp.length == len(l4) and len(payload) == 65_507
