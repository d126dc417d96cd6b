"""Tests for the demand collector backend and CSV trace I/O."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.controlplane import DemandCollector, FlowRecord
from repro.core import MegaTEOptimizer, QoSClass
from repro.traffic import (
    DemandMatrix,
    demands_to_csv_string,
    generate_demands,
    read_demands_csv,
    write_demands_csv,
)

from conftest import make_pair_demands


class TestDemandCollector:
    @pytest.fixture()
    def collector(self, tiny_topology):
        return DemandCollector(tiny_topology, interval_seconds=100.0)

    def _eps(self, tiny_topology):
        a = list(tiny_topology.layout.endpoint_ids("a"))
        b = list(tiny_topology.layout.endpoint_ids("b"))
        return a, b

    def test_bytes_convert_to_gbps(self, collector, tiny_topology):
        a, b = self._eps(tiny_topology)
        collector.ingest(
            FlowRecord(
                src_endpoint=a[0],
                dst_endpoint=b[0],
                bytes_sent=12_500_000_000,  # 100 Gbit over 100 s = 1 Gbps
            )
        )
        matrix = collector.build_matrix()
        assert matrix.pair(0).volumes[0] == pytest.approx(1.0)

    def test_same_pair_accumulates(self, collector, tiny_topology):
        a, b = self._eps(tiny_topology)
        for _ in range(3):
            collector.ingest(
                FlowRecord(a[0], b[0], bytes_sent=1_000_000)
            )
        assert collector.num_flows == 1
        matrix = collector.build_matrix()
        assert matrix.pair(0).num_pairs == 1
        assert matrix.pair(0).volumes[0] == pytest.approx(
            3_000_000 * 8 / 100.0 / 1e9
        )

    def test_qos_preserved(self, collector, tiny_topology):
        a, b = self._eps(tiny_topology)
        collector.ingest(
            FlowRecord(a[0], b[0], 1000, qos=QoSClass.CLASS1)
        )
        collector.ingest(
            FlowRecord(a[1], b[1], 1000, qos=QoSClass.CLASS3)
        )
        matrix = collector.build_matrix()
        assert set(matrix.pair(0).qos.tolist()) == {1, 3}

    def test_unroutable_counted(self, collector, tiny_topology):
        a, b = self._eps(tiny_topology)
        # b -> a has no catalog pair in the tiny topology.
        collector.ingest(FlowRecord(b[0], a[0], bytes_sent=777))
        assert collector.unroutable_bytes == 777
        assert collector.num_flows == 0

    def test_clear_semantics(self, collector, tiny_topology):
        a, b = self._eps(tiny_topology)
        collector.ingest(FlowRecord(a[0], b[0], 1000))
        collector.build_matrix(clear=True)
        assert collector.build_matrix().total_demand == 0.0

    def test_matrix_feeds_optimizer(self, collector, tiny_topology):
        a, b = self._eps(tiny_topology)
        for i in range(4):
            collector.ingest(
                FlowRecord(
                    a[i % len(a)],
                    b[i % len(b)],
                    bytes_sent=10_000_000_000 * (i + 1),
                    qos=QoSClass.CLASS2,
                )
            )
        matrix = collector.build_matrix()
        result = MegaTEOptimizer().solve(tiny_topology, matrix)
        assert result.satisfied_fraction > 0.9

    def test_host_report_ingest(self, collector, tiny_topology):
        a, b = self._eps(tiny_topology)
        collector.ingest_host_report(
            volumes_by_instance={a[0]: 5000, a[1]: 7000},
            destination_of={a[0]: b[0], a[1]: b[1]},
            qos_of={a[0]: QoSClass.CLASS1},
        )
        matrix = collector.build_matrix()
        assert matrix.pair(0).num_pairs == 2

    def test_host_report_unknown_destination(
        self, collector, tiny_topology
    ):
        a, _ = self._eps(tiny_topology)
        collector.ingest_host_report(
            volumes_by_instance={a[0]: 123}, destination_of={}
        )
        assert collector.unroutable_bytes == 123

    def test_host_report_mixes_with_plain_ingest(
        self, collector, tiny_topology
    ):
        """Host reports and plain records share one drain: same-pair
        bytes add up, the later registration's qos wins, and an instance
        without a registered destination is unroutable."""
        a, b = self._eps(tiny_topology)
        collector.ingest(FlowRecord(a[0], b[0], 1_000, qos=QoSClass.CLASS3))
        collector.ingest_host_report(
            volumes_by_instance={a[0]: 5_000, a[1]: 7_000, a[2]: 9},
            destination_of={a[0]: b[0], a[1]: b[1]},
            qos_of={a[0]: QoSClass.CLASS1},
        )
        collector.ingest(FlowRecord(a[1], b[1], 500))
        table = collector.build_matrix().table
        assert collector.unroutable_bytes == 9
        assert table.src_endpoints.tolist() == [a[0], a[1]]
        assert table.dst_endpoints.tolist() == [b[0], b[1]]
        assert table.qos.tolist() == [1, 2]
        np.testing.assert_array_equal(
            table.volumes,
            np.array([6_000, 7_500]) * 8.0 / 100.0 / 1e9,
        )

    def test_host_report_negative_bytes_rejected(
        self, collector, tiny_topology
    ):
        a, b = self._eps(tiny_topology)
        with pytest.raises(ValueError):
            collector.ingest_host_report({a[0]: -1}, {a[0]: b[0]})

    def test_out_of_range_endpoint_raises_at_ingest(
        self, collector, tiny_topology
    ):
        a, b = self._eps(tiny_topology)
        n = tiny_topology.layout.num_endpoints
        for src, dst in ((n, b[0]), (a[0], n), (-1, b[0]), (a[0], -1)):
            with pytest.raises(IndexError):
                collector.ingest(FlowRecord(src, dst, 1))
        assert collector.num_flows == 0
        assert collector.unroutable_bytes == 0

    def test_byte_count_beyond_int64_raises_at_ingest(
        self, collector, tiny_topology
    ):
        a, b = self._eps(tiny_topology)
        with pytest.raises(OverflowError):
            collector.ingest(FlowRecord(a[0], b[0], 2**63))
        # The rejected report left no partial row behind.
        collector.ingest(FlowRecord(a[1], b[1], 1_000, qos=QoSClass.CLASS1))
        table = collector.build_matrix().table
        assert table.src_endpoints.tolist() == [a[1]]
        assert table.qos.tolist() == [1]

    def test_non_integer_field_raises_at_ingest(
        self, collector, tiny_topology
    ):
        """Both records construct; neither may leave a row behind."""
        a, b = self._eps(tiny_topology)
        collector.ingest(FlowRecord(a[1], b[1], 1_000))
        for record in (FlowRecord(a[0], b[0], 1.5), FlowRecord(None, b[0], 1)):
            with pytest.raises(TypeError):
                collector.ingest(record)
        assert collector.num_flows == 1
        table = collector.build_matrix().table
        assert table.src_endpoints.tolist() == [a[1]]
        assert table.dst_endpoints.tolist() == [b[1]]
        np.testing.assert_array_equal(
            table.volumes, [1_000 * 8.0 / 100.0 / 1e9]
        )

    def test_per_flow_sum_beyond_int64_raises(
        self, collector, tiny_topology
    ):
        """A same-pair byte sum must not wrap silently in the drain."""
        a, b = self._eps(tiny_topology)
        collector.ingest(FlowRecord(a[0], b[0], 2**62))
        collector.ingest(FlowRecord(a[1], b[1], 2**62))
        collector.ingest(FlowRecord(a[1], b[1], 2**62 - 1))
        # 2**63 - 1 still fits; the other pairs are untouched by it.
        assert collector.num_flows == 2
        collector.ingest(FlowRecord(a[0], b[0], 2**62))
        with pytest.raises(OverflowError):
            collector.build_matrix()

    def test_unroutable_total_is_exact_beyond_int64(
        self, collector, tiny_topology
    ):
        a, b = self._eps(tiny_topology)
        for _ in range(2):
            collector.ingest(FlowRecord(b[0], a[0], 2**62))
        assert collector.unroutable_bytes == 2**63

    def test_invalid_interval(self, tiny_topology):
        with pytest.raises(ValueError):
            DemandCollector(tiny_topology, interval_seconds=0.0)
        # NaN would emit NaN volumes and inf all-zero ones.
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="interval_seconds"):
                DemandCollector(tiny_topology, interval_seconds=bad)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            FlowRecord(0, 1, bytes_sent=-1)

    @pytest.mark.parametrize("qos", [0, 4, 7, 300, -1])
    def test_unknown_qos_class_rejected(self, qos):
        """A class no class-solve picks up fails typed, naming itself,
        instead of leaving its flow unassigned (or overflowing the
        collector's int8 column)."""
        with pytest.raises(ValueError, match=f"QoS class {qos}"):
            FlowRecord(0, 1, 10, qos=qos)

    def test_plain_int_qos_class_accepted(self):
        assert FlowRecord(0, 1, 10, qos=3).qos == QoSClass.CLASS3

    def test_host_report_unknown_qos_class_rejected(
        self, collector, tiny_topology
    ):
        a, b = self._eps(tiny_topology)
        with pytest.raises(ValueError, match="QoS class 7"):
            collector.ingest_host_report(
                {a[0]: 10}, {a[0]: b[0]}, qos_of={a[0]: 7}
            )
        assert collector.num_flows == 0

    def test_build_matrix_order_deterministic(self, tiny_topology):
        """Same reports, any ingest order -> identical matrix.

        build_matrix sorts flows by (site pair, src, dst), so the
        emitted columns must be byte-identical regardless of the order
        agents happened to report in.
        """
        a, b = self._eps(tiny_topology)
        records = [
            FlowRecord(a[2], b[0], 4_000, qos=QoSClass.CLASS3),
            FlowRecord(a[0], b[1], 2_000, qos=QoSClass.CLASS1),
            FlowRecord(a[1], b[0], 3_000, qos=QoSClass.CLASS2),
            FlowRecord(a[0], b[0], 1_000, qos=QoSClass.CLASS2),
        ]
        matrices = []
        for ordering in (records, records[::-1]):
            collector = DemandCollector(
                tiny_topology, interval_seconds=100.0
            )
            for record in ordering:
                collector.ingest(record)
            matrices.append(collector.build_matrix())
        first, second = matrices
        np.testing.assert_array_equal(
            first.table.volumes, second.table.volumes
        )
        np.testing.assert_array_equal(first.table.qos, second.table.qos)
        np.testing.assert_array_equal(
            first.table.src_endpoints, second.table.src_endpoints
        )
        np.testing.assert_array_equal(
            first.table.dst_endpoints, second.table.dst_endpoints
        )
        # And the canonical order itself: (k, src, dst) ascending.
        src = first.table.src_endpoints
        dst = first.table.dst_endpoints
        keys = list(zip(src.tolist(), dst.tolist()))
        assert keys == sorted(keys)

    def test_end_to_end_with_host_stack(self, tiny_topology):
        """Host eBPF collection feeds the backend feeds the optimizer."""
        from repro.dataplane import (
            FiveTuple,
            HostStack,
            PROTO_UDP,
            SiteIdCodec,
        )

        codec = SiteIdCodec(tiny_topology.network.sites)
        host = HostStack(site="a", codec=codec)
        a, b = self._eps(tiny_topology)
        destination_of = {}
        for i, ep in enumerate(a[:2]):
            ip = f"192.168.0.{i + 1}"
            host.register_instance(ep, ip)
            pid = host.spawn_process(ep)
            flow = FiveTuple(
                ip, f"192.168.1.{i + 1}", PROTO_UDP, 30000 + i, 80
            )
            host.open_connection(pid, flow)
            for _ in range(4):
                host.send(flow, 30_000)
            destination_of[ep] = b[i]
        collector = DemandCollector(tiny_topology, interval_seconds=1.0)
        collector.ingest_host_report(
            host.collect_flows(), destination_of
        )
        matrix = collector.build_matrix()
        assert matrix.pair(0).num_pairs == 2
        result = MegaTEOptimizer().solve(tiny_topology, matrix)
        assert result.satisfied_fraction == pytest.approx(1.0)


class TestTraceIO:
    def _matrix(self):
        return DemandMatrix(
            [
                make_pair_demands(
                    [1.5, 0.25], qos=[1, 3], with_endpoints=True
                ),
                make_pair_demands([2.0], qos=[2]),
            ]
        )

    def test_roundtrip(self):
        matrix = self._matrix()
        text = demands_to_csv_string(matrix)
        restored = read_demands_csv(io.StringIO(text))
        assert restored.num_site_pairs == 2
        for k in range(2):
            np.testing.assert_allclose(
                restored.pair(k).volumes, matrix.pair(k).volumes
            )
            np.testing.assert_array_equal(
                restored.pair(k).qos, matrix.pair(k).qos
            )

    def test_endpoint_ids_roundtrip(self):
        matrix = self._matrix()
        restored = read_demands_csv(
            io.StringIO(demands_to_csv_string(matrix))
        )
        np.testing.assert_array_equal(
            restored.pair(0).src_endpoints, matrix.pair(0).src_endpoints
        )
        # Pair 1 had no endpoint ids.
        assert restored.pair(1).src_endpoints is None

    def test_row_count(self):
        buffer = io.StringIO()
        rows = write_demands_csv(self._matrix(), buffer)
        assert rows == 3

    def test_empty_pairs_padded(self):
        matrix = self._matrix()
        restored = read_demands_csv(
            io.StringIO(demands_to_csv_string(matrix)),
            num_site_pairs=5,
        )
        assert restored.num_site_pairs == 5
        assert restored.pair(4).num_pairs == 0

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_demands_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_index_beyond_catalog_rejected(self):
        text = demands_to_csv_string(self._matrix())
        with pytest.raises(ValueError, match="exceeds"):
            read_demands_csv(io.StringIO(text), num_site_pairs=1)

    def test_volumes_exact(self):
        """repr() round-trips float volumes bit-exactly."""
        matrix = DemandMatrix(
            [make_pair_demands([0.1 + 0.2, 1e-9, 123456.789])]
        )
        restored = read_demands_csv(
            io.StringIO(demands_to_csv_string(matrix))
        )
        np.testing.assert_array_equal(
            restored.pair(0).volumes, matrix.pair(0).volumes
        )

    def test_generated_matrix_roundtrip(self, b4_topology):
        matrix = generate_demands(b4_topology, seed=3)
        restored = read_demands_csv(
            io.StringIO(demands_to_csv_string(matrix)),
            num_site_pairs=matrix.num_site_pairs,
        )
        assert restored.total_demand == pytest.approx(
            matrix.total_demand
        )
        assert restored.num_endpoint_pairs == matrix.num_endpoint_pairs
