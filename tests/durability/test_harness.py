"""Crash-and-recover harness: cuts fire, acked writes survive, the
deliberately lossy arm trips INV_DURABLE_ACK."""

import pytest

from repro.datapath import names as dp_names
from repro.durability import CrashSpec, run_crash
from repro.durability.harness import (
    PLANE_BLOCK,
    PLANE_KV,
    _make_plane,
    make_crash_testbed,
)
from repro.faults.plan import CUT_CQE, CUT_DOORBELL, CUT_TLP, CrashPlan
from repro.nvme.constants import PAGE_SIZE
from repro.verify import InvariantViolation


@pytest.fixture(autouse=True)
def _unmonitored(monkeypatch):
    """Harness tests control REPRO_VERIFY explicitly per test."""
    monkeypatch.delenv("REPRO_VERIFY", raising=False)


class TestCrashSpec:
    def test_rejects_unknown_plane(self):
        with pytest.raises(ValueError, match="unknown plane"):
            CrashSpec(plane="tape")

    @pytest.mark.parametrize("kwargs", [
        {"qd": 0}, {"ops": 0}, {"payload_bytes": 0},
    ])
    def test_rejects_degenerate_workloads(self, kwargs):
        with pytest.raises(ValueError):
            CrashSpec(**kwargs)

    @pytest.mark.parametrize("method",
                             [dp_names.MMIO, dp_names.PIO_COHERENT,
                              dp_names.HYBRID])
    def test_rejects_qd_above_one_on_bar_window_paths(self, method):
        # QD>1 rides the engine, which needs a host codec to encode.
        with pytest.raises(ValueError, match="BAR-window"):
            CrashSpec(plane=PLANE_KV, method=method, qd=2)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="warp-drive"):
            CrashSpec(method="warp-drive")

    def test_label_encodes_the_whole_experiment(self):
        spec = CrashSpec(plane=PLANE_KV, qd=1, payload_bytes=256,
                         cut=CrashPlan(CUT_TLP, 30), plp=False)
        assert spec.label() == "kv/byteexpress/qd1/256B/tlp@30/noplp"
        assert "uncut" in CrashSpec().label()


class TestUncutControl:
    def test_control_run_loses_nothing(self):
        report = run_crash(CrashSpec(plane=PLANE_BLOCK, ops=8))
        assert not report.cut_fired
        assert report.issued == 8 and report.acked == 8
        assert report.ok and report.scrubbed == []
        assert report.opportunities == 0

    def test_report_serialises(self):
        report = run_crash(CrashSpec(plane=PLANE_BLOCK, ops=4))
        d = report.to_dict()
        assert d["ok"] and d["acked"] == 4
        assert {"label", "cut_kind", "cut_index", "cut_fired", "issued",
                "lost", "torn", "recovery_ns"} <= set(d)


class TestBlockPlane:
    @pytest.mark.parametrize("cut_kind", [CUT_TLP, CUT_DOORBELL, CUT_CQE])
    def test_acked_block_writes_survive_any_cut(self, cut_kind):
        report = run_crash(CrashSpec(
            plane=PLANE_BLOCK, ops=12, cut=CrashPlan(cut_kind, 5)))
        assert report.cut_fired
        assert report.ok, (report.lost, report.torn)
        assert report.scrubbed  # volatile domains really died
        assert report.acked < report.issued or report.acked == 12

    def test_short_extents_are_whole_and_an_overlong_one_is_torn(self):
        """The medium keeps a page's bytes up to the highest one written:
        a 512 B extent is a whole page that reads back zero-padded, but
        an extent past the page boundary is torn."""
        spec = CrashSpec(plane=PLANE_BLOCK, ops=2)
        tb = make_crash_testbed(spec)
        plane = _make_plane(tb, spec)
        method = tb.method(spec.method)
        for op in range(2):
            method.write(plane.payload(op), **plane.write_kwargs(op))
        assert plane.torn_checks() == []
        assert plane.verify(0) and plane.verify(1)
        tb.personality._pages[1] += bytes(PAGE_SIZE)
        torn = plane.torn_checks()
        assert torn == [f"medium page 1 extent is {PAGE_SIZE + 512} B, "
                        f"past its {PAGE_SIZE} B page"]

    def test_qd8_batched_workload_survives(self):
        report = run_crash(CrashSpec(
            plane=PLANE_BLOCK, method=dp_names.PRP, qd=8, ops=24,
            cut=CrashPlan(CUT_TLP, 40)))
        assert report.cut_fired and report.ok


#: (plane, method) pairs the QD-8 engine loop must keep durable: every
#: codec method on both planes.
QD8_CASES = [(plane, method) for plane in (PLANE_BLOCK, PLANE_KV)
             for method in (dp_names.PRP, dp_names.SGL, dp_names.BANDSLIM,
                            dp_names.BYTEEXPRESS)]


class TestQd8Engine:
    """QD>1 workloads run through an IoEngine: a cut anywhere in the
    run loses no write whose future resolved before it."""

    @staticmethod
    def _spec(plane, method, cut, plp=True):
        return CrashSpec(plane=plane, method=method, qd=8, ops=24,
                         payload_bytes=256, cut=cut, plp=plp)

    @pytest.mark.parametrize("cut_kind", [CUT_TLP, CUT_DOORBELL, CUT_CQE])
    @pytest.mark.parametrize("plane,method", QD8_CASES)
    def test_mid_run_cut_loses_no_acked_write(self, plane, method,
                                              cut_kind):
        probe = run_crash(self._spec(plane, method,
                                     CrashPlan(cut_kind, 2 ** 31 - 1)))
        assert not probe.cut_fired and probe.ok
        assert probe.acked == probe.issued == 24
        report = run_crash(self._spec(
            plane, method, CrashPlan(cut_kind, probe.opportunities // 2)))
        assert report.cut_fired
        assert report.ok, (report.lost, report.torn)
        assert 0 < report.acked < 24

    def test_no_plp_doorbell_cut_trips_inv_durable_ack(self, monkeypatch):
        # The third kick dies: two reaped batches of 8 were acked, and
        # without PLP the device reboots from its boot-time journal.
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(InvariantViolation) as excinfo:
            run_crash(self._spec(PLANE_KV, dp_names.BYTEEXPRESS,
                                 CrashPlan(CUT_DOORBELL, 2), plp=False))
        assert excinfo.value.rule == "INV_DURABLE_ACK"
        assert excinfo.value.snapshot["acked"] == 16
        assert excinfo.value.snapshot["lost"] == 16


class TestKvPlane:
    def test_acked_stores_survive_with_plp(self):
        report = run_crash(CrashSpec(
            plane=PLANE_KV, ops=12, payload_bytes=256,
            cut=CrashPlan(CUT_TLP, 30)))
        assert report.cut_fired
        assert report.ok, (report.lost, report.torn)
        assert report.recovered_keys == report.acked
        assert report.recovery_ns > 0.0

    def test_no_plp_device_loses_acked_writes(self):
        # The deliberately lossy arm: without the capacitor flush the
        # device reboots from its boot-time (empty) journal, so every
        # acked-but-unflushed store *must* be reported lost.
        report = run_crash(CrashSpec(
            plane=PLANE_KV, ops=12, payload_bytes=256,
            cut=CrashPlan(CUT_TLP, 30), plp=False))
        assert report.cut_fired and report.acked > 0
        assert report.lost and not report.ok
        assert len(report.lost) == report.acked

    def test_unreachable_cut_index_never_fires_but_counts(self):
        # The matrix's probe mode: arm an index past every opportunity.
        report = run_crash(CrashSpec(
            plane=PLANE_KV, ops=6, payload_bytes=256,
            cut=CrashPlan(CUT_TLP, 2 ** 31 - 1)))
        assert not report.cut_fired
        assert report.opportunities > 0
        assert report.ok


class TestVerifyGate:
    def test_losses_raise_inv_durable_ack_under_repro_verify(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(InvariantViolation) as excinfo:
            run_crash(CrashSpec(plane=PLANE_KV, ops=12, payload_bytes=256,
                                cut=CrashPlan(CUT_TLP, 30), plp=False))
        assert excinfo.value.rule == "INV_DURABLE_ACK"
        assert excinfo.value.snapshot["lost"] > 0

    def test_clean_run_passes_under_repro_verify(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        report = run_crash(CrashSpec(
            plane=PLANE_KV, ops=8, payload_bytes=256,
            cut=CrashPlan(CUT_CQE, 3)))
        assert report.cut_fired and report.ok


class TestCrashFreeParity:
    def test_uncut_harness_run_leaves_no_fault_residue(self):
        # A crash-free run pays zero cost: the injector ends disarmed
        # with no crash plan, so golden fingerprints cannot shift.
        from repro.durability.harness import make_crash_testbed

        spec = CrashSpec(plane=PLANE_BLOCK, ops=4)
        tb = make_crash_testbed(spec)
        run_crash(spec, tb=tb)
        assert tb.ssd.faults.crash_plan is None


class TestTornChecks:
    def test_index_pointer_at_all_ones_key_is_checked(self):
        # 16 x 0xff is a legal key; the torn-pointer walk must reach it.
        from repro.durability.harness import _KvPlane, make_crash_testbed
        from repro.kvssd import LogPointer

        spec = CrashSpec(plane=PLANE_KV, ops=4)
        tb = make_crash_testbed(spec)
        run_crash(spec, tb=tb)
        tb.personality.crash_and_recover()  # index now points at NAND only
        plane = _KvPlane(tb, spec)
        assert plane.torn_checks() == []
        tb.personality.index.put(b"\xff" * 16, LogPointer(999, 0, 8))
        torn = plane.torn_checks()
        assert len(torn) == 1 and "segment 999" in torn[0]
