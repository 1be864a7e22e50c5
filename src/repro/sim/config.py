"""Simulation configuration: link parameters and calibrated timing constants.

All magic numbers live here.  Defaults are calibrated against the paper's own
measurements on the Cosmos+ OpenSSD testbed (PCIe Gen2 x8, Zynq-7000):

* Table 1 gives the host-side SQ submit and device-side SQ fetch costs for
  PRP and for ByteExpress at 64/128/256 B, from which the per-chunk constants
  (~30 ns submit, ~400 ns fetch) are stated explicitly in §4.2.
* Figure 1(b) gives the PRP staircase latencies used to calibrate the
  page-DMA path.
* NAND timings follow the Cosmos+ platform's MLC flash characteristics and
  only matter for the Figure 6 (KV-SSD, NAND-on) experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


#: NVMe submission-queue entry size; also the ByteExpress chunk size (bytes).
SQE_SIZE = 64
#: NVMe completion-queue entry size (bytes).
CQE_SIZE = 16
#: Host memory page size used for PRP transfers (bytes).
PAGE_SIZE = 4096

#: Device DRAM capacity (bytes); Cosmos+ has 1 GB.
DEVICE_DRAM_BYTES = 1 << 30
#: Tagged-mode reassembly capacity: payloads the controller tracks
#: concurrently (paper §3.3.2 SRAM budget).  Must cover the engine's
#: worst case of ``num_io_queues * per-queue QD`` in-flight writes.
REASSEMBLY_IN_FLIGHT = 256
#: How long the controller promises to keep polling the shadow page
#: after going idle before the host must fall back to a BAR wake.
SHADOW_IDLE_NS = 100_000.0

#: Doorbell publication modes (see :attr:`SimConfig.doorbell_mode`).
#: ``DOORBELL_MMIO`` happens to share a spelling with the ``mmio``
#: transfer method but names an orthogonal concept: how tail/head
#: updates reach the device, not how payloads do.
DOORBELL_MMIO = "mmio"  # verify: ignore[VER106]
DOORBELL_SHADOW = "shadow"


@dataclass(frozen=True)
class LinkConfig:
    """PCIe link geometry and framing parameters.

    The default matches the paper's testbed: Gen2 (5 GT/s per lane, 8b/10b
    encoding) with 8 lanes, Max_Payload_Size 256 B and Max_Read_Request_Size
    512 B, which are the Zynq-7000 endpoint defaults.
    """

    generation: int = 2
    lanes: int = 8
    max_payload_size: int = 256      # MPS: largest TLP data payload (bytes)
    max_read_request: int = 512      # MRRS: largest single MRd request (bytes)
    tlp_header_bytes: int = 24       # framing(2)+seq(2)+3DW header(12)+ECRC/LCRC(8)
    dllp_bytes: int = 8              # ACK/FC DLLP, amortised one per TLP

    #: Raw per-lane gigatransfers/s by generation.
    _GTS = {1: 2.5, 2: 5.0, 3: 8.0, 4: 16.0, 5: 32.0}
    #: Encoding efficiency: 8b/10b for Gen1/2, 128b/130b for Gen3+.
    _ENC = {1: 0.8, 2: 0.8, 3: 128 / 130, 4: 128 / 130, 5: 128 / 130}

    @property
    def bytes_per_ns(self) -> float:
        """Effective unidirectional link bandwidth in bytes per nanosecond."""
        gts = self._GTS[self.generation]
        eff = self._ENC[self.generation]
        # GT/s * encoding = Gbit/s per lane; /8 = GB/s = bytes/ns.
        return gts * eff * self.lanes / 8.0

    def with_generation(self, generation: int) -> "LinkConfig":
        """A copy of this config on a different PCIe generation (§5 variants)."""
        return replace(self, generation=generation)


@dataclass(frozen=True)
class TimingModel:
    """Calibrated per-phase protocol costs (nanoseconds).

    Names mirror the stages in Figure 3 of the paper.  These are *logic*
    costs; wire time for each TLP is computed separately by the link model
    and added on top.
    """

    # --- host / driver side ------------------------------------------------
    #: Build + insert one PRP-style SQE into the SQ (Table 1: ~60 ns).
    sqe_submit_ns: float = 60.0
    #: Insert one 64 B inline payload chunk into the SQ (§4.2: ~30 ns).
    chunk_submit_ns: float = 30.0
    #: CPU cost of one doorbell MMIO write (uncached, posted).
    doorbell_write_ns: float = 100.0
    #: Host-side completion handling (CQE poll + cid lookup).
    completion_handle_ns: float = 150.0
    #: Passthrough ioctl entry/exit overhead per command.
    passthrough_ns: float = 250.0

    # --- link-level latencies ----------------------------------------------
    #: One-way propagation + PHY/DLL pipeline latency per TLP.
    link_propagation_ns: float = 150.0
    #: Host DRAM access latency seen by a device-initiated MRd.
    host_mem_read_ns: float = 120.0

    # --- device / controller side -----------------------------------------
    #: Doorbell poll detection latency (round-robin scan slot).
    doorbell_poll_ns: float = 200.0
    #: Controller command fetch-to-dispatch path, wire time included
    #: (Table 1: doorbell_poll_ns + this = ~2400 ns for the PRP fetch path).
    cmd_fetch_logic_ns: float = 2200.0
    #: Fetch one inline 64 B SQ entry: DMA issue + receive + copy-out
    #: (§4.2: ~400 ns per entry, includes its wire time share; we subtract
    #: the modelled wire time when charging so totals match Table 1).
    chunk_fetch_ns: float = 400.0
    #: Set up one PRP data DMA transaction (descriptor walk + engine program).
    #: Calibrated so the PRP transfer path (setup + 4 KB wire + DRAM copy)
    #: sits ~40 % above ByteExpress at 32 B, matching Figure 5.
    prp_dma_setup_ns: float = 800.0
    #: Parse one SGL descriptor and program the DMA engine.
    sgl_parse_ns: float = 500.0
    #: Write one CQE back + raise MSI-X.
    completion_post_ns: float = 350.0
    #: Decode one SQ entry that is already on-die (burst-prefetched):
    #: no DMA round trip, just copy-out + parse.
    burst_sqe_logic_ns: float = 150.0
    #: Append one CQE to the coalescing buffer (device DRAM write).
    cqe_coalesce_ns: float = 50.0
    #: Host store to the shadow-doorbell page (cacheable write + sfence)
    #: — the cost MMIO doorbells are traded against.
    shadow_db_write_ns: float = 15.0
    #: Device DMA read of the shadow tail/head array (one small MRd).
    shadow_sync_ns: float = 500.0
    #: Device DMA write of the eventidx/park record at idle transition.
    shadow_park_ns: float = 250.0
    #: Per-page device-DRAM copy-in cost after DMA receive.
    dram_copy_per_kb_ns: float = 90.0

    # --- BandSlim comparator (NVMe-CMD-based transfer, §3.2) ---------------
    #: Host software layer per payload: fragment planning + ordering state.
    bandslim_task_host_ns: float = 100.0
    #: Host cost per fragment command built (beyond the plain SQE submit).
    bandslim_frag_host_ns: float = 50.0
    #: Device firmware per fragment: vendor-opcode parse + reassembly append.
    bandslim_frag_device_ns: float = 200.0
    #: Device per-payload reassembly finalisation.
    bandslim_task_device_ns: float = 100.0

    # --- MMIO byte-interface comparator (2B-SSD/ByteFS style) --------------
    #: Host uncached write-combined store of one 64 B cacheline to BAR.
    mmio_cacheline_ns: float = 120.0
    #: Device-side latch + buffer append per cacheline.
    mmio_latch_ns: float = 40.0

    # --- coherent-link PIO comparator (CXL/coherent-interconnect style) ----
    #: Host coherent store of one 64 B cacheline into the device buffer.
    #: Cheaper than the uncached write-combined MMIO store: coherent
    #: writes pipeline through the cache hierarchy (arXiv 2409.08141).
    pio_store_ns: float = 40.0
    #: Device-side latch per cacheline on the coherent path.
    pio_latch_ns: float = 20.0
    #: Host coherent poll of the device status word — a cacheline read
    #: serviced by the coherence protocol, far below an uncached MMIO
    #: round trip but still a link traversal.
    pio_poll_ns: float = 80.0

    # --- NAND back-end (Figure 6 experiments only) -------------------------
    nand_page_program_ns: float = 350_000.0
    nand_page_read_ns: float = 60_000.0
    nand_channels: int = 8
    nand_ways: int = 8
    nand_page_bytes: int = 16384

    # --- firmware work per request class ------------------------------------
    #: KV engine work per PUT (log append + LSM insert + bookkeeping) on
    #: the device CPU — the dominant per-op cost once NAND pipelines
    #: (calibrated to OpenSSD-class KV-SSD throughputs of a few 10 Kops/s).
    kv_put_logic_ns: float = 20_000.0
    #: KV engine work per GET (index lookup + value fetch management).
    kv_get_logic_ns: float = 15_000.0
    #: Filter executor setup per pushdown task.
    csd_task_setup_ns: float = 2500.0


@dataclass
class SimConfig:
    """Top-level simulation configuration: the values experiments vary.

    Board properties nothing varies are the module constants above.
    """

    link: LinkConfig = field(default_factory=LinkConfig)
    timing: TimingModel = field(default_factory=TimingModel)
    #: Number of host submission/completion queue pairs.
    num_io_queues: int = 4
    #: Entries per submission queue (power of two).
    sq_depth: int = 1024
    #: Entries per completion queue.
    cq_depth: int = 1024
    #: Whether NAND I/O is performed (Figures 1(b)/5 disable it).
    nand_enabled: bool = True
    #: Minimum PRP data-fetch unit (paper §5: 4 KB standard; some
    #: configurations support 512 B logical blocks).  A positive divisor
    #: of 4096.
    lba_bytes: int = 4096
    #: Per-phase timing dispersion (log-normal sigma); 0 = deterministic.
    #: The Figure-6 benchmarks set ~0.05 to reproduce the paper's
    #: 1st–99th percentile error bars.
    timing_jitter: float = 0.0
    #: Deterministic seed for workload generators.
    seed: int = 0x5EED
    #: Parallel command-fetch/DMA engines in the controller.  The engine's
    #: completion reactor services up to this many SQs concurrently; more
    #: host queues than lanes saturate the fetch path (the scaling
    #: ablation's knee).  The Cosmos+-class controller models 4.
    fetch_lanes: int = 4
    #: Doorbell publication mechanism: ``"mmio"`` (stock NVMe: one posted
    #: 4 B BAR write per tail/head update) or ``"shadow"`` (Doorbell
    #: Buffer Config: tails/heads go to a host-memory shadow page the
    #: controller reads via DMA; a BAR write happens only when the
    #: device-published eventidx/park record says the device went idle).
    doorbell_mode: str = DOORBELL_MMIO
    #: Maximum contiguous SQ entries the controller fetches in one DMA
    #: read when a doorbell advances the tail by more than one (1 =
    #: stock per-SQE fetch).  Burst fetch applies to queue-local mode.
    burst_limit: int = 1
    #: CQEs the controller buffers before posting them with one DMA
    #: write and one aggregated MSI-X (1 = stock per-CQE posting).
    #: Buffered CQEs always flush when the device goes idle, which
    #: bounds the added completion delay in this poll-driven model.
    cq_coalesce: int = 1

    def __post_init__(self) -> None:
        if self.doorbell_mode not in (DOORBELL_MMIO, DOORBELL_SHADOW):
            raise ValueError(
                f"doorbell_mode must be 'mmio' or 'shadow', "
                f"got {self.doorbell_mode!r}")
        if self.burst_limit < 1:
            raise ValueError("burst_limit must be at least 1")
        if self.cq_coalesce < 1:
            raise ValueError("cq_coalesce must be at least 1")
        if self.fetch_lanes < 1:
            raise ValueError(
                f"fetch_lanes must be at least 1, got {self.fetch_lanes}")
        if self.lba_bytes < 1 or PAGE_SIZE % self.lba_bytes:
            raise ValueError(f"lba_bytes must be a positive divisor of "
                             f"{PAGE_SIZE}, got {self.lba_bytes}")

    def nand_off(self) -> "SimConfig":
        """Copy of this config with NAND I/O disabled (latency-only runs)."""
        return replace(self, nand_enabled=False)
