"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``      — identify the simulated controller + configuration
* ``sweep``     — Figure-5 style size sweep across transfer methods
* ``kv``        — KV-SSD workload run (mixgraph | fillrandom)
* ``pushdown``  — CSD pushdown run over the Figure-4 corpus
* ``replay``    — replay a recorded KV trace against a chosen method
* ``faults``    — fault-injection demo: seeded faults vs driver recovery
* ``engine``    — asynchronous multi-queue engine + concurrent load gen
* ``virt``      — multi-tenant rig: namespaces, queue passthrough, QoS
* ``serve``     — KV serving front-end: sessions, group commit, read cache
* ``crash``     — power-cut + recovery: one seeded cut, or the full matrix
* ``lint``      — project-specific AST lint (determinism, queue protocol)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import datapath
from repro.csd.pushdown import CsdClient
from repro.datapath import names as dp_names
from repro.csd.queries import CORPUS
from repro.engine.engine import engine_methods
from repro.faults import ALL_KINDS, FaultPlan
from repro.host.errors import CommandTimeoutError
from repro.kvssd import KeyNotFoundError, KVStore
from repro.metrics import format_table, format_traffic_breakdown
from repro.metrics.ascii_plot import ascii_chart
from repro.sim.config import (
    DOORBELL_MMIO,
    DOORBELL_SHADOW,
    LinkConfig,
    SimConfig,
)
from repro.testbed import make_block_testbed, make_csd_testbed, make_kv_testbed
from repro.workloads import (
    FillRandomWorkload,
    MixGraphWorkload,
    fixed_size_payloads,
    load_trace,
)

def _suite_methods() -> tuple:
    """Methods the kv/pushdown testbeds can build: every method, minus
    the opt-in BAR window and tagged-reassembly variants (those need a
    special testbed)."""
    return datapath.method_names(bar_window=False, tag_reassembly=False)


def _sweep_methods() -> tuple:
    """Methods the Figure-5 sweep can drive: the sweep builds each
    method its own rig, enabling the BAR byte window when the method
    needs one (``mmio``, ``pio_coherent``), so only the
    tagged-reassembly variant stays out."""
    return datapath.method_names(tag_reassembly=False)


def _figure5_default() -> str:
    return ",".join(datapath.method_names(figure5=True))


def _figure5_suite_default() -> str:
    """Figure-5 methods the stock kv/pushdown testbeds can build
    (drops the BAR-window variants those rigs don't carve)."""
    suite = set(_suite_methods())
    return ",".join(m for m in datapath.method_names(figure5=True)
                    if m in suite)


def _config(args) -> SimConfig:
    """The rig config the common flags describe."""
    return SimConfig(link=LinkConfig(generation=args.gen),
                     lba_bytes=args.lba).nand_off()


def cmd_info(args) -> int:
    tb = make_block_testbed(config=_config(args))
    ident = tb.driver.identify
    link = tb.ssd.config.link
    print(f"model        : {ident.model}")
    print(f"firmware     : {ident.firmware}  (ByteExpress: "
          f"{'yes' if ident.byteexpress else 'no'})")
    print(f"link         : PCIe Gen{link.generation} x{link.lanes} "
          f"({link.bytes_per_ns:.1f} GB/s effective)")
    print(f"I/O queues   : {len(tb.driver.io_qids)} of "
          f"{ident.num_io_queues} supported, depth "
          f"{tb.ssd.config.sq_depth}")
    print(f"LBA size     : {tb.ssd.config.lba_bytes} B")
    print(f"max transfer : {ident.max_transfer_bytes // 1024} KiB")
    return 0


def _seed_int(text: str) -> int:
    """Parse a seed in any base (accepts the 0x... spellings the docs use)."""
    return int(text, 0)


def _fault_plan(args) -> Optional[FaultPlan]:
    """Build a FaultPlan from --faults/--fault-seed/--fault-kinds flags;
    ``FaultPlan`` itself refuses an unknown kind or a rate outside
    [0, 1]."""
    if args.faults <= 0.0:
        return None
    return FaultPlan.uniform(args.faults, seed=args.fault_seed,
                             kinds=_kinds(args.fault_kinds))


def _kinds(text: str) -> List[str]:
    """The comma-separated fault kinds in *text*; every kind if empty."""
    return text.split(",") if text else list(ALL_KINDS)


def _methods(text: str, suite: tuple) -> List[str]:
    """The comma-separated *text* as method names, each one in *suite*."""
    methods = text.split(",")
    for m in methods:
        if m not in suite:
            raise ValueError(f"unknown method {m!r}; pick from {suite}")
    return methods


def cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 1 or args.ops < 1:
        raise ValueError("--sizes and --ops must be >= 1")
    methods = _methods(args.methods, _sweep_methods())
    cfg = _config(args)
    rows = []
    latency_series = {m: [] for m in methods}
    for method in methods:
        bar = datapath.resolve(method).caps.bar_window
        tb = make_block_testbed(config=cfg, include_mmio=bar,
                                fault_plan=_fault_plan(args))
        for size in sizes:
            agg = tb.method(method).run_workload(
                fixed_size_payloads(size, args.ops), cdw10=0)
            latency_series[method].append((size, agg.mean_latency_ns / 1000))
            rows.append([method, size, f"{agg.pcie_bytes / agg.ops:.0f}",
                         f"{agg.mean_latency_ns / 1000:.2f}"])
    print(format_table(["method", "payload (B)", "PCIe B/op", "us/op"],
                       rows, title=f"sweep ({args.ops} ops/point)"))
    print()
    print(ascii_chart(latency_series, log_x=True, log_y=True,
                      title="mean latency (us) vs payload size (B)",
                      y_label="us/op"))
    return 0


def cmd_kv(args) -> int:
    methods = _methods(args.methods, _suite_methods())
    if args.workload == "mixgraph":
        workload = MixGraphWorkload(ops=args.ops, seed=args.seed)
    else:
        workload = FillRandomWorkload(ops=args.ops, seed=args.seed,
                                      value_size=args.value_size)
    rows = []
    for method in methods:
        tb = make_kv_testbed()
        store = KVStore(tb.driver, tb.method(method))
        t0, b0 = tb.clock.now, tb.traffic.total_bytes
        for op in workload:
            store.put(op.key, op.value)
        elapsed = tb.clock.now - t0
        rows.append([method,
                     f"{(tb.traffic.total_bytes - b0) / args.ops:.0f}",
                     f"{args.ops / elapsed * 1e6:.1f}",
                     tb.personality.index.flushes,
                     tb.ssd.nand.programs])
    print(format_table(
        ["PUT path", "PCIe B/op", "Kops/s", "LSM flushes", "NAND programs"],
        rows, title=f"{args.workload} x{args.ops}, NAND on"))
    return 0


def cmd_pushdown(args) -> int:
    methods = _methods(args.methods, _suite_methods())
    if args.ops < 1:
        raise ValueError("--ops must be >= 1")
    tb = make_csd_testbed(execute_inline=False)
    setup = CsdClient(tb.driver, tb.method(dp_names.PRP))
    for query in CORPUS:
        setup.create_table(query.schema)
    rows = []
    for method in methods:
        client = CsdClient(tb.driver, tb.method(method))
        for query in CORPUS:
            message = query.segment if args.segment else query.full_sql
            t0, b0 = tb.clock.now, tb.traffic.total_bytes
            for _ in range(args.ops):
                client.pushdown(message)
            elapsed = tb.clock.now - t0
            rows.append([method, query.name, len(message.encode()),
                         f"{(tb.traffic.total_bytes - b0) / args.ops:.0f}",
                         f"{args.ops / elapsed * 1e6:.1f}"])
    form = "segment" if args.segment else "full SQL"
    print(format_table(
        ["method", "query", "msg B", "PCIe B/op", "Kops/s"], rows,
        title=f"pushdown transfer ({form}, {args.ops} tasks/point)"))
    return 0


def cmd_replay(args) -> int:
    trace = list(load_trace(args.trace))
    if not trace:
        raise ValueError("empty trace")
    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method(args.method))
    t0, b0 = tb.clock.now, tb.traffic.total_bytes
    counts = {"put": 0, "get": 0, "delete": 0}
    for op in trace:
        try:
            if op.op == "put":
                store.put(op.key, op.value)
            elif op.op == "get":
                store.get(op.key, max_value_len=65536)
            elif op.op == "delete":
                store.delete(op.key)
        except KeyNotFoundError:
            pass  # a GET or DELETE of a key the trace never stored
        counts[op.op] = counts.get(op.op, 0) + 1
    total = len(trace)
    elapsed = tb.clock.now - t0
    print(f"replayed {total} ops ({counts}) via {args.method}: "
          f"{total / elapsed * 1e6:.1f} Kops/s, "
          f"{(tb.traffic.total_bytes - b0) / total:.0f} PCIe B/op")
    return 0


def cmd_faults(args) -> int:
    """Run seeded faults against the ByteExpress write path and report
    how the driver's retry/backoff/breaker machinery coped."""
    from repro.faults import fault_event
    from repro.metrics import format_latency_summary
    from repro.metrics.stats import LatencyRecorder
    from repro.nvme.constants import IoOpcode
    from repro.nvme.passthrough import PassthruRequest

    if args.ops < 1 or args.size < 1:
        raise ValueError("--ops and --size must be >= 1")
    kinds = _kinds(args.kinds)
    plan = FaultPlan.uniform(args.rate, seed=args.seed, kinds=kinds)
    tb = make_block_testbed(config=_config(args), include_mmio=False,
                            fault_plan=plan)
    drv = tb.driver
    recorder = LatencyRecorder()
    ok = errors = timeouts = 0
    for i in range(args.ops):
        req = PassthruRequest(opcode=IoOpcode.WRITE,
                              data=bytes([i & 0xFF]) * args.size,
                              cdw10=(i * args.size) & 0xFFFFFFFF)
        try:
            res = drv.passthru(req, method=dp_names.BYTEEXPRESS)
        except CommandTimeoutError:
            timeouts += 1
            continue
        recorder.record(res.latency_ns)
        if res.ok:
            ok += 1
        else:
            errors += 1

    counter = tb.traffic
    rows = [
        ["ops attempted", args.ops],
        ["ok", ok],
        ["error status", errors],
        ["gave up (timeout)", timeouts],
        ["driver retries", drv.retries],
        ["driver timeouts", drv.timeouts],
        ["inline->PRP fallbacks", drv.inline_fallbacks],
        ["breaker trips", drv.breaker.trips],
        ["breaker state", drv.breaker.state],
    ]
    for kind in kinds:
        rows.append([f"injected {kind}",
                     counter.event_count(fault_event(kind))])
    print(format_table(["metric", "value"], rows,
                       title=(f"faults rate={args.rate} seed={args.seed:#x} "
                              f"size={args.size}B")))
    print(f"latency: {format_latency_summary(recorder.summary())}")
    return 0


def cmd_engine(args) -> int:
    """Concurrent load over the asynchronous multi-queue engine."""
    from repro.engine import LoadGenerator, StreamSpec
    from repro.faults import fault_event
    from repro.ssd.controller import MODE_QUEUE_LOCAL, MODE_TAGGED
    from repro.testbed import make_engine_testbed

    cfg = SimConfig(link=LinkConfig(generation=args.gen),
                    lba_bytes=args.lba,
                    num_io_queues=args.queues,
                    doorbell_mode=args.doorbell_mode,
                    burst_limit=args.burst_limit,
                    cq_coalesce=args.cq_coalesce).nand_off()
    mode = MODE_TAGGED if args.tagged else MODE_QUEUE_LOCAL
    tb = make_engine_testbed(queues=args.queues, config=cfg, mode=mode,
                             fault_plan=_fault_plan(args))
    engine = tb.make_engine(queues=args.queues, qd=args.qd,
                            policy=args.policy)
    if args.streams < 1:
        raise ValueError("--streams must be >= 1")
    per_stream = max(1, args.ops // args.streams)
    window = max(1, args.queues * args.qd // args.streams)
    streams = [StreamSpec(stream_id=i, ops=per_stream, size=args.dist,
                          concurrency=window, think_ns=args.think_ns)
               for i in range(args.streams)]
    report = LoadGenerator(engine, streams, seed=args.seed,
                           method=args.method).run()
    print(report.table())
    print()
    rows = [[k, v] for k, v in report.engine_stats.items()]
    rows.append(["breaker state", tb.driver.breaker.state])
    rows.append(["inflight high water", report.inflight_high_water])
    rows.append(["functional store B / op",
                 round(tb.personality.stored_bytes / report.total_ops, 1)])
    if args.faults:
        for kind in (args.fault_kinds.split(",") if args.fault_kinds
                     else sorted(ALL_KINDS)):
            rows.append([f"injected {kind}",
                         tb.traffic.event_count(fault_event(kind))])
    ctrl = tb.ssd.controller
    if args.doorbell_mode == DOORBELL_SHADOW:
        rows.append(["shadow syncs", ctrl.shadow_syncs])
        rows.append(["shadow MMIO wakes", tb.driver.shadow_wakes])
    if args.burst_limit > 1:
        rows.append(["burst fetches", ctrl.burst_fetches])
    if args.cq_coalesce > 1:
        rows.append(["cqe flushes", ctrl.cqe_flushes])
    title = (f"engine: {args.queues} queue(s) x QD {args.qd}, "
             f"{args.streams} stream(s), {args.method}"
             + (", tagged" if args.tagged else "")
             + f", policy {args.policy}"
             + (f", doorbells {args.doorbell_mode}"
                f", burst {args.burst_limit}"
                f", coalesce {args.cq_coalesce}"
                if (args.doorbell_mode != DOORBELL_MMIO or args.burst_limit > 1
                    or args.cq_coalesce > 1) else ""))
    print(format_table(["counter", "value"], rows, title=title))
    print()
    print(format_traffic_breakdown(tb.traffic, title="PCIe traffic"))
    return 0 if report.total_ok == report.total_ops else 1


def cmd_virt(args) -> int:
    """Multi-tenant run: N tenants on private namespaces and queues,
    loaded concurrently, with QoS arbitration on or off."""
    from repro.engine import LoadGenerator, StreamSpec
    from repro.testbed import make_virt_testbed
    from repro.virt import QosParams, TenantManager

    tb = make_virt_testbed()
    manager = TenantManager(tb, qos=args.qos)
    params = None
    if args.qos:
        params = QosParams(weight=args.weight,
                           ops_per_sec=args.ops_per_sec,
                           bytes_per_sec=args.bytes_per_sec)
    tenants = [manager.provision(f"tenant{i}", queues=args.queues,
                                 qos=params)
               for i in range(args.tenants)]
    # One stream per tenant; the stream id is the tenant's index.
    streams = [StreamSpec(stream_id=i, ops=args.ops,
                          size=f"fixed:{args.size}",
                          concurrency=args.concurrency,
                          max_size=args.size)
               for i in range(args.tenants)]
    engines = {i: manager.engine(t, qd=args.concurrency)
               for i, t in enumerate(tenants)}
    # A parked (weight-0) tenant wedges the load: a LoadGenError.
    report = LoadGenerator(engines, streams, method=args.method).run()
    rows = []
    for tenant, rep in zip(tenants, report.streams):
        rows.append([tenant.name, tenant.nsid,
                     ",".join(str(q) for q in tenant.qids),
                     rep.ok, rep.errors + rep.timeouts,
                     f"{rep.latency.p50 / 1000:.2f}",
                     f"{rep.latency.p99 / 1000:.2f}",
                     f"{rep.kops:.1f}"])
    qos_text = (f"qos on (weight {args.weight}"
                + (f", {args.ops_per_sec:.0f} ops/s" if args.ops_per_sec
                   else "")
                + (f", {args.bytes_per_sec:.0f} B/s" if args.bytes_per_sec
                   else "") + ")") if args.qos else "qos off"
    print(format_table(
        ["tenant", "nsid", "qids", "ok", "fail", "p50(us)", "p99(us)",
         "kops"],
        rows,
        title=(f"virt: {args.tenants} tenant(s) x {args.queues} queue(s), "
               f"{args.ops} x {args.size}B {args.method}, {qos_text}")))
    ctrl = tb.ssd.controller
    print(f"namespace rejections: {ctrl.ns_rejections}")
    if manager.arbiter is not None:
        arb = manager.arbiter
        print(f"arbiter: {arb.grants} grants, "
              f"{arb.denied_ops} ops-denied, "
              f"{arb.denied_bytes} bytes-denied, "
              f"{arb.denied_weight} weight-denied")
    manager.teardown_all()
    return 0 if report.total_ok == report.total_ops else 1


def cmd_serve(args) -> int:
    """Closed-loop serving run: N sessions over the KV front-end."""
    from repro.workloads import run_serving

    tb = make_kv_testbed()
    service = tb.make_service(
        queues=args.queues, qd=args.qd, method=args.method,
        batch_window_ns=args.window_ns,
        batch_max_pairs=args.batch_max_pairs,
        cache_entries=args.cache_entries)
    report = run_serving(
        service, sessions=args.sessions, ops_per_session=args.ops,
        read_ratio=args.read_ratio,
        keys_per_session=args.keys_per_session,
        fan_in=args.fan_in, seed=args.seed)
    stats = service.stats
    cache = service.cache_stats
    kv = tb.personality
    vlog = kv.vlog
    space_amp = (f"{vlog.flushed_used / vlog.flushed_live:.2f}x"
                 if vlog.flushed_live else "n/a")
    ctrl = tb.ssd.controller
    served = max(1, report.ok + report.not_found)
    # The preload issues no GETs, so every parked read and die wait
    # falls in the timed run.
    die_wait = (f"{ctrl.die_wait_ns / report.elapsed_ns:.1%}"
                if report.elapsed_ns > 0 else "n/a")
    nand = tb.ssd.nand
    parked = max(1, ctrl.parked_reads)
    rows = [
        ["ops completed", report.ok + report.not_found],
        ["not found", report.not_found],
        ["errors", report.errors],
        ["served kiops", f"{report.served_kiops:.1f}"],
        ["p50 (us)", f"{report.latency.p50 / 1000:.1f}"],
        ["p99 (us)", f"{report.latency.p99 / 1000:.1f}"],
        ["worst client p99 (us)", f"{report.worst_p99_us:.1f}"],
        ["worst client p99.9 (us)", f"{report.worst_p999_us:.1f}"],
        ["read-your-writes checks", report.rw_checks],
        ["group commits", stats.batches],
        ["mean pairs/commit", f"{stats.mean_batch_pairs:.1f}"],
        ["barrier flushes", stats.flush_barrier],
        ["deferred reads/deletes", stats.deferred_ops],
        ["cache hit rate", f"{cache.hit_rate:.2f}"],
        ["cache fills / races", f"{cache.fills} / {cache.fill_races}"],
        ["value-log relocations / PUT",
         f"{vlog.gc_relocated / max(1, kv.puts):.2f}"],
        ["log space amplification", space_amp],
        ["NAND reads / op", f"{nand.reads / served:.2f}"],
        ["parked reads / op", f"{ctrl.parked_reads / served:.2f}"],
        ["die-wait share", die_wait],
        ["read queued behind programs (us / parked read)",
         f"{nand.read_wait_program_ns / parked / 1000:.1f}"],
        ["read queued behind reads (us / parked read)",
         f"{nand.read_wait_read_ns / parked / 1000:.1f}"],
    ]
    batching = (f"window {args.window_ns:.0f}ns"
                if args.window_ns > 0 else "batching off")
    caching = (f"cache {args.cache_entries}"
               if args.cache_entries > 0 else "cache off")
    print(format_table(
        ["metric", "value"], rows,
        title=(f"serve: {args.sessions} session(s) x {args.ops} ops, "
               f"read {args.read_ratio:.0%}, {args.method}, "
               f"{batching}, {caching}")))
    print()
    print(format_traffic_breakdown(tb.traffic, title="PCIe traffic"))
    return 0 if report.errors == 0 else 1


def cmd_crash(args) -> int:
    """One seeded power cut (default) or the full crash-matrix sweep."""
    import json as json_mod

    from repro.durability.harness import CrashSpec, run_crash
    from repro.durability.matrix import run_matrix
    from repro.faults.plan import CrashPlan
    from repro.verify import InvariantViolation

    try:
        if args.matrix:
            result = run_matrix(cuts_per_cell=args.cuts_per_cell,
                                seed=args.seed,
                                progress=lambda line: print(f"  {line}"))
            print()
            print(f"crash matrix: {result.total_cuts} seeded cuts across "
                  f"{len(result.methods)} methods "
                  f"({', '.join(result.methods)})")
            print(f"acked writes lost : {result.total_losses}")
            print(f"torn-state finds  : {result.total_torn}")
            print(f"cuts that missed  : {result.total_unfired}")
            if args.json:
                with open(args.json, "w") as fh:
                    json_mod.dump(result.to_json(), fh, indent=2,
                                  sort_keys=True)
                    fh.write("\n")
                print(f"wrote {args.json}")
            return 0 if result.ok else 1
        spec = CrashSpec(plane=args.plane, method=args.method, qd=args.qd,
                         ops=args.ops, payload_bytes=args.payload,
                         cut=CrashPlan(args.cut_kind, args.cut_index),
                         plp=args.plp)
        report = run_crash(spec)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 1
    rows = [
        ["cut fired", "yes" if report.cut_fired else "no"],
        ["ops issued", report.issued],
        ["acked before cut", report.acked],
        ["domains scrubbed", len(report.scrubbed)],
        ["recovered keys", report.recovered_keys],
        ["recovery (us)", f"{report.recovery_ns / 1000:.1f}"],
        ["acked writes lost", len(report.lost)],
        ["torn-state findings", len(report.torn)],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"crash: {report.label}"))
    for label in report.lost:
        print(f"  LOST: {label}")
    for finding in report.torn:
        print(f"  TORN: {finding}")
    verdict = ("every acknowledged write survived" if report.ok
               else "DURABILITY CONTRACT BROKEN")
    print(f"verdict: {verdict}")
    return 0 if report.ok else 1


def cmd_lint(args) -> int:
    from repro.verify.lint import run_lint

    return run_lint(args.paths, list_rules=args.list_rules,
                    flow=args.flow, output=args.output,
                    baseline=args.baseline)


def build_parser() -> argparse.ArgumentParser:
    from repro.engine.scheduler import POLICIES

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--gen", type=int, default=2, choices=(1, 2, 3, 4, 5),
                       help="PCIe generation (default: 2, the paper's)")
        p.add_argument("--lba", type=int, default=4096,
                       help="PRP fetch granularity in bytes")

    p = sub.add_parser("info", help="describe the simulated device")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sweep", help="size sweep across methods (Figure 5)")
    common(p)
    p.add_argument("--sizes", default="32,64,128,256,512,1024,4096")
    p.add_argument("--methods", default=_figure5_default(),
                   help="comma-separated methods (pick from "
                        "%s)" % ",".join(_sweep_methods()))
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                   help="per-opportunity fault probability (0 disables)")
    p.add_argument("--fault-seed", type=_seed_int, default=0xFA017)
    p.add_argument("--fault-kinds", default="",
                   help="comma-separated fault kinds (default: all)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("kv", help="KV-SSD workload (Figure 6)")
    p.add_argument("--workload", choices=("mixgraph", "fillrandom"),
                   default="mixgraph")
    p.add_argument("--methods", default=_figure5_suite_default())
    p.add_argument("--ops", type=int, default=500)
    p.add_argument("--value-size", type=int, default=128)
    p.add_argument("--seed", type=_seed_int, default=0x5EED)
    p.set_defaults(func=cmd_kv)

    p = sub.add_parser("pushdown", help="CSD pushdown (Figure 7)")
    p.add_argument("--methods", default=_figure5_suite_default())
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--segment", action="store_true",
                   help="send table;predicate segments instead of full SQL")
    p.set_defaults(func=cmd_pushdown)

    p = sub.add_parser("replay", help="replay a recorded KV trace")
    p.add_argument("trace", help="JSONL trace file (see repro.workloads.trace)")
    p.add_argument("--method", default=dp_names.BYTEEXPRESS,
                   choices=_suite_methods())
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "faults", help="fault-injection demo (seeded faults vs recovery)")
    common(p)
    p.add_argument("--ops", type=int, default=200)
    p.add_argument("--size", type=int, default=256,
                   help="payload bytes per write")
    p.add_argument("--rate", type=float, default=0.05,
                   help="per-opportunity fault probability")
    p.add_argument("--seed", type=_seed_int, default=0xFA017)
    p.add_argument("--kinds", default="",
                   help="comma-separated fault kinds (default: all)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "engine",
        help="asynchronous multi-queue engine with concurrent streams")
    common(p)
    p.add_argument("--queues", type=int, default=4,
                   help="I/O queue pairs the engine drives")
    p.add_argument("--qd", type=int, default=8,
                   help="per-queue queue-depth cap")
    p.add_argument("--streams", type=int, default=4,
                   help="concurrent client streams")
    p.add_argument("--method", default=dp_names.BYTEEXPRESS,
                   choices=engine_methods())
    p.add_argument("--ops", type=int, default=2000,
                   help="total operations across all streams")
    p.add_argument("--dist", default="fixed:64",
                   help="payload sizes: fixed:N | uniform:LO:HI | mixgraph")
    p.add_argument("--policy", default=POLICIES[0], choices=POLICIES,
                   help="queue placement policy")
    p.add_argument("--think-ns", type=float, default=0.0,
                   help="mean exponential think time per stream (0 = closed)")
    p.add_argument("--tagged", action="store_true",
                   help="tagged chunk mode (cross-SQ reassembly, §3.3.2)")
    p.add_argument("--doorbell-mode",
                   choices=(DOORBELL_MMIO, DOORBELL_SHADOW),
                   default=DOORBELL_MMIO,
                   help="doorbell publication: posted MMIO writes (stock) "
                        "or a DMA-read host-memory shadow page")
    p.add_argument("--burst-limit", type=int, default=1,
                   help="max contiguous SQEs fetched in one DMA read "
                        "(1 = stock per-SQE fetch)")
    p.add_argument("--cq-coalesce", type=int, default=1,
                   help="CQEs buffered per completion DMA write + MSI-X "
                        "(1 = stock per-CQE posting)")
    p.add_argument("--seed", type=_seed_int, default=0x5EED)
    p.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                   help="per-opportunity fault probability (0 disables)")
    p.add_argument("--fault-seed", type=_seed_int, default=0xFA017)
    p.add_argument("--fault-kinds", default="",
                   help="comma-separated fault kinds (default: all)")
    p.set_defaults(func=cmd_engine)

    p = sub.add_parser(
        "virt",
        help="multi-tenant rig: namespaces, queue passthrough, QoS")
    p.add_argument("--tenants", type=int, default=4,
                   help="tenants to provision")
    p.add_argument("--queues", type=int, default=1,
                   help="queue pairs per tenant")
    p.add_argument("--ops", type=int, default=200,
                   help="operations per tenant")
    p.add_argument("--size", type=int, default=64,
                   help="payload bytes per op")
    p.add_argument("--method", default=dp_names.BYTEEXPRESS,
                   choices=engine_methods())
    p.add_argument("--concurrency", type=int, default=4,
                   help="outstanding ops per tenant (closed loop)")
    p.add_argument("--no-qos", dest="qos", action="store_false",
                   help="disable QoS arbitration (isolation only)")
    p.add_argument("--weight", type=int, default=1,
                   help="WRR weight per tenant (QoS on)")
    p.add_argument("--ops-per-sec", type=float, default=None,
                   help="per-tenant ops/sec budget (QoS on)")
    p.add_argument("--bytes-per-sec", type=float, default=None,
                   help="per-tenant bytes/sec budget (QoS on)")
    p.set_defaults(func=cmd_virt, qos=True)

    p = sub.add_parser(
        "serve",
        help="KV serving front-end: sessions, group commit, read cache")
    p.add_argument("--sessions", type=int, default=64,
                   help="concurrent client sessions")
    p.add_argument("--ops", type=int, default=32,
                   help="operations per session")
    p.add_argument("--read-ratio", type=float, default=0.9,
                   help="GET fraction of the mix (rest are PUTs)")
    p.add_argument("--keys-per-session", type=int, default=8,
                   help="private key-range size per session")
    p.add_argument("--fan-in", type=int, default=1,
                   help="outstanding ops per session (1 verifies "
                        "read-your-writes)")
    p.add_argument("--window-ns", type=float, default=4000.0,
                   help="group-commit batching window (0 disables)")
    p.add_argument("--batch-max-pairs", type=int, default=32,
                   help="pairs that close the window early")
    p.add_argument("--cache-entries", type=int, default=8192,
                   help="read-cache capacity in entries (0 disables)")
    p.add_argument("--queues", type=int, default=None,
                   help="I/O queues the service drives (default: all)")
    p.add_argument("--qd", type=int, default=32,
                   help="per-queue queue-depth cap")
    p.add_argument("--method", default=dp_names.BYTEEXPRESS,
                   choices=engine_methods())
    p.add_argument("--seed", type=_seed_int, default=0x5EED)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "crash",
        help="power-cut + recovery: one seeded cut, or the full matrix")
    p.add_argument("--matrix", action="store_true",
                   help="run the seeded crash-matrix sweep instead of a "
                        "single cut")
    p.add_argument("--plane", choices=("block", "kv"), default="kv",
                   help="device personality the workload runs against")
    p.add_argument("--method", default=dp_names.BYTEEXPRESS,
                   help="datapath method carrying the writes")
    p.add_argument("--qd", type=int, default=1,
                   help="queue depth (1 = synchronous per-op acks)")
    p.add_argument("--ops", type=int, default=12,
                   help="write operations the workload attempts")
    p.add_argument("--payload", type=int, default=256,
                   help="payload bytes per write (KV: value size)")
    p.add_argument("--cut-kind", choices=("tlp", "doorbell", "cqe"),
                   default="tlp",
                   help="protocol action the power dies at")
    p.add_argument("--cut-index", type=int, default=30,
                   help="0-based opportunity index of the cut")
    p.add_argument("--no-plp", dest="plp", action="store_false",
                   help="disable power-loss protection: boot from the "
                        "stale journal (the deliberate data-loss arm)")
    p.add_argument("--cuts-per-cell", type=int, default=16,
                   help="seeded cuts per matrix cell (matrix mode)")
    p.add_argument("--seed", type=_seed_int, default=0xC0A57,
                   help="seed for the matrix's cut-index draws")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the matrix results JSON here (matrix mode)")
    p.set_defaults(func=cmd_crash, plp=True)

    p = sub.add_parser(
        "lint",
        help="project-specific AST lint (determinism + queue protocol)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--list", action="store_true", dest="list_rules",
                   help="list the rule codes and exit")
    p.add_argument("--flow", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="also run the whole-project flow analysis "
                        "(call graph + CFG dataflow: VER2xx/3xx/4xx)")
    p.add_argument("--output", choices=("text", "json", "sarif"),
                   default="text", help="report format")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="verify_baseline.json of grandfathered findings "
                        "that are reported but do not fail the run")
    p.set_defaults(func=cmd_lint)
    return parser


#: What a refused command's message calls its configuration, where
#: that is not the command's name.
_LABELS = {"serve": "serving", "virt": "tenant", "replay": "trace"}


def main(argv: List[str] = None) -> int:
    """Run one command.  A request that can never succeed (a
    ``ValueError``, which every refusal in the stack is, or an unreadable
    file) exits 2 with one ``bad <label> configuration`` line; a device
    failure (:class:`~repro.host.errors.DeviceError`) propagates."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        label = _LABELS.get(args.command, args.command)
        print(f"bad {label} configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
