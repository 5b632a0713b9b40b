"""Command-line interface: regenerate the paper's evaluation from a shell.

::

    python -m repro fig5            # Figure 5 table + ASCII plot
    python -m repro fig6            # Figure 6
    python -m repro table1          # Table 1
    python -m repro all             # everything
    python -m repro info            # platform/calibration summary
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .config import TimingModel
from .topology.builder import paper_testbed
from .units import fmt_size

__all__ = ["main"]


def _execution_from_args(args: argparse.Namespace):
    """``--workers N`` → N workers; absent → honour $REPRO_BENCH_WORKERS."""
    from .harness.executors import ExecutionConfig

    return ExecutionConfig(workers=getattr(args, "workers", None))


def _print_fig5(result, args: argparse.Namespace) -> None:
    print(result.format(plot=not args.no_plot))
    cross = result.crossover_size()
    if cross:
        print(f"\ncrossover (comm == compute): {fmt_size(cross)}")


def _print_fig6(result, args: argparse.Namespace) -> None:
    print(result.format(plot=not args.no_plot))


def _print_table1(result) -> None:
    print(result.format())
    print("\npaper: 441→382µs (14%) and 1183→1031µs (13%)")


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .harness.experiments import experiment_fig5

    _print_fig5(
        experiment_fig5(iterations=args.iterations, execution=_execution_from_args(args)), args
    )
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from .harness.experiments import experiment_fig6

    _print_fig6(
        experiment_fig6(iterations=args.iterations, execution=_execution_from_args(args)), args
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .harness.experiments import experiment_table1

    _print_table1(experiment_table1(execution=_execution_from_args(args)))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Run every experiment once, through one shared executor, then print
    (and optionally save) those same results."""
    from .harness.experiments import run_all_experiments, save_results_json

    results = run_all_experiments(
        iterations=args.iterations, execution=_execution_from_args(args)
    )
    if args.json:
        save_results_json(results, args.json)
        print(f"wrote machine-readable results to {args.json}")
    _print_fig5(results["fig5"], args)
    print()
    _print_fig6(results["fig6"], args)
    print()
    _print_table1(results["table1"])
    return 0


def _demo_workload(engine: str, tracer=None, timing=None, faults=None):
    """One isend(32K)+compute(40µs)+swait round — the gantt/trace subject."""
    from .harness.runner import ClusterRuntime
    from .units import KiB

    rt = ClusterRuntime.build(engine=engine, tracer=tracer, timing=timing, faults=faults)

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, KiB(32), buffer_id="b")
        yield ctx.compute(40.0)
        yield from nm.swait(ctx, req)
        if faults is not None:
            yield from nm.drain(ctx)

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.irecv(ctx, 0, 0, KiB(32), buffer_id="r")
        yield ctx.compute(40.0)
        yield from nm.rwait(ctx, req)
        if faults is not None:
            yield from nm.drain(ctx)

    rt.spawn(0, sender, name="sender", core_index=0)
    rt.spawn(1, receiver, name="receiver", core_index=0)
    rt.run()
    return rt


def _emit_metrics_report(rt, path: str, suffix: str = "") -> None:
    """Write the merged run report (``--metrics <path>``); ``suffix``
    disambiguates when one invocation produces several runtimes."""
    import os.path

    from .obs import write_run_report

    if suffix:
        root, ext = os.path.splitext(path)
        path = f"{root}.{suffix}{ext or '.json'}"
    write_run_report(rt, path)
    print(f"metrics report: {path}")


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .harness.timeline import overlap_ratio, render_gantt

    engines = (args.engine,) if args.engine else ("sequential", "pioman")
    for engine in engines:
        rt = _demo_workload(engine)
        sched = rt.node(0).scheduler
        active = [c.timeline for c in sched.cores if c.timeline.intervals]
        print(f"--- {engine} (node 0, finished at {rt.sim.now:.1f}µs) ---")
        print(render_gantt(active, width=72, t_end=rt.sim.now))
        print(f"overlap ratio: {overlap_ratio(sched) * 100:.0f}%\n")
        if args.metrics:
            _emit_metrics_report(rt, args.metrics, suffix=engine if len(engines) > 1 else "")
        rt.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .harness.traceviz import export_chrome_trace
    from .sim.tracing import Tracer

    rt = _demo_workload(args.engine or "pioman", tracer=Tracer())
    n = export_chrome_trace(rt, args.out)
    print(f"wrote {n} events to {args.out} (open in chrome://tracing or ui.perfetto.dev)")
    if args.metrics:
        _emit_metrics_report(rt, args.metrics)
    rt.close()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """Ping-pong demo; with ``--faults`` the wire misbehaves and the
    recovery layer (unless ``--no-retransmit``) repairs it."""
    from .errors import DeadlockError
    from .faults import FaultPlan
    from .harness.runner import ClusterRuntime

    plan = None
    if args.faults:
        plan = FaultPlan.lossy(
            drop=args.drop, corrupt=args.corrupt, duplicate=args.duplicate, seed=args.seed
        )
    engines = (args.engine,) if args.engine else ("sequential", "pioman")
    for engine in engines:
        rt = ClusterRuntime.build(engine=engine, faults=plan, recover=not args.no_retransmit)
        n, size = args.messages, args.size

        def origin(ctx):
            nm = ctx.env["nm"]
            for i in range(n):
                yield from nm.send(ctx, 1, i, size, payload=i)
                yield from nm.recv(ctx, 1, 1000 + i, size)
            yield from nm.drain(ctx)

        def echo(ctx):
            nm = ctx.env["nm"]
            for i in range(n):
                req = yield from nm.recv(ctx, 0, i, size)
                yield from nm.send(ctx, 0, 1000 + i, size, payload=req.data)
            yield from nm.drain(ctx)

        rt.spawn(0, origin, name="origin")
        rt.spawn(1, echo, name="echo")
        try:
            end = rt.run()
        except DeadlockError as exc:
            print(f"{engine:<10}: LOST MESSAGES (no retransmission) — {exc}")
            rt.close()
            continue
        line = f"{engine:<10}: {n} round-trips of {fmt_size(size)} in {end:.1f}µs"
        if rt.fault_injector is not None:
            inj = rt.fault_injector.stats()
            rec = rt.recovery_stats()
            line += (
                f" | faults: drops={inj['drops'] + inj['flap_drops']}"
                f" corrupt={inj['corruptions']} dup={inj['duplicates']}"
                f" | recovery: retransmits={rec['retransmits'] + rec['rts_retries']}"
                f" acks={rec['acks_received']} gave_up={rec['gave_up']}"
            )
        print(line)
        if args.metrics:
            _emit_metrics_report(rt, args.metrics, suffix=engine if len(engines) > 1 else "")
        rt.close()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run the demo round with the registry on and print/export metrics."""
    from .config import ObsConfig
    from .faults import FaultPlan
    from .obs import snapshot_to_json, snapshot_to_prometheus, timeseries_to_csv
    from .sim.tracing import Tracer

    plan = None
    if args.faults:
        plan = FaultPlan.lossy(drop=0.1, corrupt=0.02, duplicate=0.02, seed=0)
    timing = TimingModel().replace(
        obs=ObsConfig(enabled=True, sample_interval_us=args.sample)
    )
    rt = _demo_workload(args.engine or "pioman", tracer=Tracer(), timing=timing, faults=plan)
    snap = rt.metrics()
    if args.format == "prom":
        print(snapshot_to_prometheus(snap), end="")
    elif args.format == "csv":
        if rt.sampler is None:
            print("no time series: pass --sample INTERVAL_US", file=sys.stderr)
            rt.close()
            return 2
        print(timeseries_to_csv(rt.sampler), end="")
    else:
        print(snapshot_to_json(snap))
    if args.out:
        _emit_metrics_report(rt, args.out)
    rt.close()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    timing = TimingModel()
    cluster = paper_testbed()
    print(f"repro {__version__} — PIOMan/NewMadeleine/Marcel reproduction")
    print(f"platform : {cluster.describe()}")
    print(f"NIC      : MX-like, PIO ≤ {timing.nic.pio_threshold}B, "
          f"eager ≤ {fmt_size(timing.nic.rdv_threshold)}, "
          f"wire {timing.nic.wire_bw:.0f}B/µs, latency {timing.nic.wire_latency_us}µs")
    print(f"host     : memcpy {timing.host.memcpy_bw:.0f}B/µs, "
          f"ctx-switch {timing.host.context_switch_us}µs, "
          f"tasklet dispatch (remote) {timing.host.tasklet_remote_us}µs")
    print(f"marcel   : tick {timing.marcel.timer_tick_us}µs, "
          f"quantum {timing.marcel.quantum_us}µs")
    print("experiments: fig5 (small-message offloading), fig6 (rendezvous "
          "progression), table1 (convolution meta-application)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'A multithreaded communication engine for "
        "multicore architectures' (IPDPS-CAC 2008)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--faults",
        action="store_true",
        help="enable fault injection on the fabric (honoured by the demo and metrics commands)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("fig5", _cmd_fig5, "Figure 5: small-message submission offloading"),
        ("fig6", _cmd_fig6, "Figure 6: rendezvous handshake progression"),
        ("table1", _cmd_table1, "Table 1: convolution meta-application"),
        ("all", _cmd_all, "run every experiment"),
        ("info", _cmd_info, "show platform and calibration constants"),
        ("gantt", _cmd_gantt, "render a per-core ASCII Gantt of a demo round"),
        ("trace", _cmd_trace, "export a Chrome/Perfetto trace of a demo round"),
        ("demo", _cmd_demo, "ping-pong smoke run (combine with --faults for a lossy wire)"),
        ("metrics", _cmd_metrics, "run a demo round and dump the unified metrics registry"),
    ):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(fn=fn)
        if name in ("fig5", "fig6", "all"):
            p.add_argument("--iterations", type=int, default=20, help="benchmark iterations per point")
            p.add_argument("--no-plot", action="store_true", help="table only, no ASCII plot")
        if name in ("fig5", "fig6", "table1", "all"):
            p.add_argument(
                "--workers", type=int, default=None, metavar="N",
                help="run experiment grid points on N worker processes "
                "(0 = all CPUs; default: $REPRO_BENCH_WORKERS or serial); "
                "results are identical to a serial run",
            )
        if name == "all":
            p.add_argument("--json", default=None, help="also save machine-readable results to this path")
        if name in ("gantt", "trace", "demo", "metrics"):
            p.add_argument("--engine", choices=("sequential", "pioman"), default=None)
        if name in ("gantt", "trace", "demo"):
            p.add_argument(
                "--metrics",
                default=None,
                metavar="PATH",
                help="also write a merged metrics/trace run report (JSON) to PATH",
            )
        if name == "trace":
            p.add_argument("--out", default="repro_trace.json", help="output JSON path")
        if name == "metrics":
            p.add_argument(
                "--format", choices=("json", "prom", "csv"), default="json",
                help="stdout format: JSON snapshot, Prometheus text, or CSV time series",
            )
            p.add_argument(
                "--sample", type=float, default=0.0, metavar="US",
                help="time-series sampling interval in virtual µs (0 = no series)",
            )
            p.add_argument(
                "--out", default=None, metavar="PATH",
                help="also write the merged run report (JSON) to PATH",
            )
        if name == "demo":
            p.add_argument("--messages", type=int, default=16, help="round-trips per engine")
            p.add_argument("--size", type=int, default=4096, help="message size in bytes")
            p.add_argument("--drop", type=float, default=0.1, help="per-packet drop probability")
            p.add_argument("--corrupt", type=float, default=0.02, help="per-packet corruption probability")
            p.add_argument("--duplicate", type=float, default=0.02, help="per-packet duplication probability")
            p.add_argument("--seed", type=int, default=0, help="fault plan seed")
            p.add_argument(
                "--no-retransmit",
                action="store_true",
                help="inject faults without the recovery layer (messages may be lost)",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
