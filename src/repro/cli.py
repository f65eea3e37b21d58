"""Command-line interface.

::

    repro list                              # benchmarks, schedulers, models
    repro config                            # Table I machine descriptions
    repro run bfs-citation -s adaptive-bind # one simulation
    repro compare bfs-citation              # all schedulers on one benchmark
    repro grid --jobs 4                     # Figures 7/8/9 (full evaluation)
    repro tune bfs-citation amr --jobs 4    # search the scheduler-policy space
    repro cache stats                       # result/workload cache size and versions
    repro cache prune --max-bytes 64M       # evict oldest cached results and traces
    repro footprint                         # Figure 2 analysis
    repro trace bfs-citation -o trace.json  # Chrome/Perfetto trace export
    repro snapshot amr -o amr.json.gz       # save a workload spec for reuse
    repro serve --jobs 4                    # long-lived simulation service
    repro submit bfs-citation --follow      # run via the service, stream progress

Every command accepts ``--scale tiny|small|paper`` (default: small).
``run``, ``compare`` and ``grid`` go through the RunSpec execution layer
(docs/harness.md): ``--jobs N`` fans simulations out over N worker
processes and results are cached on disk by content (``--cache-dir``,
default ``$REPRO_CACHE_DIR`` or ``.repro-cache``; ``--no-cache``
disables). ``trace`` runs one simulation with a
:class:`~repro.telemetry.chrome_trace.ChromeTraceSink` attached and
writes trace-event JSON for ``chrome://tracing`` / https://ui.perfetto.dev
(docs/telemetry.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core import SCHEDULER_ORDER
from repro.dynpar import MODELS
from repro.gpu.config import KEPLER_K20C
from repro.harness.cache import ResultCache
from repro.harness.execution import Executor, RunSpec, make_executor
from repro.harness.workload_cache import WorkloadCache
from repro.harness.registry import (
    benchmark_names,
    catalog_dict,
    experiment_config,
    load_benchmark,
)
from repro.harness.report import (
    render_config,
    render_footprints,
    render_l1_hit_rates,
    render_l2_hit_rates,
    render_normalized_ipc,
)
from repro.harness.runner import run_grid, simulate

DEFAULT_CACHE_DIR = ".repro-cache"


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=("tiny", "small", "paper"), default="small",
        help="input size (default: small)",
    )


def _add_execution(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulation worker processes (default: 1 = in-process serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )


def _cache_dir_from_args(args: argparse.Namespace) -> str:
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _executor_from_args(
    args: argparse.Namespace, *, collect_telemetry: bool = False
) -> Executor:
    cache = None
    if not args.no_cache:
        cache = ResultCache(_cache_dir_from_args(args))
    return make_executor(jobs=args.jobs, cache=cache, collect_telemetry=collect_telemetry)


def _parse_bytes(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix ('64M' -> 64 MiB)."""
    raw = text.strip()
    factor = 1
    suffixes = {"k": 1024, "m": 1024**2, "g": 1024**3}
    if raw and raw[-1].lower() in suffixes:
        factor = suffixes[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"bad size {text!r}; expected an integer byte count, optionally "
            "suffixed with K, M or G"
        ) from None
    if value < 0:
        raise ValueError(f"size must be >= 0, got {text!r}")
    return value * factor


def cmd_list(args: argparse.Namespace) -> int:
    catalog = catalog_dict()
    if args.json:
        import json

        print(json.dumps(catalog, indent=2, sort_keys=True))
        return 0
    print("benchmarks:")
    for name in catalog["benchmarks"]:
        print(f"  {name}")
    schedulers = catalog["schedulers"]
    width = max(len(row["name"]) for row in schedulers)
    print("\nschedulers (append +throttle for contention-aware TB throttling):")
    for row in schedulers:
        origin = "paper" if row["paper"] else "composed"
        print(f"  {row['name']:<{width}}  {row['spec']}  [{origin}]")
    print("\nscheduler spec grammar (-s accepts any composition):")
    for axis, values in catalog["spec_grammar"].items():
        print(f"  {axis} = {' | '.join(values)}")
    print("\nlaunch models:")
    for name in catalog["launch_models"]:
        print(f"  {name}")
    return 0


def cmd_config(args: argparse.Namespace) -> int:
    print(render_config(KEPLER_K20C, "Table I: Kepler K20c (paper configuration)"))
    print()
    print(render_config(experiment_config(), "Scaled machine used by the harness"))
    return 0


def _profiled_run(spec: RunSpec, profile_out: str | None) -> int:
    """Run one spec under cProfile and print the top cumulative-time rows.

    The kernel is built (and memoized) *before* profiling starts so the
    report shows engine work, not datagen; the executor/result cache is
    bypassed for the same reason — a cache hit profiles nothing.
    """
    import cProfile
    import pstats

    from repro.harness.execution import kernel_for, run_spec

    print(f"building {spec.benchmark} ({spec.scale}) ...", file=sys.stderr)
    kernel_for(spec.benchmark, spec.scale, spec.seed)
    print(f"profiling {spec.label()} ...", file=sys.stderr)
    profiler = cProfile.Profile()
    profiler.enable()
    stats = run_spec(spec)
    profiler.disable()
    print(stats.summary())
    ps = pstats.Stats(profiler, stream=sys.stdout)
    ps.sort_stats("cumulative").print_stats(20)
    if profile_out:
        ps.dump_stats(profile_out)
        print(f"wrote {profile_out} (pstats format)", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if not args.timeline:
        spec = RunSpec.create(
            args.benchmark,
            args.scheduler,
            args.model,
            scale=args.scale,
            seed=args.seed,
        )
        if args.profile:
            return _profiled_run(spec, args.profile_out)
        executor = _executor_from_args(args)
        print(f"running {spec.label()} ...", file=sys.stderr)
        print(executor.run_one(spec).summary())
        return 0

    # the timeline needs an in-process engine with a telemetry sink
    # attached, so it bypasses the executor (cached stats carry no
    # event stream)
    from repro.analysis import OccupancyTimeline

    workload = load_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    print(f"building {workload.full_name} ({args.scale}) ...", file=sys.stderr)
    config = experiment_config()
    timeline = OccupancyTimeline(num_smx=config.num_smx)
    stats = simulate(
        workload.kernel(),
        args.scheduler,
        args.model,
        config,
        telemetry=timeline,
    )
    print(stats.summary())
    print(timeline.render(samples=72))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    executor = _executor_from_args(args)
    specs: dict[str, RunSpec] = {}
    for scheduler in SCHEDULER_ORDER + (args.scheduler or []):
        spec = RunSpec.create(
            args.benchmark, scheduler, args.model, scale=args.scale, seed=args.seed
        )
        specs.setdefault(spec.scheduler, spec)  # canonical label; dedup spellings
    print(f"comparing schedulers on {args.benchmark} ({args.scale}) ...", file=sys.stderr)
    results = executor.run(list(specs.values()))
    width = max(14, max(len(name) for name in specs))
    base = None
    for scheduler, spec in specs.items():
        stats = results[spec]
        if base is None:
            base = stats.ipc
        print(
            f"{scheduler:{width}s} IPC={stats.ipc:6.2f} ({stats.ipc / base:5.2f}x)  "
            f"L1={stats.l1_hit_rate:.3f}  L2={stats.l2_hit_rate:.3f}  "
            f"child wait={stats.child_mean_wait:7.0f}  "
            f"co-located={stats.child_same_cluster_fraction:.2f}  "
            f"steals={stats.work_steals:4d}  "
            f"gini={stats.busy_cycles_gini:.3f}"
        )
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    benchmarks = args.benchmarks or None
    workloads = None
    if benchmarks:
        workloads = [load_benchmark(b, scale=args.scale, seed=args.seed) for b in benchmarks]
    print("running the evaluation grid (this takes a few minutes) ...", file=sys.stderr)
    grid = run_grid(
        workloads,
        schedulers=tuple(args.schedulers) if args.schedulers else tuple(SCHEDULER_ORDER),
        models=tuple(args.models),
        scale=args.scale,
        executor=_executor_from_args(args),
    )
    print(render_l2_hit_rates(grid))
    print()
    print(render_l1_hit_rates(grid))
    print()
    print(render_normalized_ipc(grid))
    if args.output:
        from repro.harness.export import write_grid

        write_grid(grid, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Export one simulated run as Chrome/Perfetto trace-event JSON."""
    from repro.telemetry import (
        ChromeTraceSink,
        MetricsSink,
        TeeSink,
        assert_valid_trace,
    )

    from repro.core import canonical_scheduler_name

    workload = load_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    config = experiment_config()
    label = canonical_scheduler_name(args.scheduler)
    trace_sink = ChromeTraceSink(num_smx=config.num_smx, label=label)
    metrics = MetricsSink(label=label)
    print(
        f"tracing {workload.full_name} ({args.scale}) "
        f"under {args.scheduler}/{args.model} ...",
        file=sys.stderr,
    )
    stats = simulate(
        workload.kernel(),
        args.scheduler,
        args.model,
        config,
        telemetry=TeeSink([trace_sink, metrics]),
    )
    trace = trace_sink.write(args.output)
    assert_valid_trace(trace)
    summary = metrics.summary(stats)
    print(stats.summary())
    print(
        f"steals={summary['work_steals']}  "
        f"busy-cycle gini={summary['busy_cycles_gini']:.3f}  "
        f"queue high water={summary['queue_entry_high_water']}"
    )
    print(
        f"wrote {args.output} ({len(trace['traceEvents'])} events; "
        "open in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Generate a benchmark's workload spec once and save it for reuse."""
    from repro.gpu.serialize import load_spec, save_spec

    if args.load:
        spec = load_spec(args.load)
        print(f"loaded {spec.name!r}: {len(spec.bodies)} parent TBs", file=sys.stderr)
        stats = simulate(spec, args.scheduler, args.model, experiment_config())
        print(stats.summary())
        return 0
    if not args.benchmark:
        raise ValueError("snapshot needs a benchmark name (or --load FILE)")
    workload = load_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    print(f"building {workload.full_name} ({args.scale}) ...", file=sys.stderr)
    save_spec(workload.kernel(), args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Fast self-check: the paper's headline shapes on one benchmark."""
    checks = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(ok)
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")

    config = experiment_config()
    workload = load_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    print(f"validating against {workload.full_name} ({args.scale}) ...", file=sys.stderr)
    spec = workload.kernel()
    rr = simulate(spec, "rr", "dtbl", config)
    tb_pri = simulate(spec, "tb-pri", "dtbl", config)
    bind = simulate(spec, "smx-bind", "dtbl", config)
    adaptive = simulate(spec, "adaptive-bind", "dtbl", config)

    check(
        "TB-Pri cuts child queueing delay",
        tb_pri.child_mean_wait < rr.child_mean_wait,
        f"{rr.child_mean_wait:.0f} -> {tb_pri.child_mean_wait:.0f} cycles",
    )
    check(
        "TB-Pri improves L2 locality",
        tb_pri.l2_hit_rate >= rr.l2_hit_rate,
        f"{rr.l2_hit_rate:.3f} -> {tb_pri.l2_hit_rate:.3f}",
    )
    check(
        "SMX-Bind co-locates every child",
        bind.child_same_smx_fraction == 1.0,
        f"fraction={bind.child_same_smx_fraction:.2f}",
    )
    check(
        "SMX-Bind improves L1 locality",
        bind.l1_hit_rate > rr.l1_hit_rate,
        f"{rr.l1_hit_rate:.3f} -> {bind.l1_hit_rate:.3f}",
    )
    check(
        "Adaptive-Bind balances load better than SMX-Bind",
        adaptive.smx_load_imbalance <= bind.smx_load_imbalance,
        f"{bind.smx_load_imbalance:.3f} -> {adaptive.smx_load_imbalance:.3f}",
    )
    if args.scale != "tiny":
        check(
            "LaPerm (Adaptive-Bind) beats round-robin",
            adaptive.ipc > rr.ipc,
            f"IPC {rr.ipc:.2f} -> {adaptive.ipc:.2f} ({adaptive.ipc / rr.ipc:.2f}x)",
        )
    ok = all(checks)
    print("validation " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_tune(args: argparse.Namespace) -> int:
    """Search the scheduler-policy space with successive halving."""
    from repro.search import ProgressPrinter, render_leaderboard, tune, write_tune

    result = tune(
        args.benchmarks,
        objective=args.objective,
        extra_objectives=tuple(args.pareto) if args.pareto is not None else None,
        model=args.model,
        scale=args.scale,
        seed=args.seed,
        budget=args.budget,
        eta=args.eta,
        include_throttle=not args.no_throttle,
        candidates=args.candidates,
        executor=_executor_from_args(args, collect_telemetry=True),
        telemetry=ProgressPrinter(),
    )
    print(render_leaderboard(result, top=args.top))
    if args.output:
        write_tune(result, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the on-disk result and workload caches."""
    root = _cache_dir_from_args(args)
    cache = ResultCache(root)
    workloads = WorkloadCache(Path(root) / "workloads")
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        print(f"cache root       {stats['root']}")
        print(f"records          {stats['records']}")
        print(f"total bytes      {stats['total_bytes']}")
        versions = stats["engine_versions"] or {"-": 0}
        rendered = ", ".join(f"v{k}: {v}" for k, v in versions.items())
        print(f"engine versions  {rendered}")
        wstats = workloads.disk_stats()
        print(f"workload traces  {wstats['records']} ({wstats['total_bytes']} bytes)")
        return 0
    max_bytes = _parse_bytes(args.max_bytes)
    removed, freed = cache.prune(max_bytes)
    w_removed, w_freed = workloads.prune(max_bytes)
    print(f"pruned {removed} record(s), freed {freed} bytes (cap {max_bytes})")
    print(f"pruned {w_removed} workload trace(s), freed {w_freed} bytes")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived simulation service (docs/service.md)."""
    from repro.service import serve

    cache = None
    if not args.no_cache:
        cache = ResultCache(_cache_dir_from_args(args))
    return serve(
        host=args.host,
        port=args.port,
        jobs=max(args.jobs, 1),
        queue_limit=args.queue_limit,
        cache=cache,
        default_deadline=args.deadline,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one run to a ``repro serve`` instance and wait for it."""
    from repro.gpu.serialize import stats_from_obj
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    job = client.submit(
        args.benchmark,
        args.scheduler,
        args.model,
        scale=args.scale,
        seed=args.seed,
        deadline=args.deadline,
    )
    print(f"submitted {job['id']} ({job['state']})", file=sys.stderr)
    if args.no_wait:
        print(job["id"])
        return 0
    if args.follow:
        for event in client.events(job["id"]):
            print(f"[{event['seq']}] {event['state']}: {event['detail']}", file=sys.stderr)
        job = client.job(job["id"])
    elif job["state"] not in ("done", "failed", "cancelled"):
        job = client.wait(job["id"], timeout=args.timeout)
    if job["state"] != "done":
        raise RuntimeError(f"job {job['id']} {job['state']}: {job.get('error')}")
    print(f"job {job['id']} done (source={job['source']})", file=sys.stderr)
    print(stats_from_obj(job["stats"]).summary())
    return 0


def cmd_footprint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_footprint
    from repro.harness.registry import iter_benchmarks

    results = {}
    for workload in iter_benchmarks(scale=args.scale, seed=args.seed):
        print(f"analyzing {workload.full_name} ...", file=sys.stderr)
        results[workload.full_name] = analyze_footprint(workload.kernel())
    print(render_footprints(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LaPerm (ISCA 2016) reproduction: locality-aware TB scheduling "
        "for GPU dynamic parallelism",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list benchmarks, schedulers and launch models")
    list_p.add_argument(
        "--json", action="store_true",
        help="print the machine-readable catalog (same payload as the "
        "service's GET /v1/catalog)",
    )
    sub.add_parser("config", help="print the Table I machine configurations")

    run_p = sub.add_parser("run", help="simulate one benchmark/scheduler/model")
    run_p.add_argument("benchmark", choices=benchmark_names())
    run_p.add_argument("-s", "--scheduler", default="adaptive-bind")
    run_p.add_argument("-m", "--model", choices=sorted(MODELS), default="dtbl")
    run_p.add_argument("--timeline", action="store_true", help="print an SMX occupancy heatmap")
    run_p.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top-20 cumulative functions "
        "(bypasses the result cache)",
    )
    run_p.add_argument(
        "--profile-out", metavar="FILE", default=None,
        help="with --profile: also dump raw pstats data to FILE",
    )
    _add_scale(run_p)
    _add_execution(run_p)

    cmp_p = sub.add_parser("compare", help="run all four schedulers on one benchmark")
    cmp_p.add_argument("benchmark", choices=benchmark_names())
    cmp_p.add_argument("-m", "--model", choices=sorted(MODELS), default="dtbl")
    cmp_p.add_argument(
        "-s", "--scheduler", action="append", metavar="SPEC",
        help="extra scheduler rows beyond the paper's four: a composition "
        "name or spec string like 'pri=level,bind=smx,steal=backup' "
        "(repeatable)",
    )
    _add_scale(cmp_p)
    _add_execution(cmp_p)

    grid_p = sub.add_parser("grid", help="run the Figures 7/8/9 evaluation grid")
    grid_p.add_argument("--benchmarks", nargs="*", help="subset (default: all 16)")
    grid_p.add_argument("--models", nargs="*", default=["cdp", "dtbl"], choices=sorted(MODELS))
    grid_p.add_argument(
        "--schedulers", nargs="*", metavar="SPEC",
        help="scheduler rows: composition names or spec strings "
        "(default: the paper's four)",
    )
    grid_p.add_argument("-o", "--output", help="also export results (.json or .csv)")
    _add_scale(grid_p)
    _add_execution(grid_p)

    tune_p = sub.add_parser(
        "tune",
        help="search the scheduler-policy space (budgeted successive halving)",
    )
    tune_p.add_argument(
        "benchmarks", nargs="*", default=["bfs-citation", "amr"], metavar="BENCHMARK",
        help="workloads to tune on (default: bfs-citation amr)",
    )
    tune_p.add_argument("-m", "--model", choices=sorted(MODELS), default="dtbl")
    tune_p.add_argument(
        "--objective", default="ipc", metavar="NAME",
        help="primary ranking objective (default: ipc; see docs/search.md)",
    )
    tune_p.add_argument(
        "--pareto", nargs="*", metavar="NAME",
        help="extra objectives for the Pareto frontier "
        "(default: l1-hit-rate l2-hit-rate gini child-wait)",
    )
    tune_p.add_argument(
        "--budget", type=int, default=96, metavar="N",
        help="max planned candidate x workload evaluations (default: 96)",
    )
    tune_p.add_argument(
        "--eta", type=int, default=3, metavar="N",
        help="successive-halving reduction factor (default: 3)",
    )
    tune_p.add_argument(
        "--no-throttle", action="store_true",
        help="exclude admit=throttle composites from the search space",
    )
    tune_p.add_argument(
        "--candidates", nargs="*", metavar="SPEC",
        help="explicit candidate specs/names instead of the full space "
        "(spellings are canonicalized and deduped)",
    )
    tune_p.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="leaderboard rows to print (default: all final-rung rows)",
    )
    tune_p.add_argument("-o", "--output", metavar="FILE", help="also write JSON results")
    _add_scale(tune_p)
    _add_execution(tune_p)

    cache_p = sub.add_parser(
        "cache", help="inspect or prune the on-disk result and workload caches"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_stats_p = cache_sub.add_parser("stats", help="record count, bytes, engine versions")
    cache_prune_p = cache_sub.add_parser(
        "prune", help="delete oldest records until each cache fits a byte cap"
    )
    cache_prune_p.add_argument(
        "--max-bytes", required=True, metavar="SIZE",
        help="target cache size: bytes, or with a K/M/G suffix (e.g. 64M)",
    )
    for sub_p in (cache_stats_p, cache_prune_p):
        sub_p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
        )

    serve_p = sub.add_parser(
        "serve", help="run the long-lived simulation service (docs/service.md)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 = ephemeral, printed on startup; default: 8642)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="persistent simulation worker processes (default: 2)",
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="max queued jobs before submissions get HTTP 429 (default: 64)",
    )
    serve_p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-job execution deadline (default: none)",
    )
    serve_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    serve_p.add_argument(
        "--no-cache", action="store_true",
        help="serve without the on-disk result cache (every job executes)",
    )

    submit_p = sub.add_parser(
        "submit", help="submit one run to a running service and print its stats"
    )
    submit_p.add_argument("benchmark", choices=benchmark_names())
    submit_p.add_argument("-s", "--scheduler", default="adaptive-bind")
    submit_p.add_argument("-m", "--model", choices=sorted(MODELS), default="dtbl")
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=int, default=8642)
    submit_p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job execution deadline",
    )
    submit_p.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="how long to poll for completion (default: 300)",
    )
    submit_p.add_argument(
        "--follow", action="store_true",
        help="stream the job's SSE progress events while waiting",
    )
    submit_p.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit without waiting",
    )
    submit_p.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    _add_scale(submit_p)

    fp_p = sub.add_parser("footprint", help="run the Figure 2 footprint analysis")
    _add_scale(fp_p)

    val_p = sub.add_parser("validate", help="fast self-check of the paper's headline shapes")
    val_p.add_argument(
        "benchmark", nargs="?", default="bfs-citation",
        help="benchmark to validate against (default: bfs-citation)",
    )
    _add_scale(val_p)

    tr_p = sub.add_parser("trace", help="export one run as Chrome/Perfetto trace-event JSON")
    tr_p.add_argument("benchmark", help="benchmark to trace (see 'repro list')")
    tr_p.add_argument("-s", "--scheduler", default="adaptive-bind")
    tr_p.add_argument("-m", "--model", choices=sorted(MODELS), default="dtbl")
    tr_p.add_argument("-o", "--output", default="trace.json", metavar="FILE")
    _add_scale(tr_p)

    snap_p = sub.add_parser(
        "snapshot", help="save a benchmark workload spec, or simulate a saved one"
    )
    snap_p.add_argument("benchmark", nargs="?", choices=benchmark_names())
    snap_p.add_argument("-o", "--output", default="trace.json.gz")
    snap_p.add_argument("--load", help="simulate a previously saved spec file")
    snap_p.add_argument("-s", "--scheduler", default="adaptive-bind")
    snap_p.add_argument("-m", "--model", choices=sorted(MODELS), default="dtbl")
    _add_scale(snap_p)

    return parser


COMMANDS = {
    "list": cmd_list,
    "config": cmd_config,
    "run": cmd_run,
    "compare": cmd_compare,
    "grid": cmd_grid,
    "tune": cmd_tune,
    "cache": cmd_cache,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "footprint": cmd_footprint,
    "validate": cmd_validate,
    "trace": cmd_trace,
    "snapshot": cmd_snapshot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        # unknown benchmark/scheduler, deadlocks, bad trace files, I/O:
        # one line on stderr, non-zero exit, no traceback
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
