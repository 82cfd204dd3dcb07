"""Command-line interface: run the paper's experiments from a shell.

Subcommands::

    python -m repro sizes       --workload synthetic --column pk
    python -m repro probe       --index bf --fpp 1e-3 --config MEM/SSD
    python -m repro sweep       --column pk --probes 200
    python -m repro model       --fpp 1e-3
    python -m repro workloads
    python -m repro serve-bench --shards 1 2 4 8 --mix read_heavy --skew zipfian
    python -m repro serve-bench --durable --wal-dir /tmp/svc --shards 4
    python -m repro serve-bench --rebalance --skew hotspot --shards 4
    python -m repro checkpoint  --index bf --dir /tmp/idx
    python -m repro recover     --dir /tmp/idx

Every command prints the same tables the benchmark harness produces, so
results are scriptable without pytest.  A single ``--seed`` flag seeds
every random stream (relation data, probe keys, service traces) through
:func:`repro.workloads.derive_seed`, making a full run reproducible
from one knob; without it each stream keeps its historical default.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from repro.api import make_index, registered_backends
from repro.baselines import BPlusTree
from repro.core import BFTree, BFTreeConfig
from repro.harness import (
    break_even_table,
    format_table,
    run_probes,
    run_service,
    sweep_bf_tree,
    us,
)
from repro.model import FIGURE4_PARAMS, compare_at, summarize
from repro.service import ShardedIndex
from repro.storage import CONFIGS_BY_NAME, FIVE_CONFIGS
from repro.workloads import (
    MIXES,
    derive_seed,
    generate_trace,
    point_probes,
    shd,
    synthetic,
    tpch,
)

def _seeded(module) -> Callable:
    """Relation factory honouring the master seed: ``seed=None`` omits
    the kwarg so each generator keeps its historical default (42/7/99)
    and runs without --seed reproduce all previously published numbers."""
    return lambda n, seed: (
        module.generate(n) if seed is None else module.generate(n, seed=seed)
    )


WORKLOADS: dict[str, Callable] = {
    "synthetic": _seeded(synthetic),
    "tpch": _seeded(tpch),
    "shd": _seeded(shd),
}

DEFAULT_COLUMNS = {"synthetic": "pk", "tpch": "shipdate", "shd": "timestamp"}


def _build_relation(args: argparse.Namespace):
    try:
        factory = WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(
            f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}"
        )
    master = getattr(args, "seed", None)
    relation = factory(
        args.tuples, None if master is None else derive_seed(master, "relation")
    )
    column = args.column or DEFAULT_COLUMNS[args.workload]
    if column not in relation.columns:
        raise SystemExit(
            f"column {column!r} not in workload {args.workload!r} "
            f"(have {sorted(relation.columns)})"
        )
    return relation, column


def _build_index(kind: str, relation, column: str, fpp: float,
                 unique: bool):
    """Thin registry lookup: every registered backend is buildable here,
    and the error path lists the same names ``--index`` advertises (one
    source of truth — :func:`repro.api.registered_backends`)."""
    try:
        return make_index(kind, relation, column, unique=unique, fpp=fpp)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_sizes(args: argparse.Namespace) -> int:
    relation, column = _build_relation(args)
    unique = column == "pk"
    bp = BPlusTree.bulk_load(relation, column, unique=unique)
    rows = [["B+-Tree", "-", bp.size_pages, "-"]]
    for fpp in args.fpp:
        tree = BFTree.bulk_load(relation, column, BFTreeConfig(fpp=fpp),
                                unique=unique)
        rows.append([
            "BF-Tree", f"{fpp:g}", tree.size_pages,
            f"{bp.size_pages / tree.size_pages:.2f}x",
        ])
    print(format_table(
        ["index", "fpp", "pages", "capacity gain"], rows,
        title=f"Index sizes: {args.workload}.{column} "
              f"({relation.ntuples} tuples)",
    ))
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    relation, column = _build_relation(args)
    unique = column == "pk"
    index = _build_index(args.index, relation, column, args.fpp[0], unique)
    probes = point_probes(relation, column, args.probes,
                          hit_rate=args.hit_rate,
                          seed=derive_seed(args.seed, "probes"))
    configs = (
        [CONFIGS_BY_NAME[args.config]] if args.config else list(FIVE_CONFIGS)
    )
    rows = []
    payload = []
    for config in configs:
        stats = run_probes(index, probes, config, warm=args.warm)
        rows.append([
            config.name, f"{us(stats.avg_latency):.1f}",
            f"{stats.false_reads_per_search:.3f}",
            f"{stats.data_reads_per_search:.2f}",
            f"{stats.index_reads_per_search:.2f}",
            f"{stats.hit_rate:.0%}",
        ])
        payload.append({
            "index": args.index,
            "workload": args.workload,
            "column": column,
            "config": config.name,
            "warm": args.warm,
            "n_probes": stats.n_probes,
            "hit_rate": stats.hit_rate,
            "avg_latency_us": us(stats.avg_latency),
            "false_reads_per_search": stats.false_reads_per_search,
            "data_reads_per_search": stats.data_reads_per_search,
            "index_reads_per_search": stats.index_reads_per_search,
        })
    size = index.size_pages
    print(format_table(
        ["config", "latency (us)", "false reads", "data reads",
         "index reads", "hit rate"],
        rows,
        title=f"{args.index} probe on {args.workload}.{column} "
              f"({size} index pages, warm={args.warm})",
    ))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    relation, column = _build_relation(args)
    unique = column == "pk"
    probes = point_probes(relation, column, args.probes,
                          hit_rate=args.hit_rate,
                          seed=derive_seed(args.seed, "probes"))
    sweep = sweep_bf_tree(relation, column, probes, fpps=args.fpp,
                          unique=unique, warm=args.warm)
    rows = []
    for fpp in sweep.fpps:
        rows.append(
            [f"{fpp:g}", f"{sweep.capacity_gain(fpp):.1f}x"]
            + [
                f"{sweep.normalized_performance(fpp, c):.3f}"
                for c in sweep.configs
            ]
        )
    print(format_table(
        ["fpp", "gain"] + sweep.configs, rows,
        title=f"BF-Tree sweep on {args.workload}.{column} "
              "(normalized performance vs B+-Tree; >1 means BF wins)",
    ))
    table = break_even_table(sweep, threshold=args.parity)
    print(format_table(
        ["config", "break-even capacity gain"],
        [[k, f"{v:.1f}x" if v else "never"] for k, v in table.items()],
        title=f"break-even points (parity threshold {args.parity})",
    ))
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    params = FIGURE4_PARAMS.with_fpp(args.fpp[0])
    summary = summarize(params)
    print(format_table(
        ["symbol", "value"],
        [[k, f"{v:,.2f}"] for k, v in summary.items()],
        title=f"Section 5 analytical model at fpp={params.fpp:g}",
    ))
    point = compare_at(params)
    print(format_table(
        ["series", "normalized to B+-Tree"],
        [
            ["BF-Tree time", f"{point.bf_time:.3f}"],
            ["FD-Tree time", f"{point.fd_time:.3f}"],
            ["SILT time (trie cached)", f"{point.silt_time_cached:.3f}"],
            ["SILT time (trie loaded)", f"{point.silt_time_loaded:.3f}"],
            ["BF-Tree size", f"{point.bf_size:.4f}"],
            ["compressed B+-Tree size", f"{point.compressed_size:.2f}"],
            ["SILT size", f"{point.silt_size:.2f}"],
        ],
        title="Figure 4 comparison at this fpp",
    ))
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Build an index and write a durable checkpoint to --dir."""
    from repro.persist import DurableIndex, read_manifest

    relation, column = _build_relation(args)
    unique = column == "pk"
    inner = _build_index(args.index, relation, column, args.fpp[0], unique)
    durable = DurableIndex(
        inner, args.dir, sync_every=args.sync_every,
        checkpoint_every=args.checkpoint_every, kind=args.index,
        column=column, unique=unique, fpp=args.fpp[0],
    )
    manifest = read_manifest(durable.manifest_path)
    print(format_table(
        ["field", "value"],
        [
            ["backend", manifest["backend"]],
            ["column", manifest["column"]],
            ["snapshot bytes", f"{manifest['snapshot']['bytes']:,}"],
            ["snapshot crc32", f"{manifest['snapshot']['crc32']:#010x}"],
            ["WAL generation", manifest["wal"]["generation"]],
            ["directory", str(durable.directory)],
        ],
        title=f"checkpoint: {args.index} on {args.workload}.{column} "
              f"({relation.ntuples} tuples)",
    ))
    durable.close()
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover a durable index from --dir and report what came back."""
    from repro.persist import recover, replay_wal
    from repro.persist.errors import PersistError

    relation, _ = _build_relation(args)
    try:
        index = recover(args.dir, relation)
    except PersistError as exc:
        raise SystemExit(f"recovery failed: {exc}") from None
    records, _ = replay_wal(index.wal_path)
    print(format_table(
        ["field", "value"],
        [
            ["backend", index._kind],
            ["height", index.height],
            ["leaves", index.n_leaves],
            ["index pages", index.size_pages],
            ["WAL ops replayed", len(records)],
            ["WAL generation", index._generation],
        ],
        title=f"recovered: {args.dir}",
    ))
    index.close()
    return 0


def _serve_bench_rebalance(args, relation, column, trace, config,
                           unique) -> int:
    """Windowed elastic replay per shard count, rebalancer attached."""
    import numpy as np

    from repro.service import (
        LatencySummary,
        Rebalancer,
        RebalancerConfig,
        run_elastic_service,
    )
    from repro.workloads import OP_READ

    rows = []
    reports = []
    for n_shards in args.shards:
        try:
            service = ShardedIndex.build(
                relation, column, n_shards=n_shards, kind=args.index,
                fpp=args.fpp[0], unique=unique,
            )
            rebalancer = Rebalancer(service, RebalancerConfig(
                hot_factor=args.hot_factor,
                cold_factor=args.cold_factor,
                sustain=args.sustain,
                cooldown=args.cooldown,
            ))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        report = run_elastic_service(
            service, trace, config,
            rebalancer=rebalancer,
            window_ops=args.window_ops,
            warm=args.warm,
        )
        reports.append(report)
        reads = LatencySummary.from_latencies(
            report.op_latencies[np.asarray(report.op_codes) == OP_READ]
        )
        rows.append([
            f"{report.initial_shards}->{report.final_shards}",
            str(report.final_epoch),
            f"{rebalancer.log.n_splits}/{rebalancer.log.n_merges}",
            f"{us(reads.p50):.1f}",
            f"{us(reads.p95):.1f}",
            f"{us(reads.p99):.1f}",
            f"{report.windows.mean_load_balance():.2f}",
            f"{report.windows.worst_load_balance():.2f}",
        ])
    print(format_table(
        ["shards", "epoch", "splits/merges", "read p50 (us)", "p95 (us)",
         "p99 (us)", "mean load bal", "worst load bal"],
        rows,
        title=f"serve-bench --rebalance: {args.index} on "
              f"{args.workload}.{column}, mix={args.mix}, "
              f"skew={args.skew}, {args.ops} ops x "
              f"{args.window_ops}-op windows, config={config}",
    ))
    for report in reports:
        for decision in report.log:
            print(f"  window {decision.window:>3}  epoch "
                  f"{decision.epoch:>2}  {decision.action:<5} "
                  f"{list(decision.source)} -> {list(decision.result)} "
                  f"(share {decision.share:.2f})")
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Throughput and tail latency of the sharded service vs shard count."""
    relation, column = _build_relation(args)
    unique = column == "pk"
    if args.durable and args.index == "durable":
        raise SystemExit("--durable already wraps every shard; pick the "
                         "base backend with --index (e.g. --index bf)")
    if args.rebalance and args.durable:
        raise SystemExit("--rebalance drives live in-memory splits/merges; "
                         "durable topology changes go through "
                         "repro.persist.split_durable_shard instead")
    trace = generate_trace(
        relation, column, mix=args.mix, n_ops=args.ops, skew=args.skew,
        theta=args.theta, seed=derive_seed(args.seed, "trace"),
        hit_rate=args.hit_rate, phases=args.phases,
        hotspot_width=args.hotspot_width,
    )
    config = args.config or "MEM/SSD"
    if args.rebalance:
        return _serve_bench_rebalance(args, relation, column, trace,
                                      config, unique)
    rows = []
    reports = []
    for n_shards in args.shards:
        # Registry-driven build: any registered backend serves; the
        # builder consumes fpp where it applies (BF) and ignores it
        # elsewhere.  Unshardable backends come back as one shard.
        try:
            if args.durable:
                import tempfile
                from pathlib import Path

                from repro.persist import make_durable_service

                wal_root = Path(
                    args.wal_dir
                    or tempfile.mkdtemp(prefix="repro-serve-wal-")
                )
                service = make_durable_service(
                    relation, column, wal_root / f"shards-{n_shards}",
                    n_shards=n_shards, kind=args.index,
                    sync_every=args.sync_every, fpp=args.fpp[0],
                    unique=unique,
                )
            else:
                service = ShardedIndex.build(
                    relation, column, n_shards=n_shards, kind=args.index,
                    fpp=args.fpp[0], unique=unique,
                )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        report = run_service(service, trace, config, warm=args.warm)
        reports.append(report)
        reads = report.latency("read")
        rows.append([
            str(report.n_shards),
            f"{us(reads.p50):.1f}",
            f"{us(reads.p95):.1f}",
            f"{us(reads.p99):.1f}",
            f"{report.stats.throughput():,.0f}",
            f"{report.stats.wall_throughput():,.0f}",
            f"{report.stats.load_balance:.2f}",
        ])
    print(format_table(
        ["shards", "read p50 (us)", "p95 (us)", "p99 (us)",
         "ops/sim-sec", "ops/wall-sec", "load bal"],
        rows,
        title=f"serve-bench: {args.index} on {args.workload}.{column}, "
              f"mix={args.mix}, skew={args.skew}, {args.ops} ops, "
              f"config={config}",
    ))
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in WORKLOADS.items():
        relation = factory(args.tuples, None)
        column = DEFAULT_COLUMNS[name]
        values = relation.columns[column]
        import numpy as np

        distinct = len(np.unique(np.asarray(values)))
        rows.append([
            name, relation.ntuples, relation.npages, column, distinct,
            f"{relation.ntuples / distinct:.1f}",
        ])
    print(format_table(
        ["workload", "tuples", "pages", "key column", "distinct keys",
         "avg cardinality"],
        rows,
        title="Workload generators",
    ))
    return 0


def _changed_py_files(root: "Path", base: str | None) -> list[str] | None:
    """Lintable files changed since the merge-base with ``base``.

    Returns None when git (or the base ref) is unavailable, in which
    case the caller falls back to a full run.
    """
    import subprocess

    from repro.analysis.lint.engine import TARGET_DIRS

    def run(*cmd: str) -> "subprocess.CompletedProcess[str]":
        return subprocess.run(["git", "-C", str(root), *cmd],
                              capture_output=True, text=True, timeout=60)

    try:
        merge_base = None
        for ref in ([base] if base else ["origin/main", "main"]):
            result = run("merge-base", "HEAD", ref)
            if result.returncode == 0:
                merge_base = result.stdout.strip()
                break
        if merge_base is None:
            return None
        diff = run("diff", "--name-only", merge_base)
        if diff.returncode != 0:
            return None
        files = {ln.strip() for ln in diff.stdout.splitlines() if ln.strip()}
        untracked = run("ls-files", "--others", "--exclude-standard")
        if untracked.returncode == 0:
            files.update(ln.strip() for ln in untracked.stdout.splitlines()
                         if ln.strip())
    except (OSError, subprocess.SubprocessError):
        return None
    return sorted(
        f for f in files
        if f.endswith(".py") and f.split("/", 1)[0] in TARGET_DIRS
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint; exit 0 clean, 1 on findings, 2 on engine error."""
    import traceback
    from pathlib import Path

    from repro.analysis import lint as reprolint

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parents[2])
    baseline = Path(args.baseline) if args.baseline else Path(
        "reprolint-baseline.json")
    if not baseline.is_absolute():
        baseline = root / baseline
    # A snapshot must see the *unfiltered* findings.
    baseline_path = None if args.write_baseline else baseline
    try:
        if args.changed:
            changed = _changed_py_files(root, args.base)
            if changed is None:
                print("reprolint: --changed needs git and the base ref; "
                      "running the full tree instead", file=sys.stderr)
                violations = reprolint.lint_repo(
                    root, baseline_path=baseline_path)
            else:
                paths = [Path(f) for f in changed if (root / f).is_file()]
                violations = reprolint.lint_files(
                    paths, root, baseline_path=baseline_path)
        else:
            violations = reprolint.lint_repo(
                root, baseline_path=baseline_path)
        if args.write_baseline:
            reprolint.write_baseline(violations, baseline)
            print(f"reprolint: baseline written to {baseline} "
                  f"({len(violations)} findings)")
            return 0
        renderer = {
            "text": reprolint.render_text,
            "json": reprolint.render_json,
            "sarif": reprolint.render_sarif,
        }[args.format]
        rendered = renderer(violations)
        if args.out:
            Path(args.out).write_text(rendered, "utf-8")
        else:
            sys.stdout.write(rendered)
        return 1 if violations else 0
    except Exception:
        traceback.print_exc()
        return 2


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="synthetic",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--column", default=None,
                        help="indexed column (defaults per workload)")
    parser.add_argument("--tuples", type=int, default=65536,
                        help="relation size in tuples")
    parser.add_argument("--fpp", type=float, nargs="+",
                        default=[0.2, 0.02, 2e-3, 2e-4, 2e-6],
                        help="false-positive probabilities")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for every random stream "
                             "(relation data, probe keys, traces); "
                             "omit to keep each stream's historical "
                             "default")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BF-Tree (VLDB 2014) reproduction toolkit",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the structural sanitizer after every mutation batch "
             "(equivalent to REPRO_SANITIZE=1; validates leaf chains, "
             "filter accounting, tombstones and shard routing); place "
             "before the subcommand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sizes = sub.add_parser("sizes", help="Table-2-style index sizes")
    _add_common(p_sizes)
    p_sizes.set_defaults(func=cmd_sizes)

    p_probe = sub.add_parser("probe", help="measure point probes")
    _add_common(p_probe)
    p_probe.add_argument("--index", default="bf",
                         choices=registered_backends(),
                         help="index backend (from the repro.api registry)")
    p_probe.add_argument("--config", default=None,
                         choices=sorted(CONFIGS_BY_NAME))
    p_probe.add_argument("--probes", type=int, default=200)
    p_probe.add_argument("--hit-rate", type=float, default=1.0)
    p_probe.add_argument("--warm", action="store_true")
    p_probe.add_argument("--out", default=None,
                         help="write the per-config probe stats as JSON "
                              "to this file")
    p_probe.set_defaults(func=cmd_probe)

    p_sweep = sub.add_parser("sweep", help="fpp sweep + break-even analysis")
    _add_common(p_sweep)
    p_sweep.add_argument("--probes", type=int, default=150)
    p_sweep.add_argument("--hit-rate", type=float, default=1.0)
    p_sweep.add_argument("--warm", action="store_true")
    p_sweep.add_argument("--parity", type=float, default=0.98)
    p_sweep.set_defaults(func=cmd_sweep)

    p_model = sub.add_parser("model", help="Section 5 analytical model")
    p_model.add_argument("--fpp", type=float, nargs="+", default=[1e-3])
    p_model.set_defaults(func=cmd_model)

    p_serve = sub.add_parser(
        "serve-bench",
        help="sharded service: throughput + tail latency vs shard count",
    )
    _add_common(p_serve)
    p_serve.add_argument("--index", default="bf",
                         choices=registered_backends(),
                         help="index backend (every registered backend "
                              "serves; leaf-sliceable trees are range-"
                              "partitioned, the rest run single-shard)")
    p_serve.add_argument("--shards", type=int, nargs="+",
                         default=[1, 2, 4, 8],
                         help="shard counts to measure")
    p_serve.add_argument("--mix", default="read_heavy",
                         choices=sorted(MIXES),
                         help="YCSB-style operation mix")
    p_serve.add_argument("--skew", default="zipfian",
                         choices=["zipfian", "uniform", "hotspot"],
                         help="key popularity distribution (hotspot = a "
                              "contiguous Zipfian hot region drifting "
                              "across the key space in --phases steps)")
    p_serve.add_argument("--theta", type=float, default=0.99,
                         help="Zipfian skew parameter (0, 1)")
    p_serve.add_argument("--phases", type=int, default=4,
                         help="hotspot phases per trace (skew=hotspot)")
    p_serve.add_argument("--hotspot-width", type=float, default=0.25,
                         help="hot region width as a fraction of the key "
                              "domain (skew=hotspot)")
    p_serve.add_argument("--ops", type=int, default=2000,
                         help="operations per trace")
    p_serve.add_argument("--hit-rate", type=float, default=1.0)
    p_serve.add_argument("--config", default=None,
                         choices=sorted(CONFIGS_BY_NAME),
                         help="storage config (default MEM/SSD)")
    p_serve.add_argument("--warm", action="store_true")
    p_serve.add_argument("--rebalance", action="store_true",
                         help="attach the hot-shard Rebalancer: replay in "
                              "--window-ops windows, splitting sustained "
                              "hot shards and merging cold neighbours "
                              "live; reports the decision log")
    p_serve.add_argument("--window-ops", type=int, default=256,
                         help="ops per load window when --rebalance")
    p_serve.add_argument("--hot-factor", type=float, default=1.7,
                         help="split when a shard's clock share exceeds "
                              "hot-factor / n for --sustain windows")
    p_serve.add_argument("--cold-factor", type=float, default=0.6,
                         help="merge an adjacent pair whose combined "
                              "share stays under cold-factor * 2 / n")
    p_serve.add_argument("--sustain", type=int, default=1,
                         help="consecutive windows before acting")
    p_serve.add_argument("--cooldown", type=int, default=1,
                         help="quiet windows after any topology action")
    p_serve.add_argument("--durable", action="store_true",
                         help="wrap every shard in a DurableIndex: "
                              "mutations are WAL-logged (fsync-batched) "
                              "before applying, and each shard owns a "
                              "recoverable checkpoint directory")
    p_serve.add_argument("--wal-dir", default=None,
                         help="root directory for the per-shard WAL + "
                              "snapshot directories (default: a fresh "
                              "temp directory); recover later with "
                              "repro.persist.recover_service")
    p_serve.add_argument("--sync-every", type=int, default=32,
                         help="WAL records per fsync when --durable "
                              "(1 acknowledges every op individually)")
    p_serve.add_argument("--json", action="store_true",
                         help="also print the full reports as JSON")
    p_serve.add_argument("--out", default=None,
                         help="write the full JSON reports to this file")
    # The sweep grid's 0.2 head would drown the service in false reads;
    # serve at the paper's accurate end instead.
    p_serve.set_defaults(func=cmd_serve_bench, fpp=[1e-3])

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="build an index and write a durable checkpoint directory",
    )
    _add_common(p_ckpt)
    p_ckpt.add_argument("--index", default="bf",
                        choices=[n for n in registered_backends()
                                 if n != "durable"],
                        help="backend to wrap (durable itself is the "
                             "wrapper this command builds)")
    p_ckpt.add_argument("--dir", required=True,
                        help="durability directory (manifest + snapshot "
                             "+ WAL)")
    p_ckpt.add_argument("--sync-every", type=int, default=1,
                        help="WAL records per fsync")
    p_ckpt.add_argument("--checkpoint-every", type=int, default=None,
                        help="auto-checkpoint after this many mutations")
    p_ckpt.set_defaults(func=cmd_checkpoint)

    p_rec = sub.add_parser(
        "recover",
        help="recover a durable index (snapshot + WAL-tail replay)",
    )
    _add_common(p_rec)
    p_rec.add_argument("--dir", required=True,
                       help="durability directory written by checkpoint")
    p_rec.set_defaults(func=cmd_recover)

    p_wl = sub.add_parser("workloads", help="workload generator statistics")
    p_wl.add_argument("--tuples", type=int, default=32768)
    p_wl.set_defaults(func=cmd_workloads)

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint's project-invariant static analysis",
    )
    p_lint.add_argument("--root", default=None,
                        help="repository root to lint (defaults to the "
                             "checkout this package was imported from)")
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="finding renderer (text, json, or SARIF 2.1.0)")
    p_lint.add_argument("--out", default=None,
                        help="write rendered findings to this file instead "
                             "of stdout")
    p_lint.add_argument("--changed", action="store_true",
                        help="lint only files changed since the merge-base "
                             "with --base (full run if git is unavailable)")
    p_lint.add_argument("--base", default=None,
                        help="base ref for --changed (default: origin/main, "
                             "then main)")
    p_lint.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "<root>/reprolint-baseline.json; matched on "
                             "rule+path+message, line-insensitive)")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="snapshot the current findings as the new "
                             "baseline and exit 0")
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.sanitize:
        from repro.analysis.sanitize import force

        force(True)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
