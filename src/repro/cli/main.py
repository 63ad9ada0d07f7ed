"""The ``lightweb`` command-line entry point."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def _hostport(value: str):
    """``--directory`` type: ``HOST:PORT`` or a usage error (exit 2)."""
    from repro.cli.serve import parse_hostport
    from repro.errors import ReproError

    try:
        return parse_hostport(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_directory_args(parser: argparse.ArgumentParser, help_text: str,
                        required: bool = True) -> None:
    """The one ``--directory``/``--directory-secret`` pair every
    directory-speaking command shares."""
    parser.add_argument("--directory", type=_hostport, required=required,
                        metavar="HOST:PORT", help=help_text)
    parser.add_argument("--directory-secret", default=None,
                        help="deployment secret for the announce records "
                             "(must match on servers and clients)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="lightweb",
        description="Run and use lightweb deployments (HotNets '23 reproduction).",
    )
    parser.add_argument("--version", action="version",
                        version=f"lightweb-repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="host universes over TCP ZLTP")
    serve.add_argument("spec", nargs="+",
                       help="site spec JSON files to publish")
    serve.add_argument("--universe", default="main")
    serve.add_argument("--data-blob-size", type=int, default=4096)
    serve.add_argument("--fetch-budget", type=int, default=5)
    serve.add_argument("--port-base", type=int, default=0,
                       help="first of the consecutive listener ports "
                            "(0 = ephemeral)")
    serve.add_argument("--state", default="",
                       help="universe archive to load/save (restart "
                            "without re-pushing)")
    serve.add_argument("--modes", default=None,
                       help="comma-separated ZLTP modes to serve, e.g. "
                            "'pir2,lwe,enclave' (default: every "
                            "registered backend)")
    serve.add_argument("--stats-port", type=int, default=None,
                       help="also expose a stats/metrics HTTP endpoint on "
                            "this port (0 = ephemeral)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="extra listeners per endpoint over the same "
                            "logical servers — failover targets for "
                            "resilient clients")
    _add_directory_args(
        serve, required=False,
        help_text="announce this deployment's endpoints to a directory "
                  "server (`lightweb directory`); re-announces "
                  "periodically with fresh load")
    serve.add_argument("--announce-interval", type=float, default=5.0,
                       help="seconds between re-announces; records expire "
                            "after three missed intervals")
    serve.add_argument("--admission-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="attach a load-shedding admission gate to the "
                            "data servers: GETs whose estimated queueing "
                            "delay would blow this deadline are refused "
                            "with a fast overload error (default: no gate)")
    serve.add_argument("--admission-queue-depth", type=int, default=64,
                       help="the admission gate's hard in-flight cap "
                            "(with --admission-deadline)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit structured JSON logs, one object per line")
    serve.set_defaults(func=_cmd_serve)

    browse = sub.add_parser("browse", help="browse a running deployment")
    browse.add_argument("path", nargs="*", help="lightweb paths to visit")
    _add_directory_args(
        browse,
        help_text="the directory server to resolve endpoints from; "
                  "ports, parties, replicas, and the fetch budget all "
                  "come from the announce records")
    browse.add_argument("--universe", default="main",
                        help="universe to browse")
    browse.add_argument("--modes", default=None,
                        help="comma-separated modes to offer, e.g. 'lwe' "
                             "(default: every registered backend)")
    browse.add_argument("--retries", type=int, default=4,
                        help="reconnect attempts per failed operation "
                             "(0 disables backoff retries)")
    browse.add_argument("--op-deadline", type=float, default=None,
                        help="per-operation deadline in seconds covering "
                             "the whole retry loop (default: none)")
    browse.add_argument("-i", "--interactive", action="store_true")
    browse.set_defaults(func=_cmd_browse)

    stats = sub.add_parser(
        "stats",
        help="fetch a running deployment's stats/metrics snapshot",
        description="Query the stats endpoint a deployment exposes with "
                    "`lightweb serve --stats-port` (text exposition by "
                    "default, raw JSON with --json).",
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True,
                       help="the deployment's stats port")
    stats.add_argument("--json", action="store_true",
                       help="print the JSON snapshot instead of text")
    stats.set_defaults(func=_cmd_stats)

    top = sub.add_parser(
        "top",
        help="merged observability view of an announced fleet",
        description="Resolve every server announced to a directory, "
                    "scrape each stats sidecar concurrently, and render "
                    "a per-server table plus fleet-merged totals. Dead "
                    "sidecars show as DOWN rows; the scrape never fails "
                    "because part of the fleet did.",
    )
    _add_directory_args(
        top, help_text="the directory server the fleet announces to")
    top.add_argument("--timeout", type=float, default=2.0,
                     help="per-server scrape timeout in seconds")
    top.add_argument("--metrics", action="store_true",
                     help="also print the merged Prometheus-style "
                          "exposition after the table")
    top.add_argument("--json", action="store_true",
                     help="print the raw fleet snapshot as JSON")
    top.set_defaults(func=_cmd_top)

    trace = sub.add_parser(
        "trace",
        help="read a deployment's flight recorder",
        description="Fetch /debug/traces.json from the stats sidecar "
                    "and render the retained request trace trees: the "
                    "recent ring plus the always-kept slow and errored "
                    "exemplars.",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, required=True,
                       help="the deployment's stats port")
    trace.add_argument("--timeout", type=float, default=10.0,
                       help="fetch timeout in seconds")
    trace.add_argument("--json", action="store_true",
                       help="print the raw export instead of trees")
    trace.set_defaults(func=_cmd_trace)

    directory = sub.add_parser(
        "directory",
        help="run a server-discovery directory",
        description="Serve the discovery directory deployments announce "
                    "to (`serve --directory`) and clients resolve "
                    "endpoints from (`browse --directory`). Records are "
                    "MAC-signed with the deployment secret and expire by "
                    "TTL when a server stops re-announcing.",
    )
    directory.add_argument("--host", default="127.0.0.1")
    directory.add_argument("--port", type=int, default=0,
                           help="listen port (0 = ephemeral)")
    directory.add_argument("--secret", default=None,
                           help="deployment secret announce records must "
                                "be signed with")
    directory.add_argument("--log-json", action="store_true",
                           help="emit structured JSON logs")
    directory.set_defaults(func=_cmd_directory)

    loadgen = sub.add_parser(
        "loadgen",
        help="closed-loop load harness against a running deployment",
        description="Replay zipf-skewed browsing sessions against a live "
                    "deployment's data sessions at one or more offered "
                    "rates, under per-request deadlines, and report "
                    "offered load, goodput, shed count, and latency "
                    "quantiles per level (the E16 saturation curve).",
    )
    _add_directory_args(
        loadgen,
        help_text="the directory server to resolve endpoints from; "
                  "ports, parties, and the fetch budget all come from "
                  "the announce records")
    loadgen.add_argument("--universe", default="main")
    loadgen.add_argument("--offered", type=float, nargs="+",
                         default=[5.0, 10.0, 20.0], metavar="RPS",
                         help="offered page-view rates to sweep, in "
                              "requests/second (one report per level)")
    loadgen.add_argument("--users", type=int, default=4,
                         help="concurrent closed-loop users")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="seconds of arrivals per offered level")
    loadgen.add_argument("--deadline", type=float, default=1.0,
                         help="per-request deadline in seconds; requests "
                              "finishing over it do not count as goodput")
    loadgen.add_argument("--fetch-budget", type=int, default=None,
                         help="slots per page view (default: the "
                              "deployment's announced fetch budget)")
    loadgen.add_argument("--modes", default=None,
                         help="comma-separated modes to offer, e.g. "
                              "'pir2' (default: every registered backend)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="workload determinism root")
    loadgen.add_argument("--out", default=None, metavar="PATH",
                         help="also write the sweep as JSON "
                              "(BENCH_load.json shape)")
    loadgen.set_defaults(func=_cmd_loadgen)

    costs = sub.add_parser("costs", help="print the paper's cost analytics")
    costs.add_argument("--measure", action="store_true",
                       help="also benchmark a shard on this machine")
    costs.set_defaults(func=_cmd_costs)

    demo = sub.add_parser("demo", help="self-contained in-process demo")
    demo.set_defaults(func=_cmd_demo)

    lint = sub.add_parser(
        "lint",
        help="run the zero-leakage static analyzer",
        description="Check source trees against the privacy discipline: "
                    "secret-taint rules (no secret-dependent branches, "
                    "comparisons, or message sizes), guarded-by lock "
                    "discipline, owned-by single-thread ownership, and "
                    "mode-server wire shape.",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to analyze (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON report")
    lint.add_argument("--baseline", default=None,
                      help="JSON baseline of accepted findings")
    lint.add_argument("--cache", default="",
                      help="path to an on-disk summary cache for the "
                           "whole-program engine (created if missing)")
    lint.set_defaults(func=_cmd_lint)
    return parser


def _cmd_serve(args) -> int:
    from repro.cli.serve import cmd_serve

    return cmd_serve(args)


def _cmd_browse(args) -> int:
    from repro.cli.browse import cmd_browse

    return cmd_browse(args)


def _cmd_directory(args) -> int:
    from repro.cli.directory import cmd_directory

    return cmd_directory(args)


def _cmd_stats(args) -> int:
    from repro.cli.stats import cmd_stats

    return cmd_stats(args)


def _cmd_top(args) -> int:
    from repro.cli.top import cmd_top

    return cmd_top(args)


def _cmd_trace(args) -> int:
    from repro.cli.trace import cmd_trace

    return cmd_trace(args)


def _cmd_loadgen(args) -> int:
    from repro.cli.loadgen import cmd_loadgen

    return cmd_loadgen(args)


def _cmd_costs(args) -> int:
    from repro.cli.console import emit
    from repro.costmodel.billing import (
        UserProfile,
        fi_bytes_cost,
        fi_page_cost,
        monthly_user_cost,
        zltp_vs_fi_ratio,
    )
    from repro.costmodel.datasets import C4, KIB, WIKIPEDIA
    from repro.costmodel.estimator import (
        PAPER_SHARD,
        estimate_deployment,
        measure_shard,
    )

    shards = [("paper", PAPER_SHARD)]
    if args.measure:
        shards.append(("measured", measure_shard(domain_bits=12,
                                                 blob_bytes=4096,
                                                 n_requests=2)))
    for label, shard in shards:
        emit(f"Table 2 ({label} shard constants):")
        for dataset in (C4, WIKIPEDIA):
            row = estimate_deployment(dataset, shard=shard).row()
            emit(f"  {row['dataset']:<10} {row['vcpu_sec']:>8.1f} vCPU-s  "
                 f"${row['request_cost_usd']:.5f}/req  "
                 f"{row['communication_kib']:.1f} KiB")
    c4 = estimate_deployment(C4)
    emit(f"monthly user cost (50 pages/day x 5 GETs): "
         f"${monthly_user_cost(c4.request_cost_usd, UserProfile()):.2f}")
    emit(f"Fi anchors: NYT homepage ${fi_page_cost():.3f}; "
         f"4 KiB ${fi_bytes_cost(4 * KIB):.6f}; "
         f"ZLTP/Fi = {zltp_vs_fi_ratio(c4.request_cost_usd):.0f}x")
    return 0


def _cmd_lint(args) -> int:
    from repro.cli.lint import cmd_lint

    return cmd_lint(args)


def _cmd_demo(args) -> int:
    import numpy as np

    from repro.cli.console import emit
    from repro.core.lightweb.browser import LightwebBrowser
    from repro.core.lightweb.cdn import Cdn
    from repro.core.lightweb.publisher import Publisher
    from repro.core.zltp.modes import MODE_PIR2

    cdn = Cdn("demo-cdn", modes=[MODE_PIR2])
    cdn.create_universe("demo", data_domain_bits=11, code_domain_bits=7,
                        fetch_budget=3)
    publisher = Publisher("demo")
    site = publisher.site("demo.example")
    site.add_page("/", "It works. [[demo.example/why|why this is private]]")
    site.add_page("/why", {"title": "Why", "body": (
        "Every fetch was a DPF-keyed private GET; the server saw only "
        "pseudorandom keys and did the same scan either way.")})
    publisher.push(cdn, "demo")
    browser = LightwebBrowser(rng=np.random.default_rng())
    browser.connect(cdn, "demo")
    page = browser.visit("demo.example")
    emit(page.text)
    page = browser.follow(page, 0)
    emit(page.text)
    counts = browser.gets_for_last_visit()
    emit(f"\n(the last visit cost {counts['data-get']} data GETs — "
         f"the fixed budget)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
