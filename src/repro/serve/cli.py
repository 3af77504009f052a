"""CLI entry points: ``repro serve`` and ``repro loadtest``."""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.cli import positive_int
from repro.errors import ReproError
from repro.exp.cache import ResultCache
from repro.exp.result import canonical_json
from repro.serve import loadtest as loadtest_mod
from repro.serve.http import ServeHttp
from repro.serve.pool import WorkerPool
from repro.serve.service import ExperimentService


def port_number(text: str) -> int:
    """argparse type for ``--port``: an int in 0–65535 (0 picks a free
    port)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in 0-65535, got {value}")
    return value


def positive_seconds(text: str) -> float:
    """argparse type for ``--deadline``: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}")
    return value


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived experiment service (see "
                    "docs/serving.md)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=port_number, default=8749)
    parser.add_argument("--jobs", type=positive_int, default=2,
                        metavar="N", help="worker processes (default 2)")
    parser.add_argument("--capacity", type=positive_int, default=8,
                        help="admission queue capacity (default 8)")
    parser.add_argument("--deadline", type=positive_seconds,
                        default=30.0, metavar="S",
                        help="per-request deadline, seconds")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache root (default "
                             "results/cache/)")
    return parser


async def _serve_forever(args: argparse.Namespace) -> None:
    """Serve until SIGINT or SIGTERM, then stop the server and the
    pool."""
    pool = WorkerPool(jobs=args.jobs)
    service = ExperimentService(
        ResultCache(root=args.cache_dir), pool,
        capacity=args.capacity, deadline_s=args.deadline)
    server = ServeHttp(service, host=args.host, port=args.port)
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stopping.set)
    pool.start()
    try:
        host, port = await server.start()
        print(f"repro serve on http://{host}:{port} "
              f"(jobs={args.jobs}, capacity={args.capacity})",
              file=sys.stderr)
        await stopping.wait()
    finally:
        await server.stop()
        pool.stop()


def main_serve(argv: Optional[List[str]] = None) -> int:
    args = _serve_parser().parse_args(argv)
    try:
        asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:
        pass
    return 0


def _loadtest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro loadtest",
        description="Deterministic serve-tier load test, checked "
                    "exactly against a baseline (see docs/serving.md)")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--requests", type=positive_int, default=60)
    parser.add_argument("--jobs", type=positive_int, default=2)
    parser.add_argument("--concurrency", type=positive_int, default=8,
                        help="clients per wave (default 8)")
    parser.add_argument("--capacity", type=positive_int, default=None,
                        help="admission capacity (default: "
                             "concurrency)")
    parser.add_argument("--deadline", type=positive_seconds,
                        default=30.0, metavar="S",
                        help="per-request deadline, seconds")
    parser.add_argument("--no-coalesce", action="store_true",
                        help="disable coalescing (differential mode)")
    parser.add_argument("--storm", action="store_true",
                        help="arm the worker-kill fault storm")
    parser.add_argument("--dump-bodies", type=Path, default=None,
                        metavar="DIR",
                        help="write one body per fingerprint to DIR")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the campaign document here")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="compare against this document")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a deterministic counter "
                             "differs from the baseline's")
    parser.add_argument("--json", action="store_true",
                        help="print the document instead of the "
                             "summary")
    return parser


def main_loadtest(argv: Optional[List[str]] = None) -> int:
    args = _loadtest_parser().parse_args(argv)
    try:
        doc = loadtest_mod.run_loadtest(
            seed=args.seed, requests=args.requests, jobs=args.jobs,
            concurrency=args.concurrency, capacity=args.capacity,
            deadline_s=args.deadline, coalesce=not args.no_coalesce,
            storm=args.storm, dump_dir=args.dump_bodies)
    except ReproError as error:
        print(f"loadtest failed: {error}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(canonical_json(doc))
    if args.json:
        print(canonical_json(doc), end="")
    else:
        print(loadtest_mod.render(doc))
    if args.baseline is not None:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, ValueError) as error:
            print(f"cannot read baseline: {error}", file=sys.stderr)
            return 2
        regressions = loadtest_mod.compare(doc, baseline)
        for entry in regressions:
            print(f"REGRESSION {entry['field']}: {entry['current']} vs "
                  f"baseline {entry['baseline']}", file=sys.stderr)
        if regressions and args.check:
            return 1
    return 0
