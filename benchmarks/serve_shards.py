#!/usr/bin/env python
"""One service against the two-shard router, with the same two pool workers.

Alternates ``repro serve --workers 2`` (one service) and ``repro serve
--shards 2 --workers 1`` (the router in front of two one-worker
services) on the end-to-end benchmark's corpus task list, driven by
its closed loop (``e2ebench/serve_workload.py``: two keep-alive
connections, no host-speed tick).  Each pair starts both deployments
afresh, one after the other, and the side that runs first alternates
from pair to pair.  Two workloads:

* ``cold`` -- a new spec seed per pass, so every request misses the
  cache and reaches a pool worker, as in ``serve-cold``;
* ``hot`` -- one warm pass, then the same requests again with an
  in-memory tier of half the task list in total (a quarter per
  shard), as in ``serve-hot``: answers come from both cache tiers.

Both sides own two pool workers, so the pairs compare only the
router's hop and its spreading of the request loop over two shard
processes.  Prints one JSON line per pair, then per workload each
side's median ops/s, p50 and p99 with their quartiles and how many
pairs each side won on each.

The single service won every pair, so the router is gone (see
``docs/SERVING.md``).  Run the script from a checkout of ``b49dc0e``,
the last commit with ``--shards``; it measures the checkout it sits in::

    git archive b49dc0e | tar -x -C DIR
    cp benchmarks/serve_shards.py DIR/benchmarks/
    python DIR/benchmarks/serve_shards.py [--pairs N] [--seconds S] [--workloads cold,hot]
"""

import argparse
import json
import socket
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "e2ebench"))

from serve_workload import Responses, Server, drive  # noqa: E402
from tasklist import (  # noqa: E402
    Tally,
    bootstrap,
    build_task_list,
    pass_seed,
    quantile,
    reference_hashes,
)

SHARDS = 2
METRICS = (("ops_per_s", "higher"), ("p50_ms", "lower"), ("p99_ms", "lower"))


def free_base_port(count):
    """A port P with P..P+count-1 all free: the router and its shards."""
    while True:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
        if base + count > 65536:
            continue
        held = []
        try:
            for port in range(base, base + count):
                sock = socket.socket()
                held.append(sock)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()


class Router(Server):
    """``repro serve --shards``: the shards print their listen lines
    before the router does, so the health wait moves to the router's
    own port, the one this class chose."""

    def __init__(self, workdir, extra_args):
        self.router_port = free_base_port(SHARDS + 1)
        super().__init__(workdir, [
            "--port", str(self.router_port), "--shards", str(SHARDS),
            "--workers", "1", *extra_args,
        ])

    def _wait_healthy(self, timeout):
        self.port = self.router_port
        super()._wait_healthy(timeout)


def start(workdir, side, hot, tasks):
    """One side's deployment.  ``Server`` passes ``--port 0 --workers
    2`` first, so the router's flags override them."""
    if side == "single":
        memory = ["--mem-entries", str(len(tasks) // 2)] if hot else []
        return Server(workdir, memory)
    memory = ["--mem-entries", str(len(tasks) // 2 // SHARDS)] if hot else []
    return Router(workdir, memory)


def measure(workdir, tasks, reference, side, hot, seed, seconds):
    """One closed-loop run of one side; its end-to-end numbers."""
    server = start(workdir, side, hot, tasks)
    try:
        if hot:
            drive(server.port, tasks, 0.0, seed, lambda number: 0,
                  Responses(Tally(len(tasks)), reference))
        tally = Tally(len(tasks))
        tally.start()
        drive(server.port, tasks, seconds, seed if hot else 0,
              (lambda number: 0) if hot
              else (lambda number: pass_seed(seed, number)),
              Responses(tally, reference))
        if isinstance(server, Router):
            # every measured request went through the router's loop
            routed = server.counters()["repro_router_requests_total"]
            assert routed >= tally.attempted, (routed, tally.attempted)
    finally:
        server.stop()
    e2e = tally.end_to_end(0.0, 0.0)
    return {
        "ops_per_s": round(e2e["ops_per_s"][0], 1),
        "p50_ms": round(e2e["latency_p50_ms"][0], 3),
        "p99_ms": round(e2e["latency_p99_ms"][0], 3),
        "failed_frac": round(tally.failed / tally.attempted, 4),
        "unexpected": len(tally.unexpected),
    }


def summary(rows):
    """Per metric: each side's median [q1, q3] and pairs won."""
    out = {}
    for metric, better in METRICS:
        entry = {}
        for side in ("single", "sharded"):
            values = sorted(row[side][metric] for row in rows)
            entry[side] = [round(quantile(values, q), 3)
                           for q in (0.5, 0.25, 0.75)]
        sign = 1 if better == "higher" else -1
        diffs = [sign * (row["single"][metric] - row["sharded"][metric])
                 for row in rows]
        entry["single_won"] = sum(d > 0 for d in diffs)
        entry["sharded_won"] = sum(d < 0 for d in diffs)
        out[metric] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--workloads", default="cold,hot")
    args = parser.parse_args()
    bootstrap()
    tasks = build_task_list()
    reference = reference_hashes(tasks)
    with tempfile.TemporaryDirectory(prefix="serve-shards-") as workdir:
        for workload in args.workloads.split(","):
            hot = {"cold": False, "hot": True}[workload]
            rows = []
            for pair in range(args.pairs):
                seed = 100 + pair
                order = ["single", "sharded"]
                if pair % 2:
                    order.reverse()
                row = {"workload": workload, "pair": pair + 1,
                       "first": order[0]}
                for side in order:
                    row[side] = measure(Path(workdir), tasks, reference,
                                        side, hot, seed, args.seconds)
                rows.append(row)
                print(json.dumps(row), flush=True)
            print(json.dumps({"workload": workload,
                              "summary": summary(rows)}), flush=True)


if __name__ == "__main__":
    main()
