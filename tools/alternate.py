"""Op-by-op alternation of one `matchctl` command between two source trees.

Two worker processes, one per tree, each import ``matchctl.cli`` from their
tree once and then run ``cli.main(argv)`` on request, timing it in-process
with ``perf_counter`` (stdout and stderr discarded).  Before each pair the
driver measures the host's two-copy CPU ratio: the wall time of a fixed CPU
loop run by two forked processes at once over the time of one copy (1.0 when
a second CPU is free, about 2 when it is busy).  The side that runs first
alternates by pair.  The CSVs both sides write are compared byte for byte.

    python tools/alternate.py --parent PARENT/src --change src \\
        --config configs/cartpole.cfg --pairs 20 --out alternation.json

With ``--rss`` each side instead runs the command once per pair in a fresh
worker process, which reports its own peak resident set (``ru_maxrss``, in
MB): the memory of one run from a cold start, imports included.  A worker
imports only what it runs on (the driver's modules are imported where they
are used); even so it read about 1.6 MB above a bare ``python -c`` run of
``cli.main`` on a 400k-row cart-pole ``simulate`` (45.3 against 43.6 MB,
Linux, Python 3.11.7), so compare a worker's figures with each other only.

The JSON holds every pair (ratio, both times or peaks, which ran first) and,
for all pairs and for the pairs with a ratio of at least 1.5, each side's
median and quartiles and the number of pairs the change won (the lower
value).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def spin(iters: int) -> float:
    acc = 0.0
    for i in range(iters):
        acc += (i % 7) * 0.5
    return acc


def copies_wall(copies: int, iters: int) -> float:
    """Wall time of ``copies`` forked processes each running ``spin(iters)``."""
    t0 = time.perf_counter()
    pids = []
    for _ in range(copies):
        pid = os.fork()
        if pid == 0:
            spin(iters)
            os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - t0


def cpu_ratio(iters: int = 1_000_000) -> float:
    one = copies_wall(1, iters)
    two = copies_wall(2, iters)
    return two / one


def worker(src: str) -> None:
    sys.path.insert(0, src)
    from contextlib import redirect_stderr, redirect_stdout
    import io

    from matchctl import cli

    for line in sys.stdin:
        argv = json.loads(line)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - t0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024    # KB on Linux
        print(json.dumps([code, elapsed, peak_mb]), flush=True)


class Side:
    def __init__(self, name: str, src: str, out: Path):
        import subprocess

        self.name, self.out = name, out
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker", src],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> tuple[float, float]:
        """(seconds, the worker's peak resident set in MB so far) of one run."""
        self.proc.stdin.write(json.dumps(argv + ["--out", str(self.out)]) + "\n")
        self.proc.stdin.flush()
        code, elapsed, peak_mb = json.loads(self.proc.stdout.readline())
        if code != 0:
            raise SystemExit(f"{self.name}: exit {code}")
        return elapsed, peak_mb

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def summary(values: list[float]) -> dict:
    import statistics

    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": med, "q3": q3}


def compare(pairs: list[dict], unit: str = "s") -> dict:
    parent = [p[f"parent_{unit}"] for p in pairs]
    change = [p[f"change_{unit}"] for p in pairs]
    return {"pairs": len(pairs), "parent": summary(parent), "change": summary(change),
            "change_wins": sum(c < p for p, c in zip(parent, change))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--worker")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--config")
    ap.add_argument("--command", default="simulate")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out")
    ap.add_argument("--rss", action="store_true",
                    help="compare the peak resident set of one run per fresh process")
    args = ap.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    import hashlib      # its OpenSSL would add about 3.5 MB to a worker's ru_maxrss
    import tempfile
    argv = [args.command, "--config", str(Path(args.config).resolve())]
    srcs = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    unit = "mb" if args.rss else "s"
    with tempfile.TemporaryDirectory() as tmp:
        outs = {name: Path(tmp) / name for name in srcs}
        sides = {} if args.rss else {name: Side(name, src, outs[name])
                                     for name, src in srcs.items()}

        def measure(name: str) -> float:
            """Seconds of one run on the warm worker, or with --rss the peak MB
            of one run on a fresh one."""
            if not args.rss:
                return sides[name].run(argv)[0]
            side = Side(name, srcs[name], outs[name])
            try:
                return side.run(argv)[1]
            finally:
                side.close()

        try:
            for side in sides.values():     # warm: imports, the generated march
                side.run(argv)
            pairs = []
            for i in range(args.pairs):
                ratio = cpu_ratio()
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {name: measure(name) for name in order}
                pairs.append({"pair": i + 1, "cpu_ratio": ratio, "first": order[0],
                              f"parent_{unit}": got["parent"], f"change_{unit}": got["change"]})
                print(f"pair {i + 1:2d} ratio {ratio:4.2f} parent {got['parent']:.3f} "
                      f"change {got['change']:.3f} {unit}", file=sys.stderr, flush=True)
            digests = {name: hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
                       for name, out in outs.items()}
        finally:
            for side in sides.values():
                side.close()
    busy = [p for p in pairs if p["cpu_ratio"] >= 1.5]
    doc = {"argv": argv, "unit": "MB" if args.rss else "s",
           "same_csv": digests["parent"] == digests["change"],
           "all": compare(pairs, unit), "busy": compare(busy, unit) if busy else None,
           "pairs": pairs}
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
