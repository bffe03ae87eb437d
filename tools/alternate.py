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

The JSON holds every pair (ratio, both times, which ran first) and, for all
pairs and for the pairs with a ratio of at least 1.5, each side's median and
quartiles and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
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
        print(json.dumps([code, elapsed]), flush=True)


class Side:
    def __init__(self, name: str, src: str, out: Path):
        self.name, self.out = name, out
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker", src],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> float:
        self.proc.stdin.write(json.dumps(argv + ["--out", str(self.out)]) + "\n")
        self.proc.stdin.flush()
        code, elapsed = json.loads(self.proc.stdout.readline())
        if code != 0:
            raise SystemExit(f"{self.name}: exit {code}")
        return elapsed

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": med, "q3": q3}


def compare(pairs: list[dict]) -> dict:
    parent = [p["parent_s"] for p in pairs]
    change = [p["change_s"] for p in pairs]
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
    args = ap.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    argv = [args.command, "--config", str(Path(args.config).resolve())]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {name: Side(name, str(Path(src).resolve()), Path(tmp) / name)
                 for name, src in (("parent", args.parent), ("change", args.change))}
        try:
            for side in sides.values():     # warm: imports, the generated march
                side.run(argv)
            digests = {name: hashlib.sha256((side.out / "trajectory.csv").read_bytes()).hexdigest()
                       for name, side in sides.items()}
            pairs = []
            for i in range(args.pairs):
                ratio = cpu_ratio()
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                times = {name: sides[name].run(argv) for name in order}
                pairs.append({"pair": i + 1, "cpu_ratio": ratio, "first": order[0],
                              "parent_s": times["parent"], "change_s": times["change"]})
                print(f"pair {i + 1:2d} ratio {ratio:4.2f} parent {times['parent']:.3f} "
                      f"change {times['change']:.3f}", file=sys.stderr, flush=True)
        finally:
            for side in sides.values():
                side.close()
    busy = [p for p in pairs if p["cpu_ratio"] >= 1.5]
    doc = {"argv": argv, "same_csv": digests["parent"] == digests["change"],
           "all": compare(pairs), "busy": compare(busy) if busy else None, "pairs": pairs}
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
