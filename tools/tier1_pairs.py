"""Wall time of the Tier-1 suite on two source trees, in alternating pairs.

Each run is the ROADMAP's Tier-1 command, ``python -m pytest -q
--continue-on-collection-errors`` with the tree's ``src`` first on
PYTHONPATH, started in the tree's root and timed around the whole process.
Before each pair the driver measures the host's two-copy CPU ratio
(`alternate.cpu_ratio`: 1.0 when a second CPU is free, about 2 when it is
busy).  The side that runs first alternates by pair.

    python tools/tier1_pairs.py --parent PARENT --change . --pairs 5 --out tier1.json

The JSON holds every pair (ratio, both wall times, pytest's summary line of
each, which ran first) and, for all pairs and for the pairs with a ratio of
at least 1.5, each side's median and quartiles and the number of pairs the
change won.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from alternate import compare, cpu_ratio  # noqa: E402

COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_tier1(tree: Path) -> tuple[float, str, int]:
    """(wall seconds, pytest's last output line, exit code) of one Tier-1 run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(COMMAND, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return elapsed, lines[-1] if lines else "", proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True, help="root of the parent tree")
    ap.add_argument("--change", required=True, help="root of the change tree")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out")
    args = ap.parse_args()
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    pairs = []
    for i in range(args.pairs):
        ratio = cpu_ratio()
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {name: run_tier1(trees[name]) for name in order}
        pairs.append({"pair": i + 1, "cpu_ratio": ratio, "first": order[0],
                      "parent_s": runs["parent"][0], "change_s": runs["change"][0],
                      "parent_summary": runs["parent"][1], "change_summary": runs["change"][1],
                      "exit_codes": [runs["parent"][2], runs["change"][2]]})
        print(f"pair {i + 1:2d} ratio {ratio:4.2f} parent {runs['parent'][0]:.1f} s "
              f"change {runs['change'][0]:.1f} s", file=sys.stderr, flush=True)
    busy = [p for p in pairs if p["cpu_ratio"] >= 1.5]
    doc = {"command": COMMAND[1:], "trees": {k: str(v) for k, v in trees.items()},
           "all": compare(pairs), "busy": compare(busy) if busy else None, "pairs": pairs}
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
