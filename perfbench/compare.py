#!/usr/bin/env python3
"""Collects runs of the benchmark and compares two sets of them.

Collect runs (one JSON line per run, appended to --out):

    python3 perfbench/compare.py collect --out runs.jsonl \
        --side base=../parent --side head=. --workloads olap_spill,oltp --seeds 1-10

Each --side names a checkout to run `perfbench/run.py` in; with two sides
the order alternates from seed to seed. Every run is as long as
BENCHMARK.json's run_seconds.

Report:

    python3 perfbench/compare.py report runs.jsonl             # one side: spread
    python3 perfbench/compare.py report runs.jsonl --base base --head head

For each workload and end-to-end metric the report prints each side's
median and quartiles (statistics.quantiles, n=4). With one side it
shows the spread, (q3 - q1) / median, against the metric's bound from
BENCHMARK.json: "steady" when the spread is below a third of the bound,
"within" when below the bound, "wide" otherwise. With two sides it
also shows the change of the median, and the share of paired runs
(same workload and seed) the head won, ties counting for neither. The
verdict is:

- "regression": the head's median is worse than the base's by more
  than the bound;
- "unresolved": the base's spread is wider than the bound, unless
  every head run beats every base run;
- "gain": the head won at least nine tenths of the pairs and the
  medians differ by more than the base's quartile distance;
- "no change" otherwise.

Exits 1 when a run failed its checks or a regression was found.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def load_spec():
    return json.loads(BENCHMARK.read_text())


def parse_seeds(text):
    """'1-10' or '1,4,9' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def collect(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    sides = [s.split("=", 1) for s in args.side] or [["head", "."]]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    failed = False
    with open(args.out, "a", encoding="utf-8") as out:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else list(reversed(sides))
            for workload in workloads:
                for side, checkout in order:
                    code, result, err = run_once(checkout, workload, seed, seconds, args.trace)
                    ok = code == 0 and result is not None and result.get("correct")
                    failed |= not ok
                    record = {"side": side, "workload": workload, "seed": seed,
                              "trace": args.trace, "exit": code, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    status = "ok" if ok else f"FAILED (exit {code})\n{err[-2000:]}"
                    print(f"{side:>6} {workload:<11} seed {seed:<4} {status}", file=sys.stderr)
    return 1 if failed else 0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load_runs(path, trace=0):
    """{side: {workload: {seed: metrics}}}; the second flag is whether
    any run failed."""
    runs, failed = {}, False
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec.get("trace", 0) != trace:
            continue
        res = rec.get("result")
        if rec.get("exit") != 0 or not res or not res.get("correct"):
            failed = True
            continue
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        runs.setdefault(rec["side"], {}).setdefault(rec["workload"], {})[rec["seed"]] = metrics
    return runs, failed


def fmt(v):
    return f"{v:.4g}"


def report(args):
    spec = load_spec()
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    runs, failed = load_runs(args.file, args.trace)
    if failed:
        print("some runs failed their checks; they are left out", file=sys.stderr)
    regression = False
    if args.base is None:
        for side, by_workload in runs.items():
            for workload, by_seed in sorted(by_workload.items()):
                print(f"[{side}] {workload}: {len(by_seed)} runs")
                for m in metrics:
                    vals = [r[m["name"]] for r in by_seed.values() if m["name"] in r]
                    if not vals:
                        continue
                    q1, med, q3 = quartiles(vals)
                    line = f"  {m['name']:<26} median {fmt(med):>10} [{fmt(q1)}, {fmt(q3)}] {m['unit']}"
                    if "bound" in m:
                        s = spread(vals)
                        verdict = ("steady" if s < m["bound"] / 3
                                   else "within" if s <= m["bound"] else "wide")
                        line += f"  spread {s:.3f} / bound {m['bound']}: {verdict}"
                    print(line)
        return 1 if failed else 0

    base, head = runs.get(args.base, {}), runs.get(args.head, {})
    for workload in sorted(set(base) & set(head)):
        seeds = sorted(set(base[workload]) & set(head[workload]))
        print(f"{workload}: {len(seeds)} paired runs ({args.base} vs {args.head})")
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            pairs = [(head[workload][s][name], base[workload][s][name]) for s in seeds
                     if name in head[workload][s] and name in base[workload][s]]
            if not pairs:
                continue
            h, b = [p[0] for p in pairs], [p[1] for p in pairs]
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            win_share = sum(better(hv, bv) for hv, bv in pairs) / len(pairs)
            change = (hmed - bmed) / bmed if bmed else 0.0
            worse_by = change if lower else -change
            bound = m.get("bound")
            if bound is not None and worse_by > bound:
                verdict = "regression"
                regression = True
            elif bound is not None and spread(b) > bound and not all(
                    better(hv, bv) for hv in h for bv in b):
                verdict = "unresolved"
            elif win_share >= 0.9 and abs(hmed - bmed) > (bq3 - bq1):
                verdict = "gain"
            else:
                verdict = "no change"
            print(f"  {name:<26} {args.base} {fmt(bmed):>10} [{fmt(bq1)}, {fmt(bq3)}]"
                  f"  {args.head} {fmt(hmed):>10} [{fmt(hq1)}, {fmt(hq3)}] {m['unit']}"
                  f"  {change:+.1%}  head won {win_share:.0%}  {verdict}")
    return 1 if failed or regression else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append results")
    c.add_argument("--out", required=True)
    c.add_argument("--side", action="append", default=[],
                   help="NAME=CHECKOUT; repeat for two sides (default head=.)")
    c.add_argument("--workloads", help="comma-separated (default: all)")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r = sub.add_parser("report", help="summarize collected runs")
    r.add_argument("file")
    r.add_argument("--base")
    r.add_argument("--head")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.cmd == "report" and (args.base is None) != (args.head is None):
        parser.error("--base and --head go together")
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
