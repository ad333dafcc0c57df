"""Compare benchmark runs of two versions of the code.

    python3 bench/compare.py --base base/*.log --head head/*.log

Each log is the standard output of one `bench/run.py` run; all logs must
be of one workload and one `--trace` setting.  Runs whose kernel backend or
BLAS thread settings differ are refused (exit 2): their times measure
different programs.  For every metric the table gives each side's median,
its spread (interquartile range over median) and the change of the median;
end-to-end metrics worse by more than their bound in BENCHMARK.json are
marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("kernel_backend", "blas_threads")


def load(path: str) -> dict:
    lines = [json.loads(line) for line in Path(path).read_text().splitlines() if line.startswith("{")]
    env = next(line["environment"] for line in lines if "environment" in line)
    detail = next(line for line in lines if "workload" in line)
    return {"path": path, "env": env, "workload": detail["workload"], "trace": detail["trace"], "result": lines[-1]}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def refusal(runs: list[dict]) -> str | None:
    first = runs[0]
    for run in runs[1:]:
        for key in MUST_MATCH:
            if run["env"][key] != first["env"][key]:
                return f"{key} differs: {first['env'][key]!r} in {first['path']}, {run['env'][key]!r} in {run['path']}"
        for key in ("workload", "trace"):
            if run[key] != first[key]:
                return f"{key} differs: {first[key]!r} in {first['path']}, {run[key]!r} in {run['path']}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--head", nargs="+", required=True)
    args = p.parse_args(argv)
    base, head = [load(f) for f in args.base], [load(f) for f in args.head]
    reason = refusal(base + head)
    if reason:
        sys.stderr.write(f"refusing to compare: {reason}\n")
        return 2
    for key in ("python", "numpy", "scipy", "commit"):
        seen = sorted({str(r["env"][key]) for r in base + head})
        if len(seen) > 1:
            print(f"note: {key} varies: {', '.join(seen)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"workload {base[0]['workload']}, trace {base[0]['trace']}, {len(base)} base and {len(head)} head runs")
    print(f"{'metric':48s} {'unit':>8s} {'base':>12s} {'spread':>7s} {'head':>12s} {'spread':>7s} {'change':>8s}")
    for name, meta in base[0]["result"]["metrics"].items():
        b = [r["result"]["metrics"][name]["value"] for r in base]
        h = [r["result"]["metrics"][name]["value"] for r in head]
        mb, mh = statistics.median(b), statistics.median(h)
        change = (mh - mb) / mb if mb else float("nan")
        flag = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            if worse > bounds[name]["bound"]:
                flag = f"  worse than bound {bounds[name]['bound']}"
        print(f"{name:48s} {meta['unit']:>8s} {mb:12.6g} {spread(b):7.3f} {mh:12.6g} {spread(h):7.3f} {change:+8.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
