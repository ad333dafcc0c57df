"""Benchmark of the `ultraweights` CLI: one workload per run, one fresh process.

    python3 bench/run.py --workload chain-omega --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The process imports `ultraweights.cli` once (timed as part of
`setup_s`), then calls `cli.main(argv)` on the workload's operations in a
closed loop with one caller and no warm-up.  Each call runs in a child
forked from the freshly imported process, so that, as from a shell, every
call starts from the same state and pays its own first-call costs
(allocator growth included) whatever ran before it.  The seed shuffles the
order of the operations in each round.  There are at least two rounds, so
that every time is a median of two or more, and more while another one
still fits in `--seconds`.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json.
`--trace 1` runs one round untraced and one with spans around every layer
(see spans.py), checks that both print the same bytes, and reports the
per-layer metrics.  Lines before the last one carry the environment and
per-operation details; the last line is the result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so that every compared run does
# the same single-threaded work whatever the machine's core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402

SETUP_SAMPLES = 5  # this process's import plus four fresh interpreters
MIN_ROUNDS = 2
_IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ultraweights.cli; print(time.perf_counter() - t)"
)


def import_cli():
    """Import the CLI from this checkout's `src/`, never from elsewhere.

    Nothing before this imports numpy or scipy, so the time is the set-up a
    CLI call pays.
    """
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ultraweights.cli as cli

    elapsed = time.perf_counter() - t0
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"ultraweights was imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def fresh_import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    import ultraweights

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": ultraweights.KERNEL_BACKEND,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def call_cli(main, argv):
    """(exit code, stdout, stderr, seconds) of one CLI call in this process."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as e:  # argparse refusals
            rc = e.code
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_op(main, argv, traced: bool) -> dict:
    """One CLI call in a forked child; with `traced`, inside spans whose
    totals come back with the result.  Forking is safe here because the
    process starts no threads: BLAS is held to one."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            if traced:
                import spans

                tracer = spans.Tracer()
                with spans.installed(tracer):
                    rc, out, err, dt = call_cli(tracer.wrap("cli", main), argv)
                state = tracer.state()
            else:
                rc, out, err, dt = call_cli(main, argv)
                state = None
            with os.fdopen(write_fd, "w") as fh:
                json.dump({"exit": rc, "stdout": out, "stderr": err, "seconds": dt, "trace": state}, fh)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)  # never return into the parent's code
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()  # drain the pipe before waiting, or a large report deadlocks
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"child for {list(argv)} ended with status {status}")
    return json.loads(data)


def run_round(main, ops, reference, label, traced=False):
    records = []
    for op in ops:
        r = run_op(main, op.argv, traced)
        r |= {"round": label, "op": op.name, "command": op.command,
              "outcome": workloads.judge(op, r["exit"], r["stdout"], r["stderr"], reference)}
        records.append(r)
    return records


def _seconds(records, command=None):
    return sum(r["seconds"] for r in records if command in (None, r["command"]))


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any call's child, in MB."""
    kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def end_to_end(cli, ops, reference, seconds, import_s):
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(cli.main, ops, reference, len(rounds)))
        longest = max(longest, time.perf_counter() - t0)
    rss = peak_rss_mb()  # before the set-up samples start children of their own
    samples = [import_s] + [fresh_import_seconds() for _ in range(SETUP_SAMPLES - 1)]
    records = [r for recs in rounds for r in recs]
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(_seconds(recs) for recs in rounds),
        "compute_s": statistics.median(_seconds(recs, "compute") for recs in rounds),
        "check_s": statistics.median(_seconds(recs, "check") for recs in rounds),
        "peak_rss_mb": rss,
        "error_rate": sum(r["outcome"] != "pass" for r in records) / len(records),
    }
    return metrics, records, {"setup_samples_s": samples, "rounds": len(rounds)}


def _output(record):
    return record["exit"], record["stdout"], record["stderr"]


def per_layer(cli, ops, reference):
    import spans

    plain = run_round(cli.main, ops, reference, "untraced")
    with_spans = run_round(cli.main, ops, reference, "traced", traced=True)
    tracer = spans.Tracer()
    for r in with_spans:
        tracer.merge(r["trace"])
    metrics = spans.layer_metrics(tracer)
    for command in ("verify-chain", "compute", "check"):
        metrics[f"cli.{command.replace('-', '_')}.s"] = _seconds(with_spans, command)
    metrics["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in with_spans)
    metrics["trace.wall_s"] = _seconds(with_spans)
    metrics["trace.overhead_s"] = _seconds(with_spans) - _seconds(plain)
    extra = {"outputs_identical": all(_output(a) == _output(b) for a, b in zip(plain, with_spans)),
             "untraced_wall_s": _seconds(plain)} | tracer.state()
    return metrics, plain + with_spans, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text())
    cli, import_s = import_cli()
    ops = list(workloads.WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(ops)
    print(json.dumps({"environment": environment()}), flush=True)

    if args.trace:
        metrics, records, extra = per_layer(cli, ops, reference)
    else:
        metrics, records, extra = end_to_end(cli, ops, reference, args.seconds, import_s)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    outcomes = [r["outcome"] for r in records]
    correct = "wrong" not in outcomes and extra.get("outputs_identical", True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "order": [op.name for op in ops],
              "ops": [{k: r[k] for k in ("round", "op", "exit", "seconds", "outcome")} for r in records]}
    print(json.dumps(detail | extra))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(records),
        "failed": sum(o != "pass" for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
