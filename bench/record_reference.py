"""Record the `compute` tables every workload checks against.

    python3 bench/record_reference.py

Writes bench/reference.json from the package in this checkout's `src/`.
Re-record only when a change is meant to alter a table by more than the
tolerance in workloads.LOG_TOL, and say so in that change.
"""

import json
import sys

import run
import workloads


def main() -> int:
    cli, _ = run.import_cli()
    tables = {}
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            if op.command != "compute":
                continue
            rc, out, err, _ = run.call_cli(cli.main, op.argv)
            if rc != 0:
                sys.stderr.write(err)
                raise SystemExit(f"{op.name} exited {rc}")
            tables[op.name] = workloads.table_values(out)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(tables.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
