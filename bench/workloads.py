"""The benchmark's workloads: CLI operations with the outcome each must give.

Every operation records `expect`, the outcome the theory or the catalog
gives.  Three operations give another outcome today; for those `defect`
records that outcome exactly, so the benchmark can tell a known defect
(counted as failed) from a new one (which also makes the run incorrect).
Fixing a defect turns its operation into a pass and changes what it costs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# A `compute` table matches its reference when every log-domain value is
# within LOG_TOL * max(1, |reference|) of the value recorded in
# reference.json.  Kernel rewrites agree to about 1e-16 relative and the
# batched quadrature behind Q is accurate to 1e-7 absolute, so 1e-6 leaves
# room for both while any wrong table entry is far outside it.
LOG_TOL = 1e-6

POWER = "mat:omega?fn=power&beta=0.5"
CHAIN9 = ("S_into_K", "K_into_Q", "Q_into_K", "K_into_uL", "uL_into_L",
          "uL_into_K", "kappaMatrix_into_K", "K_into_kappaMatrix", "family_moderate_growth")
CHAIN5 = CHAIN9[:5]


def _links(names, **override) -> dict:
    return {name: override.get(name, "Holds") for name in names}


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expect: dict
    defect: dict | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "chain-omega": (
        Op("chain-power", ("verify-chain", POWER, "--n", "64"),
           {"exit": 0, "links": _links(CHAIN9)}),
        # Should complete with a report; exits 2 because the conjugate is
        # capped at log t = 700 (ROADMAP item 2c).
        Op("chain-logsq", ("verify-chain", "mat:omega?fn=logsq", "--n", "64"),
           {"report": True},
           defect={"exit": 2, "error": "UnboundedConjugate"}),
        # Few members keep a round short enough for two rounds in a run.
        Op("K-power", ("compute", POWER, "--derive", "K", "--n", "64", "--grid", "0..1"),
           {"exit": 0, "table": True}),
        Op("Q-into-K-power", ("check", "braces-preceq", "--lhs", f"derived:Q({POWER})",
                              "--rhs", f"derived:K({POWER})", "--n", "64", "--grid", "0..0"),
           {"exit": 0, "status": "Holds"}),
    ),
    "chain-seq": (
        Op("chain-gevrey2", ("verify-chain", "mat:gevrey?s=2", "--n", "256"),
           {"exit": 0, "links": _links(CHAIN5)}),
        Op("chain-gevrey3", ("verify-chain", "mat:gevrey?s=3", "--n", "256"),
           {"exit": 0, "links": _links(CHAIN5)}),
        # All links hold in theory; K_into_Q fails because the Q radial grid
        # is capped at r = 1e12 (ROADMAP item 2a).
        Op("chain-expgevrey", ("verify-chain", "mat:expgevrey?p=2", "--n", "64"),
           {"exit": 0, "links": _links(CHAIN5)},
           defect={"exit": 1, "links": _links(CHAIN5, K_into_Q="Fails")}),
        Op("Q-gevrey2", ("compute", "mat:gevrey?s=2", "--derive", "Q", "--n", "256"),
           {"exit": 0, "table": True}),
        Op("Q-into-K-gevrey3", ("check", "braces-preceq", "--lhs", "derived:Q(mat:gevrey?s=3)",
                                "--rhs", "derived:K(mat:gevrey?s=3)", "--n", "256"),
           {"exit": 0, "status": "Holds"}),
    ),
    "tables": (
        Op("L-gevrey2", ("compute", "seq:gevrey?s=2", "--derive", "L", "--n", "4096"),
           {"exit": 0, "table": True}),
        Op("S-gevrey1.5", ("compute", "seq:gevrey?s=1.5", "--derive", "S", "--n", "4096"),
           {"exit": 0, "table": True}),
        Op("sv-gevrey3-gevrey2", ("check", "sv", "--lhs", "seq:gevrey?s=3", "--rhs", "seq:gevrey?s=2",
                                  "--n", "4096"),
           {"exit": 1, "status": "Fails", "pairing": ["Fails"] * 11}),
        Op("rmg-expgevrey", ("check", "rmg", "--lhs", "mat:expgevrey?p=2", "--n", "2048"),
           {"exit": 0, "status": "Holds"}),
        Op("mg-gevrey1.5", ("check", "mg", "--lhs", "seq:gevrey?s=1.5", "--n", "8192"),
           {"exit": 0, "status": "Holds"}),
        # Holds per the catalog; fails today because a linear-domain exp
        # overflows inside the liminf test (ROADMAP item 2b).
        Op("liminf2-expgevrey", ("check", "liminf2", "--lhs", "mat:expgevrey?p=2", "--n", "1024"),
           {"exit": 0, "status": "Holds"},
           defect={"exit": 1, "status": "Fails"}),
    ),
}


def table_values(stdout: str) -> list[float]:
    """Numbers of a `compute` table: the value column of a CSV, or every
    member's log_m of a matrix JSON."""
    if stdout.lstrip().startswith("{"):
        doc = json.loads(stdout)
        return [v for member in doc["members"] for v in member["log_m"]]
    rows = list(csv.reader(io.StringIO(stdout)))
    return [float(row[1]) for row in rows[1:]]


def table_matches(values: list[float], reference: list[float]) -> bool:
    if len(values) != len(reference):
        return False
    for v, r in zip(values, reference):
        if math.isfinite(r):
            if not abs(v - r) <= LOG_TOL * max(1.0, abs(r)):
                return False
        elif v != r:
            return False
    return True


def summarize(op: Op, rc, stdout: str, stderr: str, reference: dict) -> dict:
    """The parts of an operation's output that expectations speak about."""
    out: dict = {"exit": rc}
    if rc == 2 and stderr.strip():
        try:
            out["error"] = json.loads(stderr.strip().splitlines()[-1])["error"]
        except (json.JSONDecodeError, KeyError, TypeError):
            out["error"] = "unreadable"
    if rc not in (0, 1, 3):
        return out
    if op.command == "compute":
        out["table"] = op.name in reference and table_matches(table_values(stdout), reference[op.name])
        return out
    doc = json.loads(stdout)
    if op.command == "verify-chain":
        out["report"] = True
        out["links"] = {lk["name"]: lk["verdict"]["status"] for lk in doc["links"]}
    else:
        out["status"] = doc["status"]
        if doc.get("pairing"):
            out["pairing"] = [p.get("status") for p in doc["pairing"]]
    return out


def _matches(summary: dict, spec: dict) -> bool:
    return all(summary.get(key) == want for key, want in spec.items())


def judge(op: Op, rc, stdout: str, stderr: str, reference: dict) -> str:
    """'pass', 'known-defect' (the recorded wrong outcome) or 'wrong'."""
    try:
        summary = summarize(op, rc, stdout, stderr, reference)
    except (json.JSONDecodeError, KeyError, ValueError, IndexError):
        return "wrong"
    if _matches(summary, op.expect):
        return "pass"
    if op.defect is not None and _matches(summary, op.defect):
        return "known-defect"
    return "wrong"
