"""Command-line front end: catalog, compute, check, verify-chain, selftest.

The relations that `check` decides are listed once, in `RELATIONS`: each row
names the kinds of its operands and the call that decides it.

Exit codes: 0 = success / verdict Holds, 1 = verdict Fails, 2 = precondition
or usage error (a machine-readable JSON error object goes to stderr),
3 = verdict Inconclusive.  Reports embed the resolved configuration and are
byte-stable for identical inputs (no timestamps, deterministic numerics).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable

import numpy as np

from . import catalog as cat
from .derived import CONSTRUCTORS, FAMILY_NAMES, derive_family, seq_K, seq_L, seq_S
from .errors import UltraweightsError
from .func_core import (
    WeightFn,
    WeightMatrix,
    fn_preceq,
    kappa,
    kappa_fn,
    log_t_grid,
    matrix_from_omega,
    omega_from_seq,
    phi_star_involution_check,
    poisson_imag,
    prec_st,
)
from .relations import (
    cond_invmg,
    cond_liminf,
    cond_Mmg,
    cond_roquS,
    lambda_membership,
    matrix_braces_preceq,
    prec_gamma1,
    prec_SV,
    r_moderate_growth,
)
from .seq_core import (
    WeightSeq,
    has_moderate_growth,
    is_non_quasianalytic,
    log_convex_minorant,
    seq_equivalent,
    seq_preceq,
    seq_to_csv,
    seq_to_json,
)
from .verdicts import Status, Verdict, combine_all

DERIVE_CHOICES = ("none", *FAMILY_NAMES, "omega_M", "kappa", "poisson", "minorant")
# sequence-to-sequence derivations of `compute --derive` and `derived:OP(...)` URIs
SEQ_DERIVATIONS = CONSTRUCTORS | {"minorant": log_convex_minorant}
# The relations of `check`: name -> (lhs kind, rhs kind or None, call).  A kind
# is what `_operand` makes of the operand's text: a catalog or derived URI that
# must resolve to a "sequence", "matrix", "function" or "sequence or matrix",
# or "csv", a file of coefficients read at its --column (log_a by default);
# a relation without a "csv" operand refuses --column.  `call(lhs, [rhs,] n)`
# gives the verdict; each names its function through this module at call time,
# so that rebinding a module-level name here reaches the relation.
RELATIONS: dict[str, tuple[str, str | None, Callable[..., Verdict]]] = {
    "preceq": ("sequence", "sequence", lambda a, b, n: seq_preceq(a, b, n)),
    "equiv": ("sequence", "sequence", lambda a, b, n: seq_equivalent(a, b, n)),
    "sv": ("sequence", "sequence", lambda a, b, n: prec_SV(a, b, n)),
    "gamma1": ("sequence", "sequence", lambda a, b, n: prec_gamma1(a, b, n)),
    "st": ("function", "function", lambda a, b, n: prec_st(a, b)),
    "fn-preceq": ("function", "function", lambda a, b, n: fn_preceq(a, b)),
    "mg": ("sequence", None, lambda a, n: has_moderate_growth(a, n)),
    "mmg": ("sequence", None, lambda a, n: cond_Mmg(a, n)),
    "braces-preceq": ("matrix", "matrix", lambda a, b, n: matrix_braces_preceq(a, b, n)),
    "rmg": ("matrix", None, lambda a, n: r_moderate_growth(a, n)),
    "liminf": ("matrix", None, lambda a, n: cond_liminf(a, n)),
    "liminf2": ("matrix", None, lambda a, n: cond_liminf(a, n, shift=2)),
    "roquS": ("matrix", None,
              lambda a, n: cond_roquS(a if a.provenance.get("construction") == "S" else derive_family(a, "S", n), n)),
    "invmg": ("matrix", None, lambda a, n: cond_invmg(a, n)),
    "membership": ("csv", "sequence or matrix", lambda a, w, n: lambda_membership(a, w, min(n, len(a) - 1))),
}


class UsageError(UltraweightsError):
    """Malformed command-line input."""


def _err(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return 2


def load_config(path: str | None) -> dict:
    """Plain key=value configuration; '#' starts a comment."""
    cfg: dict[str, str] = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                k, _, v = line.partition("=")
                cfg[k.strip()] = v.strip()
    return cfg


def _resolved_config(args, cfg: dict) -> dict:
    """n and the dyadic exponent range LO..HI of the grid, from the flags, else
    the config file, else 256 and -3..3; malformed values raise UsageError."""
    n_spec = args.n if args.n is not None else cfg.get("n", 256)
    grid_spec = args.grid or cfg.get("grid") or "-3..3"
    lo_s, _, hi_s = grid_spec.partition("..")
    try:
        n, lo, hi = int(n_spec), int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"need an integer n and a grid LO..HI of integers, got n={n_spec!r}, grid={grid_spec!r}") from None
    if n < 1 or lo > hi:
        raise UsageError(f"need n >= 1 and a grid LO..HI with LO <= HI, got n={n}, grid={grid_spec!r}")
    return {
        "n": n,
        "grid": grid_spec,
        "grid_values": [float(2.0**e) for e in range(lo, hi + 1)],
    }


def _resolver(n: int, grid) -> Callable[[str], object]:
    """Resolution of catalog URIs plus the derived:OP(inner) composition.

    Each catalog URI is resolved once per resolver, and a command makes one:
    `derived:Q(X)` and `derived:K(X)` then share X's members and the omega~
    array of each.  Derived URIs are built afresh on every call.
    """
    catalog: dict[str, object] = {}

    def resolve(uri: str) -> object:
        if uri.startswith("derived:"):
            body = uri[len("derived:"):]
            op, _, rest = body.partition("(")
            if not rest.endswith(")"):
                raise cat.CatalogError(f"malformed derived URI {uri!r}")
            inner = resolve(rest[:-1])
            if isinstance(inner, WeightSeq):
                if op not in SEQ_DERIVATIONS:
                    raise cat.CatalogError(f"unknown derived op {op!r}")
                return SEQ_DERIVATIONS[op](inner, n)
            if isinstance(inner, WeightMatrix):
                if op not in FAMILY_NAMES:
                    raise cat.CatalogError(f"unknown family op {op!r}")
                return derive_family(inner, op, n)
            raise cat.CatalogError(f"derived:{op} expects a sequence or matrix")
        if uri not in catalog:
            catalog[uri] = cat.resolve(uri, grid=grid)
        return catalog[uri]

    return resolve


# -- catalog --------------------------------------------------------------------


def cmd_catalog(args) -> int:
    rows = cat.entries()
    if args.json:
        print(json.dumps([e.__dict__ | {"make": None} for e in rows], indent=2, default=str))
        return 0
    for e in rows:
        params = f" ({e.params})" if e.params else ""
        print(f"{e.key:16s} [{e.kind}]{params}: {e.doc}")
    return 0


# -- compute --------------------------------------------------------------------


def _csv_table(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow([repr(x) if isinstance(x, float) else x for x in r])
    return buf.getvalue()


def cmd_compute(args) -> int:
    cfg = _resolved_config(args, load_config(args.config))
    n = cfg["n"]
    obj = _resolver(n, cfg["grid_values"])(args.entry)
    derive = args.derive

    if isinstance(obj, WeightSeq):
        if derive in SEQ_DERIVATIONS:
            out_seq = SEQ_DERIVATIONS[derive](obj, n)
            if args.format == "json":
                payload = json.dumps(seq_to_json(out_seq, n) | {"config": cfg}, indent=2)
            else:
                col = {"minorant": "log_m"}.get(derive, f"log_{derive}")
                vals = out_seq.values(n)
                payload = _csv_table(["k", col], [(k, float(vals[k])) for k in range(n + 1)])
        elif derive == "omega_M":
            w = omega_from_seq(obj)
            log_mu = w.assoc.seq.log_mu(min(n, 64))  # the quotients omega_M sees: an undeclared table's minorant's
            decades = int(max(float(log_mu[-1]) / math.log(10.0), 1.0) * 2)
            t_lo = min(1.0, math.exp(float(log_mu[0])))  # omega_M > 0 on (mu_1, 1] when mu_1 < 1
            ts = log_t_grid(t_lo, 10.0 ** min(max(4, decades), sys.float_info.max_10_exp), n)
            om = w.omega(ts)
            payload = _csv_table(["t", "omega"], zip(map(float, ts), map(float, om)))
        elif derive == "none":
            if args.format == "json":
                payload = json.dumps(seq_to_json(obj, n) | {"config": cfg}, indent=2)
            else:
                payload = seq_to_csv(obj, n)
        else:
            return _err("UsageError", f"derivation {derive!r} does not apply to a sequence")
    elif isinstance(obj, WeightFn):
        ts = log_t_grid(1.0, 1e8, n)
        if derive == "kappa":
            payload = _csv_table(["t", "kappa"], [(float(t), kappa(obj, float(t))) for t in ts])
        elif derive == "poisson":
            payload = _csv_table(["t", "poisson"], [(float(t), poisson_imag(obj, float(t))) for t in ts])
        elif derive == "none":
            rows = []
            for t in ts:
                row = [float(t), float(obj.omega(float(t)))]
                try:
                    row += [kappa(obj, float(t)), poisson_imag(obj, float(t))]
                except UltraweightsError:
                    row += ["", ""]
                rows.append(row)
            payload = _csv_table(["t", "omega", "kappa", "poisson"], rows)
        else:
            return _err("UsageError", f"derivation {derive!r} does not apply to a function")
    elif isinstance(obj, WeightMatrix):
        if derive in FAMILY_NAMES:
            obj = derive_family(obj, derive, n)
        elif derive != "none":
            return _err("UsageError", f"derivation {derive!r} does not apply to a matrix")
        payload = json.dumps(obj.to_json(n) | {"config": cfg}, indent=2)
    else:
        return _err("UsageError", f"cannot compute on {type(obj).__name__}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    return 0


# -- check ----------------------------------------------------------------------


def _operand(kind: str, spec: str, resolve: Callable[[str], object], column: str | None):
    """The `check` operand `spec` as a `kind` of RELATIONS: the column of a
    coefficient CSV (log_a when none is given) as an array, or the object a
    URI resolves to, refused with a CatalogError unless it is of that kind."""
    if kind == "csv":
        column = "log_a" if column is None else column
        with open(spec, "r", encoding="utf-8") as fh:
            return np.asarray([float(row[column]) for row in csv.DictReader(fh)])
    obj = resolve(spec)
    types = {"sequence": WeightSeq, "matrix": WeightMatrix, "function": WeightFn,
             "sequence or matrix": (WeightSeq, WeightMatrix)}[kind]
    if not isinstance(obj, types):
        raise cat.CatalogError(f"{spec!r} is not a {kind}")
    return obj


def cmd_check(args) -> int:
    lhs_kind, rhs_kind, call = RELATIONS[args.relation]
    if (rhs_kind is None) != (args.rhs is None):
        raise UsageError(f"check {args.relation} {'needs' if args.rhs is None else 'takes no'} --rhs")
    if args.column is not None and "csv" not in (lhs_kind, rhs_kind):
        raise UsageError(f"check {args.relation} takes no --column")
    cfg = _resolved_config(args, load_config(args.config))
    n = cfg["n"]
    resolve = _resolver(n, cfg["grid_values"])
    operands = [_operand(kind, spec, resolve, args.column)
                for kind, spec in ((lhs_kind, args.lhs), (rhs_kind, args.rhs)) if kind is not None]
    v = call(*operands, n)
    print(v.to_json(indent=2))
    return v.exit_code()


# -- verify-chain -----------------------------------------------------------------


def cmd_verify_chain(args) -> int:
    cfg = _resolved_config(args, load_config(args.config))
    n = cfg["n"]
    mat = _resolver(n, cfg["grid_values"])(args.matrix)
    if not isinstance(mat, WeightMatrix):
        return _err("UsageError", f"{args.matrix!r} is not a matrix")

    for a in mat.grid:
        if not is_non_quasianalytic(mat.member(a)).holds:
            return _err("QuasianalyticInput", f"member {a:g} of {mat.name} is not certified non-quasianalytic")

    fams = {which: derive_family(mat, which, n) for which in FAMILY_NAMES}
    links: list[dict] = []
    statuses: list[Status] = []

    def link(name: str, detail: str, verdict: Verdict) -> None:
        links.append({"name": name, "detail": detail, "verdict": verdict.to_dict()})
        statuses.append(verdict.status)

    link("S_into_K", "every S member dominated by a K member", matrix_braces_preceq(fams["S"], fams["K"], n))
    link("K_into_Q", "every K member dominated by a Q member", matrix_braces_preceq(fams["K"], fams["Q"], n))
    link("Q_into_K", "every Q member dominated by a K member", matrix_braces_preceq(fams["Q"], fams["K"], n))
    link("K_into_uL", "every K member dominated by a minorant-L member", matrix_braces_preceq(fams["K"], fams["underlineL"], n))
    link("uL_into_L", "minorant never exceeds its source", matrix_braces_preceq(fams["underlineL"], fams["L"], n))

    src = mat.source_fn
    if src is not None:
        link("uL_into_K", "reverse inclusion closing the equality loop", matrix_braces_preceq(fams["underlineL"], fams["K"], n))
        try:
            kmat = matrix_from_omega(kappa_fn(src), grid=mat.grid)
            link("kappaMatrix_into_K", "the transform's own matrix embeds into the K family",
                 matrix_braces_preceq(kmat, fams["K"], n))
            link("K_into_kappaMatrix", "and conversely", matrix_braces_preceq(fams["K"], kmat, n))
        except UltraweightsError as e:
            link("kappaMatrix_equals_K", "skipped: " + str(e), Verdict(Status.INCONCLUSIVE, note=str(e)))
        link("family_moderate_growth", "source family has matrix-level moderate growth", r_moderate_growth(mat, min(n, 128)))

    overall = combine_all(statuses)
    report = {
        "config": cfg | {"matrix": args.matrix},
        "links": links,
        "summary": {
            "overall": overall.value,
            "holds": statuses.count(Status.HOLDS),
            "fails": statuses.count(Status.FAILS),
            "inconclusive": statuses.count(Status.INCONCLUSIVE),
            "warnings": sum((fams[w].warnings for w in FAMILY_NAMES), []),
        },
    }
    text = json.dumps(report, indent=2, default=str)
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return overall.exit_code()


# -- selftest ---------------------------------------------------------------------


def cmd_selftest(args) -> int:
    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    w = cat.make_power_weight(0.5)
    ts = log_t_grid(1.0, 1e6, 10)
    rel = max(abs(kappa(w, float(t)) / float(w.kappa_ref(math.log(t))) - 1.0) for t in ts)
    report("transform matches closed form (power 1/2)", rel < 1e-6, f"max rel {rel:.2e}")

    P = poisson_imag(w, 1.0)
    report("harmonic extension at i (power 1/2)", abs(P - math.sqrt(2)) < 1e-6, f"P(i)={P:.9f}")

    sandwich = all(
        poisson_imag(w, float(r)) <= (4 / math.pi) * kappa(w, float(r)) + 1e-6
        and (4 / math.pi) * kappa(w, float(r)) <= 4 * poisson_imag(w, float(r)) + 1e-6
        for r in log_t_grid(1.0, 1e6, 8)
    )
    report("transform sandwich", sandwich)

    report("biconjugate identity (squared log)", phi_star_involution_check(cat.make_log_square_weight()).holds)

    g2 = cat.make_gevrey(2)
    L = seq_L(g2, 64)
    l1 = math.exp(L.log_m(1))
    report("optimal-sequence first term (trigamma)", abs(l1 - 6 / math.pi**2) < 1e-9, f"L_1={l1:.9f}")

    toy = WeightSeq.from_values("toy", [0.0, 2.0, 2.5])
    report("minorant chord", abs(log_convex_minorant(toy, 2).log_m(1) - 1.25) < 1e-12)

    S = seq_S(g2, 128)
    K = seq_K(g2, 128)
    report("derived S and K equivalent at desk truncation", seq_equivalent(S, K, 128).holds)

    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


# -- entry ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ultraweights",
        description="Derived optimal weights and order relations for ultradifferentiable weight calculus",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="list built-in weight families")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_catalog)

    pm = sub.add_parser("compute", help="evaluate an entry or a derived table")
    pm.add_argument("entry", help="entry URI, e.g. seq:gevrey?s=2 or derived:L(seq:gevrey?s=2)")
    pm.add_argument("--derive", choices=DERIVE_CHOICES, default="none")
    pm.add_argument("--n", type=int, default=None)
    pm.add_argument("--out", default=None)
    pm.add_argument("--format", choices=("csv", "json"), default="csv")
    pm.add_argument("--config", default=None)
    pm.add_argument("--grid", default=None, help="dyadic exponent range for matrices, e.g. -3..3")
    pm.set_defaults(func=cmd_compute)

    pk = sub.add_parser("check", help="decide an order relation, print the verdict JSON")
    pk.add_argument("relation", choices=RELATIONS)
    pk.add_argument("--lhs", required=True)
    pk.add_argument("--rhs", default=None)
    pk.add_argument("--n", type=int, default=None)
    pk.add_argument("--column", default=None, help="CSV column for membership coefficients (default log_a)")
    pk.add_argument("--config", default=None)
    pk.add_argument("--grid", default=None)
    pk.set_defaults(func=cmd_check)

    pv = sub.add_parser("verify-chain", help="derive all families of a matrix and verify the inclusion chain")
    pv.add_argument("matrix")
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--report", default=None)
    pv.add_argument("--config", default=None)
    pv.add_argument("--grid", default=None)
    pv.set_defaults(func=cmd_verify_chain)

    ps = sub.add_parser("selftest", help="quick end-to-end sanity checks")
    ps.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UltraweightsError as e:
        return _err(type(e).__name__, str(e))
    except FileNotFoundError as e:
        return _err("FileNotFound", str(e))


if __name__ == "__main__":
    raise SystemExit(main())
