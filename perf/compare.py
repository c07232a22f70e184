#!/usr/bin/env python3
"""Compare two ledger records: ``python perf/compare.py A.json B.json``.

For every workload x end-to-end metric it prints both medians, the ratio
with its base (B / A), the bound and a verdict:

``same``        B's median is within the bound of A's
``better``      B's median beats A's by more than the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  either side's min-max spread exceeds the bound and the two
                ranges overlap (a difference cannot be told from noise), or
                either side is ``unmeasured``

``failed_frac`` has an absolute bound of 0: any rise is ``worse``.  A
workload that only one record has is ``unresolved``.  Exact counts (element
updates, steps, halo sizes, ...) that differ between the two records are
listed; two records of the same git revision ran the same program, so there
a differing count is a failure too.  Exit status is 1 on any ``worse`` or
any such count, else 0.
"""

from __future__ import annotations

import json
import sys

import ledger


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verdict(a: dict, b: dict, metric: ledger.EndToEnd) -> str:
    """Verdict for one metric given the two ``summarize`` blocks."""
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.bound == 0.0:  # absolute: failed_frac
        worse = sign * (b["median"] - a["median"])
        return "worse" if worse > 0 else "better" if worse < 0 else "same"
    if a["median"] == 0:
        return "unresolved"
    worsening = sign * (b["median"] - a["median"]) / abs(a["median"])
    noisy = any((s["max"] - s["min"]) / abs(s["median"]) > metric.bound
                for s in (a, b) if s["median"])
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if noisy and overlap:
        return "unresolved"
    if worsening > metric.bound:
        return "worse"
    if worsening < -metric.bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, out=print) -> int:
    """Print the comparison; number of failures (``worse`` verdicts, plus
    workloads whose exact counts differ within one git revision)."""
    n_worse = n_counts = 0
    revs = [r["host"]["git_rev"] for r in (a, b)]
    same_rev = revs[0] == revs[1] != "unknown"
    out(f"A: git {revs[0][:12]}, seed {a['config']['seed']}, "
        f"scale {a['config']['scale']:g}, {a['config']['passes']} passes")
    out(f"B: git {revs[1][:12]}, seed {b['config']['seed']}, "
        f"scale {b['config']['scale']:g}, {b['config']['passes']} passes")
    if a["config"]["scale"] != b["config"]["scale"]:
        out("WARNING: the two records were measured at different sizes")
    out(f"{'workload':<24}{'metric':<18}{'A median':>11}{'B median':>11}"
        f"{'B/A':>8}{'bound':>7}  verdict")
    for name in list(a["workloads"]) + [n for n in b["workloads"]
                                        if n not in a["workloads"]]:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        both = bool(wa and wb and wa["status"] == wb["status"] == "measured")
        for metric in ledger.END_TO_END + (ledger.FAILED_FRAC,):
            row = f"{name:<24}{metric.name:<18}"
            if not both:
                why = next((f"unmeasured: {w['reason']}" for w in (wa, wb)
                            if w and w["status"] != "measured"),
                           f"missing from {'B' if wa else 'A'}")
                out(f"{row}{'-':>11}{'-':>11}{'-':>8}{metric.bound:>7g}  "
                    f"unresolved ({why})")
                continue
            sa, sb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            v = verdict(sa, sb, metric)
            n_worse += v == "worse"
            ratio = (f"{sb['median'] / sa['median']:.3f}" if sa["median"]
                     else "-")
            out(f"{row}{sa['median']:>11.4g}{sb['median']:>11.4g}{ratio:>8}"
                f"{metric.bound:>7g}  {v}")
        if both:
            ca, cb = wa["exact_counts"], wb["exact_counts"]
            diff = [f"{k}: {ca.get(k)} -> {cb.get(k)}"
                    for k in sorted(set(ca) | set(cb)) if ca.get(k) != cb.get(k)]
            n_counts += bool(diff) and same_rev
            out(f"{name:<24}exact counts: " +
                ("identical" if not diff else "DIFFER  " + "; ".join(diff)))
    out(f"{n_worse} worse" + (f", {n_counts} workload(s) with differing exact "
                              "counts in one git revision" if n_counts else ""))
    return n_worse + n_counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    return 1 if compare(load(argv[0]), load(argv[1])) else 0


if __name__ == "__main__":
    sys.exit(main())
