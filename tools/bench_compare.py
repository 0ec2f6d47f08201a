#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against a committed baseline.

The repo commits baseline results (BENCH_*.json at the repo root) so a PR
that slows a hot path fails CI instead of landing silently. Two formats
appear in the tree and both are handled transparently:

  google-benchmark   {"context": {...}, "benchmarks": [{"name": ...,
                     "real_time": ..., "cpu_time": ..., ...}]}
                     -> one metric per benchmark: "<name>/real_time"
                     (cpu_time with --metric cpu_time).
  generic nested     arbitrary JSON whose numeric leaves are metrics,
                     flattened with dotted paths, e.g.
                     "scenarios.facility_outage.makespan_s". Produced by
                     bench_chaos_campaign and friends.

For each metric present in both files the relative delta
(fresh - base) / base is computed. Whether an increase is a regression is
decided per metric name: *_time, *latency*, *makespan*, *wait*, *overhead*,
*_s / _ms / _ns suffixes are lower-is-better; *completed*, *goodput*,
*throughput*, *_ops*, *rate* are higher-is-better; anything else (counts
like duplicate_completions, ratios like latency_inflation) is informational
only and never fails the run. The chaos bench's worst_delay_s is an *_s
metric, so its gate covers it. Metrics present on one side only are reported as added/removed but do
not fail the comparison.

Exit status: 0 within threshold, 1 regression(s), 2 usage / parse error
or two google-benchmark files whose context records different
`pool_threads` (wall-clock kernel times are only comparable at one pool
size).
--report-only always exits 0 (for benches too noisy to gate hard).
--selftest checks the comparator against embedded fixtures of both
formats. --format selects text (default), json, or github (::error
annotations so regressions surface on the PR).
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

# Metric-name classification. First match wins; checked lowercase.
LOWER_IS_BETTER = [
    r"real_time$", r"cpu_time$", r"latency", r"makespan", r"wait",
    r"overhead", r"duration", r"_time(_|$)", r"_s$", r"_ms$", r"_us$",
    r"_ns$", r"p\d\d_", r"_p\d\d$",
]
HIGHER_IS_BETTER = [
    r"completed", r"goodput", r"throughput", r"items_per_second",
    r"bytes_per_second", r"_ops$", r"rate$",
]
# Ratios and counts that describe the scenario rather than performance;
# compared for the report but never gated.
INFORMATIONAL = [
    r"inflation", r"^scans$", r"interval", r"iterations$", r"^seed",
    r"duplicate",
]


def classify(name):
    low = name.lower()
    for pat in INFORMATIONAL:
        if re.search(pat, low):
            return "info"
    for pat in LOWER_IS_BETTER:
        if re.search(pat, low):
            return "lower"
    for pat in HIGHER_IS_BETTER:
        if re.search(pat, low):
            return "higher"
    return "info"


def flatten_generic(node, prefix, out):
    if isinstance(node, dict):
        for key in sorted(node):
            flatten_generic(node[key], f"{prefix}{key}." if prefix == ""
                            else f"{prefix}{key}.", out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            flatten_generic(item, f"{prefix}{i}.", out)
    elif isinstance(node, bool):
        pass  # booleans are flags, not metrics
    elif isinstance(node, (int, float)):
        out[prefix[:-1]] = float(node)


def extract_metrics(doc, metric):
    """Return {metric_name: value} for either supported format."""
    if isinstance(doc, dict) and isinstance(doc.get("benchmarks"), list):
        out = {}
        for bench in doc["benchmarks"]:
            name = bench.get("name")
            value = bench.get(metric)
            if isinstance(name, str) and isinstance(value, (int, float)):
                out[f"{name}/{metric}"] = float(value)
        return out
    out = {}
    flatten_generic(doc, "", out)
    return out


def pool_threads_mismatch(base_doc, fresh_doc):
    """Message when both google-benchmark files record different pool sizes.

    Wall-clock kernel times scale with the thread count, so a baseline is
    only comparable with a run at its own `pool_threads` (a context field
    bench_recon_kernels records); None when comparable or not recorded.
    """
    def pool(doc):
        if isinstance(doc, dict) and isinstance(doc.get("context"), dict):
            return doc["context"].get("pool_threads")
        return None
    base, fresh = pool(base_doc), pool(fresh_doc)
    if base is None or fresh is None or str(base) == str(fresh):
        return None
    return (f"baseline ran with pool_threads={base}, fresh run with "
            f"pool_threads={fresh}; rerun with ALSFLOW_NUM_THREADS={base}")


def compare(base, fresh, threshold):
    """Return (rows, regressions). rows: list of dicts for every metric."""
    rows = []
    regressions = []
    for name in sorted(set(base) | set(fresh)):
        if name not in base:
            rows.append({"metric": name, "status": "added",
                         "fresh": fresh[name]})
            continue
        if name not in fresh:
            rows.append({"metric": name, "status": "removed",
                         "base": base[name]})
            continue
        b, f = base[name], fresh[name]
        if b == 0.0:
            delta = 0.0 if f == 0.0 else math.inf
        else:
            delta = (f - b) / abs(b)
        kind = classify(name)
        regressed = False
        if kind == "lower" and delta > threshold:
            regressed = True
        elif kind == "higher" and delta < -threshold:
            regressed = True
        row = {"metric": name, "status": "regressed" if regressed else "ok",
               "base": b, "fresh": f, "delta": delta, "direction": kind}
        rows.append(row)
        if regressed:
            regressions.append(row)
    return rows, regressions


def fmt_delta(delta):
    if math.isinf(delta):
        return "+inf"
    return f"{delta:+.1%}"


def render_text(rows, regressions, threshold, verbose):
    lines = []
    for row in rows:
        if row["status"] == "added":
            lines.append(f"  added    {row['metric']} = {row['fresh']:g}")
        elif row["status"] == "removed":
            lines.append(f"  removed  {row['metric']} (was {row['base']:g})")
        elif row["status"] == "regressed":
            lines.append(
                f"  REGRESSED {row['metric']}: {row['base']:g} -> "
                f"{row['fresh']:g} ({fmt_delta(row['delta'])}, "
                f"{row['direction']}-is-better, threshold "
                f"{threshold:.0%})")
        elif verbose:
            lines.append(
                f"  ok       {row['metric']}: {row['base']:g} -> "
                f"{row['fresh']:g} ({fmt_delta(row['delta'])}, "
                f"{row['direction']})")
    compared = sum(1 for r in rows if r["status"] in ("ok", "regressed"))
    lines.append(f"{compared} metric(s) compared, "
                 f"{len(regressions)} regression(s)")
    return "\n".join(lines)


def render_github(rows, regressions, threshold):
    lines = []
    for row in regressions:
        lines.append(
            f"::error title=benchmark regression::{row['metric']} "
            f"{row['base']:g} -> {row['fresh']:g} "
            f"({fmt_delta(row['delta'])} vs threshold {threshold:.0%})")
    if not regressions:
        compared = sum(1 for r in rows if r["status"] in ("ok", "regressed"))
        lines.append(f"::notice::bench_compare: {compared} metric(s) "
                     f"within {threshold:.0%}")
    return "\n".join(lines)


def run_compare(args):
    try:
        base_doc = json.loads(Path(args.baseline).read_text())
        fresh_doc = json.loads(Path(args.fresh).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    mismatch = pool_threads_mismatch(base_doc, fresh_doc)
    if mismatch:
        print(f"bench_compare: {mismatch}", file=sys.stderr)
        return 2
    base = extract_metrics(base_doc, args.metric)
    fresh = extract_metrics(fresh_doc, args.metric)
    if not base or not fresh:
        print("bench_compare: no numeric metrics found "
              f"(baseline: {len(base)}, fresh: {len(fresh)})",
              file=sys.stderr)
        return 2
    rows, regressions = compare(base, fresh, args.threshold)
    if args.format == "json":
        print(json.dumps({"threshold": args.threshold, "rows": rows},
                         indent=2, sort_keys=True))
    elif args.format == "github":
        print(render_github(rows, regressions, args.threshold))
    else:
        print(f"bench_compare: {args.baseline} vs {args.fresh}")
        print(render_text(rows, regressions, args.threshold, args.verbose))
    if regressions and not args.report_only:
        return 1
    return 0


# --- selftest -------------------------------------------------------------

GB_BASE = {
    "context": {"date": "2026-01-01", "host_name": "ci"},
    "benchmarks": [
        {"name": "BM_ForwardProject/64", "real_time": 100.0,
         "cpu_time": 99.0, "time_unit": "us"},
        {"name": "BM_Fbp/64", "real_time": 200.0, "cpu_time": 198.0,
         "time_unit": "us"},
    ],
}
GB_FRESH_OK = {
    "benchmarks": [
        {"name": "BM_ForwardProject/64", "real_time": 110.0,
         "cpu_time": 108.0},
        {"name": "BM_Fbp/64", "real_time": 190.0, "cpu_time": 188.0},
    ],
}
GB_FRESH_BAD = {
    "benchmarks": [
        {"name": "BM_ForwardProject/64", "real_time": 160.0,
         "cpu_time": 158.0},
        {"name": "BM_Fbp/64", "real_time": 200.0, "cpu_time": 198.0},
    ],
}
GEN_BASE = {
    "scans": 8, "interval_s": 180.0,
    "baseline": {"completed": 8, "makespan_s": 1747.5,
                 "mean_latency_s": 487.8, "p95_latency_s": 488.5},
    "scenarios": {"facility_outage": {"completed": 8, "makespan_s": 1747.5,
                                      "worst_delay_s": 818.0,
                                      "latency_inflation": 1.59,
                                      "duplicate_completions": 0}},
}


def patched(doc, path, value):
    import copy
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def selftest():
    failures = []

    def check(label, cond):
        if not cond:
            failures.append(label)

    # Format detection.
    gb = extract_metrics(GB_BASE, "real_time")
    check("gb metric names", "BM_ForwardProject/64/real_time" in gb)
    check("gb skips context", all("context" not in k for k in gb))
    gen = extract_metrics(GEN_BASE, "real_time")
    check("generic flattening",
          gen.get("scenarios.facility_outage.makespan_s") == 1747.5)
    check("generic top-level leaf", gen.get("scans") == 8.0)

    # Classification.
    check("latency lower", classify("baseline.mean_latency_s") == "lower")
    check("makespan lower", classify("scenarios.x.makespan_s") == "lower")
    check("completed higher",
          classify("scenarios.x.completed") == "higher")
    check("inflation info",
          classify("scenarios.x.latency_inflation") == "info")
    check("worst delay lower",
          classify("scenarios.x.worst_delay_s") == "lower")
    check("duplicates info",
          classify("scenarios.x.duplicate_completions") == "info")
    check("real_time lower",
          classify("BM_Fbp/64/real_time") == "lower")

    # Comparison: +10% real_time under a 25% gate passes.
    _, reg = compare(extract_metrics(GB_BASE, "real_time"),
                     extract_metrics(GB_FRESH_OK, "real_time"), 0.25)
    check("10% under 25% gate", not reg)
    # +60% regresses.
    _, reg = compare(extract_metrics(GB_BASE, "real_time"),
                     extract_metrics(GB_FRESH_BAD, "real_time"), 0.25)
    check("60% over 25% gate",
          [r["metric"] for r in reg] == ["BM_ForwardProject/64/real_time"])

    # Generic: identical docs are clean; worse makespan regresses; fewer
    # completed scans regresses; a worse inflation ratio is info-only.
    _, reg = compare(extract_metrics(GEN_BASE, "real_time"),
                     extract_metrics(GEN_BASE, "real_time"), 0.25)
    check("identical clean", not reg)
    worse = patched(GEN_BASE, ["baseline", "makespan_s"], 1747.5 * 1.5)
    _, reg = compare(extract_metrics(GEN_BASE, "real_time"),
                     extract_metrics(worse, "real_time"), 0.25)
    check("makespan regression",
          [r["metric"] for r in reg] == ["baseline.makespan_s"])
    dropped = patched(GEN_BASE, ["baseline", "completed"], 4)
    _, reg = compare(extract_metrics(GEN_BASE, "real_time"),
                     extract_metrics(dropped, "real_time"), 0.25)
    check("completed drop regression",
          [r["metric"] for r in reg] == ["baseline.completed"])
    inflated = patched(GEN_BASE,
                       ["scenarios", "facility_outage", "latency_inflation"],
                       10.0)
    _, reg = compare(extract_metrics(GEN_BASE, "real_time"),
                     extract_metrics(inflated, "real_time"), 0.25)
    check("inflation never gates", not reg)
    delayed = patched(GEN_BASE,
                      ["scenarios", "facility_outage", "worst_delay_s"],
                      818.0 * 1.5)
    _, reg = compare(extract_metrics(GEN_BASE, "real_time"),
                     extract_metrics(delayed, "real_time"), 0.25)
    check("worst delay regression",
          [r["metric"] for r in reg]
          == ["scenarios.facility_outage.worst_delay_s"])
    duplicated = patched(GEN_BASE,
                         ["scenarios", "facility_outage",
                          "duplicate_completions"], 4)
    _, reg = compare(extract_metrics(GEN_BASE, "real_time"),
                     extract_metrics(duplicated, "real_time"), 0.25)
    check("duplicates never gate", not reg)

    # Added/removed metrics never fail; zero baseline handled.
    rows, reg = compare({"a.makespan_s": 1.0},
                        {"b.makespan_s": 1.0}, 0.25)
    check("disjoint no regressions", not reg)
    check("disjoint reported",
          sorted(r["status"] for r in rows) == ["added", "removed"])
    _, reg = compare({"x.makespan_s": 0.0}, {"x.makespan_s": 5.0}, 0.25)
    check("zero baseline regression", len(reg) == 1)
    _, reg = compare({"x.makespan_s": 0.0}, {"x.makespan_s": 0.0}, 0.25)
    check("zero-zero clean", not reg)

    # Thread counts: differing pool_threads refuse to compare; equal or
    # unrecorded ones compare as usual.
    two = patched(GB_BASE, ["context", "pool_threads"], "2")
    four = patched(GB_FRESH_OK, ["context"], {"pool_threads": "4"})
    check("pool mismatch refused",
          pool_threads_mismatch(two, four) is not None)
    check("pool match compares",
          pool_threads_mismatch(two, patched(four, ["context",
                                                    "pool_threads"], "2"))
          is None)
    check("pool unrecorded compares",
          pool_threads_mismatch(GB_BASE, four) is None)

    if failures:
        for label in failures:
            print(f"selftest FAILED: {label}", file=sys.stderr)
        return 1
    print(f"selftest OK ({len(GB_BASE['benchmarks'])} gb fixtures, "
          "generic fixtures, classification and gating checks)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="compare fresh benchmark JSON against a baseline")
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline JSON (e.g. "
                             "BENCH_chaos_campaign.json)")
    parser.add_argument("fresh", nargs="?",
                        help="freshly produced benchmark JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression gate (default 0.25)")
    parser.add_argument("--metric", default="real_time",
                        choices=["real_time", "cpu_time"],
                        help="google-benchmark field to compare")
    parser.add_argument("--report-only", action="store_true",
                        help="report deltas but always exit 0")
    parser.add_argument("--format", default="text",
                        choices=["text", "json", "github"])
    parser.add_argument("--verbose", action="store_true",
                        help="also print metrics within threshold")
    parser.add_argument("--selftest", action="store_true",
                        help="run embedded fixture checks and exit")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if not args.baseline or not args.fresh:
        parser.print_usage(sys.stderr)
        print("bench_compare: baseline and fresh files required",
              file=sys.stderr)
        return 2
    if args.threshold < 0:
        print("bench_compare: threshold must be >= 0", file=sys.stderr)
        return 2
    return run_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
