#!/usr/bin/env python3
"""Compare a bench JSON run against the checked-in baseline.

Usage: compare_baseline.py BASELINE.json CURRENT.json [--tolerance 0.25]

Both files use the google-benchmark JSON layout ({"benchmarks": [{"name",
"real_time", ...}]}).  Every entry in the baseline must exist in the
current run.  Entries whose name ends in "_speedup" are
higher-is-better (regression = current below baseline / (1 + tol));
everything else is a time (regression = current above baseline * (1 + tol)).

The baseline holds only the *deterministic simulated* metrics emitted by
the fig_* --json benches — wall-clock microbenchmark numbers vary too
much across CI runners to gate on.

Exits 1 on any regression, on any baseline metric missing from the
current run (a deleted bench must not silently disable its gate), and on
an empty or malformed baseline or current file (a truncated artifact must
not read as "all 0 metrics within tolerance").  Metrics present in the
current run but absent from the baseline are listed as ungated so new
benches get baseline entries.

Informational only, whatever the exit status: every gated metric that
differs from its baseline value at all (relative 1e-9) gets a "moved:"
note, and the report ends with "unchanged: K/N", so a change meant to keep
the simulated costs shows in the log that it kept them.
"""

import argparse
import json
import sys

# Relative difference below which a metric reads as unchanged.
UNCHANGED_RTOL = 1e-9


def load_metrics(path):
    with open(path) as f:
        data = json.load(f)
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise SystemExit(f"error: {path} has no benchmark entries")
    return {b["name"]: float(b["real_time"]) for b in benchmarks}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (default 0.25)")
    args = parser.parse_args()

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)

    failures = []
    drifts = []
    moved = []
    unchanged = 0
    print(f"{'metric':<44}{'baseline':>12}{'current':>12}{'ratio':>8}")
    for name, base in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<44}{base:>12.3f}{'MISSING':>12}")
            continue
        cur = current[name]
        if abs(cur - base) > UNCHANGED_RTOL * abs(base):
            moved.append(f"{name}: {base!r} -> {cur!r}")
        else:
            unchanged += 1
        higher_is_better = name.endswith("_speedup")
        if higher_is_better:
            # cur == 0 on a higher-is-better metric is a total collapse.
            ratio = base / cur if cur else float("inf")
        else:
            ratio = cur / base if base else 1.0
        flag = ""
        if ratio > 1.0 + args.tolerance:
            failures.append(
                f"{name}: {base:.3f} -> {cur:.3f} "
                f"({(ratio - 1.0) * 100.0:.1f}% worse)")
            flag = "  REGRESSION"
        elif ratio < 1.0 - args.tolerance:
            drifts.append(
                f"{name}: {base:.3f} -> {cur:.3f} (better; refresh baseline?)")
            flag = "  improved"
        print(f"{name:<44}{base:>12.3f}{cur:>12.3f}{ratio:>8.3f}{flag}")

    for d in drifts:
        print(f"note: {d}")
    for m in moved:
        print(f"moved: {m}")
    ungated = sorted(set(current) - set(baseline))
    if ungated:
        print(f"note: {len(ungated)} metric(s) have no baseline entry "
              f"(not gated): {', '.join(ungated[:8])}"
              f"{', ...' if len(ungated) > 8 else ''}")
    if failures:
        # stderr is unbuffered: flush first so the report stays in order.
        sys.stdout.flush()
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.tolerance * 100.0:.0f}% tolerance:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
    else:
        print(f"\nall {len(baseline)} metrics within "
              f"{args.tolerance * 100.0:.0f}% of baseline")
    print(f"unchanged: {unchanged}/{len(baseline)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
