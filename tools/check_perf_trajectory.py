#!/usr/bin/env python3
"""Perf-trajectory gate: diff bench deviations against committed baselines.

Every bench emits machine-readable paper-vs-measured records as JSON lines
(BENCH_<name>.json, one object per line: bench, metric, paper, measured,
deviation, unit).  The committed baselines under bench/baseline/ pin the
deviation trajectory; this script compares a fresh run against them and
fails when any metric's |deviation| grew by more than the slack — i.e. the
model drifted further from the paper (or from its own fault-free anchor)
than the baseline run did.

Usage:
    check_perf_trajectory.py [--baseline DIR] [--slack FRAC] [FILE...]

Boolean invariants (e.g. the kernel bench's schedule_match) record 1.0
against a paper value of 1.0, so any failure reads as deviation growth.
A record's paper value never comes from the run that measures it: it is
a paper figure, a pinned constant, or (for a lossy fault-sweep row) the
same sweep's fault-free row, so every committed record can fail.  A
quantity with no such reference (host speed, wall time) is not recorded.

With no FILE arguments, every BENCH_*.json in the current directory is
checked.  Metrics present in the baseline but missing from the fresh run
fail (a silently-dropped metric reads as "covered" when it is not), and a
metric present in the fresh run but absent from the committed baseline is
an equally loud failure: an unpinned metric has no trajectory to protect,
so the author who adds a bench metric must commit its baseline key in the
same change.  Exit status: 0 clean, 1 regressions.
"""

import argparse
import glob
import json
import os
import sys


def load_records(path):
    """Parse one BENCH_*.json file of JSON-lines records into a dict
    keyed by (bench, metric). Raises ValueError on malformed JSON — an
    invalid line is itself a regression (the reporter guarantees strict
    JSON)."""
    records = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {e}") from e
            for field in ("bench", "metric", "deviation"):
                if field not in rec:
                    raise ValueError(f"{path}:{lineno}: missing '{field}'")
            records[(rec["bench"], rec["metric"])] = rec
    return records


def check(fresh_files, baseline_dir, slack):
    fresh = {}
    for path in fresh_files:
        fresh.update(load_records(path))

    baseline = {}
    for path in sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))):
        baseline.update(load_records(path))

    if not baseline:
        print(f"error: no baselines found under {baseline_dir}", file=sys.stderr)
        return 1
    if not fresh:
        print("error: no fresh bench records to check", file=sys.stderr)
        return 1

    failures = []
    for key, base in sorted(baseline.items()):
        bench, metric = key
        if key not in fresh:
            failures.append(f"{bench}/{metric}: missing from fresh run "
                            "(baseline expects it)")
            continue
        new = fresh[key]
        base_dev, new_dev = base["deviation"], new["deviation"]
        if base_dev is None or new_dev is None:
            # null deviation = non-finite measurement; only a change is news.
            if (base_dev is None) != (new_dev is None):
                failures.append(f"{bench}/{metric}: deviation "
                                f"{base_dev} -> {new_dev} (finiteness changed)")
            continue
        allowed = abs(base_dev) + slack
        if abs(new_dev) > allowed:
            failures.append(
                f"{bench}/{metric}: |deviation| {abs(new_dev):.4f} exceeds "
                f"baseline {abs(base_dev):.4f} + slack {slack:.4f} "
                f"(measured {new.get('measured')} {new.get('unit', '')}, "
                f"paper {new.get('paper')})")

    new_metrics = sorted(set(fresh) - set(baseline))
    for bench, metric in new_metrics:
        # An unpinned metric has no trajectory to protect: fail loudly and
        # tell the author exactly what to commit, rather than letting the
        # new key ride along unchecked until it silently drifts.
        failures.append(
            f"{bench}/{metric}: present in the fresh run but has no "
            f"committed baseline key — add this metric's record to "
            f"{baseline_dir}/ (refresh from this run) in the same change "
            "that introduced it")

    checked = len(set(baseline) & set(fresh))
    if failures:
        print(f"\nPERF TRAJECTORY REGRESSIONS ({len(failures)}):")
        for f in failures:
            print(f"  FAIL {f}")
        print(f"\n{checked} metrics checked, {len(failures)} failed.")
        print("If the drift is intended, refresh bench/baseline/ from this "
              "run and commit it with the change that caused it.")
        return 1
    print(f"perf trajectory OK: {checked} metrics within slack")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="fresh BENCH_*.json files (default: ./BENCH_*.json)")
    ap.add_argument("--baseline", default="bench/baseline",
                    help="directory of committed baseline BENCH_*.json files")
    ap.add_argument("--slack", type=float, default=0.02,
                    help="allowed |deviation| growth over baseline "
                         "(absolute, default 0.02)")
    args = ap.parse_args()

    files = args.files or sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("error: no BENCH_*.json files found; run the benches first",
              file=sys.stderr)
        return 1
    try:
        return check(files, args.baseline, args.slack)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
