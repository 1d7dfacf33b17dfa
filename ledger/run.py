#!/usr/bin/env python3
"""Host-time ledger benchmark for the Anton communication simulator.

    python3 ledger/run.py --workload ping-sweep|md-512|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the ledger program from source (with
CMake, into $CARGO_TARGET_DIR or .bench_build), runs one workload, checks its
outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, the spans are written as Chrome
Trace Event JSON next to the build, and the per-layer self-time table and
the residual check are printed. Exits 1 when a correctness check fails or
when the simulated-statistics digest differs from an earlier run of the same
build and seed; exits 2 when the ledger program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402

WORKLOADS = ("ping-sweep", "md-512", "serve-mix")
RUN_TIMEOUT_S = 170

# The workload's own names for the generic end-to-end metrics, printed in
# the report.
ALIASES = {
    "ping-sweep": {"host_ms_per_op_p50": "host_ms_per_probe_p50",
                   "host_ms_per_op_tail": "host_ms_per_probe_tail",
                   "ops_per_s": "probes_per_s"},
    "md-512": {"host_ms_per_op_p50": "host_ms_per_step",
               "host_ms_per_op_tail": "host_ms_per_step_tail",
               "ops_per_s": "steps_per_s"},
    "serve-mix": {"host_ms_per_op_p50": "turnaround_p50_ms",
                  "host_ms_per_op_tail": "turnaround_tail_ms",
                  "ops_per_s": "jobs_per_s"},
}
SAMPLE = {"ping-sweep": "sweep", "md-512": "step pair", "serve-mix": "job"}


def fail(msg):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configure once, then build the ledger program; returns its path."""
    tree = os.path.join(out_dir, "ledger")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(out_dir, "ledger-build.log")
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "ledger", "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(tree, "ledger")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_matches(out_dir, binary, workload, seed, digest):
    """Record the digest per build and seed; False when an earlier run of the
    same build and seed recorded a different one."""
    path = os.path.join(out_dir, "ledger-digests.json")
    build_id = file_sha256(binary)
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    if store.get("build") != build_id:
        store = {"build": build_id, "digests": {}}
    key = f"{workload}/{seed}"
    earlier = store["digests"].setdefault(key, digest)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return earlier == digest, earlier


def end_to_end(raw):
    """The generic end-to-end metrics of one untraced run."""
    pct, tail_ms, n, beyond = M.tail(raw["op_ms"])
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "host_ms_per_op_p50": statistics.median(raw["op_ms"]),
        "host_ms_per_op_tail": tail_ms,
        "ops_per_s": raw["ops"] / raw["window_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(raw['setup_s'])} set-ups",
        "host_ms_per_op_p50": f"median of {n} samples (one per "
                              f"{SAMPLE[raw['workload']]})",
        "host_ms_per_op_tail": f"p{pct:g} of {n} samples, {beyond} beyond",
        "ops_per_s": f"{raw['ops']} {raw['unit']}s in "
                     f"{raw['window_s']:.2f} s",
        "peak_rss_mb": "getrusage ru_maxrss after the timed window",
    }
    return values, notes


def per_layer(raw, spans):
    """Per-layer metrics of one traced run, plus the tracing overhead and
    the residual of the span decomposition."""
    values = dict(raw["layers"])
    values["proc.minflt"] = float(raw["minflt"])
    untraced, traced = raw["untraced_op_ms"], raw["traced_op_ms"]
    values["trace.overhead_frac"] = (statistics.median(traced) /
                                     statistics.median(untraced) - 1)
    res = raw["residual"]
    values["trace.residual_frac"] = M.residual(res["explained_ms"],
                                               res["wall_ms"])
    values["trace.spans"] = float(len(spans))
    return values


def print_self_times(spans):
    table = M.layer_table(spans)
    roots = [s for s in spans if s["parent"] == 0 and s["lane"] == 0]
    wall = sum(s["end"] - s["start"] for s in roots)
    print("  per-layer self time (benchmark-side spans; concurrent server "
          "lanes can sum past 100%):")
    print(f"    {'layer':<10}{'spans':>7}{'total ms':>13}{'self ms':>13}"
          f"{'self/root':>11}")
    for layer, (count, total, own) in sorted(table.items(),
                                             key=lambda kv: -kv[1][2]):
        share = own / wall if wall > 0 else 0.0
        print(f"    {layer:<10}{count:>7}{total:>13.1f}{own:>13.1f}"
              f"{share:>10.1%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    out_dir = build_dir()
    binary = build(out_dir)
    runs = os.path.join(out_dir, "ledger-runs")
    os.makedirs(runs, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(runs, stem + ".raw.json")
    trace_path = os.path.join(runs, stem + ".trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--trace-file", trace_path]
    for stale in (raw_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    with open(raw_path) as f:
        raw = json.load(f)

    workload = args.workload
    alias = ALIASES[workload]
    print(f"ledger {workload} seed={args.seed} trace={args.trace}: one "
          f"operation is one {raw['unit']}; run took "
          f"{time.monotonic() - t0:.1f} s")
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    same, earlier = digest_matches(out_dir, binary, workload, args.seed,
                                   raw["digest"])
    checks.append(("simulated-statistics digest repeats across runs", same,
                   f"{raw['digest']} (earlier run: {earlier})"))

    if args.trace == 0:
        values, notes = end_to_end(raw)
        for m in spec["end_to_end"]:
            name = m["name"]
            shown = alias.get(name, name)
            print(f"  {shown:<24}{values[name]:>14.6g} {m['unit']:<6}"
                  f"{notes[name]}")
        out = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["end_to_end"]}
    else:
        with open(trace_path) as f:
            spans = M.spans_from_chrome(json.load(f))
        values = per_layer(raw, spans)
        unknown = set(values) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            fail("layer metrics missing from BENCHMARK.json: " +
                 ", ".join(sorted(unknown)))
        for m in spec["per_layer"]:
            v = values.get(m["name"])
            shown = "n/a (layer not run by this workload)" if v is None \
                else f"{v:.6g}"
            print(f"  {m['name']:<42}{shown:>14} {m['unit']}")
        print_self_times(spans)
        res = raw["residual"]
        frac = values["trace.residual_frac"]
        checks.append((f"layer spans explain the wall within "
                       f"{res['limit']:.0%}", frac <= res["limit"],
                       f"{res['what']}: {res['explained_ms']:.1f} of "
                       f"{res['wall_ms']:.1f} ms, residual {frac:.1%}"))
        print(f"  tracing overhead {values['trace.overhead_frac']:+.1%} "
              f"(traced vs untraced half, per-{raw['unit']} medians)")
        print(f"  trace: {trace_path}")
        out = {m["name"]: (values.get(m["name"], 0.0), m["unit"])
               for m in spec["per_layer"]}

    failed_frac = raw["failed"] / raw["attempted"] if raw["attempted"] else 1
    print(f"  {'failed_frac':<24}{failed_frac:>14.6g}        "
          f"{raw['failed']} of {raw['attempted']} {raw['unit']}s failed "
          f"their checks")
    for name, value in raw["figures"].items():
        print(f"  {name:<24}{value:>14.6g}")
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" +
              (f": {detail}" if detail else ""))
    correct = raw["failed"] == 0 and all(ok for _, ok, _ in checks)
    print(M.result_line(correct, raw["attempted"], raw["failed"], out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
