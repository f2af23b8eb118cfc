"""skewmori benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/skewmori` and
`BENCHMARK.json` there).  Ops run one at a time from this one process, with
SKEWMORI_THREADS unset, pinned to one CPU together with their child processes.

--trace 0 runs ops for S seconds, times the set-up in fresh interpreters
between them, and reports the end-to-end metrics of BENCHMARK.json, with
every time scaled to reference speed by the speed probe of `pace.py`.
--trace 1 runs a fixed number of (untraced op, traced op) pairs, so that its
counts repeat exactly for a given seed, and reports the per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the run's provenance (Python, nproc, commit, seed).
Everything, with the per-op samples and the full trace, is also written to
.bench_out/.  The exit code is 0 when every op's answer checked out, 1 when
one did not, and 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import pace
import reference
import workloads
from tracer import layer_metrics

SETUP_SAMPLES = 11
HARD_LIMIT_S = 170  # every run must end within 180 s


def provenance(root, args):
    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_used": args.workload != "gkz-a8",
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


def time_setup(checkout, workload, deadline, setups, failures):
    """Add one sample (start, wall seconds) from process start to the end of the set-up."""
    start = perf_counter()
    code, _, stderr, wall, _ = checkout.spawn([sys.executable, "-c", workload.setup_code],
                                              deadline)
    if code != 0:
        failures.append(f"set-up exit code {code}: {stderr[-300:].decode(errors='replace')}")
    else:
        setups.append((start, wall))


def timed_run(checkout, workload, args, deadline, failures):
    setups, ops = [], []
    # The set-up samples are spread over the run, between ops, so that they
    # see the same machine as the ops do.
    with pace.Probe() as probe:
        start = perf_counter()
        while perf_counter() - start < args.seconds:
            if len(setups) < min(SETUP_SAMPLES, 1 + (perf_counter() - start)
                                 * SETUP_SAMPLES / args.seconds):
                time_setup(checkout, workload, deadline, setups, failures)
                continue
            longest = max((o.wall for o in ops), default=0.0)
            if perf_counter() + longest > deadline:
                break
            ops.append(workload.op(deadline))
        while len(setups) < SETUP_SAMPLES and perf_counter() < deadline and not failures:
            time_setup(checkout, workload, deadline, setups, failures)
    good = [o for o in ops if o.ok]
    metrics, raw = {}, {}
    if good and setups:
        # Every time is scaled to reference speed by the probe's reading
        # over that op or set-up; `raw` keeps the times as measured.
        slow = {id(o): probe.slowdown(o.start, o.start + o.wall) for o in ops}
        walls = [o.wall / slow[id(o)] for o in good]
        setup_times = [wall / probe.slowdown(t, t + wall) for t, wall in setups]
        metrics = {
            "setup_s": median(setup_times),
            "op_s.p50": median(walls),
            "ops_per_s": len(good) / sum(o.wall / slow[id(o)] for o in ops),
            "cpu_s.p50": median(o.cpu / slow[id(o)] for o in good),
            "peak_rss_mb": max(o.rss_kb for o in ops) / 1024,
        }
        if len(walls) >= 100:
            metrics["op_s.p90"] = quantiles(walls, n=10)[8]
        raw = {
            "setup_s": median(wall for _, wall in setups),
            "op_s.p50": median(o.wall for o in good),
            "cpu_s.p50": median(o.cpu for o in good),
            "slowdown.p50": median(slow.values()),
        }
    return ops, metrics, {"setup_samples": setups, "raw": raw,
                          "probe_samples": len(probe.samples)}


def traced_run(checkout, workload, args, deadline, failures):
    ops = []
    for _ in range(workload.trace_pairs):
        began = perf_counter()
        ops += [workload.op(deadline), workload.op(deadline, traced=True)]
        if 2 * perf_counter() - began > deadline:
            break  # another pair would not finish in time
    plain = [o.wall for o in ops if o.ok and not o.traced]
    traced = [o.wall for o in ops if o.ok and o.traced]
    trace = workload.trace()
    metrics = {}
    if plain and traced:
        metrics = layer_metrics(trace, len(traced), reference.VERIFY_CHECKS)
        metrics["trace.overhead_ratio"] = median(traced) / median(plain)
    return ops, metrics, {"trace": trace}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "skewmori" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a skewmori checkout "
              "(src/skewmori and BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.pop("SKEWMORI_THREADS", None)
    info = provenance(root, args)  # before pinning, so that it records nproc
    cpu = pace.pin_to_one_cpu()
    checkout = workloads.Checkout(root)
    workload = workloads.make(args.workload, checkout, args.seed)
    deadline = started + HARD_LIMIT_S
    failures = []
    warm = workload.setup()
    if warm is not None:
        failures.append(f"warm-up: {warm}")
    run = traced_run if args.trace else timed_run
    ops, measured, detail = run(checkout, workload, args, deadline, failures)

    attempted = len(ops) + len(failures)
    failed = sum(not o.ok for o in ops) + len(failures)
    metrics = {}
    if measured:
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    result = {"correct": failed == 0 and bool(ops) and bool(metrics),
              "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}

    info["pinned_cpu"] = cpu
    info["raw"] = detail.get("raw")
    info["ops"] = len(ops)
    info["elapsed_s"] = perf_counter() - started
    info["failures"] = (failures + [o.reason for o in ops if not o.ok])[:20]
    for extra in sorted(set(measured) - {m["name"] for m in wanted}):
        info[extra] = measured[extra]
    record = {"info": info, "result": result, "all_metrics": measured,
              "ops": [{"start": o.start, "wall": o.wall, "cpu": o.cpu, "rss_kb": o.rss_kb,
                       "traced": o.traced, "ok": o.ok} for o in ops], **detail}
    out = checkout.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
