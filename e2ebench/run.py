#!/usr/bin/env python3
"""End-to-end rfidcepd benchmark: one run of one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. Builds the daemon, the load generator and
the traced replay from source (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset, then:

  --trace 0  drives a real rfidcepd over loopback TCP (e2e_loadgen) and
             reports the end-to-end metrics;
  --trace 1  does the same run, then replays the workload's exact frames
             in process with per-layer spans (e2e_ledger) and reports the
             per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. See
e2ebench/README.md for the workloads, metrics and findings.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ack_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "recovery_s": "s",
}
# Printed on every --trace 0 run but not in the result line: their
# run-to-run spread on the recording host exceeds the largest bound
# (README.md, "Seed baseline").
NOT_GATED = {
    "max_obs_s": "obs/s",
    "shutdown_s": "s",
    "ack_p99_ms": "ms",
}
PER_LAYER = {
    "protocol.decode_ns_per_obs": "ns",
    "protocol.bytes_per_obs": "bytes",
    "server.residual_ms_p50": "ms",
    "server.ingest_stalls": "count",
    "detect.us_per_obs": "us",
    "detect.matches_per_obs": "ratio",
    "detect.pseudo_fired": "count",
    "detect.accepted_ratio": "ratio",
    "detect.live_entries_max": "count",
    "detect.pending_pseudo_max": "count",
    "shard.us_per_obs": "us",
    "shard.speedup": "ratio",
    "shard.skew": "ratio",
    "actions.us_per_firing": "us",
    "actions.firings_per_obs": "ratio",
    "sql.us_per_stmt": "us",
    "sql.rows_per_obs": "ratio",
    "wal.append_us": "us",
    "wal.bytes_per_obs": "bytes",
    "wal.sync_ms": "ms",
    "recovery.wal_replay_ms": "ms",
    "snapshot.serialize_ms": "ms",
    "snapshot.bytes": "bytes",
    "snapshot.restore_ms": "ms",
    "gen.lag_p99_ms": "ms",
    "ledger.unattributed_frac": "ratio",
}
WORKLOADS = ("supply_chain", "baggage_ooo", "sharded_checkpoint")
# The run's programs, after the build, must end within this many seconds
# together: a run must end within 180 s once the build is done.
RUN_BUDGET_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the three programs; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rfidcep sources under " + os.path.join(ROOT, "src"))
    log_path = os.path.join(build_dir, "build.log")
    # The compiler's temporary files stay in the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
                fail("cmake configure failed; see " + log_path)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
               "rfidcepd", "e2e_loadgen", "e2e_ledger"]
        if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
            fail("build failed; see " + log_path)
    return {
        "daemon": os.path.join(build_dir, "rfidcep", "server", "rfidcepd"),
        "loadgen": os.path.join(build_dir, "e2e_loadgen"),
        "ledger": os.path.join(build_dir, "e2e_ledger"),
    }


def run_json(cmd, what, save_as, deadline):
    """Runs one step, which must end by `deadline` (time.monotonic()), and
    returns the JSON object on its last stdout line, which it also writes
    to `save_as`."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(what + " timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing (exit %d): %s" %
             (what, proc.returncode, proc.stderr.strip()[-2000:]))
    with open(save_as, "w") as out:
        out.write(lines[-1] + "\n")
    return json.loads(lines[-1]), proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    programs = build(build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = os.path.join(build_dir, "runs", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--seconds=%d" % args.seconds]
    e2e, code = run_json(
        [programs["loadgen"]] + common +
        ["--daemon=" + programs["daemon"],
         "--dir=" + os.path.join(run_dir, "e2e")],
        "e2e_loadgen", os.path.join(run_dir, "e2e.json"), deadline)
    errors = list(e2e["errors"])
    if code != 0:
        errors.append("e2e_loadgen exited %d" % code)

    if args.trace:
        ledger, code = run_json(
            [programs["ledger"]] + common +
            ["--dir=" + os.path.join(run_dir, "ledger")],
            "e2e_ledger", os.path.join(run_dir, "ledger.json"), deadline)
        errors += ledger["errors"]
        if code != 0:
            errors.append("e2e_ledger exited %d" % code)
        # The replay must have done exactly the work the daemon reported.
        for mine, theirs in zip(ledger["tenants"], e2e["tenants"]):
            for a, b in (("accepted", "observations"),
                         ("firings", "rules_fired"),
                         ("sql_stmts", "sql_actions")):
                if mine[a] != theirs[b]:
                    errors.append(
                        "ledger %s %d != daemon %s %d (tenant %s)" %
                        (a, mine[a], b, theirs[b], theirs["name"]))
        ledger["server.residual_ms_p50"] = (e2e["ack_p50_ms"] -
                                            ledger["frame_p50_ms"])
        ledger["server.ingest_stalls"] = e2e["ingest_stalls"]
        ledger["gen.lag_p99_ms"] = e2e["gen_lag_p99_ms"]
        values, units = ledger, PER_LAYER
    else:
        values, units = e2e, END_TO_END

    attempted, failed = e2e["attempted"], e2e["failed"]
    print("workload %s seed %d: %d observations, %d ack samples at "
          "%.0f obs/s; generator: %d thread(s), %d connection(s), "
          "nproc %d, %.0f%% busy at saturation" %
          (args.workload, args.seed, e2e["observations"], e2e["ack_samples"],
           e2e["fixed_rate_obs_s"], e2e["threads"], e2e["connections"],
           e2e["nproc"], 100 * e2e["gen_sat_cpu_frac"]))
    for name, unit in units.items():
        print("  %-28s %14.6g %s" % (name, values[name], unit))
    if not args.trace:
        for name, unit in NOT_GATED.items():
            print("  %-28s %14.6g %s (not gated)" % (name, e2e[name], unit))
    print("  %-28s %14.6g ratio (%d of %d frames)" %
          ("failed_frac", failed / max(attempted, 1), failed, attempted))
    for e in errors:
        print("  error: " + e)
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
