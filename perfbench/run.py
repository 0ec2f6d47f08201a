#!/usr/bin/env python3
"""Build and run the alsflow benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
alsflow libraries from src/ plus the benchmark binary (Release) into
.bench_build/perfbench; later runs rebuild incrementally.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(BENCHMARK.json lists both). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it report every metric with its sample count, the run facts
(nproc, pool size, build type, compiler, seed) and the correctness gates.
The exit code is non-zero when a gate fails, an operation fails, or the
program cannot be built; nothing is reported then.

--tiny runs small sizes, for the benchmark's own tests.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ("scan_recon", "viewer_mix", "beamline_shift", "fleet_campaign")

# scan_recon's thread pool (ALSFLOW_NUM_THREADS). On a 4-vCPU host shared
# with other tenants, a 4-thread parallel_for waits on whichever vCPU the
# hypervisor takes away, and per-run figures swung by +-30%; with 2 threads
# they stay within +-10%. The single-thread baseline uses 1.
SCAN_RECON_THREADS = "2"
SR, VM, BS, FC = WORKLOADS
SIMS = (BS, FC)
ALL = WORKLOADS

# End-to-end metrics, measured with tracing off. Each workload defines
# them on its own user-facing operation:
#   throughput_per_s  scan_recon: scans/s; viewer_mix: export slices/s;
#                     beamline_shift, fleet_campaign: simulated scans/s
#   latency_p50_s     scan_recon: preview (last on_frame -> finalize);
#                     viewer_mix: viewer submit -> slice in hand;
#                     beamline_shift, fleet_campaign: wall time per campaign
E2E = ("setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_s")

# Per-layer metrics of the traced run: (name, unit, workloads that
# measure it). A layer a workload does not exercise reports 0 there.
# "sim_s" are simulated seconds, exact for a seed.
_STAGES = ("acquisition", "transfer", "facility_queue", "recon", "publish",
           "orchestrate")
PER_LAYER = [
    # Workload-specific end-to-end numbers under their own names.
    ("scans_per_s", "1/s", (SR, BS, FC)),
    ("preview_s", "s", (SR,)),
    ("volume_s", "s", (SR,)),
    ("viewer_p50_s", "s", (VM,)),
    ("viewer_p99_s", "s", (VM,)),
    ("export_slices_per_s", "1/s", (VM,)),
    ("sim_turnaround_p50_s", "sim_s", SIMS),
    ("sim_turnaround_p99_s", "sim_s", SIMS),
    ("sim_preview_p50_s", "sim_s", (BS,)),
    # tomo / data / access / parallel on real pixels.
    ("tomo.on_frame_p50_s", "s", (SR,)),
    ("tomo.on_frame_p99_s", "s", (SR,)),
    ("tomo.finalize_s", "s", (SR,)),
    ("tomo.preview_plane_s", "s", (SR,)),
    ("tomo.preview_cuts_s", "s", (SR,)),
    ("tomo.fbp_ns_per_update", "ns", (SR,)),
    ("data.ah5_roundtrip_s", "s", (SR,)),
    ("data.ah5_bytes", "B", (SR,)),
    ("tomo.preprocess_s", "s", (SR,)),
    ("tomo.find_center_s", "s", (SR,)),
    ("tomo.gridrec_s", "s", (SR,)),
    ("tomo.gridrec_voxels_per_s", "1/s", (SR,)),
    ("data.pyramid_s", "s", (SR,)),
    ("data.pyramid_bytes", "B", (SR,)),
    ("access.register_s", "s", (SR,)),
    ("parallel.pool_threads", "count", (SR,)),
    ("parallel.speedup_on_frame", "ratio", (SR,)),
    ("parallel.speedup_preview", "ratio", (SR,)),
    ("parallel.speedup_gridrec", "ratio", (SR,)),
    ("tomo.preview_pearson", "r", (SR,)),
    ("tomo.volume_pearson", "r", (SR,)),
    # serve / access / parallel under concurrent viewers.
    ("serve.hit_ratio", "ratio", (VM,)),
    ("serve.evictions", "count", (VM,)),
    ("serve.revisit_misses", "count", (VM,)),
    ("parallel.posts_per_request", "ratio", (VM,)),
    ("serve.queue_wait_p50_s", "s", (VM,)),
    ("serve.queue_wait_p99_s", "s", (VM,)),
    ("serve.render_p50_s", "s", (VM,)),
    ("serve.render_p99_s", "s", (VM,)),
    ("access.slice_axis0_s", "s", (VM,)),
    ("access.slice_axis2_s", "s", (VM,)),
    ("serve.shed", "count", (VM,)),
    ("serve.rejected", "count", (VM,)),
    ("serve.degraded", "count", (VM,)),
    ("serve.max_queue_depth", "count", (VM,)),
    # sim engine and the orchestration layers on the sim clock.
    ("sim.events", "count", SIMS),
    ("sim.events_per_scan", "count", SIMS),
    ("sim.us_per_event_first_day", "us", (BS,)),
    ("sim.us_per_event_last_day", "us", (BS,)),
    ("sim.us_per_event", "us", (FC,)),
    ("hpc.slurm_pending_end", "count", (BS,)),
    ("hpc.nersc_inflight_max", "count", SIMS),
    ("hpc.nersc_queue_wait_p50_s", "sim_s", SIMS),
    ("hpc.alcf_queue_wait_p50_s", "sim_s", SIMS),
    ("hpc.cloud_queue_wait_p50_s", "sim_s", (FC,)),
    ("flow.runs", "count", (BS,)),
    ("flow.task_records", "count", (BS,)),
    ("transfer.files", "count", (BS,)),
    ("transfer.bytes", "B", (BS,)),
    ("transfer.retries", "count", (BS,)),
    ("catalog.datasets", "count", (BS,)),
    ("storage.beamline_files_end", "count", (BS,)),
    ("monitor.events", "count", (BS,)),
    ("monitor.alerts", "count", (BS,)),
    ("sched.placed_nersc", "count", (FC,)),
    ("sched.placed_alcf", "count", (FC,)),
    ("sched.placed_cloud", "count", (FC,)),
    ("sched.failovers", "count", (FC,)),
    ("sched.hedges", "count", (FC,)),
] + [
    ("stage.%s_%s_s" % (stage, q), "sim_s", (BS,))
    for stage in _STAGES for q in ("p50", "p99")
] + [
    ("telemetry.traced_slowdown", "ratio", ALL),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build into BUILD; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no alsflow sources (src/CMakeLists.txt) next to "
            "perfbench/; run from a repository checkout")
        return False
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(max(1, min(4, os.cpu_count() or 1)))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-40:]))
                log("perfbench: build failed (log: %s)" % build_log)
                return False
    return True


def run_binary(args, env=None):
    """Run the benchmark binary, echo its report, return its JSON line."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.stderr.strip():
        log(proc.stderr.rstrip())
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: no result line from %s (exit %d)" %
            (" ".join(args), proc.returncode))
        return None
    result["exit_code"] = proc.returncode
    return result


def speedups(traced, baseline):
    """Single-thread time / pool time of the three parallel kernels."""
    pairs = (("parallel.speedup_on_frame", "tomo.on_frame_p50_s"),
             ("parallel.speedup_preview", "tomo.finalize_s"),
             ("parallel.speedup_gridrec", "tomo.gridrec_s"))
    for name, kernel in pairs:
        one = baseline["metrics"][kernel]
        many = traced["metrics"][kernel]
        traced["metrics"][name] = {
            "value": one["value"] / many["value"], "unit": "ratio",
            "samples": min(one["samples"], many["samples"])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    opt = ap.parse_args()

    if not build():
        return 2
    args = ["--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", repr(opt.seconds), "--trace", str(opt.trace)]
    if opt.tiny:
        args.append("--tiny")
    if opt.trace:
        args += ["--spans", os.path.join(
            BUILD, "spans_%s_%d.json" % (opt.workload, opt.seed))]
    env = dict(os.environ)
    if opt.workload == SR:
        env["ALSFLOW_NUM_THREADS"] = SCAN_RECON_THREADS
    result = run_binary(args, env)
    if result is None:
        return 1
    runs = [result]
    if opt.trace and opt.workload == SR:
        # Single-threaded baseline of the same scans: parallel.speedup_*.
        env = dict(os.environ, ALSFLOW_NUM_THREADS="1")
        base_args = ["--workload", SR, "--seed", str(opt.seed), "--seconds",
                     repr(max(2.0, opt.seconds / 2)), "--baseline"]
        baseline = run_binary(base_args + (["--tiny"] if opt.tiny else []), env)
        if baseline is None:
            return 1
        runs.append(baseline)
        if baseline["correct"]:
            speedups(result, baseline)

    correct = all(r["correct"] and r["exit_code"] == 0 for r in runs)
    measured = result["metrics"]
    metrics, missing = {}, []
    if opt.trace:
        for name, unit, owners in PER_LAYER:
            if name in measured:
                metrics[name] = measured[name]
            elif opt.workload in owners:
                missing.append(name)
            else:
                metrics[name] = {"value": 0.0, "unit": unit, "samples": 0}
    else:
        for name in E2E:
            if name in measured:
                metrics[name] = measured[name]
            else:
                missing.append(name)
    if missing:
        log("perfbench: workload did not report %s" % ", ".join(missing))
        correct = False

    print("perfbench %s seed=%d trace=%d: %s" % (
        opt.workload, opt.seed, opt.trace,
        "correct" if correct else "INCORRECT"))
    for name, m in metrics.items():
        print("  %-32s %-14.6g %-8s n=%d" % (
            name, m["value"], m["unit"], m["samples"]))
    if not correct:
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
