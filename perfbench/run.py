#!/usr/bin/env python3
"""Measured benchmark of dfamr's three variants at equal cores.

Runs one workload in four layouts (serial, mpi_only, fork_join, tampi_oss),
each sample in a fresh process, for a fixed time budget; checks every
sample's outputs; and prints one metric per line followed by a final JSON
line {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload sphere_amr --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(untraced samples, then one traced run per layout, then the layer probes).
Metric names and units come from BENCHMARK.json at the repository root.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SAMPLER = os.path.join(BUILD_DIR, "perfbench_sample")

LAYOUTS = ["serial", "mpi_only", "fork_join", "tampi_oss"]
HYBRIDS = ["fork_join", "tampi_oss"]
MIN_ROUNDS = 3          # samples per layout even when a round overruns the budget
MIN_CALM = 3            # undisturbed samples wanted per layout
STEAL_LIMIT = 0.10      # a sample the hypervisor stole more CPU from is disturbed
EXTENSION = 0.6         # extra share of the budget spent replacing disturbed samples
SAMPLE_TIMEOUT_S = 30   # one sample process (a healthy one takes under 5 s)
SERIAL_REL_TOL = 1e-12  # checksum agreement with serial (summation order only)
MASS_TOL = 1e-12        # mass budget residual, relative to the initial mass (min 1)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and rebuilds the sampler from the checkout's sources."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "variants.hpp")):
        log("perfbench: dfamr sources (src/) not found next to perfbench/")
        sys.exit(2)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_sample"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def call_sampler(args):
    """Runs the sampler once. Returns its JSON line plus the hypervisor's
    steal share of all CPUs meanwhile, or {"error": ...}."""
    before = cpu_ticks()
    try:
        proc = subprocess.run([SAMPLER] + [str(a) for a in args], capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %d s" % SAMPLE_TIMEOUT_S}
    after = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        out = {}
    if proc.returncode != 0 or not out or "error" in out:
        return {"error": out.get("error") or "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])}
    if before and after and after[1] > before[1]:
        out["steal"] = (after[0] - before[0]) / (after[1] - before[1])
    return out


def reference(samples):
    """The checksum vector most samples of one layout agree on."""
    votes = collections.Counter(tuple(s["checksums"]) for s in samples
                                if "error" not in s and s["validation_ok"])
    return list(votes.most_common(1)[0][0]) if votes else None


def check_samples(by_layout):
    """Sets s["failure"] on every sample: None when its outputs are correct."""
    refs = {layout: reference(samples) for layout, samples in by_layout.items()}
    serial = next((s for s in by_layout.get("serial", [])
                   if "error" not in s and s["checksums"] == refs.get("serial")), None)
    for layout, samples in by_layout.items():
        for s in samples:
            s["failure"] = failure_of(s, refs[layout], serial)


def failure_of(s, layout_ref, serial):
    if "error" in s:
        return "raised: " + s["error"]
    if not s["validation_ok"]:
        return "checksum validation failed"
    if s["checksums"] != layout_ref:
        return "checksums not bit-identical to the layout's other samples"
    if serial is None:
        return "no correct serial sample to compare against"
    mine = [float.fromhex(c) for c in s["checksums"]]
    ref = [float.fromhex(c) for c in serial["checksums"]]
    if len(mine) != len(ref) or any(abs(a - b) > SERIAL_REL_TOL * abs(b) for a, b in zip(mine, ref)):
        return "checksums differ from serial by more than %g relative" % SERIAL_REL_TOL
    if s["conservative"]:
        if s["mass_drift"] != 0:
            return "mass drift %r after reflux" % s["mass_drift"]
        if abs(s["mass_budget_residual"]) > MASS_TOL * max(abs(s["initial_mass"]), 1.0):
            return "mass budget residual %r" % s["mass_budget_residual"]
    for key in ("flops", "final_blocks"):
        if s[key] != serial[key]:
            return "%s %d differs from serial's %d" % (key, s[key], serial[key])
    return None


def self_test(seed):
    """A run with an impossible checksum tolerance must count as failed."""
    s = call_sampler(["run", "uniform_static", "serial", seed, "--tol", "1e-300", "--tsteps", "1"])
    check_samples({"serial": [s]})
    return s["failure"] == "checksum validation failed"


def median(values):
    return statistics.median(values) if values else 0.0


def provenance(workload, seed, seconds):
    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return ""
    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "")
    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_root) if os.path.isdir(cache_root) else []):
        if index.startswith("index"):
            base = os.path.join(cache_root, index)
            kind = {"Data": "d", "Instruction": "i"}.get(read(base + "/type"), "")
            caches["L" + read(base + "/level") + kind] = read(base + "/size")
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True).stdout.strip() or rev
        except OSError:
            pass
    info = call_sampler(["info"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
        "compiler": info.get("compiler", "?"), "build_type": info.get("build_type", "?"),
        "git_rev": rev, "source_sha256": digest.hexdigest(),
    }


def calm(sample):
    return "error" not in sample and sample.get("steal", 0) <= STEAL_LIMIT


def measure(workload, seed, seconds):
    """Interleaved rounds of one sample per layout until the time budget is
    spent (at least MIN_ROUNDS), then extra samples of any layout with fewer
    than MIN_CALM undisturbed ones, for up to EXTENSION x the budget. On a
    virtual machine the hypervisor's steal comes in bursts of tens of
    seconds that slow 4-core samples up to 3x. Returns samples per layout."""
    by_layout = {layout: [] for layout in LAYOUTS}
    # Untimed warm-up: the first multi-threaded run after an idle machine
    # (the build, the self-test) is up to 2x slower on a virtual machine.
    call_sampler(["run", workload, "mpi_only", seed])
    start = time.monotonic()
    rounds = 0
    while True:
        for i in range(len(LAYOUTS)):
            layout = LAYOUTS[(rounds + i) % len(LAYOUTS)]  # rotate who runs first
            by_layout[layout].append(call_sampler(["run", workload, layout, seed]))
        rounds += 1
        elapsed = time.monotonic() - start
        # Stop before a round that would overrun the budget; a machine so
        # slow that MIN_ROUNDS take twice the budget stops early too.
        if (rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds) or elapsed > 2 * seconds:
            break
    extra = 0
    while time.monotonic() - start < seconds * (1 + EXTENSION):
        short = [l for l in LAYOUTS if sum(calm(s) for s in by_layout[l]) < MIN_CALM]
        if not short:
            break
        for layout in short:
            by_layout[layout].append(call_sampler(["run", workload, layout, seed]))
            extra += 1
    log("perfbench: %d rounds + %d replacement samples in %.1f s"
        % (rounds, extra, time.monotonic() - start))
    for layout in LAYOUTS:
        log("perfbench: %s wall_s (steal) %s" % (layout, " ".join(
            "%.3f(%.0f%%)" % (s["wall_s"], 100 * s.get("steal", 0)) if "error" not in s else "error"
            for s in by_layout[layout])))
    return by_layout


def timed(samples):
    """The correct samples timings come from: the undisturbed ones, or the
    MIN_CALM least disturbed when fewer remain."""
    undisturbed = [s for s in samples if calm(s)]
    if len(undisturbed) >= MIN_CALM:
        return undisturbed
    return sorted(samples, key=lambda s: s.get("steal", 0))[:MIN_CALM]


def end_to_end(good):
    use = {layout: timed(good[layout]) for layout in LAYOUTS}
    m = {"wall_s." + layout: median([s["wall_s"] for s in use[layout]]) for layout in LAYOUTS}
    m["setup_s"] = median([s["setup_s"] for s in use["serial"]])
    m["peak_rss_mb"] = max(median([s["peak_rss_mb"] for s in good[layout]]) for layout in LAYOUTS)
    info = {"gflops." + layout: median([s["gflops"] for s in use[layout]]) for layout in LAYOUTS}
    info.update({"samples." + layout: len(good[layout]) for layout in LAYOUTS})
    info.update({"samples_timed." + layout: len(use[layout]) for layout in LAYOUTS})
    return m, info


def per_layer(workload, seed, good, e2e):
    """Untraced counters, one traced run per layout, and the probes.
    Returns (metrics, failures); a layout without a correct sample is left
    out, and the caller reports its metrics as missing."""
    m, failures = {}, []
    if good["serial"]:
        serial = good["serial"][0]
        m["amr.flops"] = serial["flops"]
        m["amr.blocks_split"] = serial["blocks_split"]
        m["amr.blocks_merged"] = serial["blocks_merged"]
        m["amr.final_blocks"] = serial["final_blocks"]
        m["scenario.reflux_corrections"] = serial["reflux_corrections"]
        m["scenario.estimator_splits"] = serial["estimator_splits"]
    for layout in LAYOUTS:
        samples = good[layout]
        if not samples:
            continue
        ref = samples[0]
        m["amr.refine_s." + layout] = median([s["refine_s"] for s in samples])
        m["amr.blocks_moved." + layout] = ref["blocks_moved"]
        m["mpisim.messages." + layout] = ref["messages"]
        m["mpisim.bytes." + layout] = ref["bytes"]
        if layout != "tampi_oss":  # TAMPI+OSS overlaps phases: times.comm is 0 there
            m["core.comm_s." + layout] = median([s["comm_s"] for s in samples])
        if layout in HYBRIDS:
            for key in ("tasks", "steals", "parks"):
                m["tasking.%s.%s" % (key, layout)] = median([s[key] for s in samples])
            m["tasking.immediate_successor_ratio." + layout] = median(
                [s["immediate_successor_hits"] / max(s["tasks"], 1) for s in samples])

        traced = call_sampler(["run", workload, layout, seed, "--trace"])
        failure = traced_failure(traced, ref)
        if failure:
            failures.append("traced %s: %s" % (layout, failure))
            continue
        t = traced["trace"]
        busy = collections.defaultdict(float, t["busy_s"])
        for kind in ("stencil", "intra_copy", "pack", "unpack", "refine_split"):
            m["amr.%s_s.%s" % (kind, layout)] = busy[kind]
        m["mpisim.comm_wait_s." + layout] = busy["comm_wait"]
        m["mpisim.allreduce_s." + layout] = busy["checksum_reduce"]
        if layout == "tampi_oss":
            m["tampi.send_recv_s.tampi_oss"] = busy["send"] + busy["recv"]
        m["core.utilization." + layout] = t["utilization"]
        m["core.idle_gap_ms." + layout] = t["largest_idle_gap_ms"]
        m["core.refine_exchange_s." + layout] = busy["refine_exchange"]
        m["trace.overhead." + layout] = traced["wall_s"] / e2e["wall_s." + layout] - 1
        m["trace.events." + layout] = t["events"]

    probes = call_sampler(["probes", workload, seed])
    if "error" in probes:
        failures.append("probes: " + probes["error"])
    else:
        log("perfbench: probe details " + json.dumps(probes.pop("info")))
        m.update(probes)
    return m, failures


def traced_failure(traced, ref):
    """The traced run must measure the same program as the untraced ones."""
    if "error" in traced:
        return "raised: " + traced["error"]
    for key in ("checksums", "flops", "messages", "blocks_split", "reflux_corrections"):
        if traced[key] != ref[key]:
            return "%s differs from the untraced run" % key
    t = traced["trace"]
    if t["compute_busy_s"] > traced["cores"] * t["span_s"] * (1 + 1e-9):
        return "busy time %.3f s exceeds %d lanes x %.3f s span" % (
            t["compute_busy_s"], traced["cores"], t["span_s"])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42, help="workload seed (cfg.seed)")
    ap.add_argument("--seconds", type=float, default=25, help="measurement budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        sys.exit(2)
    build()
    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds), sort_keys=True))
    self_test_ok = self_test(args.seed)
    print("self-test: a run with an impossible tolerance %s counted as failed"
          % ("was" if self_test_ok else "was NOT"))

    by_layout = measure(args.workload, args.seed, args.seconds)
    check_samples(by_layout)
    attempted = sum(len(s) for s in by_layout.values())
    problems = ["%s sample %d: %s" % (layout, i, s["failure"])
                for layout, samples in by_layout.items() for i, s in enumerate(samples) if s["failure"]]
    good = {layout: [s for s in samples if s["failure"] is None] for layout, samples in by_layout.items()}
    e2e, info = end_to_end(good)
    if args.trace:
        metrics, trace_failures = per_layer(args.workload, args.seed, good, e2e)
        attempted += len(LAYOUTS) + 1
        problems += trace_failures
        wanted = bench["per_layer"]
        info.update(e2e)  # the untraced medians the overheads are relative to
    else:
        metrics, wanted = e2e, bench["end_to_end"]
    failed = len(problems)  # one per failed operation; the checks below are not operations
    if not self_test_ok:
        problems.append("self-test: a run with an impossible tolerance was not counted as failed")
    missing = [w["name"] for w in wanted if w["name"] not in metrics]
    if missing:
        problems.append("metrics not produced: " + ", ".join(missing))
    for p in problems:
        log("perfbench: FAILED " + p)

    for w in wanted:
        print("%-44s %16.6g %s" % (w["name"], metrics.get(w["name"], 0.0), w["unit"]))
    for name, value in sorted(info.items()):
        print("%-44s %16.6g (info)" % (name, value))
    print("attempted %d failed %d" % (attempted, failed))
    print(json.dumps({
        "correct": not problems and all(good.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics.get(w["name"], 0.0), "unit": w["unit"]} for w in wanted},
    }))


if __name__ == "__main__":
    main()
