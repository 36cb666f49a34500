#!/usr/bin/env python3
"""The repository benchmark: the `cmd/experiments -all` paper sweep.

    python3 sweepbench/run.py --workload paper-cold --seed 2025 --seconds 30 --trace 0

Run from the root of a checkout. It builds sweepbench/ (a Go module of its
own over the repository's packages) into .bench_build/, then runs the sweep
in fresh processes for --seconds and prints one JSON object as the last line
of stdout: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Everything else goes to stderr. See sweepbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sweepbench")
BIN = os.path.join(BUILD, "sweepbench")
TESTDATA = os.path.join(HERE, "testdata")

# --seed picks the model sampling seed of the sweep (the hint split stays the
# paper's). 2025 is the paper's own: its tables equal `cmd/experiments -all`
# byte for byte. Any other --seed maps onto POOL: sampling seeds vetted to
# run the whole schedule, with cold and warm costs within ~5% of one another
# (two interleaved passes over 8 candidates). Unvetted seeds can run away:
# 2, 7 and 23 loop for minutes in a Linear ablation search, and 14
# overflows the stack in kernel.FullResolveS. Warm cost alone varies 2x
# across seeds with the mirror sample.
PAPER_SEED = 2025
POOL = (5, 6, 10)

WORKLOADS = ("paper-cold", "paper-record", "paper-warm")

END_TO_END = {
    "sweep_s": "s",
    "units_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "units": "count",
}

# Per-layer metrics read from the untraced sweeps of a --trace 1 run: the
# program's own counters, which instrumentation would disturb or not move.
PLAIN_LAYERS = {
    "corpus.load_s": "s",
    "store.open_s": "s",
    "store.outcome_hits": "count",
    "store.outcome_misses": "count",
    "store.mirror_checks": "count",
    "store.recorded": "count",
    "store.dropped": "count",
    "store.disk_bytes": "bytes",
    "core.trycache_hits": "count",
    "core.trycache_misses": "count",
    "kernel.intern_hits": "count",
    "kernel.intern_misses": "count",
    "runtime.alloc_mb": "MB",
    "runtime.mallocs": "count",
    "runtime.gc_cycles": "count",
    "runtime.gc_cpu_fraction": "ratio",
}

# Per-layer metrics read from the traced sweeps.
TRACED_LAYERS = {
    "prompt.cache_build_s": "s",
    "prompt.build_calls": "count",
    "prompt.build_s": "s",
    "prompt.tokens": "count",
    "eval.grid_s": "s",
    "eval.ablation_s": "s",
    "eval.probe_s": "s",
    "eval.wholeproof_s": "s",
    "eval.tables_s": "s",
    "eval.restrict_env_s": "s",
    "eval.self_s": "s",
    "core.searches": "count",
    "core.search_s": "s",
    "core.self_s": "s",
    "core.search_ms_p50": "ms",
    "core.search_ms_p99": "ms",
    "core.queries": "count",
    "core.expanded": "count",
    "core.invalid_rejected": "count",
    "core.invalid_duplicate": "count",
    "core.invalid_timeout": "count",
    "core.useful_ratio": "ratio",
    "core.proved": "count",
    "core.stuck": "count",
    "core.fuelout": "count",
    "model.propose_calls": "count",
    "model.propose_s": "s",
    "model.candidates": "count",
    "model.propose_us_p50": "us",
    "model.propose_us_p99": "us",
    "checker.newdoc_calls": "count",
    "checker.try_calls": "count",
    "checker.try_s": "s",
    "checker.applied": "count",
    "checker.rejected": "count",
    "checker.timeout": "count",
    "checker.try_us_p50": "us",
    "checker.try_us_p99": "us",
    "store.flush_s": "s",
    "store.close_s": "s",
    "trace.unattributed_pct": "%",
}

# Computed here from both kinds of sweep, and around the run.
RUN_LAYERS = {
    "trace.overhead_pct": "%",
    "host.canary_ms_before": "ms",
    "host.canary_ms_after": "ms",
}

# A run ends within 180 s: the budget below leaves room for the build check,
# the canaries and the clean-up.
RUN_BUDGET_S = 165
SETUP_SAMPLES = 5


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def go_env():
    # Keep everything the go command writes (build cache, temporary files,
    # telemetry counters under the user config directory) inside the
    # checkout, and never reach for a toolchain or module download.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(
        os.environ,
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        raise BenchError("no go.mod at %s: run from a checkout of the repository" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    p = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    if p.returncode != 0:
        raise BenchError("go build failed:\n" + p.stdout)


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.work = os.path.join(BUILD, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.n = 0
        self.seed = sampling_seed(args.seed)

    def remaining(self):
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def call(self, flags):
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        try:
            p = subprocess.run([BIN, "-seed", str(self.seed)] + flags, cwd=self.work,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("sweep process exceeded the run budget: %s" % flags)
        if p.returncode != 0:
            raise BenchError("sweep process failed (%s):\n%s" % (flags, p.stderr[-4000:]))
        return json.loads(p.stdout.strip().splitlines()[-1])

    def fresh_store(self, primed):
        """A store directory in the state the workload starts from (None: no store)."""
        if self.args.workload == "paper-cold":
            return None
        d = os.path.join(self.work, "store-%d" % self.n)
        shutil.rmtree(d, ignore_errors=True)
        if self.args.workload == "paper-warm":
            shutil.copytree(primed, d)
        return d

    def sweep(self, primed=None, traced=False, store=None):
        """One fresh-process sweep; returns its result with its files' contents.

        store names a directory the caller keeps; by default the sweep gets
        a fresh one in the workload's starting state, removed afterwards.
        """
        self.n += 1
        out = os.path.join(self.work, "out-%d.txt" % self.n)
        verdicts = os.path.join(self.work, "verdicts-%d.txt" % self.n)
        flags = ["-out", out, "-verdicts", verdicts]
        fresh = store is None
        if fresh:
            store = self.fresh_store(primed)
        if store:
            flags += ["-store", store]
        trace = os.path.join(self.work, "trace-%d.json" % self.n) if traced else None
        if trace:
            flags += ["-trace", trace]
        t = time.monotonic()
        res = self.call(flags)
        res["wall"] = time.monotonic() - t
        res["traced"] = traced
        res["trace_file"] = trace
        with open(out) as f:
            res["output"] = f.read()
        with open(verdicts) as f:
            res["verdict_lines"] = f.read().splitlines()
        if fresh and store:
            shutil.rmtree(store, ignore_errors=True)
        return res

    def setup_only(self, primed):
        self.n += 1
        store = self.fresh_store(primed)
        res = self.call(["-setup-only"] + (["-store", store] if store else []))
        if store:
            shutil.rmtree(store, ignore_errors=True)
        return res["metrics"]["setup_s"]

    def canary(self):
        p = subprocess.run([BIN, "-canary"], stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        return float(p.stdout.strip())


def sampling_seed(seed):
    if seed == PAPER_SEED or seed in POOL:
        return seed
    return POOL[seed % len(POOL)]


def golden(seed):
    """The known-good digest, unit count and tables of a sampling seed."""
    with open(os.path.join(TESTDATA, "golden.json")) as f:
        g = json.load(f).get(str(seed))
    if g is not None:
        with open(os.path.join(TESTDATA, "tables-seed%d.txt" % seed)) as f:
            g["output"] = f.read()
    return g


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(args):
    build()
    r = Runner(args)
    try:
        return measure(args, r)
    finally:
        shutil.rmtree(r.work, ignore_errors=True)


def measure(args, r):
    canary_before = r.canary()
    log("host canary before: %.2f ms" % canary_before)

    primed, primer = None, None
    if args.workload == "paper-warm":
        # Prime once: a recording sweep into an empty store. Every measured
        # sweep starts from a copy of this state.
        primed = os.path.join(r.work, "primed")
        primer = r.sweep(store=primed)
        log("primed store: %d outcomes recorded in %.2f s" % (
            primer["metrics"]["store.recorded"], primer["metrics"]["sweep_s"]))

    setups = [r.setup_only(primed) for _ in range(SETUP_SAMPLES)]

    # A closed loop of fresh processes until --seconds are spent: untraced
    # sweeps, alternating with traced ones under --trace 1.
    kinds = [False, True] if args.trace else [False]
    min_sweeps = 2 if args.trace else 3
    sweeps = []
    t0 = time.monotonic()
    est = {}
    while True:
        traced = kinds[len(sweeps) % len(kinds)]
        guess = est.get(traced, est.get(False, 0))
        if len(sweeps) >= min_sweeps and time.monotonic() + guess > t0 + args.seconds:
            break
        s = r.sweep(primed=primed, traced=traced)
        est[traced] = s["wall"]
        sweeps.append(s)
    canary_after = r.canary()
    log("host canary after: %.2f ms" % canary_after)

    plain = [s for s in sweeps if not s["traced"]]
    traced = [s for s in sweeps if s["traced"]]
    correct, failed, problems = check(args, sweeps, primer, r.seed)
    for p in problems:
        log("CHECK FAILED: " + p)
    attempted = sum(s["units"] for s in sweeps)

    def med(group, name):
        return statistics.median(s["metrics"].get(name, 0.0) for s in group)

    setups += [s["metrics"]["setup_s"] for s in sweeps]
    values = {}
    if not args.trace:
        for name in END_TO_END:
            values[name] = statistics.median(setups) if name == "setup_s" else med(plain, name)
        units = END_TO_END
    else:
        for name in PLAIN_LAYERS:
            values[name] = med(plain, name)
        for name in TRACED_LAYERS:
            values[name] = med(traced, name)
        values["trace.overhead_pct"] = 100 * (med(traced, "sweep_s") / med(plain, "sweep_s") - 1)
        values["host.canary_ms_before"] = canary_before
        values["host.canary_ms_after"] = canary_after
        units = dict(PLAIN_LAYERS, **TRACED_LAYERS, **RUN_LAYERS)
        keep_trace(args, traced[-1])

    times = [s["metrics"]["sweep_s"] for s in plain]
    q1, q3 = quartiles(times)
    log("%s seed %d (sampling seed %d): %d untraced + %d traced sweeps; sweep_s median %.3f [q1 %.3f, q3 %.3f]; digest %s" % (
        args.workload, args.seed, r.seed, len(plain), len(traced), statistics.median(times), q1, q3,
        sweeps[0]["digest"][:16]))
    record(args, sweeps, primer, setups, canary_before, canary_after, values)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def check(args, sweeps, primer, seed):
    """The correctness oracle. Returns (correct, failed units, problems).

    Every sweep must replay all its Proved scripts through the kernel, and
    agree verdict for verdict with the priming sweep (paper-warm) or the
    run's first sweep, and in digest and tables byte for byte with the
    seed's golden files. Failed units are counted over measured sweeps.
    """
    problems = []
    ref = primer or sweeps[0]
    gold = golden(seed)
    if gold is None:
        problems.append("no golden files for sampling seed %d" % seed)
        gold = {"digest": ref["digest"], "output": ref["output"]}
    failed = 0
    for i, s in enumerate(([primer] if primer else []) + sweeps):
        bad = s["replay_failed"]
        bad += sum(a != b for a, b in zip(s["verdict_lines"], ref["verdict_lines"]))
        bad += abs(len(s["verdict_lines"]) - len(ref["verdict_lines"]))
        if s["digest"] != gold["digest"] or s["output"] != gold["output"]:
            problems.append("sweep %d: digest or tables differ from the golden files" % i)
            bad = s["units"]
        if s["replay_failed"]:
            problems.append("sweep %d: %d proved scripts fail kernel replay" % (i, s["replay_failed"]))
        if s["mirror_mismatches"]:
            problems.append("sweep %d: %d proof-store mirror mismatches" % (i, s["mirror_mismatches"]))
        if s is primer:
            continue
        if args.workload == "paper-warm" and s["metrics"]["store.outcome_misses"]:
            problems.append("sweep %d: %d warm outcome misses" % (i, s["metrics"]["store.outcome_misses"]))
        failed += min(bad, s["units"])
    return not problems and failed == 0, failed, problems


def keep_trace(args, sweep):
    d = os.path.join(BUILD, "traces")
    os.makedirs(d, exist_ok=True)
    dst = os.path.join(d, "%s-seed%d.json" % (args.workload, args.seed))
    shutil.move(sweep["trace_file"], dst)
    log("trace written to %s" % os.path.relpath(dst, ROOT))


def record(args, sweeps, primer, setups, canary_before, canary_after, values):
    """Append the run, canaries beside it, to .bench_build/sweepbench/runs.jsonl."""
    strip = ("output", "verdict_lines")
    rec = {
        "time": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "sampling_seed": sampling_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "canary_ms": [canary_before, canary_after],
        "setups_s": setups,
        "primer": {k: v for k, v in primer.items() if k not in strip} if primer else None,
        "sweeps": [{k: v for k, v in s.items() if k not in strip} for s in sweeps],
        "values": values,
    }
    with open(os.path.join(BUILD, "runs.jsonl"), "a") as f:
        f.write(json.dumps(rec) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=2025, help="sampling seed (2025: the paper's artifact)")
    ap.add_argument("--seconds", type=int, default=30, help="how long to keep starting sweeps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced sweeps")
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("sweepbench: %s" % e)
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
