#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then starts one process per
sample of the chosen workload, two at a time with each pinned to its own
CPU, for about `--seconds`: a round of samples starts only if it is expected
to end in time, and at least three rounds run. Every sample pays its own
setup and owns its peak RSS. Each sample prints one JSON line;
this script checks them and prints, as the last line of standard output, one
JSON object: `correct`, `attempted`, `failed`, `metrics`.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
each the mean over the samples, except `setup_s`, which is the fastest
sample's. With `--trace 1` samples come in pairs, one untraced and one
traced (their CPUs swap from pair to pair); the metrics are the per-layer
metrics of BENCHMARK.json, means over the traced samples, plus the tracing
overhead (traced minus untraced `total_s`).

Means, not medians, across samples: a shared virtual machine can run in
speed phases that shift a sample's figures by 20-50%, and the median of a
mix of two phases jumps from one phase's value to the other's as the mix
passes one half, while the mean moves in proportion to it. Set-up lasts
micro- to milliseconds and is the most exposed to those phases (and, for a
durable store, to the disk's): its per-sample figures are bimodal or
heavy-tailed, and across samples only their minimum repeated between runs.
Repeated measurements inside one sample (setup, verification) are medians.

Correctness: every sample's own checks pass, and every sample of one seed,
traced or not, reports identical deterministic outputs (decision
fingerprint, state ratio, virtual latencies, per-shard sheds, bytes per
session, WAL bytes per update, operation counts).

Artifacts (all samples, the aggregate, one trace in the v1 text format that
`trace_dump` renders) go to `$CARGO_TARGET_DIR/perfbench-out/`.
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
WORKLOADS = ("fabric_fanin", "conflict_churn", "ingest_restart")
# Fewest rounds of samples a run takes, even past --seconds, so every
# figure rests on several samples.
MIN_ROUNDS = 3
# No new sample starts after this many seconds of measuring, so one run
# always ends well inside three minutes.
START_DEADLINE_S = 130
# A single sample that takes longer than this is killed and the run fails.
SAMPLE_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def start_sample(binary, args, traced, scratch, trace_out, cpu):
    """Starts one sample process pinned to `cpu`."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed), "--scratch", scratch]
    if traced:
        command.append("--traced")
        if trace_out:
            command += ["--trace-out", trace_out]
    return subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )


def finish_sample(process, deadline):
    """Waits for a sample process and parses its result line."""
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return None, f"sample timed out after {SAMPLE_TIMEOUT_S}s"
    lines = stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"sample exited {process.returncode} without a result"
    if process.returncode != 0:
        return sample, f"sample exited {process.returncode}"
    return sample, None


def mean_of(samples, section, name):
    values = [s[section][name] for s in samples if s[section].get(name) is not None]
    return statistics.fmean(values) if values else None


def min_of(samples, section, name):
    values = [s[section][name] for s in samples if s[section].get(name) is not None]
    return min(values) if values else None


def main():
    args = parse_args()
    spec = load_spec()
    target = target_dir()
    binary = build(target)

    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = os.path.join(out_dir, f"scratch-{args.workload}-{args.seed}-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace")

    # Samples run two at a time, one pinned to each of two CPUs: each CPU's
    # speed swings on its own from second to second, and a run that samples
    # both sees more of the swings average out. A traced run pairs one
    # untraced and one traced sample and swaps their CPUs every round.
    cpus = sorted(os.sched_getaffinity(0))[:2]
    problems = []
    samples = []
    start = time.monotonic()
    rounds = 0
    round_seconds = []
    running = []
    try:
        while True:
            # Start another round only if it is expected to end within
            # --seconds, so a run measures for about --seconds and never
            # much longer.
            elapsed = time.monotonic() - start
            expected = statistics.median(round_seconds) if round_seconds else 0.0
            if rounds >= MIN_ROUNDS and elapsed + expected > args.seconds:
                break
            if rounds >= 1 and elapsed >= START_DEADLINE_S:
                break
            round_start = time.monotonic()
            kinds = [False, True] if args.trace else [False] * len(cpus)
            for lane in range(0, len(kinds), len(cpus)):
                for offset, traced in enumerate(kinds[lane : lane + len(cpus)]):
                    cpu = cpus[(offset + rounds) % len(cpus)]
                    first_trace = traced and not any(s["traced"] for s in samples)
                    scratch_lane = os.path.join(scratch, f"cpu{cpu}")
                    trace_out = trace_file if first_trace else None
                    running.append(start_sample(binary, args, traced, scratch_lane, trace_out, cpu))
                deadline = time.monotonic() + SAMPLE_TIMEOUT_S
                while running:
                    sample, problem = finish_sample(running.pop(0), deadline)
                    if problem:
                        problems.append(problem)
                    if sample is not None:
                        samples.append(sample)
            if problems:
                break
            rounds += 1
            round_seconds.append(time.monotonic() - round_start)
    finally:
        for process in running:
            process.kill()
            process.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    measured_s = time.monotonic() - start

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    if not untraced:
        problems.append("no sample completed")

    for s in samples:
        for check in s["checks"]:
            if not check["ok"]:
                problems.append(f"check {check['name']} failed: {check['detail']}")
    for s in samples[1:]:
        for key in sorted(set(s["stable"]) | set(samples[0]["stable"])):
            if s["stable"].get(key) != samples[0]["stable"].get(key):
                problems.append(
                    f"runs of seed {args.seed} disagree on {key}: "
                    f"{samples[0]['stable'].get(key)} vs {s['stable'].get(key)}"
                )

    metrics = {}
    if args.trace == 0:
        for metric in spec["end_to_end"]:
            aggregate = min_of if metric["name"] == "setup_s" else mean_of
            value = aggregate(untraced, "e2e", metric["name"]) if untraced else None
            if value is None or not value > 0:
                problems.append(f"end-to-end metric {metric['name']} missing or not positive")
                value = 0.0 if value is None else value
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    else:
        if not traced:
            problems.append("no traced sample completed")
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_s":
                value = (
                    mean_of(traced, "e2e", "total_s") - mean_of(untraced, "e2e", "total_s")
                    if traced and untraced
                    else None
                )
            elif name in ("orchestra.session_p50_ms", "orchestra.session_p99_ms"):
                key = "reconcile_p50_ms" if name.endswith("p50_ms") else "reconcile_p99_ms"
                value = mean_of(untraced, "e2e", key) if untraced else None
            else:
                value = mean_of(traced, "layers", name) if traced else None
            if value is None:
                problems.append(f"per-layer metric {name} missing")
                value = 0.0
            metrics[name] = {"value": value, "unit": metric["unit"]}

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    correct = not problems
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }

    with open(os.path.join(out_dir, f"results-{tag}.json"), "w") as f:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "measured_s": measured_s,
                "samples": samples,
                "problems": problems,
                "result": result,
            },
            f,
            indent=1,
        )

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced + "
        f"{len(traced)} traced samples in {measured_s:.1f}s, "
        f"{attempted} operations, {failed} failed"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
