#!/usr/bin/env python3
"""Wall-clock serving benchmark: build, run, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload chat_decode --seed 7 --seconds 20 --trace 0

Builds perfbench/ (which pulls in the repository's library build) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
ckv_perfbench driver on one workload and prints, as the last stdout line,
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics; the traced run also writes a Chrome trace-event file of
its spans and validates it with tools/check_trace.py. A stamp line (host
core count, pool workers, build type, LTO and native-arch flags, compiler,
commit) precedes the result, and every result is appended to
results.jsonl in the build directory. perfbench/RATIONALE.md documents
the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("chat_decode", "contended_tiered")
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log(f"perfbench: error: {message}")
    sys.exit(code)


def run_checked(command, timeout, what, env=None):
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout,
                              env=env)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    except OSError as error:
        fail(f"{what} could not start: {error}")
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log(proc.stderr[-4000:])
        fail(f"{what} exited with code {proc.returncode}")
    return proc


def build(root, build_dir):
    """Configures once, then (re)builds the driver; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found on PATH")
    # The compiler's (and LTO's) temporary files stay inside the build tree.
    scratch = os.path.join(build_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = [cmake, "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_checked(command, BUILD_TIMEOUT_S, "cmake configure", env)
    jobs = str(max(1, os.cpu_count() or 1))
    run_checked([cmake, "--build", build_dir, "--target", "ckv_perfbench", "-j", jobs],
                BUILD_TIMEOUT_S, "cmake build", env)
    binary = os.path.join(build_dir, "ckv_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def source_digest(root):
    """sha256 over the library sources and build files (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base in ("src", "perfbench"):
        for directory, _, files in os.walk(os.path.join(root, base)):
            paths += [os.path.join(directory, f) for f in files]
    for path in sorted(paths):
        if path.endswith((".cpp", ".hpp", ".txt", ".py")):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")) or shutil.which("git") is None:
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric_names(root, key):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[key]]


LAYER_ROWS = (
    ("core.cluster", "core.cluster.ms"),
    ("core.select", "core.select.ms"),
    ("kvcache (release + cancel)", "kvcache.ms"),
    ("model.oracle", "model.oracle_ms"),
    ("model.synth (timed outside)", "model.synth_ms"),
    ("serve.serial", "serve.serial_ms"),
    ("residual (outside tick)", "layers.residual_ms"),
)


def layer_table(metrics):
    drain = metrics["layers.drain_ms"]["value"]
    lines = [f"traced drain at 1 worker: {drain:.1f} ms"]
    total = 0.0
    for label, key in LAYER_ROWS:
        value = metrics[key]["value"]
        total += value
        share = value / drain if drain > 0 else 0.0
        lines.append(f"  {label:<30} {value:10.2f} ms  {100 * share:6.2f}%")
    lines.append(f"  {'sum':<30} {total:10.2f} ms  (drain - sum = {drain - total:.3f} ms)")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = os.getcwd()
    for required in ("CMakeLists.txt", "src", "BENCHMARK.json", "tools/check_trace.py"):
        if not os.path.exists(os.path.join(root, required)):
            fail(f"run from the repository root: {required} is missing", 2)

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build_dir = os.path.abspath(os.path.join(root, build_dir))
    started = time.monotonic()
    binary = build(root, build_dir)
    log(f"perfbench: build ready in {time.monotonic() - started:.1f} s")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = run_checked(command, args.seconds + RUN_MARGIN_S, "ckv_perfbench")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    info = raw["info"]

    correct = bool(raw["correct"])
    spans = info.get("spans")
    if args.trace:
        check = subprocess.run([sys.executable, os.path.join(root, "tools", "check_trace.py"),
                                spans, "--min-events", "2"],
                               capture_output=True, text=True, timeout=120)
        log(check.stdout.strip())
        if check.returncode != 0:
            log(check.stderr.strip())
            correct = False
        if info["traced_digest"] != info["digest"]:
            log("perfbench: traced and untraced digests differ")
            correct = False

    wanted = metric_names(root, "per_layer" if args.trace else "end_to_end")
    missing = [name for name in wanted if name not in raw["metrics"]]
    if missing:
        fail(f"driver did not report {missing}")
    metrics = {name: raw["metrics"][name] for name in wanted}

    stamp = {
        "nproc": os.cpu_count(),
        "workers": info["workers"],
        "build_type": info["build_type"],
        "lto": info["lto"],
        "native_arch": info["native_arch"],
        "compiler": info["compiler"],
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
    record = {"stamp": stamp, "trace": args.trace, "info": info, "metrics": raw["metrics"],
              "correct": correct}
    with open(os.path.join(build_dir, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    log(f"perfbench: {args.workload} seed {args.seed}: {info['drains']} drains, sessions "
        f"offered {info['sessions_offered']}, finished {info['sessions_finished']}, "
        f"shed {info['sessions_shed']}, aborted {info['sessions_aborted']}, "
        f"digest {info['digest']} ({info['digest_mismatches']} mismatching drains)")
    if args.trace:
        log(layer_table(raw["metrics"]))
        log(f"spans: {spans}")
    else:
        log(f"tick_wall_ms_tail is p{info['tail_percentile']:g} over {info['ticks_timed']} "
            f"pooled ticks ({info['ticks_per_drain']} per drain, {info['drains']} drains)")
    print("# stamp " + json.dumps(stamp))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
