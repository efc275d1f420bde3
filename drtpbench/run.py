#!/usr/bin/env python3
"""The DRTP benchmark: one command for every workload (see README.md).

    python3 drtpbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 drtpbench/run.py --selftest

Run from the repository root. Builds the repository's libraries, the real
drtpd daemon and the benchmark program from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs the workload, and prints the result object as the last
stdout line. Exits nonzero on a build failure or a failed correctness check.
The traced run's spans go to <build>/spans.<workload>.jsonl and the daemon's
log to <build>/drtpd.<workload>.log; the run's other files are removed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-fig4", "engine-h1k", "drtpd-w60-closed", "drtpd-h1k-open-wal")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"drtpbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then rebuilds incrementally; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "drtpd",
                    "drtpbench", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the load client's own accounting")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "drtpbench")
    # Compiler and program temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    name = "selftest" if args.selftest else args.workload
    workdir = os.path.join(build_root, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "drtpbench"),
           f"--drtpd={os.path.join(build_dir, 'drtpd')}",
           f"--workdir={workdir}"]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += [f"--workload={args.workload}", f"--seed={args.seed}",
                f"--seconds={args.seconds}", f"--trace={args.trace}",
                f"--golden={os.path.join(HERE, 'golden', 'fig4_fast_seed1.jsonl')}"]
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{name} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        keep = {f"spans.{name}.jsonl": f"spans.{name}.jsonl",
                "drtpd.log": f"drtpd.{name}.log"}
        for src, dst in keep.items():
            if os.path.exists(os.path.join(workdir, src)):
                os.replace(os.path.join(workdir, src),
                           os.path.join(build_root, dst))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    if args.selftest or proc.returncode != 0:
        return proc.returncode or (0 if args.selftest else 1)

    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if want is not None and got != want:
        log(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
            f"{sorted(want.items())}")
        return 1
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
