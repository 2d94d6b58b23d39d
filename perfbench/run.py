"""toxtraj benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload topics-6k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The benchmark builds the
workload's inputs from ``toxtraj.synth`` three times (``setup_s`` is the
median), then runs timed rounds, each in a fresh child process with a fresh
output directory, until ``--seconds`` have passed; at least one round runs.
The first round's outputs are checked against the benchmark's own
computations (``checks.py``); every later round must hash identically.
With ``--trace 1`` one more round runs with timing wrappers installed and
the per-layer metrics are reported in place of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os

# At most nproc compute threads: BLAS is pinned to one thread, and the
# workloads set toxtraj's own ``workers`` to at most 2.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import hash_tree, run_checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_round(operations, round_dir: Path, trace: bool) -> dict:
    """One timed round in a fresh child process; returns its result.
    ``operations(out_dir)`` gives the CLI calls the round makes."""
    out_dir = round_dir / "out"
    out_dir.mkdir(parents=True)
    job = {
        "src": str(SRC),
        "ops": operations(out_dir),
        "out_dir": str(out_dir),
        "trace": trace,
        "log": str(round_dir / "cli.log"),
        "result": str(round_dir / "result.json"),
    }
    job_path = round_dir / "job.json"
    job_path.write_text(json.dumps(job, indent=2))
    env = dict(os.environ, TMPDIR=str(round_dir), **BLAS_THREADS)
    stderr_path = round_dir / "stderr.log"
    with open(stderr_path, "w") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=CHILD_TIMEOUT_S,
        )
    result_path = round_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = stderr_path.read_text()[-2000:]
        raise RuntimeError(f"child exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["hashes"] = hash_tree(out_dir)
    result["out_dir"] = out_dir
    result["stderr"] = stderr_path.read_text()
    return result


def print_spans(spans: dict) -> None:
    print("traced spans (inclusive s, self s, calls):")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} {row['s']:9.4f} {row['self_s']:9.4f} {row['calls']:7d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toxtraj" / "__init__.py").is_file():
        print(f"perfbench: no toxtraj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS, operations, setup

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        in_dir = run_dir / "inputs"
        setup_times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            setup(workload, args.seed, in_dir)
            setup_times.append(time.perf_counter() - started)

        def round_ops(out_dir):
            return operations(workload, in_dir, out_dir, args.seed)

        rounds = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(run_round(round_ops, run_dir / f"round{len(rounds)}", False))
        for i, r in enumerate(rounds):
            print(f"round {i}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                  f"peak rss {r['peak_rss_mb']:.1f} MB")
        traced = None
        if args.trace:
            traced = run_round(round_ops, run_dir / "traced", True)
            rounds_checked = rounds + [traced]
        else:
            rounds_checked = rounds

        ops = [op for r in rounds_checked for op in r["ops"]]
        failed_ops = [op["op"] for op in ops if not op["ok"]]
        problems = []
        first = rounds[0]
        results, report = run_checks(in_dir, first["out_dir"])
        any_failed = not all(op["ok"] for op in first["ops"])
        for name, found in results.items():
            if any_failed:
                found = [p for p in found if "FileNotFoundError" not in p]
            print(f"check {name}: {'ok' if not found else 'FAILED'}")
            problems += [f"{name}: {p}" for p in found]
        for key, value in report.items():
            print(f"reported {key}: {value}")
        for i, r in enumerate(rounds_checked[1:], start=1):
            if r["hashes"] != first["hashes"]:
                differ = sorted(k for k in set(r["hashes"]) | set(first["hashes"])
                                if r["hashes"].get(k) != first["hashes"].get(k))
                problems.append(f"round {i} output hashes differ from round 0: {differ}")
        print("output hashes: " + ", ".join(f"{k}={v[:12]}" for k, v in first["hashes"].items()))
        for p in problems:
            print(f"PROBLEM {p}")
        if failed_ops:
            print(f"failed operations: {failed_ops}")
            print(first["stderr"][-2000:])

        if traced is None:
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
                "setup_s": statistics.median(setup_times),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        else:
            untraced = statistics.median(r["wall_s"] for r in rounds)
            overhead = traced["wall_s"] - untraced
            print(f"tracing overhead: traced wall {traced['wall_s']:.3f} s - untraced median "
                  f"{untraced:.3f} s = {overhead:+.3f} s ({100 * overhead / untraced:+.1f}%)")
            if traced["missing_hooks"]:
                print(f"hooks not found, their metrics read 0: {traced['missing_hooks']}")
            print_spans(traced["spans"])
            units = dict(tracing.LAYER_METRICS)
            metrics = {k: {"value": v, "unit": units[k]} for k, v in traced["layers"].items()}
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": len(failed_ops),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
