"""Check that the working tree writes the same outputs as a base revision.

    python3 tools/compare_outputs.py --base HEAD~1

Runs ``perfbench/run.py --workload W --seed S --seconds 0 --trace 0`` for
every workload in ``BENCHMARK.json`` at seeds 1-3, once in this checkout
(uncommitted edits included) and once in a temporary directory that holds
REV's files, extracted with ``git archive``, and compares the runs' "output
hashes:" lines file by file. It writes nothing under ``.git/``. It prints
each file whose hash differs, and exits 1 on any difference or on a run that
fails or reports a problem. Each run is one benchmark round, so the whole
comparison takes some minutes. It first prints the line totals of
``src/toxtraj/*.py`` at REV and in the working tree, counting newlines as
``wc -l`` does.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
HASHES_PREFIX = "output hashes: "


def run_hashes(tree: Path, workload: str, seed: int) -> tuple[dict[str, str], list[str]]:
    """The output hashes of one benchmark round in ``tree``, and its problems."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    problems = [line for line in lines if line.startswith("PROBLEM")]
    if proc.returncode != 0:
        problems.append(f"exit status {proc.returncode}: {proc.stderr[-1000:]}")
    hashes = {}
    for line in lines:
        if line.startswith(HASHES_PREFIX):
            hashes = dict(item.split("=", 1) for item in line[len(HASHES_PREFIX):].split(", ") if item)
    if not hashes:
        problems.append("no output hashes line")
    return hashes, problems


def source_lines(rev: str | None = None) -> int:
    """Newlines in ``src/toxtraj/*.py`` at ``rev``, or in the working tree."""
    if rev is None:
        return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "toxtraj").glob("*.py"))

    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout

    names = git("ls-tree", "--name-only", rev, "src/toxtraj/").decode().split()
    return sum(git("show", f"{rev}:{name}").count(b"\n") for name in names if name.endswith(".py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    base_lines, lines = source_lines(args.base), source_lines()
    print(f"src/toxtraj/*.py: {base_lines} lines at {args.base}, {lines} in the working tree ({lines - base_lines:+d})")
    differ = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        for workload in workloads:
            for seed in SEEDS:
                here, here_problems = run_hashes(ROOT, workload, seed)
                there, there_problems = run_hashes(base, workload, seed)
                changed = sorted(k for k in here.keys() | there.keys() if here.get(k) != there.get(k))
                problems = [f"working tree: {p}" for p in here_problems] + [f"{args.base}: {p}" for p in there_problems]
                status = "identical" if not changed and not problems else "DIFFERENT"
                print(f"{workload} seed {seed}: {status} ({len(here)} files here, {len(there)} at {args.base})")
                for name in changed:
                    print(f"  differs: {name}  {there.get(name, '-')} -> {here.get(name, '-')}")
                for problem in problems:
                    print(f"  problem: {problem}")
                differ = differ or status != "identical"
                sys.stdout.flush()
    print("outputs differ" if differ else "all outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
