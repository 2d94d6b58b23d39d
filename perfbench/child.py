"""One timed round, run in a fresh process: ``python3 child.py JOB_JSON``.

The job names the source tree, the CLI calls to make and where to write the
result. The child imports toxtraj before the clock starts, optionally
installs the tracing wrappers, makes the calls through ``toxtraj.cli.main``
and writes wall time, CPU time, peak RSS and per-call outcomes as JSON.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import toxtraj.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"toxtraj was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    recorder = None
    if job["trace"]:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    out_dir = Path(job["out_dir"])
    outcomes = []
    with open(job["log"], "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for op in job["ops"]:
            code = cli.main(op["argv"])
            if "stages" in op:
                manifest = out_dir / "manifest.json"
                done = set()
                if manifest.is_file():
                    done = {s["name"] for s in json.loads(manifest.read_text())["stages"]}
                outcomes += [{"op": f"{op['name']}.{s}", "ok": s in done} for s in op["stages"]]
            else:
                outcomes.append({"op": op["name"], "ok": code == 0})
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcomes,
    }
    if recorder is not None:
        output_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        result["layers"] = recorder.layer_metrics(output_bytes)
        result["spans"] = recorder.totals()
        result["missing_hooks"] = recorder.missing
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
