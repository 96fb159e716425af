"""The eulab benchmark: closed-loop, cold-process workloads.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 60 --trace 0
    python3 bench/run.py                      # every workload, one after another
    python3 bench/run.py --full --seconds 1   # the ROADMAP's scale, once each

One client runs one job at a time.  Each repetition of a workload's job
list runs in a fresh child interpreter (``child.py``), one child at a time,
with a fixed PYTHONHASHSEED so layer counts repeat exactly.  Repetitions
continue while another one still fits in ``--seconds`` (at least one runs);
one repetition takes under half a second at the benchmark's job sizes.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (spawn to
``import eulab`` done, median over the repetitions' children), ``wall_s``
(each job's fastest time over the repetitions, summed over the workload's
jobs: on a shared host other tenants only ever add time, in spells of
seconds to minutes) and ``peak_rss_mb`` (the child's max RSS, median).  With
``--trace 1`` it runs one untraced and one traced repetition and reports
the per-layer metrics, the traced wall time and the tracing overhead.
Failed jobs over attempted jobs is ``fail_ratio``; it is printed and
carried by the ``attempted`` and ``failed`` fields of the result.

Every metric is printed as ``name value unit``; the last line is one JSON
object.  The exit code is 1 on any correctness failure, 2 when the program
under test cannot be found or a child dies.  Results, with nproc, the
Python version and the CPU model, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("verify-sweep", "class-scan", "grammar-deep")
CHILD_TIMEOUT_S = 170
# never repeat past this many seconds, whatever --seconds says
RUN_LIMIT_S = 150


class ChildFailed(RuntimeError):
    pass


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def spawn(args: list, env: dict) -> tuple:
    """Run one child to completion; return (setup seconds, its result)."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if Path(str(result["eulab"])).resolve().parent.parent != SRC:
        raise ChildFailed(f"child imported eulab from {result['eulab']}, not from {SRC}")
    return result["ready"] - started, result


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str, env: dict) -> dict:
    base = [workload, str(seed)]
    extra = [f"--{size}"] if size != "bench" else []
    if trace:
        _, plain = spawn(base + ["-"] + extra, env)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        _, traced = spawn(base + [str(path)] + extra, env)
        reps = [plain, traced]
        mismatch = sorted(k for k in plain["digests"]
                          if traced["digests"].get(k) != plain["digests"][k])
        metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    else:
        spawn(["--setup-only"], env)  # first start of a checkout compiles bytecode
        setups, reps = [], []
        began = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            setup, rep = spawn(base + ["-"] + extra, env)
            setups.append(setup)
            reps.append(rep)
            # stop before another repetition would end past --seconds
            now = time.perf_counter()
            if now - began + (now - t0) > min(seconds, RUN_LIMIT_S):
                break
        mismatch = []
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            # a job that raised has no time; the run then fails anyway
            "wall_s": (sum(min(r["job_s"][job] for r in reps if job in r["job_s"])
                           for job in reps[0]["job_s"]), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reps) / 1024, "MB"),
        }
    problems = [p for r in reps for p in r["problems"]]
    problems += [f"{k}: traced and untraced outputs differ" for k in mismatch]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps) + len(mismatch)
    return {"workload": workload, "seed": seed, "trace": trace, "repetitions": len(reps),
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "digests": reps[0]["digests"],
            "job_s": [r["job_s"] for r in reps]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sizes = parser.add_mutually_exclusive_group()
    sizes.add_argument("--tiny", action="store_const", dest="size", const="tiny", default="bench",
                       help="tiny job sizes, for self-tests")
    sizes.add_argument("--full", action="store_const", dest="size", const="full",
                       help="the job sizes of the ROADMAP's baseline table")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "eulab" / "__init__.py").is_file():
        print(f"error: the eulab sources are not at {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    # children keep compiled bytecode, as an installed CLI does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = environment()
    print(f"env nproc={info['nproc']} python={info['python']} cpu={info['cpu']}")
    runs = []
    try:
        for name in names:
            runs.append(measure(name, args.seed, args.seconds, bool(args.trace), args.size, env))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for run in runs:
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for problem in run["problems"]:
            print(f"FAIL {run['workload']}: {problem}", file=sys.stderr)
        print(f"{prefix}fail_ratio {run['failed'] / run['attempted']:.6g} ratio")
        for key, (value, unit) in run["metrics"].items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{prefix}{key} {shown} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        f"-{args.size}" if args.size != "bench" else "")
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"environment": info, "runs": runs}, fh, indent=1)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
