"""One repetition of a benchmark workload, in a fresh interpreter.

    child.py --setup-only
    child.py WORKLOAD SEED TRACE_PATH|- [--tiny|--full]

The first statement after ``import eulab`` reads the clock, so the parent
can time interpreter start plus ``import eulab``: the cold-start cost every
CLI call pays.  The child prints one JSON line on stdout and nothing else.
With a TRACE_PATH the jobs run under the tracer, whose spans go to that
file and whose per-layer metrics go into the JSON line.
"""

import time

import eulab

READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402


def run_jobs(jobs, tracer=None) -> dict:
    """Run jobs one at a time.  Only the jobs are timed; each output is
    checked after its job, against its oracle and its recorded digest.  A
    job that raises or fails a check counts as failed."""
    job_s = {}
    failed = 0
    problems = []
    digests = {}
    for job in jobs:
        try:
            with tracer.job(job.name) if tracer else nullcontext():
                t0 = perf_counter()
                out = job.run()
                job_s[job.name] = perf_counter() - t0
            text, errs = job.check(out)
            digests[job.name] = workloads.digest(text)
        except Exception:  # the job's own failure; report it and go on
            failed += 1
            problems.append(f"{job.name} raised:\n{traceback.format_exc()}")
            continue
        del out
        want = workloads.DIGESTS.get(job.name)
        if want is not None and want != digests[job.name]:
            errs.append(f"{job.name}: output digest {digests[job.name]} != recorded {want}")
        if errs:
            failed += 1
            problems.extend(errs)
    return {"wall_s": sum(job_s.values()), "job_s": job_s, "attempted": len(jobs), "failed": failed,
            "problems": problems, "digests": digests}


def main(argv) -> None:
    if "--setup-only" in argv:
        print(json.dumps({"ready": READY, "eulab": eulab.__file__}))
        return
    workload, seed, trace_path = argv[0], int(argv[1]), argv[2]
    size = (workloads.TINY if "--tiny" in argv
            else workloads.FULL if "--full" in argv else workloads.BENCH)
    jobs = workloads.jobs(workload, seed, size)
    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer()
    result = run_jobs(jobs, tracer)
    result["ready"] = READY
    result["eulab"] = eulab.__file__
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(trace_path)
        result["metrics"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
