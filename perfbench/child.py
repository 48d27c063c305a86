"""One benchmark round in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH=src``:

    python3 perfbench/child.py JOB.json START_NS TRACE REPORT RESULT

``START_NS`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so set-up time counts interpreter start, imports
and session decoding.  With TRACE=1 the layers are wrapped first (see
tracer.py).

The child decodes the session, prints ``ready`` and waits for ``go`` on
standard input, so the parent can time its reference loop while the
program runs nothing.  It then runs the job's ``verify`` or ``export``
through the public entry points, renders the output with the CLI's
renderer and prints ``done``.  It writes the output to REPORT and its raw
timings to RESULT: seconds, and the ``time.monotonic_ns()`` bounds of
the work, which the parent needs to take out the time it held the
process stopped.  The parent scales every time (see run.py).
"""

import json
import resource
import sys
import time


def main(argv):
    job_path, start_ns, trace, report_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    import mhag
    from mhag import cli, export_structure, run_verify, session_from_path

    if not mhag.__file__.startswith(job["src"]):
        raise SystemExit(f"mhag imported from {mhag.__file__}, "
                         f"not from {job['src']}")
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.install()

    t_decode = time.perf_counter()
    S = session_from_path(job["session"])
    t_ready = time.perf_counter()
    setup_s = (time.monotonic_ns() - int(start_ns)) / 1e9

    print("ready", flush=True)
    if sys.stdin.readline() != "go\n":
        raise SystemExit("the parent did not send go")
    work_ns = [time.monotonic_ns()]
    if job["op"] == "verify":
        out = run_verify(S, job["suites"])
    else:
        out = export_structure(S)
    text = cli._dump(out)
    work_ns.append(time.monotonic_ns())
    print("done", flush=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if job["op"] == "verify":
        axioms = [a for s in out["suites"] for a in s["axioms"]]
        ops = len(axioms)
        failed = sum(a["status"] != "pass" for a in axioms)
        cases = sum(a["cases"] for a in axioms)
    else:
        ops = len(out["components"]) + len(out["splits"])
        failed = 0
        n = len(S.crossed_labels())
        cases = ops * n * n     # every component and split covers n x n pairs
    result = {"setup_s": setup_s, "decode_s": t_ready - t_decode,
              "work_ns": work_ns, "cases": cases, "ops": ops,
              "failed": failed, "peak_rss_mb": peak_rss_mb,
              "layers": tracer.metrics() if tracer else None}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
