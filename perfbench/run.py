"""Benchmark of ``mhag verify`` and ``mhag export``.  See README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file and must
hold ``src/mhag``.  Each round runs the workload once in a fresh
single-threaded interpreter (child.py, ``PYTHONPATH=src``, no
``MHAG_THREADS``), so every round pays the cold caches a CLI user pays.
Rounds repeat until ``--seconds`` have passed (whole rounds only; at
least two rounds of each kind the run makes, so their outputs and counts
can be compared).

``--trace 0`` prints the end-to-end metrics (medians over rounds).
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones, the tracing overhead and the raw
wall ``run_s`` of the untraced ones.

Every time is scaled to a reference speed of the host, because other
tenants of a shared machine change the speed of the same code by up to
60 % within seconds.  The parent times a fixed pure-Python loop
(``reference_loop``) right before a round's work, right after it and, in
untraced rounds, every ``SAMPLE_EVERY_S`` seconds during it.  For a
sample during the work it stops the child's whole process group with
SIGSTOP and resumes it with SIGCONT, so the program runs nothing while
the loop is timed, however many processes or threads it uses, and the
time it was held is taken out of ``run_s``.  Times are multiplied by
``REF_NOMINAL_S`` times the mean of 1/sample over the round.  Traced
rounds are sampled at their two ends only, so no stop falls inside a
span.  Raw wall seconds are kept under ``wall``.

Outside the timed rounds the outputs are checked apart from the program
(checks.py, probe.py).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  One operation
is one axiom check of ``verify`` or one exported component or split.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import EXACT, PER_LAYER
from workloads import INTEGER_WINDOW, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {"setup_s": "s", "run_s": "s", "cases_per_s": "1/s",
              "peak_rss_mb": "MB"}

DEADLINE_S = 170          # a run must end within 180 s
PROBE_PAIRS = 150         # seeded basis pairs per closed-form probe

# What one reference loop takes at the speed the reference figures in
# README.md were measured at.
REF_NOMINAL_S = 0.025
SAMPLE_EVERY_S = 0.25


def reference_loop() -> float:
    """Seconds taken by a fixed loop of dict updates and integer
    arithmetic."""
    t = time.perf_counter()
    acc = {}
    for i in range(100_000):
        k = i & 1023
        acc[k] = acc.get(k, 0) + i * i
    return time.perf_counter() - t


def _overlap_s(a, b) -> float:
    return max(0, min(a[1], b[1]) - max(a[0], b[0])) / 1e9


def _sample_stopped(proc) -> tuple:
    """Time the reference loop while the child's process group is
    stopped.  Returns (the sample or None if the child had ended, the
    monotonic bounds of the stop)."""
    os.killpg(proc.pid, signal.SIGSTOP)
    t_stop = time.monotonic_ns()
    try:
        info = os.waitid(os.P_PID, proc.pid,
                         os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        sample = reference_loop() if info.si_code == os.CLD_STOPPED else None
    finally:
        os.killpg(proc.pid, signal.SIGCONT)
    return sample, (t_stop, time.monotonic_ns())


def _round(argv, traced: bool, env, deadline: float, err_path: Path) -> dict:
    """Run one round in a fresh interpreter (child.py) and return its
    result with every time scaled to the reference speed."""
    def remaining():
        return max(0.0, deadline - time.monotonic())

    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), argv[0],
             str(time.monotonic_ns()), "1" if traced else "0"] + argv[1:],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=err, bufsize=0, start_new_session=True)
    try:
        if (not select.select([proc.stdout], [], [], remaining())[0]
                or proc.stdout.readline() != b"ready\n"):
            raise RuntimeError("child.py failed during set-up")
        samples = [reference_loop()]
        pauses = []
        proc.stdin.write(b"go\n")
        while not select.select([proc.stdout], [], [],
                                min(SAMPLE_EVERY_S, remaining()))[0]:
            if not remaining():
                raise subprocess.TimeoutExpired(proc.args, DEADLINE_S)
            if not traced:
                sample, pause = _sample_stopped(proc)
                pauses.append(pause)
                if sample is not None:
                    samples.append(sample)
        proc.wait(timeout=remaining())
        samples.append(reference_loop())
    finally:
        if proc.poll() is None:         # failed or past the deadline
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace"))
        raise RuntimeError(f"child.py exited with {proc.returncode}")

    r = json.loads(Path(argv[2]).read_text())
    work = r.pop("work_ns")
    run_s = (work[1] - work[0]) / 1e9 - sum(_overlap_s(p, work)
                                            for p in pauses)
    scale = REF_NOMINAL_S * statistics.mean(1 / s for s in samples)
    if r["layers"]:
        r["layers"] = {name: value * scale if PER_LAYER[name][0] == "s"
                       else value for name, value in r["layers"].items()}
    r.update(wall={"setup_s": r["setup_s"], "run_s": run_s},
             ref_samples=samples, setup_s=r["setup_s"] * scale,
             decode_s=r["decode_s"] * scale, run_s=run_s * scale)
    return r


def _spawn(script: str, args, env, deadline: float) -> None:
    """Run a benchmark child to completion; raise if it fails."""
    proc = subprocess.run([sys.executable, str(HERE / script)] + args,
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} exited with {proc.returncode}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # The rounds run in sessions of their own; a terminated run still ends
    # them (in _round's clean-up).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "mhag" / "__init__.py").is_file():
        sys.stderr.write(f"error: {src / 'mhag'} is missing; run from a "
                         f"checkout of the repository\n")
        return 2

    wl = WORKLOADS[args.workload]
    spec = wl.session(args.seed)
    tmp = OUT / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    _write_json(tmp / "session.json", spec)
    _write_json(tmp / "job.json", {"op": wl.op, "suites": wl.suites,
                                   "session": str(tmp / "session.json"),
                                   "src": str(src)})
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("MHAG_THREADS", None)

    try:
        rounds = []          # (traced, result, digest)
        kinds = 2 if args.trace else 1
        first_report = None
        t0 = time.monotonic()
        while time.monotonic() - t0 < args.seconds or len(rounds) < 2 * kinds:
            for traced in ((False, True) if args.trace else (False,)):
                report = tmp / "report.json"
                result = _round([str(tmp / "job.json"), str(report),
                                 str(tmp / "result.json")], traced, env,
                                deadline, tmp / "child.err")
                data = report.read_bytes()
                rounds.append((traced, result,
                               hashlib.sha256(data).hexdigest()))
                if first_report is None:
                    first_report = json.loads(data)

        problems = checks.check_identical(d for _, _, d in rounds)
        if wl.op == "verify":
            problems += checks.check_report(first_report, wl.suites)
        else:
            problems += checks.check_export(checks.S3_LAW, spec["gradings"],
                                            first_report)
        del first_report
        if wl.planted:
            _write_json(tmp / "planted.json", dict(spec, corrupt=wl.planted[0]))
            _write_json(tmp / "probe-job.json", {
                "session": str(tmp / "session.json"),
                "gradings": spec["gradings"],
                "closed_forms": wl.closed_forms,
                "window": INTEGER_WINDOW, "seed": args.seed,
                "pairs": PROBE_PAIRS,
                "planted_session": str(tmp / "planted.json"),
                "planted_suites": wl.planted[1]})
            _spawn("probe.py", [str(tmp / "probe-job.json"),
                                str(tmp / "probe.json")], env, deadline)
            problems += json.loads((tmp / "probe.json").read_text())["problems"]
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for traced, r, _ in rounds if not traced]
    traced = [r for is_traced, r, _ in rounds if is_traced]
    med = lambda rs, key: statistics.median(r[key] for r in rs)
    wall_run_s = statistics.median(r["wall"]["run_s"] for r in plain)
    if args.trace:
        layers = [r["layers"] for r in traced]
        for name in EXACT:
            if len({json.dumps(lay[name]) for lay in layers}) > 1:
                problems.append(f"{name} differs between traced rounds")
        values = {name: layers[0][name] if name in EXACT
                  else statistics.median(lay[name] for lay in layers)
                  for name in layers[0]}
        values["session.decode_s"] = med(traced, "decode_s")
        values["trace.overhead_s"] = med(traced, "run_s") - med(plain, "run_s")
        values["wall.run_s"] = wall_run_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"setup_s": med(plain, "setup_s"),
                  "run_s": med(plain, "run_s"),
                  "cases_per_s": statistics.median(r["cases"] / r["run_s"]
                                                   for r in plain),
                  "peak_rss_mb": med(plain, "peak_rss_mb")}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    summary = {"correct": not problems,
               "attempted": sum(r["ops"] for _, r, _ in rounds),
               "failed": sum(r["failed"] for _, r, _ in rounds),
               "metrics": metrics}
    kind = "traced" if args.trace else "untraced"
    _write_json(OUT / f"{wl.name}-seed{args.seed}-{kind}.json",
                dict(summary, workload=wl.name, seed=args.seed,
                     seconds=args.seconds, session=spec, problems=problems,
                     rounds=[dict(r, traced=t, digest=d)
                             for t, r, d in rounds]))
    for msg in problems:
        sys.stderr.write(f"check failed: {msg}\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'(raw wall run_s, unscaled)':40s} {wall_run_s:.6g} s")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
