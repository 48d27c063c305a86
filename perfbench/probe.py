"""Untimed output checks that need the program, in a fresh interpreter.

    python3 perfbench/probe.py JOB.json RESULT

1. Seeded basis triples (x, y, cover) go through ``eval_op`` (the
   ``mhag eval`` entry point).  The product x*y and the right-covered
   coproduct of x against the cover are compared with the closed forms of
   checks.py.
2. The workload's session with a planted defect (``corrupt``) is verified
   on the job's suites and must fail with a counterexample.

RESULT receives ``{"problems": [...]}``.
"""

import json
import random
import sys

import checks


def closed_form_problems(S, eval_op, job):
    law = checks.S3_LAW if job["closed_forms"] == "s3" else checks.Z_LAW
    gradings = [checks.grading_from_json(law, g) for g in job["gradings"]]
    if job["closed_forms"] == "s3":
        points = law.elements
    else:
        points = list(range(-2 * job["window"], 2 * job["window"] + 1))
    rng = random.Random(job["seed"])
    as_json = list if job["closed_forms"] == "s3" else int
    problems = []
    for _ in range(job["pairs"]):
        i, j = rng.randrange(len(gradings)), rng.randrange(len(gradings))
        x, y, cover = ((rng.choice(points), rng.choice(points))
                       for _ in range(3))
        x_j, y_j, c_j = ([[as_json(t[0]), as_json(t[1])]] for t in (x, y, cover))
        rows = eval_op(S, "dcp-mul", {"grading": i, "x": x_j, "y": y_j})
        problems += checks.check_eval_product(law, gradings[i], x, y,
                                              rows["result"])
        rows = eval_op(S, "comul-covered",
                       {"left": i, "right": j, "x": x_j, "cover": c_j})
        problems += checks.check_eval_coproduct(law, gradings[i], gradings[j],
                                                x, cover, rows["result"])
    return problems


def main(argv):
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from mhag import eval_op, run_verify, session_from_path

    problems = []
    if job["closed_forms"]:
        problems += closed_form_problems(session_from_path(job["session"]),
                                         eval_op, job)
    report = run_verify(session_from_path(job["planted_session"]),
                        job["planted_suites"])
    problems += checks.check_planted(report)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"problems": problems}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
