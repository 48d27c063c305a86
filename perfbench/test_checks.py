"""Each output checker accepts a correct output and rejects a perturbed one.

    python3 perfbench/test_checks.py          (or: python3 -m pytest perfbench)

The correct outputs are built from the closed forms in the program's JSON
shapes, so these tests need neither ``mhag`` nor a benchmark run.
"""

import copy
import json
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import S3_LAW as G  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

ID = "identity"
INNER = {"kind": "inner", "by": [1, 2, 0]}
INNER2 = {"kind": "inner", "by": [1, 0, 2]}
GRADINGS = [[ID, ID], [INNER, INNER2]]
BASIS = [(p, h) for p in G.elements for h in G.elements]


def lab(x):
    return [list(x[0]), list(x[1])]


def aut_map_json(spec):
    phi = checks.aut_from_json(G, spec)
    return {"kind": "map", "images": [[list(x), list(phi(x))]
                                      for x in G.elements]}


def grading_json(pair):
    return [ID if a == ID else aut_map_json(a) for a in pair]


def closed_form_export(gradings):
    """An export as the program writes it, computed from the closed forms."""
    auts = [checks.grading_from_json(G, g) for g in gradings]
    components = []
    for spec, g in zip(gradings, auts):
        entries = [[lab(x), lab(y), lab(z), str(c)]
                   for x in BASIS for y in BASIS
                   for z, c in checks.product(G, g, x, y).items()]
        components.append({"grading": grading_json(spec), "mul": entries})
    splits = []
    for ps, p in zip(gradings, auts):
        for qs, q in zip(gradings, auts):
            images = [[lab(x), lab(c),
                       [[list(a) for a in k] + [str(v)] for k, v in
                        checks.coproduct(G, p, q, x, c).items()]]
                      for x in BASIS for c in BASIS]
            splits.append({"left": grading_json(ps), "right": grading_json(qs),
                           "side": "right", "images": images})
    return {"gradings": [grading_json(g) for g in gradings],
            "components": components, "splits": splits}


def report(status="pass", cases=5, suites=("hopf", "oracle"), ce=None):
    return {"status": status,
            "suites": [{"name": s, "axioms": [
                {"axiom": f"{s}-law", "status": status, "cases": cases,
                 "counterexample": ce}]} for s in suites]}


class ClosedFormTests(unittest.TestCase):
    def test_eval_product(self):
        g = checks.grading_from_json(G, GRADINGS[1])
        for x in BASIS[:12]:
            for y in BASIS[::5]:
                want = checks.product(G, g, x, y)
                rows = [[list(a) for a in k] + [str(c)] for k, c in want.items()]
                self.assertEqual(checks.check_eval_product(G, g, x, y, rows),
                                 [])
                bad = rows + [[list(x[0]), list(y[1]), "1"]] if not rows else \
                    [rows[0][:-1] + ["2"]]
                self.assertTrue(checks.check_eval_product(G, g, x, y, bad))

    def test_eval_coproduct(self):
        p, q = (checks.grading_from_json(G, s) for s in GRADINGS)
        x, c = BASIS[7], BASIS[20]
        rows = [[list(a) for a in k] + ["1"]
                for k in checks.coproduct(G, q, p, x, c)]
        self.assertEqual(checks.check_eval_coproduct(G, q, p, x, c, rows), [])
        swapped = [[rows[0][2], rows[0][3], rows[0][0], rows[0][1], "1"]]
        self.assertTrue(checks.check_eval_coproduct(G, q, p, x, c, swapped))
        self.assertTrue(checks.check_eval_coproduct(G, q, p, x, c,
                                                    rows + rows))

    def test_integer_closed_forms(self):
        Z = checks.Z_LAW
        neg = checks.grading_from_json(Z, ["negation", "identity"])
        # (p, x)(q, y) is nonzero exactly when p == q + 2x under (-1, 1).
        self.assertEqual(checks.product(Z, neg, (1, 2), (-3, 3)),
                         {(1, 5): Fraction(1)})
        self.assertEqual(checks.product(Z, neg, (1, 2), (5, 3)), {})


class ExportTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.good = closed_form_export(GRADINGS)

    def test_accepts_closed_forms(self):
        self.assertEqual(checks.check_export(G, GRADINGS, self.good), [])

    def test_rejects_wrong_product_entry(self):
        bad = copy.deepcopy(self.good)
        bad["components"][1]["mul"][3][3] = "2"
        self.assertTrue(checks.check_export(G, GRADINGS, bad))

    def test_rejects_missing_product_entry(self):
        bad = copy.deepcopy(self.good)
        del bad["components"][0]["mul"][10]
        self.assertTrue(checks.check_export(G, GRADINGS, bad))

    def test_rejects_wrong_coproduct_image(self):
        bad = copy.deepcopy(self.good)
        row = next(img[2][0] for img in bad["splits"][2]["images"]
                   if img[2][0][0] != img[2][0][2])
        row[0], row[2] = row[2], row[0]
        self.assertTrue(checks.check_export(G, GRADINGS, bad))
        bad = copy.deepcopy(self.good)
        bad["splits"][1]["images"][9][2][0][-1] = "-1"
        self.assertTrue(checks.check_export(G, GRADINGS, bad))

    def test_rejects_missing_image(self):
        bad = copy.deepcopy(self.good)
        del bad["splits"][3]["images"][0]
        self.assertTrue(checks.check_export(G, GRADINGS, bad))

    def test_rejects_gradings_out_of_order(self):
        bad = copy.deepcopy(self.good)
        bad["components"].reverse()
        self.assertTrue(checks.check_export(G, GRADINGS, bad))
        self.assertTrue(checks.check_export(G, GRADINGS[:1], self.good))


class AlgebraTests(unittest.TestCase):
    def table(self, spec):
        g = checks.grading_from_json(G, spec)
        return {(x, y): checks.product(G, g, x, y) for x in BASIS for y in BASIS}

    def test_accepts_components(self):
        for spec in GRADINGS:
            self.assertEqual(checks.check_algebra(G, self.table(spec)), [])

    def test_rejects_non_associative(self):
        t = self.table(GRADINGS[1])
        # A product of two non-identity group parts: the unit law never
        # uses it, so only associativity can catch the change.
        x, y = next((x, y) for (x, y), v in t.items()
                    if v and x[1] != G.e and y[1] != G.e)
        t[(x, y)] = {z: 2 * c for z, c in t[(x, y)].items()}
        problems = checks.check_algebra(G, t)
        self.assertTrue(problems and "associative" in problems[0], problems)

    def test_rejects_missing_unit(self):
        problems = checks.check_algebra(G, {})      # associative, no unit
        self.assertTrue(problems and "unit" in problems[0], problems)


class ReportTests(unittest.TestCase):
    def test_report(self):
        self.assertEqual(checks.check_report(report(), ["hopf", "oracle"]), [])
        self.assertTrue(checks.check_report(report(status="fail"),
                                            ["hopf", "oracle"]))
        self.assertTrue(checks.check_report(report(cases=0),
                                            ["hopf", "oracle"]))
        self.assertTrue(checks.check_report(report(), ["hopf", "lemma42"]))
        empty = report()
        empty["suites"][0]["axioms"] = []
        self.assertTrue(checks.check_report(empty, ["hopf", "oracle"]))

    def test_planted(self):
        caught = report(status="fail", ce={"inputs": {}, "lhs": [], "rhs": []})
        self.assertEqual(checks.check_planted(caught), [])
        self.assertTrue(checks.check_planted(report()))
        self.assertTrue(checks.check_planted(report(status="fail")))
        self.assertTrue(checks.check_planted(report(status="fail", ce={})))

    def test_identical(self):
        self.assertEqual(checks.check_identical(["a", "a", "a"]), [])
        self.assertTrue(checks.check_identical(["a", "b", "a"]))


class TracerTests(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer()
        inner = tr.span("inner", lambda P, x: time.sleep(0.02), keyed=True)

        def outer(P, x):
            time.sleep(0.01)
            inner(P, x)
            inner(P, x)

        tr.span("outer", outer)(None, 1)
        (n_in, self_in), (n_out, self_out) = tr.spans["inner"], tr.spans["outer"]
        self.assertEqual((n_in, n_out), (2, 1))
        self.assertGreaterEqual(self_in, 0.04)
        self.assertLess(self_out, 0.02)
        self.assertEqual(tr.repeats["inner"], [1])


class BenchmarkFileTests(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         END_TO_END)


if __name__ == "__main__":
    unittest.main()
