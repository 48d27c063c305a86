"""Command-line interface.

Subcommands:

``verify``          run axiom suites over a session file and emit a report
``oracle-compare``  run only the closed-form comparison suite
``export``          dump structure constants of a finite session
``eval``            apply a single structure map to explicit elements

Exit codes: 0 all checks passed, 1 at least one axiom failed (the report
is still written), 2 malformed input (bad file, schema, arguments).

Reports and exports are deterministic: the same session file, seed, and
window always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional

from .cograded import (comul_covered, crossing_apply, graded_antipode,
                       graded_counit)
from .crossed import commutation_residual, dcp_mul, twist_inv, twist_map
from .linear import LinComb, label_key
from .quasitri import r_apply
from .session import Session, SessionError, grading_to_json, session_from_path
from .suites import SUITE_NAMES, suite_axioms, _fmt, _lab


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SessionError(
                f"output-file: cannot write {out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _dump(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline.

    The bytes are the same, but the stdlib writes an indented document
    with its pure-Python encoder.  Here dicts with ``str`` keys and lists
    are laid out directly, and each list of scalars is written in one
    join.  A list met again at the same indent (the export shares its
    label lists) is written from a string kept on its second visit.
    Whatever else appears (a non-``str`` key, a tuple, a float) is
    written by ``json.dumps`` and indented to its depth."""
    parts: List[str] = []
    # (id, indent) of each list met so far -> its text once met twice.
    # Ids stay unique because ``payload`` keeps every list alive.
    _write(payload, "\n", parts.append, {})
    parts.append("\n")
    return "".join(parts)


def _stdlib(o, nl: str) -> str:
    """``o`` as ``json.dumps`` writes it at the indent of ``nl``.  Strings
    are ASCII-escaped, so each newline of the output starts a new line."""
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", nl)


def _scalars(items: list) -> Optional[List[str]]:
    """The JSON of each item of ``items``, or None if one is a container."""
    out = []
    for x in items:
        kind = type(x)
        if kind is int:
            out.append(int.__repr__(x))
        elif kind is str:
            out.append(_quote(x))
        elif x is None or kind is bool or kind is float:
            out.append(json.dumps(x))
        else:
            return None
    return out


def _write(o, nl: str, out, seen: Dict) -> None:
    """Pass the JSON of ``o`` to ``out`` in pieces; ``nl`` is a newline and
    the indent of the line ``o`` starts on.  ``seen`` is ``_dump``'s memo
    of lists."""
    kind = type(o)
    if kind is list and o:
        key = (id(o), nl)
        if key in seen:
            text = seen[key]
            if text is None:
                pieces: List[str] = []
                _write_list(o, nl, pieces.append, seen)
                text = seen[key] = "".join(pieces)
            out(text)
        else:
            seen[key] = None
            _write_list(o, nl, out, seen)
    elif kind is dict and o and all(type(k) is str for k in o):
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            out(sep + _quote(key) + ": ")
            _write(o[key], inner, out, seen)
            sep = "," + inner
        out(nl + "}")
    else:
        strs = _scalars([o])
        out(strs[0] if strs is not None else _stdlib(o, nl))


def _write_list(o: list, nl: str, out, seen: Dict) -> None:
    """Write the non-empty list ``o`` as ``_write`` does, past its memo."""
    inner = nl + "  "
    strs = _scalars(o)
    if strs is not None:
        out("[" + inner + ("," + inner).join(strs) + nl + "]")
        return
    sep = "[" + inner
    for item in o:
        out(sep)
        _write(item, inner, out, seen)
        sep = "," + inner
    out(nl + "]")


def run_verify(S: Session, suites: List[str]) -> Dict:
    """Run the named suites, checks in listed order, and assemble the
    overall report."""
    groups = [(name, suite_axioms(S, name)) for name in suites]
    report: Dict = {"suites": [], "status": "pass"}
    for name, checks in groups:
        axioms = []
        for _, run in checks:
            rep = run()
            axioms.append(rep.to_json())
            if rep.status != "pass":
                report["status"] = "fail"
        report["suites"].append({"name": name, "axioms": axioms})
    return report


def _cmd_verify(args, suites: Optional[List[str]] = None) -> int:
    S = session_from_path(args.spec, seed=args.seed, window=args.window)
    if suites is None:
        if args.suite:
            suites = [s.strip() for s in args.suite.split(",") if s.strip()]
            bad = [s for s in suites if s not in SUITE_NAMES]
            if bad:
                raise SessionError(
                    f"unknown suite(s) {bad}; expected a comma-separated "
                    f"subset of {', '.join(SUITE_NAMES)}")
            if not suites:
                raise SessionError("empty --suite list")
        else:
            suites = list(SUITE_NAMES)
    report = run_verify(S, suites)
    _emit(_dump(report), args.out)
    return 0 if report["status"] == "pass" else 1


def _cmd_oracle_compare(args) -> int:
    return _cmd_verify(args, suites=["oracle"])


def export_structure(S: Session) -> Dict:
    """Structure constants of a finite session: the multiplication tensor
    of every graded component and the covered comultiplication images of
    all basis elements for every grading split, in basis-lexicographic
    order."""
    if not S.finite:
        raise SessionError("export requires a finite instance")
    P = S.P
    to_str = S.field.to_str
    crossed = sorted(S.crossed_labels(), key=label_key)
    # Each crossed label and grading is rendered once, and each coproduct
    # row takes its A and B slots from those renderings; the document
    # shares the rendered lists wherever the same label or grading recurs.
    shown = {x: _lab(S, "ab", x) for x in crossed}
    a_shown = {a: lab[0] for (a, _), lab in shown.items()}
    b_shown = {b: lab[1] for (_, b), lab in shown.items()}
    gradings = [(g, grading_to_json(g)) for g in S.gradings]
    components = []
    for g, g_json in gradings:
        entries = []
        for x in crossed:
            for y in crossed:
                prod = dcp_mul(P, g, LinComb.unit(x), LinComb.unit(y))
                for lab, c in prod.sorted_items():
                    entries.append([shown[x], shown[y], shown[lab],
                                    to_str(c)])
        components.append({"grading": g_json, "mul": entries})
    splits = []
    for p, p_json in gradings:
        for q, q_json in gradings:
            images = []
            for x in crossed:
                for cover in crossed:
                    half = comul_covered(
                        P, LinComb.unit(x), p, q, LinComb.unit(cover),
                        side="right")
                    images.append([shown[x], shown[cover], [
                        [a_shown[a1], b_shown[b1], a_shown[a2], b_shown[b2],
                         to_str(c)]
                        for (a1, b1, a2, b2), c in half.sorted_items()]])
            splits.append({"left": p_json, "right": q_json,
                           "side": "right", "images": images})
    return {"gradings": [g_json for _, g_json in gradings],
            "components": components, "splits": splits}


def _cmd_export(args) -> int:
    S = session_from_path(args.spec, seed=args.seed, window=args.window)
    _emit(_dump(export_structure(S)), args.out)
    return 0


# --------------------------------------------------------------------------
# eval: apply one structure map to explicit elements
# --------------------------------------------------------------------------

def _parse_value(S: Session, spec, pattern: str) -> LinComb:
    """Parse ``[[label..., coeff?], ...]`` into a value whose label slots
    follow ``pattern`` ('a'/'b' per slot)."""
    A, B = S.P.A, S.P.B
    if not isinstance(spec, list):
        raise SessionError(f"element must be a list of terms, got {spec!r}")
    pairs = []
    for term in spec:
        if not isinstance(term, list) or len(term) not in (len(pattern),
                                                           len(pattern) + 1):
            raise SessionError(
                f"term {term!r} must list {len(pattern)} labels plus an "
                f"optional coefficient")
        labels = term[:len(pattern)]
        try:
            coeff = (S.field.parse(term[len(pattern)])
                     if len(term) > len(pattern) else S.field.one())
        except ZeroDivisionError:
            raise SessionError(
                f"term {term!r} has a zero denominator") from None
        try:
            lab = tuple(A.parse_label(l) if ch == "a" else B.parse_label(l)
                        for ch, l in zip(pattern, labels))
        except TypeError:
            raise SessionError(
                f"term {term!r} has a malformed label") from None
        if len(pattern) == 1:
            lab = lab[0]
        pairs.append((lab, coeff))
    return LinComb.from_pairs(pairs)


def _grading(S: Session, idx) -> "object":
    if (not isinstance(idx, int) or isinstance(idx, bool)
            or not 0 <= idx < len(S.gradings)):
        raise SessionError(
            f"grading index {idx!r} out of range 0..{len(S.gradings) - 1}")
    return S.gradings[idx]


def eval_op(S: Session, op: str, params: Dict) -> Dict:
    """Apply one structure map; element arguments are term lists, gradings
    are indices into the session's grading list."""
    P = S.P

    def need(key):
        if key not in params:
            raise SessionError(f"op {op!r} requires argument {key!r}")
        return params[key]

    if op == "dcp-mul":
        g = _grading(S, need("grading"))
        out = dcp_mul(P, g, _parse_value(S, need("x"), "ab"),
                      _parse_value(S, need("y"), "ab"))
        return {"op": op, "result": _fmt(S, "ab", out)}
    if op == "comul-covered":
        p = _grading(S, need("left"))
        q = _grading(S, need("right"))
        side = params.get("side", "right")
        out = comul_covered(P, _parse_value(S, need("x"), "ab"), p, q,
                            _parse_value(S, need("cover"), "ab"), side=side)
        return {"op": op, "result": _fmt(S, "abab", out)}
    if op == "antipode":
        g = _grading(S, need("grading"))
        inverse = params.get("inverse", False)
        if not isinstance(inverse, bool):
            raise SessionError(
                f"argument 'inverse' must be true or false, got {inverse!r}")
        out = graded_antipode(P, g, _parse_value(S, need("x"), "ab"),
                              inverse=inverse)
        return {"op": op, "result": _fmt(S, "ab", out)}
    if op == "counit":
        val = graded_counit(P, _parse_value(S, need("x"), "ab"))
        return {"op": op, "result": S.field.to_str(val)}
    if op == "twist":
        g = _grading(S, need("grading"))
        if "ba" in params:
            out = twist_map(P, g, _parse_value(S, params["ba"], "ba"))
            return {"op": op, "result": _fmt(S, "ab", out)}
        out = twist_inv(P, g, _parse_value(S, need("ab"), "ab"))
        return {"op": op, "result": _fmt(S, "ba", out)}
    if op == "crossing":
        t = _grading(S, need("actor"))
        q = _grading(S, need("source"))
        target, out = crossing_apply(P, t, q,
                                     _parse_value(S, need("x"), "ab"))
        return {"op": op, "target": grading_to_json(target),
                "result": _fmt(S, "ab", out)}
    if op == "r-apply":
        p = _grading(S, need("left"))
        q = _grading(S, need("right"))
        uv = _parse_value(S, need("uv"), "abab")
        out = r_apply(P, p, q, uv, params.get("side", "left"))
        return {"op": op, "result": _fmt(S, "abab", out)}
    if op == "pair":
        val = P.pair(_parse_value(S, need("a"), "a"),
                     _parse_value(S, need("b"), "b"))
        return {"op": op, "result": S.field.to_str(val)}
    if op == "commutation-residual":
        g = _grading(S, need("grading"))
        lhs, rhs = commutation_residual(P, g, _parse_value(S, need("a"), "a"),
                                        _parse_value(S, need("b"), "b"),
                                        _parse_value(S, need("cover"), "ab"))
        return {"op": op, "lhs": _fmt(S, "ab", lhs),
                "rhs": _fmt(S, "ab", rhs)}
    raise SessionError(
        f"unknown op {op!r}; expected one of dcp-mul, comul-covered, "
        f"antipode, counit, twist, crossing, r-apply, pair, "
        f"commutation-residual")


def _cmd_eval(args) -> int:
    S = session_from_path(args.spec, seed=args.seed, window=args.window)
    try:
        params = json.loads(args.args) if args.args else {}
    except json.JSONDecodeError as exc:
        raise SessionError(f"--args is not valid JSON: {exc}")
    if not isinstance(params, dict):
        raise SessionError("--args must be a JSON object")
    result = eval_op(S, args.op, params)
    _emit(_dump(result), args.out)
    return 0


def _common_flags(sub) -> None:
    sub.add_argument("--spec", required=True,
                     help="session description file (JSON)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the sampling seed")
    sub.add_argument("--window", type=int, default=None,
                     help="override the label window for infinite instances")
    sub.add_argument("--out", default=None,
                     help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhag",
        description="Construct group-cograded crossed products from a "
                    "dual pairing and machine-check their axioms.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser(
        "verify", help="run axiom suites and emit a JSON report")
    _common_flags(p_verify)
    p_verify.add_argument(
        "--suite", default=None,
        help=f"comma-separated subset of: {', '.join(SUITE_NAMES)} "
             f"(default: all)")

    p_oracle = subs.add_parser(
        "oracle-compare",
        help="compare the generic engine against closed forms")
    _common_flags(p_oracle)

    p_export = subs.add_parser(
        "export", help="dump structure constants of a finite session")
    _common_flags(p_export)

    p_eval = subs.add_parser(
        "eval", help="apply one structure map to explicit elements")
    _common_flags(p_eval)
    p_eval.add_argument("--op", required=True,
                        help="structure map to apply")
    p_eval.add_argument("--args", default="{}",
                        help="JSON object with the op's arguments")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "oracle-compare": _cmd_oracle_compare,
                "export": _cmd_export, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
