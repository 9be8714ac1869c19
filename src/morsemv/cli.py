"""Command-line front end.

Four subcommands:

* ``morsemv homology``      — homology of X = A ∪ B from the Mayer-Vietoris
  chain complex built out of the three gradient fields.
* ``morsemv trajectories``  — enumerate the weighted trajectories between two
  named generators, with their case classification.
* ``morsemv verify``        — run the structural checks that tie the
  Mayer-Vietoris complex to ordinary simplicial homology.
* ``morsemv oracle``        — plain simplicial homology of the complex alone
  (no decomposition, no Morse theory); the cross-check route.

Exit codes: 0 success, 2 unreadable/unparsable input, 3 invalid
decomposition or field data, 4 a supplied matching has a closed trajectory,
5 an internal consistency check or a ``verify`` run failed.

One report per command: each ``_cmd_*`` computes its result once and
returns ``(exit code, report)``, a plain dict.  `main` alone writes it:
``--output json`` writes the bytes of ``json.dumps(report, indent=2)``
through `_json_text`, ``--output text`` renders it line by line through
the command's renderer in `_TEXT`, which reads nothing but the report, so
the text shows nothing the JSON lacks.  Given an indent, `json.dumps`
encodes every leaf in Python; `_json_text` lays out only the containers
and leaves each string to json's C encoder, a list of strings (such as a
trajectory step's vertices) in one join over it, so ``json`` itself is
never imported for a report.

`main` pauses the cyclic garbage collector for the whole command and, in a
``finally``, gives the caller back the state it had.  A command's tables
and memos are many small containers with almost no cycles, which the
collector's passes would only walk; the library never touches it.

The module imports at start exactly what ``homology`` runs, so the cold
start of a fresh process is that of a real command.  Only ``verify`` needs
`morsemv.verify`: as in the package, `__getattr__` imports it on the first
lookup of one of its three calls and binds that name here, and
`_cmd_verify` calls them as attributes of this module, so whoever replaces
`build_xtilde`, `check_iso_simplicial` or `check_main_iso` here (as the
benchmark's tracer does) sees its replacement called.  The tracer wraps
this module's calls by name, so `SimplicialComplex`, `mv_generators` and
`parse_decomposition` stay bound here although no command calls them.

A command reads the `.dec` by `formats._read_decomposition`, the walk
`parse_decomposition` makes, given X's line map: a piece line that the
complex file holds as written is one probe of it and is never split; any
other line is split, checked and ranked, with the same errors.
"""
from __future__ import annotations

import argparse
import functools
import gc
import itertools
import sys
from _json import encode_basestring_ascii as _encode  # json's C string encoder
from pathlib import Path

from .complexes import SimplicialComplex  # bound for the benchmark's tracer
from .errors import (
    ComplexError,
    DecompositionError,
    FieldError,
    InternalConsistencyError,
    NotAcyclicError,
    ParseError,
)
from .formats import _read_decomposition, parse_complex, parse_decomposition, parse_generator_name
from .homology import HomologyResult, simplicial_homology
from .mv import (
    Decomposition,
    MVGenerator,
    _generator,
    _generator_table,
    _piece,
    _require_generator,
    build_decomposition,
    enumerate_mv,
    mv_generators,  # bound for the benchmark's tracer
    mv_homology,
)

__all__ = ["main"]

# the calls of the verify command, bound from `morsemv.verify` on first use
_LAZY = ("build_xtilde", "check_iso_simplicial", "check_main_iso")


def __getattr__(name: str):
    if name in _LAZY:
        from . import verify

        value = globals()[name] = getattr(verify, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # for the whole command (see the module docstring)
    try:
        return _run(argv)
    finally:
        if enabled:  # a caller that had the collector off keeps it off
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, report = args.handler(args)
    except (ParseError, OSError) as e:
        return _fail(2, e)
    except NotAcyclicError as e:  # before FieldError: it is a subclass
        return _fail(4, e)
    except (DecompositionError, FieldError, ComplexError) as e:
        return _fail(3, e)
    except InternalConsistencyError as e:
        return _fail(5, e)
    if args.output == "json":
        sys.stdout.write(_json_text(report, "\n") + "\n")
    else:
        print("\n".join(_TEXT[report["command"]](report)))
    return code


def _json_text(value, indent: str) -> str:
    """The text of `json.dumps(value, indent=2)` for a report, with
    `indent` the line break and indent before its first item: every key (a
    string, as in every report) and string encoded by json's C encoder,
    every int by `int.__repr__`, as `json.dumps` encodes them.  A list or
    tuple of strings is laid out in one join over the encoder, whose
    TypeError on any other item sends the list item by item; there, an
    item that is itself a list of strings is joined inline, not by a call
    of its own."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{_encode(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        try:  # a list of strings, in one join; any other item raises TypeError
            return f"[{inner}{(',' + inner).join(map(_encode, value))}{indent}]"
        except TypeError:
            pass
        deeper, items = inner + "  ", []
        for v in value:
            if type(v) is str:
                items.append(_encode(v))
                continue
            if v and type(v) in (list, tuple):  # a list of strings, inline
                try:
                    items.append(f"[{deeper}{(',' + deeper).join(map(_encode, v))}{inner}]")
                    continue
                except TypeError:
                    pass
            items.append(_json_text(v, inner))
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if isinstance(value, str):
        return _encode(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    import json  # for a float, which no report holds, or the TypeError of json.dumps

    return json.dumps(value)


def _fail(code: int, error: Exception) -> int:
    print(f"error: {error}", file=sys.stderr)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    `main` call in the process.  Parsing keeps no state in it: each call
    returns a fresh namespace and defaults live in the parser only."""
    parser = argparse.ArgumentParser(
        prog="morsemv",
        description="Integer homology of a union of simplicial complexes "
        "through discrete Morse theory.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    def common(p: argparse.ArgumentParser, decomposition: bool) -> None:
        p.add_argument("--complex", required=True, metavar="FILE",
                       help="complex file: one maximal simplex per line")
        if decomposition:
            p.add_argument("--decomposition", required=True, metavar="FILE",
                           help="decomposition file with [A] and [B] sections")
            p.add_argument("--strategy", choices=["lex", "lexicographic", "random"],
                           help="greedy strategy for fields not pinned in the file")
            p.add_argument("--seed", type=int, metavar="N",
                           help="seed for --strategy random")
        p.add_argument("--output", choices=["text", "json"], default="text")

    p = sub.add_parser("homology", help="homology of X = A ∪ B")
    common(p, decomposition=True)
    p.add_argument("--degree", type=int, metavar="Q",
                   help="report a single degree only")
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("trajectories",
                       help="weighted trajectories between two generators")
    common(p, decomposition=True)
    p.add_argument("beta", help="source generator, e.g. I:v2,I:v3")
    p.add_argument("alpha", help="target generator, one degree lower")
    p.set_defaults(handler=_cmd_trajectories)

    p = sub.add_parser("verify", help="structural checks for a decomposition")
    common(p, decomposition=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="plain simplicial homology (cross-check)")
    common(p, decomposition=False)
    p.add_argument("--degree", type=int, metavar="Q",
                   help="report a single degree only")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_decomposition(args) -> tuple[SimplicialComplex, Decomposition, str, int | None]:
    x = parse_complex(_read(args.complex))
    parsed = _read_decomposition(_read(args.decomposition), x._table.line_ids)
    strategy = args.strategy
    seed = args.seed
    if strategy is None:
        strategy = parsed.strategy
        if seed is None:
            seed = parsed.seed
    if strategy in (None, "lex"):
        strategy = "lexicographic"
    # the pieces are views over X's table, not complexes closed again; a
    # generator that is an id came from X's line map and was never split
    a, b = _piece(x, parsed.a_generators, "A"), _piece(x, parsed.b_generators, "B")
    fields = parsed.fields or None
    # the .dec's vertex tuples are freed before the fields, the load's peak,
    # are built; X keeps its lines' id map meanwhile (`_Table.line_ids`)
    del parsed
    d = build_decomposition(x, a, b, fields=fields, strategy=strategy, seed=seed)
    return x, d, strategy, seed


def _complex_info(x: SimplicialComplex) -> dict:
    return {
        "dim": x.dim,
        "f_vector": list(x.f_vector()),
        "euler": x.euler_characteristic(),
    }


def _check_degree(degree: int | None) -> None:
    if degree is not None and degree < 0:
        raise ParseError(f"--degree must be nonnegative, got {degree}")


def _homology_rows(result: HomologyResult, degree: int | None, top: int) -> list[dict]:
    degrees = range(top + 1) if degree is None else [degree]
    return [
        {
            "degree": q,
            "betti": result.betti(q),
            "torsion": list(result.torsion(q)),
            "group": HomologyResult.group_name(result.betti(q), result.torsion(q)),
        }
        for q in degrees
    ]


def _cmd_homology(args) -> tuple[int, dict]:
    _check_degree(args.degree)
    x, d, strategy, seed = _load_decomposition(args)
    result = mv_homology(d)
    # the generators counted by block on their keys: no generator is built again
    counts = [
        {"degree": q, "from_a": len(a), "from_b": len(b), "shifted": len(i), "total": total}
        for q, (a, b, i) in enumerate(_generator_table(d)) if (total := len(a) + len(b) + len(i))
    ]
    top = max([x.dim] + [row["degree"] for row in counts])
    return 0, {
        "schema": 1,
        "command": "homology",
        "complex": _complex_info(x),
        "pieces": {"a_size": len(d.a), "b_size": len(d.b),
                   "intersection_size": len(d.iab) if d.iab is not None else 0},
        "strategy": strategy,
        "seed": seed,
        "generators": counts,
        "homology": _homology_rows(result, args.degree, top),
    }


def _resolve_generator(d: Decomposition, token: str) -> MVGenerator:
    tag, simplex = parse_generator_name(token)
    candidate = _generator(tag, simplex)
    try:
        _require_generator(d, candidate)
    except FieldError:
        raise ParseError(f"unknown generator {token!r}") from None
    return candidate


def _cmd_trajectories(args) -> tuple[int, dict]:
    _, d, _, _ = _load_decomposition(args)
    beta = _resolve_generator(d, args.beta)
    alpha = _resolve_generator(d, args.alpha)
    if alpha.degree != beta.degree - 1:
        raise ParseError(
            f"BETA {args.beta!r} has degree {beta.degree} and ALPHA {args.alpha!r} "
            f"degree {alpha.degree}: ALPHA must be one degree below BETA"
        )
    found = enumerate_mv(d, beta, alpha)
    return 0, {
        "schema": 1,
        "command": "trajectories",
        "beta": {"tag": beta.tag, "name": beta.name, "degree": beta.degree},
        "alpha": {"tag": alpha.tag, "name": alpha.name, "degree": alpha.degree},
        "count": len(found),
        "weight_sum": sum(t.weight for t in found),
        "trajectories": [
            {"case": t.case, "p": t.p, "l": t.l, "weight": t.weight,
             "steps": [s.vertices for s in t.steps]}
            for t in found
        ],
    }


def _cmd_verify(args) -> tuple[int, dict]:
    _, d, _, _ = _load_decomposition(args)
    calls = sys.modules[__name__]  # what is bound here now, loaded on first use
    xt = calls.build_xtilde(d)
    checks = [
        {"stage": stage, "name": c.name, "ok": c.ok, "detail": c.detail}
        for stage, check in (("simplicial", calls.check_iso_simplicial),
                             ("mayer_vietoris", calls.check_main_iso))
        for c in check(xt).checks
    ]
    ok = all(c["ok"] for c in checks)
    return 0 if ok else 5, {"schema": 1, "command": "verify", "ok": ok, "checks": checks}


def _cmd_oracle(args) -> tuple[int, dict]:
    _check_degree(args.degree)
    x = parse_complex(_read(args.complex))
    return 0, {
        "schema": 1,
        "command": "oracle",
        "complex": _complex_info(x),
        "homology": _homology_rows(simplicial_homology(x), args.degree, x.dim),
    }


# -- text renderings: each reads its command's report and nothing else ------


def _complex_line(report: dict) -> str:
    c = report["complex"]
    return f"complex: dim {c['dim']}, f-vector {tuple(c['f_vector'])}, euler {c['euler']}"


def _homology_lines(report: dict) -> list[str]:
    return ["homology:", *(f"  H_{row['degree']} = {row['group']}" for row in report["homology"])]


def _homology_text(report: dict) -> list[str]:
    p = report["pieces"]
    return [
        _complex_line(report),
        f"pieces: |A| = {p['a_size']}, |B| = {p['b_size']}, "
        f"|A ∩ B| = {p['intersection_size']} simplices",
        "generators:",
        *(f"  q={row['degree']}: {row['total']} (FromA {row['from_a']}, "
          f"FromB {row['from_b']}, Shifted {row['shifted']})" for row in report["generators"]),
        *_homology_lines(report),
    ]


def _trajectories_text(report: dict) -> list[str]:
    named = lambda g: f"{g['tag']}:{g['name']} (degree {g['degree']})"
    lines = [
        f"beta = {named(report['beta'])}, alpha = {named(report['alpha'])}",
        f"trajectories: {report['count']}, weight sum {report['weight_sum']:+d}",
    ]
    for i, t in enumerate(report["trajectories"], start=1):
        extent = f", p={t['p']}, l={t['l']}" if t["case"] in (4, 5) else ""
        path = " -> ".join("[" + " ".join(step) + "]" for step in t["steps"])
        lines.append(f"  {i}. case {t['case']}{extent}, weight {t['weight']:+d}: {path}")
    return lines


def _verify_text(report: dict) -> list[str]:
    from .verify import CheckResult

    lines = []
    for stage, checks in itertools.groupby(report["checks"], key=lambda c: c["stage"]):
        lines.append(f"{stage}:")
        lines += [f"  {CheckResult(c['name'], c['ok'], c['detail'])}" for c in checks]
    verdict = "PASS" if report["ok"] else "FAIL"
    return [*lines, f"verdict: {verdict} ({len(report['checks'])} checks)"]


def _oracle_text(report: dict) -> list[str]:
    return [_complex_line(report), *_homology_lines(report)]


_TEXT = {"homology": _homology_text, "trajectories": _trajectories_text,
         "verify": _verify_text, "oracle": _oracle_text}


if __name__ == "__main__":
    raise SystemExit(main())
