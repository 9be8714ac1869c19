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

The module imports at start exactly what ``homology`` runs, so the cold
start of a fresh process is that of a real command.  Only ``verify`` needs
`morsemv.verify`: its three calls are looked up on this module's globals
when the command runs, imported on first use and never bound over a name
already bound, so whoever replaces `build_xtilde`, `check_iso_simplicial`
or `check_main_iso` here (as the benchmark's tracer does) sees its
replacement called.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .complexes import SimplicialComplex
from .errors import (
    ComplexError,
    DecompositionError,
    FieldError,
    InternalConsistencyError,
    NotAcyclicError,
    ParseError,
)
from .formats import parse_complex, parse_decomposition, parse_generator_name
from .homology import HomologyResult, simplicial_homology
from .mv import (
    FROM_A,
    FROM_B,
    SHIFTED,
    Decomposition,
    MVGenerator,
    _keys_by_tag,
    _max_degree,
    _piece,
    build_decomposition,
    enumerate_mv,
    mv_generators,
    mv_homology,
)

__all__ = ["main"]

# the calls of the verify command, bound from `morsemv.verify` on first use
_VERIFY_CALLS = ("build_xtilde", "check_iso_simplicial", "check_main_iso")


def _bind_verify() -> dict:
    """This module's globals, with each of `_VERIFY_CALLS` not yet bound
    bound to its function in `morsemv.verify`."""
    from . import verify

    names = globals()
    for name in _VERIFY_CALLS:
        names.setdefault(name, getattr(verify, name))
    return names


def __getattr__(name: str):
    if name in _VERIFY_CALLS:
        return _bind_verify()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as e:
        return _fail(2, e)
    except OSError as e:
        return _fail(2, e)
    except NotAcyclicError as e:  # before FieldError: it is a subclass
        return _fail(4, e)
    except (DecompositionError, FieldError, ComplexError) as e:
        return _fail(3, e)
    except InternalConsistencyError as e:
        return _fail(5, e)


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
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_decomposition(args) -> tuple[SimplicialComplex, Decomposition, str, int | None]:
    x = parse_complex(_read(args.complex))
    parsed = parse_decomposition(_read(args.decomposition))
    strategy = args.strategy
    seed = args.seed
    if strategy is None:
        strategy = parsed.strategy
        if seed is None:
            seed = parsed.seed
    if strategy in (None, "lex"):
        strategy = "lexicographic"
    # the pieces are views over X's table, not complexes closed again
    d = build_decomposition(
        x,
        _piece(x, parsed.a_generators, "A"),
        _piece(x, parsed.b_generators, "B"),
        fields=parsed.fields or None,
        strategy=strategy,
        seed=seed,
    )
    return x, d, strategy, seed


def _emit_json(payload: dict) -> int:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


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


def _print_homology_rows(rows: list[dict]) -> None:
    print("homology:")
    for row in rows:
        print(f"  H_{row['degree']} = {row['group']}")


def _cmd_homology(args) -> int:
    _check_degree(args.degree)
    x, d, strategy, seed = _load_decomposition(args)
    result = mv_homology(d)
    # the generators counted by tag on their keys: no generator is built again
    by_tag = [_keys_by_tag(d, q) for q in range(_max_degree(d) + 1)]
    counts = [
        {"degree": q, "from_a": len(ks[FROM_A]), "from_b": len(ks[FROM_B]),
         "shifted": len(ks[SHIFTED]), "total": total}
        for q, ks in enumerate(by_tag) if (total := sum(map(len, ks.values())))
    ]
    top = max([x.dim] + [row["degree"] for row in counts])
    rows = _homology_rows(result, args.degree, top)
    if args.output == "json":
        return _emit_json({
            "schema": 1,
            "command": "homology",
            "complex": _complex_info(x),
            "pieces": {
                "a_size": len(d.a),
                "b_size": len(d.b),
                "intersection_size": len(d.iab) if d.iab is not None else 0,
            },
            "strategy": strategy,
            "seed": seed,
            "generators": counts,
            "homology": rows,
        })
    f = x.f_vector()
    print(f"complex: dim {x.dim}, f-vector {f}, euler {x.euler_characteristic()}")
    inter = len(d.iab) if d.iab is not None else 0
    print(f"pieces: |A| = {len(d.a)}, |B| = {len(d.b)}, |A ∩ B| = {inter} simplices")
    print("generators:")
    for row in counts:
        print(f"  q={row['degree']}: {row['total']} (FromA {row['from_a']}, "
              f"FromB {row['from_b']}, Shifted {row['shifted']})")
    _print_homology_rows(rows)
    return 0


def _resolve_generator(d: Decomposition, token: str) -> MVGenerator:
    tag, simplex = parse_generator_name(token)
    degree = simplex.dim + (1 if tag == SHIFTED else 0)
    candidate = MVGenerator(tag, abs(simplex), degree)
    if candidate not in mv_generators(d, degree):
        raise ParseError(f"unknown generator {token!r}")
    return candidate


def _steps_json(steps) -> list[list[str]]:
    return [list(s.vertices) for s in steps]


def _cmd_trajectories(args) -> int:
    _, d, _, _ = _load_decomposition(args)
    beta = _resolve_generator(d, args.beta)
    alpha = _resolve_generator(d, args.alpha)
    if alpha.degree != beta.degree - 1:
        raise ParseError(
            f"BETA {args.beta!r} has degree {beta.degree} and ALPHA {args.alpha!r} "
            f"degree {alpha.degree}: ALPHA must be one degree below BETA"
        )
    found = enumerate_mv(d, beta, alpha)
    total = sum(t.weight for t in found)
    if args.output == "json":
        return _emit_json({
            "schema": 1,
            "command": "trajectories",
            "beta": {"tag": beta.tag, "name": beta.name, "degree": beta.degree},
            "alpha": {"tag": alpha.tag, "name": alpha.name, "degree": alpha.degree},
            "count": len(found),
            "weight_sum": total,
            "trajectories": [
                {
                    "case": t.case,
                    "p": t.p,
                    "l": t.l,
                    "weight": t.weight,
                    "steps": _steps_json(t.steps),
                }
                for t in found
            ],
        })
    print(f"beta = {beta} (degree {beta.degree}), alpha = {alpha} (degree {alpha.degree})")
    print(f"trajectories: {len(found)}, weight sum {total:+d}"
          if found else "trajectories: 0, weight sum +0")
    for i, t in enumerate(found, start=1):
        extent = f", p={t.p}, l={t.l}" if t.case in (4, 5) else ""
        path = " -> ".join(str(s) for s in t.steps)
        print(f"  {i}. case {t.case}{extent}, weight {t.weight:+d}: {path}")
    return 0


def _cmd_verify(args) -> int:
    _, d, _, _ = _load_decomposition(args)
    calls = _bind_verify()
    xt = calls["build_xtilde"](d)
    stages = [
        ("simplicial", calls["check_iso_simplicial"](xt)),
        ("mayer_vietoris", calls["check_main_iso"](xt)),
    ]
    ok = all(report.ok for _, report in stages)
    if args.output == "json":
        _emit_json({
            "schema": 1,
            "command": "verify",
            "ok": ok,
            "checks": [
                {
                    "stage": stage,
                    "name": c.name,
                    "ok": c.ok,
                    "detail": c.detail,
                }
                for stage, report in stages
                for c in report.checks
            ],
        })
        return 0 if ok else 5
    for stage, report in stages:
        print(f"{stage}:")
        for c in report.checks:
            print(f"  {c}")
    count = sum(len(report.checks) for _, report in stages)
    print(f"verdict: {'PASS' if ok else 'FAIL'} ({count} checks)")
    return 0 if ok else 5


def _cmd_oracle(args) -> int:
    _check_degree(args.degree)
    x = parse_complex(_read(args.complex))
    result = simplicial_homology(x)
    rows = _homology_rows(result, args.degree, x.dim)
    if args.output == "json":
        return _emit_json({
            "schema": 1,
            "command": "oracle",
            "complex": _complex_info(x),
            "homology": rows,
        })
    f = x.f_vector()
    print(f"complex: dim {x.dim}, f-vector {f}, euler {x.euler_characteristic()}")
    _print_homology_rows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
