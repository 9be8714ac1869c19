"""Spans and counters for the traced benchmark run.

The program is not changed.  Tracing wraps the public functions that
`morsemv.cli` calls (its module globals) in spans, so each call the CLI
makes into `formats`, `complexes`, `mv`, `homology` and `verify` is timed
where it happens.  Some of those calls hide sub-stages: `build_decomposition`
builds copies and fields, `mv_homology` lists generators, assembles
boundaries and runs SNF, `simplicial_homology` builds the chain complex and
runs SNF, `parse_complex` closes the complex.  After the operation ends,
each hidden sub-stage is timed again by calling its own public function
standalone on the same input; those spans are marked `replay` and point at
the span whose work they repeat.

A span's self time is its duration minus the durations of its children,
replays included: a replay stands for work done inside its parent.  Replays
run after the operation has ended, so they never overlap the operation's
own interval.  Spans live in memory until `write` is called at exit.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from morsemv import cli
from morsemv.complexes import SimplicialComplex, copy_relabel, intersection, union
from morsemv.homology import IntegerChainComplex, homology, simplicial_chain_complex
from morsemv.morse import DEFAULT_SEED, greedy_gvf, is_acyclic
from morsemv.mv import FROM_A, FROM_B, SHIFTED, mv_boundary, mv_generators, mv_trajectories_from

MAX_DEGREE = 3  # per-degree counters cover degrees 0..3 (the cube reaches 3)
PIECES = ("a", "b", "i")
TAGS = {FROM_A: "from_a", FROM_B: "from_b", SHIFTED: "shifted"}

# Timed layers: metric name -> the span name whose self time it reports.
LAYER_TIMES = {
    "formats.parse_s": "formats.parse",
    "complexes.build_s": "complexes.build",
    "complexes.copy_s": "complexes.copy",
    "morse.gvf_s": "morse.gvf",
    "morse.certify_s": "morse.certify",
    "mv.decomposition_s": "mv.decomposition",
    "mv.generators_s": "mv.generators",
    "mv.boundary_s": "mv.boundary",
    "mv.enumerate_s": "mv.enumerate",
    "homology.mv_complex_s": "homology.mv_complex",
    "homology.mv_snf_s": "homology.mv_snf",
    "homology.oracle_complex_s": "homology.oracle_complex",
    "homology.oracle_snf_s": "homology.oracle_snf",
    "verify.xtilde_s": "verify.xtilde",
    "verify.iso_simplicial_s": "verify.iso_simplicial",
    "verify.main_iso_s": "verify.main_iso",
    "cli.self_s": "cli",
}


def count_names() -> list[str]:
    """Every counter the traced run reports, in a fixed order."""
    names = ["formats.simplices"]
    names += [f"complexes.copy_simplices_{p}" for p in PIECES]
    names += [f"morse.criticals_{p}_{q}" for p in PIECES for q in range(MAX_DEGREE + 1)]
    names += [f"mv.generators_{q}_{t}" for q in range(MAX_DEGREE + 1) for t in TAGS.values()]
    names += ["mv.trajectories", "mv.max_trajectory_steps"]
    names += [f"homology.{c}_{k}" for c in ("mv", "oracle")
              for k in ("dense_entries", "nnz", "dd_madds")]
    names += ["verify.xtilde_simplices", "cli.json_bytes", "cli.probe_failures"]
    return names


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._pending: list = []
        self._op: int | None = None
        self._ops = 0
        self._counted: set[str] = set()

    @contextmanager
    def span(self, name: str, parent: int | None = None, replay: bool = False):
        if parent is None and self._open:
            parent = self._open[-1]
        sid = len(self.spans)
        record = {"name": name, "parent": parent, "op": self._op, "replay": replay}
        self.spans.append(record)
        self._open.append(sid)
        record["start"] = time.perf_counter() - self.t0
        try:
            yield sid
        finally:
            record["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def replay(self, parent: int, name: str, fn, *args):
        """Call fn(*args) standalone in a replay span under `parent`;
        return the result and the span id."""
        with self.span(name, parent=parent, replay=True) as sid:
            result = fn(*args)
        return result, sid

    # -- the traced operation ----------------------------------------------

    def run_op(self, kind: str, call):
        """Run one CLI operation under a root span named `cli`, with the
        CLI's calls wrapped, then run the queued replays.  Returns
        (root span id, whatever `call` returns)."""
        self._op, self._ops = self._ops, self._ops + 1
        saved = {name: getattr(cli, name) for name, _, _ in _CLI_CALLS}
        for name, span_name, replay in _CLI_CALLS:
            setattr(cli, name, self._wrap(saved[name], span_name, replay))
        try:
            with self.span("cli", parent=None) as root:
                self.spans[root]["kind"] = kind
                out = call()
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)
        pending, self._pending = self._pending, []
        for replay, sid, args, kwargs, result in pending:
            replay(self, sid, args, kwargs, result)
        self._op = None
        return root, out

    def _wrap(self, fn, span_name, replay):
        def traced(*args, **kwargs):
            with self.span(span_name) as sid:
                result = fn(*args, **kwargs)
            if replay is not None:
                self._pending.append((replay, sid, args, kwargs, result))
            return result
        return traced

    def count_once(self, key: str) -> bool:
        """True the first time `key` is seen: counters are structural, so
        each is taken from the first traced operation that produces it."""
        if key in self._counted:
            return False
        self._counted.add(key)
        return True

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {i: s["end"] - s["start"] - child[i] for i, s in enumerate(self.spans)}

    def layer_times(self) -> dict[str, float]:
        """Per-layer self time of one round: for each operation kind, the
        median over its traced operations of the layer's self time in that
        operation, summed over the kinds.  Each operation's times are
        multiplied by the `scale` its caller set on its root span."""
        own = self.self_times()
        roots = {s["op"]: s for s in self.spans if s["name"] == "cli"}
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            per_op[s["op"]][s["name"]] += own[i] * roots[s["op"]]["scale"]
        by_kind: dict[str, list[dict[str, float]]] = defaultdict(list)
        for op, names in per_op.items():
            by_kind[roots[op]["kind"]].append(names)
        return {
            metric: sum(statistics.median(op.get(span, 0.0) for op in ops)
                        for ops in by_kind.values())
            for metric, span in LAYER_TIMES.items()
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}, indent=1),
                        encoding="utf-8")


# -- replays of hidden sub-stages ------------------------------------------


def _replay_parse_complex(tr: Tracer, sid, args, kwargs, x):
    tr.replay(sid, "complexes.build", SimplicialComplex, x.maximal_simplices)
    if tr.count_once("formats"):
        tr.counts["formats.simplices"] = len(x)


def _replay_decomposition(tr: Tracer, sid, args, kwargs, d):
    _, a, b = args
    strategy = kwargs.get("strategy", "lexicographic")
    seed = kwargs.get("seed")
    tr.replay(sid, "complexes.copy", union, a, b)
    copies = [tr.replay(sid, "complexes.copy", copy_relabel, a, "A:")[0],
              tr.replay(sid, "complexes.copy", copy_relabel, b, "B:")[0]]
    if d.iab is not None:
        iab = tr.replay(sid, "complexes.copy", intersection, a, b)[0]
        copies.append(tr.replay(sid, "complexes.copy", copy_relabel, iab, "I:")[0])
    base = DEFAULT_SEED if seed is None else seed
    for offset, copy in enumerate(copies):
        field, gid = tr.replay(sid, "morse.gvf", greedy_gvf, copy.complex, strategy, base + offset)
        tr.replay(gid, "morse.certify", is_acyclic, field.field, field.complex)
    if tr.count_once("decomposition"):
        fields = {"a": d.w_a, "b": d.w_b, "i": d.w_i}
        copy_of = {"a": d.a_bar, "b": d.b_bar, "i": d.iab_bar}
        for p in PIECES:
            n = len(copy_of[p].complex) if copy_of[p] is not None else 0
            tr.counts[f"complexes.copy_simplices_{p}"] = n
            for q in range(MAX_DEGREE + 1):
                crit = fields[p].critical(q) if fields[p] is not None else ()
                tr.counts[f"morse.criticals_{p}_{q}"] = len(crit)


def _matrix_counts(tr: Tracer, prefix: str, c: IntegerChainComplex) -> None:
    r = c.ranks
    tr.counts[f"homology.{prefix}_dense_entries"] = sum(r[q - 1] * r[q] for q in range(1, len(r)))
    tr.counts[f"homology.{prefix}_nnz"] = sum(
        1 for m in c.boundaries for row in m for v in row if v)
    tr.counts[f"homology.{prefix}_dd_madds"] = sum(
        r[q - 2] * r[q - 1] * r[q] for q in range(2, len(r)))


def _replay_mv_homology(tr: Tracer, sid, args, kwargs, result):
    (d,) = args
    top = len(result) - 1
    labels = [tr.replay(sid, "mv.generators", mv_generators, d, q)[0] for q in range(top + 1)]
    boundaries = [tr.replay(sid, "mv.boundary", mv_boundary, d, q)[0] for q in range(1, top + 1)]
    c, _ = tr.replay(sid, "homology.mv_complex", IntegerChainComplex,
                     [len(ls) for ls in labels], boundaries, labels)
    again, _ = tr.replay(sid, "homology.mv_snf", homology, c)
    if again != result:
        raise AssertionError("replayed MV homology differs from the traced call")
    if tr.count_once("mv"):
        for q in range(MAX_DEGREE + 1):
            gens = labels[q] if q <= top else ()
            for tag, label in TAGS.items():
                tr.counts[f"mv.generators_{q}_{label}"] = sum(g.tag == tag for g in gens)
        _matrix_counts(tr, "mv", c)
        lengths = [len(t.steps) for gens in labels[1:] for beta in gens
                   for ts in mv_trajectories_from(d, beta).values() for t in ts]
        tr.counts["mv.trajectories"] = len(lengths)
        tr.counts["mv.max_trajectory_steps"] = max(lengths, default=0)


def _replay_oracle(tr: Tracer, sid, args, kwargs, result):
    (x,) = args
    c, _ = tr.replay(sid, "homology.oracle_complex", simplicial_chain_complex, x)
    again, _ = tr.replay(sid, "homology.oracle_snf", homology, c)
    if again != result:
        raise AssertionError("replayed oracle homology differs from the traced call")
    if tr.count_once("oracle"):
        _matrix_counts(tr, "oracle", c)


def _count_xtilde(tr: Tracer, sid, args, kwargs, xt):
    if tr.count_once("xtilde"):
        tr.counts["verify.xtilde_simplices"] = len(xt.complex)


# The names `morsemv.cli` calls, the span each call gets, and the replay of
# its hidden sub-stages (or None).
_CLI_CALLS = (
    ("parse_complex", "formats.parse", _replay_parse_complex),
    ("parse_decomposition", "formats.parse", None),
    ("SimplicialComplex", "complexes.build", None),
    ("build_decomposition", "mv.decomposition", _replay_decomposition),
    ("mv_homology", "mv.homology", _replay_mv_homology),
    ("mv_generators", "mv.generators", None),
    ("enumerate_mv", "mv.enumerate", None),
    ("simplicial_homology", "homology.oracle", _replay_oracle),
    ("build_xtilde", "verify.xtilde", _count_xtilde),
    ("check_iso_simplicial", "verify.iso_simplicial", None),
    ("check_main_iso", "verify.main_iso", None),
)
