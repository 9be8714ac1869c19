"""Mechanical verification of the machinery behind the Mayer-Vietoris
complex, on any concrete decomposition.

The auxiliary complex X~ glues the tagged copies of A and B to a prism over
the intersection copy: the prism's bottom vertices reuse the names of the
intersection inside the A-copy and its top vertices those inside the B-copy,
so the gluing is by plain vertex-name identity.

Two gradient fields on X~ carry the theory:

* V pairs, over every base simplex alpha of the intersection, the cell
  b_member(alpha, r) with a_member(alpha, r) for r = 0..dim(alpha), leaving
  the bottom copy of alpha unpaired.  Its critical cells are exactly the
  A-copy plus the B-copy minus the intersection's top copy, the Thom-Smale
  boundary of (X~, V) is *equal* (not merely chain-equivalent) to the
  simplicial boundary of X under the evident renaming g, and its homology
  is the homology of X.

* W restricts to the chosen fields on the A- and B-copies and extends them
  over the prism interior: each intersection-field pair (alpha, beta)
  matches the interior cells over alpha and beta among themselves (two
  shapes, depending on whether the vertex dropped from beta is its first),
  and the interior cells over a critical gamma are matched among themselves
  leaving the single cell a_member(gamma, 0).  Critical cells of W then
  correspond one-to-one to the Mayer-Vietoris generators via the map f
  (identity on the A-/B-copies, ground simplex on interior cells), and for
  every pair of critical cells the gradient trajectories of (X~, W) match
  the MV trajectories of the decomposition in count and in weight multiset;
  the two boundary matrices agree entry by entry under f.

`check_iso_simplicial` and `check_main_iso` re-derive all of this on a given
decomposition and report each comparison separately, with counterexamples.
Both read one shared context: `build_xtilde` computes the simplicial chain
complex C_*(X) and its homology once, and both checks compare against those
fields.  Both also run one comparison routine: the critical cells map
bijectively onto the target's generators, the Thom-Smale boundaries in
target order equal the target's, and the Thom-Smale homology equals the
target's.  Once the bijection and every matrix match, the Thom-Smale complex
is the target complex, so its homology is taken from the target; it is
computed from the Thom-Smale matrices only when a matrix differs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .complexes import PrismComplex, Simplex, SimplicialComplex, prism, union
from .errors import InternalConsistencyError, MorsemvError
from .homology import (
    HomologyResult,
    IntegerChainComplex,
    homology,
    simplicial_chain_complex,
)
from .morse import (
    GradientField,
    Trajectory,
    VectorField,
    _boundary_columns,
    _trajectory_complex,
    trajectories_from,
)
from .mv import (
    FROM_A,
    FROM_B,
    SHIFTED,
    Decomposition,
    MVGenerator,
    _generator,
    _max_degree,
    mv_generators,
    mv_trajectories_from,
)

__all__ = [
    "XTilde",
    "CheckResult",
    "VerifyReport",
    "build_xtilde",
    "check_iso_simplicial",
    "check_main_iso",
]


@dataclass(frozen=True)
class XTilde:
    """The glued complex A-copy u prism(intersection copy) u B-copy, with the
    context both checks share.

    `prism` is None when the intersection is empty (then X~ = A-copy |_| B-copy).
    `x_chains` is the simplicial chain complex C_*(X), generators labelled in
    canonical order, and `x_homology` its homology: the target of
    `check_iso_simplicial` and the reference of `check_main_iso`, each
    computed once per verify run."""

    decomposition: Decomposition
    complex: SimplicialComplex
    prism: PrismComplex | None
    interior: frozenset[Simplex]
    x_chains: IntegerChainComplex
    x_homology: HomologyResult


def build_xtilde(d: Decomposition) -> XTilde:
    x_chains = simplicial_chain_complex(d.x)
    shared = (x_chains, homology(x_chains))
    if d.iab_bar is None:
        return XTilde(d, union(d.a_bar.complex, d.b_bar.complex), None, frozenset(), *shared)
    base = d.iab_bar.complex
    untag = len(d.iab_bar.tag)
    a_name = {v: d.a_bar.tag + v[untag:] for v in base.vertices}
    b_name = {v: d.b_bar.tag + v[untag:] for v in base.vertices}
    p = prism(base, a_name, b_name)
    glued = union(d.a_bar.complex, p.complex, d.b_bar.complex)
    return XTilde(d, glued, p, p.interior_cells(), *shared)


def _build_v_field(xt: XTilde) -> GradientField:
    """The collapse-the-prism field V on X~ (empty when there is no prism)."""
    pairs: list[tuple[Simplex, Simplex]] = []
    if xt.prism is not None:
        for alpha in xt.prism.base.simplices():
            for r in range(alpha.dim + 1):
                pairs.append((xt.prism.b_member(alpha, r), xt.prism.a_member(alpha, r)))
    return GradientField.certify(VectorField(pairs), xt.complex)


def _prism_extension(xt: XTilde) -> tuple[list[tuple[Simplex, Simplex]], list[Simplex]]:
    """The interior pairs of W and the interior cells left critical."""
    d = xt.decomposition
    pairs: list[tuple[Simplex, Simplex]] = []
    criticals: list[Simplex] = []
    if xt.prism is None:
        return pairs, criticals
    p = xt.prism
    for alpha, beta in d.w_i.pairs:
        q = beta.dim
        (dropped,) = set(beta.vertices) - set(alpha.vertices)
        j = beta.vertices.index(dropped)
        if j == 0:
            pairs.append((p.a_member(alpha, 0), p.a_member(beta, 1)))
            pairs.append((p.b_member(beta, 1), p.a_member(beta, 0)))
            pairs.extend((p.b_member(beta, r), p.a_member(beta, r)) for r in range(2, q + 1))
        else:
            pairs.append((p.a_member(alpha, 0), p.a_member(beta, 0)))
            pairs.extend((p.b_member(beta, r), p.a_member(beta, r)) for r in range(1, q + 1))
        pairs.extend((p.b_member(alpha, r), p.a_member(alpha, r)) for r in range(1, q))
    for gamma in d.w_i.critical():
        pairs.extend(
            (p.b_member(gamma, r), p.a_member(gamma, r)) for r in range(1, gamma.dim + 1)
        )
        criticals.append(p.a_member(gamma, 0))
    return pairs, criticals


def _build_w_field(xt: XTilde) -> GradientField:
    """Assemble W and certify it, checking the critical-cell census against
    the predicted one (A-copy criticals, B-copy criticals, one interior cell
    per intersection critical)."""
    d = xt.decomposition
    prism_pairs, interior_crit = _prism_extension(xt)
    all_pairs = list(d.w_a.pairs) + list(d.w_b.pairs) + prism_pairs
    gvf = GradientField.certify(VectorField(all_pairs), xt.complex)
    expected = set(d.w_a.critical()) | set(d.w_b.critical()) | set(interior_crit)
    actual = set(gvf.critical())
    if actual != expected:
        raise InternalConsistencyError(
            "W-field critical census mismatch: "
            f"unexpected {sorted(actual - expected)}, missing {sorted(expected - actual)}"
        )
    return gvf


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


class _Checks:
    """Accumulator so each comparison lands in the report, pass or fail."""

    def __init__(self):
        self.results: list[CheckResult] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append(CheckResult(name, bool(ok), detail))
        return bool(ok)

    def report(self) -> VerifyReport:
        return VerifyReport(tuple(self.results))


def _compare(
    checks: _Checks,
    gvf: GradientField,
    source: str,
    image: Callable[[Simplex], Hashable],
    bijective: str,
    target: IntegerChainComplex,
    homologies: Sequence[tuple[str, HomologyResult]],
    paths_from: Callable[[Simplex], dict],
    pair_checks: Callable[[dict[Simplex, Hashable]], None] | None = None,
) -> None:
    """Compare the Thom-Smale complex of `gvf`, named `source` in reports,
    with `target`, whose labels name its generators in target order.

    Adds the check `bijective` (`image` maps the critical cells of each
    degree bijectively onto that degree's labels), then whatever
    `pair_checks` adds given the image of every critical cell, then
    `boundary_matrices_equal` (with each degree's cells ordered by their
    image, the Thom-Smale boundaries equal the target's) and `homology_equal`
    (the Thom-Smale homology equals each named group, the target's first).
    Stops after the first check when the bijection fails."""
    try:
        image_of = {s: image(s) for s in gvf.critical()}
    except InternalConsistencyError as e:
        checks.add(bijective, False, str(e))
        return
    top = max((s.dim for s in image_of), default=0)
    detail = ""
    for q in range(max(top, target.top) + 1):
        labels = target.labels[q] if q <= target.top else ()
        images = [image_of[s] for s in gvf.critical(q)]
        if len(images) != len(labels) or set(images) != set(labels):
            detail = f"images in degree {q} do not match the target generators"
            break
    if not checks.add(bijective, not detail, detail):
        return
    if pair_checks is not None:
        pair_checks(image_of)

    preimage = {label: s for s, label in image_of.items()}
    ordered = [[preimage[label] for label in labels] for labels in target.labels]
    got = [
        _boundary_columns(ordered[q - 1], ordered[q], paths_from)
        for q in range(1, target.top + 1)
    ]
    matrices_ok = True
    for q, (have, want) in enumerate(zip(got, target.columns), start=1):
        if have != want:
            matrices_ok = False
            spots = sorted(
                (i, j)
                for j, (h, w) in enumerate(zip(have, want))
                for i in h.keys() | w.keys()
                if h.get(i) != w.get(i)
            )
            detail = f"degree {q} differs at entries {spots[:5]}"
            break
    checks.add("boundary_matrices_equal", matrices_ok, detail)

    # Equal generators and equal matrices make the Thom-Smale complex the
    # target complex itself, so its homology is the target's.
    own = (
        homologies[0][1] if matrices_ok
        else homology(IntegerChainComplex.from_columns(target.ranks, got))
    )
    named = [(source, own), *homologies]
    ok = all(h == own for _, h in named)
    checks.add(
        "homology_equal",
        ok,
        str(homologies[-1][1]) if ok else "  vs  ".join(f"{n}: {h}" for n, h in named),
    )


def _g_image(xt: XTilde, s: Simplex) -> Simplex:
    """g: critical cells of V -> simplices of X (drop the copy tag)."""
    d = xt.decomposition
    if s in d.a_bar.complex:
        return d.a_bar.pull(s)
    return d.b_bar.pull(s)


def check_iso_simplicial(xt: XTilde) -> VerifyReport:
    """Compare (C_*(X), d) with the Thom-Smale complex of (X~, V) under g:
    critical-cell census, bijectivity of g, equality of every boundary
    matrix, and equality of homology."""
    d = xt.decomposition
    checks = _Checks()
    try:
        v = _build_v_field(xt)
        checks.add("v_field_certified", True, f"{len(v.pairs)} pairs, acyclic")
    except MorsemvError as e:
        checks.add("v_field_certified", False, str(e))
        return checks.report()

    top_b = (
        {d.b_bar.push(s) for s in d.iab.simplices()} if d.iab is not None else set()
    )
    expected = set(d.a_bar.complex.simplices()) | (
        set(d.b_bar.complex.simplices()) - top_b
    )
    actual = set(v.critical())
    checks.add(
        "v_critical_census",
        actual == expected,
        f"{len(actual)} critical cells"
        if actual == expected
        else f"unexpected {sorted(actual - expected)[:3]}, missing {sorted(expected - actual)[:3]}",
    )
    _compare(
        checks, v, "(X~,V)", lambda s: _g_image(xt, s), "g_bijective",
        xt.x_chains, [("X", xt.x_homology)], lambda tau: trajectories_from(v, tau),
    )
    return checks.report()


def _f_image(xt: XTilde, s: Simplex) -> MVGenerator:
    """f: critical cells of W -> MV generators."""
    d = xt.decomposition
    if s in d.a_bar.complex:
        return _generator(FROM_A, s)
    if s in d.b_bar.complex:
        return _generator(FROM_B, s)
    ground = xt.prism.ground_simplex(s)
    if s != xt.prism.a_member(ground, 0):
        raise InternalConsistencyError(
            f"interior critical cell {s} is not the distinguished cell over {ground}"
        )
    return _generator(SHIFTED, ground)


def _classify_w_trajectory(xt: XTilde, t: Trajectory) -> int:
    """Which of the five shapes a W-trajectory between critical cells has.
    Raises InternalConsistencyError when it fits none (which would refute
    the classification the whole construction rests on)."""
    d = xt.decomposition
    in_a = lambda s: s in d.a_bar.complex
    in_b = lambda s: s in d.b_bar.complex
    inside = lambda s: s in xt.interior
    steps = t.steps
    if in_a(steps[0]):
        if all(in_a(s) for s in steps):
            return 1
        raise InternalConsistencyError("trajectory leaves the A-copy")
    if in_b(steps[0]):
        if all(in_b(s) for s in steps):
            return 2
        raise InternalConsistencyError("trajectory leaves the B-copy")
    if not inside(steps[0]):
        raise InternalConsistencyError(f"critical start {steps[0]} in no piece")
    if inside(steps[-1]):
        if all(inside(s) for s in steps):
            return 3
        raise InternalConsistencyError("interior trajectory leaves the interior")
    crossing = next(i for i, s in enumerate(steps) if not inside(s))
    tail = steps[crossing:]
    if crossing % 2 == 1 and (all(in_a(s) for s in tail) or all(in_b(s) for s in tail)):
        return 4 if in_a(steps[-1]) else 5
    raise InternalConsistencyError("mixed trajectory has no clean crossing")


def check_main_iso(xt: XTilde) -> VerifyReport:
    """Compare the Thom-Smale complex of (X~, W) with the Mayer-Vietoris
    complex of the decomposition under f: critical census, bijectivity of f,
    per-pair trajectory counts and weight multisets, trajectory
    classification, boundary matrices, and homology (against the direct
    simplicial computation as well)."""
    d = xt.decomposition
    checks = _Checks()
    try:
        gvf = _build_w_field(xt)
        checks.add("w_field_certified", True, f"{len(gvf.pairs)} pairs, acyclic")
    except MorsemvError as e:
        checks.add("w_field_certified", False, str(e))
        return checks.report()

    # every trajectory upstairs and in MV, enumerated once per critical cell
    gamma = {tau: trajectories_from(gvf, tau) for tau in gvf.critical() if tau.dim}
    mv = {beta: mv_trajectories_from(d, beta) for beta in mv_generators(d) if beta.degree}
    gens = [mv_generators(d, q) for q in range(_max_degree(d) + 1)]
    target = _trajectory_complex(gens, mv.get)

    def pair_checks(f_of: dict[Simplex, MVGenerator]) -> None:
        counts_ok = weights_ok = classes_ok = True
        c_detail = w_detail = k_detail = ""
        pairs_compared = 0
        for tau, paths in gamma.items():
            for sigma in gvf.critical(tau.dim - 1):
                g_list = paths.get(sigma, [])
                m_list = mv[f_of[tau]].get(f_of[sigma], [])
                pairs_compared += 1
                if counts_ok and len(g_list) != len(m_list):
                    counts_ok = False
                    c_detail = (
                        f"{f_of[tau]} -> {f_of[sigma]}: "
                        f"{len(g_list)} trajectories upstairs, {len(m_list)} in MV"
                    )
                if weights_ok and sorted(t.weight for t in g_list) != sorted(
                    t.weight for t in m_list
                ):
                    weights_ok = False
                    w_detail = f"{f_of[tau]} -> {f_of[sigma]}: weight multisets differ"
                if classes_ok:
                    try:
                        up = sorted(_classify_w_trajectory(xt, t) for t in g_list)
                    except InternalConsistencyError as e:
                        up, classes_ok, k_detail = None, False, str(e)
                    if up is not None and up != sorted(t.case for t in m_list):
                        classes_ok = False
                        k_detail = f"{f_of[tau]} -> {f_of[sigma]}: case multisets differ"
        checks.add(
            "trajectory_counts_match",
            counts_ok,
            c_detail or f"{pairs_compared} critical pairs compared",
        )
        checks.add("trajectory_weights_match", weights_ok, w_detail)
        checks.add("trajectory_classification", classes_ok, k_detail)

    _compare(
        checks, gvf, "(X~,W)", lambda s: _f_image(xt, s), "f_bijective_onto_generators",
        target, [("MV", homology(target)), ("X", xt.x_homology)], gamma.get, pair_checks,
    )
    return checks.report()
