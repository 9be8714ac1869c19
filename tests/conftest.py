"""Shared fixtures: a corpus of small complexes with frozen homology, and a
standard decomposition of the octahedron with all three gradient fields
pinned by hand (so every weight and matrix it produces is reproducible).
"""
from __future__ import annotations

import importlib
import itertools
import random

import pytest

from morsemv import (
    HomologyResult,
    Simplex,
    SimplicialComplex,
    build_complex,
    build_decomposition,
)


# ---------------------------------------------------------------------------
# corpus


def octahedron() -> SimplicialComplex:
    """Boundary of the octahedron: the join {v0,v2} * {v1,v3} * {v4,v5}."""
    faces = [
        f"{p} {q} {r}"
        for p in ("v0", "v2")
        for q in ("v1", "v3")
        for r in ("v4", "v5")
    ]
    return build_complex(faces)


def seven_vertex_torus() -> SimplicialComplex:
    """Möbius–Kantor triangulation of the torus on 7 vertices."""
    faces = []
    for i in range(7):
        faces.append([f"v{i}", f"v{(i + 1) % 7}", f"v{(i + 3) % 7}"])
        faces.append([f"v{i}", f"v{(i + 2) % 7}", f"v{(i + 3) % 7}"])
    return build_complex(faces)


def klein_bottle() -> SimplicialComplex:
    """4x4 grid triangulation of the Klein bottle: horizontal edges wrap
    straight, the top row glues to the bottom with a flip."""

    def v(i: int, j: int) -> str:
        if i == 4:
            i = 0
        if j == 4:
            i, j = (4 - i) % 4, 0
        return f"v{i}{j}"

    faces = []
    for i in range(4):
        for j in range(4):
            faces.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            faces.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    return build_complex(faces)


RP2_FACES = ["1 2 3", "1 3 4", "1 4 5", "1 5 6", "1 2 6",
             "2 3 5", "3 4 6", "2 4 5", "3 5 6", "2 4 6"]


def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of RP^2 (antipodal icosahedron)."""
    return build_complex(RP2_FACES)


def rp2_chain(m: int) -> tuple[SimplicialComplex, SimplicialComplex, SimplicialComplex]:
    """(x, a, b): x is a chain of m copies of the 6-vertex RP^2, vertex 4
    of copy c glued to vertex 1 of copy c + 1, so H_1(x) = (Z/2)^m; a holds
    the first m // 2 copies and b the others, meeting in one vertex."""
    faces = [
        " ".join({"1": f"g{c}", "4": f"g{c + 1}"}.get(v, f"c{c}v{v}") for v in face.split())
        for c in range(m)
        for face in RP2_FACES
    ]
    half = 10 * (m // 2)
    return build_complex(faces), build_complex(faces[:half]), build_complex(faces[half:])


def suspension(
    x: SimplicialComplex,
) -> tuple[SimplicialComplex, SimplicialComplex, SimplicialComplex]:
    """(sx, a, b): the suspension of x, its join with the two points
    "north" and "south", and its two cones, a on north and b on south,
    which meet in x."""
    assert not {"north", "south"} & set(x.vertices)
    a, b = ([[*s.vertices, pole] for s in x.maximal_simplices] for pole in ("north", "south"))
    return build_complex(a + b), build_complex(a), build_complex(b)


def product(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """The staircase triangulation of |x| x |y| on the vertices "u|v": for
    maximal simplices [u_0 ... u_p] of x and [v_0 ... v_q] of y, in their
    sorted vertex order, one (p + q)-simplex per monotone lattice path from
    (0, 0) to (p, q), on the vertices (u_i, v_j) the path visits: the
    Eilenberg-Zilber shuffles (Hatcher, "Algebraic Topology", 3.B)."""
    faces = []
    for s, t in itertools.product(x.maximal_simplices, y.maximal_simplices):
        p, q = s.dim, t.dim
        for right in itertools.combinations(range(p + q), p):
            i = j = 0
            path = [(0, 0)]
            for step in range(p + q):
                i, j = (i + 1, j) if step in right else (i, j + 1)
                path.append((i, j))
            faces.append([f"{s.vertices[i]}|{t.vertices[j]}" for i, j in path])
    return build_complex(faces)


def moore(
    k: int, m: int = 3
) -> tuple[SimplicialComplex, SimplicialComplex, SimplicialComplex]:
    """(x, a, b): the Moore space M(Z/k, 1), H = Z, Z/k.  A disc whose
    boundary wraps k times round the m-cycle c0 ... c{m-1}: a ring of k m
    vertices r_i, coned off at "o" (the disc a), and joined to the cycle
    by the triangles c_i c_{i+1} r_{i+1} and c_i r_i r_{i+1}, indices of
    c taken mod m (the annulus b); a and b meet in the ring."""
    c, r = (lambda i: f"c{i % m}"), (lambda i: f"r{i % (k * m)}")
    a = [["o", r(i), r(i + 1)] for i in range(k * m)]
    b = [face for i in range(k * m)
         for face in ([c(i), c(i + 1), r(i + 1)], [c(i), r(i), r(i + 1)])]
    return build_complex(a + b), build_complex(a), build_complex(b)


def corpus_complexes() -> dict[str, SimplicialComplex]:
    simplex_boundary = lambda n: build_complex(
        [" ".join(f"v{i}" for i in range(n + 2) if i != k) for k in range(n + 2)]
    )
    return {
        "circle": build_complex(["v0 v1", "v1 v2", "v0 v2"]),
        "sphere2": simplex_boundary(2),
        "sphere3": simplex_boundary(3),
        "torus": seven_vertex_torus(),
        "klein": klein_bottle(),
        "rp2": projective_plane(),
        "wedge2circles": build_complex(
            ["v0 v1", "v1 v2", "v0 v2", "v0 v3", "v3 v4", "v0 v4"]
        ),
        "ball3": build_complex(["v0 v1 v2 v3"]),
        "two_points": build_complex(["p", "q"]),
    }


#: frozen homology, as (betti, torsion-orders) per degree
CORPUS_HOMOLOGY = {
    "circle": ((1, ()), (1, ())),
    "sphere2": ((1, ()), (0, ()), (1, ())),
    "sphere3": ((1, ()), (0, ()), (0, ()), (1, ())),
    "torus": ((1, ()), (2, ()), (1, ())),
    "klein": ((1, ()), (1, (2,)), (0, ())),
    "rp2": ((1, ()), (0, (2,)), (0, ())),
    "wedge2circles": ((1, ()), (2, ())),
    "ball3": ((1, ()),),
    "two_points": ((2, ()),),
}


def expected_homology(name: str) -> HomologyResult:
    return HomologyResult(CORPUS_HOMOLOGY[name])


@pytest.fixture(scope="session")
def corpus() -> dict[str, SimplicialComplex]:
    return corpus_complexes()


# ---------------------------------------------------------------------------
# the octahedron split along its equatorial square


def octahedron_pieces() -> tuple[SimplicialComplex, SimplicialComplex, SimplicialComplex]:
    """(X, A, B) where A is the upper cone (no v4), B the lower (no v5);
    A ∩ B is the equatorial square v0 v1 v2 v3."""
    x = octahedron()
    maximal = [" ".join(s.vertices) for s in x.maximal_simplices]
    a = build_complex([f for f in maximal if "v4" not in f.split()])
    b = build_complex([f for f in maximal if "v5" not in f.split()])
    return x, a, b


def octahedron_fields() -> dict[str, list[tuple[Simplex, Simplex]]]:
    """The pinned gradient fields: on A everything flows toward the apex v5,
    on B toward v4, and on the square three of the four edges are matched,
    leaving v2 and the edge v2 v3 critical."""
    w_a = [("v0", "v0 v5"), ("v1", "v1 v5"), ("v2", "v2 v5"), ("v3", "v3 v5"),
           ("v0 v1", "v0 v1 v5"), ("v1 v2", "v1 v2 v5"),
           ("v2 v3", "v2 v3 v5"), ("v0 v3", "v0 v3 v5")]
    w_b = [(s.replace("v5", "v4"), t.replace("v5", "v4")) for s, t in w_a]
    w_i = [("v3", "v0 v3"), ("v0", "v0 v1"), ("v1", "v1 v2")]
    return {
        piece: [(Simplex(s), Simplex(t)) for s, t in pairs]
        for piece, pairs in (("A", w_a), ("B", w_b), ("I", w_i))
    }


@pytest.fixture(scope="session")
def oct_decomposition():
    x, a, b = octahedron_pieces()
    return build_decomposition(x, a, b, fields=octahedron_fields())


# ---------------------------------------------------------------------------
# a field whose trajectory count doubles with each layer


def branching_complex(
    layers: int,
) -> tuple[SimplicialComplex, list[tuple[Simplex, Simplex]], Simplex, Simplex]:
    """(X, pairs, top, bottom): a 2-complex of `layers` Möbius bands in a
    row, and a gradient field on it whose trajectories from the critical
    triangle `top` to the critical edge `bottom` number 2**layers.

    Band i is the 5-vertex Möbius band on (one, two, three, four, five):
    triangles T = [one two three], U1 = [two three four], V1 = [three four
    five], V2 = [four five one], U2 = [five one two], consecutive ones
    sharing an edge.  T is entered through [one three]; U1, V1, U2, V2 are
    paired with [two three], [three four], [one two], [five one], so from T
    two paths (through U1, V1 and through U2, V2) reach [four five], the
    entry of the next band's T.  The two paths of a band carry the same
    sign, because the band is not orientable.  The bands' other edges are
    matched with vertices along a breadth-first spanning tree; the edges
    left over, the first band's [one three] and `bottom` (the last band's
    [four five]) are critical, and so is one vertex."""
    name = lambda i, k: f"b{i:03d}{k}"
    one, three = name(0, "p"), name(0, "q")
    top = None
    triangles, up = [], []
    for i in range(layers):
        two, four, five = name(i, "a"), name(i, "c"), name(i, "d")
        t = (one, two, three)
        top = top or t
        triangles += [
            t, (two, three, four), (three, four, five), (four, five, one), (five, one, two)
        ]
        up += [
            ((two, three), (two, three, four)),
            ((three, four), (three, four, five)),
            ((one, two), (five, one, two)),
            ((five, one), (four, five, one)),
        ]
        if i:
            up.append(((one, three), t))
        one, three = four, five
    x = SimplicialComplex([Simplex(t) for t in triangles])
    pairs = [(abs(Simplex(s)), abs(Simplex(t))) for s, t in up]
    bottom = abs(Simplex([one, three]))
    taken = {s for s, _ in pairs} | {bottom}
    neighbours: dict[str, list[tuple[str, Simplex]]] = {}
    for e in x.simplices(1):
        if e not in taken:
            a, b = e.vertices
            neighbours.setdefault(a, []).append((b, e))
            neighbours.setdefault(b, []).append((a, e))
    queue = [min(x.vertices)]
    reached = set(queue)
    for v in queue:
        for w, e in sorted(neighbours.get(v, [])):
            if w not in reached:
                reached.add(w)
                queue.append(w)
                pairs.append((Simplex(w), e))
    return x, pairs, abs(Simplex(top)), bottom


# ---------------------------------------------------------------------------
# random covers


def random_cover(
    x: SimplicialComplex, rng: random.Random
) -> tuple[SimplicialComplex, SimplicialComplex]:
    """Split the maximal simplices of `x` into two (possibly overlapping)
    nonempty groups; the union is always `x` by construction."""
    maximal = sorted(x.maximal_simplices)
    rng.shuffle(maximal)
    cut = rng.randint(1, len(maximal) - 1) if len(maximal) > 1 else 1
    a_part = list(maximal[:cut])
    b_part = list(maximal[cut:]) or [maximal[0]]
    # sometimes share a maximal simplex to fatten the intersection
    if len(maximal) > 1 and rng.random() < 0.5:
        a_part.append(rng.choice(b_part))
    return SimplicialComplex(a_part), SimplicialComplex(b_part)


def random_generators(rng: random.Random) -> list[Simplex]:
    """Up to 12 random simplices on at most 10 vertices, dimension at most 3."""
    n = rng.randint(1, 10)
    names = [f"v{i}" for i in range(n)]
    generators = []
    for _ in range(rng.randint(1, 12)):
        size = rng.randint(1, min(4, n))
        generators.append(Simplex(rng.sample(names, size)))
    return generators


def random_small_complex(rng: random.Random) -> SimplicialComplex:
    """A random complex on at most 10 vertices, dimension at most 3."""
    return SimplicialComplex(random_generators(rng))


# ---------------------------------------------------------------------------
# pinned fields written as [fields] pairs


def poor_field(
    piece: SimplicialComplex, p: float, rng: random.Random
) -> list[tuple[Simplex, Simplex]]:
    """The pairs of a coreduction of `piece` that leaves the next candidate
    critical with probability p, instead of pairing it.

    The candidate tau has one live facet sigma; it is paired with sigma or
    declared critical, and when none is left the first live simplex is
    declared critical.  A pair's other facets were removed before it, so
    the removal time decreases along every arc and the field is acyclic by
    construction, however poor."""
    order = list(piece.simplices())
    alive = set(order)
    live = {s: len(piece.facets(s)) for s in order}
    queue: list[Simplex] = []
    pairs = []

    def kill(s: Simplex) -> None:
        alive.discard(s)
        for t in piece.cofacets(s):
            if t in alive:
                live[t] -= 1
                if live[t] == 1:
                    queue.append(t)

    first = 0
    while alive:
        if queue:
            tau = queue.pop(0)
            if tau not in alive or live[tau] != 1:
                continue
            if rng.random() >= p:
                (sigma,) = [f for f in piece.facets(tau) if f in alive]
                pairs.append((sigma, tau))
                kill(sigma)
            kill(tau)
        else:
            while order[first] not in alive:
                first += 1
            kill(order[first])
    return pairs


def decomposition_text(
    a: SimplicialComplex,
    b: SimplicialComplex,
    fields: dict[str, list[tuple[Simplex, Simplex]]],
) -> str:
    """A decomposition file with the maximal simplices of a and b, and the
    given pairs, in the vertex names of X, as its [fields] section."""
    lines = ["[A]"] + [" ".join(s.vertices) for s in a.maximal_simplices]
    lines += ["[B]"] + [" ".join(s.vertices) for s in b.maximal_simplices]
    if fields:
        lines.append("[fields]")
        lines += [
            f"{piece}: {' '.join(sigma.vertices)} -> {' '.join(tau.vertices)}"
            for piece, pairs in fields.items()
            for sigma, tau in pairs
        ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# a verify run that loses every trajectory on one side


@pytest.fixture
def lose_trajectories(monkeypatch):
    """lose(side) makes `verify` see no trajectories on one side of its
    comparisons.  "trajectories_from" loses those of the gradient fields on
    X~: V's flow, which is its boundary, and W's split flow, behind W's
    boundary, its per-pair counts and the classification scan.
    "mv_trajectories_from" loses the Mayer-Vietoris ones: the MV columns,
    signed (`mv_chain_complex`) and split (verify's target, counts and
    sums)."""
    verify = importlib.import_module("morsemv.verify")
    mv = importlib.import_module("morsemv.mv")
    flow = importlib.import_module("morsemv.morse")._flow
    # the real kernel over a digraph without arcs: every id it values is empty
    no_arcs = lambda arcs, down, roots, split=False: flow(lambda tau: [], down, roots, split)
    no_columns = lambda d, keys, split=False: no_arcs(None, (), itertools.chain(*keys[1:]), split)
    patches = {
        "trajectories_from": [
            (verify, "_flow", no_arcs),
        ],
        "mv_trajectories_from": [
            (mv, "_mv_column", no_columns),
            (verify, "_mv_column", no_columns),
        ],
    }

    def lose(side: str) -> None:
        for module, name, replacement in patches[side]:
            monkeypatch.setattr(module, name, replacement)

    return lose
