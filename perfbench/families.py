"""Seeded generators for the benchmark's four input families.

Each generator returns a `Family`: the maximal simplices of X, of A and of
B, the optional `[fields]` line, and the closed-form answers the run checks
against (f-vector, Euler characteristic, homology).  `write` turns a family
into the `.cx` / `.dec` text formats that `morsemv` reads.

The seed permutes the order of the lines in both files and changes nothing
else, so every seed asks for the same work.  For random this means the
instance itself is drawn once, from `RANDOM_INSTANCE`: between draws the
number of trajectories, and with it the cost of every operation, varies by
up to a factor of two, which no run length can average away.

This module imports nothing from `morsemv`: the expected f-vectors are
counted here from the closure of the generated simplices and compared with
closed forms, so a generator bug cannot hide behind a library bug.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

# Why each family is in the benchmark; `run.py` prints these and
# BENCHMARK.json repeats them.
WHY = {
    "torus": "large X, tiny MV complex (8 generators): the paper's regime, where "
             "dense SNF dominates oracle and verify and the MV route is cheap",
    "cube": "Freudenthal 3-cube cut at the mid-plane: complex construction and field "
            "building dominate homology; SNF and the trajectory walker do almost nothing",
    "path": "long path with pendant edges: one case-4 trajectory ascends the whole path, "
            "so the walker runs deep; an untimed probe at 1500 edges tracks the crash",
    "random": "fixed random 2-complex, random split and random fields: hundreds of "
              "trajectories, so MV boundary assembly and MV-side SNF carry real weight",
}

# The draw of the random family (see the module docstring).
RANDOM_INSTANCE = 1


@dataclass
class Family:
    name: str
    x: list[tuple[str, ...]]
    a: list[tuple[str, ...]]
    b: list[tuple[str, ...]]
    fields_line: str | None
    f_vector: tuple[int, ...]      # closed form, checked against the closure
    euler: int
    betti: tuple[int, ...] | None  # closed-form homology (free), None if unknown
    # trajectories op arguments (beta, alpha), or None
    trajectory_pair: tuple[str, str] | None = None


def _closure_f_vector(simplices) -> tuple[int, ...]:
    faces: set[tuple[str, ...]] = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            faces.update(itertools.combinations(s, k))
    top = max(len(f) for f in faces)
    return tuple(sum(1 for f in faces if len(f) == k + 1) for k in range(top))


def _check(f: Family) -> Family:
    """Self-check: the closure of the generated simplices has the closed-form
    f-vector and Euler characteristic, and A u B = X."""
    got = _closure_f_vector(f.x)
    if got != f.f_vector:
        raise AssertionError(f"{f.name}: f-vector {got}, expected {f.f_vector}")
    euler = sum((-1) ** q * n for q, n in enumerate(got))
    if euler != f.euler:
        raise AssertionError(f"{f.name}: Euler characteristic {euler}, expected {f.euler}")
    if {tuple(sorted(s)) for s in f.a + f.b} != {tuple(sorted(s)) for s in f.x}:
        raise AssertionError(f"{f.name}: A u B does not list the simplices of X")
    return f


def _shuffled(rng: random.Random, simplices):
    out = list(simplices)
    rng.shuffle(out)
    return out


def _reordered(f: Family, seed: int) -> Family:
    """The same family with the lines of both files in a seeded order."""
    rng = random.Random(seed)
    f.x, f.a, f.b = _shuffled(rng, f.x), _shuffled(rng, f.a), _shuffled(rng, f.b)
    return _check(f)


def torus(n: int, seed: int) -> Family:
    """The n x n torus grid (2n^2 triangles), cut into two cylinders along
    the rows 0 and n/2."""
    def v(i, j):
        return f"t{i % n:03d}_{j % n:03d}"

    a, b = [], []
    for i in range(n):
        for j in range(n):
            pair = [(v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                    (v(i, j), v(i, j + 1), v(i + 1, j + 1))]
            (a if i < n // 2 else b).extend(pair)
    return _reordered(Family("torus", a + b, a, b, None,
                             (n * n, 3 * n * n, 2 * n * n), 0, (1, 2, 1)), seed)


def cube(k: int, seed: int) -> Family:
    """The Freudenthal triangulation of the k x k x k cube (6 tetrahedra per
    unit cube), cut at the mid-plane z = k/2."""
    def v(p):
        return f"c{p[0]:02d}{p[1]:02d}{p[2]:02d}"

    a, b = [], []
    for corner in itertools.product(range(k), repeat=3):
        for perm in itertools.permutations(range(3)):
            p = list(corner)
            tet = [v(p)]
            for axis in perm:
                p[axis] += 1
                tet.append(v(p))
            (a if corner[2] < k // 2 else b).append(tuple(tet))
    f = ((k + 1) ** 3,
         3 * k * (k + 1) ** 2 + 3 * k * k * (k + 1) + k ** 3,
         6 * k * k * (k + 1) + 6 * k ** 3,
         6 * k ** 3)
    return _reordered(Family("cube", a + b, a, b, None, f, 1, (1, 0, 0, 0)), seed)


def path(n: int, seed: int) -> Family:
    """A path p0 - ... - pn with the pendant edge a<n> - pn in A and b0 - p0
    in B; both pieces hold the whole path.  With lexicographic fields the
    single trajectory I:p00000 -> A:a<n> ascends the full path."""
    p = [f"p{i:05d}" for i in range(n + 1)]
    edges = [(p[i], p[i + 1]) for i in range(n)]
    tip_a, tip_b = f"a{n}", "b0"
    a = edges + [(tip_a, p[n])]
    b = edges + [(tip_b, p[0])]
    return _reordered(Family("path", a + b[-1:], a, b, None, (n + 3, n + 2), 1, (1, 0),
                             trajectory_pair=(f"I:{p[0]}", f"A:{tip_a}")), seed)


def random_complex(vertices: int, triangles: int, shared: float, seed: int) -> Family:
    """`triangles` distinct random triangles on `vertices` names, drawn from
    `RANDOM_INSTANCE`.  A random `shared` share of them lies in both pieces
    and the rest is split evenly between A and B.  The pieces' gradient
    fields use the random strategy, also seeded by `RANDOM_INSTANCE`."""
    rng = random.Random(RANDOM_INSTANCE)
    names = [f"r{i:03d}" for i in range(vertices)]
    chosen: set[tuple[str, ...]] = set()
    while len(chosen) < triangles:
        chosen.add(tuple(sorted(rng.sample(names, 3))))
    x = _shuffled(rng, sorted(chosen))
    n_shared = round(shared * triangles)
    n_a = (triangles - n_shared) // 2
    a = x[:n_shared + n_a]
    b = x[:n_shared] + x[n_shared + n_a:]
    f = _closure_f_vector(x)
    euler = sum((-1) ** q * n for q, n in enumerate(f))
    return _reordered(Family("random", x, a, b, f"auto random {RANDOM_INSTANCE}",
                             f, euler, None), seed)


def write(f: Family, directory: Path) -> tuple[Path, Path]:
    """Write X as `<name>.cx` and the split as `<name>.dec`."""
    directory.mkdir(parents=True, exist_ok=True)
    cx = directory / f"{f.name}.cx"
    dec = directory / f"{f.name}.dec"
    cx.write_text("".join(" ".join(s) + "\n" for s in f.x), encoding="utf-8")
    lines = ["[A]"] + [" ".join(s) for s in f.a] + ["[B]"] + [" ".join(s) for s in f.b]
    if f.fields_line:
        lines += ["[fields]", f.fields_line]
    dec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cx, dec
