"""End-to-end acceptance tests.

Each test pins one advertised guarantee of the package.  All comparisons
are exact (integer homology, integer matrices, byte-identical reports);
the long-running sweeps also assert their time budgets.
"""
from __future__ import annotations

import json
import random
import re
import time
from pathlib import Path

import pytest

import morsemv
from morsemv import (
    HomologyResult,
    MVGenerator,
    Simplex,
    build_complex,
    build_decomposition,
    build_xtilde,
    check_iso_simplicial,
    check_main_iso,
    enumerate_mv,
    greedy_gvf,
    homology,
    mv_chain_complex,
    mv_generators,
    mv_homology,
    simplicial_homology,
    thom_smale_complex,
)
from morsemv import errors
from morsemv.cli import main
from morsemv.mv import mv_boundary
from conftest import (
    corpus_complexes,
    expected_homology,
    octahedron_fields,
    octahedron_pieces,
    random_cover,
    random_small_complex,
)
from slow_reference import validate_mv_trajectory


def corpus_instances():
    """The decompositions swept by the oracle-equivalence criterion:
    every corpus complex, five random covers each, three seeded fields."""
    for name, x in sorted(corpus_complexes().items()):
        rng = random.Random(sum(map(ord, name)))
        for split in range(5):
            a, b = random_cover(x, rng)
            for seed in (2, 3, 5):
                yield name, x, build_decomposition(
                    x, a, b, strategy="random", seed=seed
                )


def test_worked_example_is_bit_exact():
    # Budget: under one second, tolerance exact.
    started = time.perf_counter()
    x, a, b = octahedron_pieces()
    d = build_decomposition(x, a, b, fields=octahedron_fields())

    assert [str(g) for g in mv_generators(d, 0)] == ["FromA:A:v5", "FromB:B:v4"]
    assert [str(g) for g in mv_generators(d, 1)] == ["Shifted:I:v2"]
    assert [str(g) for g in mv_generators(d, 2)] == ["Shifted:I:v2,I:v3"]

    (edge_gen,) = mv_generators(d, 1)
    (tri_gen,) = mv_generators(d, 2)
    a5 = MVGenerator("FromA", Simplex("A:v5"), 0)
    b4 = MVGenerator("FromB", Simplex("B:v4"), 0)

    (p1,) = enumerate_mv(d, edge_gen, a5)
    (p2,) = enumerate_mv(d, edge_gen, b4)
    q1, q2 = sorted(enumerate_mv(d, tri_gen, edge_gen),
                    key=lambda t: len(t.steps))
    assert (p1.weight, p2.weight, q1.weight, q2.weight) == (-1, 1, 1, -1)

    # boundary of the edge generator is [B:v4] - [A:v5]; the top one vanishes
    assert mv_boundary(d, 1) == [[-1], [1]]
    assert mv_boundary(d, 2) == [[0]]
    assert mv_homology(d) == expected_homology("sphere2")

    assert time.perf_counter() - started < 1.0


def test_mv_homology_equals_oracle_across_corpus():
    # Budget: under sixty seconds for the whole sweep, tolerance exact.
    started = time.perf_counter()
    runs = 0
    for name, x, d in corpus_instances():
        assert mv_homology(d) == simplicial_homology(x), name
        runs += 1
    assert runs == len(corpus_complexes()) * 5 * 3
    assert time.perf_counter() - started < 60.0


def test_boundary_squares_to_zero_everywhere():
    def boundary_product_vanishes(d):
        c = mv_chain_complex(d)  # the constructor also checks; recompute anyway
        for q in range(2, c.top + 1):
            lower, upper = c.boundaries[q - 2], c.boundaries[q - 1]
            cols = len(upper[0]) if upper else 0
            for i in range(len(lower)):
                for j in range(cols):
                    assert sum(
                        lower[i][k] * upper[k][j] for k in range(len(upper))
                    ) == 0

    for _, _, d in corpus_instances():
        boundary_product_vanishes(d)
    rng = random.Random(271828)
    for _ in range(100):
        x = random_small_complex(rng)
        a, b = random_cover(x, rng)
        boundary_product_vanishes(build_decomposition(x, a, b))


def test_thom_smale_homology_and_morse_inequalities():
    for name, x in sorted(corpus_complexes().items()):
        expected = expected_homology(name)
        for strategy, seed in (("lexicographic", None), ("random", 2),
                               ("random", 3)):
            gvf = greedy_gvf(x, strategy, seed)
            assert homology(thom_smale_complex(gvf)) == expected, name
            for q in range(x.dim + 1):
                assert len(gvf.critical(q)) >= expected.betti(q), (name, q)


def test_structural_checks_pass_on_every_corpus_decomposition():
    # Budget: under two minutes corpus-wide, tolerance exact.
    started = time.perf_counter()
    instances = []
    x, a, b = octahedron_pieces()
    instances.append(build_decomposition(x, a, b, fields=octahedron_fields()))
    for name, y in sorted(corpus_complexes().items()):
        rng = random.Random(len(name))
        for _ in range(5):
            a, b = random_cover(y, rng)
            instances.append(build_decomposition(y, a, b, strategy="random",
                                                 seed=13))
    for d in instances:
        xt = build_xtilde(d)
        structural = check_iso_simplicial(xt)
        assert structural.ok, str(structural)
        main_iso = check_main_iso(xt)
        assert main_iso.ok, str(main_iso)
    assert time.perf_counter() - started < 120.0


def long_path(directory, n=1500):
    """A path p0 - ... - pn with the pendant edge a - pn in A and b - p0 in
    B; both pieces hold the whole path, so the single case-4 trajectory from
    I:p0 ascends all of it.  X is contractible.  Writes X and the split to
    `directory`; returns the lines of A and of B and the CLI file options."""
    path = [f"p{i} p{i + 1}" for i in range(n)]
    a_lines, b_lines = path + [f"a p{n}"], path + ["b p0"]
    cx, dec = directory / "path.cx", directory / "path.dec"
    cx.write_text("\n".join(a_lines + b_lines[-1:]) + "\n")
    dec.write_text("\n".join(["[A]", *a_lines, "[B]", *b_lines]) + "\n")
    return a_lines, b_lines, ["--complex", str(cx), "--decomposition", str(dec)]


def test_long_path_has_no_depth_limit(tmp_path, capsys):
    n = 1500
    a_lines, b_lines, files = long_path(tmp_path, n)
    x = build_complex(a_lines + b_lines[-1:])
    d = build_decomposition(x, build_complex(a_lines), build_complex(b_lines))
    assert mv_homology(d) == HomologyResult([(1, ())])

    beta = MVGenerator("Shifted", Simplex("I:p0"), 1)
    (t,) = enumerate_mv(d, beta, MVGenerator("FromA", Simplex("A:a"), 0))
    assert t.weight in (-1, 1) and t.l == n + 1
    validate_mv_trajectory(d, t)

    files += ["--output", "json"]
    assert main(["homology", *files]) == 0
    groups = [row["group"] for row in json.loads(capsys.readouterr().out)["homology"]]
    assert groups == ["Z", "0"]
    assert main(["trajectories", *files, "I:p0", "A:a"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_long_path_oracle_and_verify(tmp_path, capsys):
    # Budget: under thirty seconds for both commands, tolerance exact.  With
    # dense matrices of C_*(X) they took about forty seconds at 900 edges.
    started = time.perf_counter()
    _, _, files = long_path(tmp_path)
    assert main(["oracle", *files[:2], "--output", "json"]) == 0
    groups = [row["group"] for row in json.loads(capsys.readouterr().out)["homology"]]
    assert groups == ["Z", "0"]
    assert main(["verify", *files, "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and all(c["ok"] for c in report["checks"])
    assert time.perf_counter() - started < 30.0


def test_projective_plane_torsion_through_mv():
    x = corpus_complexes()["rp2"]
    rng = random.Random(6)
    for _ in range(8):
        a, b = random_cover(x, rng)
        for strategy, seed in (("lexicographic", None), ("random", 21)):
            d = build_decomposition(x, a, b, strategy=strategy, seed=seed)
            result = mv_homology(d)
            assert result.betti(1) == 0
            assert result.torsion(1) == (2,)


def test_json_reports_are_byte_identical(tmp_path, capsys):
    from test_cli import DECOMPOSITION, OCTAHEDRON

    cx = tmp_path / "octahedron.cx"
    cx.write_text(OCTAHEDRON)
    dec = tmp_path / "split.dec"
    dec.write_text(DECOMPOSITION)
    plain = tmp_path / "plain.dec"
    plain.write_text(DECOMPOSITION.split("[fields]")[0])

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    commands = [
        ["homology", "--complex", str(cx), "--decomposition", str(dec)],
        ["verify", "--complex", str(cx), "--decomposition", str(dec)],
        ["trajectories", "--complex", str(cx), "--decomposition", str(dec),
         "I:v2,I:v3", "I:v2"],
        ["oracle", "--complex", str(cx)],
        ["homology", "--complex", str(cx), "--decomposition", str(plain),
         "--strategy", "random", "--seed", "11"],
    ]
    for command in commands:
        argv = command + ["--output", "json"]
        first, second = run(argv), run(argv)
        assert first == second
        json.loads(first)  # and it is well-formed JSON


def test_package_surface_is_the_library_tour():
    # The package exports the names in the first column of the README's
    # library-tour table, the error types and `__version__`, nothing else.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    tour = {
        quoted.split("(")[0]
        for row in rows
        for quoted in re.findall(r"`([^`]+)`", row.split("|")[1])
    }
    error_types = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.MorsemvError)
    }
    assert len(rows) >= 10 and len(error_types) == 7
    assert set(morsemv.__all__) == tour | error_types | {"__version__"}
    assert len(morsemv.__all__) == len(set(morsemv.__all__))
    for name in morsemv.__all__:
        assert getattr(morsemv, name) is not None, name
