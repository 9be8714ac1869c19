"""Golden reports: every command on two fixed inputs must reproduce the
committed bytes exactly, as JSON and as text.

The greedy fields follow the order in which the complex lists facets and
cofacets, and the trajectory order follows the facet order, so these files
pin both.  Inputs: the octahedron split along its equator, and a cover of
the seven-vertex torus, both under `auto random 3`.  `verify` has a third:
the 3-sphere, the boundary of the 4-simplex, with A the star of v0 and B
the facet opposite, under `auto random 3`, whose intersection, the
boundary of that facet, is 2-dimensional, so its prism blocks have three
levels.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from morsemv.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (beta, alpha) for the trajectories report: a case-5 route on the
# octahedron, and a pair of cancelling case-4 routes with a 3-step descent
# on the torus.
PAIRS = {
    "octahedron": ("I:v3", "B:v4"),
    "torus": ("I:v0,I:v1", "A:v4,A:v6"),
}


@pytest.mark.parametrize("command", ["homology", "trajectories", "verify", "oracle"])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_json_matches_golden(name, command, capsys):
    argv = [command, "--complex", str(GOLDEN / f"{name}.cx"), "--output", "json"]
    if command != "oracle":
        argv += ["--decomposition", str(GOLDEN / f"{name}.dec")]
    if command == "trajectories":
        argv += PAIRS[name]
    assert main(argv) == 0
    want = (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def _text_argv(name: str, command: str) -> list[str]:
    """The argv of `test_json_matches_golden`, with text output."""
    argv = [command, "--complex", str(GOLDEN / f"{name}.cx")]
    if command != "oracle":
        argv += ["--decomposition", str(GOLDEN / f"{name}.dec")]
    if command == "trajectories":
        argv += PAIRS[name]
    return argv + ["--output", "text"]


@pytest.mark.parametrize("command", ["homology", "trajectories", "verify", "oracle"])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_text_matches_golden(name, command, capsys):
    assert main(_text_argv(name, command)) == 0
    want = (GOLDEN / f"{name}.{command}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("output,suffix", [("json", "json"), ("text", "txt")])
def test_sphere3_verify_matches_golden(output, suffix, capsys):
    argv = ["verify", "--complex", str(GOLDEN / "sphere3.cx"),
            "--decomposition", str(GOLDEN / "sphere3.dec"), "--output", output]
    assert main(argv) == 0
    want = (GOLDEN / f"sphere3.verify.{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_failing_verify_text_matches_golden(capsys, lose_trajectories):
    """A `verify` run that loses the Mayer-Vietoris trajectories: the
    failing checks, their details and the verdict, byte for byte."""
    lose_trajectories("mv_trajectories_from")
    assert main(_text_argv("octahedron", "verify")) == 5
    want = (GOLDEN / "octahedron.verify-fail.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_failing_sphere3_verify_text_matches_golden(capsys, lose_trajectories):
    """The same on the 3-sphere, whose first failing pair is read off W's
    critical cells in canonical order, not in X~'s id order."""
    lose_trajectories("mv_trajectories_from")
    argv = ["verify", "--complex", str(GOLDEN / "sphere3.cx"),
            "--decomposition", str(GOLDEN / "sphere3.dec"), "--output", "text"]
    assert main(argv) == 5
    want = (GOLDEN / "sphere3.verify-fail.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("suffix", ["cx", "dec"])
def test_byte_order_mark_is_not_input(suffix, tmp_path, capsys):
    """An input file that starts with a UTF-8 byte-order mark reads as the
    same file without it."""
    paths = {s: GOLDEN / f"octahedron.{s}" for s in ("cx", "dec")}
    paths[suffix] = tmp_path / f"bom.{suffix}"
    paths[suffix].write_bytes(b"\xef\xbb\xbf" + (GOLDEN / f"octahedron.{suffix}").read_bytes())
    argv = ["homology", "--complex", str(paths["cx"]), "--decomposition", str(paths["dec"]),
            "--output", "json"]
    assert main(argv) == 0
    want = (GOLDEN / "octahedron.homology.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
