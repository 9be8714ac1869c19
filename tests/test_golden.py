"""Golden reports: every command on two fixed inputs must reproduce the
committed bytes exactly, as JSON and as text.

The greedy fields follow the order in which the complex lists facets and
cofacets, and the trajectory order follows the facet order, so these files
pin both.  Inputs: the octahedron split along its equator, and a cover of
the seven-vertex torus, both under `auto random 3`.
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


def test_failing_verify_text_matches_golden(capsys, lose_trajectories):
    """A `verify` run that loses the Mayer-Vietoris trajectories: the
    failing checks, their details and the verdict, byte for byte."""
    lose_trajectories("mv_trajectories_from")
    assert main(_text_argv("octahedron", "verify")) == 5
    want = (GOLDEN / "octahedron.verify-fail.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
