"""Golden JSON reports: every command on two fixed inputs must reproduce the
committed bytes exactly.

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
