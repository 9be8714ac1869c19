"""The command-line interface: reports, output formats, and exit codes."""
from __future__ import annotations

import ast
import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv.cli import main
from conftest import decomposition_text, rp2_chain

cli_module = importlib.import_module("morsemv.cli")

OCTAHEDRON = """\
# the octahedron, two poles v4/v5 over the square v0 v1 v2 v3
v0 v1 v4
v0 v1 v5
v0 v3 v4
v0 v3 v5
v2 v1 v4
v2 v1 v5
v2 v3 v4
v2 v3 v5
"""

DECOMPOSITION = """\
[A]
v0 v1 v5
v0 v3 v5
v2 v1 v5
v2 v3 v5
[B]
v0 v1 v4
v0 v3 v4
v2 v1 v4
v2 v3 v4
[fields]
A: v0 -> v0 v5
A: v1 -> v1 v5
A: v2 -> v2 v5
A: v3 -> v3 v5
A: v0 v1 -> v0 v1 v5
A: v1 v2 -> v1 v2 v5
A: v2 v3 -> v2 v3 v5
A: v0 v3 -> v0 v3 v5
B: v0 -> v0 v4
B: v1 -> v1 v4
B: v2 -> v2 v4
B: v3 -> v3 v4
B: v0 v1 -> v0 v1 v4
B: v1 v2 -> v1 v2 v4
B: v2 v3 -> v2 v3 v4
B: v0 v3 -> v0 v3 v4
I: v3 -> v0 v3
I: v0 -> v0 v1
I: v1 -> v1 v2
"""


@pytest.fixture
def files(tmp_path):
    cx = tmp_path / "octahedron.cx"
    cx.write_text(OCTAHEDRON)
    dec = tmp_path / "split.dec"
    dec.write_text(DECOMPOSITION)
    return str(cx), str(dec)


class TestHomologyCommand:
    def test_text_report(self, files, capsys):
        cx, dec = files
        assert main(["homology", "--complex", cx, "--decomposition", dec]) == 0
        out = capsys.readouterr().out
        assert "complex: dim 2, f-vector (6, 12, 8), euler 2" in out
        assert "H_0 = Z" in out and "H_1 = 0" in out and "H_2 = Z" in out
        assert "q=0: 2 (FromA 1, FromB 1, Shifted 0)" in out

    def test_json_report(self, files, capsys):
        cx, dec = files
        assert main(["homology", "--complex", cx, "--decomposition", dec,
                     "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["command"] == "homology"
        assert payload["complex"]["f_vector"] == [6, 12, 8]
        assert payload["pieces"] == {
            "a_size": 17, "b_size": 17, "intersection_size": 8,
        }
        assert payload["homology"] == [
            {"degree": 0, "betti": 1, "torsion": [], "group": "Z"},
            {"degree": 1, "betti": 0, "torsion": [], "group": "0"},
            {"degree": 2, "betti": 1, "torsion": [], "group": "Z"},
        ]

    def test_degree_filter(self, files, capsys):
        cx, dec = files
        assert main(["homology", "--complex", cx, "--decomposition", dec,
                     "--degree", "2", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["homology"] == [
            {"degree": 2, "betti": 1, "torsion": [], "group": "Z"},
        ]

    def test_negative_degree_exits_2(self, files, capsys):
        cx, dec = files
        assert main(["homology", "--complex", cx, "--decomposition", dec,
                     "--degree", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--degree" in captured.err
        assert captured.out == ""

    def test_strategy_flags_do_not_change_homology(self, files, tmp_path, capsys):
        cx, _ = files
        plain = tmp_path / "plain.dec"
        plain.write_text(DECOMPOSITION.split("[fields]")[0])
        for extra in ([], ["--strategy", "random", "--seed", "7"],
                      ["--strategy", "lex"]):
            assert main(["homology", "--complex", cx, "--decomposition",
                         str(plain), "--output", "json", *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert [row["group"] for row in payload["homology"]] == ["Z", "0", "Z"]

    def test_file_auto_line_sets_strategy(self, files, tmp_path, capsys):
        cx, _ = files
        dec = tmp_path / "auto.dec"
        dec.write_text(DECOMPOSITION.split("[fields]")[0] + "[fields]\nauto random 3\n")
        assert main(["homology", "--complex", cx, "--decomposition", str(dec),
                     "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "random" and payload["seed"] == 3
        # a command-line strategy overrides the file's auto line
        assert main(["homology", "--complex", cx, "--decomposition", str(dec),
                     "--output", "json", "--strategy", "lex"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "lexicographic"

    def test_copied_and_rewritten_dec_lines_give_one_report(self, files, tmp_path, capsys):
        """Whether the [A]/[B] lines are copied from the complex file, which
        resolves them by one lookup, or rewritten, which resolves them by
        their names, the report is the same."""
        cx, dec = files
        copied = Path(dec).read_text()
        rewritten = "\n".join(
            line if line.startswith("[") or not line.strip()
            else "  ".join(reversed(line.split())) + "   # rewritten"
            for line in copied.split("[fields]")[0].splitlines()
        ) + "\n[fields]" + copied.split("[fields]")[1]
        assert rewritten != copied
        reports = []
        for text in (copied, rewritten):
            path = tmp_path / "piece.dec"
            path.write_text(text)
            assert main(["homology", "--complex", cx, "--decomposition", str(path),
                         "--output", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestTrajectoriesCommand:
    def test_single_case4(self, files, capsys):
        cx, dec = files
        assert main(["trajectories", "--complex", cx, "--decomposition", dec,
                     "I:v2", "A:v5"]) == 0
        out = capsys.readouterr().out
        assert "trajectories: 1, weight sum -1" in out
        assert "case 4, p=0, l=1, weight -1: [I:v2] -> [A:v2] -> [A:v2 A:v5] -> [A:v5]" in out

    def test_cancelling_pair(self, files, capsys):
        cx, dec = files
        assert main(["trajectories", "--complex", cx, "--decomposition", dec,
                     "I:v2,I:v3", "I:v2", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2 and payload["weight_sum"] == 0
        cases = sorted(t["case"] for t in payload["trajectories"])
        assert cases == [3, 3]
        weights = sorted(t["weight"] for t in payload["trajectories"])
        assert weights == [-1, 1]
        short = min(payload["trajectories"], key=lambda t: len(t["steps"]))
        assert short["steps"] == [["I:v2", "I:v3"], ["I:v2"]]

    def test_crossing_into_b(self, files, capsys):
        cx, dec = files
        assert main(["trajectories", "--complex", cx, "--decomposition", dec,
                     "I:v2", "B:v4", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1 and payload["weight_sum"] == 1
        assert payload["trajectories"][0]["case"] == 5

    def test_route_with_no_trajectories(self, tmp_path, capsys):
        # a FromA -> FromB query is legal but can never have trajectories
        cx = tmp_path / "wedge.cx"
        cx.write_text("v0 v1\nv1 v2\nv0 v2\nv0 v3\nv3 v4\nv0 v4\n")
        dec = tmp_path / "wedge.dec"
        dec.write_text("[A]\nv0 v1\nv1 v2\nv0 v2\n[B]\nv0 v3\nv3 v4\nv0 v4\n")
        assert main(["trajectories", "--complex", str(cx), "--decomposition",
                     str(dec), "A:v1,A:v2", "B:v0", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0 and payload["weight_sum"] == 0
        assert payload["trajectories"] == []

    def test_generator_vertices_in_any_order(self, files, capsys):
        cx, dec = files
        outputs = []
        for beta in ("I:v2,I:v3", "I:v3,I:v2"):
            assert main(["trajectories", "--complex", cx, "--decomposition", dec,
                         beta, "I:v2", "--output", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["count"] == 2

    def test_generators_resolved_without_naming_the_degree(self, monkeypatch, capsys):
        """BETA and ALPHA are looked up on ids: the run names one generator
        (the target, once its trajectories are found) and lists none."""
        mv = importlib.import_module("morsemv.mv")
        calls = {"_named_generator": 0, "mv_generators": 0}

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(mv, "_named_generator", spy("_named_generator", mv._named_generator))
        counted = spy("mv_generators", mv.mv_generators)
        monkeypatch.setattr(mv, "mv_generators", counted)
        monkeypatch.setattr(cli_module, "mv_generators", counted)
        golden = Path(__file__).parent / "golden"
        assert main(["trajectories", "--complex", str(golden / "torus.cx"),
                     "--decomposition", str(golden / "torus.dec"),
                     "I:v0,I:v1", "A:v4,A:v6"]) == 0
        assert "trajectories: 2, weight sum +0" in capsys.readouterr().out
        assert calls["_named_generator"] <= 1 and calls["mv_generators"] == 0

    def test_unknown_generator_exits_2(self, files, capsys):
        cx, dec = files
        assert main(["trajectories", "--complex", cx, "--decomposition", dec,
                     "I:v9", "A:v5"]) == 2
        assert "unknown generator" in capsys.readouterr().err

    @pytest.mark.parametrize("beta,alpha", [("A:v5", "B:v4"), ("I:v2,I:v3", "A:v5")])
    def test_non_adjacent_degrees_exit_2(self, files, capsys, beta, alpha):
        # both generators exist, so the decomposition is fine: the query is bad
        cx, dec = files
        assert main(["trajectories", "--complex", cx, "--decomposition", dec,
                     beta, alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: BETA")
        assert "ALPHA must be one degree below BETA" in captured.err


class TestVerifyCommand:
    def test_text_pass(self, files, capsys):
        cx, dec = files
        assert main(["verify", "--complex", cx, "--decomposition", dec]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS (12 checks)" in out
        assert "simplicial:" in out and "mayer_vietoris:" in out

    def test_json_pass(self, files, capsys):
        cx, dec = files
        assert main(["verify", "--complex", cx, "--decomposition", dec,
                     "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["checks"]) == 12
        assert all(c["ok"] for c in payload["checks"])

    @pytest.mark.parametrize("name", ["trajectories_from", "mv_trajectories_from"])
    def test_failing_check_exits_5(self, files, capsys, lose_trajectories, name):
        lose_trajectories(name)
        cx, dec = files
        assert main(["verify", "--complex", cx, "--decomposition", dec]) == 5
        out = capsys.readouterr().out
        assert "  FAIL boundary_matrices_equal: degree 1 differs at entries" in out
        assert "  FAIL homology_equal: " in out
        assert "verdict: FAIL (12 checks)" in out
        assert main(["verify", "--complex", cx, "--decomposition", dec,
                     "--output", "json"]) == 5
        assert json.loads(capsys.readouterr().out)["ok"] is False


class TestDisjointPieces:
    """A cover by two disjoint triangle boundaries: A n B is empty, so there
    is no I-copy and no Shifted generator."""

    @pytest.fixture
    def disjoint(self, tmp_path):
        cx = tmp_path / "circles.cx"
        cx.write_text("v0 v1\nv1 v2\nv0 v2\nw0 w1\nw1 w2\nw0 w2\n")
        dec = tmp_path / "circles.dec"
        dec.write_text("[A]\nv0 v1\nv1 v2\nv0 v2\n[B]\nw0 w1\nw1 w2\nw0 w2\n")
        return str(cx), str(dec)

    def test_homology(self, disjoint, capsys):
        cx, dec = disjoint
        assert main(["homology", "--complex", cx, "--decomposition", dec,
                     "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pieces"]["intersection_size"] == 0
        assert all(row["shifted"] == 0 for row in payload["generators"])
        assert [(row["degree"], row["group"]) for row in payload["homology"]] == [
            (0, "Z^2"), (1, "Z^2"),
        ]

    def test_verify_passes(self, disjoint, capsys):
        cx, dec = disjoint
        assert main(["verify", "--complex", cx, "--decomposition", dec]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_intersection_generator_exits_2(self, disjoint, capsys):
        cx, dec = disjoint
        assert main(["trajectories", "--complex", cx, "--decomposition", dec,
                     "I:v0,I:v1", "I:v0"]) == 2
        assert "unknown generator" in capsys.readouterr().err


class TestOracleCommand:
    def test_text(self, files, capsys):
        cx, _ = files
        assert main(["oracle", "--complex", cx]) == 0
        out = capsys.readouterr().out
        assert "H_0 = Z" in out and "H_2 = Z" in out

    def test_negative_degree_exits_2(self, files, capsys):
        cx, _ = files
        assert main(["oracle", "--complex", cx, "--degree", "-1", "--output", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--degree" in captured.err
        assert captured.out == ""

    def test_json_torsion(self, tmp_path, capsys):
        cx = tmp_path / "rp2.cx"
        cx.write_text("1 2 3\n1 3 4\n1 4 5\n1 5 6\n1 2 6\n"
                      "2 3 5\n3 4 6\n2 4 5\n3 5 6\n2 4 6\n")
        assert main(["oracle", "--complex", str(cx), "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["homology"][1] == {
            "degree": 1, "betti": 0, "torsion": [2], "group": "Z/2",
        }


class TestExitCodes:
    @pytest.mark.parametrize("command,computes", [("homology", "mv_homology"),
                                                  ("oracle", "simplicial_homology")])
    def test_negative_degree_rejected_before_computing(self, files, capsys, monkeypatch,
                                                       command, computes):
        def computed(*args):
            raise AssertionError(f"{computes} ran")

        monkeypatch.setattr(cli_module, computes, computed)
        cx, dec = files
        argv = [command, "--complex", cx, "--degree", "-1"]
        if command == "homology":
            argv += ["--decomposition", dec]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --degree must be nonnegative, got -1\n")

    def test_missing_file(self, capsys):
        assert main(["oracle", "--complex", "/nonexistent.cx"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_complex(self, tmp_path, capsys):
        cx = tmp_path / "bad.cx"
        cx.write_text("v0 v1\nv2 v2\n")
        assert main(["oracle", "--complex", str(cx)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_input(self, tmp_path, capsys):
        cx = tmp_path / "binary.cx"
        cx.write_bytes(b"\xff\xfe\x00")
        assert main(["oracle", "--complex", str(cx)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err

    def test_bad_cover(self, files, tmp_path, capsys):
        cx, _ = files
        dec = tmp_path / "bad.dec"
        dec.write_text("[A]\nv0 v1 v5\n[B]\nv0 v1 v4\n")
        assert main(["homology", "--complex", cx, "--decomposition",
                     str(dec)]) == 3
        assert "cover" in capsys.readouterr().err

    def test_cyclic_field(self, files, tmp_path, capsys):
        cx, _ = files
        dec = tmp_path / "cyclic.dec"
        dec.write_text(
            DECOMPOSITION.split("[fields]")[0]
            + "[fields]\nI: v0 -> v0 v1\nI: v1 -> v1 v2\n"
            + "I: v2 -> v2 v3\nI: v3 -> v0 v3\n"
        )
        assert main(["homology", "--complex", cx, "--decomposition",
                     str(dec)]) == 4
        assert "closed trajectory" in capsys.readouterr().err


class TestDeterminism:
    def run_json(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_byte_identical_reruns(self, files, capsys):
        cx, dec = files
        for command in (
            ["homology", "--complex", cx, "--decomposition", dec],
            ["verify", "--complex", cx, "--decomposition", dec],
            ["trajectories", "--complex", cx, "--decomposition", dec,
             "I:v2,I:v3", "I:v2"],
            ["oracle", "--complex", cx],
        ):
            argv = command + ["--output", "json"]
            assert self.run_json(argv, capsys) == self.run_json(argv, capsys)

    def test_byte_identical_with_random_strategy(self, files, tmp_path, capsys):
        cx, _ = files
        plain = tmp_path / "plain.dec"
        plain.write_text(DECOMPOSITION.split("[fields]")[0])
        argv = ["homology", "--complex", cx, "--decomposition", str(plain),
                "--strategy", "random", "--seed", "11", "--output", "json"]
        assert self.run_json(argv, capsys) == self.run_json(argv, capsys)


# Strings with what JSON must escape: quotes, backslashes, control
# characters, and non-ASCII text up to astral code points.
JSON_STRINGS = st.text(st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", " ", "v", "0", "é", "Ω", "✓", "\U0001d53d"]
)) | st.text()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_STRINGS | st.floats()
    | st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(max_value=-2**63),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_STRINGS, inner, max_size=5),
    max_leaves=30,
)


class TestJsonText:
    """`--output json` writes what `json.dumps(report, indent=2)` writes,
    byte for byte, with strings encoded by json's C encoder."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert cli_module._json_text(value, "\n") == json.dumps(value, indent=2)

    @pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").glob("*.json")),
                             ids=lambda path: path.name)
    def test_goldens_reencoded(self, path):
        text = path.read_text(encoding="utf-8")
        assert cli_module._json_text(json.loads(text), "\n") + "\n" == text

    def test_unencodable_leaf_raises_as_json_dumps_does(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli_module._json_text({"a": [object()]}, "\n")

    def test_json_output_loads_no_json_module(self, files):
        """Writing a report needs json's C string encoder only, so a fresh
        `homology` process with JSON output does not import `json`."""
        cx, dec = files
        code = f"""
import sys
before = set(sys.modules)
from morsemv.cli import main
main(["homology", "--complex", {cx!r}, "--decomposition", {dec!r}, "--output", "json"])
print("json" in set(sys.modules) - before, file=sys.stderr)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert json.loads(done.stdout)["command"] == "homology"
        assert done.stderr == "False\n"


class TestSharedParser:
    """`main` builds its parser on the first call and every later call in
    the process reuses it, so no call may leave state behind for the next."""

    def test_built_once(self):
        assert cli_module._parser() is cli_module._parser()

    def test_calls_in_one_process_match_fresh_processes(self, files, capsys):
        cx, dec = files
        run = [
            ["homology", "--complex", cx, "--decomposition", dec, "--output", "json",
             "--degree", "1", "--strategy", "random", "--seed", "3"],
            ["homology", "--complex", cx, "--decomposition", dec],
            ["homology", "--decomposition", dec],
            ["oracle", "--complex", cx],
            ["verify", "--complex", cx, "--decomposition", dec, "--output", "json"],
        ]
        env = dict(os.environ, PYTHONIOENCODING="utf-8",
                   PYTHONPATH=str(Path(cli_module.__file__).parents[1]))
        outputs = []
        for argv in run:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            got = capsys.readouterr()
            outputs.append((code, got.out.encode("utf-8"), got.err.encode("utf-8")))
            fresh = subprocess.run([sys.executable, "-m", "morsemv.cli", *argv],
                                   capture_output=True, env=env, timeout=60)
            assert outputs[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert [code for code, _, _ in outputs] == [0, 0, 2, 0, 0]
        _, out, err = outputs[2]  # no --complex: argparse rejects the call
        assert out == b"" and err.startswith(b"usage: morsemv homology")
        # after them, a parse still holds only what its own argv and defaults say
        assert vars(cli_module._parser().parse_args(["oracle", "--complex", cx])) == {
            "complex": cx, "output": "text", "degree": None, "handler": cli_module._cmd_oracle}


class TestCollectorPause:
    """`main` pauses the cyclic garbage collector for the whole command and
    gives the caller back the state it had, whatever the command's end."""

    @pytest.fixture
    def runs(self, files, tmp_path, lose_trajectories, monkeypatch):
        """What each call of `main` should end in (an exit code, or the
        exception it raises), and the call."""
        cx, dec = files
        bad_cover = tmp_path / "bad.dec"
        bad_cover.write_text("[A]\nv0 v1 v5\n[B]\nv0 v1 v4\n")
        cyclic = tmp_path / "cyclic.dec"
        cyclic.write_text(DECOMPOSITION.split("[fields]")[0] + "[fields]\n"
                          "I: v0 -> v0 v1\nI: v1 -> v1 v2\nI: v2 -> v2 v3\nI: v3 -> v0 v3\n")

        def failing_verify():  # its patches stay, and no later call runs verify
            lose_trajectories("trajectories_from")
            return main(["verify", "--complex", cx, "--decomposition", dec])

        def broken_handler():
            with monkeypatch.context() as m:
                m.setattr(cli_module, "mv_homology", lambda d: 1 / 0)
                return main(["homology", "--complex", cx, "--decomposition", dec])

        return [
            (0, lambda: main(["homology", "--complex", cx, "--decomposition", dec])),
            (2, lambda: main(["oracle", "--complex", "/nonexistent.cx"])),
            (3, lambda: main(["homology", "--complex", cx, "--decomposition", str(bad_cover)])),
            (4, lambda: main(["homology", "--complex", cx, "--decomposition", str(cyclic)])),
            (5, failing_verify),
            (SystemExit, lambda: main(["homology", "--complex", cx])),  # argparse's exit
            (ZeroDivisionError, broken_handler),
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, runs, capsys, enabled):
        was = gc.isenabled()
        try:
            for expected, run in runs:
                (gc.enable if enabled else gc.disable)()
                try:
                    got = run()
                except (SystemExit, ZeroDivisionError) as e:
                    got = type(e)
                assert got == expected
                assert gc.isenabled() is enabled, expected
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    def test_no_collection_inside_a_command(self, tmp_path, capsys):
        x, a, b = rp2_chain(30)  # enough allocation for many young-generation passes
        cx, dec = tmp_path / "chain.cx", tmp_path / "chain.dec"
        cx.write_text("".join(" ".join(s.vertices) + "\n" for s in x.maximal_simplices))
        dec.write_text(decomposition_text(a, b, {}))
        passes = []
        callback = lambda phase, info: phase == "start" and passes.append(info["generation"])
        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(callback)
        try:
            for command in ("homology", "verify"):
                assert main([command, "--complex", str(cx), "--decomposition", str(dec)]) == 0
        finally:
            gc.callbacks.remove(callback)
            (gc.enable if was else gc.disable)()
        assert passes == []
        capsys.readouterr()


class TestColdStart:
    """A fresh process imports what `homology` runs and no more: `verify`
    loads on first use, and no command loads `dataclasses` or `inspect`."""

    VERIFY_CALLS = ("build_xtilde", "check_iso_simplicial", "check_main_iso")

    def test_import_leaves_verify_out(self):
        code = """
import sys
before = set(sys.modules)
import morsemv, morsemv.cli
print(sorted({"morsemv.verify", "dataclasses", "inspect"} & (set(sys.modules) - before)))
morsemv.build_xtilde
print("morsemv.verify" in sys.modules)
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
print(morsemv.build_xtilde is sys.modules["morsemv.verify"].build_xtilde)
names = {}
exec("from morsemv import *", names)
print(sorted(set(morsemv.__all__) - set(names)))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.split("\n") == ["[]", "True", "[]", "True", "[]", ""]

    @pytest.mark.parametrize("name", VERIFY_CALLS)
    def test_verify_calls_what_is_bound(self, monkeypatch, files, capsys, name):
        """Each call of the verify command is looked up on `cli` when it
        runs: a replacement bound there (as the benchmark's tracer binds
        one) is what runs, whether or not verify's others are bound yet."""
        verify_module = importlib.import_module("morsemv.verify")
        for n in self.VERIFY_CALLS:
            monkeypatch.delitem(vars(cli_module), n, raising=False)
            assert getattr(cli_module, n) is getattr(verify_module, n)
        calls = []

        def spy(*args):
            calls.append(args)
            return getattr(verify_module, name)(*args)

        monkeypatch.setattr(cli_module, name, spy)
        for n in self.VERIFY_CALLS:
            if n != name:
                monkeypatch.delitem(vars(cli_module), n)
        cx, dec = files
        assert main(["verify", "--complex", cx, "--decomposition", dec]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert len(calls) == 1
        for n in self.VERIFY_CALLS:
            assert getattr(cli_module, n) is (spy if n == name else getattr(verify_module, n))

    def test_every_call_the_tracer_wraps_is_bound(self):
        """The benchmark's tracer wraps the calls named in `_CLI_CALLS` of
        `perfbench/tracing.py` by `getattr(cli, name)`, so each must stay an
        attribute of `morsemv.cli`, `parse_decomposition` among them, though
        commands read the `.dec` by `formats._read_decomposition`.  The file
        is read, not imported."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        (calls,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [target.id for target in node.targets] == ["_CLI_CALLS"]]
        names = [entry.elts[0].value for entry in calls.elts]
        assert "parse_decomposition" in names and "parse_complex" in names
        for name in names:
            assert callable(getattr(cli_module, name)), name


# ---------------------------------------------------------------------------
# no input ends in a traceback

VERTICES = [f"v{i}" for i in range(6)]
simplex = st.lists(st.sampled_from(VERTICES), min_size=1, max_size=4, unique=True)
junk_line = st.sampled_from(["", "# comment", "[C]", "v0 v0", "A: v0 -> v0", "auto",
                             "C: v0 -> v0 v1"])
generator_token = st.builds(
    lambda tag, vs: ",".join(tag + v for v in vs),
    st.sampled_from(["A:", "B:", "I:", "X:", ""]),
    st.lists(st.sampled_from(VERTICES[:3]), min_size=1, max_size=3),
)


def lines(items) -> str:
    return "".join(item + "\n" for item in items)


@st.composite
def cli_inputs(draw):
    """Complex and decomposition texts: the pieces are drawn from the
    complex's own lines, so covers (and failures past parsing) are common;
    field lines are strategy lines or pairs, most of them not valid."""
    maximal = [" ".join(s) for s in draw(st.lists(simplex, min_size=1, max_size=6))]
    a = [m for m in maximal if draw(st.booleans())] or maximal[:1]
    b = [m for m in maximal if draw(st.booleans())] or maximal[-1:]
    junk = st.lists(junk_line, max_size=1) | st.just([])
    # (tau minus its k-th vertex, tau): a facet pair unless k is out of range
    pair = st.builds(
        lambda piece, tau, k: f"{piece}: {' '.join(tau[:k] + tau[k + 1:]) or tau[0]} -> "
                              + " ".join(tau),
        st.sampled_from(["A", "B", "I"]), simplex, st.integers(0, 3),
    )
    auto = st.sampled_from(["auto lexicographic", "auto random", "auto random 3",
                            "auto random x", "auto greedy"])
    fields = draw(st.none() | auto.map(lambda line: [line]) | st.lists(pair, max_size=4))
    x_text = lines(maximal + draw(junk))
    dec_text = "[A]\n" + lines(a) + "[B]\n" + lines(b + draw(junk))
    if fields is not None:
        dec_text += "[fields]\n" + lines(fields)
    return x_text, dec_text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(texts=cli_inputs(), beta=generator_token, alpha=generator_token,
       strategy=st.sampled_from([[], ["--strategy", "random", "--seed", "2"],
                                 ["--strategy", "lex"]]),
       output=st.sampled_from(["text", "json"]))
def test_no_input_raises(tmp_path_factory, texts, beta, alpha, strategy, output):
    directory = tmp_path_factory.mktemp("fuzz")
    cx, dx = directory / "x.cx", directory / "x.dec"
    cx.write_text(texts[0])
    dx.write_text(texts[1])
    common = ["--complex", str(cx), "--output", output]
    pieces = [*common, "--decomposition", str(dx), *strategy]
    for argv in (["homology", *pieces], ["trajectories", *pieces, beta, alpha],
                 ["verify", *pieces], ["oracle", *common]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4, 5), argv
