"""The morsemv benchmark: time of CLI operations on generated inputs.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`
and nothing is installed.  One process, one thread, a closed loop: the
operations of the workload run back to back through `morsemv.cli.main` with
`--output json`, their stdout captured and checked, until `--seconds` have
passed.  A wrong answer stops the run with exit code 1 and no result.
Times are wall times normalised for the host's speed (see `hostspeed.py`).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (see `README.md` beside this file); with `--trace 1` they are the
per-layer self times and counters from `tracing.py`, measured in a separate
traced half of the run, with the untraced half giving the tracing overhead.
The lines before it are a readable report.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import families
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 5

# String hashing is randomised per process, and the set and dict layouts it
# gives move the time of one operation by up to 20% between processes.  The
# benchmark pins it, so that runs differ only in their inputs.
HASH_SEED = "0"

# Set-up time: a fresh interpreter imports the CLI and parses both files,
# normalised like the operations.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
before = hostspeed.loop_seconds()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import morsemv.cli
from morsemv.formats import parse_complex, parse_decomposition
with open(sys.argv[3], encoding="utf-8") as f:
    parse_complex(f.read())
with open(sys.argv[4], encoding="utf-8") as f:
    parse_decomposition(f.read())
wall = time.perf_counter() - t0
print(wall * hostspeed.scale(before, hostspeed.loop_seconds()))
"""


class WrongAnswer(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], families.Family]
    ops: tuple[str, ...]
    probe: Callable[[int], families.Family] | None = None  # run once per run, untimed


# Sizes keep several samples of every op within one 20 s run; the path
# probe stays at 1500 edges, where the recursive walker crashes.
WORKLOADS = {
    "torus": Workload(lambda s: families.torus(8, s), ("homology", "oracle", "verify")),
    "cube": Workload(lambda s: families.cube(6, s), ("homology",)),
    "path": Workload(lambda s: families.path(900, s), ("homology", "trajectories"),
                     probe=lambda s: families.path(1500, s)),
    "random": Workload(lambda s: families.random_complex(50, 100, 0.3, s),
                       ("homology", "oracle", "verify")),
}


# -- one operation -----------------------------------------------------------


class Inputs:
    """A family written to disk, with the argv of each operation on it and
    the checks its outputs must pass."""

    def __init__(self, family: families.Family, directory: Path):
        self.family = family
        self.cx, self.dec = families.write(family, directory)
        self.first: dict[str, str] = {}

    def argv(self, kind: str) -> list[str]:
        argv = [kind, "--complex", str(self.cx)]
        if kind != "oracle":
            argv += ["--decomposition", str(self.dec)]
        argv += ["--output", "json"]
        if kind == "trajectories":
            argv += list(self.family.trajectory_pair)
        return argv

    def check(self, kind: str, stdout: str) -> None:
        """Raise WrongAnswer unless the output is correct.  Repeats must be
        byte-identical to the first output of their kind."""
        if kind in self.first:
            if stdout != self.first[kind]:
                raise WrongAnswer(f"{kind}: output differs from the first {kind} output")
            return
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as e:
            raise WrongAnswer(f"{kind}: output is not JSON ({e})") from None
        f = self.family
        if kind in ("homology", "oracle"):
            info = payload["complex"]
            if tuple(info["f_vector"]) != f.f_vector or info["euler"] != f.euler:
                raise WrongAnswer(f"{kind}: complex {info}, expected f-vector "
                                  f"{f.f_vector} and Euler characteristic {f.euler}")
            if f.betti is not None:
                _same_homology(kind, payload["homology"], [
                    {"degree": q, "betti": b, "torsion": []} for q, b in enumerate(f.betti)])
        if kind == "verify" and not (payload["ok"] is True
                                     and all(c["ok"] for c in payload["checks"])):
            failed = [c["name"] for c in payload["checks"] if not c["ok"]]
            raise WrongAnswer(f"verify: checks failed: {failed}")
        if kind == "trajectories":
            weights = [t["weight"] for t in payload["trajectories"]]
            if payload["count"] != 1 or len(weights) != 1 or abs(weights[0]) != 1:
                raise WrongAnswer(f"trajectories: expected one trajectory of weight ±1, "
                                  f"got weights {weights}")
        self.first[kind] = stdout
        if f.betti is None and {"homology", "oracle"} <= set(self.first):
            _same_homology("homology", json.loads(self.first["homology"])["homology"],
                           json.loads(self.first["oracle"])["homology"])


def _same_homology(kind: str, got: list[dict], want: list[dict]) -> None:
    """Degree by degree; degrees missing from one side must be zero."""
    def groups(rows):
        return {r["degree"]: (r["betti"], list(r["torsion"])) for r in rows}

    g, w = groups(got), groups(want)
    for q in sorted(set(g) | set(w)):
        if g.get(q, (0, [])) != w.get(q, (0, [])):
            raise WrongAnswer(f"{kind}: H_{q} is {g.get(q)}, expected {w.get(q, (0, []))}")


def call_cli(cli, argv: list[str]) -> tuple[str | None, str]:
    """Run one operation in-process.  Returns (error or None, stdout); an
    exception or a non-zero exit is an error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # the op failed; the run goes on and counts it
        return f"{type(e).__name__}: {str(e)[:200]}", out.getvalue()
    if code not in (0, None):
        return f"exit code {code}: {err.getvalue().strip()[:200]}", out.getvalue()
    return None, out.getvalue()


# -- the run -----------------------------------------------------------------


@dataclass
class Samples:
    """Times of the ops of a stretch of rounds, per op kind: normalised
    (see `hostspeed`) and plain wall time; and the normalised time of each
    round whose ops all passed."""
    norm: dict[str, list[float]]
    wall: dict[str, list[float]]
    rounds: list[float]


class Run:
    def __init__(self, cli, inputs: Inputs, ops: tuple[str, ...]):
        self.cli, self.inputs, self.ops = cli, inputs, ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, kind: str, tracer=None) -> tuple[float, float] | None:
        """One checked operation: (normalised time, wall time), or None when
        it failed.  The calibration loop is timed just before and just after."""
        argv = self.inputs.argv(kind)
        self.attempted += 1
        gc.collect()  # every op starts from the same heap, without the last op's garbage
        before = hostspeed.loop_seconds()
        if tracer is None:
            t = time.perf_counter()
            error, stdout = call_cli(self.cli, argv)
            wall = time.perf_counter() - t
        else:
            root, (error, stdout) = tracer.run_op(kind, lambda: call_cli(self.cli, argv))
            wall = tracer.spans[root]["end"] - tracer.spans[root]["start"]
        scale = hostspeed.scale(before, hostspeed.loop_seconds())
        if tracer is not None:
            tracer.spans[root]["scale"] = scale
        if error is not None:
            self.failed += 1
            self.errors.append(f"{kind}: {error}")
            return None
        self.inputs.check(kind, stdout)
        return wall * scale, wall

    def rounds(self, seconds: float, tracer=None) -> Samples:
        """Run rounds (each op once) until `seconds` have passed."""
        out = Samples({k: [] for k in self.ops}, {k: [] for k in self.ops}, [])
        start = time.perf_counter()
        while True:
            times = [self.op(kind, tracer) for kind in self.ops]
            for kind, t in zip(self.ops, times):
                if t is not None:
                    out.norm[kind].append(t[0])
                    out.wall[kind].append(t[1])
            if None not in times:
                out.rounds.append(sum(t[0] for t in times))
            if time.perf_counter() - start >= seconds:
                return out


def probe(cli, family: families.Family, directory: Path, ops) -> tuple[int, list[str]]:
    """Run each op once on the probe family, untimed.  Returns the number of
    failed ops and their errors; a probe that succeeds is checked too."""
    inputs = Inputs(family, directory)
    errors = []
    for kind in ops:
        error, stdout = call_cli(cli, inputs.argv(kind))
        if error is None:
            inputs.check(kind, stdout)
        else:
            errors.append(f"{kind}: {error}")
    return len(errors), errors


def setup_seconds(inputs: Inputs) -> list[float]:
    """Normalised set-up time of SETUP_REPEATS fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), str(inputs.cx), str(inputs.dec)],
            capture_output=True, text=True, timeout=120, check=True,
            env=dict(os.environ, PYTHONHASHSEED=HASH_SEED))
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def stats(values: list[float]) -> str:
    if not values:
        return "no samples"
    return (f"{len(values)} samples, median {statistics.median(values):.4f} s, "
            f"max {max(values):.4f} s")


def summary(name: str, values: list[float]) -> str:
    return f"{name}: {stats(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    if not (SRC / "morsemv" / "cli.py").is_file():
        print(f"error: no morsemv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from morsemv import cli

    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            return measure(args, WORKLOADS[args.workload], cli, Path(tmp))
    except WrongAnswer as e:
        print(f"error: wrong answer: {e}", file=sys.stderr)
        return 1


def measure(args, w: Workload, cli, tmp: Path) -> int:
    family = w.make(args.seed)
    inputs = Inputs(family, tmp / "main")
    run = Run(cli, inputs, w.ops)
    print(f"workload {args.workload}: {families.WHY[args.workload]}")
    print(f"inputs: f-vector {family.f_vector}, ops {', '.join(w.ops)}, seed {args.seed}")

    run.rounds(0)  # warm-up round: first outputs are checked here
    probe_failed, probe_ops = 0, 0
    if w.probe is not None:
        big = w.probe(args.seed)
        probe_ops = len(w.ops)
        probe_failed, probe_errors = probe(cli, big, tmp / "probe", w.ops)
        print(f"probe at f-vector {big.f_vector}: {probe_failed} of {probe_ops} ops failed")
        for e in probe_errors:
            print(f"  probe {e}")

    if args.trace:
        metrics = traced(args, run, probe_failed)
    else:
        metrics = untraced(args, run, inputs)

    for e in run.errors:
        print(f"failed op {e}")
    print(f"fail_rate: {run.failed + probe_failed}/{run.attempted + probe_ops} with the probe; "
          f"{run.failed}/{run.attempted} without it (the result counts the latter)")
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def untraced(args, run: Run, inputs: Inputs) -> dict[str, tuple[float, str]]:
    setup = setup_seconds(inputs)
    got = run.rounds(args.seconds)
    for kind in run.ops:
        print(f"{summary(f'{kind}_s', got.norm[kind])}; wall time {stats(got.wall[kind])}")
    print(summary("round_s", got.rounds))
    print(summary("setup_s", setup))
    med = {k: statistics.median(v) for k, v in got.norm.items() if v}
    if "oracle" in med and "homology" in med:
        print(f"oracle_s / homology_s = {med['oracle'] / med['homology']:.2f} "
              f"(base: homology_s = {med['homology']:.4f} s; not gated)")
    if "homology" not in med or not got.rounds:
        raise SystemExit("error: no round passed; nothing to report")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb: {rss_mb:.1f} MB")
    return {
        "homology_s": (med["homology"], "s"),
        "round_s": (statistics.median(got.rounds), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(args, run: Run, probe_failed: int) -> dict[str, tuple[float, str]]:
    import tracing

    plain = run.rounds(args.seconds / 2)
    tracer = tracing.Tracer()
    traced_ops = run.rounds(args.seconds / 2, tracer)
    tracer.counts["cli.json_bytes"] = sum(len(s.encode("utf-8")) for s in run.inputs.first.values())
    tracer.counts["cli.probe_failures"] = probe_failed
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_file)

    overhead = 0.0
    for kind in run.ops:
        overhead += statistics.median(traced_ops.norm[kind]) - statistics.median(plain.norm[kind])
        print(summary(f"{kind}_s traced", traced_ops.norm[kind]) + "; "
              + summary("untraced", plain.norm[kind]))
    print(f"tracing overhead per round: {overhead:.4f} s; spans in {spans_file.relative_to(ROOT)}")

    metrics = {name: (v, "s") for name, v in tracer.layer_times().items()}
    metrics["cli.trace_overhead_s"] = (overhead, "s")
    for name in tracing.count_names():
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for name, (v, unit) in metrics.items():
        print(f"  {name} = {v:.6f} {unit}" if unit == "s" else f"  {name} = {v} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
