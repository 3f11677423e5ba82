"""Time-to-verdict benchmark for fanopencils.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every repetition is a fresh
interpreter (bench/child.py), one at a time, so each verdict pays what a
command-line user pays, the automorphism group build included.  With
--trace 0 the last line of output reports the end-to-end metrics; with
--trace 1 each verdict is run once untraced and once with per-layer
spans, and the last line reports the per-layer metrics.  The lines
before it say the same for a reader.  Times are rescaled to a reference
CPU speed (bench/speed.py); the wall times are printed beside them.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_CHILDREN = 5  # import-only interpreters before and after the verdicts
FAULT_BATCH = 64  # swaps generated per seed; used in order, then again
BUDGET_S = 170.0  # a run ends within this, whatever --seconds says


class Runner:
    """Starts child interpreters one at a time against the checkout."""

    def __init__(self, root: str, started: float):
        self.root = root
        self.deadline = started + BUDGET_S
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def child(self, args: list[str], stdin: str | None = None) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget spent")
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args],
                cwd=self.root,
                env=self.env,
                input=stdin,
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise TimeoutError(f"child {args} ran past the run budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"child {args} exited {proc.returncode}")
        return json.loads(lines[-1])


def commit_of(root: str) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over the package sources, which identifies a checkout that
    is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "fanopencils")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
    }


def fault_inputs(root: str, seed: int) -> list[str]:
    """The damaged graphs, as the JSON out-lists a child reads."""
    sys.path.insert(0, os.path.join(root, "src"))
    import faults
    from fanopencils.digraph import build_d

    d = build_d()
    return [
        json.dumps(faults.apply_swap(d, s).out)
        for s in faults.swap_batch(seed, FAULT_BATCH, d)
    ]


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool):
    """Repetitions until the next one would end past `seconds`.

    Returns the child results: import-only ones, then one per verdict
    (an untraced and a traced one per input when tracing).  Untraced runs time
    imports before and after the verdicts, so that set-up is sampled at
    both ends of the run.
    """
    inputs = fault_inputs(runner.root, seed) if workload == "fault_injection" else None
    runner.child(["setup"])  # untimed: fills the bytecode and file caches
    n_setup = 0 if trace else SETUP_CHILDREN
    setups = [runner.child(["setup"]) for _ in range(n_setup)]
    modes = ("0", "1") if trace else ("0",)
    verdicts = []
    t0 = time.monotonic()
    rep = 0
    while True:
        stdin = inputs[rep % len(inputs)] if inputs else None
        # alternate which of a traced pair goes first, so drift in machine
        # speed does not bias the tracing overhead
        for mode in modes if rep % 2 == 0 else modes[::-1]:
            verdicts.append(
                runner.child(["verdict", workload, str(seed), mode], stdin)
            )
        rep += 1
        now = time.monotonic()
        per_rep = (now - t0) / rep
        if now - t0 + per_rep > seconds or now + per_rep > runner.deadline:
            setups += [runner.child(["setup"]) for _ in range(n_setup)]
            return setups, verdicts


def end_to_end(setups: list[dict], verdicts: list[dict]) -> dict:
    return {
        "verdict_s": (statistics.median(v["verdict_s"] for v in verdicts), "s"),
        "setup_s": (
            statistics.median(c["import_s"] for c in setups + verdicts),
            "s",
        ),
        "peak_rss_mb": (statistics.median(v["rss_mb"] for v in verdicts), "MiB"),
    }


def per_layer(workload: str, verdicts: list[dict]) -> tuple[dict, list[str]]:
    """Per-verdict means of the traced spans, and cross-check failures."""
    traced = [v for v in verdicts if "calls" in v]
    plain = [v for v in verdicts if "calls" not in v]
    errors = []
    for v in traced:
        errors += workloads.call_count_errors(workload, v["calls"], v["direct_checked"])
    n = len(traced)
    metrics = {}
    for name in spans.span_names():
        calls = sum(v["calls"].get(name, 0) for v in traced)
        metrics[f"{name}.self_s"] = (
            sum(v["self_s"].get(name, 0.0) for v in traced) / n,
            "s",
        )
        metrics[f"{name}.calls"] = (calls / n, "count")
    ext = "autos.extend_isomorphism"
    calls = sum(v["calls"].get(ext, 0) for v in traced)
    found = sum(v["returned"].get(ext, 0) for v in traced)
    metrics[f"{ext}.found_share"] = (found / calls if calls else 0.0, "share")
    metrics["trace.overhead_s"] = (
        statistics.median(v["verdict_s"] for v in traced)
        - statistics.median(v["verdict_s"] for v in plain),
        "s",
    )
    return metrics, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fanopencils", "__init__.py")):
        print("no src/fanopencils here: run from the root of a checkout", file=sys.stderr)
        return 2
    env = environment(root, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    runner = Runner(root, started)
    trace = bool(args.trace)
    setups, verdicts = measure(runner, args.workload, args.seed, args.seconds, trace)
    failed = [v for v in verdicts if v["error"]]
    for v in failed:
        print(f"wrong verdict: {v['error']}", file=sys.stderr)
    errors: list[str] = []
    if trace:
        metrics, errors = per_layer(args.workload, verdicts)
        for e in errors:
            print(f"span cross-check failed: {e}", file=sys.stderr)
    else:
        metrics = end_to_end(setups, verdicts)

    for key in ("verdict_s", "verdict_wall_s"):
        times = sorted(v[key] for v in verdicts)
        print(
            f"{args.workload}: {len(verdicts)} verdicts, {key} min {times[0]:.3f} s, "
            f"median {statistics.median(times):.3f} s, max {times[-1]:.3f} s"
        )
    print(f"error_rate {len(failed) / len(verdicts):.4g} ({len(failed)} of {len(verdicts)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed and not errors,
                "attempted": len(verdicts),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
