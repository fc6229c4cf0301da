"""Benchmark of cmhilb: cold passes of four workloads, checked and timed.

    python3 perfbench/run.py --workload exponent-table [--seed 1] [--seconds 20] [--trace 0]

Run from the root of a source checkout; the program is imported from its
`src/` directory.  A run lasts `--seconds`: within it the workload's pass
(a fixed, seeded sequence of operations) is repeated, each pass in a fresh
interpreter, and every pass started is finished and counted, so a faster
program completes more passes rather than making the run shorter.  Every
output of every pass is checked against the benchmark's own computations
(oracles.py, workloads.py).  Times are wall times scaled to a reference
interpreter speed measured while they run (worker.SpeedSampler), because
the speed of a shared core drifts by a third within seconds.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of layers.py with `--trace 1`.  A traced
run alternates untraced and profiled passes and reports the difference of
their median solve times as `trace.overhead_s`.  Raw figures of each run
are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Set-up-only launches per run, on top of one per pass, so that the set-up
# median has enough samples on workloads whose passes are long.
SETUP_PROBES = 15
# Wall-clock cap on one run, below the three minutes a run may take.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "latency_ms_p50": "ms", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    """The run cannot produce a result: a pass crashed or did not finish."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(request: dict, deadline: float) -> dict:
    """One worker process; returns its reply with `setup_s` added."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-s", str(BENCH_DIR / "worker.py")]
    t_launch = _clock()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=max(1.0, deadline - _clock()))
    except subprocess.TimeoutExpired:
        raise RunError("a pass did not finish before the run's deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode:
        raise RunError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    *outputs, last = out.splitlines()
    reply = json.loads(last)
    reply["outputs"] = [json.loads(line) for line in outputs]
    reply["setup_s"] = (reply["t_imported"] - t_launch) * reply["setup_speed"]
    return reply


def run_passes(workload: str, inputs: dict, seconds: float, trace: bool):
    """Set-up probes, then passes until `seconds` have gone by.  A pass's
    outputs are replaced by their count; each distinct output list is kept
    once, for checking."""
    deadline = _clock() + RUN_DEADLINE_S
    setups = [launch({"probe": True}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes, distinct = [], {}
    start = _clock()
    while not passes or _clock() - start < seconds:
        for traced in (False, True) if trace else (False,):
            reply = launch({"workload": workload, "inputs": inputs, "trace": traced}, deadline)
            outputs = reply.pop("outputs")
            distinct.setdefault(json.dumps(outputs, sort_keys=True), outputs)
            reply["attempted"] = len(outputs)
            reply["traced"] = traced
            passes.append(reply)
    return setups, passes, list(distinct.values())


def end_to_end(setups: list, passes: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    latencies = [s for p in plain for s in p["op_s"]]
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "solve_s": statistics.median(p["solve_s"] for p in plain),
        "latency_ms_p50": 1000 * statistics.median(latencies),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in plain) / 1024,
    }


def per_layer(passes: list) -> dict:
    """Medians over the traced passes; times are scaled by each pass's
    speed factor like the end-to-end ones."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in layers.metric_names():
        # median_low keeps counts whole; they repeat exactly from pass to pass.
        out[name] = statistics.median_low(
            p["layers"][name] * (p["speed"] if name.endswith("_s") else 1) for p in traced
        )
    out["trace.overhead_s"] = statistics.median(p["solve_s"] for p in traced) - statistics.median(
        p["solve_s"] for p in plain
    )
    return out


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so that launch() stops its worker
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=int, default=20, help="run length (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cmhilb" / "__init__.py").is_file():
        print(f"error: no cmhilb sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    try:
        setups, passes, distinct = run_passes(args.workload, inputs, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = [problem for outputs in distinct for problem in workloads.check(args.workload, inputs, outputs)]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for failure in sorted({f for p in passes for f in p["failures"]})[:20]:
        print(f"FAILED OPERATION: {failure}", file=sys.stderr)
    values = per_layer(passes) if args.trace else end_to_end(setups, passes)
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    raw = {
        "args": vars(args),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "setup_probes_s": setups,
        "passes": passes,
        "problems": problems,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(raw, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
