"""One pass of a workload in a fresh interpreter.

run.py starts this script once per pass and sends the request as JSON on
stdin: {"workload", "inputs", "trace"}, or {"probe": true} to measure set-up
alone.  The reply on stdout is one JSON object with the monotonic clock
read when the package import returned, the speed factor measured right
after it, each operation's seconds and the pass's solve seconds (both
scaled to the reference speed, see SpeedSampler), the failure messages, the
peak RSS and, when traced, the per-layer figures from layers.py.  It is the
last line; each line before it is one operation's output as JSON (null for
an operation that raised or exited non-zero), written as it is made.

Only `os`, `sys` and `time` (which the interpreter has loaded at start
anyway) come before cmhilb, so the set-up time is the interpreter's start
plus the import of the package and of its command-line module, as in every
`cmhilb` command.
"""

import os
import sys
import time

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC_DIR)

import cmhilb  # noqa: E402
import cmhilb.cli  # noqa: E402

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import array  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def _run_lengths(exps):
    """The exponent tuple as [[value, run length], ...] in its own order."""
    runs = []
    for e in exps:
        if runs and runs[-1][0] == e:
            runs[-1][1] += 1
        else:
            runs.append([e, 1])
    return runs


def _exponent_ops(inputs):
    for parts in inputs["partitions"]:
        lam = cmhilb.Partition(tuple(parts))
        yield (lambda lam=lam: cmhilb.exponents(lam)), _run_lengths


def _fiber_ops(inputs):
    for func, arg in workloads.fiber_ops(inputs):
        target = getattr(cmhilb, func)
        if func == "hook_polynomial":
            arg = cmhilb.Partition(tuple(arg))
        yield (lambda target=target, arg=arg: target(arg).to_json()), None


def _table_ops(inputs):
    """Times character_table(n) alone; reading the rows the checks need
    (indices into the benchmark's own enumeration) follows, untimed."""
    for spec in inputs["tables"]:
        n = spec["n"]
        lams = [cmhilb.Partition(lam) for lam in oracles.partitions(n)]
        ones = cmhilb.Partition((1,) * n)

        def read(table, lams=lams, ones=ones, rows=spec["rows"]):
            return {
                "count": len(table.partitions),
                "column": [table.value(lam, ones) for lam in lams],
                "rows": {i: [table.value(lams[i], mu) for mu in lams] for i in rows},
            }

        yield (lambda n=n: cmhilb.character_table(n)), read


def _query_ops(inputs):
    main = cmhilb.cli.main
    for argv in inputs["argvs"]:

        def op(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited with {code}")
            return buf.getvalue()

        yield op, None


# Each yields (operation, read): the operation is timed; read, when not
# None, turns its result into the output after the clock has stopped.
_OPS = {
    "exponent-table": _exponent_ops,
    "fiber-character": _fiber_ops,
    "character-tables": _table_ops,
    "orbit-queries": _query_ops,
}


# The reference speed: one slice of _SLICE_STEPS takes _REF_SLICE_S, about
# what it takes on a quiet core of the 2-core box the README's figures
# come from.
_SLICE_STEPS = range(600)
_REF_SLICE_S = 0.0001
_SAMPLE_EVERY_S = 0.002


def _slice() -> float:
    """Seconds of a fixed piece of interpreter work that makes no calls, so
    that the profiler of a traced pass does not slow it."""
    t0 = time.perf_counter()
    table = [0] * 256
    x = 1
    for _ in _SLICE_STEPS:
        x = (x * 69069 + 1) & 0xFFFFFFFF
        table[x & 255] += x
    return time.perf_counter() - t0


def speed_now() -> float:
    """Reference-speed factor from the median of eleven slices (about 1 ms);
    one slice alone is too short to be steady."""
    return _REF_SLICE_S / sorted(_slice() for _ in range(11))[5]


class SpeedSampler:
    """Measures how fast the interpreter runs, every _SAMPLE_EVERY_S of wall
    time, by timing one slice from a SIGALRM handler.

    This machine's speed drifts by a third over seconds when other work
    shares its cores; wall times scaled by the speed measured around them
    spread several times less (see the README).  `scaled(a, b)` is the wall time from a
    to b without the slices run inside it, times the mean factor of the
    samples inside it (or of the nearest sample on each side)."""

    def __init__(self):
        # Arrays rather than lists keep the samples' memory small and flat.
        self.times, self.spent = array.array("d"), array.array("d")

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.spent.append(_slice())
        self.times.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, _SAMPLE_EVERY_S, _SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scaled(self, a: float, b: float) -> float:
        lo, hi = bisect.bisect_left(self.times, a), bisect.bisect_right(self.times, b)
        near = range(lo, hi) if lo < hi else [i for i in (lo - 1, lo) if 0 <= i < len(self.spent)]
        factor = sum(_REF_SLICE_S / self.spent[i] for i in near) / len(near)
        return (b - a - sum(self.spent[lo:hi])) * factor


def _peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss would also count the
    parent's memory at the time of the fork that started this process."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(workload, inputs, tracer, emit):
    """Runs the pass's operations in order.  Each output (None for a failed
    operation) goes to `emit` as soon as it is made, so that the pass holds
    none of them and its peak RSS is the program's."""
    ops = list(_OPS[workload](inputs))
    timer = time.perf_counter
    spans, failures = [], []
    with tracer, SpeedSampler() as speed:
        t_start = timer()
        for op, read in ops:
            t0 = timer()
            try:
                result = op()
            except Exception as exc:  # one failed operation must not end the pass
                failures.append(f"{type(exc).__name__}: {exc}")
                emit(None)
                continue
            spans.append((t0, timer()))
            emit(read(result) if read else result)
        t_end = timer()
    return {
        "solve_s": speed.scaled(t_start, t_end),
        "wall_s": t_end - t_start,
        "speed": speed.scaled(t_start, t_end) / (t_end - t_start),
        "op_s": [speed.scaled(a, b) for a, b in spans],
        "failures": failures,
    }


def _emit_line(output):
    sys.stdout.write(json.dumps(output) + "\n")


def main():
    setup_speed = speed_now()
    request = json.load(sys.stdin)
    if not cmhilb.__file__.startswith(SRC_DIR + "/"):
        raise SystemExit(f"cmhilb was imported from {cmhilb.__file__}, not from {SRC_DIR}")
    reply = {"t_imported": T_IMPORTED, "setup_speed": setup_speed}
    if not request.get("probe"):
        if request["trace"]:
            import layers

            tracer = layers.Tracer(SRC_DIR)
        else:
            tracer = contextlib.nullcontext()
        reply.update(run_pass(request["workload"], request["inputs"], tracer, _emit_line))
        if request["trace"]:
            reply["layers"] = tracer.metrics()
        reply["peak_rss_kb"] = _peak_rss_kb()
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
