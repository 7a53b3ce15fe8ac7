"""One pass of a workload in a fresh process.

Protocol: the parent puts its monotonic clock reading at spawn time in
PERFBENCH_SPAWNED and writes a JSON config ({"requests": [...], "trace":
bool}) to stdin.  Set-up time runs from that reading until looptop.cli is
imported.  The worker then sends every request through looptop.cli.run,
one after another, and prints one JSON line with the set-up and pass
times, the host speed during the pass (ref_s), its own peak RSS, each
response and, when traced, the spans and counters.  A fresh process per
pass keeps the program's module-level caches cold, as a CLI user sees them.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

import looptop.cli

REF_PERIOD_S = 0.2  # wall time between two timings of reference_loop


def reference_loop():
    """A fixed piece of pure-Python work of about 5 ms: int arithmetic, dict and list traffic."""
    acc, table, row = 1, {}, []
    for i in range(10000):
        acc = (acc * 1103515245 + i) % 2305843009213693951
        table[acc & 4095] = i
        row.append(acc >> 40)
        if len(row) > 512:
            row.clear()
    return acc


class HostSpeed:
    """Times reference_loop at the start, every REF_PERIOD_S of wall time, and at the end.

    A shared host slows every process on it by up to 1.7x, in phases of
    seconds to minutes.  The loop is timed from a SIGALRM handler, between
    the program's own bytecodes, so its samples cover the pass evenly in
    time; their mean is the host's speed over the pass.  `total` is the
    time the samples took, which the pass time leaves out.
    """

    def __init__(self):
        self.samples = []

    @property
    def total(self):
        return sum(self.samples)

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()


def main():
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWNED"])
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(looptop.cli.__file__).startswith(src + os.sep):
        sys.exit(f"looptop was imported from {looptop.cli.__file__}, not from {src}")
    config = json.load(sys.stdin)
    recorder = None
    if config["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    # The traced pass takes no host samples: their time would land in the spans.
    host = HostSpeed()
    reference_loop()
    outputs = []
    pass_s = 0.0
    with host if recorder is None else contextlib.nullcontext():
        for i, argv in enumerate(config["requests"]):
            if recorder is not None:
                recorder.request = i
            out, err = io.StringIO(), io.StringIO()
            ref0 = host.total
            t0 = time.perf_counter()
            code = looptop.cli.run(argv, out=out, err=err)
            took = time.perf_counter() - t0 - (host.total - ref0)
            pass_s += took
            outputs.append([code, out.getvalue(), err.getvalue(), took])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "pass_s": pass_s, "rss_mb": rss_mb, "responses": outputs}
    if host.samples:
        result["ref_s"] = sum(host.samples) / len(host.samples)
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counters"] = dict(recorder.counters)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
