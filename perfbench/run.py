#!/usr/bin/env python3
"""looptop benchmark: time to a verified answer on fixed CLI workloads.

A closed loop with one caller.  Every pass starts a fresh worker process
(worker.py) that sends the workload's requests, in seeded order, through
looptop.cli.run one after another; passes repeat while another one fits
in --seconds.  It checks every answer (answers.py) and prints a summary
followed by one JSON line with the end-to-end metrics (--trace 0) or the
per-layer metrics of a separate traced pass (--trace 1).

    python3 perfbench/run.py --workload cobar --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # a run must end well inside 180 s


def render(argv, p, signs, m):
    """A request template with its placeholders filled in."""
    values = {
        "p": p,
        "p2": p * p,
        "q": (p + 1) // 2,  # [[2, 1], [1, q]] has determinant p
        "signs": signs,
        "m": m,
    }
    return [arg.format(**values) for arg in argv]


def seeded_requests(spec, params, seed):
    """The workload's requests for this seed: seeded parameters, seeded order.

    The seed picks the torsion prime p, the connected-sum signs, the
    Betti-one m and the order; none of them changes the amount of work.
    """
    rng = random.Random(seed)
    p, signs, m = (rng.choice(params[k]) for k in ("p", "signs", "m"))
    requests = [render(argv, p, signs, m) for argv in spec["requests"]]
    rng.shuffle(requests)
    return requests


def run_worker(requests, trace, env, timeout):
    """One pass in a fresh worker; returns its result dict or an error string."""
    env = dict(env, PERFBENCH_SPAWNED=repr(time.monotonic()))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps({"requests": requests, "trace": trace}), timeout)
    except subprocess.TimeoutExpired:
        return f"worker timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return f"worker exited with code {proc.returncode}"
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return "worker printed no result"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(name, spec, config, expected, seed, seconds, trace):
    """Run passes of one workload for `seconds`; returns the result line or None."""
    requests = seeded_requests(spec, config["params"], seed)
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0")
    env.update(config["env"])

    # Untimed: proves the program imports from this checkout and warms the
    # bytecode cache, so every timed set-up sees the same state.
    start = time.monotonic()
    preflight = run_worker([], False, env, 60)
    if isinstance(preflight, str):
        print(f"error: {preflight}: cannot run looptop from {SRC}", file=sys.stderr)
        return None

    plain, traced = [], []
    attempted = failed = 0
    problems = []
    took = []
    while True:
        elapsed = time.monotonic() - start
        want_trace = trace and len(traced) < len(plain)
        # Start a pass only if it should end inside the window, but always
        # run at least one untraced pass (and one traced pass when tracing).
        typical = statistics.median(took) if took else 0.0
        done = elapsed + typical > seconds and plain and (traced or not trace)
        if done or elapsed + 1.5 * max(took, default=0.0) > DEADLINE_S:
            break
        t0 = time.monotonic()
        result = run_worker(requests, want_trace, env, DEADLINE_S - elapsed)
        took.append(time.monotonic() - t0)
        attempted += len(requests)
        if isinstance(result, str):
            failed += len(requests)
            problems.append(result)
            break
        for argv, (code, stdout, _stderr, _s) in zip(requests, result["responses"]):
            reasons = answers.check(argv, code, stdout, expected.get(" ".join(argv)))
            if reasons:
                failed += 1
                problems.append(f"{' '.join(argv)}: {'; '.join(reasons[:3])}")
        (traced if want_trace else plain).append(result)
    if not plain:
        print(f"error: no pass of {name} completed: {problems[:1]}", file=sys.stderr)
        return None

    pass_s = [r["pass_s"] for r in plain]
    pass_ref = [r["pass_s"] / r["ref_s"] for r in plain]
    ref_s = [r["ref_s"] for r in plain]
    setup_s = [r["setup_s"] for r in plain + traced]
    rss = [r["rss_mb"] for r in plain]
    # pass_s swings with the speed of a shared host; pass_ref, the same
    # pass counted in timings of the reference loop taken during it, does not.
    e2e = {
        "pass_ref": (statistics.median(pass_ref), "ref"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    print(f"workload {name}  seed {seed}  requests/pass {len(requests)}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    for metric, values, unit in (("pass_ref", pass_ref, "ref"), ("pass_s", pass_s, "s"),
                                 ("ref_s", ref_s, "s"), ("setup_s", setup_s, "s"),
                                 ("peak_rss_mb", rss, "MB")):
        q1, q3 = quartiles(values)
        print(f"  {metric:12s} median {statistics.median(values):10.4f} {unit:3s}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  (n={len(values)})")
    print(f"  {'fail_frac':12s} {failed / attempted:.4f}  ({failed}/{attempted} requests failed)")
    for i, argv in enumerate(requests):
        times = [r["responses"][i][3] for r in plain]
        print(f"    {statistics.median(times):8.4f} s  {' '.join(argv)}")
    for line in problems[:10]:
        print(f"  FAIL {line}")

    if not trace:
        metrics = e2e
    else:
        layers = [spans.layer_metrics(r["spans"], r["counters"]) for r in traced]
        metrics = {m: (statistics.median(x[m] for x in layers), _unit(m)) for m in spans.METRIC_NAMES}
        traced_s = statistics.median(r["pass_s"] for r in traced)
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - statistics.median(pass_s), "s")
        for m in spans.METRIC_NAMES + ("trace.pass_s", "trace.overhead_s"):
            value, unit = metrics[m]
            if value:
                print(f"  {m:28s} {value:12.4f} {unit}")
        _write_spans(name, seed, requests, traced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def _write_spans(name, seed, requests, traced):
    """Write the traced passes' spans out once the run is over."""
    folder = HERE / "out"
    folder.mkdir(exist_ok=True)
    fields = ("name", "start", "end", "parent", "request")
    record = {
        "workload": name,
        "seed": seed,
        "requests": requests,
        "passes": [[dict(zip(fields, s)) for s in r["spans"]] for r in traced],
    }
    with open(folder / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump(record, fh)


def main(argv=None):
    config = json.loads((HERE / "workloads.json").read_text())
    names = list(config["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "looptop" / "cli.py").is_file():
        print(f"error: no looptop sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    chosen = names if args.workload == "all" else [args.workload]
    for name in chosen:
        line = measure(name, config["workloads"][name], config, expected, args.seed,
                       args.seconds, bool(args.trace))
        if line is None:
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
