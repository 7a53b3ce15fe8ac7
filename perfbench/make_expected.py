#!/usr/bin/env python3
"""Regenerate expected.json, the committed answer table of the benchmark.

Runs every concrete request that any seed can produce once, projects each
response down to its mathematics and refuses to write the table unless
every projection passes the plain-int recurrence and bad-prime checks.
Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

import io
import itertools
import json
import os
import sys
from pathlib import Path

import answers
from run import render

HERE = Path(__file__).resolve().parent


def concrete_requests(config):
    params = config["params"]
    seen = {}
    for p, signs, m in itertools.product(params["p"], params["signs"], params["m"]):
        for spec in config["workloads"].values():
            for argv in spec["requests"]:
                concrete = render(argv, p, signs, m)
                seen[" ".join(concrete)] = concrete
    return seen


def main():
    config = json.loads((HERE / "workloads.json").read_text())
    os.environ.update(config["env"])
    from looptop.cli import run

    table = {}
    bad = 0
    for key, argv in sorted(concrete_requests(config).items()):
        out = io.StringIO()
        code = run(argv, out=out, err=io.StringIO())
        projection = answers.project(argv, json.loads(out.getvalue())) if code == 0 else None
        problems = [f"exit code {code}"] if code else answers.predicted_problems(argv, projection)
        print(f"{'FAIL' if problems else 'ok  '} {key}", *problems[:3], sep="\n    ")
        bad += bool(problems)
        table[key] = projection
    if bad:
        sys.exit(f"{bad} requests fail their checks; expected.json left unchanged")
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    (HERE / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
