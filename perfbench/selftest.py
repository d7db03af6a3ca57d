#!/usr/bin/env python3
"""Test of the benchmark itself, at a tiny size (about a minute).

Run from the root of a checkout:  python3 perfbench/selftest.py

Checks, for `perfbench/run.py`:
- every metric of BENCHMARK.json is printed with its unit, in both modes,
  and a clean run is correct with zero failures;
- the oracle check rejects a flipped answer (reach) and a wrong
  checkpoint (maintain);
- a daemon killed mid-run counts as failed operations, not as a crash of
  run.py;
- outside a checkout run.py fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

RUN = os.path.join("perfbench", "run.py")
TINY = ["--scale", "0.05", "--seconds", "1"]


def run(*extra, cwd="."):
    return subprocess.run([sys.executable, RUN, *extra], capture_output=True, text=True,
                          cwd=cwd, timeout=600)


def result(r):
    assert r.returncode == 0, f"run.py exited {r.returncode}: {r.stderr[-2000:]}"
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_shape(res, table):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    failures = []

    def case(name, fn):
        try:
            fn()
            print(f"ok    {name}", flush=True)
        except AssertionError as e:
            failures.append(name)
            print(f"FAIL  {name}: {e}", flush=True)

    for wl in workloads:
        for trace, table in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            def clean_run(wl=wl, trace=trace, table=table):
                res = result(run("--workload", wl, "--seed", "3", "--trace", trace, *TINY))
                check_shape(res, table)
                assert res["correct"] and res["failed"] == 0, res
                if trace == "0":
                    for k, v in res["metrics"].items():
                        assert v["value"] > 0, (k, v)
            case(f"{wl} --trace {trace}: every metric, correct", clean_run)

    def flipped(wl):
        res = result(run("--workload", wl, "--seed", "3", "--fault", "flip-answer", *TINY))
        assert not res["correct"] and res["failed"] > 0, res

    case("serve-reach: oracle rejects a flipped answer", lambda: flipped("serve-reach"))
    case("maintain: oracle rejects a wrong checkpoint", lambda: flipped("maintain"))

    def killed():
        r = run("--workload", "serve-reach", "--seed", "3", "--fault", "kill-daemon",
                "--scale", "0.05", "--seconds", "2")
        res = result(r)
        assert not res["correct"] and res["failed"] > 0, res
        check_shape(res, bench["end_to_end"])

    case("serve-reach: daemon killed mid-run counts as failed ops", killed)

    def bare_dir():
        os.makedirs(os.path.join("perfbench", "_work"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join("perfbench", "_work")) as d:
            shutil.copy("BENCHMARK.json", d)
            shutil.copytree("perfbench", os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            r = run("--workload", workloads[0], "--seed", "1", "--seconds", "1", cwd=d)
            assert r.returncode != 0, "run.py succeeded outside a checkout"
            assert '"metrics"' not in r.stdout, "run.py printed a result outside a checkout"

    case("outside a checkout: non-zero exit, no result", bare_dir)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
