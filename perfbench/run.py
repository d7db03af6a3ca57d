#!/usr/bin/env python3
"""qpgc benchmark: compress once, serve many queries, maintain under churn.

Run from the root of a qpgc checkout:

    python3 perfbench/run.py --workload serve-reach --seed 1 --seconds 30 --trace 0

It builds `qpgc` and `perfbench/harness.exe` (release profile), makes the
workload's inputs from the seed, runs the real binaries pinned to one CPU,
checks every answer against an oracle and prints one JSON line last:
`{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones from a traced run.
`--workload all` runs every workload in both modes and prints every
metric by name with its unit.  README.md in this directory explains the
workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
QPGC = os.path.join("_build", "default", "bin", "qpgc.exe")
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")

# Graph sizes; request shapes, which fix the distinct items a run cycles
# through; and how many times set-up is repeated in a run (its median is
# reported).  README.md gives the reasons for each.
WORKLOADS = {
    "serve-reach": {"nodes": 100000, "mode": "reach", "setups": 7,
                    "sources": 128, "frames": 512, "batch": 256},
    "serve-pattern": {"nodes": 5000, "mode": "pattern", "setups": 25,
                      "patterns": 250},
    "maintain": {"nodes": 1000, "batch": 20, "pairs": 16, "check_every": 25, "setups": 40},
}
WARMUP_S = 1.0

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MB"),
]

PER_LAYER = [
    ("server.syscalls_per_frame", "count"),
    ("server.ctx_switches_per_frame", "count"),
    ("server.bytes_in_per_query", "B"),
    ("server.bytes_out_per_query", "B"),
    ("server.gc_minor_per_kframe", "count"),
    ("server.inside_p50_us", "us"),
    ("server.encode_us", "us"),
    ("server.decode_us", "us"),
    ("query.eval_us", "us"),
    ("server.residual_us", "us"),
    ("query.match_us", "us"),
    ("graph.load_s", "s"),
    ("core.snapshot_save_s", "s"),
    ("server.engine_load_s", "s"),
    ("query.index_build_s", "s"),
    ("core.compressR_s", "s"),
    ("core.compressR.scc_s", "s"),
    ("core.compressR.desc_pass_s", "s"),
    ("core.compressR.anc_pass_s", "s"),
    ("core.compressR.quotient_s", "s"),
    ("core.compressR.reduce_s", "s"),
    ("core.compressB_s", "s"),
    ("partition.refine_s", "s"),
    ("core.compressB.quotient_s", "s"),
    ("query.index_bytes", "B"),
    ("graph.quotient_bytes", "B"),
    ("core.ratio", "ratio"),
    ("graph.edge_update_us", "us"),
    ("core.inc_reach_us", "us"),
    ("core.inc_bisim_us", "us"),
    ("core.inc_reach.affected_members", "count"),
    ("core.inc_bisim.affected_members", "count"),
    ("core.inc_reach.kept_ratio", "ratio"),
    ("core.inc_over_recompress", "ratio"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, build failure, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        raise BenchError("not the root of a qpgc checkout")
    # Keep every file the build and the runs write inside the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ.update(DUNE_CACHE="disabled", TMPDIR=tmp,
                      XDG_CACHE_HOME=os.path.join(WORK, "cache"))
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./bin/qpgc.exe", "./perfbench/harness.exe"],
            capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout + r.stderr)


class Pinned:
    """Runs children on one CPU: the daemon and its single client share it,
    so no request waits on a wake-up across CPUs."""

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))

    def _pin(self):
        os.sched_setaffinity(0, {self.cpu})

    def run(self, cmd, timeout=170, pinned=True):
        r = subprocess.run(cmd, preexec_fn=self._pin if pinned else None,
                           capture_output=True, text=True, timeout=timeout)
        if r.returncode != 0:
            raise BenchError(f"{cmd[0]} {cmd[1]} exited {r.returncode}: {r.stderr[-2000:]}")
        return r.stdout

    def json(self, cmd, timeout=170, pinned=True):
        return json.loads(self.run(cmd, timeout, pinned).strip().splitlines()[-1])

    def popen(self, cmd, stderr):
        return subprocess.Popen(cmd, preexec_fn=self._pin, stdout=subprocess.DEVNULL,
                                stderr=stderr)


def cpu_times(cpu):
    """(steal, total) jiffies for the whole host and for one CPU."""
    out = {}
    with open("/proc/stat") as f:
        for line in f:
            parts = line.split()
            if parts and parts[0] in ("cpu", f"cpu{cpu}"):
                vals = [int(x) for x in parts[1:]]
                steal = vals[7] if len(vals) > 7 else 0
                out[parts[0]] = (steal, sum(vals[:8]))
    return out


def record_steal(result, cpu, before):
    """Steal share of the host and of the pinned CPU since [before], taken
    around the measuring process (its warm-up included), so that a reader
    can tell steal from a regression."""
    after = cpu_times(cpu)
    for key, name in (("cpu", "steal_share_host"), (f"cpu{cpu}", "steal_share_pinned_cpu")):
        if key in before and key in after:
            dt = after[key][1] - before[key][1]
            result["env"][name] = (after[key][0] - before[key][0]) / dt if dt > 0 else 0.0


def host_probe_ms(cpu):
    """A fixed CPU-bound loop on the pinned CPU, best of three, in ms.  A
    contended host slows it down even when it reports no steal, so a
    reader can tell a busy host from a regression."""
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            x = 0
            for i in range(300000):
                x += i * i
            best = min(best, time.perf_counter() - t)
        return best * 1000
    finally:
        os.sched_setaffinity(0, old)


def clean(wdir):
    os.makedirs(wdir, exist_ok=True)
    for name in os.listdir(wdir):
        p = os.path.join(wdir, name)
        if not os.path.isdir(p):
            os.unlink(p)


def stop_daemon(proc, timeout=30):
    """SIGTERM drains the daemon; its exit code is part of the result."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return "timeout"
    return proc.returncode


def write_trace(wl, seed, files):
    """Merges the span files of one run into one Chrome trace; returns its path."""
    events = []
    for f in files:
        if os.path.exists(f):
            with open(f) as fh:
                events.extend(json.loads(line) for line in fh if line.strip())
    out = os.path.join(WORK, f"trace-{wl}-{seed}.json")
    with open(out, "w") as fh:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, fh)
    return os.path.relpath(out)


def serve(args, wdir, pin, result):
    wl = args.workload
    spec = WORKLOADS[wl]
    nodes = max(200, int(spec["nodes"] * args.scale))
    g = os.path.join(wdir, "g.bin")
    if wl == "serve-reach":
        shape = ["--sources", str(spec["sources"]), "--frames", str(spec["frames"]),
                 "--batch", str(spec["batch"])]
    else:
        # A tiny self-test graph has fewer distinct patterns to draw.
        shape = ["--patterns", str(max(20, int(spec["patterns"] * args.scale)))]
    info = pin.json([HARNESS, "gen", "--workload", wl, "--seed", str(args.seed),
                     "--nodes", str(nodes), "--work", wdir] + shape, pinned=False)
    result["env"]["graph"] = info
    frames = os.path.join(wdir, "frames.bin")
    expected = os.path.join(wdir, "expected.bin")
    if args.fault == "flip-answer":
        flip_first_answer(expected)
    snap = os.path.join(wdir, "snap.qc")
    sock = os.path.join(wdir, "sock")
    ready = os.path.join(wdir, "ready")
    daemon_log = open(os.path.join(wdir, "daemon.log"), "wb")
    setups = []
    daemon = killer = None
    try:
        for _ in range(spec["setups"]):
            if daemon is not None:
                code = stop_daemon(daemon)
                if code != 0:
                    raise BenchError(f"daemon exited {code} after set-up")
            for p in (ready, snap):
                if os.path.exists(p):
                    os.unlink(p)
            t0 = time.perf_counter()
            pin.run([QPGC, "compress", g, "--mode", spec["mode"], "--binary",
                     "-o", os.path.join(wdir, "gr.bin"), "--save", snap, "--domains", "1"])
            daemon = pin.popen([QPGC, "serve", snap, "--socket", sock, "--ready-file", ready,
                                "--domains", "1"], daemon_log)
            deadline = t0 + 120
            while not os.path.exists(ready):
                if daemon.poll() is not None:
                    raise BenchError(f"daemon exited {daemon.returncode} before ready")
                if time.perf_counter() > deadline:
                    raise BenchError("daemon not ready in 120 s")
                time.sleep(0.0005)
            setups.append(time.perf_counter() - t0)
        if args.fault == "kill-daemon":
            killer = threading.Timer(WARMUP_S + args.seconds / 2, daemon.kill)
            killer.start()
        ev_client = os.path.join(wdir, "events-client.jsonl")
        before = cpu_times(pin.cpu)
        c = pin.json([HARNESS, "client", "--socket", sock, "--frames", frames,
                      "--expected", expected, "--pid", str(daemon.pid),
                      "--ops-per-frame", str(info["ops_per_frame"]),
                      "--seconds", str(args.seconds), "--warmup", str(WARMUP_S),
                      "--timeout", "10", "--trace", str(args.trace),
                      "--events", ev_client], timeout=args.seconds + 120)
        record_steal(result, pin.cpu, before)
    finally:
        if killer is not None:
            killer.cancel()
        code = stop_daemon(daemon) if daemon is not None else None
        daemon_log.close()
    result["attempted"] += c["attempted"]
    result["failed"] += c["failed"]
    result["env"]["client"] = {k: c[k] for k in ("wrong", "errors", "broken")}
    result["env"]["daemon_exit"] = code
    if code != 0:
        # A daemon that did not drain cleanly fails at least the frame in flight.
        result["failed"] += max(1, info["ops_per_frame"])
        result["correct"] = False
    if c["failed"] or c["broken"]:
        result["correct"] = False
    u = c["measured"]
    m = result["metrics"]
    if not args.trace:
        end_to_end(m, result["env"], setups, u)
        return
    ev_inproc = os.path.join(wdir, "events-inproc.jsonl")
    ip = pin.json([HARNESS, "inproc", "--workload", wl, "--graph", g, "--work", wdir,
                   "--frames", frames, "--expected", expected, "--seconds", "2",
                   "--events", ev_inproc])
    if ip["wrong"]:
        result["correct"] = False
    fr = max(u["frames"], 1)
    m["server.syscalls_per_frame"] = u["syscalls"] / fr
    m["server.ctx_switches_per_frame"] = u["ctx"] / fr
    m["server.bytes_in_per_query"] = u["rchar"] / max(u["ops"], 1)
    m["server.bytes_out_per_query"] = u["wchar"] / max(u["ops"], 1)
    m["server.gc_minor_per_kframe"] = u["gc_minor"] * 1000 / max(u["frames"], 1)
    m["server.inside_p50_us"] = u["inside_p50_us"]
    for k in ("server.encode_us", "server.decode_us", "query.eval_us", "query.match_us",
              "graph.load_s", "core.snapshot_save_s", "server.engine_load_s",
              "query.index_build_s", "core.compressR.scc_s", "core.compressR.desc_pass_s",
              "core.compressR.anc_pass_s", "core.compressR.quotient_s",
              "core.compressR.reduce_s", "partition.refine_s", "core.compressB.quotient_s",
              "query.index_bytes", "graph.quotient_bytes", "core.ratio",
              "trace.overhead_pct"):
        m[k] = ip[k]
    key = "core.compressR_s" if spec["mode"] == "reach" else "core.compressB_s"
    m[key] = ip["core.compress_s"]
    # Both sides are per-frame bests: the client's and inproc's.
    m["server.residual_us"] = u["best_p50_us"] - (ip["server.encode_us"] + ip["server.decode_us"]
                                                  + ip["query.eval_us"])
    result["env"]["trace_file"] = write_trace(wl, args.seed, [ev_client, ev_inproc])


def end_to_end(m, env, setups, u):
    """The end-to-end metrics: the median set-up, and the per-item bests of
    the measured phase (see README.md).  The whole-run figures go to the
    run's environment record, next to them."""
    m["setup_s"] = statistics.median(setups)
    m["ops_per_s"] = u["best_ops_per_s"]
    m["p50_us"] = u["best_p50_us"]
    m["tail_us"] = u["best_tail_us"]
    m["cpu_us_per_op"] = u["best_cpu_us_per_op"]
    m["rss_mb"] = u["hwm_kb"] / 1024
    env["tail_percentile"] = u["best_tail_q"]
    env["items"] = u["items"]
    env["reps_min"] = u["reps_min"]
    env["setup_runs_s"] = setups
    env["whole_run"] = {"frames": u["frames"], "ops_per_s": u["ops"] / max(u["wall_s"], 1e-9),
                        "p50_us": u["p50_us"], "tail_us": u["tail_us"]}


def flip_first_answer(expected):
    """Test fault: corrupt the oracle's first reply so the check must fail.
    Byte 10 is the first answer of a reach reply (u32 length, version, 'A',
    u32 count, one byte per query) and inside the body of a pattern reply."""
    with open(expected, "r+b") as f:
        f.seek(10)
        b = f.read(1)[0]
        f.seek(10)
        f.write(bytes([b ^ 1]))


def maintain(args, wdir, pin, result):
    spec = WORKLOADS["maintain"]
    nodes = max(200, int(spec["nodes"] * args.scale))
    g = os.path.join(wdir, "g.bin")
    info = pin.json([HARNESS, "gen", "--workload", "maintain", "--seed", str(args.seed),
                     "--nodes", str(nodes), "--work", wdir], pinned=False)
    result["env"]["graph"] = info
    ev = os.path.join(wdir, "events-maintain.jsonl")
    before = cpu_times(pin.cpu)
    r = pin.json([HARNESS, "maintain", "--graph", g, "--seed", str(args.seed),
                  "--batch", str(spec["batch"]), "--pairs", str(spec["pairs"]),
                  "--seconds", str(args.seconds),
                  "--setups", str(spec["setups"]), "--check-every", str(spec["check_every"]),
                  "--work", wdir, "--trace", str(args.trace), "--events", ev],
                 timeout=args.seconds + 150)
    record_steal(result, pin.cpu, before)
    if args.fault == "flip-answer":
        # Test fault: hand the oracle a wrong Gr for the first checkpoint.
        first = r["checkpoints"][0]
        shutil.copyfile(os.path.join(wdir, f"ck{first}-b.qc"),
                        os.path.join(wdir, f"ck{first}-r.qc"))
    ck = pin.json([HARNESS, "check", "--graph", g, "--batches",
                   os.path.join(wdir, "batches.txt"), "--work", wdir,
                   "--checkpoints", ",".join(map(str, r["checkpoints"]))])
    result["attempted"] += r["attempted"]
    result["failed"] += r["failed"] + ck["mismatches"]
    result["env"]["checked_batches"] = r["checkpoints"]
    if ck["mismatches"] or not ck["checked"]:
        result["correct"] = False
    u = r["untraced"]
    m = result["metrics"]
    if not args.trace:
        end_to_end(m, result["env"], r["setup_s"], u)
        return
    t = r["traced"]
    for k in ("graph.edge_update_us", "core.inc_reach_us", "core.inc_bisim_us",
              "core.inc_reach.affected_members", "core.inc_bisim.affected_members",
              "core.inc_reach.kept_ratio"):
        m[k] = t[k]
    for k in ("core.compressR_s", "core.compressB_s", "core.compressR.scc_s",
              "core.compressR.desc_pass_s", "core.compressR.anc_pass_s",
              "core.compressR.quotient_s", "core.compressR.reduce_s", "partition.refine_s",
              "core.compressB.quotient_s", "core.ratio", "graph.quotient_bytes",
              "graph.load_s"):
        m[k] = r[k]
    m["core.inc_over_recompress"] = (
        (t["core.inc_reach_us"] + t["core.inc_bisim_us"]) / 1e6 / ck["recompress_s"])
    # The traced batches' extra time, against the untraced ones: both are
    # sums of per-item bests over the same items.
    if t["items"] == u["items"] and u["items"]:
        m["trace.overhead_pct"] = (u["best_ops_per_s"] / t["best_ops_per_s"] - 1) * 100
    result["env"]["trace_file"] = write_trace("maintain", args.seed, [ev])


def run_all(args):
    """`--workload all`: every workload, untraced then traced, one after
    another; prints each metric by name with its unit."""
    ok = True
    for wl in WORKLOADS:
        for trace in (0, 1):
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", wl,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(trace), "--scale", str(args.scale)],
                               capture_output=True, text=True)
            if r.returncode != 0:
                log(r.stderr)
                return r.returncode
            res = json.loads(r.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"] and res["failed"] == 0
            print(f"{wl} --trace {trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:36s} {m['value']:<14.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (selftest.py): graph size factor and injected faults.
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--fault", choices=("kill-daemon", "flip-answer"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    # On SIGTERM, unwind so that the daemon and the harness are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.workload == "all":
        return run_all(args)

    try:
        build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    pin = Pinned()
    wdir = os.path.join(WORK, args.workload)
    clean(wdir)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {},
              "env": {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
                      "pinned_cpu": pin.cpu, "seconds": args.seconds, "scale": args.scale}}
    t0 = time.time()
    probe = host_probe_ms(pin.cpu)
    try:
        if args.workload == "maintain":
            maintain(args, wdir, pin, result)
        else:
            serve(args, wdir, pin, result)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    result["env"]["host_probe_ms"] = [probe, host_probe_ms(pin.cpu)]
    result["env"]["wall_s"] = time.time() - t0

    table = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in table:
        value = result["metrics"].get(name, 0)
        if value is None:
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    # Every run is kept, with its environment, beside the metrics.
    record = dict(result["env"], correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=metrics, time=time.time())
    with open(os.path.join(WORK, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({"correct": result["correct"] and result["failed"] == 0,
                      "attempted": max(result["attempted"], 1), "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
