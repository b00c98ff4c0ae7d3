"""podforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a podforge checkout; the program is imported from
``src/`` as it stands, nothing is installed.  Workloads: construct-fp,
sample-fp, real-qq (see perfbench/README.md).

Each workload runs in its own fresh single-threaded process
(perfbench/worker.py, BLAS pinned to one thread).  A run is a fixed quota of
ops per workload, sized to take about the ``run_seconds`` of BENCHMARK.json;
``--seconds`` is accepted for the command-line contract and does not change
the work.  With ``--trace 0`` the run times the ops and the set-up of 31
fresh processes (the workload process and 30 set-up-only probes it starts
between its ops), and reports the end-to-end metrics.  With ``--trace 1``
the workload process wraps podforge's public functions and reports the
per-layer metrics.  Every op is checked against an
oracle; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 when run outside a
checkout, 1 when a workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("construct-fp", "sample-fp", "real-qq")
DEADLINE_S = 170.0  # a run is abandoned (exit 1) after this long
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PODFORGE_THREADS")


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cmd, env, deadline):
    """Start the workload process; return (seconds until it printed `ready`,
    its remaining standard output).  Killed at the deadline."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(cmd[1:])} exited with {proc.returncode}"
                           + (" (deadline)" if perf_counter() >= deadline else ""))
    return setup_s, rest


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "podforge", "__init__.py")):
        print("perfbench: src/podforge not found; run from the root of a podforge "
              "checkout", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    env = worker_env(root)
    outdir = os.path.join(root, ".perfbench")
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--workdir", workdir, "--trace-dir", outdir]
    try:
        setup_s, out = spawn(cmd, env, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])
    report(args, res, [setup_s] + res.get("setup_probes", []))
    return 0


def report(args, res, setups):
    times, errors, digests = res["op_times"], res["errors"], res["digests"]
    failed = sum(e is not None for e in errors)
    for inp, dt, err, dig in zip(res["inputs"], times, errors, digests):
        print(f"op input={inp} seconds={dt:.3f} digest={dig} "
              + ("ok" if err is None else "FAILED: " + err.strip().replace("\n", " | ")))
    for note in res["notes"]:
        print(note)
    run_digest = hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()
    print(f"run digest {run_digest} ({len(digests)} ops)")
    if args.trace:
        metrics = res["layers"]
        print(f"traced {len(times)} ops, {res['spans']} spans, untraced "
              f"{res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s; "
              f"spans in {os.path.relpath(res['trace_file'])}")
    else:
        metrics = {
            "setup_s": {"value": min(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s is the fastest of {len(setups)} set-ups: "
              + ", ".join(f"{s:.3f}" for s in setups))
        print(f"wall_s covers the {res['quota']} ops; op_p50_s "
              f"{statistics.median(times):.4f} s over {len(times)} ops; "
              f"fail_rate {failed}/{len(times)}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and len(times) > 0, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
