"""One workload in one fresh process: set up, run the ops, check them.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --workdir DIR --trace-dir DIR [--setup-only]

Prints ``ready`` once set-up is done (imports, input generation, model
ideals), then, unless ``--setup-only``, one JSON line with the op times,
check results, digests and, with ``--trace 1``, the per-layer metrics.

Untraced (``--trace 0``): the workload's quota of ops is timed, and
set-up-only probes of the same workload run between the ops.  Traced
(``--trace 1``): each quota op runs once untraced and once traced, in
alternating order; both must give the same digest.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import tracer as tracing
import workloads

SETUP_PROBES = 30  # set-up-only processes per untraced run, spread over its ops


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def timed_op(wl, inp):
    """Run one op from cold caches; return (seconds, output or None, error)."""
    workloads.cold_caches()
    gc.collect()
    t0 = perf_counter()
    try:
        out = wl.run(inp)
    except Exception:  # an op that raises counts as failed, the run goes on
        return perf_counter() - t0, None, traceback.format_exc(limit=4)
    return perf_counter() - t0, out, None


def checked(wl, inp, out, err):
    """(error or None, digest or None) of one op, outside the timed part."""
    if err is not None:
        return err, None
    try:
        return wl.check(inp, out), wl.digest(inp, out)
    except Exception:
        return traceback.format_exc(limit=4), None


def main(argv=None):
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    quota = list(itertools.islice(wl.inputs(args.seed), wl.quota))
    workloads.warm_models(wl.field)
    if wl.field is workloads.QQ:
        import numpy  # noqa: F401  (real_legs imports it lazily)
    setup_spans = []
    if tracer:
        setup_spans = tracer.take()
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"quota": len(quota), "inputs": [], "op_times": [], "errors": [], "digests": []}
    if tracer:
        run_traced(wl, quota, tracer, setup_spans, result, args)
    else:
        run_untraced(wl, quota, args, result)
    result["notes"] = wl.notes()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


def setup_probe(args):
    """Seconds a fresh set-up-only process takes to print `ready`."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed),
           "--workdir", args.workdir, "--trace-dir", args.trace_dir, "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return dt


def run_untraced(wl, quota, args, result):
    # probes go before op k for each k below (k = n: after the last op), so
    # they sample the whole run
    n = len(quota)
    probe_at = [round(k * n / (SETUP_PROBES - 1)) for k in range(SETUP_PROBES)]
    result["setup_probes"] = []
    for i in range(n + 1):
        for _ in range(probe_at.count(i)):
            result["setup_probes"].append(setup_probe(args))
        if i < n:
            dt, out, err = timed_op(wl, quota[i])
            err, digest = checked(wl, quota[i], out, err)
            result["inputs"].append(wl.describe(quota[i]))
            result["op_times"].append(dt)
            result["errors"].append(err)
            result["digests"].append(digest)
    result["wall_s"] = sum(result["op_times"])


def run_traced(wl, quota, tracer, setup_spans, result, args):
    plain_s = traced_s = 0.0
    for i, inp in enumerate(quota):
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                tracer.install()
            try:
                dt, out, err = timed_op(wl, inp)
            finally:
                tracer.uninstall()
            runs[traced] = (dt,) + checked(wl, inp, out, err)
        plain_s += runs[False][0]
        traced_s += runs[True][0]
        err = runs[False][1] or runs[True][1]
        if err is None and runs[False][2] != runs[True][2]:
            err = "traced and untraced digests differ"
        result["inputs"].append(wl.describe(inp))
        result["op_times"].append(runs[True][0])
        result["errors"].append(err)
        result["digests"].append(runs[False][2])
    op_spans = tracer.take()
    stats = tracing.SpanStats(op_spans)
    in_models = lambda n: n.startswith("models.")  # noqa: E731
    layers = {}
    for name, unit, _better, value in tracing.PER_LAYER:
        if name == "models.build.self_s":
            v = (tracing.SpanStats(setup_spans).self_where(in_models)
                 + stats.self_where(in_models))
        elif name == "trace.overhead_frac":
            v = traced_s / plain_s - 1.0
        else:
            v = value(stats)
        layers[name] = {"value": v, "unit": unit}
    result["layers"] = layers
    result["untraced_s"], result["traced_s"] = plain_s, traced_s
    result["spans"] = len(op_spans)
    path = os.path.join(args.trace_dir, f"trace-{wl.name}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                   "setup": setup_spans, "ops": op_spans}, fh)
    result["trace_file"] = path


if __name__ == "__main__":
    sys.exit(main())
