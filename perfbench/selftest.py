"""Self-test of the benchmark's tracer and metric tables.

    PYTHONPATH=src python3 perfbench/selftest.py      (from the checkout root)

Fails (exit 1) if, with the tracer installed, any podforge module still
binds an unwrapped original (for example `hilbert_data` or `eliminate`
imported by name into constructions, verify, models, cli or acceptance), if
uninstalling leaves a wrapper behind, if spans lose their parent links, or
if BENCHMARK.json lists other per-layer metrics than the tracer reports.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check():
    import podforge
    import podforge.acceptance  # noqa: F401  (its bindings must be patched too)
    from podforge import DEGREVLEX, GF, Ideal, RingContext
    import tracer as tracing

    errors = []
    tr = tracing.Tracer()
    originals = dict(tr.targets)
    # the by-name copies this test is about exist before install
    copies = holders([originals["groebner.hilbert_data"], originals["groebner.eliminate"]])
    if len(copies) < 8:
        errors.append("expected hilbert_data and eliminate bound in several modules, got "
                      + ", ".join(copies))
    try:
        tr.install()
    except RuntimeError as exc:
        errors.append(str(exc))
    left = holders(originals.values())
    if left:
        errors.append("unwrapped originals after install: " + ", ".join(left))

    ring = RingContext(("x", "y", "z"), (1, 1, 1), DEGREVLEX, GF(101))
    x, y, z = ring.gens()
    gens = [x * y - z * z, x * x - y * z]
    tr.op = 0
    podforge.hilbert_data(Ideal(ring, gens))
    tr.uninstall()
    left = holders(tr._wrappers.values())
    if left:
        errors.append("wrappers left after uninstall: " + ", ".join(left))
    spans = tr.take()
    names = [s[0] for s in spans]
    if "groebner.hilbert_data" not in names or "groebner.buchberger" not in names:
        errors.append(f"expected hilbert_data and buchberger spans, got {names}")
    else:
        hil = names.index("groebner.hilbert_data")
        bb = spans[names.index("groebner.buchberger")]
        if bb[3] != hil or bb[4] != 0 or not spans[hil][1] <= bb[1] <= bb[2] <= spans[hil][2]:
            errors.append("buchberger span is not nested in its hilbert_data parent")
        stats = tracing.SpanStats(spans)
        if not 0 <= stats.self_s["groebner.hilbert_data"] <= stats.total_s["groebner.hilbert_data"]:
            errors.append("self time outside [0, total]")
        if stats.extra_values("groebner.buchberger", "basis_len") != [len(podforge.buchberger(gens))]:
            errors.append("buchberger basis_len probe disagrees with the basis")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    reported = [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]
    if listed != reported:
        errors.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    return errors


def holders(functions):
    """Every podforge module attribute, module-level dict value or
    `RingMap.__call__` that is one of `functions`; scanned here, apart from
    the tracer's own scan, so a gap in that scan shows."""
    from podforge.rings import RingMap

    ids = {id(f) for f in functions}
    found = []
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("podforge"):
            continue
        for attr, val in vars(mod).items():
            if id(val) in ids:
                found.append(f"{name}.{attr}")
            elif isinstance(val, dict) and attr != "__builtins__":
                found += [f"{name}.{attr}[{k!r}]" for k, v in val.items() if id(v) in ids]
    if id(RingMap.__dict__["__call__"]) in ids:
        found.append("podforge.rings.RingMap.__call__")
    return found


def main():
    errors = check()
    for e in errors:
        print("FAIL:", e)
    print("selftest ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
