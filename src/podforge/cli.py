"""Command-line interface: model construction, invariants, pod constructions,
duality transport, verification, and the claim-reproduction table.

All randomness flows from the --seed flag through seeded generators, so equal
invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from .fields import QQ, field_from_descriptor
from .groebner import hilbert_data, ideal_to_json
from .models import MODEL_BUILDERS, Leg
from .duality import FORMS, DualityError, LinearSubspace, dual_space
from . import constructions, verify

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


class InputError(Exception):
    """Malformed user input (a file, its JSON, a field descriptor): exit code
    2 with a one-line message."""


def _field(desc):
    if not isinstance(desc, str):
        raise InputError(f"bad field {desc!r}: not a descriptor string")
    try:
        return field_from_descriptor(desc)
    except ValueError as exc:  # FieldError, or a non-integer modulus
        raise InputError(f"bad field {desc!r}: {exc}") from None


def _write_json(path, data):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _keys(data, path, *names):
    """The values of the given top-level keys of a loaded JSON object."""
    missing = [n for n in names if not isinstance(data, dict) or n not in data]
    if missing:
        raise InputError(f"{path} has no {', '.join(map(repr, missing))} key")
    return [data[n] for n in names]


def cmd_model(args) -> int:
    field = _field(args.field)
    builder = MODEL_BUILDERS.get(args.name)
    if builder is None:
        print(f"unknown model {args.name!r}; choose from {sorted(MODEL_BUILDERS)}", file=sys.stderr)
        return EXIT_USAGE
    ideal = builder(field)
    _write_json(args.out, ideal_to_json(ideal))
    return EXIT_OK


def cmd_invariants(args) -> int:
    field = _field(args.field)
    builder = MODEL_BUILDERS.get(args.model)
    if builder is None:
        print(f"unknown model {args.model!r}; choose from {sorted(MODEL_BUILDERS)}", file=sys.stderr)
        return EXIT_USAGE
    ideal = builder(field)
    if any(w != 1 for w in ideal.ring.weights):
        raise InputError(f"model {args.model} lives in a weighted ring (weights {ideal.ring.weights}); "
                         "invariants needs unit weights")
    hd = hilbert_data(ideal)
    line = f"dim {hd.dimension} deg {hd.degree}"
    if hd.arithmetic_genus is not None:
        line += f" genus {hd.arithmetic_genus}"
    print(line)
    return EXIT_OK


def _scalar(field, c):
    """A rational string (or number) of the input as a field scalar."""
    try:
        return field.of(Fraction(str(c)))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad number {c!r}: {exc}") from None


def _legs_from_pod_json(path, field, count):
    if path is None:
        raise InputError("this construction needs --legs")
    base, platform, d2s = _keys(_load_json(path), path, "base", "platform", "lengths_squared")
    if not (isinstance(base, list) and isinstance(platform, list) and isinstance(d2s, list)
            and len(base) == len(platform) == len(d2s)):
        raise InputError(f"{path}: base, platform and lengths_squared must be lists of equal length")
    if len(base) != count:
        raise InputError(f"{path} has {len(base)} legs; this construction needs {count}")
    legs = []
    for a, b, d2 in zip(base, platform, d2s):
        if not all(isinstance(p, list) and len(p) == 3 for p in (a, b)):
            raise InputError(f"{path}: every anchor needs three coordinates")
        legs.append(
            Leg(
                tuple(_scalar(field, c) for c in a),
                tuple(_scalar(field, c) for c in b),
                _scalar(field, d2),
                field,
            )
        )
    return legs


def _bundle_to_json(bundle) -> dict:
    seed = bundle.seed
    return {
        "kind": "infinity",
        "field": seed.field.descriptor,
        "rng_seed": seed.rng_seed,
        "bound": seed.bound,
        "seed_forms": {
            "L": [str(f) for f in seed.L],
            "U": str(seed.U),
            "P": [str(f) for f in seed.P],
            "F": str(seed.F),
        },
        "certification": dict(bundle.certification),
        "config_ideal": ideal_to_json(bundle.config_ideal),
        "leg_ideal_full": ideal_to_json(bundle.leg_ideal_full),
        "leg_ideal_sym": ideal_to_json(bundle.leg_ideal_sym),
        "config_span_forms": [[str(c) for c in v] for v in bundle.config_span_forms],
        "leg_span_points": [[str(c) for c in v] for v in bundle.leg_span_points],
    }


def cmd_construct(args) -> int:
    field = _field(args.field)
    if args.what == "infinity":
        bundle = constructions.create_infinity_pod(args.seed, field, bound=args.bound)
        _write_json(args.out, _bundle_to_json(bundle))
    elif args.what == "duporcq":
        legs = _legs_from_pod_json(args.legs, field, 5)
        sixth = constructions.duporcq_sixth_leg(legs)
        _write_json(
            args.out,
            {
                "kind": "duporcq_sixth_leg",
                "a": [str(c) for c in sixth.a],
                "b": [str(c) for c in sixth.b],
                "d2": str(sixth.d2),
            },
        )
    elif args.what == "hexapod":
        legs = _legs_from_pod_json(args.legs, field, 6)
        curve = constructions.hexapod_leg_curve(legs)
        hd = hilbert_data(curve)
        out = ideal_to_json(curve)
        out["certification"] = {"dim": hd.dimension, "deg": hd.degree}
        _write_json(args.out, out)
    elif args.what == "cubic":
        if field is QQ:
            raise InputError("construct cubic runs over a finite field: its symmetroid nodes are enumerated over GF(p)")
        bundle = constructions.cubic_line_symmetric(args.seed, field, bound=args.bound)
        pencil = constructions.symmetroid_pencil(bundle)
        _write_json(
            args.out,
            {
                "kind": "cubic_line_symmetric",
                "field": field.descriptor,
                "rng_seed": args.seed,
                "bound": args.bound,
                "certification": dict(bundle.certification),
                "leg_ideal": ideal_to_json(bundle.leg_ideal),
                "config_ideal": ideal_to_json(bundle.config_ideal),
                "symmetroid": {
                    "H": str(pencil.H),
                    "node_scheme_degree": pencil.node_scheme_degree,
                    "rational_nodes": [[str(c) for c in nd] for nd in pencil.nodes],
                },
            },
        )
    elif args.what == "conic":
        rng = random.Random(args.seed)
        fc = [[rng.randint(-args.bound, args.bound) for _ in range(3)] for _ in range(3)]
        gc = [[rng.randint(-args.bound, args.bound) for _ in range(3)] for _ in range(3)]
        pod = constructions.conic_product_legs(fc, gc, field, random.Random(args.seed + 1))
        _write_json(
            args.out,
            {
                "kind": "conic_product",
                "field": field.descriptor,
                "rng_seed": args.seed,
                "bound": args.bound,
                "certification": dict(pod.certification),
                "leg_ideal": ideal_to_json(pod.leg_ideal),
                "config_ideal": ideal_to_json(pod.config_ideal),
            },
        )
    else:
        return EXIT_USAGE
    return EXIT_OK


def cmd_dual(args) -> int:
    form = FORMS.get(args.form)
    if form is None:
        print(f"unknown form {args.form!r}; choose from {sorted(FORMS)}", file=sys.stderr)
        return EXIT_USAGE
    form = form()
    path = getattr(args, "in")
    data = _load_json(path)
    ambient, kind, basis = _keys(data, path, "ambient", "kind", "basis")
    field = _field(data.get("field", "q"))
    if not isinstance(ambient, list) or tuple(ambient) not in (form.left_names, form.right_names):
        raise InputError(f"{path}: ambient is neither side of {form.kind}")
    if not isinstance(basis, list) or any(
        not isinstance(v, list) or len(v) != len(ambient) for v in basis
    ):
        raise InputError(f"{path}: basis must be a list of vectors of length {len(ambient)}")
    try:
        space = LinearSubspace(
            tuple(ambient), kind, tuple(tuple(_scalar(field, c) for c in v) for v in basis), field
        )
    except DualityError as exc:  # an unknown kind tag
        raise InputError(f"{path}: {exc}") from None
    side = "left" if tuple(ambient) == form.left_names else "right"
    out = dual_space(space, form, side)
    _write_json(
        args.out,
        {
            "field": field.descriptor,
            "ambient": list(out.ambient),
            "kind": out.kind,
            "basis": [[str(c) for c in v] for v in out.basis],
        },
    )
    return EXIT_OK


def _integer(key, value, minimum=None):
    """A bundle's integer value (a bool is not one)."""
    if type(value) is not int or (minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" of at least {minimum}"
        raise InputError(f"{key} must be an integer{at_least}, not {value!r}")
    return value


def _differing(given, rebuilt):
    """The keys whose entries are missing, extra or different, compared as
    JSON text (so `1` is not `true`)."""
    return {
        key for key in given.keys() | rebuilt.keys()
        if key not in given or key not in rebuilt
        or json.dumps(given[key], sort_keys=True) != json.dumps(rebuilt[key], sort_keys=True)
    }


def cmd_verify(args) -> int:
    data = _load_json(args.bundle)
    if not isinstance(data, dict) or data.get("kind") != "infinity":
        print("verify currently handles infinity bundles", file=sys.stderr)
        return EXIT_USAGE
    # the construction is a function of its seed: verify rebuilds the bundle
    # from these entries and compares every other entry with the rebuild
    desc, rng_seed, bound = _keys(data, args.bundle, "field", "rng_seed", "bound")
    field = _field(desc)
    bundle = constructions.create_infinity_pod(
        _integer("rng_seed", rng_seed), field, _integer("bound", bound, minimum=0)
    )
    rebuilt = json.loads(json.dumps(_bundle_to_json(bundle)))  # as construct writes it
    certification = rebuilt["certification"]
    mismatch = _differing(data, rebuilt)
    if "certification" in mismatch and isinstance(data.get("certification"), dict):
        mismatch.remove("certification")
        mismatch |= _differing(data["certification"], certification)
    pod_id = f"seed{bundle.seed.rng_seed}"
    if field is not QQ:
        count = max(5, args.samples // 5)
        legs = verify.exact_legs(bundle, count, random.Random(args.seed))
        configs = [(c.coords, field) for c in bundle.seed.config_points(count)]
        report = verify.check_pod(
            configs, [(pt, field) for pt in legs], mode="exact", pod_id=pod_id,
            certification=certification,
        )
        # the seed's configurations must lie on the configuration ideal (its
        # generators include a basis of P's linear part, which the span forms
        # span), and each sampled leg on the full leg curve
        report.configs_off_bundle = [
            i for i, (c, _) in enumerate(configs) if not bundle.config_ideal.contains_point(c)
        ]
        report.legs_off_bundle = [
            j for j, pt in enumerate(legs) if not bundle.leg_ideal_full.contains_point(pt)
        ]
    else:
        cfgs = verify.real_configurations(bundle.seed, max(10, args.samples // 2))
        legs = verify.real_legs(bundle, max(5, args.samples // 5), random.Random(args.seed))
        report = verify.check_pod(
            cfgs, legs, mode="float", tol=args.tol, pod_id=pod_id, certification=certification,
        )
    report.bundle_mismatch = sorted(mismatch)
    _write_json(args.out, report.to_json())
    _print_report(report)
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def _print_report(report):
    print(f"pod {report.pod_id}: mode={report.mode} pairs={len(report.residuals)}")
    if not report.residuals:
        print("  no (configuration, leg) pair checked")
    for key, val in sorted(report.certification.items()):
        print(f"  certification {key}: {val}")
    if report.mode == "exact":
        print(f"  exact residuals all zero: {report.residuals_ok}")
        if report.configs_off_bundle:
            print(f"  configurations off config_ideal: {report.configs_off_bundle}")
        if report.legs_off_bundle:
            print(f"  legs off leg_ideal_full: {report.legs_off_bundle}")
    else:
        print(f"  max |residual| = {report.max_abs:.3e} (tol {report.tol})")
    if report.bundle_mismatch:
        print(f"  entries differ from the bundle rebuilt from its seed: {report.bundle_mismatch}")
    print("  PASS" if report.ok else "  FAIL")


def cmd_reproduce(args) -> int:
    from . import acceptance

    results = acceptance.run_all(fast=args.fast, seed=args.seed, tol=args.tol)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"  [{status}] {r.name:<{width}}  {r.detail}  ({r.seconds:.1f}s)")
        if not r.ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} claims reproduced")
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED


def _count(flag):
    """An argparse type for a non-negative integer option.  It raises
    InputError, which argparse does not catch, so a bad value exits 2 with
    one line rather than a usage message."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = -1
        if value < 0:
            raise InputError(f"{flag} must be a non-negative integer, not {text!r}")
        return value

    return parse


def _tolerance(text):
    """An argparse type for --tol: a finite non-negative number, or
    InputError as in `_count`."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not (math.isfinite(value) and value >= 0):
        raise InputError(f"--tol must be a finite non-negative number, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="podforge",
        description="Exact construction and certification of mobile infinity-pods.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="emit a variety ideal as JSON")
    p.add_argument("name")
    p.add_argument("--field", default="q")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("invariants", help="dimension/degree(/genus) of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--field", default="fp:101")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("construct", help="run a pod construction")
    p.add_argument("what", choices=["infinity", "duporcq", "hexapod", "cubic", "conic"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="fp:101")
    p.add_argument("--bound", type=_count("--bound"), default=10)
    p.add_argument("--legs", help="pod JSON with base/platform/lengths_squared")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("dual", help="transport a subspace across a sphere pairing")
    p.add_argument("--form", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("verify", help="check a bundle's sphere conditions")
    p.add_argument("bundle")
    p.add_argument("--samples", type=_count("--samples"), default=25)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="run the acceptance suite")
    p.add_argument("--fast", action="store_true", help="reduced seed counts for a quick pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(func=cmd_reproduce)

    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors, --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (constructions.DegenerateSeedError, DualityError) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (verify.SamplingError, constructions.CertificationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
