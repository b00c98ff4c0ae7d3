"""CLI surface: subcommands, file formats, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PY = [sys.executable, "-m", "podforge.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        PY + list(args), capture_output=True, text=True, timeout=900
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


POD = {
    "base": [["-5", "-8", "0"], ["-4", "-5", "0"], ["-8", "-6", "0"],
             ["1/2", "-2", "0"], ["0", "-7", "0"]],
    "platform": [["0", "-1", "0"], ["-6", "5", "0"], ["-2", "-1", "0"],
                 ["5", "3", "0"], ["-3", "5", "0"]],
    "lengths_squared": ["8", "2", "17", "15", "11"],
}


def test_invariants_yinv():
    proc = run_cli("invariants", "--model", "Yinv", "--field", "fp:101")
    assert proc.stdout.strip() == "dim 7 deg 10"


def test_invariants_ypinv():
    proc = run_cli("invariants", "--model", "Ypinv", "--field", "fp:101")
    assert proc.stdout.startswith("dim 5 deg 3")


def test_model_emits_parseable_ideal(tmp_path):
    out = tmp_path / "ypinv.json"
    run_cli("model", "Ypinv", "--field", "q", "--out", str(out))
    data = json.loads(out.read_text())
    assert data["ring"]["vars"] == ["z00", "z11", "z22", "s01", "s02", "s12", "l"]
    assert len(data["generators"]) == 1
    from polytext import ideal_from_json

    ideal = ideal_from_json(data)
    assert ideal.generators[0].homogeneous_degree() == 3


def test_unknown_model_usage_error():
    proc = run_cli("model", "Nope", check=False)
    assert proc.returncode == 2


def test_construct_infinity_deterministic(tmp_path):
    out1 = tmp_path / "b1.json"
    out2 = tmp_path / "b2.json"
    run_cli("construct", "infinity", "--seed", "7", "--field", "fp:101", "--out", str(out1))
    run_cli("construct", "infinity", "--seed", "7", "--field", "fp:101", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["certification"]["i_lin_dim"] == 11
    assert tuple(data["certification"]["leg_sym"]) == (1, 10, 6)
    assert tuple(data["certification"]["leg_full"]) == (1, 20, 11)


@pytest.mark.parametrize(
    "field, seed, digest",
    [
        ("fp:101", 1, "0904936d336626f3e4c2c26d81bddb574de4fb475b4d3051b0434f1ee284446d"),
        ("fp:101", 1201, "2ff362633fa6312b57b15314275027afc7daf16dc130869cee919ac03d52a14c"),
        ("q", 2, "55f6e632abc3578856f922d7061b48cccac56ae2fdf4ec5a8050b8ec79f437b7"),
    ],
    ids=["fp101-1", "fp101-1201", "q-2"],
)
def test_construct_infinity_output_pinned(tmp_path, field, seed, digest):
    # the determinism contract: a faster route must write the same bytes
    out = tmp_path / "b.json"
    run_cli("construct", "infinity", "--seed", str(seed), "--field", field, "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, digest",
    [
        ("X", "fef932e6c503b85d5f6ea8e86d3b87b4e059b58f1e2b245fe77be4e74c2d9ef8"),
        ("Xinv", "689cf2075ed9f3c0759efc44f59cc69f267e3b6f5ed93ce43139a97feec3fa49"),
        ("Xp", "d9ad9b4cca95871e62dcbc447a79f32c4ead39aa8a2d4b75a8366b3fc8988fc8"),
        ("Xpinv", "99dc67db916075740ea9f2bc991d2a2753c0e535eaf490a48ebebfb8c1692925"),
        ("Y", "0a3a81943c24dfd6b82cefa239cfd4cf13aa1aedac4edc59f5af4c7ad760584b"),
        ("Yinv", "8cb6b97c0e6c9e13283133606fdde94905b19726530e495892fa9a90dd82815b"),
        ("Yp", "ca97d5ef44a2ebde885d122c8a572a85fe2383decb1a289fb20648cfee4c8c56"),
        ("Ypinv", "83302f7ea7952dca1557fb0f6e6672cfafd6b9965f4b720a8181ed41cbd16fff"),
        ("Zinv", "5fb778d587a96840d8dce459e200a7327ed95a4fe278faa4d44360aeaff85297"),
    ],
)
def test_model_output_pinned(tmp_path, name, digest):
    # SHA-256 of `podforge model NAME --field fp:101`, generator order included
    out = tmp_path / "m.json"
    run_cli("model", name, "--field", "fp:101", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "what, seed, digest",
    [
        ("cubic", 3, "860de6d6fdc546ce85eb920ee95e32bc4087c3676ecd0695cd64b397bbb50cbc"),
        ("conic", 1, "df4e063394a954bfd84af42c1c719448ec430e4427edf6d80676820ac9d34648"),
    ],
)
def test_construct_output_pinned(tmp_path, what, seed, digest):
    out = tmp_path / "c.json"
    run_cli("construct", what, "--seed", str(seed), "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_construct_hexapod_output_pinned(tmp_path):
    # POD plus a sixth planar leg, over GF(101)
    pod = tmp_path / "pod.json"
    pod.write_text(json.dumps({
        "base": POD["base"] + [["3", "1", "0"]],
        "platform": POD["platform"] + [["2", "-4", "0"]],
        "lengths_squared": POD["lengths_squared"] + ["9"],
    }))
    out = tmp_path / "hexapod.json"
    run_cli("construct", "hexapod", "--field", "fp:101", "--legs", str(pod), "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f9cf856aec98d582d0f6fde1883e20892a25bc6bc170051b02c45ee3fdac605b"
    )


def test_construct_then_verify_exact(tmp_path):
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    run_cli("construct", "infinity", "--seed", "7", "--field", "fp:101", "--out", str(bundle))
    proc = run_cli(
        "verify", str(bundle), "--samples", "25", "--seed", "0", "--out", str(report),
    )
    assert proc.returncode == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True
    assert all(r["ok"] for r in data["residuals"])
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "6dcd4ce664422c5272d7b946201dc9ff6fdb2344db82584b6d1cc2857bc08613"
    )


@pytest.fixture(scope="module")
def qq2_bundle(tmp_path_factory):
    """The QQ infinity bundle of seed 2, as loaded JSON."""
    path = tmp_path_factory.mktemp("bundles") / "qq2.json"
    run_cli("construct", "infinity", "--seed", "2", "--field", "q", "--out", str(path))
    return json.loads(path.read_text())


def _verify_fails_naming(tmp_path, data, named):
    """Verify a bundle given as JSON: it must exit 1, naming exactly `named`
    in bundle_mismatch, while the sampling on the rebuilt bundle passes.
    Returns the report."""
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle.write_text(json.dumps(data))
    proc = run_cli("verify", str(bundle), "--out", str(report), check=False)
    assert proc.returncode == 1, proc.stderr
    out = json.loads(report.read_text())
    assert out["ok"] is False and out["bundle_mismatch"] == named
    assert "configs_off_bundle" not in out and "legs_off_bundle" not in out
    assert out["residuals"] and all(r["ok"] for r in out["residuals"])
    assert f"entries differ from the bundle rebuilt from its seed: {named}" in proc.stdout
    assert proc.stdout.rstrip().endswith("FAIL")
    return out


def test_construct_then_verify_float(tmp_path, qq2_bundle):
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle.write_text(json.dumps(qq2_bundle))
    proc = run_cli("verify", str(bundle), "--out", str(report))
    assert proc.returncode == 0
    assert json.loads(report.read_text())["ok"] is True


def test_verify_float_reads_seed(tmp_path, qq2_bundle):
    # float mode draws its leg slices from --seed: the report is the one of
    # real_legs(bundle, n, random.Random(seed))
    import random

    from podforge import verify
    from podforge.constructions import create_infinity_pod
    from podforge.fields import QQ

    bundle_path = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle_path.write_text(json.dumps(qq2_bundle))
    run_cli("verify", str(bundle_path), "--seed", "3", "--out", str(report))
    bundle = create_infinity_pod(2, QQ)
    cfgs = verify.real_configurations(bundle.seed, 12)

    def residuals(rng):
        legs = verify.real_legs(bundle, 5, rng)
        return verify.check_pod(cfgs, legs, mode="float").to_json()["residuals"]

    got = json.loads(report.read_text())["residuals"]
    assert got == residuals(random.Random(3))
    assert got != residuals(None)  # the fallback draw gives other legs


@pytest.mark.parametrize(
    "falsify, named",
    [
        ({"leg_sym": [1, 12, 9]}, ["leg_sym"]),
        ({"leg_full": [1, 20, 12]}, ["leg_full"]),
        ({"i_lin_dim": 10, "f_smooth": False, "leg_full": None}, ["f_smooth", "i_lin_dim", "leg_full"]),
    ],
    ids=["leg-sym", "leg-full", "span-smooth-and-missing"],
)
def test_verify_float_falsified_certification_fails(tmp_path, qq2_bundle, falsify, named):
    # float mode compares the QQ bundle's certification with the rebuilt
    # one, key by key (None deletes a key)
    data = json.loads(json.dumps(qq2_bundle))
    for key, value in falsify.items():
        if value is None:
            del data["certification"][key]
        else:
            data["certification"][key] = value
    _verify_fails_naming(tmp_path, data, named)


def test_verify_float_checking_no_pair_fails(tmp_path):
    # the quartic of QQ seed 1 has no real point on the sweep grid: a report
    # that checks no (configuration, leg) pair fails
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    run_cli("construct", "infinity", "--seed", "1", "--field", "q", "--out", str(bundle))
    proc = run_cli("verify", str(bundle), "--out", str(report), check=False)
    assert proc.returncode == 1
    out = json.loads(report.read_text())
    assert out["ok"] is False and out["residuals"] == [] and "bundle_mismatch" not in out
    assert "pairs=0" in proc.stdout and "no (configuration, leg) pair checked" in proc.stdout
    assert proc.stdout.rstrip().endswith("FAIL")


def test_construct_duporcq(tmp_path):
    pod = tmp_path / "pod.json"
    pod.write_text(json.dumps(POD))
    out = tmp_path / "sixth.json"
    run_cli("construct", "duporcq", "--legs", str(pod), "--field", "q", "--out", str(out))
    data = json.loads(out.read_text())
    assert data["kind"] == "duporcq_sixth_leg"
    assert len(data["a"]) == 3 and len(data["b"]) == 3


def test_construct_cubic(tmp_path):
    out = tmp_path / "cubic.json"
    run_cli("construct", "cubic", "--seed", "3", "--field", "fp:101", "--out", str(out))
    data = json.loads(out.read_text())
    assert tuple(data["certification"]["leg"]) == (1, 3, 1)
    assert data["symmetroid"]["node_scheme_degree"] <= 4


def test_dual_roundtrip(tmp_path):
    sub = tmp_path / "sub.json"
    sub.write_text(
        json.dumps(
            {
                "field": "q",
                "ambient": ["m11", "m12", "m22", "x1", "x2", "r", "h"],
                "kind": "points",
                "basis": [["1", "0", "0", "0", "0", "0", "0"]],
            }
        )
    )
    out = tmp_path / "dual.json"
    run_cli("dual", "--form", "sbsc_planar7", "--in", str(sub), "--out", str(out))
    data = json.loads(out.read_text())
    assert data["kind"] == "forms"
    assert data["ambient"] == ["z00", "z11", "z22", "s01", "s02", "s12", "l"]
    # B(m11-point, .) = -2 z11
    assert data["basis"] == [["0", "-2", "0", "0", "0", "0", "0"]]


def test_degenerate_seed_exit_code(tmp_path):
    # bound 0 draws all-zero forms: P is identically zero beyond any retry
    proc = run_cli("construct", "infinity", "--seed", "1", "--bound", "0", check=False)
    assert proc.returncode == 3


def test_verify_tampered_bundle_fails(tmp_path):
    bundle = tmp_path / "b.json"
    run_cli("construct", "infinity", "--seed", "7", "--field", "fp:101", "--out", str(bundle))
    data = json.loads(bundle.read_text())
    # replace one cutting form of the leg curve with an unrelated hyperplane
    gens = data["leg_ideal_full"]["generators"]
    for i, g in enumerate(gens):
        if "^" not in g and "l" in g:
            gens[i] = "z00 + 3*z12 + 7*l"
            break
    _verify_fails_naming(tmp_path, data, ["leg_ideal_full"])


@pytest.fixture(scope="module")
def fp_bundles(tmp_path_factory):
    """The GF(101) infinity bundles of seeds 8 and 1, as loaded JSON."""
    tmp = tmp_path_factory.mktemp("bundles")
    out = {}
    for seed in (8, 1):
        path = tmp / f"fp{seed}.json"
        run_cli("construct", "infinity", "--seed", str(seed), "--field", "fp:101", "--out", str(path))
        out[seed] = json.loads(path.read_text())
    return out


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("key", ["seed_forms", "leg_span_points", "config_ideal"])
def test_verify_falsified_entry_fails(tmp_path, fp_bundles, qq2_bundle, key, mode):
    # verify reads no entry beyond kind, field, rng_seed and bound, and
    # compares each other one with the bundle rebuilt from them: the seed's
    # L forms reversed, the leg span without its last point, or the
    # configuration ideal cut down to X_inv's generators each fail, named
    from podforge.fields import field_from_descriptor
    from podforge.models import ideal_X_inv

    data = json.loads(json.dumps(fp_bundles[8] if mode == "exact" else qq2_bundle))
    entry = data[key]
    if key == "seed_forms":
        entry["L"].reverse()
    elif key == "leg_span_points":
        entry.pop()
    else:
        x_inv = [str(g) for g in ideal_X_inv(field_from_descriptor(data["field"])).generators]
        assert entry["generators"][:len(x_inv)] == x_inv
        entry["generators"] = x_inv
    out = _verify_fails_naming(tmp_path, data, [key])
    assert out["mode"] == mode


@pytest.mark.parametrize(
    "change",
    [
        lambda gens: {"field": "fp:103"},
        lambda gens: {"generators": []},
        lambda gens: {"ring": {"vars": ["l"]}, "generators": []},
        lambda gens: {"generators": gens[1:]},
        lambda gens: {"generators": [gens[1], gens[0]] + gens[2:]},
    ],
    ids=["other-field", "no-generators", "one-variable-ring", "minor-dropped", "minors-reordered"],
)
def test_verify_bad_leg_ideal_is_an_input_error(tmp_path, fp_bundles, change):
    # a leg curve over another field, or not in the shape construct writes
    # (ideal_Y's 36 minors in order, then linear forms), differs from the
    # rebuilt bundle: exit 1, not the usage exit of the four inputs
    data = json.loads(json.dumps(fp_bundles[8]))
    data["leg_ideal_full"].update(change(data["leg_ideal_full"]["generators"]))
    _verify_fails_naming(tmp_path, data, ["leg_ideal_full"])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_leg_ideal_sym_not_a_curve_is_an_input_error(tmp_path, fp_bundles, qq2_bundle, mode):
    # both modes slice the rebuilt symmetric leg curve; an empty one in the
    # file differs from it: exit 1, not the usage exit of the four inputs
    data = json.loads(json.dumps(qq2_bundle if mode == "float" else fp_bundles[8]))
    data["leg_ideal_sym"]["generators"] = []
    _verify_fails_naming(tmp_path, data, ["leg_ideal_sym"])


def test_verify_leg_ideal_full_with_a_form_dropped_fails(tmp_path, fp_bundles):
    # Y cut by five of the six forms is a surface, not the rebuilt leg curve
    data = json.loads(json.dumps(fp_bundles[8]))
    del data["leg_ideal_full"]["generators"][-1]
    _verify_fails_naming(tmp_path, data, ["leg_ideal_full"])


@pytest.mark.parametrize(
    "keys",
    [("config_ideal",), ("config_span_forms",), ("config_ideal", "leg_ideal_sym", "config_span_forms")],
    ids=["ideal", "span", "all-three"],
)
def test_verify_bundle_with_another_seeds_configurations_fails(tmp_path, fp_bundles, keys):
    # seed 8's bundle carrying seed 1's configuration ideal or span (or both
    # and its symmetric leg curve): each differs from seed 8's rebuild
    data = dict(fp_bundles[8])
    for key in keys:
        data[key] = fp_bundles[1][key]
    _verify_fails_naming(tmp_path, data, sorted(keys))


def test_verify_bundle_with_another_seeds_symmetric_leg_curve_fails(tmp_path, fp_bundles):
    # seed 8's bundle carrying only seed 1's leg_ideal_sym
    data = dict(fp_bundles[8], leg_ideal_sym=fp_bundles[1]["leg_ideal_sym"])
    _verify_fails_naming(tmp_path, data, ["leg_ideal_sym"])


@pytest.mark.parametrize("seed", [7, 8])
def test_exact_legs_lie_on_the_plain_basis_of_the_full_curve(seed):
    # oracle: a plain Buchberger run on the full leg curve's generators gives
    # the triple of the construction's series, and every
    # exact-mode leg lies on its basis, in (a, b), (b, a) pairs
    import random

    from podforge import verify
    from podforge.constructions import create_infinity_pod
    from podforge.fields import GF
    from podforge.groebner import Ideal, hilbert_data

    bundle = create_infinity_pod(seed, GF(101))
    plain = Ideal(bundle.leg_ideal_full.ring, bundle.leg_ideal_full.generators)
    assert hilbert_data(bundle.leg_ideal_full).triple() == hilbert_data(plain).triple() == (1, 20, 11)
    on_plain = Ideal(plain.ring, plain.groebner_basis())
    legs = verify.exact_legs(bundle, 5, random.Random(0))
    assert len(legs) >= 5 and len(legs) % 2 == 0
    assert all(on_plain.contains_point(pt) for pt in legs)
    for ab, ba in zip(legs[::2], legs[1::2]):
        assert [ab[4 * i + j] for i in range(4) for j in range(4)] == [
            ba[4 * j + i] for i in range(4) for j in range(4)
        ]
        assert ab[16] == ba[16]


def test_bundle_numbers_run_no_buchberger_without_a_series(monkeypatch, tmp_path, fp_bundles, qq2_bundle):
    # the configuration ideal keeps P's certified basis, so claims 4 and 6
    # run no Buchberger on a bundle ideal; and verify, which rebuilds the
    # bundle, makes no run without a series that the construction does not
    from podforge import acceptance, cli, groebner
    from podforge.constructions import create_infinity_pod
    from podforge.fields import GF, QQ

    runs = []
    real = groebner.buchberger

    def recording(ideal, max_steps=None, hilbert=None):
        runs.append((ideal.ring.names, hilbert is None, tuple(map(str, ideal.generators))))
        return real(ideal, max_steps=max_steps, hilbert=hilbert)

    monkeypatch.setattr(groebner, "buchberger", recording)
    for seed, field, data in [(8, GF(101), fp_bundles[8]), (2, QQ, qq2_bundle)]:
        runs.clear()
        bundle = create_infinity_pod(seed, field)
        built = [run for run in runs if run[1]]
        runs.clear()
        assert acceptance._certification_wrong(bundle) is None  # claims 4 and 6
        assert runs == []
        path = tmp_path / "b.json"
        path.write_text(json.dumps(data))
        assert cli.run(["verify", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert runs and [run for run in runs if run[1] and run not in built] == []


@pytest.mark.parametrize(
    "falsify, named",
    [
        ({"leg_sym": [1, 12, 9], "leg_full": [2, 7, 0]}, ["leg_full", "leg_sym"]),
        ({"i_lin_dim": None, "genus": 6}, ["genus", "i_lin_dim"]),
        ({"f_smooth": 1}, ["f_smooth"]),
    ],
    ids=["leg-triples", "missing-and-extra", "json-type"],
)
def test_verify_falsified_certification_fails(tmp_path, fp_bundles, falsify, named):
    # a certification key that is different (as JSON), missing (None here
    # deletes it) or extra fails the report and is named by its own key
    data = json.loads(json.dumps(fp_bundles[8]))
    for key, value in falsify.items():
        if value is None:
            del data["certification"][key]
        else:
            data["certification"][key] = value
    _verify_fails_naming(tmp_path, data, named)


MISSING = object()  # a deleted bundle entry

# the entries of the four that verify reads, each malformed or MISSING, with
# the end of the input error it must exit 2 with
MALFORMED_INPUTS = {
    "seed_string": ("rng_seed", "7", "rng_seed must be an integer, not '7'"),
    "seed_null": ("rng_seed", None, "rng_seed must be an integer, not None"),
    "seed_bool": ("rng_seed", True, "rng_seed must be an integer, not True"),
    "bound_string": ("bound", "x", "bound must be an integer of at least 0, not 'x'"),
    "bound_negative": ("bound", -1, "bound must be an integer of at least 0, not -1"),
    "bound_missing": ("bound", MISSING, "has no 'bound' key"),
    "field_number": ("field", 5, "bad field 5: not a descriptor string"),
}
# any other bundle entry, malformed: it differs from the rebuilt bundle, so
# verify exits 1 and names it
MALFORMED_ENTRIES = {
    "bad_span": ("config_span_forms", [["x"] + ["0"] * 16]),
    "bad_poly": ("config_ideal", {"ring": {"vars": ["l"]}, "generators": ["l + * "]}),
    "bad_field_header": ("config_ideal", {"field": "fp:x", "ring": {"vars": ["l"]}, "generators": []}),
    "repeated_var": ("config_ideal", {"ring": {"vars": ["l", "l"]}, "generators": []}),
    "certification_list": ("certification", [1]),
    "span_not_list": ("config_span_forms", 5),
    "short_vector": ("leg_span_points", [["1"]]),
    "ideal_number": ("config_ideal", 5),
    "generators_number": ("config_ideal", {"ring": {"vars": ["l"]}, "generators": 5}),
    "generator_number": ("config_ideal", {"ring": {"vars": ["l"]}, "generators": [3]}),
    "ideal_field_number": ("config_ideal", {"field": 101, "ring": {"vars": ["l"]}, "generators": []}),
    "vars_number": ("config_ideal", {"ring": {"vars": 5}, "generators": []}),
    "ring_number": ("config_ideal", {"ring": 5, "generators": []}),
    "var_number": ("config_ideal", {"ring": {"vars": [5]}, "generators": []}),
    "weight_string": ("config_ideal", {"ring": {"vars": ["l"], "weights": ["a"]}, "generators": []}),
}


def _write_inputs(tmp_path, bundle=None):
    """The malformed input files, and, given an honest bundle as loaded JSON,
    that bundle with one entry changed for each MALFORMED_INPUTS and
    MALFORMED_ENTRIES case."""
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "no_ambient.json").write_text(
        json.dumps({"field": "q", "kind": "points", "basis": [["1"]]})
    )
    (tmp_path / "unequal.json").write_text(
        json.dumps(dict(POD, lengths_squared=POD["lengths_squared"][:4]))
    )
    (tmp_path / "nonnumeric.json").write_text(
        json.dumps(dict(POD, lengths_squared=["8", "two", "17", "15", "11"]))
    )
    names = ["m11", "m12", "m22", "x1", "x2", "r", "h"]
    (tmp_path / "wrong_ambient.json").write_text(
        json.dumps({"field": "q", "ambient": names[:6], "kind": "points",
                    "basis": [["1", "0", "0", "0", "0", "0"]]})
    )
    (tmp_path / "short_basis.json").write_text(
        json.dumps({"field": "q", "ambient": names, "kind": "points",
                    "basis": [["1", "0", "0"]]})
    )
    equal = {k: [v[0]] * 5 for k, v in POD.items()}
    (tmp_path / "equal_legs.json").write_text(json.dumps(equal))
    (tmp_path / "pod.json").write_text(json.dumps(POD))
    (tmp_path / "field_number_subspace.json").write_text(
        json.dumps({"field": 5, "ambient": names, "kind": "points",
                    "basis": [["1", "0", "0", "0", "0", "0", "0"]]})
    )
    if bundle is None:
        return
    for name, (key, value, *_) in {**MALFORMED_INPUTS, **MALFORMED_ENTRIES}.items():
        data = dict(bundle, **{key: value})
        if value is MISSING:
            del data[key]
        (tmp_path / f"{name}.json").write_text(json.dumps(data))


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "{tmp}/missing.json"],
        ["dual", "--form", "sbsc_planar7", "--in", "{tmp}/missing.json"],
        ["verify", "{tmp}/bad.json"],
        ["verify", "{tmp}/bad_span.json"],
        ["verify", "{tmp}/bad_poly.json"],
        ["verify", "{tmp}/bad_field_header.json"],
        ["verify", "{tmp}/repeated_var.json"],
        ["verify", "{tmp}/seed_string.json"],
        ["verify", "{tmp}/seed_null.json"],
        ["verify", "{tmp}/seed_bool.json"],
        ["verify", "{tmp}/bound_string.json"],
        ["verify", "{tmp}/bound_negative.json"],
        ["verify", "{tmp}/bound_missing.json"],
        ["verify", "{tmp}/certification_list.json"],
        ["verify", "{tmp}/span_not_list.json"],
        ["verify", "{tmp}/short_vector.json"],
        ["verify", "{tmp}/field_number.json"],
        ["verify", "{tmp}/ideal_number.json"],
        ["verify", "{tmp}/generators_number.json"],
        ["verify", "{tmp}/generator_number.json"],
        ["verify", "{tmp}/ideal_field_number.json"],
        ["verify", "{tmp}/vars_number.json"],
        ["verify", "{tmp}/ring_number.json"],
        ["verify", "{tmp}/var_number.json"],
        ["verify", "{tmp}/weight_string.json"],
        ["dual", "--form", "sbsc_planar7", "--in", "{tmp}/bad.json"],
        ["dual", "--form", "sbsc_planar7", "--in", "{tmp}/no_ambient.json"],
        ["construct", "infinity", "--field", "fp:100"],
        ["construct", "infinity", "--field", "fp:2"],
        ["construct", "duporcq", "--field", "q", "--legs", "{tmp}/unequal.json"],
        ["construct", "duporcq", "--field", "q", "--legs", "{tmp}/nonnumeric.json"],
        ["construct", "hexapod", "--field", "q", "--legs", "{tmp}/pod.json"],
        ["dual", "--form", "sbsc_planar7", "--in", "{tmp}/wrong_ambient.json"],
        ["dual", "--form", "sbsc_planar7", "--in", "{tmp}/short_basis.json"],
        ["dual", "--form", "sbsc_planar7", "--in", "{tmp}/field_number_subspace.json"],
        ["construct", "infinity", "--bound", "-1"],
        ["construct", "conic", "--bound", "-1"],
        ["construct", "cubic", "--seed", "3", "--field", "q"],
        ["verify", "{tmp}/pod.json", "--samples", "-40"],
        ["verify", "{tmp}/pod.json", "--tol", "-1"],
        ["verify", "{tmp}/pod.json", "--tol", "inf"],
        ["reproduce", "--tol", "-1"],
        ["reproduce", "--tol", "nan"],
        ["invariants", "--model", "Zinv"],
    ],
    ids=["verify-missing-file", "dual-missing-file", "verify-bad-json", "verify-bad-number",
         "verify-bad-polynomial", "verify-bad-field-header", "verify-repeated-variable",
         "verify-seed-string", "verify-seed-null", "verify-seed-bool", "verify-bound-string",
         "verify-bound-negative", "verify-bound-missing", "verify-certification-list",
         "verify-span-not-list", "verify-short-vector", "verify-field-number",
         "verify-ideal-number", "verify-generators-number", "verify-generator-number",
         "verify-ideal-field-number", "verify-vars-number", "verify-ring-number",
         "verify-var-number", "verify-weight-string",
         "dual-bad-json", "dual-no-ambient", "field-not-prime", "field-two",
         "legs-unequal-lengths", "legs-non-numeric", "legs-wrong-count", "dual-wrong-ambient",
         "dual-short-basis", "dual-field-number", "infinity-bound-negative",
         "conic-bound-negative", "cubic-field-q",
         "verify-samples-negative", "verify-tol-negative", "verify-tol-infinite",
         "reproduce-tol-negative", "reproduce-tol-nan", "invariants-weighted-model"],
)
def test_input_error_exit_code(tmp_path, fp_bundles, args):
    # every malformed input exits with its documented code: 2 with one line
    # of stderr (for MALFORMED_INPUTS, the line it states), except a bundle
    # entry of MALFORMED_ENTRIES, which differs from the rebuilt bundle:
    # exit 1, named
    _write_inputs(tmp_path, fp_bundles[8])
    proc = run_cli(*[a.format(tmp=tmp_path) for a in args], check=False)
    name = Path(args[1]).stem if args[0] == "verify" else None
    if name in MALFORMED_ENTRIES:
        key = MALFORMED_ENTRIES[name][0]
        assert proc.returncode == 1
        assert f"entries differ from the bundle rebuilt from its seed: {[key]}" in proc.stdout
        return
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    if name in MALFORMED_INPUTS:
        assert proc.stderr.rstrip().endswith(MALFORMED_INPUTS[name][2])


def test_special_pentapod_exit_code(tmp_path):
    # five equal legs span a point, not a P^4: a degenerate input, not a crash
    _write_inputs(tmp_path)
    proc = run_cli(
        "construct", "duporcq", "--field", "q", "--legs", str(tmp_path / "equal_legs.json"),
        check=False,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("degenerate input: special pentapod")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
