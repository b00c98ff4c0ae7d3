"""CLI surface: subcommands, file formats, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys

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
    from podforge.groebner import ideal_from_json

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
        ("X", "83ccf426e339ea7e5496f62f3eba9ea31930de20f488968cf13a12b9d4fa5092"),
        ("Xinv", "689cf2075ed9f3c0759efc44f59cc69f267e3b6f5ed93ce43139a97feec3fa49"),
        ("Xp", "b08ccee427060e19dd2de89acb06647edd48b83cd7bbe6d2611364edd70b28df"),
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
        ("conic", 1, "4bc4304a0be79c59579e77057a4078e4790acbf419a0a384c413927562be8b57"),
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
        "verify", str(bundle), "--mode", "exact", "--samples", "25", "--seed", "0",
        "--out", str(report),
    )
    assert proc.returncode == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True
    assert all(r["ok"] for r in data["residuals"])
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "08de8ad4117c4c8d62f38cb0727a4e61cdcfb14f12d6ceab093b26d6a137196f"
    )


@pytest.fixture(scope="module")
def qq2_bundle(tmp_path_factory):
    """The QQ infinity bundle of seed 2, as loaded JSON."""
    path = tmp_path_factory.mktemp("bundles") / "qq2.json"
    run_cli("construct", "infinity", "--seed", "2", "--field", "q", "--out", str(path))
    return json.loads(path.read_text())


def test_construct_then_verify_float(tmp_path, qq2_bundle):
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle.write_text(json.dumps(qq2_bundle))
    proc = run_cli("verify", str(bundle), "--mode", "float", "--out", str(report))
    assert proc.returncode == 0
    assert json.loads(report.read_text())["ok"] is True


def test_verify_float_reads_seed(tmp_path, qq2_bundle):
    # float mode draws its leg slices from --seed: the report is the one of
    # real_legs(bundle, n, random.Random(seed))
    import random

    from podforge import verify
    from podforge.cli import _bundle_from_json

    bundle_path = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle_path.write_text(json.dumps(qq2_bundle))
    run_cli("verify", str(bundle_path), "--mode", "float", "--seed", "3", "--out", str(report))
    bundle = _bundle_from_json(json.loads(bundle_path.read_text()))
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
        ({"i_lin_dim": 10, "f_smooth": False, "leg_full": None}, ["f_smooth", "i_lin_dim", "leg_full"]),
    ],
    ids=["leg-sym", "span-smooth-and-missing"],
)
def test_verify_float_falsified_certification_fails(tmp_path, qq2_bundle, falsify, named):
    # float mode recomputes leg_sym, i_lin_dim and f_smooth from the QQ
    # bundle and echoes leg_full, which must still be there (None deletes)
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    data = json.loads(json.dumps(qq2_bundle))
    for key, value in falsify.items():
        if value is None:
            del data["certification"][key]
        else:
            data["certification"][key] = value
    bundle.write_text(json.dumps(data))
    proc = run_cli("verify", str(bundle), "--mode", "float", "--out", str(report), check=False)
    assert proc.returncode == 1
    out = json.loads(report.read_text())
    assert out["ok"] is False and out["certification_mismatch"] == named
    assert all(r["ok"] for r in out["residuals"])
    assert f"certification differs from the bundle's ideals and seed: {named}" in proc.stdout
    assert proc.stdout.rstrip().endswith("FAIL")


def test_verify_float_on_finite_field_bundle_usage_error(tmp_path):
    bundle = tmp_path / "b.json"
    run_cli("construct", "infinity", "--seed", "1", "--field", "fp:101", "--out", str(bundle))
    proc = run_cli("verify", str(bundle), "--mode", "float", check=False)
    assert proc.returncode == 2
    assert proc.stderr == "float verification runs over a rational bundle\n"


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
    proc = run_cli(
        "construct", "infinity", "--seed", "1", "--bound", "0", "--retries", "1",
        check=False,
    )
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
    bundle.write_text(json.dumps(data))
    proc = run_cli("verify", str(bundle), "--mode", "exact", check=False)
    assert proc.returncode == 1


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


@pytest.mark.parametrize(
    "change",
    [{"field": "fp:103"}, {"generators": []}, {"ring": {"vars": ["l"]}, "generators": []}],
    ids=["other-field", "no-generators", "one-variable-ring"],
)
def test_verify_bad_leg_ideal_is_an_input_error(tmp_path, fp_bundles, change):
    # a well-typed bundle whose leg curve is over another field, or no curve
    data = json.loads(json.dumps(fp_bundles[8]))
    data["leg_ideal_full"].update(change)
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps(data))
    proc = run_cli("verify", str(bundle), "--mode", "exact", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "keys",
    [("config_ideal",), ("config_span_forms",), ("config_ideal", "leg_ideal_sym", "config_span_forms")],
    ids=["ideal", "span", "all-three"],
)
def test_verify_bundle_with_another_seeds_configurations_fails(tmp_path, fp_bundles, keys):
    # seed 8's bundle carrying seed 1's configuration ideal or span (or both
    # and its symmetric leg curve): seed 8's configurations are off them
    data = dict(fp_bundles[8])
    for key in keys:
        data[key] = fp_bundles[1][key]
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle.write_text(json.dumps(data))
    proc = run_cli("verify", str(bundle), "--mode", "exact", "--out", str(report), check=False)
    assert proc.returncode == 1
    out = json.loads(report.read_text())
    assert out["ok"] is False and out["configs_off_bundle"]
    assert ("legs_off_bundle" in out) == ("leg_ideal_sym" in keys)
    assert all(r["ok"] for r in out["residuals"])  # the leg curve is seed 8's own
    assert proc.stdout.rstrip().endswith("FAIL")


def test_verify_bundle_with_another_seeds_symmetric_leg_curve_fails(tmp_path, fp_bundles):
    # seed 8's bundle carrying only seed 1's leg_ideal_sym: seed 8's legs,
    # pushed along pi, are off it
    data = dict(fp_bundles[8], leg_ideal_sym=fp_bundles[1]["leg_ideal_sym"])
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle.write_text(json.dumps(data))
    proc = run_cli("verify", str(bundle), "--mode", "exact", "--out", str(report), check=False)
    assert proc.returncode == 1
    out = json.loads(report.read_text())
    assert out["ok"] is False and out["legs_off_bundle"] and "configs_off_bundle" not in out
    assert all(r["ok"] for r in out["residuals"])
    assert "legs off leg_ideal_sym" in proc.stdout and proc.stdout.rstrip().endswith("FAIL")


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
    # verify recomputes the certification it prints from the bundle's ideals,
    # span and seed: a key that is different (as JSON), missing (None here
    # deletes it) or extra fails the report and is named
    data = json.loads(json.dumps(fp_bundles[8]))
    for key, value in falsify.items():
        if value is None:
            del data["certification"][key]
        else:
            data["certification"][key] = value
    bundle = tmp_path / "b.json"
    report = tmp_path / "r.json"
    bundle.write_text(json.dumps(data))
    proc = run_cli("verify", str(bundle), "--mode", "exact", "--out", str(report), check=False)
    assert proc.returncode == 1
    out = json.loads(report.read_text())
    assert out["ok"] is False and out["certification_mismatch"] == named
    assert "configs_off_bundle" not in out and "legs_off_bundle" not in out
    assert all(r["ok"] for r in out["residuals"])
    assert f"certification differs from the bundle's ideals and seed: {named}" in proc.stdout
    assert proc.stdout.rstrip().endswith("FAIL")


def _write_inputs(tmp_path):
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
    empty = {"ring": {"vars": ["l"]}, "generators": []}
    (tmp_path / "bad_poly.json").write_text(json.dumps({
        "kind": "infinity", "field": "fp:101", "rng_seed": 1,
        "config_ideal": {"ring": {"vars": ["l"]}, "generators": ["l + * "]},
        "leg_ideal_full": empty, "leg_ideal_sym": empty,
        "config_span_forms": [], "leg_span_points": [],
    }))
    for name, header in [("bad_field_header", {"field": "fp:x", "ring": {"vars": ["l"]}}),
                         ("repeated_var", {"ring": {"vars": ["l", "l"]}})]:
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "kind": "infinity", "field": "fp:101", "rng_seed": 1,
            "config_ideal": dict(header, generators=[]),
            "leg_ideal_full": empty, "leg_ideal_sym": empty,
            "config_span_forms": [], "leg_span_points": [],
        }))
    bundle = {
        "kind": "infinity", "field": "fp:101", "rng_seed": 1, "config_ideal": empty,
        "leg_ideal_full": empty, "leg_ideal_sym": empty,
        "config_span_forms": [], "leg_span_points": [],
    }
    for name, key, value in [
        ("bad_span", "config_span_forms", [["x"] + ["0"] * 16]),
        ("seed_string", "rng_seed", "7"),
        ("seed_null", "rng_seed", None),
        ("seed_bool", "rng_seed", True),
        ("bound_string", "bound", "x"),
        ("bound_negative", "bound", -1),
        ("certification_list", "certification", [1]),
        ("span_not_list", "config_span_forms", 5),
        ("short_vector", "leg_span_points", [["1"]]),
        ("field_number", "field", 5),
        ("ideal_number", "config_ideal", 5),
        ("generators_number", "config_ideal", {"ring": {"vars": ["l"]}, "generators": 5}),
        ("generator_number", "config_ideal", {"ring": {"vars": ["l"]}, "generators": [3]}),
        ("ideal_field_number", "config_ideal", {"field": 101, "ring": {"vars": ["l"]}, "generators": []}),
        ("vars_number", "config_ideal", {"ring": {"vars": 5}, "generators": []}),
        ("ring_number", "config_ideal", {"ring": 5, "generators": []}),
        ("var_number", "config_ideal", {"ring": {"vars": [5]}, "generators": []}),
        ("weight_string", "config_ideal", {"ring": {"vars": ["l"], "weights": ["a"]}, "generators": []}),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(bundle, **{key: value})))


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
        ["construct", "infinity", "--retries", "-1"],
        ["construct", "cubic", "--retries", "-1"],
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
         "verify-bound-negative", "verify-certification-list",
         "verify-span-not-list", "verify-short-vector", "verify-field-number",
         "verify-ideal-number", "verify-generators-number", "verify-generator-number",
         "verify-ideal-field-number", "verify-vars-number", "verify-ring-number",
         "verify-var-number", "verify-weight-string",
         "dual-bad-json", "dual-no-ambient", "field-not-prime", "field-two",
         "legs-unequal-lengths", "legs-non-numeric", "legs-wrong-count", "dual-wrong-ambient",
         "dual-short-basis", "dual-field-number", "infinity-bound-negative",
         "conic-bound-negative", "infinity-retries-negative", "cubic-retries-negative",
         "verify-samples-negative", "verify-tol-negative", "verify-tol-infinite",
         "reproduce-tol-negative", "reproduce-tol-nan", "invariants-weighted-model"],
)
def test_input_error_exit_code(tmp_path, args):
    _write_inputs(tmp_path)
    proc = run_cli(*[a.format(tmp=tmp_path) for a in args], check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


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
