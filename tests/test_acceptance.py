"""Acceptance gate: every headline claim at its stated tolerance.

Runs the shared reproduction suite once (full mode: 20 infinity-pod seeds,
20 pentapods, 100 involution subspaces per form, 1000 sphere oracles, the
rational real demo) and asserts each claim, printing one line per criterion.
"""

import dataclasses

import pytest

from podforge import acceptance, constructions
from podforge.acceptance import run_all
from podforge.groebner import Ideal

CRITERIA = [
    "1 isometry model dim/deg",
    "2 symmetric leg cone dim/deg",
    "3 planar projections dim/deg",
    "4 infinity-pod certification",
    "5 base anchor curve",
    "6 real demo over Q/float",
    "7 sixth-leg extension",
    "8 cubic construction + symmetroid",
    "9 duality properties",
    "10 planar symmetric cubic cross-check",
]


@pytest.fixture(scope="module")
def results():
    rows = run_all(fast=False)
    print()
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] {r.name}: {r.detail} ({r.seconds:.1f}s)")
    return {r.name: r for r in rows}


@pytest.mark.parametrize("name", CRITERIA)
def test_acceptance_criterion(results, name):
    row = results[name]
    assert row.ok, f"{name}: {row.detail}"


@pytest.mark.parametrize(
    "key, value", [("leg_sym", (1, 12, 9)), ("leg_full", (1, 20, 10)), ("i_lin_dim", 10)]
)
def test_claim6_fails_on_a_wrong_certification(monkeypatch, key, value):
    # claim 6 reads the certification of create_infinity_pod(2, QQ): one
    # wrong value fails it (only claim 6 runs here)
    construct = constructions.create_infinity_pod

    def falsified(*args, **kwargs):
        bundle = construct(*args, **kwargs)
        return dataclasses.replace(bundle, certification={**bundle.certification, key: value})

    claim = acceptance._claim
    monkeypatch.setattr(constructions, "create_infinity_pod", falsified)
    monkeypatch.setattr(acceptance, "_claim", lambda results, name, fn: (
        claim(results, name, fn) if name == "6 real demo over Q/float" else None))
    (row,) = run_all(fast=True)
    assert not row.ok
    assert row.detail.startswith("QQ seed 2: ") and str(value) in row.detail


@pytest.mark.parametrize(
    "name, prefix",
    [("4 infinity-pod certification", "run 0: "), ("6 real demo over Q/float", "QQ seed 2: ")],
)
def test_claims_4_and_6_fail_on_a_singular_quartic(monkeypatch, name, prefix):
    # a bundle whose plane quartic is singular does not certify the paper's
    # curve: f_smooth False alone fails claims 4 and 6 (only that claim runs)
    construct = constructions.create_infinity_pod

    def singular(*args, **kwargs):
        bundle = construct(*args, **kwargs)
        certification = {**bundle.certification, "f_smooth": False}
        return dataclasses.replace(bundle, certification=certification)

    claim = acceptance._claim
    monkeypatch.setattr(constructions, "create_infinity_pod", singular)
    monkeypatch.setattr(acceptance, "_claim", lambda results, claim_name, fn: (
        claim(results, claim_name, fn) if claim_name == name else None))
    (row,) = run_all(fast=True)
    assert not row.ok
    assert row.detail == f"{prefix}the plane quartic F is singular (want f_smooth)"


@pytest.mark.parametrize(
    "name, prefix",
    [("4 infinity-pod certification", "run 0: "), ("6 real demo over Q/float", "QQ seed 2: ")],
)
def test_claims_4_and_6_fail_off_the_configuration_curve(monkeypatch, name, prefix):
    # claims 4 and 6 read the configuration ideal of each bundle: a line in
    # its place, not the curve (1, 8, 3), fails them (only that claim runs here)
    construct = constructions.create_infinity_pod

    def falsified(*args, **kwargs):
        bundle = construct(*args, **kwargs)
        ring = bundle.config_ideal.ring
        return dataclasses.replace(bundle, config_ideal=Ideal(ring, ring.gens()[2:]))

    claim = acceptance._claim
    monkeypatch.setattr(constructions, "create_infinity_pod", falsified)
    monkeypatch.setattr(acceptance, "_claim", lambda results, claim_name, fn: (
        claim(results, claim_name, fn) if claim_name == name else None))
    (row,) = run_all(fast=True)
    assert not row.ok
    assert row.detail == f"{prefix}configuration curve (1, 1, 0) (want (1, 8, 3))"


def test_claim7_redraws_only_special_pentapods(monkeypatch):
    # a special pentapod raises DualityError and is redrawn; any other error
    # is a fault and fails the claim (only claim 7 runs here)
    def broken(legs):
        raise TypeError("unsupported operand")

    claim = acceptance._claim
    monkeypatch.setattr(constructions, "duporcq_sixth_leg", broken)
    monkeypatch.setattr(acceptance, "_claim", lambda results, name, fn: (
        claim(results, name, fn) if name == "7 sixth-leg extension" else None))
    (row,) = run_all(fast=True)
    assert not row.ok
    assert row.detail == "error: unsupported operand"
