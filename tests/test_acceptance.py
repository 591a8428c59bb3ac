"""Acceptance gate: every criterion at its stated trial count and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time

import numpy as np
import pytest

from c0lat import jordan, subspace
from c0lat.blaschke import almost_equiv
from c0lat.jordan import theorem97_verifier
from c0lat.subspace import (
    FiniteLattice,
    Subspace,
    check_distributive_triple,
    equals,
    join,
    lattice_is_modular,
    meet,
)
from c0lat.suites import (
    calculus_suite,
    distributive_suite,
    duality_suite,
    jordan_model_suite,
    lattice_laws_suite,
    meetjoin_suite,
    oracle_latmatch_suite,
    prop14_suite,
    thm97_suite,
    x3_suite,
)

SEED = 20250808


def announce(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_prop14():
    start = time.perf_counter()
    report = prop14_suite(trials=100, seed=SEED, annihilate=1e-7, floor=1e-3)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed <= 10.0
    announce(
        1,
        "symbol annihilates its shift, no maximal divisor does",
        ok,
        f"{len(report.violations)} violations in 100 thetas, "
        f"max residual {report.max_residual:.3g}, {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_meet_join_formulas():
    report = meetjoin_suite(trials=200, seed=SEED, distance=1e-7)
    announce(
        2,
        "divisor-subspace meet/join match lcm/gcd at 1e-7",
        report.passed,
        f"{len(report.violations)} violations in 200 draws, "
        f"max distance {report.max_residual:.3g}",
    )


def test_criterion_03_distributive_exhaustive():
    report = distributive_suite(trials=20, seed=SEED)
    announce(
        3,
        "exhaustive distributivity over enumerated lattices (<= 12 divisors)",
        report.passed,
        f"{len(report.violations)} violations across 20 seeded thetas",
    )


def test_criterion_04_oracle_latmatch():
    report = oracle_latmatch_suite(trials=20, seed=SEED)
    announce(
        4,
        "enumeration matches the brute-force oracle bijectively (8 = 8)",
        report.passed,
        f"{len(report.violations)} mismatches in 20 thetas, "
        f"max matched distance {report.max_residual:.3g}",
    )


def test_criterion_05_thm97():
    start = time.perf_counter()
    report = thm97_suite(
        trials=50,
        seed=SEED,
        triples=100,
        modular=1e-6,
        intertwine=1e-8,
        preimage=1e-7,
    )
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed <= 60.0
    announce(
        5,
        "modular law plus sum-map proof objects on 50 C0 matrices x 100 triples",
        ok,
        f"{len(report.violations)} violations in {report.trials} triples, "
        f"max residual {report.max_residual:.3g}, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_06_non_vacuity():
    l = Subspace.from_span(np.array([[1.0], [0.0]]))
    m = Subspace.from_span(np.array([[0.0], [1.0]]))
    n = Subspace.from_span(np.array([[1.0], [1.0]]))
    verdict = check_distributive_triple(l, m, n)
    found_violation = not verdict.passed
    left_is_l = equals(meet(l, join(m, n)), l)
    right_is_zero = join(meet(l, m), meet(l, n)).dim == 0
    pentagon = lattice_is_modular(FiniteLattice.pentagon())
    ok = (
        found_violation
        and left_is_l
        and right_is_zero
        and not pentagon.passed
        and pentagon.witness is not None
    )
    announce(
        6,
        "checkers are non-vacuous (generic lines fail; pentagon rejected with witness)",
        ok,
        f"three-lines verdict={verdict.passed} (left=L: {left_is_l}, right=0: {right_is_zero}), "
        f"pentagon witness={pentagon.witness}",
    )


def test_criterion_07_x3_transfer():
    report = x3_suite(trials=20, seed=SEED, triples=50, transfer=1e-6)
    announce(
        7,
        "onto-instance, product identity, and modularity transfer along Y",
        report.passed,
        f"{len(report.violations)} violations in {report.trials} sampled triples, "
        f"max residual {report.max_residual:.3g}",
    )


def test_criterion_08_jordan_models():
    report = jordan_model_suite(trials=50, seed=SEED, certificate=1e-7)
    announce(
        8,
        "Jordan models: chain, minimal-function head, certificates, uniqueness",
        report.passed,
        f"{len(report.violations)} violations in 50 matrices, "
        f"max certificate residual {report.max_residual:.3g}",
    )


def test_criterion_09_calculus():
    report = calculus_suite(
        trials=200,
        seed=SEED,
        multiplicative=1e-8,
        contractive=1e-8,
        radial=1e-2,
    )
    announce(
        9,
        "calculus multiplicativity/contractivity and the radial limit",
        report.passed,
        f"{len(report.violations)} violations in 200 draws, "
        f"max multiplicativity residual {report.max_residual:.3g}",
    )


def test_criterion_10_duality():
    report = duality_suite(trials=20, seed=SEED, samples=15)
    announce(
        10,
        "X_* surjectivity evidence agrees with adjoint injectivity evidence",
        report.passed,
        f"{len(report.violations)} disagreements in 20 constructed intertwiners",
    )


def test_supporting_lattice_laws():
    # not numbered in the gate, but the arithmetic layer everything rests on
    report = lattice_laws_suite(trials=100, seed=SEED)
    announce(
        0,
        "inner-function lattice laws (supporting)",
        report.passed,
        f"{len(report.violations)} violations in 100 triples",
    )


def test_theorem97_chain_triples_exact():
    # chain triples M3 <= M2 <= M1 must pass exactly; cheap spot check on a
    # diagonal C0 matrix whose lattice is the coordinate one
    t = np.diag([0.1, -0.2, 0.3j]).astype(complex)
    report = theorem97_verifier(t, triples=20, seed=SEED)
    announce(
        0,
        "chain triples pass exactly (supporting)",
        report.passed and report.max_residual <= 1e-8,
        f"max residual {report.max_residual:.3g}",
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_modular_gates_catch_a_planted_meet_fault(monkeypatch):
    # a meet that returns its smaller argument is wrong on any two
    # incomparable members, but the pools behind criteria 5 and 7 are
    # chains, so both gates pass it with no violation
    def smaller(a, b):
        return a if a.dim <= b.dim else b

    monkeypatch.setattr(jordan, "meet", smaller)
    monkeypatch.setattr(subspace, "meet", smaller)
    thm97 = thm97_suite(trials=50, seed=SEED, triples=100)
    x3 = x3_suite(trials=20, seed=SEED, triples=50)
    assert not thm97.passed and not x3.passed
