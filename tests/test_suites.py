"""Suite machinery: the divisor-indexed distributive suite, the shared
lattice-law checker, thm97's input-file path, the per-trial tally, the
keyed trial streams and planted faults for the proof-object checks."""

import itertools
from itertools import permutations

import numpy as np
import pytest

from c0lat import blaschke, jordan, subspace, suites
from c0lat.blaschke import BlaschkeProduct
from c0lat.calculus import VerificationError
from c0lat.jordan import theorem97_verifier
from c0lat.modelspace import enumerate_lattice
from c0lat.sampling import certifiable_c0, maximality_floor
from c0lat.serialize import stable_json_bytes
from c0lat.subspace import FiniteLattice, Subspace, law_failures

# 3 * 2 * 2 = 12 divisors
THETA_12 = BlaschkeProduct(((0.3 + 0j, 2), (-0.2 + 0.4j, 1), (0.1 - 0.5j, 1)))


def test_distributive_meet_must_land_on_its_lcm_member(monkeypatch):
    # join for meet still lands on members of the lattice (the gcd ones), and
    # the resulting tables are distributive, so only the lcm check catches
    # it: the kernel reads the join's dimension as the meet's
    meet_counts = subspace._meet_counts

    def join_dimension(a, b):
        return a.shape[-1] + b.shape[-1] - meet_counts(a, b)

    monkeypatch.setattr(subspace, "_meet_counts", join_dimension)
    report = suites.distributive_suite(trials=1, inputs=(THETA_12,))
    assert [v.kind for v in report.violations] == ["closure"]


def test_distributive_catches_a_meet_onto_its_smaller_argument(monkeypatch):
    # the fault the modular gates miss (test_acceptance): a meet that returns
    # its argument of smaller dimension, planted where the kernel reads
    # dim(A ∧ B); THETA_12 has incomparable members of nonzero dimension
    def smaller(a, b):
        return np.full(len(b), min(a.shape[-1], b.shape[-1]))

    monkeypatch.setattr(subspace, "_meet_counts", smaller)
    report = suites.distributive_suite(trials=1, inputs=(THETA_12,))
    assert [v.kind for v in report.violations] == ["closure"]


@pytest.mark.parametrize("d", [1e-4, 1e-5, 1e-6, 1e-7])
def test_close_zeros_meet_on_their_lcm_members(d):
    # 0.5 and 0.5 + d are pseudo-hyperbolically about 1.3 d apart, the sine
    # of the smallest nonzero principal angle between divisor subspaces.  A
    # meet from the SVD of the cosine matrix missed the lcm member by about
    # eps / d^2 (4.4e-2 at d = 1e-7) and distributive reported a closure
    # violation from d = 1e-5 on; the sines of the projection residual miss
    # it by about eps / d.
    theta = BlaschkeProduct(((0.5, 1), (0.5 + d, 1), (-0.3 + 0.2j, 1)))
    assert suites.distributive_suite(trials=1, inputs=(theta,)).passed
    entries = enumerate_lattice(theta)
    index = {phi.zeros: k for k, (phi, _) in enumerate(entries)}
    for phi, a in entries:
        for psi, b in entries:
            m = subspace.meet(a, b)
            gram = m.basis.conj().T @ m.basis
            assert np.max(np.abs(gram - np.eye(m.dim)), initial=0.0) <= subspace.TOL_ORTHO
            assert subspace.distance(m, entries[index[blaschke.lcm(phi, psi).zeros]][1]) <= 1e-8


CLOSE_ZERO_TAILS = [(), ((-0.3 + 0.2j, 1),), ((-0.3 + 0.2j, 1), (0.1 - 0.6j, 2))]


@pytest.mark.parametrize("tail", CLOSE_ZERO_TAILS, ids=["pair", "three", "five"])
def test_close_zeros_pass_or_are_refused_never_violated(tail):
    # theta = b(0.5) b(0.5 + d) times a tail, with d across the band around
    # TOL_EQUALS: each theta passes both lattice suites, or its zeros'
    # maximality floor is below 2 TOL_EQUALS and both refuse it before the
    # first trial; none reports a violation
    outcomes = []
    for d in [1e-6, 1e-7, 4e-8, 2e-8, 1e-8, 3e-9, 1e-9, 1e-10]:
        theta = BlaschkeProduct(((0.5 + 0j, 1), (0.5 + d + 0j, 1)) + tail)
        refused = maximality_floor(theta.zeros) < 2 * subspace.TOL_EQUALS
        for suite, trials in ((suites.distributive_suite, 1), (suites.meetjoin_suite, 20)):
            if refused:
                with pytest.raises(VerificationError, match="input 1 has zero separation"):
                    suite(trials=trials, inputs=(theta,))
            else:
                report = suite(trials=trials, inputs=(theta,))
                assert report.passed, (d, report.violations[:1])
        outcomes.append(refused)
    assert outcomes == sorted(outcomes) and 0 < sum(outcomes) < len(outcomes)


def test_unstructured_certifiable_c0_names_its_size_and_floor_at_twelve():
    # n eigenvalues of a random contraction within radius 0.8 leave the
    # maximality floor below 3e-3 from n = 10 on; structured draws still work
    with pytest.raises(RuntimeError, match=r"spectrum of size 12 \(maximality floor 3e-3\)"):
        certifiable_c0(np.random.default_rng(12), 12)
    assert certifiable_c0(np.random.default_rng(12), 12, structured=True).shape == (12, 12)


def test_distributive_reads_lcm_and_gcd_from_exponent_vectors(monkeypatch):
    def unused(*args):
        raise AssertionError("distributive called Blaschke arithmetic")

    report = suites.distributive_suite(trials=1, inputs=(THETA_12,))
    monkeypatch.setattr(blaschke, "lcm", unused)
    monkeypatch.setattr(blaschke, "gcd", unused)
    assert suites.distributive_suite(trials=1, inputs=(THETA_12,)) == report


def test_divisor_lattice_builds_on_validated_products_without_validating_again(monkeypatch):
    # divisors, divide and divisor_subspace build sub-multisets of theta's
    # validated zeros, so neither the enumeration nor the suite coerces a zero
    def unused(zeros):
        raise AssertionError("validated a sub-multiset of theta's zeros again")

    entries = enumerate_lattice(THETA_12)
    report = suites.distributive_suite(trials=1, inputs=(THETA_12,))
    monkeypatch.setattr(blaschke, "_coerce_zeros", unused)
    again = enumerate_lattice(THETA_12)
    assert [phi for phi, _ in again] == [phi for phi, _ in entries]
    assert all(np.array_equal(a.basis, b.basis) for (_, a), (_, b) in zip(again, entries))
    assert suites.distributive_suite(trials=1, inputs=(THETA_12,)) == report
    assert report.passed


def test_distributive_checks_each_meet_and_join_once(monkeypatch):
    calls, met, orders, insides = [], [], [], []
    meet_counts, order, stacked_insides = subspace._meet_counts, subspace._order, subspace._insides

    def recording(members, rows, cols, lo, hi):
        calls.append((members, rows, cols, lo, hi))
        return subspace.meet_join_verdicts(members, rows, cols, lo, hi)

    def meeting(a, b):
        met.extend(zip(a, b))
        return meet_counts(a, b)

    def ordering(stacked, asked):
        orders.append([(e, a) for below, above in asked for e, a in zip(below.tolist(), above.tolist())])
        return order(stacked, asked)

    def counting(resid):
        insides.append(len(resid))
        return stacked_insides(resid)

    monkeypatch.setattr(suites, "meet_join_verdicts", recording)
    monkeypatch.setattr(subspace, "_meet_counts", meeting)
    monkeypatch.setattr(subspace, "_order", ordering)
    monkeypatch.setattr(subspace, "_insides", counting)
    report = suites.distributive_suite(trials=1, inputs=(THETA_12,))
    count = blaschke.divisor_count(THETA_12)
    assert report.passed and count == 12
    # one call over the count * (count + 1) / 2 pairs a <= b, each once
    [(members, rows, cols, lo, hi)] = calls
    pairs = list(zip(rows.tolist(), cols.tolist()))
    assert sorted(pairs) == [(a, b) for a in range(count) for b in range(a, count)]
    # the labels are the members that Blaschke lcm and gcd name
    entries = enumerate_lattice(THETA_12)
    index = {phi.zeros: k for k, (phi, _) in enumerate(entries)}
    for (a, b), m, j in zip(pairs, lo, hi):
        (phi, _), (psi, _) = entries[a], entries[b]
        assert (m, j) == (index[blaschke.lcm(phi, psi).zeros], index[blaschke.gcd(phi, psi).zeros])
    # one meet count for each pair of nonzero members, and none for a pair
    # with the zero member
    dims = [m.dim for m in members]
    owner = {m.basis.tobytes(): k for k, m in enumerate(members)}
    assert sorted((owner[a.tobytes()], owner[b.tobytes()]) for a, b in met) == sorted(
        (a, b) for a, b in pairs if dims[a] and dims[b]
    )
    # one order call asks E <= A, E <= B, A <= F and B <= F for every pair,
    # and each distinct containment of a nonzero member in a member of no
    # smaller dimension takes one residual
    [asked] = orders
    wanted = [(e, a) for (a, b), e in zip(pairs, lo.tolist()) for a in (a, b)]
    wanted += [(a, f) for (a, b), f in zip(pairs, hi.tolist()) for a in (a, b)]
    assert sorted(asked) == sorted(wanted)
    assert sum(insides) == len({(e, a) for e, a in asked if 0 < dims[e] <= dims[a]})


def test_distributive_builds_no_subspace_per_pair(monkeypatch):
    built = []
    trusted = subspace.Subspace._trusted.__func__

    def counting(cls, ambient_dim, basis):
        built.append(ambient_dim)
        return trusted(cls, ambient_dim, basis)

    monkeypatch.setattr(subspace.Subspace, "_trusted", classmethod(counting))
    assert suites.distributive_suite(trials=1, inputs=(THETA_12,)).passed
    # the divisor subspaces themselves; the 78 pairs add none
    assert len(built) <= 2 * blaschke.divisor_count(THETA_12)


def test_law_failures_lists_every_failing_triple_in_row_major_order():
    m3 = FiniteLattice.diamond()  # 0, three atoms 1..3, top 4
    failures = list(law_failures(m3._meet, m3._join))
    # a ∧ (b ∨ c) = a but (a ∧ b) ∨ (a ∧ c) = 0 for distinct atoms
    assert failures == [(l, m, n, l, 0) for l, m, n in permutations((1, 2, 3))]
    assert list(law_failures(m3._meet, m3._join, m3.leq)) == []
    pentagon = FiniteLattice.pentagon()
    first = next(law_failures(pentagon._meet, pentagon._join, pentagon.leq))
    assert subspace.lattice_is_modular(pentagon).witness["triple"] == first[:3]


@pytest.mark.parametrize("tols", [{}, {"modular": 1e-16}])
def test_thm97_inputs_run_one_verifier_call_per_matrix(tols):
    rng = np.random.default_rng(11)
    a, b = certifiable_c0(rng, 4, derogatory=False), certifiable_c0(rng, 5, derogatory=False)
    report = suites.thm97_suite(inputs=(a, b), trials=6, seed=7, **tols)
    inner = {f"tol_{name}": value for name, value in tols.items()}
    # file k is trial k: its inner seed is the first draw of stream (7, suite, k)
    key = int.from_bytes(b"modular-thm97", "little")
    seeds = [suites._inner_seed(np.random.default_rng([7, key, k])) for k in (0, 1)]
    parts = [theorem97_verifier(a, 6, seeds[0], **inner), theorem97_verifier(b, 6, seeds[1], **inner)]
    assert (report.suite, report.seed, report.trials) == ("modular-thm97", 7, 12)
    # in input order and untagged: each violation keeps its own triple index
    assert report.violations == parts[0].violations + parts[1].violations
    assert report.max_residual == max(p.max_residual for p in parts)
    if tols:
        assert all(p.violations for p in parts)


def test_flagged_residuals_are_not_folded_into_the_maximum():
    # a contraction always breaks contractive=-1 and every divisor norm
    # sits below floor=2; neither bound is a residual tolerance
    calculus = suites.calculus_suite(trials=20, contractive=-1)
    prop14 = suites.prop14_suite(trials=10, floor=2)
    for report, kind in ((calculus, "contractivity"), (prop14, "maximality")):
        flagged = [v.residual for v in report.violations if v.kind == kind]
        assert flagged and min(flagged) > report.max_residual


def test_inner_violations_carry_the_outer_trial():
    report = suites.thm97_suite(trials=3, modular=1e-16)
    assert report.violations
    for v in report.violations:
        assert 0 <= v.trial < 3 and "inner_trial" in v.witness


def test_threaded_trials_give_the_serial_bytes(monkeypatch):
    def report_bytes():
        report = suites.calculus_suite(trials=30, seed=4, contractive=-1)
        assert report.violations
        return stable_json_bytes(report.to_json_dict())

    monkeypatch.setenv("C0LAT_THREADS", "1")
    serial = report_bytes()
    monkeypatch.setenv("C0LAT_THREADS", "2")
    assert report_bytes() == serial


# per suite: a run at a given seed, the suites-module call that each trial
# hands its instance to, how often a trial makes that call, and the
# (instance, inner seed) the call receives or returns
STREAM_PROBES = {
    "prop14": (lambda seed: suites.prop14_suite(trials=10, seed=seed),
               "compressed_shift", 1, lambda args, kwargs, result: (args[0], None)),
    "calculus": (lambda seed: suites.calculus_suite(trials=10, seed=seed),
                 "random_contraction", 1, lambda args, kwargs, result: (result, None)),
    "modular-thm97": (lambda seed: suites.thm97_suite(trials=10, seed=seed, triples=2),
                      "theorem97_verifier", 1, lambda args, kwargs, result: (args[0], args[2])),
    "x3-transfer": (lambda seed: suites.x3_suite(trials=10, seed=seed, triples=2),
                    "theorem_x3_verifier", 1, lambda args, kwargs, result: (args[0], kwargs["seed"])),
    "duality": (lambda seed: suites.duality_suite(trials=10, seed=seed, samples=3),
                "check_lattice_isomorphism", 1, lambda args, kwargs, result: (args[1], kwargs["seed"])),
    # the forward certificate (T, model operator) comes first
    "jordan-model": (lambda seed: suites.jordan_model_suite(trials=10, seed=seed),
                     "find_quasiaffinity", 2, lambda args, kwargs, result: (args[0], kwargs["seed"])),
}


@pytest.mark.parametrize("suite", list(STREAM_PROBES))
def test_each_seed_and_trial_draws_its_own_instance_and_inner_seeds(monkeypatch, suite):
    # trial i of seed s used to draw from default_rng(s + i), so seed 8
    # replayed seed 7's trial i + 1; keyed by (seed, suite, trial), no two
    # pairs share a first instance or a seed handed to a library call
    run, name, per_trial, read = STREAM_PROBES[suite]
    real, records = getattr(suites, name), []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        records.append(read(args, kwargs, result))
        return result

    monkeypatch.delenv("C0LAT_THREADS", raising=False)
    monkeypatch.setattr(suites, name, recording)
    instances, seeds = set(), set()
    for seed in (7, 8, 9):
        records.clear()
        assert run(seed).passed
        assert len(records) == 10 * per_trial
        for i in range(10):
            trial = records[i * per_trial:(i + 1) * per_trial]
            first = trial[0][0]
            instances.add(first.tobytes() if isinstance(first, np.ndarray) else repr(first))
            inner = {s for _, s in trial if s is not None}
            assert not inner & seeds, (seed, i)
            seeds |= inner
    assert len(instances) == 30


def _alternate(real, fault, parity):
    """``fault`` on the calls whose index has ``parity``, ``real`` on the others."""
    calls = itertools.count()
    return lambda *args, **kwargs: (fault if next(calls) % 2 == parity else real)(*args, **kwargs)


def _unequal_sides(l, m, n, joined=None, lm=None):
    """``_modular`` with its right side moved off its left side."""
    inter, _, joined, lm = subspace._modular(l, m, n, joined, lm)
    k = inter.ambient_dim
    return inter, Subspace.zero(k) if inter.dim else Subspace.full(k), joined, lm


def _duality(seed):
    return suites.duality_suite(trials=2, seed=seed, samples=6)


def _jordan_models(seed):
    return suites.jordan_model_suite(trials=1, seed=seed)


def _oracle_matches(seed):
    return suites.oracle_latmatch_suite(trials=2, seed=seed)


def _calculus(seed):
    return suites.calculus_suite(trials=2, seed=seed)


# per violation kind: the trial it must first appear in, the suite run, the
# patched kernel and the fault planted there, made from the real kernel.
# duality trial 0 is full rank and trial 1 deficient; jordan-model makes
# its forward certificate call before its backward one, and x3 builds the
# T1 side of the modular law before the T2 side.  jordan-model has no
# divisibility-chain kind: JordanModel's constructor checks the chain with
# blaschke.divides and raises instead.
PLANTED = {
    "deficient-evidence": (1, _duality, (jordan, "_surjectivity_evidence"),
                           lambda real: lambda *a: (1.0, 0.0)),
    "full-rank-evidence": (0, _duality, (jordan, "_injectivity_evidence"),
                           lambda real: lambda *a: (0.5, 1)),
    "duality-agreement": (0, _duality, (jordan, "_surjectivity_evidence"),
                          lambda real: lambda *a: (0.5, 0.0)),
    "head-minimal-function": (0, _jordan_models, (suites, "minimal_function"),
                              lambda real: lambda t: blaschke.multiply(real(t), blaschke.monomial(1))),
    "certificate-forward": (0, _jordan_models, (suites, "find_quasiaffinity"),
                            lambda real: _alternate(real, lambda *a, **k: None, 0)),
    "certificate-backward": (0, _jordan_models, (suites, "find_quasiaffinity"),
                             lambda real: _alternate(real, lambda *a, **k: None, 1)),
    "similarity-invariance": (0, _jordan_models, (blaschke, "almost_equiv"),
                              lambda real: lambda *a: False),
    "sum-map-range": (0, lambda seed: suites.thm97_suite(trials=1, seed=seed, triples=5),
                      (jordan, "_rank"), lambda real: lambda s: real(s) - 1),
    "transfer": (0, lambda seed: suites.x3_suite(trials=1, seed=seed, triples=5),
                 (jordan, "_modular"), lambda real: _alternate(real, _unequal_sides, 1)),
    "absorption": (0, lambda seed: suites.lattice_laws_suite(trials=2, seed=seed),
                   (blaschke, "gcd"), lambda real: lambda b1, b2: BlaschkeProduct(())),
    "inclusion-reversal": (0, lambda seed: suites.meetjoin_suite(trials=2, seed=seed),
                           (suites, "contains"), lambda real: lambda a, b: not real(a, b)),
    "count-mismatch": (0, _oracle_matches, (suites, "brute_force_lat"),
                       lambda real: lambda t: real(t)[1:]),
    "unmatched-subspace": (0, _oracle_matches, (suites, "brute_force_lat"),
                           lambda real: lambda t: real(t)[:-1] + [Subspace.zero(len(t))]),
    "radial-limit": (0, _calculus, (suites, "radial_validate"),
                     lambda real: lambda *a: [r + 1.0 for r in real(*a)]),
    "radial-monotone": (0, _calculus, (suites, "radial_validate"),
                        lambda real: lambda *a: real(*a)[::-1]),
}


@pytest.mark.parametrize("kind", list(PLANTED))
def test_a_planted_fault_is_flagged_in_its_trial_and_replays(monkeypatch, kind):
    trial, run, (module, name), plant = PLANTED[kind]
    assert run(3).passed
    real = getattr(module, name)
    payloads = []
    for _ in range(2):
        monkeypatch.setattr(module, name, plant(real))
        report = run(3)
        first = next((v for v in report.violations if v.kind == kind), None)
        assert first is not None and first.trial == trial, report.violations[:3]
        payloads.append(stable_json_bytes(report.to_json_dict()))
    assert payloads[0] == payloads[1]
