"""Named verification suites: seeded, reproducible, and shared between the
command line and the acceptance tests.

Each suite hands a trial function ``trial(i, rng, tally)`` to
``_run_trials``, which owns the seed policy: trial i of suite S draws
from ``default_rng([seed, key, i])``, key the integer whose little-endian
bytes spell S, so a new seed draws new instances (keyed streams, as in
Salmon et al., SC'11), and a seed that a trial hands to a library call
is drawn from that stream.  Each trial has its own tally
(``jordan._Tally``, the recorder the theorem verifiers use too), and
``_run_trials`` builds the :class:`~c0lat.jordan.VerificationReport`.  A
trial records into its tally and returns nothing: ``check`` folds a
residual into the maximum and flags it above its tolerance, ``flag``
records a violation alone, ``fold`` a residual alone, and ``absorb``
merges an inner verifier's report.  Trials are independent given the
seed, so they may run in parallel; the C0LAT_THREADS environment variable
sets the worker count and the tallies merge in trial order, keeping
reports byte-identical regardless of parallelism.

The default is one worker.  Trials are chains of small numpy calls that
hold the interpreter lock for much of their time, so threads contend
rather than overlap: on a 2-CPU machine six modular-thm97 plus x3-transfer
suite pairs (2 trials each) took a median 2.4 s with one worker against
4.2 s with two, over six runs each.

The matrix suites, ``modular-thm97`` and ``x3-transfer``, hand one
verifier call per matrix to ``_per_matrix``, the one owner of their
files x trials policy: the inner seeds, the trial tags of violations and
the count each report gives.

Each suite checks its arguments before the first trial.  A tolerance name
the suite does not define (``_tolerances``) and an input payload of the
wrong kind (``_inputs``: a matrix where the suite takes Blaschke products,
a Blaschke product where it takes matrices, a matrix that is not square,
any input to ``duality``, a repeated zero, zeros closer than 1e-6 or a
degree above 10 for ``oracle-latmatch``) raise ValueError, which the
command line reports with exit code 2.  A theta given to ``propq-meetjoin``
or ``distributive`` whose zeros' ``maximality_floor`` is below
``2 TOL_EQUALS`` may have divisor subspaces at principal sines the lattice
cannot tell from 0: a VerificationError, exit code 3.

``modular-thm97`` and ``x3-transfer`` can never find a counterexample to
modularity: in finite dimensions Lat(T) is a sublattice of the lattice of
all subspaces of C^n, which is modular (Brickman and Fillmore, Canad. J.
Math. 1967; Bercovici, Operator Theory and Arithmetic in H-infinity,
1988).  They test the numerics and the proof objects: the sum map, the
preimage identity and the onto instances.  The paper's
infinite-dimensional content, where a join is the closure of a sum, is
out of their reach.
"""

import inspect
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import blaschke
from .blaschke import BlaschkeProduct
from .calculus import (
    VerificationError,
    _blaschke_product,
    apply_blaschke,
    minimal_function,
    radial_validate,
)
from .jordan import (
    VerificationReport,
    _Tally,
    _distinct_eig,
    brute_force_lat,
    check_lattice_isomorphism,
    find_quasiaffinity,
    jordan_model,
    theorem97_verifier,
    theorem_x3_verifier,
)
from .modelspace import ModelSpace, compressed_shift, enumerate_lattice
from .sampling import (
    certifiable_c0,
    maximality_floor,
    random_blaschke,
    random_blaschke_with_divisor_cap,
    random_contraction,
    random_divisor,
    random_structured_c0,
    random_unit_disk_points,
    random_unitary,
    random_well_conditioned,
)
from .subspace import (
    TOL_EQUALS,
    _direct_sum,
    contains,
    distance,
    equals,
    join,
    meet,
    meet_join_verdicts,
    op_norm,
)

__all__ = [
    "SUITES",
    "SuiteConfig",
    "calculus_suite",
    "distributive_suite",
    "duality_suite",
    "jordan_model_suite",
    "lattice_laws_suite",
    "meetjoin_suite",
    "oracle_latmatch_suite",
    "prop14_suite",
    "run_suite",
    "thm97_suite",
    "x3_suite",
]


def thread_count() -> int:
    """Worker count from C0LAT_THREADS; 1 when unset or not a positive integer."""
    try:
        n = int(os.environ.get("C0LAT_THREADS", ""))
    except ValueError:
        return 1
    return max(n, 1)


def _run_trials(suite, seed, trials, trial_fn, counted=None) -> VerificationReport:
    """Run trial_fn(i, rng, tally), rng keyed by (seed, suite, i) and a
    tally of its own, for i below ``trials``, possibly in parallel, and
    merge the tallies in index order into a report of ``counted`` trials
    (default ``trials``); a negative seed is a ValueError."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative; got {seed}")
    key = int.from_bytes(suite.encode(), "little")

    def run(i):
        tally = _Tally()
        trial_fn(i, np.random.default_rng([seed, key, i]), tally)
        return tally

    workers = min(thread_count(), max(1, trials))
    if workers <= 1 or trials <= 1:
        parts = [run(i) for i in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(trials)))
    total = _Tally()
    for part in parts:
        total.absorb(part)
    return total.report(suite, seed, trials if counted is None else counted)


def _inner_seed(rng) -> int:
    """A seed for a library call, drawn from the trial's own stream."""
    return int(rng.integers(2**63))


def _tolerances(suite, tols, **defaults) -> tuple:
    """The suite's tolerances in the order of ``defaults``, each overridden
    by ``tols``; a name that is not among ``defaults`` is a ValueError."""
    unknown = sorted(set(tols) - set(defaults))
    if unknown:
        accepted = ", ".join(sorted(defaults)) or "none"
        raise ValueError(f"{suite} has no tolerance {', '.join(unknown)} (accepted: {accepted})")
    return tuple({**defaults, **tols}.values())


_KINDS = {BlaschkeProduct: "Blaschke product", np.ndarray: "matrix"}


def _inputs(suite, inputs, kind=None, separated=False) -> tuple:
    """The suite's input payloads, each checked to be a ``kind``
    (BlaschkeProduct or np.ndarray, which must be square; None for a suite
    that takes none).  A ``separated`` Blaschke product whose zeros'
    ``maximality_floor`` is below ``2 TOL_EQUALS`` is a VerificationError."""
    inputs = tuple(inputs)
    for k, x in enumerate(inputs):
        if not (kind and isinstance(x, kind)):
            wanted = f"{_KINDS[kind]} inputs" if kind else "no inputs"
            got = _KINDS.get(type(x), type(x).__name__)
            raise ValueError(f"{suite} takes {wanted}; input {k + 1} is a {got}")
        if separated and (sep := maximality_floor(x.zeros)) < 2 * TOL_EQUALS:
            raise VerificationError(f"{suite} input {k + 1} has zero separation {sep:.3g} "
                                    f"(maximality_floor), below 2 TOL_EQUALS = {2 * TOL_EQUALS:g}")
        if kind is np.ndarray and (x.ndim != 2 or x.shape[0] != x.shape[1]):
            raise ValueError(f"{suite} takes square matrices; input {k + 1} has shape {x.shape}")
    return inputs


# --------------------------------------------------------------------------
# inner-function arithmetic laws

def lattice_laws_suite(trials: int = 100, seed: int = 0, inputs=(), **tols) -> VerificationReport:
    """gcd/lcm lattice laws, the degree formula, the divisibility/equivalence
    biconditional, quotient consistency, and unimodularity on the circle."""
    (tol_circle,) = _tolerances("lattice-laws", tols, circle=1e-9)
    extra = _inputs("lattice-laws", inputs, BlaschkeProduct)
    circle = np.exp(2j * np.pi * np.arange(64) / 64)

    def trial(i, rng, tally):
        pool = random_unit_disk_points(rng, 4, radius=0.85, min_separation=0.1)
        b1 = extra[i % len(extra)] if extra else random_blaschke(rng, 6, pool=pool)
        b2 = random_blaschke(rng, 6, pool=pool)
        b3 = random_blaschke(rng, 6, pool=pool)

        def law(kind, ok):
            if not ok:
                tally.flag(i, kind, 1.0)

        law("gcd-commutative", blaschke.equiv(blaschke.gcd(b1, b2), blaschke.gcd(b2, b1)))
        law("lcm-commutative", blaschke.equiv(blaschke.lcm(b1, b2), blaschke.lcm(b2, b1)))
        law(
            "gcd-associative",
            blaschke.equiv(
                blaschke.gcd(blaschke.gcd(b1, b2), b3),
                blaschke.gcd(b1, blaschke.gcd(b2, b3)),
            ),
        )
        law(
            "lcm-associative",
            blaschke.equiv(
                blaschke.lcm(blaschke.lcm(b1, b2), b3),
                blaschke.lcm(b1, blaschke.lcm(b2, b3)),
            ),
        )
        law("absorption", blaschke.equiv(blaschke.gcd(b1, blaschke.lcm(b1, b2)), b1))
        g, l = blaschke.gcd(b1, b2), blaschke.lcm(b1, b2)
        law("degree-formula", g.degree + l.degree == b1.degree + b2.degree)
        law(
            "quotient-identity",
            blaschke.equiv(blaschke.divide(l, b1), blaschke.divide(b2, g)),
        )
        mutual = blaschke.divides(b1, b2) and blaschke.divides(b2, b1)
        law("divides-equiv", mutual == blaschke.equiv(b1, b2))
        resid = float(np.max(np.abs(np.abs(blaschke.evaluate(b1, circle)) - 1.0)))
        tally.check(i, "unimodular-boundary", resid, tol_circle)

    return _run_trials("lattice-laws", seed, trials, trial)


# --------------------------------------------------------------------------
# the compressed shift is annihilated by its symbol and nothing smaller

def prop14_suite(trials: int = 100, seed: int = 0, inputs=(), **tols) -> VerificationReport:
    """||theta(S(theta))|| below tolerance and ||phi(S(theta))|| above the
    floor for every maximal proper divisor phi, all from one table of the
    factors b_a(S(theta)) (``calculus._blaschke_product``): the eigenvalues
    of S(theta) are theta's validated zeros, so no spectral radius is taken."""
    tol_annihilate, floor = _tolerances("prop14", tols, annihilate=1e-7, floor=1e-3)
    thetas = _inputs("prop14", inputs, BlaschkeProduct)

    def trial(i, rng, tally):
        theta = thetas[i % len(thetas)] if thetas else random_blaschke(rng, 6, radius=0.85)
        s, factors = compressed_shift(theta).matrix, {}
        resid = float(op_norm(_blaschke_product(s, theta, factors)))
        tally.check(i, "annihilation", resid, tol_annihilate, {"degree": theta.degree})
        for z, _ in theta.zeros:
            phi = blaschke.divide(theta, BlaschkeProduct(((z, 1),)))
            low = float(op_norm(_blaschke_product(s, phi, factors)))
            if low <= floor:
                tally.flag(i, "maximality", low, {"dropped": [z.real, z.imag]})

    return _run_trials("prop14", seed, trials, trial)


# --------------------------------------------------------------------------
# meet/join of divisor subspaces against lcm/gcd

def meetjoin_suite(trials: int = 200, seed: int = 0, inputs=(), **tols) -> VerificationReport:
    """Numerical meet/join of two divisor subspaces equals the lcm/gcd
    divisor subspaces; inclusion between them reverses divisibility."""
    (tol,) = _tolerances("propq-meetjoin", tols, distance=1e-7)
    thetas = _inputs("propq-meetjoin", inputs, BlaschkeProduct, separated=True)

    def trial(i, rng, tally):
        theta = thetas[i % len(thetas)] if thetas else random_blaschke(rng, 5, radius=0.85)
        space = ModelSpace(theta)
        phi1, phi2 = random_divisor(rng, theta), random_divisor(rng, theta)
        m1, m2 = space.divisor_subspace(phi1), space.divisor_subspace(phi2)
        d_meet = distance(meet(m1, m2), space.divisor_subspace(blaschke.lcm(phi1, phi2)))
        tally.check(i, "meet-lcm", d_meet, tol)
        d_join = distance(join(m1, m2), space.divisor_subspace(blaschke.gcd(phi1, phi2)))
        tally.check(i, "join-gcd", d_join, tol)
        if contains(m2, m1) != blaschke.divides(phi2, phi1):
            tally.flag(i, "inclusion-reversal", 1.0)

    return _run_trials("propq-meetjoin", seed, trials, trial)


# --------------------------------------------------------------------------
# the divisor lattice is closed under lcm/gcd, so distributive
# a trial checks every pair of divisors: a repeated trial on k simple zeros
# 0.7 e^(2 pi i j / k) took 0.013 s and 60 MiB at 64 divisors, 0.037 s and
# 61 MiB at 128, 0.16 s and 64 MiB at 256, and 0.91 s and 72 MiB at 512
# (2 CPUs); the time grows with the D(D+1)/2 pairs
DISTRIBUTIVE_CAP = 256


def _divisor_pairs(exps) -> tuple:
    """``(rows, cols, lo, hi)`` for a divisor lattice whose member ``k`` has
    the exponent vector ``exps[k]``, each vector up to the maximum once:
    every pair ``rows[p] <= cols[p]`` and the members of the componentwise
    max (lcm) and min (gcd) of its vectors, found as mixed-radix codes."""
    exps = np.asarray(exps, dtype=int)
    place = np.cumprod(np.r_[1, exps.max(0)[:-1] + 1])
    entry = np.empty(len(exps), dtype=int)
    entry[exps @ place] = np.arange(len(exps))
    rows, cols = np.triu_indices(len(exps))
    lo = hi = 0
    for e, p in zip(exps.T, place):  # a digit at a time: no pairs x zeros array
        lo = lo + p * np.maximum(e[rows], e[cols])
        hi = hi + p * np.minimum(e[rows], e[cols])
    return rows, cols, entry[lo], entry[hi]


def distributive_suite(trials: int = 20, seed: int = 0, inputs=(), **tols) -> VerificationReport:
    """Every numerical meet and join over the enumerated invariant lattice of
    each theta (at most ``DISTRIBUTIVE_CAP`` divisors) must equal, within the
    subspace equality tolerance, the member that lcm/gcd of the divisor
    labels predicts; Lat(S(theta)) is then a product of chains, so
    distributive.  A trial decides all its pairs in one
    ``meet_join_verdicts`` call, from each meet's dimension and the order
    of the members; the first failing pair in row-major order is the
    reported one."""
    _tolerances("distributive", tols)
    thetas = _inputs("distributive", inputs, BlaschkeProduct, separated=True)
    for k, theta in enumerate(thetas, 1):
        if (count := blaschke.divisor_count(theta)) > DISTRIBUTIVE_CAP:
            raise ValueError(f"distributive takes at most {DISTRIBUTIVE_CAP} divisors; input {k} has {count}")

    def trial(i, rng, tally):
        theta = thetas[i % len(thetas)] if thetas else random_blaschke_with_divisor_cap(rng)
        entries = enumerate_lattice(theta)
        # Lat(S(theta)) is the divisor lattice upside down: meet is lcm, join gcd
        exps = [[dict(phi.zeros).get(z, 0) for z, _ in theta.zeros] for phi, _ in entries]
        rows, cols, lo, hi = _divisor_pairs(exps)
        failed = np.flatnonzero(~meet_join_verdicts([s for _, s in entries], rows, cols, lo, hi))
        if failed.size:
            first = failed[0]
            tally.flag(i, "closure", 1.0, {"pair": [int(rows[first]), int(cols[first])]})
            tally.fold(1.0)

    return _run_trials("distributive", seed, trials, trial)


# --------------------------------------------------------------------------
# divisor enumeration matches the eigenvector-subset oracle

def oracle_latmatch_suite(trials: int = 20, seed: int = 0, inputs=(), **tols) -> VerificationReport:
    """For theta with 3 distinct zeros, enumerate_lattice must match the
    brute-force invariant-subspace oracle bijectively.  A given theta must
    be nonconstant, with simple zeros 1e-6 apart and degree at most 10, as
    the oracle requires."""
    _tolerances("oracle-latmatch", tols)
    thetas = _inputs("oracle-latmatch", inputs, BlaschkeProduct)
    for k, theta in enumerate(thetas, 1):
        # the oracle spans eigenvector subsets: distinct eigenvalues, size <= 10
        repeated = [m for _, m in theta.zeros if m > 1]
        why = f"has a zero of multiplicity {repeated[0]}" if repeated else f"has degree {theta.degree}"
        if theta.is_constant:
            why = "is constant"
        elif not repeated and theta.degree <= 10:
            try:
                _distinct_eig(compressed_shift(theta).matrix)
                continue
            except ValueError as exc:
                why = f"has {exc}"
        raise ValueError(
            f"oracle-latmatch takes nonconstant Blaschke products with simple zeros 1e-06 apart "
            f"and degree at most 10; input {k} {why}"
        )

    def trial(i, rng, tally):
        if thetas:
            theta = thetas[i % len(thetas)]
        else:
            points = random_unit_disk_points(rng, 3, radius=0.8, min_separation=0.2)
            theta = BlaschkeProduct(tuple((z, 1) for z in points))
        enumerated = enumerate_lattice(theta)
        oracle = brute_force_lat(compressed_shift(theta).matrix)
        if len(enumerated) != len(oracle):
            tally.flag(i, "count-mismatch", float(abs(len(enumerated) - len(oracle))))
            tally.fold(1.0)
            return
        used = [False] * len(oracle)
        for _, s in enumerated:
            best = next((k for k, c in enumerate(oracle) if not used[k] and equals(s, c)), None)
            if best is None:
                tally.flag(i, "unmatched-subspace", 1.0, {"dim": s.dim})
            else:
                used[best] = True
                tally.fold(distance(s, oracle[best]))

    return _run_trials("oracle-latmatch", seed, trials, trial)


# --------------------------------------------------------------------------
# modular law plus proof objects on random C0 matrices

def _random_c0_instance(rng, i, n_max=8, spectral_radius=0.9):
    """Alternates generic contractions with non-derogatory Jordan-structured
    ones; derogatory spectra are excluded because their invariant-subspace
    continua defeat fixed-threshold meet/join verification."""
    n = int(rng.integers(3, n_max + 1))
    return certifiable_c0(
        rng,
        n,
        structured=i % 2 == 1,
        spectral_radius=min(spectral_radius, 0.8) if i % 2 == 0 else spectral_radius,
        derogatory=False,
    )


def _per_matrix(suite, seed, trials, triples, matrices, verify, draw) -> VerificationReport:
    """The files x trials policy of the matrix suites, one
    ``verify(t, rng, count, inner_seed)`` call per matrix, the inner seed
    drawn from the trial's stream.  Given ``matrices``, trial k verifies
    file k with ``trials`` sampled triples, its violations keep their own
    triple indices, and the report counts files x trials.  Without, trial i
    verifies ``draw(rng, i)`` with ``triples`` sampled triples, its
    violations are tagged with trial i, and the report counts trials x triples."""
    if matrices:
        def given(k, rng, tally):
            tally.absorb(verify(matrices[k], rng, trials, _inner_seed(rng)))

        count = len(matrices)
        return _run_trials(suite, seed, count, given, counted=count * trials)

    def trial(i, rng, tally):
        tally.absorb(verify(draw(rng, i), rng, triples, _inner_seed(rng)), trial=i)

    return _run_trials(suite, seed, trials, trial, counted=trials * triples)


def thm97_suite(
    trials: int = 50,
    seed: int = 0,
    inputs=(),
    triples: int = 100,
    **tols,
) -> VerificationReport:
    """theorem97_verifier over random C0 matrices (or the given ones):
    modular law on sampled triples plus the sum-map proof objects."""
    tol_modular, tol_intertwine, tol_preimage = _tolerances(
        "modular-thm97", tols, modular=1e-6, intertwine=1e-8, preimage=1e-7
    )
    matrices = _inputs("modular-thm97", inputs, np.ndarray)

    def verify(t, rng, count, inner_seed):
        return theorem97_verifier(t, count, inner_seed, tol_modular, tol_intertwine, tol_preimage)

    return _per_matrix("modular-thm97", seed, trials, triples, matrices, verify, _random_c0_instance)


# --------------------------------------------------------------------------
# modularity transfer along a quasiaffinity

def x3_suite(
    trials: int = 20,
    seed: int = 0,
    inputs=(),
    triples: int = 50,
    **tols,
) -> VerificationReport:
    """theorem_x3_verifier on similarity-built instances T2 = Q T1 Q^{-1}
    with Y = Q (condition number at most 10)."""
    (tol,) = _tolerances("x3-transfer", tols, transfer=1e-6)
    matrices = _inputs("x3-transfer", inputs, np.ndarray)

    def transfer(t1, rng, samples, inner_seed):
        q = random_well_conditioned(rng, t1.shape[0], cond_cap=10.0)
        t2 = q @ t1 @ np.linalg.inv(q)
        y = q / op_norm(q)
        return theorem_x3_verifier(t1, t2, y, samples=samples, seed=inner_seed, tol=tol)

    return _per_matrix("x3-transfer", seed, trials, triples, matrices, transfer,
                       lambda rng, i: _random_c0_instance(rng, i, spectral_radius=0.8))


# --------------------------------------------------------------------------
# functional-calculus laws

def calculus_suite(trials: int = 200, seed: int = 0, inputs=(), **tols) -> VerificationReport:
    """Multiplicativity and contractivity of the Blaschke calculus, with a
    radial-limit validation every tenth trial."""
    tol_mult, tol_contract, tol_radial = _tolerances(
        "calculus", tols, multiplicative=1e-8, contractive=1e-8, radial=1e-2
    )
    matrices = _inputs("calculus", inputs, np.ndarray)

    def trial(i, rng, tally):
        if matrices:
            t = matrices[i % len(matrices)]
        else:
            n = int(rng.integers(2, 9))
            t = random_contraction(rng, n, spectral_radius=0.8, norm_cap=0.85)
        b1 = random_blaschke(rng, 4, radius=0.6)
        b2 = random_blaschke(rng, 4, radius=0.6)
        # product and split keep their own factors, so two computations are compared
        product = apply_blaschke(t, blaschke.multiply(b1, b2))
        first = apply_blaschke(t, b1)
        split = first @ apply_blaschke(t, b2)
        tally.check(i, "multiplicativity", float(op_norm(product - split)), tol_mult)
        r_norm = float(op_norm(first))
        if r_norm > 1.0 + tol_contract:
            tally.flag(i, "contractivity", r_norm)
        if i % 10 == 0:
            resids = radial_validate(t, b1, (0.9, 0.99, 0.999))
            if resids[-1] > tol_radial:
                tally.flag(i, "radial-limit", resids[-1])
            for a, b in zip(resids, resids[1:]):
                if b > 1.1 * a:
                    tally.flag(i, "radial-monotone", b, {"previous": a})

    return _run_trials("calculus", seed, trials, trial)


# --------------------------------------------------------------------------
# lattice-isomorphism duality evidence

def _duality_instance(rng, deficient: bool):
    if deficient:
        na, nb = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        a = random_contraction(rng, na, 0.7)
        b = random_contraction(rng, nb, 0.7)
        t1 = a
        t2 = _direct_sum(a, b)
        x = np.vstack([np.eye(na), np.zeros((nb, na))]).astype(complex)
        return t1, t2, x
    n = int(rng.integers(3, 7))
    t1 = random_structured_c0(rng, n, spectral_radius=0.8)
    q = random_well_conditioned(rng, n, cond_cap=10.0)
    t2 = q @ t1 @ np.linalg.inv(q)
    return t1, t2, q / op_norm(q)


def duality_suite(trials: int = 20, seed: int = 0, inputs=(), samples: int = 15, **tols) -> VerificationReport:
    """Sampled surjectivity of X_* against sampled injectivity of (X*)_*:
    the two must agree — both 1.0 on full-rank intertwiners, both below
    1.0 on deliberately rank-deficient ones."""
    _tolerances("duality", tols)
    _inputs("duality", inputs)

    def trial(i, rng, tally):
        deficient = i % 2 == 1
        t1, t2, x = _duality_instance(rng, deficient)
        report = check_lattice_isomorphism(x, t1, t2, samples=samples, seed=_inner_seed(rng))
        tally.fold(report.max_residual)
        surj, adj_inj = report.surjective_evidence, report.adjoint_injective_evidence
        evidence = {"surjective": surj, "adjoint_injective": adj_inj}
        if deficient:
            if surj >= 1.0 or adj_inj >= 1.0:
                tally.flag(i, "deficient-evidence", max(surj, adj_inj), evidence)
        elif surj < 1.0 or adj_inj < 1.0:
            tally.flag(i, "full-rank-evidence", 1.0 - min(surj, adj_inj), evidence)
        if (surj == 1.0) != (adj_inj == 1.0):
            tally.flag(i, "duality-agreement", abs(surj - adj_inj), evidence)

    return _run_trials("duality", seed, trials, trial)


# --------------------------------------------------------------------------
# Jordan models: head, certificates, similarity invariance; JordanModel's
# constructor checks the divisibility chain (acceptance-only; not a CLI suite)

_MODEL_DRAWS = 10


def jordan_model_suite(trials: int = 50, seed: int = 0, **tols) -> VerificationReport:
    (tol_resid,) = _tolerances("jordan-model", tols, certificate=1e-7)

    def trial(i, rng, tally):
        # even trials: any certifiable spectrum, unitary conjugate;
        # odd trials: non-unitary similarity (cond <= 2), which forces the
        # norm cap down, so the spectrum is kept small and wide
        if i % 2 == 0:
            cond = 1.0
            n = int(rng.integers(2, 9))
            shape = dict(structured=i % 4 == 2)
        else:
            cond = float(rng.uniform(1.2, 2.0))
            n = int(rng.integers(2, 6))
            shape = dict(structured=i % 4 == 3, norm_cap=0.9 / cond, max_block=2, distinct_cap=2)
        # a draw whose eigenstructure the clustering ladder cannot certify
        # is replaced by the next draw from the same stream
        for draw in range(_MODEL_DRAWS):
            t = certifiable_c0(rng, n, **shape)
            try:
                model = jordan_model(t, verify=False)
                break
            except VerificationError:
                if draw == _MODEL_DRAWS - 1:
                    raise
        if not model.thetas or not blaschke.equiv(model.thetas[0], minimal_function(t)):
            tally.flag(i, "head-minimal-function", 1.0)
        op = model.operator()
        for a, b, direction in ((t, op, "forward"), (op, t, "backward")):
            x = find_quasiaffinity(a, b, seed=_inner_seed(rng))
            if x is None:
                tally.flag(i, f"certificate-{direction}", 1.0)
                continue
            resid = float(op_norm(x @ a - b @ x))
            tally.check(i, f"certificate-{direction}", resid, tol_resid)
        q = random_unitary(rng, n) if cond == 1.0 else random_well_conditioned(rng, n, cond_cap=cond)
        conjugate = q @ t @ np.linalg.inv(q)
        model2 = jordan_model(conjugate, verify=False)
        same = len(model.thetas) == len(model2.thetas) and all(
            blaschke.almost_equiv(a, b, 1e-7)
            for a, b in zip(model.thetas, model2.thetas)
        )
        if not same:
            witness = {
                "model": [str(th) for th in model.thetas],
                "conjugate": [str(th) for th in model2.thetas],
            }
            tally.flag(i, "similarity-invariance", 1.0, witness)

    return _run_trials("jordan-model", seed, trials, trial)


# --------------------------------------------------------------------------
# registry + config

SUITES = {
    "lattice-laws": lattice_laws_suite,
    "prop14": prop14_suite,
    "propq-meetjoin": meetjoin_suite,
    "distributive": distributive_suite,
    "modular-thm97": thm97_suite,
    "x3-transfer": x3_suite,
    "calculus": calculus_suite,
    "duality": duality_suite,
    "oracle-latmatch": oracle_latmatch_suite,
}


@dataclass(frozen=True)
class SuiteConfig:
    """Reproducibility contract for a suite run; embedded in every report."""

    suite: str
    seed: int = 0
    trials: int = 100
    tolerances: dict = field(default_factory=dict)
    output: str = "text"
    input_paths: tuple = ()

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(
                f"unknown suite {self.suite!r}; choose from {sorted(SUITES)}"
            )
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.output not in ("text", "json"):
            raise ValueError("output must be 'text' or 'json'")

    def to_json_dict(self) -> dict:
        return {**vars(self), "input_paths": list(self.input_paths)}


def run_suite(config: SuiteConfig, inputs=()) -> VerificationReport:
    """Dispatch a configured suite; ``inputs`` are decoded file payloads
    (Blaschke products or matrices, depending on the suite)."""
    fn = SUITES[config.suite]
    # a suite parameter such as seed or triples is not a tolerance either
    clash = sorted(set(config.tolerances) & set(inspect.signature(fn).parameters))
    if clash:
        raise ValueError(f"{config.suite} has no tolerance {', '.join(clash)}")
    return fn(
        trials=config.trials,
        seed=config.seed,
        inputs=tuple(inputs),
        **config.tolerances,
    )
