"""The benchmark's three workloads: seeded job streams and their oracles.

A job is one closed-loop request: a suite call followed by
``cli.report_render(report, "json", config)`` (the ``c0lat verify`` path
without argparse and file IO), or the body of a one-shot CLI command.
Job ``i`` of a workload draws its inputs and suite seed from
``default_rng([seed, workload, 0, i])``; warm-up jobs use stream 1, so they
never repeat a timed job.  Job kinds follow a fixed cycle (the workload's
block), so every run sees the same mix whatever the seed.

Timed jobs stay clear of three known defects, so none is expected to
fail.  Each workload has a known-defect probe (``PROBES``): one job on
inputs that hit one of those defects, run untimed and uncounted after the
loop, so every run shows whether the defect is still there.

Every call into c0lat goes through a module attribute (``suites.run_suite``,
``cli.report_render``, ...), so the tracer's rebinding reaches it.
"""

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from c0lat import blaschke, calculus, cli, modelspace, sampling, suites
from c0lat.blaschke import BlaschkeProduct
from c0lat.serialize import stable_json_bytes
from c0lat.suites import SuiteConfig

# ln(1e-16): model spaces size their quadrature grid so that rmax**N < 1e-16
_LOG_EPS = np.log(1e-16)
# tolerance of the closed-form compressed-shift oracle
CLOSED_FORM_TOL = 1e-9
# divisors per theta whose subspace dimension is checked
DIMENSION_CHECKS = 12
# tolerance when matching computed Jordan-model zeros to generated eigenvalues
ZERO_MATCH_TOL = 1e-6


@dataclass
class Job:
    """``call`` is timed and returns (payload bytes, verdict passed, value);
    ``check(value)`` runs untimed and returns the oracle disagreements.
    ``redrawn`` counts suite seeds passed over while drawing the job."""

    kind: str
    size: str
    call: Callable
    check: Callable
    suite: bool = True
    redrawn: int = 0


def _no_check(_value):
    return []


def _ordinal(block, i: int) -> int:
    """How many jobs of job i's kind come before it."""
    kind = block[i % len(block)]
    return (i // len(block)) * block.count(kind) + block[: i % len(block)].count(kind)


def _job_rng(workload_id: int, seed: int, i: int, stream: int):
    return np.random.default_rng([seed, workload_id, stream, i])


def _suite_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _suite_job(kind, suite, trials, seed, inputs=(), size="", check=_no_check, **flags) -> Job:
    config = SuiteConfig(suite=suite, seed=seed, trials=trials, output="json")

    def call():
        report = suites.run_suite(config, inputs=inputs)
        return cli.report_render(report, "json", config), report.passed, inputs

    return Job(kind, size or f"trials={trials}", call, check, **flags)


# --------------------------------------------------------------------------
# modular-lattice: the gate's thm97 and x3 shapes, seeded, through the pool

MODULAR_BLOCK = ("modular-thm97", "x3-transfer", "modular-thm97")
MODULAR_TRIALS = 2
# a modular-thm97 suite seed whose second trial draws a matrix that
# classify_c0 cannot certify (ROADMAP item 5)
UNCERTIFIABLE_THM97_SEED = 641838304


def _suite_draws_certify(suite: str, seed: int) -> bool:
    """Whether classify_c0 certifies every matrix the seeded suite draws.
    Repeats the suite's own draw (``suites._random_c0_instance`` on
    ``default_rng(seed + trial)``), so it stays in step with the suite."""
    for trial in range(MODULAR_TRIALS):
        rng = np.random.default_rng(seed + trial)
        if suite == "x3-transfer":
            rng.integers(3, 9)
            t = suites._random_c0_instance(rng, trial, n_max=8, spectral_radius=0.8)
        else:
            t = suites._random_c0_instance(rng, trial)
        try:
            calculus.classify_c0(t)
        except calculus.VerificationError:
            return False
    return True


def _modular_job(suite: str, seed: int, redrawn: int = 0) -> Job:
    shape = "triples=100" if suite == "modular-thm97" else "samples=50"
    return _suite_job(
        suite,
        suite,
        MODULAR_TRIALS,
        seed,
        size=f"trials={MODULAR_TRIALS} n=3..8 {shape}",
        redrawn=redrawn,
    )


def modular_lattice_job(seed: int, i: int, stream: int = 0) -> Job:
    """A gate-shaped suite job.  About one suite seed in a thousand draws
    a matrix that classify_c0 cannot certify, which aborts the suite
    (ROADMAP item 5); such seeds are passed over and counted in
    ``redrawn``, and the modular-lattice probe replays one of them."""
    rng = _job_rng(1, seed, i, stream)
    suite = MODULAR_BLOCK[i % len(MODULAR_BLOCK)]
    redrawn = 0
    suite_seed = _suite_seed(rng)
    while not _suite_draws_certify(suite, suite_seed):
        redrawn += 1
        suite_seed = _suite_seed(rng)
    return _modular_job(suite, suite_seed, redrawn)


def modular_lattice_probe(_seed: int) -> Job:
    return _modular_job("modular-thm97", UNCERTIFIABLE_THM97_SEED)


# --------------------------------------------------------------------------
# model-divisor: generated theta through the model-space layer

# quadrature bands: largest zero modulus such that the grid size N is 2**k
_BANDS = tuple(range(8, 16))
# multiplicity patterns for distributive jobs: 12 to 48 divisors.  The
# two 48-divisor patterns make the slowest jobs, a quarter of the
# distributive ones (about twenty in a 30-second run), so job_tail_ms,
# with ten jobs above it, falls inside that group and not at its edge
_DIVISOR_PATTERNS = (
    (1, 1, 2),
    (1, 1, 1, 1),
    (1, 2, 2),
    (1, 1, 1, 2),
    (2, 2, 2),
    (1, 1, 1, 1, 1),
    (1, 1, 2, 3),
    (1, 1, 1, 1, 2),
)
# the probe's theta has a zero with modulus in [NEAR_LO, NEAR_HI], which
# UnitDiskPoint admits but compressed_shift gets wrong (ROADMAP item 1)
NEAR_LO, NEAR_HI = 0.9995, 1.0 - 1e-5
MODEL_BLOCK = (
    "prop14",
    "propq-meetjoin",
    "distributive",
    "oracle-latmatch",
    "propq-meetjoin",
    "prop14",
    "propq-meetjoin",
    "distributive",
    "propq-meetjoin",
)


def _band_modulus(rng, k: int) -> float:
    """A modulus r whose model-space grid has 2**k points."""
    lo = np.exp(_LOG_EPS / 2 ** (k - 1))
    hi = np.exp(_LOG_EPS / 2**k) if k < 15 else 0.999
    return float(rng.uniform(lo, hi))


def _pseudo_hyperbolic(a: complex, b: complex) -> float:
    return abs(a - b) / abs(1 - np.conj(b) * a)


def random_theta(rng, mults, rmax: float) -> BlaschkeProduct:
    """theta with one zero of modulus ``rmax`` and the others of modulus at
    most 0.8, pairwise pseudo-hyperbolic distance at least 0.3."""
    zeros = [rmax * np.exp(2j * np.pi * rng.uniform())]
    while len(zeros) < len(mults):
        z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(_pseudo_hyperbolic(z, w) >= 0.3 for w in zeros):
            zeros.append(z)
    order = rng.permutation(len(mults))
    return BlaschkeProduct(tuple((complex(z), int(mults[k])) for z, k in zip(zeros, order)))


def _random_mults(rng):
    distinct = int(rng.integers(2, 6))
    mults = rng.integers(1, 3, size=distinct)
    return tuple(int(m) for m in mults)


def closed_form_shift(theta: BlaschkeProduct) -> np.ndarray:
    """S(theta) in the Takenaka-Malmquist basis: S[j, j] = a_j and, below
    the diagonal, S[j, k] = d_j d_k prod_{k<i<j} (-conj a_i) with
    d = sqrt(1 - |a|^2)."""
    a = np.array(theta.zero_sequence(), dtype=complex)
    d = np.sqrt(1.0 - np.abs(a) ** 2)
    n = a.size
    s = np.diag(a)
    for k in range(n):
        carried = 1.0 + 0.0j
        for j in range(k + 1, n):
            s[j, k] = d[j] * d[k] * carried
            carried *= -np.conj(a[j])
    return s


def _some_divisors(theta: BlaschkeProduct, limit: int):
    """Up to ``limit`` inner divisors of theta with their degrees, spread
    evenly over the multiplicity grid (always including 1 and theta)."""
    points = [z for z, _ in theta.zeros]
    grid = list(itertools.product(*(range(m + 1) for _, m in theta.zeros)))
    picks = sorted({round(k * (len(grid) - 1) / max(1, limit - 1)) for k in range(limit)})
    for mults in (grid[k] for k in picks):
        yield BlaschkeProduct(tuple((z, m) for z, m in zip(points, mults) if m > 0)), sum(mults)


def check_closed_form(inputs) -> list:
    problems = []
    for theta in inputs:
        got = modelspace.compressed_shift(theta).matrix
        err = float(np.max(np.abs(got - closed_form_shift(theta))))
        if err > CLOSED_FORM_TOL:
            problems.append(f"compressed_shift off the closed form by {err:.3g}")
    return problems


def check_divisor_dimensions(inputs) -> list:
    """dim(phi H^2 ⊖ theta H^2) must equal deg theta - deg phi, checked on
    DIMENSION_CHECKS divisors of each theta."""
    problems = []
    for theta in inputs:
        space = modelspace.ModelSpace(theta)
        for phi, degree in _some_divisors(theta, DIMENSION_CHECKS):
            try:
                dim = space.divisor_subspace(phi).dim
            except ValueError as exc:
                problems.append(f"divisor_subspace raised: {exc}")
                continue
            if dim != theta.degree - degree:
                problems.append(
                    f"divisor subspace of dimension {dim}, expected {theta.degree - degree}"
                )
    return problems


def model_divisor_job(seed: int, i: int, stream: int = 0) -> Job:
    rng = _job_rng(2, seed, i, stream)
    kind = MODEL_BLOCK[i % len(MODEL_BLOCK)]
    suite_seed = _suite_seed(rng)
    if kind == "oracle-latmatch":
        return _suite_job(kind, kind, 2, suite_seed, size="trials=2 degree=3")
    # cycle the bands per kind so every run spreads N over 2**8..2**15;
    # distributive jobs step through every (pattern, band) pair
    k = _ordinal(MODEL_BLOCK, i)
    band = _BANDS[(k + k // len(_DIVISOR_PATTERNS)) % len(_BANDS)]
    rmax = _band_modulus(rng, band)
    if kind == "distributive":
        pattern = _DIVISOR_PATTERNS[k % len(_DIVISOR_PATTERNS)]
        theta = random_theta(rng, pattern, rmax)
        return _suite_job(
            kind,
            kind,
            1,
            suite_seed,
            (theta,),
            size=f"divisors={blaschke.divisor_count(theta)} N=2^{band} |a|max={rmax:.6f}",
            check=check_divisor_dimensions,
        )
    theta = random_theta(rng, _random_mults(rng), rmax)
    size = f"degree={theta.degree} N=2^{band} |a|max={rmax:.6f}"
    if kind == "propq-meetjoin":
        return _suite_job(kind, kind, 4, suite_seed, (theta,), size=f"pairs=4 {size}",
                          check=check_divisor_dimensions)
    return _suite_job(kind, kind, 1, suite_seed, (theta,), size=size, check=check_closed_form)


def model_divisor_probe(seed: int) -> Job:
    """prop14 on a theta with one zero of modulus in [NEAR_LO, NEAR_HI],
    drawn from stream 2 of the run's seed."""
    rng = _job_rng(2, seed, 0, 2)
    suite_seed = _suite_seed(rng)
    rmax = 1.0 - float(np.exp(rng.uniform(np.log(1.0 - NEAR_HI), np.log(1.0 - NEAR_LO))))
    theta = random_theta(rng, _random_mults(rng), rmax)
    size = f"degree={theta.degree} N=2^15 |a|max={rmax:.6f}"
    return _suite_job("prop14-near-boundary", "prop14", 1, suite_seed, (theta,), size=size,
                      check=check_closed_form)


# --------------------------------------------------------------------------
# jordan-calculus: Jordan models, the calculus and duality

JORDAN_BLOCK = (
    "jordan-model-suite",
    "jordan-model",
    "intertwine",
    "calculus",
    "jordan-model",
    "duality",
    "intertwine",
    "minfun",
)
JORDAN_SIZE_CAP = 12
INTERTWINE_SIZE_CAP = 16
JORDAN_SUPERDIAGONAL = 0.3
CONJUGATOR_COND = 1.5
# Jordan blocks of size 4 make zeros of multiplicity 4, and for some of
# them ModelOperator's eigenvalue re-check rejects the compressed shift
# (ROADMAP item 1), about once in two thousand jordan-model jobs; timed
# jobs draw blocks of at most 3
MAX_BLOCK = 3
# a structure with two 4-blocks whose Jordan model jordan_model rejects,
# whatever the conjugator: the jordan-calculus probe
REJECTED_STRUCTURE = (
    (0.16315617427631196 + 0.06201259116827713j, (4,)),
    (-0.5600446443392839 - 0.03902363760481331j, (4,)),
)


def _random_partition(rng, total: int, max_block: int) -> tuple:
    sizes = []
    while sum(sizes) < total:
        sizes.append(int(rng.integers(1, min(max_block, total - sum(sizes)) + 1)))
    return tuple(sorted(sizes, reverse=True))


def _spectrum(rng, count: int) -> list:
    """``count`` points of modulus at most 0.6, pairwise pseudo-hyperbolic
    distance at least 0.5."""
    points: list = []
    while len(points) < count:
        z = 0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(_pseudo_hyperbolic(z, w) >= 0.5 for w in points):
            points.append(complex(z))
    return points


def _jordan_matrix(structure) -> np.ndarray:
    n = sum(sum(sizes) for _, sizes in structure)
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, sizes in structure:
        for size in sizes:
            for k in range(size):
                j[pos + k, pos + k] = lam
                if k + 1 < size:
                    j[pos + k, pos + k + 1] = JORDAN_SUPERDIAGONAL
            pos += size
    return j


def _conjugator(rng, n: int, cond: float) -> np.ndarray:
    u = sampling.random_unitary(rng, n)
    v = sampling.random_unitary(rng, n)
    return u @ np.diag(np.linspace(1.0, cond, n)) @ v


def structured_c0(rng, structures, cond: float = CONJUGATOR_COND):
    """Matrices Q J Q^{-1} with the given Jordan structures, all scaled by
    one factor so each has norm at most 0.95; returns the matrices, the
    structures with their eigenvalues scaled to match, and the factor."""
    mats = []
    for structure in structures:
        n = sum(sum(sizes) for _, sizes in structure)
        q = _conjugator(rng, n, cond)
        mats.append(q @ _jordan_matrix(structure) @ np.linalg.inv(q))
    scale = min(1.0, 0.95 / max(np.linalg.norm(m, 2) for m in mats))
    scaled = [tuple((lam * scale, sizes) for lam, sizes in s) for s in structures]
    return [m * scale for m in mats], scaled, scale


def _random_structure(rng, points, n: int, max_block: int = MAX_BLOCK):
    """Spread a random partition of ``n`` over the eigenvalues ``points``."""
    blocks = list(_random_partition(rng, n, max_block))
    rng.shuffle(blocks)
    owned: dict = {k: [] for k in range(len(points))}
    for b, size in enumerate(blocks):
        owned[b % len(points)].append(size)
    return [
        (points[k], tuple(sorted(sizes, reverse=True))) for k, sizes in owned.items() if sizes
    ]


def _maximality_margin(structure, scale: float) -> float:
    """Leading-order estimate of the smallest ||(m / b_lam)(T)|| over the
    eigenvalues lam, m the minimal function: on lam's largest block (size
    k) it is (superdiagonal * scale)^(k-1) times |b_mu(lam)|^(k_mu) over
    the other eigenvalues mu, divided by the conjugator's condition
    number."""
    worst = np.inf
    for lam, sizes in structure:
        value = (JORDAN_SUPERDIAGONAL * scale) ** (sizes[0] - 1) / CONJUGATOR_COND
        for mu, other in structure:
            if mu != lam:
                value *= _pseudo_hyperbolic(lam, mu) ** other[0]
        worst = min(worst, value)
    return worst


def _draw_c0(rng, sizes):
    """C0 matrices of the given sizes sharing one spectrum, resampled until
    the maximality margin is at least 3e-3: eigenstructure certifies a
    minimal function only when dropping any one factor leaves a norm
    above 1e-3, by design."""
    while True:
        points = _spectrum(rng, int(rng.integers(1, 4)))
        structures = [_random_structure(rng, points, n) for n in sizes]
        mats, scaled, scale = structured_c0(rng, structures)
        if all(_maximality_margin(s, scale) >= 3e-3 for s in scaled):
            return mats, scaled


def _match_zeros(theta: BlaschkeProduct, expected) -> bool:
    """theta's zeros match the (zero, multiplicity) pairs ``expected``."""
    if len(theta.zeros) != len(expected):
        return False
    remaining = list(expected)
    for z, m in theta.zeros:
        hit = next(
            (k for k, (w, mw) in enumerate(remaining) if mw == m and abs(z - w) <= ZERO_MATCH_TOL),
            None,
        )
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def model_chain(structure) -> list:
    """The Jordan model expected from a structure: the j-th function has a
    zero of multiplicity sizes[j] at each eigenvalue with a j-th block."""
    depth = max(len(sizes) for _, sizes in structure)
    return [
        [(lam, sizes[j]) for lam, sizes in structure if j < len(sizes)] for j in range(depth)
    ]


def frobenius_gantmacher(s1, s2) -> int:
    """dim{X : X T1 = T2 X} = sum over shared eigenvalues of
    sum_{i,j} min(p_i, q_j)."""
    total = 0
    for lam, p in s1:
        for mu, q in s2:
            if abs(lam - mu) <= ZERO_MATCH_TOL:
                total += sum(min(a, b) for a in p for b in q)
    return total


def _jordan_model_job(t, structure, seed: int) -> Job:
    chain = model_chain(structure)

    def call():
        model = cli.jordan_model(t, seed=seed)
        return stable_json_bytes(model.to_json_dict()), True, model

    def check(model):
        if len(model.thetas) != len(chain) or not all(
            _match_zeros(th, want) for th, want in zip(model.thetas, chain)
        ):
            return ["Jordan model does not match the generated block structure"]
        return []

    return Job("jordan-model", f"n={t.shape[0]}", call, check, suite=False)


def jordan_calculus_job(seed: int, i: int, stream: int = 0) -> Job:
    """Suite jobs draw their own matrices; for the direct calls, sizes
    cycle with the job's ordinal within its kind (n over 8..12, (n1, n2)
    over every pair in 12..16), so every run sees the same sizes whatever
    the seed, and the seed draws the spectrum and structure."""
    rng = _job_rng(3, seed, i, stream)
    kind = JORDAN_BLOCK[i % len(JORDAN_BLOCK)]
    k = _ordinal(JORDAN_BLOCK, i)
    suite_seed = _suite_seed(rng)
    if kind == "jordan-model-suite":
        trials = 4

        def call():
            report = suites.jordan_model_suite(trials=trials, seed=suite_seed)
            return cli.report_render(report, "json"), report.passed, None

        return Job(kind, f"trials={trials} n=2..8", call, _no_check)
    if kind == "calculus":
        return _suite_job(kind, kind, 20, suite_seed, size="trials=20 n=2..8")
    if kind == "duality":
        return _suite_job(kind, kind, 4, suite_seed, size="trials=4 n=2..8")
    if kind == "intertwine":
        n1 = INTERTWINE_SIZE_CAP - 4 + k % 5
        n2 = INTERTWINE_SIZE_CAP - 4 + k // 5 % 5
        (t1, t2), (s1, s2) = _draw_c0(rng, (n1, n2))

        def call():
            space = cli.intertwiner_space(t1, t2, seed=suite_seed)
            payload = stable_json_bytes({"dimension": space.dimension, "max_rank": space.max_rank})
            return payload, True, space

        def check(space):
            expected = frobenius_gantmacher(s1, s2)
            if space.dimension != expected:
                return [f"intertwiner dimension {space.dimension}, Frobenius-Gantmacher {expected}"]
            return []

        return Job(kind, f"n1={n1} n2={n2}", call, check, suite=False)
    n = JORDAN_SIZE_CAP - 4 + k % 5
    (t,), (structure,) = _draw_c0(rng, (n,))
    if kind == "jordan-model":
        return _jordan_model_job(t, structure, suite_seed)

    def call():
        mf = cli.minimal_function(t)
        return stable_json_bytes(mf.to_json_dict()), True, mf

    def check(mf):
        if not _match_zeros(mf, model_chain(structure)[0]):
            return ["minimal function does not match the largest generated blocks"]
        return []

    return Job(kind, f"n={n}", call, check, suite=False)


def jordan_calculus_probe(seed: int) -> Job:
    (t,), (structure,), _ = structured_c0(_job_rng(3, seed, 0, 2), [REJECTED_STRUCTURE])
    return _jordan_model_job(t, structure, 0)


WORKLOADS = {
    "modular-lattice": (modular_lattice_job, len(MODULAR_BLOCK)),
    "model-divisor": (model_divisor_job, len(MODEL_BLOCK)),
    "jordan-calculus": (jordan_calculus_job, len(JORDAN_BLOCK)),
}
# workload -> (known-defect probe, the defect it shows)
PROBES = {
    "modular-lattice": (
        modular_lattice_probe,
        "ROADMAP item 5: the suite draws a matrix classify_c0 cannot certify",
    ),
    "model-divisor": (
        model_divisor_probe,
        "ROADMAP item 1: compressed_shift on a zero of modulus in [0.9995, 1-1e-5]",
    ),
    "jordan-calculus": (
        jordan_calculus_probe,
        "ROADMAP item 1: ModelOperator rejects the compressed shift of a 4-fold zero",
    ),
}
