"""Seeded verification suites behind the verify subcommand.

Each suite draws random instances and checks an identity that the rest of
the package relies on.  A suite returns a JSON friendly report

    {"suite": name, "cases": N, "failures": [...], "passed": bool}

and never raises on a failed property, so the caller can print the whole
report before deciding the exit status; expsum records a scheme.cross_check
mismatch as a failure.
"""

import random

from .basis import dual_basis
from .bounds import r3cond_max_bruteforce
from .errors import CrossCheckMismatch, InvalidScheme, ParamViolation, RSRepairError
from .expsum import CharSum, char_sum, subspace_char_sum, weil_check
from .gf import field_create, split_prime_power
from .linalg import independent
from .rs import RSCode
from .scheme import RepairScheme, cross_check, metrics_direct, metrics_expsum, metrics_weight, normalize
from .subspace import Subspace, b_rank

SUITE_NAMES = ("char", "duality", "expsum", "lemma5", "r3cond", "weil")

# (p, a, ell) pools for the random suites; sizes stay desk scale
_TOWER_POOL = (
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
    (3, 1, 2), (3, 1, 3), (3, 1, 4),
    (2, 2, 2), (2, 2, 3),
    (5, 1, 2),
)


def _report(name, cases, failures):
    return {
        "suite": name,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }


def _random_tower(rng):
    p, a, ell = rng.choice(_TOWER_POOL)
    return field_create(p, a, ell)


def _random_independent(rng, tower, count):
    """count elements of the tower, independent over B, drawn uniformly."""
    return independent(tower, iter(lambda: rng.randrange(1, tower.size), None), count)


def random_normalized_scheme(rng, q=None, ell=None, d=None, r=None):
    """A random valid (m, t)-normalized scheme plus its parameter record.

    Parameters left as None are drawn from q in {2, 3}, ell in 2..6,
    d in 2..ell, r in {2, 3}; a given q may be any prime power.  The last
    ell - m polynomials are constants built from dual basis elements so the
    covered columns, and hence t, are controlled exactly; the first m get
    random nonconstant parts.
    Invalid draws (target evaluations not spanning F) are retried.
    """
    for _ in range(500):
        qq = rng.choice((2, 3)) if q is None else q
        la = rng.randint(2, 6) if ell is None else ell
        dd = rng.randint(2, la) if d is None else d
        rr = rng.choice((2, 3)) if r is None else r
        k = qq ** dd - rr
        if k < 1 or dd > la:
            continue
        t = field_create(*split_prime_power(qq), la)
        bp = dual_basis(_random_independent(rng, t, la), t)
        code = RSCode(Subspace.span(t, _random_independent(rng, t, dd)), k)

        m = rng.randint(1, min(3, la))
        t_nf = m if m == la else rng.randint(0, m)
        covered = rng.sample(range(1, la + 1), la - t_nf)
        lead, extras = covered[: la - m], covered[la - m:]
        consts = [bp.gamma[c - 1] for c in lead]
        for i, c in enumerate(extras):
            # every covered column must appear in some constant
            j = i % len(consts)
            consts[j] = t.add(consts[j], bp.gamma[c - 1])

        polys = []
        for _ in range(m):
            coeffs = [rng.randrange(t.size) for _ in range(rr)]
            coeffs[rng.randint(1, rr - 1)] = rng.randrange(1, t.size)
            polys.append(coeffs)
        polys.extend([c] for c in consts)

        try:
            scheme = RepairScheme(code, bp, polys, target=rng.randint(1, code.n))
        except InvalidScheme:
            continue
        nf = normalize(scheme)
        params = {
            "q": qq, "ell": la, "d": dd, "r": rr, "n": code.n,
            "m": nf.m, "t": nf.t, "target": scheme.target,
        }
        return nf, params
    raise ParamViolation("no valid scheme found; generator parameters too tight")


def suite_expsum(seed=0, cases=25):
    """Direct, weight and exponential sum metrics agree exactly."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        nf, params = random_normalized_scheme(rng)
        reports = metrics_direct(nf.scheme), metrics_weight(nf), metrics_expsum(nf)
        try:
            cross_check(*reports)
        except CrossCheckMismatch as e:
            failures.append(f"case {i} {params}: {e}")
    return _report("expsum", cases, failures)


def suite_char(seed=0, cases=60):
    """Character sum identities: orthogonality, dichotomy, shift invariance."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        t = _random_tower(rng)

        beta = rng.randrange(t.size)
        total = char_sum((t.mul(x, beta) for x in range(t.size)), t).as_integer()
        if total != (t.size if beta == 0 else 0):
            failures.append(f"case {i}: full field sum {total} at beta {beta}")

        G = Subspace.span(t, [rng.randrange(t.size) for _ in range(rng.randint(0, t.ell))])
        try:
            subspace_char_sum(G, rng.randrange(t.size), t)
        except RSRepairError as e:
            failures.append(f"case {i}: {e}")

        cs = char_sum((rng.randrange(t.size) for _ in range(20)), t)
        shifted = CharSum(t.p, [c + 7 for c in cs.counts])
        if cs.is_rational_integer() and shifted.as_integer() != cs.as_integer():
            failures.append(f"case {i}: shifting all counts moved the value")
    return _report("char", cases, failures)


def suite_weil(seed=0, cases=40):
    """Random polynomial character sums stay inside the square root bound."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        t = _random_tower(rng)
        degrees = [e for e in range(1, 6) if e % t.p]
        e = rng.choice(degrees)
        coeffs = [rng.randrange(t.size) for _ in range(e)]
        coeffs.append(rng.randrange(1, t.size))
        res = weil_check(coeffs, t)
        if not res["ok"]:
            failures.append(f"case {i}: |{res['sum']}| = {res['magnitude']} > {res['bound']}")
    # cubes over GF(16) meet the bound with equality; catches a slack bound
    t16 = field_create(2, 1, 4)
    res = weil_check([0, 0, 0, 1], t16)
    if not res["ok"] or abs(res["magnitude"] - res["bound"]) > 1e-9:
        failures.append("x^3 over GF(16) should meet the bound exactly")
    return _report("weil", cases + 1, failures)


def suite_duality(seed=0, cases=20):
    """Low degree evaluations pair to zero against codewords."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        t = _random_tower(rng)
        d = rng.randint(1, t.ell)
        A = Subspace.span(t, _random_independent(rng, t, d))
        n = t.q ** d
        code = RSCode(A, rng.randint(1, n - 1))
        basis = dual_basis(_random_independent(rng, t, t.ell), t) if i % 2 else None
        res = code.dual_inner_product_check(trials=5, seed=rng.getrandbits(32), basis=basis)
        if not res["passed"]:
            failures.append(f"case {i}: {res}")
    return _report("duality", cases, failures)


def suite_lemma5(seed=0, cases=60):
    """dim of an intersection of scaled trace kernels is ell - rank of the scales."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        t = _random_tower(rng)
        betas = [rng.randrange(1, t.size) for _ in range(rng.randint(1, t.ell))]
        kernels = [Subspace.scaled_trace_kernel(b, t) for b in betas]
        got = kernels[0].intersect(*kernels[1:]).dim
        want = t.ell - b_rank(t, betas)
        if got != want:
            failures.append(f"case {i}: betas {betas} give dim {got}, expected {want}")
    return _report("lemma5", cases, failures)


def suite_r3cond(seed=0, cases=None):
    """Brute forced budget maximum matches the closed form on a fixed grid of
    21 (ell, d); one memo of batch maxima serves the whole grid."""
    del seed, cases  # deterministic grid
    failures = []
    grid = [(la, d) for la in range(2, 8) for d in range(2, la + 1)]
    memo = {}
    for la, d in grid:
        best, argmax = r3cond_max_bruteforce(la, d, memo=memo)
        want = (la - d + 2) * 2 ** (d - 1)
        if best != want:
            failures.append(f"(ell={la}, d={d}): maximum {best}, expected {want}")
        bad = [arg for arg in argmax if arg[0] != arg[1] or arg[1] > 2 * (la - d + 2)]
        if bad:
            failures.append(f"(ell={la}, d={d}): maximizers outside the predicted shape: {bad}")
    return _report("r3cond", len(grid), failures)


_SUITES = {
    "char": suite_char,
    "duality": suite_duality,
    "expsum": suite_expsum,
    "lemma5": suite_lemma5,
    "r3cond": suite_r3cond,
    "weil": suite_weil,
}


def run_suite(name, seed=0, size=None):
    """Run one named suite, or every suite under the name "all"."""
    if size is not None and size < 0:
        raise ParamViolation(f"suite size must be non-negative, got {size}")
    if name == "all":
        reports = [run_suite(s, seed, size) for s in SUITE_NAMES]
        return {
            "suite": "all",
            "passed": all(r["passed"] for r in reports),
            "reports": reports,
        }
    if name not in _SUITES:
        raise ParamViolation(f"unknown suite {name!r}; pick from {('all',) + SUITE_NAMES}")
    if size is None:
        return _SUITES[name](seed=seed)
    return _SUITES[name](seed=seed, cases=size)
