"""Lower bounds on repair I/O cost and bandwidth, plus brute-force oracles.

The closed-form bounds apply in specific (q, ell, d, r) regimes and carry
route tags, listed per quantity in ROUTES, from which the CLI draws its
--theorem choices.  tight_known reports whether a matching scheme is known
for those parameters, not a property this module verifies.

The brute-force routines reproduce the optimization steps the bounds rest
on: a capped maximization of 2^(d-m) sum 2^(a_i), and a budgeted
minimization of sum b_i solved by two-level balancing.  The maximization
stays exhaustive: it scans every tuple of each (m, t') batch in bounded
slices.  A caller that asks for many (ell, d), like the r3cond suite, passes
one memo dict to all its calls so each batch maximum is found once; nothing
is cached between calls that share no memo.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import ParamViolation, UnsupportedRegime
from .gf import split_prime_power

ROUTES = {"io": ("coro11", "thm4", "thm6"), "bandwidth": ("thm5", "thm8")}


def _check_query(q: int, ell: int, d: int, r: int) -> int:
    """The characteristic of q; ParamViolation unless q is a prime power,
    1 <= d <= ell, r >= 2 and the code has dimension k = q^d - r >= 1."""
    if not 1 <= d <= ell:
        raise ParamViolation(f"need 1 <= d <= ell, got d={d}, ell={ell}")
    if r < 2:
        raise ParamViolation("bounds assume r >= 2")
    p = split_prime_power(q)[0]
    if q**d - r < 1:
        raise ParamViolation(f"need k = q^d - r >= 1, got q^d = {q**d}, r = {r}")
    return p


def io_lower_bound(q: int, ell: int, d: int, r: int, theorem: str = "auto") -> dict:
    """Best applicable I/O lower bound, or a specific route by tag.

    thm4: r = 2, any q, any d <= ell; tight when ell-d+1 divides ell.
    thm6: r = 3, q = 2, any d <= ell; tight when d = ell or ell-d+2 | ell.
    coro11: d = ell, 2 <= r <= char; the q^(ell/2 - 1) term is an exact
    integer square root, so for odd ell the bound is rounded up to the next
    integer (valid, since the cost is an integer).
    """
    p = _check_query(q, ell, d, r)
    if theorem not in ("auto", *ROUTES["io"]):
        raise UnsupportedRegime(f"unknown I/O route {theorem!r}")
    n = q**d
    candidates = []
    if r == 2:
        value = (n - 1) * ell - (ell - d + 1) * q ** (d - 1)
        candidates.append(
            {"theorem": "thm4", "value": value, "tight_known": ell % (ell - d + 1) == 0}
        )
    if r == 3 and q == 2:
        value = (n - 1) * ell - (ell - d + 2) * 2 ** (d - 1)
        tight = d == ell or ell % (ell - d + 2) == 0
        candidates.append({"theorem": "thm6", "value": value, "tight_known": tight})
    if d == ell and 2 <= r <= p:
        c = (r - 2) * (q - 1)
        value = (n - 1) * ell - q ** (ell - 1) - math.isqrt(c * c * q**ell // q**2)
        candidates.append({"theorem": "coro11", "value": value, "tight_known": r == 2})
    if theorem != "auto":
        for cand in candidates:
            if cand["theorem"] == theorem:
                return dict(cand, candidates=candidates)
        raise UnsupportedRegime(
            f"{theorem} does not cover q={q}, ell={ell}, d={d}, r={r}"
        )
    if not candidates:
        raise UnsupportedRegime(
            f"no I/O bound covers q={q}, ell={ell}, d={d}, r={r}"
        )
    best = max(candidates, key=lambda cand: cand["value"])
    return dict(best, candidates=candidates)


def bandwidth_lower_bound(q: int, ell: int, d: int, r: int, theorem: str = "auto") -> dict:
    """Bandwidth lower bound for schemes meeting the I/O bound.

    thm5 (r = 2): case i d = ell, q > 2; case ii d = ell, q = 2;
    case iii d < ell with ell-d+1 | ell.  thm8 (r = 3): q = 2 and d = ell
    or ell-d+2 | ell.  Fractional power terms are evaluated exactly and the
    whole expression rounded up.
    """
    _check_query(q, ell, d, r)
    n = q**d
    if theorem not in ("auto", *ROUTES["bandwidth"]):
        raise UnsupportedRegime(f"unknown bandwidth route {theorem!r}")
    if r == 2 and theorem in ("auto", "thm5"):
        if d == ell and q > 2:
            return {
                "theorem": "thm5",
                "case": "i",
                "value": (n - 1) * ell - q ** (ell - 1),
                "tight_known": True,
            }
        if d == ell:
            return {
                "theorem": "thm5",
                "case": "ii",
                "value": (2**ell - 1) * ell - 3 * 2 ** (ell - 2),
                "tight_known": True,
            }
        if ell % (ell - d + 1) == 0:
            value = math.ceil((n - 1) * d - Fraction(q) ** (2 * d - ell - 1))
            return {"theorem": "thm5", "case": "iii", "value": value, "tight_known": False}
        raise UnsupportedRegime(
            f"r=2 bandwidth bound needs ell-d+1 | ell; got ell={ell}, d={d}"
        )
    if r == 3 and theorem in ("auto", "thm8"):
        if q != 2:
            raise UnsupportedRegime("r=3 bandwidth bound requires q = 2")
        if d != ell and ell % (ell - d + 2) != 0:
            raise UnsupportedRegime(
                f"r=3 bandwidth bound needs d = ell or ell-d+2 | ell; got ell={ell}, d={d}"
            )
        exp = 3 * d - 2 * ell - 4
        tail = 2**exp if exp >= 0 else 0
        value = math.ceil((n - 1) * (d - 1) - Fraction(2) ** (2 * d - ell - 1) + tail)
        return {"theorem": "thm8", "case": None, "value": value, "tight_known": False}
    raise UnsupportedRegime(
        f"no bandwidth bound covers q={q}, ell={ell}, d={d}, r={r}"
    )


_R3COND_CHUNK = 2048  # tuples per slice of a batch scan; bounds a call's memory


def _r3cond_chunks(m: int, tp: int):
    """The ascending tp-tuples over range(m) in enumeration order, in slices
    of at most _R3COND_CHUNK, each paired with its tuples' sums of 2^a."""
    tuples = itertools.combinations_with_replacement(range(m), tp)
    powers = itertools.combinations_with_replacement([1 << a for a in range(m)], tp)
    while chunk := list(itertools.islice(tuples, _R3COND_CHUNK)):
        yield chunk, list(map(sum, itertools.islice(powers, _R3COND_CHUNK)))


def _r3cond_batch(chunks, tp: int, k: int, budget: int | None):
    """Largest sum of 2^a over one (m, tp) batch among the tuples whose top k
    sum to at most budget (every tuple when budget is None), and its
    maximizers, descending, in enumeration order."""
    top = operator.itemgetter(slice(tp - k, None))
    best, hits = 0, []  # every sum of 2^a is at least 1
    for chunk, sums in chunks:
        if budget is None:
            ok, feasible = itertools.repeat(True), sums
        else:
            ok = list(map(budget.__ge__, map(sum, map(top, chunk))))
            feasible = list(itertools.compress(sums, ok))
        top_sum = max(feasible, default=0)
        if top_sum < best:
            continue
        found = [t[::-1] for t, s, fits in zip(chunk, sums, ok) if fits and s == top_sum]
        if top_sum > best:
            best, hits = top_sum, found
        else:
            hits += found
    return best, hits


def r3cond_max_bruteforce(ell: int, d: int, m_max: int | None = None, *, memo: dict | None = None):
    """Maximize 2^(d-m) sum_i 2^(a_i) over the constrained tuples.

    Enumerates (t', m, a_1 >= ... >= a_t') with t' <= m <= ell, each
    0 <= a_i <= m-1, and the largest min(t', ell-d+2) of the a_i summing to
    at most (ell-d+1)m.  Returns (max value, list of maximizers); values are
    compared as exact integers scaled by 2^hi, so a fractional intermediate
    cannot sneak past an integer maximum.

    Each (m, t') batch is scanned once for its own maximum.  memo, a dict
    shared by calls that ask for many (ell, d), keeps those batch maxima and
    the enumerated tables of the small batches; without one a call uses its
    own.
    """
    if ell > 10:
        raise ParamViolation("enumeration over partitions is sized for ell <= 10")
    if not 1 <= d <= ell:
        raise ParamViolation(f"need 1 <= d <= ell, got d={d}, ell={ell}")
    if memo is None:
        memo = {}
    hi = ell if m_max is None else min(ell, m_max)
    cap = ell - d + 2
    best = None
    argmax = []
    for m in range(1, hi + 1):
        budget = (ell - d + 1) * m
        for tp in range(1, m + 1):
            k = min(tp, cap)
            # if even k entries m-1 fit the budget, the batch loses no tuple
            # and its maximum is the same for every such cap
            cut = k * (m - 1) > budget
            key = (m, tp, cap if cut else None)
            if key not in memo:
                chunks = memo.get((m, tp))
                if chunks is None:
                    chunks = _r3cond_chunks(m, tp)
                    if math.comb(m + tp - 1, tp) <= _R3COND_CHUNK:  # one slice: kept for other caps
                        chunks = memo[(m, tp)] = list(chunks)
                memo[key] = _r3cond_batch(chunks, tp, k, budget if cut else None)
            top_sum, hits = memo[key]
            value = top_sum << (d + hi - m)  # 2^hi times the value
            if best is None or value > best:
                best = value
                argmax = [(tp, m, desc) for desc in hits]
            elif value == best:
                argmax += [(tp, m, desc) for desc in hits]
    if best is not None:
        best = Fraction(best, 2**hi)
        if best.denominator == 1:
            best = int(best)
    return best, argmax


def _bmin_budget(q: int, ell: int, d: int, m: int, r: int) -> tuple[int, int]:
    if not 0 <= m <= ell:
        raise ParamViolation(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    if not 1 <= d <= ell:
        raise ParamViolation(f"need 1 <= d <= ell, got d={d}, ell={ell}")
    n = q**d
    if r == 2:
        budget = q**d + q**ell - q ** (ell - m) - 1
    elif r == 3:
        if q != 2:
            raise UnsupportedRegime("the r=3 budget is stated for q = 2 only")
        budget = 2 ** (ell + 1) + 2**d - 2 ** (ell - m + 1) - 1
    else:
        raise UnsupportedRegime(f"no b_i budget for r = {r}")
    return n - 1, budget


def bmin_bruteforce(q: int, ell: int, d: int, m: int, r: int) -> int:
    """Minimal sum of b_i in [0, m] under the helper budget, by balancing.

    Exchanging (b_i, b_j) toward equality never increases the budget's
    left side, so an optimum exists with all b_i in {v, v+1}; scan v and
    take the cheapest feasible split.
    """
    count, budget = _bmin_budget(q, ell, d, m, r)
    if count > budget:
        raise ParamViolation("even b_i = m for every helper exceeds the budget")
    if m == 0:
        return 0
    best = count * m
    for v in range(m):
        low_cost = q ** (m - v)
        high_cost = q ** (m - v - 1)
        if count * high_cost > budget:
            continue
        k = min(count, (budget - count * high_cost) // (low_cost - high_cost))
        best = min(best, count * (v + 1) - k)
    return best


def bmin_literal(q: int, ell: int, d: int, m: int, r: int) -> int:
    """Same minimum by enumerating level counts; cross-check for n <= 16."""
    count, budget = _bmin_budget(q, ell, d, m, r)
    if q**d > 16:
        raise ParamViolation("literal enumeration is sized for n <= 16")

    def splits(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in splits(total - first, parts - 1):
                yield (first,) + rest

    best = None
    for counts in splits(count, m + 1):
        if sum(k * q ** (m - v) for v, k in enumerate(counts)) > budget:
            continue
        total = sum(k * v for v, k in enumerate(counts))
        if best is None or total < best:
            best = total
    if best is None:
        raise ParamViolation("even b_i = m for every helper exceeds the budget")
    return best
