import functools
import operator
import os
import random

import pytest

from rsrepair import Subspace, construction1, field_create
from rsrepair.errors import CrossCheckMismatch
from rsrepair.gf import FieldTower, _factor
from rsrepair.scheme import weight_identity

# ell = 12 and 14 table columns take a few seconds each; opt in via env
RUN_LARGE = os.environ.get("RSREPAIR_TEST_LARGE") == "1"
large = pytest.mark.skipif(not RUN_LARGE, reason="runs under RSREPAIR_TEST_LARGE=1")


def all_subspaces(tower):
    """Every B-linear subspace of the tower, found by closure growth.

    From each subspace, a candidate is spanned in only if no span made
    from that subspace so far contains it; each span marks its elements.
    """
    zero = Subspace.span(tower, [])
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for sub in frontier:
            basis = list(sub.b_basis())
            covered = bytearray(tower.size)
            for x in range(1, tower.size):
                if covered[x]:
                    continue
                bigger = Subspace.span(tower, basis + [x])
                for y in bigger.enumerate():
                    covered[y] = 1
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=lambda s: (s.dim, tuple(s.enumerate())))


def nz_via_weight(rows, tower):
    """Nonzero-column count of tuple rows over B via weight_identity, one
    walk per column: its entries c x, c in subfield_gfp_basis(q), packed by
    their GF(p) coordinates."""
    coords, scales = tower.subfield_coords(), tower.subfield_gfp_basis(tower.q)
    walk = weight_identity(tower, len(rows))
    return sum(walk([coords[tower.mul(c, x)] for c in scales for x in col])[0] for col in zip(*rows))


def trace_kernel(tower):
    """K = {x in F : Tr_{F/B}(x) = 0}; B-dimension ell - 1."""
    return Subspace.scaled_trace_kernel(1, tower)


def random_codeword(code, seed):
    """Seeded uniform codeword: k coefficients drawn from F."""
    rng = random.Random(seed)
    return code.encode([rng.randrange(code.tower.size) for _ in range(code.k)])


def w_hat(nf, i):
    """Upper m x t block of W_i of a normal form: rows 1..m, columns in
    support_set."""
    code = nf.scheme.code
    table = nf.scheme.basis.phi_hat_table()
    rows = [table[code.eval_poly(p, code.points[i - 1])] for p in nf.scheme.polys[: nf.m]]
    return [tuple(r[s - 1] for s in nf.support_set) for r in rows]


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmod(f, m, p):
    f = list(f)
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, p)
    while len(f) - 1 >= dm and f:
        c = (f[-1] * lead_inv) % p
        shift = len(f) - 1 - dm
        for i, a in enumerate(m):
            f[shift + i] = (f[shift + i] - c * a) % p
        _ptrim(f)
    return f


def _psub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % p
    return _ptrim(out)


def _pgcd(f, g, p):
    while g:
        f, g = g, _pmod(f, g, p)
    return f


def _pth_power(f, p):
    if not f:
        return []
    out = [0] * ((len(f) - 1) * p + 1)
    for j, a in enumerate(f):
        out[j * p] = a
    return out


def oracle_is_irreducible(f, p):
    """Rabin's test on coefficient lists: x^(p^n) = x mod f and
    gcd(x^(p^(n/t)) - x, f) = 1 for each prime t | n."""
    n = len(f) - 1
    if n < 1 or f[-1] == 0:
        return False
    x = _pmod([0, 1], f, p)
    u = x
    powers = {}
    for i in range(1, n + 1):
        u = _pmod(_pth_power(u, p), f, p)
        powers[i] = u
    if powers[n] != x:
        return False
    for t in _factor(n):
        g = _pgcd(_psub(powers[n // t], x, p), list(f), p)
        if len(g) - 1 != 0:
            return False
    return True


def oracle_smallest_irreducible(p, degree):
    """The first candidate, in the modulus order, that passes Rabin's test,
    with no other filter."""
    for low in range(p**degree):
        coeffs = []
        v = low
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if oracle_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise CrossCheckMismatch(f"no irreducible of degree {degree} over GF({p})")


class OracleTower(FieldTower):
    """A tower whose exp, log and Zech tables come from table-free
    arithmetic: the generator search powers each candidate with digit-walk
    products, the order of x comes from powering too, and exp is filled by
    one multiply-by-x walk per coset of <x>, each step reducing x^degree
    by the modulus term by term."""

    def __init__(self, p, a, ell, modulus=None):
        super().__init__(p, a, ell, modulus or oracle_smallest_irreducible(p, a * ell))

    def _mul_raw(self, x, y):
        if self.p == 2:
            walk = self._x_walk(x, y.bit_length())
            return functools.reduce(operator.xor, (v for k, v in enumerate(walk) if y >> k & 1), 0)
        acc = [0] * self.degree
        for d, v in zip(self.coords(y), self._x_walk(x, self.degree)):
            if d:
                acc = [s + d * c for s, c in zip(acc, self.coords(v))]
        return self.element(acc)

    def _pow_raw(self, x, e):
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    def _x_walk(self, v, n):
        p, out = self.p, [v]
        if p == 2:
            m, deg = sum(c << i for i, c in enumerate(self.modulus)), self.degree
            for _ in range(n - 1):
                v <<= 1
                if v >> deg:
                    v ^= m
                out.append(v)
            return out
        top = self.size // p
        low = [(p**j, c) for j, c in enumerate(self.modulus[:-1]) if c]
        for _ in range(n - 1):
            c, v = divmod(v, top)
            v *= p
            if c:
                for place, mc in low:
                    d = v // place % p
                    v += ((d - c * mc) % p - d) * place
            out.append(v)
        return out

    def _build_mul_tables(self):
        p, order = self.p, self.size - 1
        factors = _factor(order)
        g = next(c for c in range(1, self.size) if all(self._pow_raw(c, order // t) != 1 for t in factors))
        self.generator = g
        if self.degree == 1:
            exp = [pow(g, i, p) for i in range(max(order, 1))]
        else:
            o = order
            for t in factors:
                while o % t == 0 and self._pow_raw(p, o // t) == 1:
                    o //= t
            h = order // o
            walk = self._x_walk(1, o)
            j0 = walk.index(self._pow_raw(g, h))
            exp = [0] * order
            for c in range(h):
                if c:
                    walk = self._x_walk(self._mul_raw(walk[0], g), o)
                exp[c::h] = walk if j0 == 1 else [walk[i * j0 % o] for i in range(o)]
        log = [-1] * self.size
        for i, v in enumerate(exp):
            log[v] = i
        self.exp = exp
        self.log = log
        if p > 2:
            self._zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]


@pytest.fixture(scope="session")
def gf4():
    return field_create(2, 1, 2)


@pytest.fixture(scope="session")
def gf9():
    return field_create(3, 1, 2)


@pytest.fixture(scope="session")
def gf16():
    return field_create(2, 1, 4)


@pytest.fixture(scope="session")
def example1():
    """Construction 1 at ell = 4 with the pinned quadratic root."""
    return construction1(4, theta_strategy="paper_example")


@pytest.fixture
def corrupt_first_image(monkeypatch):
    """Shift the image of 1 by 1 in every linear table built: a wrong basis image."""
    original = FieldTower.linear_table
    monkeypatch.setattr(FieldTower, "linear_table",
                        lambda self, images: original(self, [self.add(images[0], 1), *images[1:]]))
