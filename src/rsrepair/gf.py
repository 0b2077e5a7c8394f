"""Arithmetic in field towers GF(p) <= B = GF(q) <= F = GF(q^ell), q = p^a.

Field elements are plain ints in [0, p^(a*ell)).  The int encodes the
element's coordinate vector over GF(p) in the polynomial basis of the
modulus, little-endian: digit i in base p is the coefficient of x^i.  For
p = 2 this is ordinary bit-packing.  Equality and serialization are defined
on the coordinate vector, hence on the int.

The modulus is chosen deterministically: the lexicographically smallest monic
irreducible polynomial of degree a*ell over GF(p), where coefficient vectors
are compared as base-p integers, low degree first.  Two towers built from the
same (p, a, ell) are therefore interchangeable.

Multiplication, inversion and powering run on exp/log tables built once from
the smallest primitive element; everything else (trace tables, vectorization
tables) is derived lazily.  The intended scale is q^ell <= 2^20, settable via
the RSREPAIR_MAX_FIELD_BITS environment variable.
"""

from __future__ import annotations

import functools
import math
import os

from .errors import CrossCheckMismatch, NoIrreducible, NotPrime, ParamViolation, TooLarge, ZeroScalar

DEFAULT_MAX_FIELD_BITS = 20


def max_field_size() -> int:
    """Size cap on q^ell, from RSREPAIR_MAX_FIELD_BITS (default 2^20)."""
    bits = int(os.environ.get("RSREPAIR_MAX_FIELD_BITS", DEFAULT_MAX_FIELD_BITS))
    return 1 << bits


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _factor(n: int) -> list[int]:
    """Distinct prime factors by trial division (n stays desk-scale)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def split_prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a; ParamViolation unless q is a prime power."""
    primes = _factor(q) if q >= 2 else []
    if len(primes) != 1:
        raise ParamViolation(f"q = {q} is not a prime power")
    p = primes[0]
    return p, next(a for a in range(1, q) if p**a == q)


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, low degree first


def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)

def _pmod(f: list[int], m: list[int], p: int) -> list[int]:
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


def _psub(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % p
    return _ptrim(out)


def _pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, _pmod(f, g, p)
    return f


def _pth_power(f: list[int], p: int) -> list[int]:
    """(sum a_j x^j)^p = sum a_j x^(jp) over GF(p)."""
    if not f:
        return []
    out = [0] * ((len(f) - 1) * p + 1)
    for j, a in enumerate(f):
        out[j * p] = a
    return out


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test: x^(p^n) = x mod f and gcd(x^(p^(n/t)) - x, f) = 1."""
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


def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    for low in range(p**degree):
        coeffs = []
        v = low
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise NoIrreducible(f"no irreducible of degree {degree} over GF({p})")


# ---------------------------------------------------------------------------


class FieldTower:
    """F = GF(p^(a*ell)) with designated subfield B = GF(p^a).

    Exposes exact arithmetic on int-encoded elements, the q-Frobenius, the
    trace onto B and the absolute trace onto GF(p).  Not meant to be mutated;
    lazy internal tables are the only state that changes after construction.
    """

    def __init__(self, p: int, a: int, ell: int, modulus=None):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if a < 1 or ell < 1:
            raise ValueError("a and ell must be positive")
        self.p = p
        self.a = a
        self.ell = ell
        self.q = p**a
        self.degree = a * ell
        self.size = p**self.degree
        if self.size > max_field_size():
            raise TooLarge(
                f"field size {p}^{self.degree} exceeds budget "
                f"(raise RSREPAIR_MAX_FIELD_BITS to override)"
            )
        if modulus is None:
            modulus = _smallest_irreducible(p, self.degree)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != self.degree + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree a*ell")
            if not _is_irreducible(list(modulus), p):
                raise NoIrreducible("supplied modulus is reducible")
        self.modulus = tuple(modulus)
        self._mod_int = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None
        self._build_mul_tables()
        self.order = self.size - 1
        if a > 1:
            self.subfield_generator = self.exp[self.order // (self.q - 1)]
        else:
            self.subfield_generator = None
        self._tr_sub = None
        self._tr_abs = None
        self._subfield_cache = {}

    # -- construction internals ------------------------------------------

    def _mul_raw(self, x: int, y: int) -> int:
        """Table-free product, used only while building the exp table."""
        if self.p == 2:
            m = self._mod_int
            deg = self.degree
            r = 0
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if (x >> deg) & 1:
                    x ^= m
            return r
        prod = _pmod(
            _pmul(self._int_to_poly(x), self._int_to_poly(y), self.p),
            list(self.modulus),
            self.p,
        )
        return self._poly_to_int(prod)

    def _pow_raw(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    def _int_to_poly(self, x: int) -> list[int]:
        out = []
        while x:
            out.append(x % self.p)
            x //= self.p
        return out

    def _poly_to_int(self, f: list[int]) -> int:
        r = 0
        for c in reversed(f):
            r = r * self.p + c
        return r

    def _build_mul_tables(self) -> None:
        order = self.size - 1
        factors = _factor(order) if order > 1 else []
        g = None
        for c in range(1, self.size):
            if all(self._pow_raw(c, order // t) != 1 for t in factors):
                g = c
                break
        if g is None:  # cannot happen for a true field
            raise NoIrreducible("no primitive element found; modulus not irreducible?")
        self.generator = g
        exp = [1] * max(order, 1)
        for i in range(1, order):
            exp[i] = self._mul_raw(exp[i - 1], g)
        log = [-1] * self.size
        for i, v in enumerate(exp):
            log[v] = i
        self.exp = exp
        self.log = log

    # -- ring operations ---------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        p = self.p
        r = 0
        mult = 1
        while x or y:
            r += ((x % p) + (y % p)) % p * mult
            x //= p
            y //= p
            mult *= p
        return r

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        p = self.p
        r = 0
        mult = 1
        while x:
            r += (p - x % p) % p * mult
            x //= p
            mult *= p
        return r

    def sub(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        order = self.order
        if order == 1:
            return 1
        return self.exp[(self.log[x] + self.log[y]) % order]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroScalar("0 has no inverse")
        if self.order == 1:
            return 1
        return self.exp[-self.log[x] % self.order]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroScalar("0 has no negative powers")
            return 0
        if self.order == 1:
            return 1
        return self.exp[(self.log[x] * e) % self.order]

    def frobenius(self, x: int, k: int = 1) -> int:
        """q-power Frobenius iterate: x -> x^(q^k); k may be negative."""
        return self.pow(x, self.q ** (k % self.ell))

    # -- traces ------------------------------------------------------------

    def _linear_table(self, base_values: list[int], combine) -> list[int]:
        """Extend a GF(p)-linear map from the power basis to all of F."""
        table = [0] * self.size
        p = self.p
        for k in range(self.degree):
            b = p**k
            table[b] = base_values[k]
            for d in range(2, p):
                table[d * b] = combine(table[(d - 1) * b], base_values[k])
        for v in range(1, self.size):
            x = v
            k = 0
            while x % p == 0:
                x //= p
                k += 1
            low = (x % p) * p**k
            if v == low:
                continue  # seeded above
            table[v] = combine(table[v - low], table[low])
        return table

    def trace_to_subfield(self, x: int) -> int:
        """Tr_{F/B}(x) = sum of x^(q^i), i in [0, ell); lands in B."""
        if self._tr_sub is None:
            base = []
            for k in range(self.degree):
                b = self.p**k
                t = 0
                for i in range(self.ell):
                    t = self.add(t, self.frobenius(b, i))
                base.append(t)
            self._tr_sub = self._linear_table(base, self.add)
        return self._tr_sub[x]

    def absolute_trace(self, x: int) -> int:
        """Trace down to GF(p), returned as an int in [0, p)."""
        table = self._tr_abs
        if table is None:
            table = self.absolute_trace_table()
        return table[x]

    def absolute_trace_table(self) -> list[int]:
        """Absolute traces of all elements, indexed by the int encoding.

        Built once on first use; callers must not mutate the list.
        """
        if self._tr_abs is None:
            p = self.p
            base = []
            for k in range(self.degree):
                b = p**k
                t = 0
                for i in range(self.degree):
                    t = self.add(t, self.pow(b, p**i))
                if t >= p:
                    raise CrossCheckMismatch("absolute trace left the prime field")
                base.append(t)
            self._tr_abs = self._linear_table(base, lambda u, v: (u + v) % p)
        return self._tr_abs

    # -- subfields ---------------------------------------------------------

    def subfield_elements(self) -> tuple[int, ...]:
        """B as a sorted tuple of ints (sorted = enumeration order)."""
        return self.subfield(self.q)[0]

    def subfield(self, size: int) -> tuple[tuple[int, ...], int]:
        """Elements and a generator of the subfield of the given size.

        The size must be q^m with m dividing ell; the generator has
        multiplicative order size - 1.
        """
        if size in self._subfield_cache:
            return self._subfield_cache[size]
        if size == 2 and self.size == 2:
            out = ((0, 1), 1)
            self._subfield_cache[size] = out
            return out
        if size < 2 or (self.size - 1) % (size - 1) != 0:
            raise ValueError(f"no subfield of size {size} in field of size {self.size}")
        step = (self.size - 1) // (size - 1)
        gen = self.exp[step % self.order]
        els = {0}
        v = 1
        for _ in range(size - 1):
            els.add(v)
            v = self.mul(v, gen)
        if len(els) != size:
            raise ValueError(f"no subfield of size {size} (generator order mismatch)")
        out = (tuple(sorted(els)), gen)
        self._subfield_cache[size] = out
        return out

    def subfield_gfp_basis(self, size: int) -> tuple[int, ...]:
        """A GF(p)-basis of the subfield of the given size: generator powers."""
        _, gen = self.subfield(size)
        dim = round(math.log(size, self.p))
        if self.p**dim != size:
            raise ValueError("subfield size is not a power of p")
        out = []
        v = 1
        for _ in range(dim):
            out.append(v)
            v = self.mul(v, gen)
        return tuple(out)

    # -- encoding ----------------------------------------------------------

    def coords(self, x: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.degree):
            out.append(x % p)
            x //= p
        return tuple(out)

    def element(self, coords) -> int:
        r = 0
        for c in reversed(list(coords)):
            r = r * self.p + int(c) % self.p
        return r

    def elements(self) -> range:
        return range(self.size)

    # -- multiplicative structure -------------------------------------------

    def is_primitive(self, x: int) -> bool:
        if x == 0:
            return False
        if self.order == 1:
            return True
        return all(self.pow(x, self.order // t) != 1 for t in _factor(self.order))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "a": self.a, "ell": self.ell, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, spec: dict) -> "FieldTower":
        return cls(spec["p"], spec["a"], spec["ell"], modulus=spec["modulus"])

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, a={self.a}, ell={self.ell})"


@functools.lru_cache(maxsize=None)
def field_create(p: int, a: int, ell: int) -> FieldTower:
    """Deterministic tower for (p, a, ell); cached, safe to share."""
    return FieldTower(p, a, ell)
