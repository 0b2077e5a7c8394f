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

Multiplication, inversion and powering use exp/log tables indexed by powers
of the smallest primitive element g, filled by multiply-by-x walks on the int
encoding: one walk of <x>, whose x-logs also find g, and when x is not
primitive one more walk per coset of <x> (at p = 2, products by powers of g
instead).  Odd-p addition uses Zech logarithms Z[n] = log(1 + g^n).
GF(p)-linear tables (traces, vectorizations) come from linear_table at O(1)
work per entry and are spot-checked.  The intended scale is q^ell <= 2^20,
settable via the RSREPAIR_MAX_FIELD_BITS environment variable.
"""

from __future__ import annotations

import functools
import operator
import os

from .errors import CrossCheckMismatch, ParamViolation

DEFAULT_MAX_FIELD_BITS = 20


def max_field_size() -> int:
    """Size cap on q^ell, from RSREPAIR_MAX_FIELD_BITS (default 2^20)."""
    value = os.environ.get("RSREPAIR_MAX_FIELD_BITS", DEFAULT_MAX_FIELD_BITS)
    try:
        bits = int(value)
    except ValueError:
        bits = -1
    if bits < 0:
        raise ParamViolation(f"RSREPAIR_MAX_FIELD_BITS must be a non-negative integer, got {value!r}")
    return 1 << bits


def _is_prime(n: int) -> bool:
    return n >= 2 and _factor(n) == [n]


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


def _pmod(f: list[int], m: list[int], p: int) -> list[int]:
    """f mod m over GF(p), with no zero leading coefficient."""
    f = [a % p for a in f]
    lead_inv = pow(m[-1], -1, p)
    while f and (f[-1] == 0 or len(f) >= len(m)):
        if c := f[-1] * lead_inv % p:
            shift = len(f) - len(m)
            for i, a in enumerate(m):
                f[shift + i] = (f[shift + i] - c * a) % p
        f.pop()
    return f


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test: x^(p^n) = x mod f and gcd(x^(p^(n/t)) - x, f) = 1."""
    n = len(f) - 1
    if n < 1 or f[-1] == 0:
        return False
    powers = [_pmod([0, 1], f, p)]  # x^(p^i) mod f; u(x)^p = u(x^p)
    for _ in range(n):
        u = [0] * (p * len(powers[-1]))
        u[::p] = powers[-1]
        powers.append(_pmod(u, f, p))
    if powers[n] != powers[0]:
        return False
    for t in _factor(n):
        u = powers[n // t] + [0, 0]
        u[1] -= 1  # x^(p^(n/t)) - x
        g, r = list(f), _pmod(u, f, p)
        while r:
            g, r = r, _pmod(g, r, p)
        if len(g) > 1:
            return False
    return True


def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    for low in range(p**degree):
        coeffs = [low // p**i % p for i in range(degree)] + [1]
        # a root r gives a factor x - r
        if degree > 1 and any(sum(c * r**i for i, c in enumerate(coeffs)) % p == 0 for r in range(p)):
            continue
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise CrossCheckMismatch(f"no irreducible of degree {degree} over GF({p})")


def spot_check(table, definition, what: str) -> None:
    """Compare a table with its definition at size - 1 (all digits nonzero)
    and at a fixed stride below; CrossCheckMismatch on a miss."""
    for x in range(len(table) - 1, 0, -(len(table) // 8 + 1)):
        if table[x] != definition(x):
            raise CrossCheckMismatch(f"{what} table disagrees with its definition at {x}")


def span_walk(steps, add, start=0) -> list:
    """Every start + sum over k of steps[k][c_k], one add per element.

    steps[k] lists the nonzero multiples c g_k of generator k, c in
    enumeration order; start comes first and steps[0] is the lowest digit
    of the index.  Elements may be anything add combines: field elements,
    bit-packed rows, lists or tuples of values.
    """
    span = [start]
    for mults in steps:
        span += [add(v, m) for m in mults for v in span]
    return span


def span_iter(steps, add, start, zero):
    """span_walk(steps, add, start), lazily and in the same order: a table
    of the lowest digits, at most 256 elements walked from zero, added to
    each element of the walk of the other digits."""
    k, size = 0, 1
    while k < len(steps) and size * (len(steps[k]) + 1) <= 256:
        size *= len(steps[k]) + 1
        k += 1
    low = span_walk(steps[:k], add, zero)
    for base in span_walk(steps[k:], add, start):
        for v in low:
            yield add(base, v)


# ---------------------------------------------------------------------------


class FieldTower:
    """F = GF(p^(a*ell)) with designated subfield B = GF(p^a).

    Exposes exact arithmetic on int-encoded elements, the q-Frobenius, the
    trace onto B and the absolute trace onto GF(p).  Not meant to be mutated;
    lazy internal tables are the only state that changes after construction.
    """

    def __init__(self, p: int, a: int, ell: int, modulus=None):
        if not _is_prime(p):
            raise ParamViolation(f"p = {p} is not prime")
        if a < 1 or ell < 1:
            raise ParamViolation("a and ell must be positive")
        self.p = p
        self.a = a
        self.ell = ell
        self.q = p**a
        self.degree = a * ell
        self.size = p**self.degree
        if self.size > max_field_size():
            raise ParamViolation(
                f"field size {p}^{self.degree} exceeds budget "
                f"(raise RSREPAIR_MAX_FIELD_BITS to override)"
            )
        if modulus is None:
            modulus = _smallest_irreducible(p, self.degree)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != self.degree + 1 or modulus[-1] != 1 or not all(0 <= c < p for c in modulus):
                raise ParamViolation(f"modulus must be monic of degree a*ell with digits in [0, {p})")
            if not _is_irreducible(list(modulus), p):
                raise ParamViolation("supplied modulus is reducible")
        self.modulus = tuple(modulus)
        if p == 2:  # bit-packed digits: XOR in place of the Zech methods
            self.add = self.sub = operator.xor
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
        """Table-free product, used only while building the exp table: the
        digits y_k of y weight the walk x X^k (X the polynomial variable)."""
        if self.p == 2:
            walk = self._x_walk(x, y.bit_length())
            return functools.reduce(operator.xor, (v for k, v in enumerate(walk) if y >> k & 1), 0)
        acc = [0] * self.degree
        for d, v in zip(self.coords(y), self._x_walk(x, self.degree)):
            if d:
                acc = [s + d * c for s, c in zip(acc, self.coords(v))]
        return self.element(acc)

    def _pow_raw(self, x: int, e: int) -> int:
        """x^e in popcount(e) + bit_length(e) - 2 products: r starts as x
        at the lowest set bit, and no square passes the top bit."""
        if not e:
            return 1
        while not e & 1:
            x, e = self._mul_raw(x, x), e >> 1
        r = x
        while e := e >> 1:
            x = self._mul_raw(x, x)
            if e & 1:
                r = self._mul_raw(r, x)
        return r

    def _x_walk(self, v: int, n: int) -> list[int]:
        """[v, v x, ..., v x^(n-1)], cut where the walk returns to v.  With c
        the top digit of v, v x is v p less c p^degree, with digits j <= e
        (the modulus's highest low term) made d_(j-1) - c m_j: a change read
        from A on c and the low digits of v, plus one from B on c and the
        next digits when A alone would pass 4096 entries."""
        p, (K, A, M, B), out, first = self.p, self._x_tables, [v], v
        top = self.size // p
        for _ in range(n - 1):
            c = v // top
            v = v * p + A[c * K + v % K] + (B[c * M + v // K % M] if B else 0)
            if v == first:
                break
            out.append(v)
        return out

    def _step_table(self, js) -> list[int]:
        """The change to v p over digits js in a step of _x_walk, indexed by
        the top digit c of v and then by digits j - 1 of v, low first; the
        table of digit 0 also takes off c p^degree."""
        p, m, table = self.p, self.modulus, []
        for c in range(p):
            part = [-c * self.size if 0 in js else 0]
            for j in js:
                digits = range(p) if j else [0]  # digit 0 of v p is 0
                part = [t + ((d - c * m[j]) % p - d) * p**j for d in digits for t in part]
            table += part
        return table

    def _build_mul_tables(self) -> None:
        """exp, log and Zech tables of the smallest primitive g.  One walk
        logs <x>, of order o and index h: c is primitive iff c^h = x^j with
        j prime to o and c^(h/t) lies outside <x> for each prime t | h that
        does not divide o.  At h = 1 that picks g = x = p and exp is the
        walk.  Otherwise exp walks the cosets g^c <x>, or at p = 2 doubles:
        exp[2^k:2^(k+1)] is exp[:2^k] times g^(2^k), each product the XOR
        of two lookups on the halves of the bits."""
        p, order, m = self.p, self.size - 1, self.modulus
        e = max((j for j, c in enumerate(m[:-1]) if c), default=0)
        k = e if p ** (e + 1) <= 4096 else (e + 1) // 2  # two tables for a dense modulus
        high = self._step_table(range(k + 1, e + 1)) if k < e else []
        self._x_tables = p**k, self._step_table(range(k + 1)), p ** (e - k), high

        def logs(values):
            log = [-1] * self.size
            for i, v in enumerate(values):
                log[v] = i
            return log

        if self.degree == 1:  # the modulus may be x itself: x = 0, no walk
            def primitive(c):
                return all(pow(c, order // t, p) != 1 for t in _factor(order))
        else:
            walk = self._x_walk(1, self.size)
            o, log = len(walk), logs(walk)
            h = order // o
            if h * o != order:
                raise CrossCheckMismatch(f"the walk of x does not close in {order} steps")

            def primitive(c):
                j = log[self._pow_raw(c, h)]  # c^h = x^j
                if j < 0 or any(j % t == 0 for t in _factor(o)):
                    return False
                return all(log[self._pow_raw(c, h // t)] < 0 for t in _factor(h) if o % t)
        g = next((c for c in range(1, self.size) if primitive(c)), None)
        if g is None:  # cannot happen for a true field
            raise CrossCheckMismatch("no primitive element found; modulus not irreducible?")
        self.generator = g
        if self.degree == 1:
            exp = [pow(g, i, p) for i in range(order)]
        elif h == 1:
            exp = walk  # g = x: log is the walk's
        elif p == 2:  # exp[2^k:2^(k+1)] = exp[:2^k] y, y = g^(2^k)
            half, exp, y = self.degree // 2, [1], g
            for _ in range(self.degree):
                walk = self._x_walk(y, self.degree)  # y times each bit
                lo = span_walk([[w] for w in walk[:half]], operator.xor)
                hi = span_walk([[w] for w in walk[half:]], operator.xor)
                mask = len(lo) - 1
                exp += [lo[v & mask] ^ hi[v >> half] for v in exp]
                y = lo[y & mask] ^ hi[y >> half]
            exp.pop()  # g^order = 1
        else:
            j0, exp = log[self._pow_raw(g, h)], [0] * order  # g^h = x^j0
            for c in range(h):  # coset g^c <x>: g^(c + h i) = g^c x^(i j0)
                if c:
                    rep = self._mul_raw(rep, g) if c > 1 else g
                    walk = self._x_walk(rep, o)
                exp[c::h] = walk if j0 == 1 else [walk[i * j0 % o] for i in range(o)]
        if self.degree == 1 or h > 1:
            log = logs(exp)
        if log[0] != -1 or log.count(-1) != 1:
            raise CrossCheckMismatch("exp is not a permutation of F*")
        self.exp = exp
        self.log = log
        if p > 2:  # Z[n] = log(1 + g^n); -1 where g^n = -1
            self._zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]

    # -- ring operations ---------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if not (x and y):
            return x or y
        lx, order = self.log[x], self.order
        z = self._zech[(self.log[y] - lx) % order]
        return self.exp[(lx + z) % order] if z >= 0 else 0

    def neg(self, x: int) -> int:
        if self.p == 2 or not x:
            return x
        return self.exp[(self.log[x] + self.order // 2) % self.order]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % self.order]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ParamViolation("0 has no inverse")
        return self.exp[-self.log[x] % self.order]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ParamViolation("0 has no negative powers")
            return 0
        return self.exp[(self.log[x] * e) % self.order]

    def frobenius(self, x: int, k: int = 1) -> int:
        """q-power Frobenius iterate: x -> x^(q^k); k may be negative."""
        return self.pow(x, self.q ** (k % self.ell))

    # -- traces ------------------------------------------------------------

    def linear_table(self, images) -> list[int]:
        """Table of the GF(p)-linear map p^k -> images[k]: the span walk of
        the images over GF(p).  Values add in F: XOR for p = 2, so
        bit-packed rows work too."""
        steps = [[self.mul(d, img) for d in range(1, self.p)] for img in images]
        return span_walk(steps, self.add)

    def _trace_table(self, step: int, count: int) -> list[int]:
        """Table of the trace x -> sum of x^(step^i), i in [0, count)."""
        def tr(x):
            return functools.reduce(self.add, (self.pow(x, step**i) for i in range(count)))
        table = self.linear_table([tr(self.p**k) for k in range(self.degree)])
        spot_check(table, tr, "trace")
        return table

    def trace_to_subfield(self, x: int) -> int:
        """Tr_{F/B}(x) = sum of x^(q^i), i in [0, ell); lands in B."""
        if self._tr_sub is None:
            self._tr_sub = self._trace_table(self.q, self.ell)
        return self._tr_sub[x]

    def absolute_trace(self, x: int) -> int:
        """Trace down to GF(p), returned as an int in [0, p)."""
        return (self._tr_abs or self.absolute_trace_table())[x]

    def absolute_trace_table(self) -> list[int]:
        """Absolute traces of all elements, indexed by the int encoding.

        Built once on first use; callers must not mutate the list.
        """
        if self._tr_abs is None:
            table = self._trace_table(self.p, self.degree)
            if max(table) >= self.p:
                raise CrossCheckMismatch("absolute trace left the prime field")
            self._tr_abs = table
        return self._tr_abs

    # -- subfields ---------------------------------------------------------

    def subfield_elements(self) -> tuple[int, ...]:
        """B as a sorted tuple of ints (sorted = enumeration order)."""
        return self.subfield(self.q)[0]

    def subfield(self, size: int) -> tuple[tuple[int, ...], int]:
        """Elements and a generator of the subfield of the given size.

        The size must be p^k with k dividing the degree (ParamViolation
        otherwise); the generator has multiplicative order size - 1.
        """
        if size in self._subfield_cache:
            return self._subfield_cache[size]
        try:
            p, k = split_prime_power(size)
        except ParamViolation:
            p = k = 0
        if p != self.p or self.degree % k:
            raise ParamViolation(f"no subfield of size {size} in field of size {self.size}")
        step = (self.size - 1) // (size - 1)
        gen = self.exp[step % self.order]
        els = {0, *self.exp[::step]}
        if len(els) != size:  # only a corrupted exp table gets here
            raise CrossCheckMismatch(f"no subfield of size {size} (generator order mismatch)")
        out = (tuple(sorted(els)), gen)
        self._subfield_cache[size] = out
        return out

    def subfield_gfp_basis(self, size: int) -> tuple[int, ...]:
        """A GF(p)-basis of the subfield of the given size: generator powers."""
        _, gen = self.subfield(size)
        return tuple(self.pow(gen, i) for i in range(split_prime_power(size)[1]))

    def subfield_coords(self) -> dict[int, int]:
        """B -> its coordinates over subfield_gfp_basis(q), as the a base-p
        digits of an int below q (each element itself at prime q): the
        inverse of the map's spot-checked linear_table."""
        gb = self.subfield_gfp_basis(self.q)
        els = self.linear_table(gb)
        spot_check(els, lambda i: functools.reduce(self.add, map(self.mul, self.coords(i), gb)), "subfield coordinates")
        return {x: i for i, x in enumerate(els)}

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

    # -- multiplicative structure -------------------------------------------

    def is_primitive(self, x: int) -> bool:
        if x == 0:
            return False
        return all(self.log[x] % t for t in _factor(self.order))

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
