"""Field tower arithmetic against small brute-force oracles."""

import functools
import itertools
import operator
import os
import random
import subprocess
import sys

import pytest

import rsrepair
from conftest import OracleTower, large, oracle_is_irreducible
from rsrepair import field_create, gf
from rsrepair.errors import CrossCheckMismatch, ParamViolation
from rsrepair.gf import BLOCK, FieldTower, span_blocks, span_walk, spot_check, split_prime_power


def _poly_mod(num, den, p):
    """Remainder of num by den over GF(p), coefficients low to high."""
    num = list(num)
    while len(num) >= len(den):
        lead = num[-1] % p
        if lead:
            shift = len(num) - len(den)
            inv = pow(den[-1], p - 2, p) if p > 2 else 1
            factor = (lead * inv) % p
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - factor * c) % p
        num.pop()
    while num and num[-1] % p == 0:
        num.pop()
    return num


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg / 2."""
    deg = len(poly) - 1
    for ddeg in range(1, deg // 2 + 1):
        for code in range(p**ddeg):
            den = []
            c = code
            for _ in range(ddeg):
                den.append(c % p)
                c //= p
            den.append(1)
            if not _poly_mod(poly, den, p):
                return False
    return True


def _smallest_irreducible(p, deg):
    for code in range(p**deg):
        poly = []
        c = code
        for _ in range(deg):
            poly.append(c % p)
            c //= p
        poly.append(1)
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("p,a,ell", [(2, 1, 4), (2, 1, 6), (3, 1, 2), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_modulus_is_smallest_irreducible(p, a, ell):
    tower = field_create(p, a, ell)
    assert tower.modulus == _smallest_irreducible(p, a * ell)


def test_gf16_modulus_and_generator():
    t = field_create(2, 1, 4)
    # x^4 + x + 1, and the polynomial variable itself generates the group
    assert t.modulus == (1, 1, 0, 0, 1)
    assert t.generator == 2
    assert t.exp[0] == 1 and t.exp[4] == t.add(2, 1)  # theta^4 = theta + 1


def test_field_axioms_random():
    rng = random.Random(11)
    for p, a, ell in [(2, 1, 5), (3, 1, 3), (2, 2, 2), (5, 1, 2)]:
        t = field_create(p, a, ell)
        for _ in range(200):
            x, y, z = (rng.randrange(t.size) for _ in range(3))
            assert t.add(x, y) == t.add(y, x)
            assert t.mul(x, y) == t.mul(y, x)
            assert t.mul(x, t.add(y, z)) == t.add(t.mul(x, y), t.mul(x, z))
            assert t.mul(t.mul(x, y), z) == t.mul(x, t.mul(y, z))
            assert t.add(x, t.neg(x)) == 0
            assert t.sub(x, y) == t.add(x, t.neg(y))
            if y:
                assert t.mul(y, t.inv(y)) == 1
                assert t.div(x, y) == t.mul(x, t.inv(y))


def test_exp_log_and_pow():
    t = field_create(2, 1, 6)
    for x in range(1, t.size):
        assert t.exp[t.log[x]] == x
        assert t.pow(x, t.order) == 1
        assert t.pow(x, -1) == t.inv(x)
    assert t.is_primitive(t.generator)
    # generator order is exactly the group order
    seen = {t.pow(t.generator, e) for e in range(t.order)}
    assert len(seen) == t.order


@pytest.mark.parametrize("p,a,ell", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_pow_raw_squares_no_further_than_the_top_bit(p, a, ell):
    t = field_create(p, a, ell)
    products = []
    mul_raw = t._mul_raw
    t._mul_raw = lambda x, y: products.append(1) or mul_raw(x, y)
    for e in range(1, 3 * t.order):
        products.clear()
        assert t._pow_raw(t.generator, e) == t.pow(t.generator, e)
        assert len(products) == e.bit_count() + e.bit_length() - 2, e
    assert t._pow_raw(t.generator, 0) == 1


def test_frobenius():
    rng = random.Random(5)
    for p, a, ell in [(2, 1, 4), (3, 1, 3), (2, 2, 2)]:
        t = field_create(p, a, ell)
        for _ in range(100):
            x, y = rng.randrange(t.size), rng.randrange(t.size)
            assert t.frobenius(x, 1) == t.pow(x, t.q)
            assert t.frobenius(t.add(x, y), 1) == t.add(t.frobenius(x, 1), t.frobenius(y, 1))
            k = rng.randrange(-4, 8)
            assert t.frobenius(t.frobenius(x, k), -k) == x
        assert all(t.frobenius(x, t.ell) == x for x in range(t.size))


def test_trace_properties():
    for p, a, ell in [(2, 1, 4), (3, 1, 2), (2, 2, 3)]:
        t = field_create(p, a, ell)
        subfield = set(t.subfield_elements())
        zeros = 0
        for x in range(t.size):
            tr = t.trace_to_subfield(x)
            assert tr in subfield
            # direct power sum definition
            acc = 0
            for i in range(t.ell):
                acc = t.add(acc, t.pow(x, t.q**i))
            assert tr == acc
            if tr == 0:
                zeros += 1
            assert 0 <= t.absolute_trace(x) < t.p
        assert zeros == t.q ** (t.ell - 1)


def test_subfield():
    t = field_create(2, 1, 4)
    elems, gen = t.subfield(4)
    assert len(elems) == 4
    for x in elems:
        assert t.pow(x, 4) == x
    assert gen in elems and t.pow(gen, 3) == 1 and gen != 1


def _towers_up_to(size):
    """(p, a, ell) of every tower with p^(a ell) <= size."""
    primes = [p for p in range(2, size + 1) if all(p % f for f in range(2, p))]
    return [(p, a, ell) for p in primes for a in range(1, 10) for ell in range(1, 10) if p ** (a * ell) <= size]


def test_subfield_sizes_are_the_subfields():
    # accepted exactly when size = p^k with k | degree, on every tower up to 729
    for p, a, ell in _towers_up_to(729):
        t = field_create(p, a, ell)
        subfields = {p**k: k for k in range(1, t.degree + 1) if t.degree % k == 0}
        for size in range(2, t.size + 1):
            if size in subfields:
                elems, gen = t.subfield(size)
                assert len(elems) == size and t.is_primitive(gen) == (size == t.size)
                assert len(t.subfield_gfp_basis(size)) == subfields[size]
            else:
                with pytest.raises(ValueError, match="no subfield"):
                    t.subfield(size)
                with pytest.raises(ValueError, match="no subfield"):
                    t.subfield_gfp_basis(size)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_arithmetic_exhaustive(p):
    # FieldTower(p, 1, 1) against the integers mod p, without special cases
    t = FieldTower(p, 1, 1)
    els = range(p)
    for x in els:
        for y in els:
            assert t.add(x, y) == (x + y) % p and t.sub(x, y) == (x - y) % p
            assert t.mul(x, y) == x * y % p == t.mul(y, x)
            for z in els:
                assert t.mul(x, t.add(y, z)) == t.add(t.mul(x, y), t.mul(x, z))
                assert t.mul(t.mul(x, y), z) == t.mul(x, t.mul(y, z))
        assert t.add(x, 0) == t.mul(x, 1) == x and t.add(x, t.neg(x)) == 0
        if x:
            assert t.inv(x) == pow(x, -1, p) and t.mul(x, t.inv(x)) == 1
            assert all(t.pow(x, e) == pow(x, e, p) for e in range(-2 * p, 2 * p))
            order = next(k for k in range(1, p) if pow(x, k, p) == 1)
            assert t.is_primitive(x) == (order == p - 1)
    assert not t.is_primitive(0) and t.pow(0, 0) == 1
    assert t.subfield(p) == (tuple(els), t.generator) and t.subfield_gfp_basis(p) == (1,)


def test_coords_roundtrip():
    for p, a, ell in [(2, 1, 4), (3, 1, 3)]:
        t = field_create(p, a, ell)
        for x in range(t.size):
            assert t.element(t.coords(x)) == x


def test_invalid_parameters():
    with pytest.raises(ParamViolation, match="p = 6 is not prime"):
        field_create(6, 1, 2)
    with pytest.raises(ParamViolation, match="exceeds budget"):
        field_create(2, 1, 25)  # over the default 20 bit cap


def test_json_roundtrip():
    from rsrepair.gf import FieldTower

    t = field_create(3, 1, 3)
    doc = t.to_json()
    t2 = FieldTower.from_json(doc)
    assert t2.modulus == t.modulus and t2.size == t.size
    assert t2.mul(5, 7) == t.mul(5, 7)


@pytest.mark.parametrize("modulus", [[3, 3, 0, 0, 3], [1, -1, 0, 0, 1], [1, 1, 0, 0, 1, 0], [1, 1, 0, 0, 0]])
def test_supplied_modulus_digits_in_range(modulus):
    # read mod 2, the first two would be x^4 + x + 1 again
    with pytest.raises(ValueError, match="modulus"):
        FieldTower(2, 1, 4, modulus=modulus)
    assert FieldTower(2, 1, 4, modulus=[1, 1, 0, 0, 1]).modulus == (1, 1, 0, 0, 1)


def test_split_prime_power():
    assert [split_prime_power(q) for q in (2, 3, 4, 8, 9, 25, 49, 97)] == [
        (2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (97, 1)]
    for q in (-4, 0, 1, 6, 12, 100):
        with pytest.raises(ParamViolation, match="prime power"):
            split_prime_power(q)


def _digitwise(p, deg, op):
    """table[x][y]: op(x_i, y_i) mod p digit by digit, a carry-free oracle
    for + and - on the int encoding, grown one low digit at a time."""
    table = [[0]]
    for _ in range(deg):
        n = len(table)
        table = [[op(x0, y0) % p + p * table[xh][yh] for yh in range(n) for y0 in range(p)]
                 for xh in range(n) for x0 in range(p)]
    return table


SMALL_TOWERS = [(p, a, ell) for p in (2, 3, 5, 7) for a in (1, 2) for ell in range(1, 10)
                if p ** (a * ell) <= 729]


@pytest.mark.parametrize("p,a,ell", SMALL_TOWERS)
def test_add_sub_neg_exhaustive(p, a, ell):
    t = field_create(p, a, ell)
    plus = _digitwise(p, t.degree, operator.add)
    minus = _digitwise(p, t.degree, operator.sub)
    r = range(t.size)
    for x in r:
        assert [t.add(x, y) for y in r] == plus[x]
        assert [t.sub(x, y) for y in r] == minus[x]
    assert [t.neg(x) for x in r] == minus[0]


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


# degree 1 (modulus x, so x = 0), x not primitive (GF(2^12), GF(3^8)), a = 2
@pytest.mark.parametrize("p,a,ell", [(3, 1, 1), (5, 1, 1), (7, 1, 1), (2, 1, 12), (3, 1, 8),
                                     (5, 1, 4), (7, 1, 3), (2, 2, 3), (3, 2, 2)])
def test_exp_is_powers_of_generator(p, a, ell):
    t = field_create(p, a, ell)
    digits = lambda x: [x // p**k % p for k in range(t.degree)]
    power, g = [1], digits(t.generator)
    for i in range(t.order):
        assert t.exp[i] == sum(c * p**k for k, c in enumerate(power))
        power = _poly_mod(_poly_mul(power, g, p), t.modulus, p)
    assert power == [1]


def test_irreducibility_matches_the_oracles():
    # every coefficient list up to degree 8 at p = 2, 5 at p = 3 and 3 at p = 5,
    # against Rabin's test on the old helpers and (monic) trial division
    for p, top in [(2, 8), (3, 5), (5, 3)]:
        for degree in range(top + 1):
            for f in itertools.product(range(p), repeat=degree + 1):
                got = gf._is_irreducible(list(f), p)
                assert got == oracle_is_irreducible(list(f), p), (f, p)
                if degree and f[-1] == 1:
                    assert got == _is_irreducible(list(f), p), (f, p)


def _tables(t):
    return t.modulus, t.generator, t.exp, t.log, getattr(t, "_zech", None)


# every tower with p <= 13 and p^(a ell) <= 2^12, then the towers where x is
# not primitive: GF(2^12), GF(2^16) and GF(3^8)
ORACLE_TOWERS = [(p, a, ell) for p in (2, 3, 5, 7, 11, 13) for a in range(1, 13) for ell in range(1, 13)
                 if p ** (a * ell) <= 1 << 12] + [(2, 1, 16), (3, 1, 8)]


@pytest.mark.parametrize("p,a,ell", ORACLE_TOWERS)
def test_tables_match_the_table_free_oracle(p, a, ell):
    assert _tables(FieldTower(p, a, ell)) == _tables(OracleTower(p, a, ell))


@pytest.mark.parametrize("p,degree", [(2, 12), (3, 8), (5, 4), (13, 3)])
def test_dense_modulus_tables_match_the_oracle(p, degree):
    # the first irreducible with every low coefficient nonzero: its x-step
    # tables stay within 4096 entries, although every low term is nonzero
    modulus = next(m for m in (list(c) + [1] for c in itertools.product(range(1, p), repeat=degree))
                   if gf._is_irreducible(m, p))
    t = FieldTower(p, 1, degree, modulus=modulus)
    assert _tables(t) == _tables(OracleTower(p, 1, degree, modulus=modulus))
    assert all(len(table) <= 4096 for table in t._x_tables[1::2])


@large  # GF(2^20), GF(3^12), GF(7^7)
@pytest.mark.parametrize("p,ell", [(2, 20), (3, 12), (7, 7)])
def test_large_tables_match_the_oracle(p, ell):
    assert _tables(FieldTower(p, 1, ell)) == _tables(OracleTower(p, 1, ell))


def test_exp_walk_edge_towers():
    for p in (3, 5, 7):
        assert field_create(p, 1, 1).modulus == (0, 1)  # x itself: x = 0
    t = field_create(3, 1, 8)
    assert t.generator == 38 and not t.is_primitive(3)  # x = 3 is not primitive
    assert sorted(t.exp) == list(range(1, t.size))


@large  # GF(3^12)
def test_large_odd_tower_log_inverts_exp():
    t = field_create(3, 1, 12)
    assert all(t.log[v] == i for i, v in enumerate(t.exp))
    assert len(set(t.exp)) == t.order


def test_spot_check_catches_a_wrong_image():
    # a wrong image of 1 shows at size - 1, where every digit is nonzero
    t = field_create(3, 1, 3)
    bad = t.span([t.add(1, 1)] + [t.absolute_trace(3**k) for k in range(1, 3)], 3)
    with pytest.raises(CrossCheckMismatch, match="definition at 26"):
        spot_check(bad, t.absolute_trace, "absolute trace")


def test_trace_tables_are_spot_checked(corrupt_first_image):
    for p, a, ell in [(2, 1, 4), (3, 1, 3), (2, 2, 2)]:
        fresh = FieldTower(p, a, ell)
        with pytest.raises(CrossCheckMismatch):
            fresh.trace_to_subfield(0)
        with pytest.raises(CrossCheckMismatch):
            fresh.absolute_trace_table()
        assert fresh._tr_sub is None and fresh._tr_abs is None


@pytest.mark.parametrize("params,size", [
    ((2, 1, 6), 2), ((2, 1, 6), 4), ((2, 1, 6), 8), ((2, 2, 3), None), ((2, 2, 3), 8),
    ((3, 1, 4), 3), ((3, 1, 4), 9), ((3, 2, 2), None), ((3, 2, 2), 3),
])
def test_span_is_the_literal_enumeration(params, size):
    # every coefficient vector over the subfield in product order, gens[0]
    # the lowest digit, with and without a start
    t = field_create(*params)
    rng = random.Random(7)
    gens = [rng.randrange(t.size) for _ in range(3)]
    scalars = t.subfield(size or t.q)[0]
    for start in (0, rng.randrange(1, t.size)):
        want = [functools.reduce(t.add, map(t.mul, cs[::-1], gens), start)
                for cs in itertools.product(scalars, repeat=len(gens))]
        assert t.span(gens, size, start) == want
    assert t.span([], size, start) == [start]


def test_span_blocks_is_span_walk_in_order():
    # spans of 3^7 and 2^12 elements, past the BLOCK-sized table of low
    # digits, and spans within one block; GF(3) digit vectors packed base 10,
    # so every element is distinct
    add = lambda v, w: sum((v // 10**i % 10 + w // 10**i % 10) % 3 * 10**i for i in range(7))
    for k, size in ((7, 243), (4, 81)):
        steps = [[c * 10**i for c in (1, 2)] for i in range(k)]
        blocks = list(span_blocks(steps, add, 1111111))
        assert [len(b) for b in blocks] == [size] * (3**k // size)
        assert sum(blocks, []) == span_walk(steps, add, 1111111)
    for k, size in ((12, BLOCK), (10, BLOCK), (3, 8)):
        steps = [[1 << i] for i in range(k)]
        blocks = list(span_blocks(steps, operator.xor, 0b1011))
        assert [len(b) for b in blocks] == [size] * (2**k // size)
        assert sum(blocks, []) == span_walk(steps, operator.xor, 0b1011)
    assert list(span_blocks([], operator.xor, 5)) == [[5]]


def test_subfield_gfp_basis_is_cached_per_size():
    t = FieldTower(2, 2, 3)
    for size in (2, 4, 8, 64):
        assert t.subfield_gfp_basis(size) is t.subfield_gfp_basis(size)
    assert sorted(t._gfp_basis_cache) == [2, 4, 8, 64]
    assert t.subfield_gfp_basis(4) == (1, t.subfield(4)[1])


# GF(2^4) tables built from x^4 + x^3 + 1 while the tower reports x^4 + x + 1,
# or the right tables with exp[-1] and exp[-2] swapped past the permutation check
_WRONG_TABLES = (
    "from rsrepair.gf import FieldTower\n"
    "build = FieldTower._build_mul_tables\n"
    "def wrong(self):\n"
    "    reported, self.modulus = self.modulus, {} or self.modulus\n"
    "    build(self)\n"
    "    self.modulus = reported\n"
    "    if {}:\n"
    "        self.exp[-1], self.exp[-2] = self.exp[-2], self.exp[-1]\n"
    "FieldTower._build_mul_tables = wrong\n"
)
_TOWER_BREAKS = {
    "modulus": (_WRONG_TABLES.format((1, 0, 0, 1, 1), False), "modulus identity"),
    "exp": (_WRONG_TABLES.format(None, True), "exp table disagrees with the schoolbook product at 14"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("kind", sorted(_TOWER_BREAKS))
def test_tower_witness_catches_wrong_tables(monkeypatch, kind, flags):
    prefix, message = _TOWER_BREAKS[kind]
    assert FieldTower(2, 1, 4).modulus == (1, 1, 0, 0, 1)
    monkeypatch.setattr(FieldTower, "_build_mul_tables", FieldTower._build_mul_tables)  # undone after
    exec(prefix, {})
    with pytest.raises(CrossCheckMismatch, match=message):
        FieldTower(2, 1, 4)
    monkeypatch.undo()
    # checks, not asserts: -O keeps them, and the CLI exits 2
    script = "import sys\n" + prefix + "from rsrepair.cli import main\nsys.exit(main(['field', '--q', '2', '--ell', '4']))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("cross-check mismatch: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
