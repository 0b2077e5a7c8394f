"""Reed-Solomon codes evaluated on a B-linear set of points.

RS(A, k) = {(f(a_1), ..., f(a_n)) : deg f <= k - 1} with the a_i enumerated
from the subspace A (so a_1 = 0 and n = q^dim A).  When A is B-linear the
dual code is RS(A, n - k); dual_inner_product_check verifies that identity
numerically rather than assuming it.

evaluate (so encode) runs a remainder tree over the cosets of A, about
(q - 1) n (d^2 / 4 + d) field steps against n k for Horner: for A_j =
span(g_0..g_{j-1}), g in Subspace.enumerate's digit order, the subspace
polynomial L_j is q-linearized with j + 1 terms, and the coset s + A_j has
the product L_j - L_j(s).  encode spot-checks it against eval_poly (Horner),
which stays the independent oracle of the repair plan's target rows and the
dual codeword; eval_block runs the same rule over a block of points for the
direct metric route and the node walk's fallback.
"""

from __future__ import annotations

import random

from . import linalg
from .errors import ParamViolation
from .gf import BLOCK, FieldTower, spot_check
from .subspace import Subspace


class RSCode:
    def __init__(self, A: Subspace, k: int):
        self.A = A
        self.tower: FieldTower = A.tower
        self.k = int(k)
        self.points = tuple(A.enumerate())
        self.n = len(self.points)
        if not 1 <= self.k < self.n:
            raise ParamViolation(f"need 1 <= k < n, got k={k}, n={self.n}")
        self._levels = None

    @property
    def r(self) -> int:
        """Redundancy n - k; repair polynomials must have degree < r."""
        return self.n - self.k

    def eval_poly(self, coeffs, x: int) -> int:
        """Evaluate sum coeffs[i] x^i (low to high) by Horner's rule."""
        if not x:
            return coeffs[0] if coeffs else 0
        t = self.tower
        exp, log = t.exp, t.log
        lx = log[x] - t.order  # log[acc] + lx < 0 indexes exp from the end: no %
        acc = 0
        if t.p == 2:
            for c in reversed(coeffs):
                acc = (exp[log[acc] + lx] if acc else 0) ^ c
        else:
            add = t.add
            for c in reversed(coeffs):
                acc = add(exp[log[acc] + lx] if acc else 0, c)
        return acc

    def eval_block(self, coeffs, xs) -> list[int]:
        """[eval_poly(coeffs, x) for x in xs]: Horner over the whole block,
        one list comprehension per coefficient, on logs of the points (XOR
        inline at p = 2, Zech logarithms inline otherwise)."""
        coeffs, t = list(coeffs), self.tower
        if not coeffs:
            return [0] * len(xs)
        exp, log, order = t.exp, t.log, t.order
        lxs = [log[x] - order if x else -order for x in xs]  # fixed up below at x = 0
        acc = [coeffs[-1]] * len(xs)
        for c in reversed(coeffs[:-1]):
            if not c:
                acc = [exp[log[a] + lx] if a else 0 for a, lx in zip(acc, lxs)]
            elif t.p == 2:
                acc = [exp[log[a] + lx] ^ c if a else c for a, lx in zip(acc, lxs)]
            else:  # a x + c = c (1 + a x / c): exp[lc + Z[log(a x) - lc]], 0 where Z = -1
                zech, lc = t._zech, log[c]
                acc = [(exp[lc + z - order] if (z := zech[(log[a] + lx - lc) % order]) >= 0 else 0) if a else c
                       for a, lx in zip(acc, lxs)]
        if 0 in xs:
            for k, x in enumerate(xs):
                if not x:
                    acc[k] = coeffs[0]
        return acc

    def point_blocks(self):
        """The points in node order, in slices of at most BLOCK."""
        return (self.points[s:s + BLOCK] for s in range(0, self.n, BLOCK))

    def _build_levels(self) -> list:
        """Per level j = d-1..0: q^j, the lower terms of the monic L_j as
        (q^i, log(-c) - order), and L_j on the cosets of A_j in point order
        as log - order (0 for 0)."""
        t = self.tower
        q, log = t.q, t.log
        vals = self.A.b_basis()[::-1]  # L_j(g_k), k = 0..d-1
        lam, levels = [1], []  # L_j = sum of lam[i] x^(q^i)
        for j in range(len(vals)):
            kap = t.span(vals[j:])
            levels.append((q**j, [(q**i, log[t.neg(c)] - t.order) for i, c in enumerate(lam[:-1]) if c],
                           [log[y] - t.order if y else 0 for y in kap]))
            v = t.pow(vals[j], q - 1)  # L_{j+1} = L_j^q - L_j(g_j)^(q-1) L_j
            vals = [t.sub(t.pow(w, q), t.mul(v, w)) for w in vals]
            lam = [t.sub(t.pow(a, q), t.mul(v, b)) for a, b in zip([0, *lam], [*lam, 0])]
        return levels[::-1]

    def evaluate(self, coeffs) -> list[int]:
        """f(a) at every point, in point order, for any f of degree < n."""
        if len(coeffs) > self.n:
            raise ParamViolation(f"degree {len(coeffs) - 1} >= n = {self.n}")
        if self._levels is None:
            self._levels = self._build_levels()
        t, n = self.tower, self.n
        q, exp, log, add, W = t.q, t.exp, t.log, t.add, n // t.q
        # r holds the remainders of the M cosets of A_(j+1), f alone at the
        # top: coefficient x of coset b at x M + b
        r = [*coeffs, *[0] * (n - len(coeffs))]
        for D, low, kap in self._levels:
            M = W // D
            # digit s of r in powers of L_j: divide from the top in chunks of
            # D - D/q coefficients, whose updates all land below the chunk
            for s in range(1, q):
                for hi in range(q * D, s * D, D // q - D):
                    lo = max(s * D, hi - D + D // q)
                    src = r[lo * M:hi * M]
                    for e, le in low:
                        a, b = (lo - D + e) * M, (hi - D + e) * M
                        r[a:b] = [add(x, exp[log[y] + le]) if y else x for x, y in zip(r[a:b], src)]
            new = [0] * n
            for c in range(q):  # child c of coset b is coset b q + c: Horner in its L_j(s)
                ks, acc = kap[c::q] * D, r[(q - 1) * W:]
                for s in range(q - 2, -1, -1):
                    acc = [add(x, exp[log[y] + k]) if y and k else x for x, y, k in zip(r[s * W:], acc, ks)]
                new[c::q] = acc
            r = new
        return r

    def encode(self, coeffs) -> list[int]:
        coeffs = list(coeffs)
        if len(coeffs) > self.k:
            raise ParamViolation(f"message degree {len(coeffs) - 1} >= k = {self.k}")
        values = self.evaluate(coeffs)
        spot_check(values, lambda i: self.eval_poly(coeffs, self.points[i]), "remainder-tree codeword")
        return values

    def dual_inner_product_check(self, trials: int, seed: int, basis=None) -> dict:
        """Sample c in RS(A,k) and g in RS(A,n-k); <g,c> must vanish over F.

        With a BasisPair, additionally checks the vectorized pairing
        sum_i phi_hat(g_i) . phi(c_i)^T = 0 over B.
        """
        t = self.tower
        rng = random.Random(seed)
        scalar_fail = 0
        vector_fail = 0
        for _ in range(trials):
            c = self.encode([rng.randrange(t.size) for _ in range(self.k)])
            gcoeffs = [rng.randrange(t.size) for _ in range(self.n - self.k)]
            g = [self.eval_poly(gcoeffs, a) for a in self.points]
            if linalg.dot(t, g, c) != 0:
                scalar_fail += 1
            if basis is not None:
                # phi_hat(g_i) . phi(c_i)^T = Tr(g_i c_i); the sum over i
                # must therefore vanish in B as well
                acc_b = 0
                for gi, ci in zip(g, c):
                    acc_b = t.add(acc_b, linalg.dot(t, basis.vectorize_dual(gi), basis.vectorize(ci)))
                if acc_b != 0:
                    vector_fail += 1
        return {
            "trials": trials,
            "scalar_failures": scalar_fail,
            "vectorized_failures": vector_fail,
            "passed": scalar_fail == 0 and vector_fail == 0,
        }
