"""Reed-Solomon codes evaluated on a B-linear set of points.

RS(A, k) = {(f(a_1), ..., f(a_n)) : deg f <= k - 1} with the a_i enumerated
from the subspace A (so a_1 = 0 and n = q^dim A).  When A is B-linear the
dual code is RS(A, n - k); dual_inner_product_check verifies that identity
numerically rather than assuming it.
"""

from __future__ import annotations

import random

from . import linalg
from .errors import DegreeTooHigh, ParamViolation
from .gf import FieldTower
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

    def encode(self, coeffs) -> list[int]:
        coeffs = list(coeffs)
        if len(coeffs) > self.k:
            raise DegreeTooHigh(f"message degree {len(coeffs) - 1} >= k = {self.k}")
        return [self.eval_poly(coeffs, a) for a in self.points]

    def random_codeword(self, seed: int) -> list[int]:
        """Seeded uniform codeword: k coefficients drawn from F."""
        rng = random.Random(seed)
        coeffs = [rng.randrange(self.tower.size) for _ in range(self.k)]
        return self.encode(coeffs)

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
