"""Two explicit repair schemes and the linearized-polynomial solver.

construction1: full-length binary codes with three parities.  Four quadratic
polynomials built from a primitive element theta and a cube root of unity
zeta hit the optimal I/O cost (n-1)ell - 2^ell; the remaining polynomials
are dual-basis constants.

construction2: codes on a d-dimensional evaluation set with r parities.
A q-polynomial L with prescribed image carves the evaluation set so that
every helper block W_hat_i is diagonal; I/O cost and bandwidth coincide at
(n-1)ell - m q^(d-1).
"""

from __future__ import annotations

import itertools

from . import linalg
from .basis import dual_basis
from .errors import CrossCheckMismatch, ParamViolation
from .gf import FieldTower, field_create, split_prime_power
from .rs import RSCode
from .scheme import NormalForm, RepairScheme
from .subspace import Subspace, b_rank


class QPolynomial:
    """L(x) = sum theta_j x^(q^j), a B-linear map on F."""

    def __init__(self, tower: FieldTower, coeffs):
        self.tower = tower
        self.coeffs = tuple(coeffs)
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ParamViolation("leading coefficient theta_t must be nonzero")

    @property
    def t(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        tw = self.tower
        acc = 0
        for j, theta in enumerate(self.coeffs):
            if theta:
                acc = tw.add(acc, tw.mul(theta, tw.frobenius(x, j)))
        return acc

    def gfp_matrix(self) -> list[list[int]]:
        """Matrix M over GF(p) with coords(L(x)) = M @ coords(x)."""
        tw = self.tower
        cols = [tw.coords(self(tw.p**k)) for k in range(tw.degree)]
        return [list(row) for row in zip(*cols)]

    def image(self) -> Subspace:
        tw = self.tower
        return Subspace.span(tw, [self(tw.p**k) for k in range(tw.degree)])

    def kernel(self) -> Subspace:
        return Subspace.solutions(self.tower, self.gfp_matrix())


def qpoly_annihilator(betas, tower: FieldTower) -> QPolynomial:
    """The q-polynomial whose image is the intersection of beta_i^(-1) K.

    Solves the t x (t+1) system whose rows are (beta_i, beta_i^q, ...,
    beta_i^(q^t)); the kernel is one-dimensional with nonzero first entry,
    and theta_(t-j) is recovered by unwinding j Frobenius twists.  The
    result is normalized so theta_t = 1.
    """
    betas = list(betas)
    t = len(betas)
    if not 1 <= t < tower.ell:
        raise ParamViolation(f"need 1 <= t < ell, got t = {t}")
    if b_rank(tower, betas) != t:
        raise ParamViolation("the beta_i must be independent over B")
    rows = [[tower.frobenius(b, j) for j in range(t + 1)] for b in betas]
    ker = linalg.right_kernel(tower, rows, t + 1)
    if len(ker) != 1 or ker[0][0] == 0:
        raise CrossCheckMismatch("Moore system kernel is not the expected line")
    scale = tower.inv(ker[0][0])
    v = [tower.mul(scale, entry) for entry in ker[0]]
    theta = [0] * (t + 1)
    for j in range(t + 1):
        theta[t - j] = tower.frobenius(v[j], -j)
    return QPolynomial(tower, theta)


def _extend_basis(tower: FieldTower, fixed) -> list[int]:
    """Greedily grow a B-basis of F from the given elements, in int order."""
    fixed = list(fixed)
    picked = linalg.independent(tower, itertools.chain(fixed, range(1, tower.size)), tower.ell)
    if picked[: len(fixed)] != fixed:
        raise ParamViolation("starting elements are dependent over B")
    return picked


def _cube_root_of_unity(tower: FieldTower) -> int:
    step = tower.order // 3
    return min(tower.exp[step], tower.exp[2 * step])


def _claim_normal_form(scheme: RepairScheme, m: int) -> None:
    """Attach the claimed (m, m) normal form, checking its support is 1..m."""
    nf = NormalForm(scheme, m)
    if nf.support_set != tuple(range(1, m + 1)):
        raise CrossCheckMismatch(f"derived support set {nf.support_set} is not the claimed 1..{m}")
    scheme.normal_form = nf


THETA_STRATEGIES = ("auto", "paper_example", "search")


def _check_c1_params(ell: int, theta_strategy: str) -> None:
    if ell % 2 or ell < 4:
        raise ParamViolation("construction1 needs even ell >= 4")
    if theta_strategy not in THETA_STRATEGIES:
        raise ParamViolation(f"unknown theta strategy {theta_strategy!r}")
    if theta_strategy == "paper_example" and ell != 4:
        raise ParamViolation("the pinned theta exists only at ell = 4")


def construction1(ell: int, theta_strategy: str = "auto"):
    """Full-length binary scheme with three parities, (4, 4)-normalized.

    theta_strategy picks the primitive element: "paper_example" takes the
    smaller root of x^2 + x + zeta (defined only at ell = 4), "search"
    scans primitive elements in int order for one making the four derived
    betas independent, "auto" uses the root at ell = 4 and the scan above.
    """
    _check_c1_params(ell, theta_strategy)
    t = field_create(2, 1, ell)
    zeta = _cube_root_of_unity(t)

    def sq(x: int) -> int:
        return t.mul(x, x)

    def betas_of(theta: int):
        inner = t.add(t.add(sq(theta), t.mul(t.add(zeta, 1), theta)), 1)
        return [sq(inner), sq(t.mul(zeta, theta)), 1, sq(t.add(theta, 1))]

    if theta_strategy == "auto":
        theta_strategy = "paper_example" if ell == 4 else "search"
    if theta_strategy == "paper_example":
        roots = [x for x in range(t.size)
                 if t.add(t.add(t.mul(x, x), x), zeta) == 0]
        roots = [x for x in roots if t.is_primitive(x)]
        if not roots:
            raise ParamViolation("no primitive root of x^2 + x + zeta")
        theta = min(roots)
    else:
        theta = None
        for x in range(2, t.size):
            if t.is_primitive(x) and b_rank(t, betas_of(x)) == 4:
                theta = x
                break
        if theta is None:
            raise ParamViolation("no primitive element gives independent betas")

    beta = _extend_basis(t, betas_of(theta))
    bp = dual_basis(beta, t)
    gamma = bp.gamma
    eta = (1, zeta, t.mul(zeta, theta), theta)
    lam = tuple(
        t.mul(t.mul(e, e), beta[0] if j < 2 else beta[1])
        for j, e in enumerate(eta)
    )
    omega = (
        gamma[2],
        t.add(gamma[1], gamma[3]),
        t.add(gamma[0], gamma[2]),
        gamma[3],
    )
    polys = [[omega[j], eta[j], lam[j]] for j in range(4)]
    polys += [[gamma[j]] for j in range(4, ell)]
    code = RSCode(Subspace.full_field(t), 2**ell - 3)
    scheme = RepairScheme(code, bp, polys, target=1)
    _claim_normal_form(scheme, 4)
    return bp, scheme


def _check_c2_params(q: int, ell: int, d: int, s: int, m: int, r: int) -> tuple[int, int]:
    p, a = split_prime_power(q)
    if ell < 2:
        raise ParamViolation("need ell >= 2")
    if not 1 <= d <= ell:
        raise ParamViolation(f"need 1 <= d <= ell, got d={d}, ell={ell}")
    if s < 0 or s >= d:
        raise ParamViolation(f"need 0 <= s < d, got s={s}, d={d}")
    if s > 0 and d == ell:
        raise ParamViolation("s > 0 requires d < ell")
    if m < 1 or ell % m:
        raise ParamViolation(f"need m | ell, got m={m}, ell={ell}")
    if m > ell - d + s + 1:
        raise ParamViolation(f"need m <= ell-d+s+1 = {ell - d + s + 1}, got {m}")
    if r < q**s + 1:
        raise ParamViolation(f"need r >= q^s + 1 = {q ** s + 1}, got {r}")
    if q**d - r < 1:
        raise ParamViolation("need k = q^d - r >= 1")
    return p, a


def construction2(q: int, ell: int, d: int, s: int, m: int, r: int):
    """Scheme on a d-dimensional evaluation set, (m, m)-normalized.

    The dual basis is compound: gamma^((i-1)m+j) = lambda_i gamma^(j) with
    the gamma^(j) a basis of the q^m-element subfield over B and the
    lambda_i a basis of F over that subfield, both grown greedily from 1.
    L annihilates nothing (s = 0, L = x) or has image cutting the first s
    scaled trace kernels; the evaluation set is the preimage of W.
    """
    p, a = _check_c2_params(q, ell, d, s, m, r)
    t = field_create(p, a, ell)
    # bases of the q^m subfield over B and of F over it, grown from 1
    gamma_small = linalg.independent(t, t.subfield(q**m)[0][1:], m)
    lams = linalg.independent(t, range(1, t.size), ell // m, q**m)
    if gamma_small[0] != 1 or lams[0] != 1:
        raise CrossCheckMismatch("subfield bases must start at 1")
    gamma = [t.mul(li, gj) for li in lams for gj in gamma_small]
    bp = dual_basis(gamma, t).swapped()
    beta = bp.beta

    if s == 0:
        L = QPolynomial(t, [1])
    else:
        L = qpoly_annihilator(beta[1 : s + 1], t)
    kernels = [Subspace.scaled_trace_kernel(beta[i], t)
               for i in range(1, ell - d + s + 1)]
    if kernels:
        W = kernels[0].intersect(*kernels[1:])
    else:
        W = Subspace.full_field(t)
    if W.dim != d - s:
        raise CrossCheckMismatch("intersection misses the expected dimension")
    A = W.preimage(L)
    if A.dim != d:
        raise CrossCheckMismatch("preimage misses the expected dimension")

    coeffs = [0] * (q**s + 1)
    polys = []
    for j in range(m):
        c = list(coeffs)
        c[0] = gamma[j]
        for i, theta in enumerate(L.coeffs):
            if theta:
                c[q**i] = t.add(c[q**i], t.mul(gamma[j], theta))
        polys.append(c)
    polys += [[gamma[j]] for j in range(m, ell)]
    code = RSCode(A, q**d - r)
    scheme = RepairScheme(code, bp, polys, target=1)
    _claim_normal_form(scheme, m)
    return bp, A, scheme
