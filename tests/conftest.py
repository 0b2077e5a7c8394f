import os

import pytest

from rsrepair import Subspace, construction1, field_create
from rsrepair.gf import FieldTower
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
