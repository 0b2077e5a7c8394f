"""Acceptance gate: one test per shipped claim, frozen numbers inline.

Each test prints a single summary line; under pytest -v the test name plus
PASSED/FAILED is the per-criterion verdict.  Criteria 4 and 8 walk the same
catalog of constructed schemes, built once and cached at module level.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from conftest import RUN_LARGE, all_subspaces, large, nz_via_weight, random_codeword, w_hat

import rsrepair
from rsrepair import (
    AccessCounter,
    Subspace,
    bandwidth_lower_bound,
    bmin_bruteforce,
    bmin_literal,
    construction1,
    construction2,
    field_create,
    io_cost_expsum,
    io_lower_bound,
    metrics_direct,
    metrics_expsum,
    metrics_weight,
    qpoly_annihilator,
    r3cond_max_bruteforce,
    repair_node,
    subspace_char_sum,
)
from rsrepair.bounds import UnsupportedRegime
from rsrepair.cli import main
from rsrepair.scheme import affine_parts
from rsrepair.subspace import b_rank

_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
_MAX_CODE = 2**12

_c1_cache = {}
_catalog = None


def _c1_metrics(ell):
    if ell not in _c1_cache:
        _, scheme = construction1(ell)
        rep = metrics_direct(scheme)
        _c1_cache[ell] = (rep.io_cost, rep.bandwidth)
    return _c1_cache[ell]


def _build_catalog():
    """Every construction instance with q^ell <= 2^12 in a claimed-tight regime."""
    global _catalog
    if _catalog is not None:
        return _catalog
    entries = []
    for q in _PRIME_POWERS:
        ell = 2
        while q**ell <= _MAX_CODE:
            for d in range(1, ell + 1):
                if ell % (ell - d + 1) == 0 and q**d > 2:
                    _, _, scheme = construction2(q, ell, d, 0, ell - d + 1, 2)
                    rep = metrics_direct(scheme)
                    entries.append((q, ell, d, 2, rep.io_cost, rep.bandwidth))
            ell += 1
    for ell in range(3, 13):
        for d in range(2, ell):
            if ell % (ell - d + 2) == 0:
                _, _, scheme = construction2(2, ell, d, 1, ell - d + 2, 3)
                rep = metrics_direct(scheme)
                entries.append((2, ell, d, 3, rep.io_cost, rep.bandwidth))
    for ell in (4, 6, 8, 10, 12):
        io, bw = _c1_metrics(ell)
        entries.append((2, ell, ell, 3, io, bw))
    _catalog = entries
    return entries


def test_criterion_1_full_length_io():
    want = {4: 44, 6: 314, 8: 1784, 10: 9206}
    if RUN_LARGE:
        want.update({12: 45044, 14: 212978})
    bad = {ell: _c1_metrics(ell)[0] for ell in want if _c1_metrics(ell)[0] != want[ell]}
    print(f"criterion 1: {'FAIL' if bad else 'PASS'} io at ell={sorted(want)}")
    assert not bad, f"io mismatches: {bad}"


@large
@pytest.mark.parametrize("ell,bandwidth", [(16, 969_968), (18, 4_404_206), (20, 19_714_028)])
def test_criterion_1_large_ell_by_all_routes(ell, bandwidth):
    _, scheme = construction1(ell)
    nf = scheme.normal_form
    want = ((2**ell - 1) * ell - 2**ell, bandwidth)
    got = {rep.method: (rep.io_cost, rep.bandwidth)
           for rep in (metrics_direct(scheme), metrics_weight(nf), metrics_expsum(nf))}
    print(f"criterion 1: (io, bandwidth) at ell={ell} by route {got}")
    assert set(got.values()) == {want}, got


@large
def test_criterion_1_metrics_ell20_frontier(tmp_path):
    # the 2^20 frontier end to end: metrics in its own process, stdout to a
    # file; prints its seconds and peak RSS and asserts neither
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    path, out = tmp_path / "c1.json", tmp_path / "metrics.json"
    subprocess.run([sys.executable, "-m", "rsrepair.cli", "construct", "c1", "--ell", "20",
                    "--out", str(path)], check=True, capture_output=True, env=env)
    script = ("import resource, sys, time\n"
              "from rsrepair.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(['metrics', sys.argv[1]])\n"
              "sys.stdout.flush()\n"
              "print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
              " file=sys.stderr)\n"
              "sys.exit(code)\n")
    with open(out, "w") as fh:
        proc = subprocess.run([sys.executable, "-c", script, str(path)], stdout=fh,
                              stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seconds, maxrss_kb = proc.stderr.split()
    print(f"criterion 1: metrics at c1 ell=20 took {float(seconds):.1f} s, "
          f"peak RSS {int(maxrss_kb) / 1024:.0f} MB, {out.stat().st_size} bytes of stdout")
    with open(out) as fh:
        head = fh.read(400)
    assert '"bandwidth": 19714028,' in head and f'"io_cost": {(2**20 - 1) * 20 - 2**20},' in head


@large
def test_criterion_1_c2_q3_ell12_direct_and_weight():
    # odd prime q at the field budget: 531,441 nodes, digit-packed rows
    scheme = construction2(3, 12, 12, 0, 1, 2)[2]
    start = time.perf_counter()
    direct = metrics_direct(scheme)
    seconds = time.perf_counter() - start
    weight = metrics_weight(scheme.normal_form)
    print(f"criterion 1: c2 (3,12,12,0,1,2) io {direct.io_cost}, bandwidth "
          f"{direct.bandwidth}, direct route {seconds:.1f} s")
    assert (direct.io_cost, direct.bandwidth) == (6_200_133, 6_200_133)
    assert weight.per_node == direct.per_node


@large
def test_criterion_1_c2_prime_power_q_by_all_routes(tmp_path, capsys):
    # q = 4 and 9: digit-packed rows with their closure under B
    scheme = construction2(4, 8, 8, 0, 1, 2)[2]
    nf = scheme.normal_form
    direct = metrics_direct(scheme)
    assert metrics_weight(nf).per_node == metrics_expsum(nf).per_node == direct.per_node
    assert (direct.io_cost, direct.bandwidth) == (507_896, 507_896)
    # the repair plan's cost: seconds of the first repair (with its plan) and
    # the second, and the peak RSS so far; printed, not asserted
    seconds = []
    for seed in range(2):
        cw = random_codeword(scheme.code, seed)
        start = time.perf_counter()
        assert repair_node(scheme, cw)[0] == cw[scheme.target - 1]
        seconds.append(time.perf_counter() - start)
    with capsys.disabled():
        print(f"criterion 1: c2 (4,8,8,0,1,2) first repair (plan) {seconds[0]:.2f} s, second "
              f"{seconds[1]:.2f} s, peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    path = str(tmp_path / "c2.json")
    assert main(["construct", "c2", "--q", "4", "--ell", "8", "--d", "8", "--m", "1", "--r", "2",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["simulate", path, "--trials", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["successes"], doc["io_cost"], doc["bandwidth"]) == (2, 507_896, 507_896)
    scheme = construction2(9, 6, 5, 0, 2, 2)[2]
    seconds = {}
    for route, run in (("direct", lambda: metrics_direct(scheme)),
                       ("weight", lambda: metrics_weight(scheme.normal_form))):
        start = time.perf_counter()
        seconds[route] = (run(), time.perf_counter() - start)
    (direct, d_s), (weight, w_s) = seconds["direct"], seconds["weight"]
    print(f"criterion 1: c2 (9,6,5,0,2,2) io {direct.io_cost}, direct route {d_s:.2f} s "
          f"(its packed table included), weight route {w_s:.2f} s")
    assert weight.per_node == direct.per_node
    assert (direct.io_cost, direct.bandwidth) == (341_166, 341_166)


def test_criterion_2_pinned_small_scheme():
    bp, scheme = construction1(4, theta_strategy="paper_example")
    t = scheme.tower
    code = scheme.code
    problems = []
    if bp.beta != (9, 15, 1, 5) or bp.gamma != (5, 4, 14, 6):
        problems.append(f"bases {bp.beta} / {bp.gamma}")
    frozen = {
        t.exp[6]: [[0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]],
        t.exp[8]: [[0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0], [1, 0, 1, 1]],
        t.exp[10]: [[0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]],
    }
    for point, rows in frozen.items():
        got = [list(r) for r in w_hat(scheme.normal_form, code.points.index(point) + 1)]
        if got != rows:
            problems.append(f"block at point {point}: {got}")
    rep = metrics_direct(scheme)
    if (rep.io_cost, rep.bandwidth) != (44, 41):
        problems.append(f"costs ({rep.io_cost}, {rep.bandwidth})")
    print(f"criterion 2: {'FAIL' if problems else 'PASS'} pinned 16 node scheme")
    assert not problems, problems


def test_criterion_3_ratio_table():
    rows = [
        ((2, 4, 3, 0, 2, 2), 20, 83.3),
        ((2, 6, 4, 0, 3, 2), 66, 78.6),
        ((2, 8, 5, 0, 4, 2), 184, 76.7),
        ((2, 6, 5, 1, 3, 3), 138, 79.3),
        ((2, 8, 6, 1, 4, 3), 376, 77.0),
        ((2, 8, 7, 2, 4, 5), 760, 77.2),
    ]
    problems = []
    for params, io_want, ratio_want in rows:
        q, ell, d, s, m, r = params
        _, _, scheme = construction2(*params)
        io = metrics_direct(scheme).io_cost
        if io != io_want:
            problems.append(f"{params}: io {io} != {io_want}")
            continue
        ratio = 100.0 * io / ((q**d - r) * ell)
        if abs(ratio - ratio_want) > 0.05:
            problems.append(f"{params}: ratio {ratio:.2f} vs {ratio_want}")
    print(f"criterion 3: {'FAIL' if problems else 'PASS'} 6 ratio entries")
    assert not problems, problems


def test_criterion_4_bounds_met_with_equality():
    problems = []
    entries = _build_catalog()
    for q, ell, d, r, io, _ in entries:
        bound = io_lower_bound(q, ell, d, r)
        if not bound["tight_known"]:
            problems.append(f"(q={q}, ell={ell}, d={d}, r={r}): not a tight regime")
        if io != bound["value"]:
            problems.append(
                f"(q={q}, ell={ell}, d={d}, r={r}): io {io} != bound {bound['value']}"
            )
    print(
        f"criterion 4: {'FAIL' if problems else 'PASS'} "
        f"{len(entries)} parameter tuples at their read bound"
    )
    assert not problems, problems


def test_criterion_5_three_way_agreement():
    from rsrepair.suites import random_normalized_scheme

    rng = random.Random(20260814)
    jobs = [
        (q, ell, d, r)
        for q in (2, 3)
        for ell in range(2, 7)
        for d in range(2, ell + 1)
        for r in (2, 3)
    ]
    jobs += [(None, None, None, None)] * (300 - len(jobs))
    problems = []
    seen = set()
    for q, ell, d, r in jobs:
        nf, params = random_normalized_scheme(rng, q=q, ell=ell, d=d, r=r)
        direct = metrics_direct(nf.scheme)
        weight = metrics_weight(nf)
        expsum = metrics_expsum(nf)
        if not (direct.per_node == weight.per_node == expsum.per_node):
            problems.append(params)
        elif not (direct.io_cost == weight.io_cost == expsum.io_cost == io_cost_expsum(nf)):
            problems.append(params)
        elif not (direct.bandwidth == weight.bandwidth == expsum.bandwidth):
            problems.append(params)
        seen.update(case for case, present in (
            ("m = ell", nf.m == nf.scheme.ell), ("t = 0", nf.t == 0), ("t != m", nf.t != nf.m),
            ("not B-affine", affine_parts(nf.scheme, nf.scheme.polys[: nf.m]) is None)) if present)
    print(
        f"criterion 5: {'FAIL' if problems else 'PASS'} "
        f"{len(jobs)} random schemes, three computations each"
    )
    assert not problems, problems[:5]
    # the closed form's edge cases: no constants, an empty support, t != m
    # (where weight ranks come from _rank_profile), and the per-node tally
    assert seen == {"m = ell", "t = 0", "t != m", "not B-affine"}


def test_criterion_6_repair_simulation():
    schemes = [construction1(4)[1], construction2(2, 6, 4, 0, 3, 2)[2]]
    problems = []
    for scheme in schemes:
        code = scheme.code
        rep = metrics_direct(scheme)
        rng = random.Random(6)
        for trial in range(100):
            cw = code.encode([rng.randrange(code.tower.size) for _ in range(code.k)])
            value, counter = repair_node(scheme, cw, AccessCounter())
            ok = (
                value == cw[scheme.target - 1]
                and counter.total_accessed == rep.io_cost
                and counter.total_transmitted == rep.bandwidth
            )
            if not ok:
                problems.append((code.n, code.k, trial))
    print(
        f"criterion 6: {'FAIL' if problems else 'PASS'} "
        f"200 erased symbols recovered with tallies matching"
    )
    assert not problems, problems[:5]


@large
def test_criterion_6_simulate_ell14(tmp_path, capsys):
    path = str(tmp_path / "c1.json")
    assert main(["construct", "c1", "--ell", "14", "--out", path]) == 0
    capsys.readouterr()
    assert main(["simulate", path, "--trials", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["successes"], doc["io_cost"], doc["bandwidth"]) == (3, 212_978, 209_714)


def test_criterion_7_oracles():
    problems = []
    rng = random.Random(7)

    # column count identity against a per-column scan
    towers = [field_create(2, 1, 4), field_create(3, 1, 2), field_create(2, 1, 6)]
    for _ in range(500):
        t = rng.choice(towers)
        bset = list(t.subfield_elements())
        width = rng.randint(0, 6)
        rows = [
            tuple(rng.choice(bset) for _ in range(width))
            for _ in range(rng.randint(0, 4))
        ]
        scan = sum(1 for s in range(width) if any(r[s] for r in rows))
        if nz_via_weight(rows, t) != scan:
            problems.append(("weight", rows))
            break

    # kernel dimension identity, single scale exhaustive then random tuples
    for ell in range(2, 9):
        t = field_create(2, 1, ell)
        for beta in range(1, t.size):
            if Subspace.scaled_trace_kernel(beta, t).dim != ell - 1:
                problems.append(("kernel-dim", ell, beta))
    for _ in range(100):
        t = rng.choice([field_create(2, 1, 6), field_create(2, 1, 8), field_create(3, 1, 4)])
        betas = [rng.randrange(1, t.size) for _ in range(rng.randint(1, 4))]
        parts = [Subspace.scaled_trace_kernel(b, t) for b in betas]
        meet = parts[0] if len(parts) == 1 else parts[0].intersect(*parts[1:])
        if meet.dim != t.ell - b_rank(t, betas):
            problems.append(("kernel-dim-tuple", t.ell, betas))

    # character sum dichotomy over every subspace of two fields
    for t in (field_create(2, 1, 4), field_create(3, 1, 4)):
        for G in all_subspaces(t):
            for scale in range(t.size):
                perp = all(
                    t.trace_to_subfield(t.mul(scale, b)) == 0 for b in G.b_basis()
                )
                if subspace_char_sum(G, scale, t) != (t.q**G.dim if perp else 0):
                    problems.append(("dichotomy", t.ell, scale))

    # prescribed image of the linearized solver
    for ell in (4, 6, 8):
        t = field_create(2, 1, ell)
        for tt in (1, 2, 3):
            for _ in range(3):
                betas = []
                while len(betas) < tt:
                    x = rng.randrange(1, t.size)
                    if b_rank(t, betas + [x]) > len(betas):
                        betas.append(x)
                L = qpoly_annihilator(betas, t)
                parts = [Subspace.scaled_trace_kernel(b, t) for b in betas]
                meet = parts[0] if len(parts) == 1 else parts[0].intersect(*parts[1:])
                if L.image() != meet:
                    problems.append(("image", ell, betas))

    # capped maximization hits its closed form, maximizers shaped as claimed
    for ell in range(2, 9):
        for d in range(2, ell + 1):
            best, argmax = r3cond_max_bruteforce(ell, d)
            if best != (ell - d + 2) * 2 ** (d - 1):
                problems.append(("r3cond", ell, d, best))
            for tp, m, _ in argmax:
                if tp != m or m > 2 * (ell - d + 2):
                    problems.append(("r3cond-argmax", ell, d, tp, m))

    # budget minimization: balancing equals literal enumeration, plus pins
    for ell in range(2, 7):
        for d in range(1, min(ell, 4) + 1):
            for m in range(ell + 1):
                for r in (2, 3):
                    if bmin_bruteforce(2, ell, d, m, r) != bmin_literal(2, ell, d, m, r):
                        problems.append(("bmin", ell, d, m, r))
    if bmin_bruteforce(2, 4, 4, 2, 2) != 18 or bmin_bruteforce(2, 4, 4, 4, 3) != 38:
        problems.append(("bmin-pins",))

    print(f"criterion 7: {'FAIL' if problems else 'PASS'} six oracle families")
    assert not problems, problems[:5]


def test_criterion_8_bandwidth_position():
    problems = []
    entries = _build_catalog()
    skipped = 0
    gaps = []
    for q, ell, d, r, io, bw in entries:
        if bw > io:
            problems.append(f"(q={q}, ell={ell}, d={d}, r={r}): bw {bw} > io {io}")
        gaps.append(io - bw)
        try:
            bound = bandwidth_lower_bound(q, ell, d, r)
        except UnsupportedRegime:
            skipped += 1
            continue
        if bw < bound["value"]:
            problems.append(
                f"(q={q}, ell={ell}, d={d}, r={r}): bw {bw} < bound {bound['value']}"
            )
    io4, bw4 = _c1_metrics(4)
    if not (38 <= bw4 <= io4 == 44 and bw4 == 41):
        problems.append(f"ell=4 position: 38 <= {bw4} <= {io4}")
    want_bw = {6: 300, 8: 1733, 10: 9002}
    if RUN_LARGE:
        want_bw.update({12: 44228, 14: 209714})
    for ell, want in want_bw.items():
        got = _c1_metrics(ell)[1]
        if got != want:
            problems.append(f"ell={ell}: bandwidth {got} != {want}")
    print(
        f"criterion 8: {'FAIL' if problems else 'PASS'} "
        f"{len(entries)} schemes, {skipped} outside bandwidth regimes, "
        f"max io-bw gap {max(gaps)}"
    )
    assert not problems, problems
