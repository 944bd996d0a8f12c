"""End-to-end acceptance gate.

Each test covers one numbered criterion, checks its wall-clock budget, and
prints a single PASS line (visible under pytest -s or on failure).
"""
import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import product

from arbor.cber import (
    FiniteER,
    build_sample_space,
    hyperfiniteness_witness,
    orbit_equivalent,
    validate_witness_chain,
)
from arbor.cli import main
from arbor.codes import BoundaryCode, CodeError, compare_words
from arbor.groups import A_SIDE, B_SIDE, Letter, normal_form
from arbor.reiter import (
    cfw_extract,
    check_uniform_coamenable,
    grid_search_min_deviation,
    integer_window,
    monotone_tensor,
    reiter_lp,
    verify_cfw,
)
from arbor.tree import H_TYPE, act_on_boundary, build_tree, check_theorem_A

from bruteforce import (BUILTIN_NAMES, builtin, normalize_tagged,
                        tagged_of_reduced, word_search, words_equal)


def _report(num: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion-{num} over budget: {elapsed:.2f}s"
    print(f"PASS criterion-{num} {label} ({elapsed:.2f}s < {limit:.0f}s)")


def _all_codes(am, p_max: int, q_max: int) -> list:
    """Every boundary code within the caps, not just orbit-minimal ones."""
    pools = {A_SIDE: [Letter(A_SIDE, r) for r in range(1, am.A.index)],
             B_SIDE: [Letter(B_SIDE, r) for r in range(1, am.B.index)]}
    out = set()
    for p in range(p_max + 1):
        for q in range(2, q_max + 1, 2):
            prefix_pools = []
            for pos in range(p):
                pool = list(pools[pos % 2])
                if pos == 0 and pos % 2 == A_SIDE:
                    pool.insert(0, Letter(A_SIDE, 0))
                prefix_pools.append(pool)
            cycle_pools = [pools[(p + k) % 2] for k in range(q)]
            for pre in product(*prefix_pools):
                for cyc in product(*cycle_pools):
                    try:
                        out.add(BoundaryCode(tuple(pre), tuple(cyc)))
                    except CodeError:
                        continue
    return sorted(out, key=cmp_to_key(compare_words))


def test_criterion_1_tree_structure():
    started = time.perf_counter()
    am = builtin("sl2z")
    tree = build_tree(am, 6)
    assert tree.counts_by_distance() == [1, 2, 4, 4, 8, 8, 16]
    n = len(tree.vertices)
    assert len(tree.edges) == n - 1
    adj = [[] for _ in range(n)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == n
    for idx, v in enumerate(tree.vertices):
        if tree.depths[idx] < 6:
            assert len(adj[idx]) == (2 if v.vtype == H_TYPE else 3)
    _report(1, "radius-6 tree [1,2,4,4,8,8,16], connected acyclic "
               "(2,3)-biregular", started, 1.0)


def test_criterion_2_normal_forms_vs_rewriting():
    started = time.perf_counter()
    am = builtin("sl2z")
    count = 0
    for length in range(6):
        for pattern in product([(A_SIDE, 1), (B_SIDE, 1)], repeat=length):
            syllables = [("H" if side == A_SIDE else "K", elem)
                         for side, elem in pattern]
            nf = normal_form(am, syllables)
            assert words_equal(am, normalize_tagged(pattern),
                               tagged_of_reduced(am, nf)), pattern
            count += 1
    assert count == 63
    _report(2, f"normal form matches rewriting closure on all {count} "
               "words of length <= 5", started, 10.0)


def test_criterion_3_segment_certificates():
    started = time.perf_counter()
    expected_order = {"dihedral": 1, "sl2z": 2, "psl2z": 1}
    totals = {}
    for name in BUILTIN_NAMES:
        am = builtin(name)
        codes = _all_codes(am, 2, 4)
        assert codes
        for x in codes:
            cert = check_theorem_A(am, x)
            assert cert is not None, (name, x)
            assert cert.order == expected_order[name], (name, x)
        totals[name] = len(codes)
    label = ", ".join(f"{name}:{totals[name]}" for name in totals)
    _report(3, f"certificates for every code p<=2 q<=4 ({label}), orders "
               "2/1/1", started, 30.0)


def test_criterion_4_witness_chain_union():
    started = time.perf_counter()
    class_counts = []
    for name in BUILTIN_NAMES:
        am = builtin(name)
        sample = build_sample_space(am, 1, 4)
        wc = hyperfiniteness_witness(am, sample, 8)
        validate_witness_chain(wc)
        for er in wc.chain:
            for cls in er.classes():
                assert len(cls) <= len(sample.points)
        # independent target: decide every pair on the code path, confirm
        # every yes on the brute-force path
        target = FiniteER(wc.sample)
        pts = sample.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                decision = orbit_equivalent(am, pts[i], pts[j])
                if decision.equivalent:
                    target.relate(i, j)
                    assert word_search(am, pts[i], pts[j], 4) is not None, \
                        (name, i, j)
        assert target == wc.target, name
        class_counts.append(len(wc.target.classes()))
    _report(4, "witness chains monotone, finite classes, union equals the "
               f"orbit relation (classes {class_counts})", started, 60.0)


def test_criterion_5_pipeline_pairs():
    started = time.perf_counter()
    checked = 0
    witnessed = 0
    for name in BUILTIN_NAMES:
        am = builtin(name)
        pts = build_sample_space(am, 2, 4).points
        pairs = [(i, j) for i in range(len(pts))
                 for j in range(len(pts))][:100]
        for i, j in pairs:
            by_codes = orbit_equivalent(am, pts[i], pts[j])
            # a word found is a yes; finding none within 4 letters decides nothing
            if word_search(am, pts[i], pts[j], 4) is not None:
                assert by_codes.equivalent, (name, i, j)
            if by_codes.equivalent:
                assert by_codes.witness is not None
                assert act_on_boundary(am, by_codes.witness, pts[j]) == pts[i]
                witnessed += 1
            checked += 1
    _report(5, f"code and brute paths agree on {checked} pairs, "
               f"{witnessed} verified witnesses", started, 60.0)


def test_criterion_6_lp_exactness():
    started = time.perf_counter()
    for m in (3, 5, 10):
        res = reiter_lp(integer_window(m + 2), support=list(range(m)))
        assert res.optimum == Fraction(2, m), m
    am = builtin("sl2z")
    group = am.side_group(B_SIDE)
    image = sorted({am.embed_to_side(B_SIDE, c) for c in range(am.C.order)})
    gens = [g for g in group.elements() if g != 0]
    cert = check_uniform_coamenable(group, image, gens, Fraction(1, 10 ** 6))
    assert cert.max_deviation == 0
    value, _ = grid_search_min_deviation(integer_window(5), [0, 1, 2], 20)
    assert value == Fraction(2, 3)
    _report(6, "window optima exactly 2/3, 2/5, 1/5; uniform deviation 0; "
               "grid(<=20) matches at m=3", started, 30.0)


def test_criterion_7_threshold_extraction():
    started = time.perf_counter()
    tensor = monotone_tensor()
    extraction = cfw_extract(tensor, m_max=12)
    assert len(extraction.rows) == 11
    for row in extraction.rows:
        assert row.bad_mass < Fraction(1, 2 ** row.i), row
    verify_cfw(extraction)
    _report(7, "late-set measure < 2^-i for all i <= 10, independently "
               "recomputed", started, 5.0)


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    commands = [
        ["tree", "--radius", "6"],
        ["check", "--what", "theorem-a", "--p-max", "2", "--q-max", "4"],
        ["check", "--what", "theorem-a", "--config", "dihedral",
         "--p-max", "2", "--q-max", "4"],
        ["check", "--what", "theorem-a", "--config", "psl2z",
         "--p-max", "2", "--q-max", "4"],
        ["witness"],
        ["witness", "--config", "dihedral"],
        ["witness", "--config", "psl2z"],
        ["equiv", "--x", "prefix=e;cycle=b,a", "--y", "prefix=;cycle=a,b"],
        ["reiter", "--window", "z", "--support-size", "3", "--grid-check"],
        ["reiter", "--window", "z", "--support-size", "5"],
        ["reiter", "--window", "z", "--support-size", "10"],
        ["cfw"],
    ]
    for k, argv in enumerate(commands):
        first = tmp_path / f"first_{k}.json"
        second = tmp_path / f"second_{k}.json"
        assert main(argv + ["--out", str(first)]) == 0, argv
        assert main(argv + ["--out", str(second)]) == 0, argv
        assert first.read_bytes() == second.read_bytes(), argv
    _report(8, f"{len(commands)} commands byte-identical across reruns",
            started, 120.0)
