"""Relations on finite samples, witness chains, and orbit equivalence."""
import json
from itertools import product
from pathlib import Path

import pytest

from arbor.cber import (
    SAMPLE_SPACE_CAP, FiniteER, FinitePointSet, RelationError,
    build_sample_space, hyperfiniteness_witness, orbit_equivalent,
    orbit_witness_table, sample_space_size, validate_witness_chain,
    witness_chain_from_json, witness_chain_to_json, _orbit_min,
)
from arbor.cli import load_config
from arbor.codes import BoundaryCode, compare_words
from arbor.groups import (A_SIDE, B_SIDE, Letter, invert, multiply,
                          word_of_subgroup_element)
from arbor.tree import act_on_boundary, word_element

from bruteforce import (BUILTIN_NAMES, builtin, orbit_min,
                        pairwise_witness_table, tail_equivalent, word_search)

aL = Letter(A_SIDE, 1)
bL = Letter(B_SIDE, 1)
b2L = Letter(B_SIDE, 2)
eL = Letter(A_SIDE, 0)


def small_er():
    base = FinitePointSet(["p", "q", "r", "s", "t"])
    er = FiniteER(base)
    er.relate(0, 2)
    er.relate(3, 4)
    return base, er


def test_point_set_rejects_duplicates():
    with pytest.raises(RelationError, match="duplicate"):
        FinitePointSet(["x", "x"])


def test_er_classes_and_transversal():
    _, er = small_er()
    assert er.classes() == ((0, 2), (1,), (3, 4))
    # the least point of each class leads it: the class representatives
    assert [cls[0] for cls in er.classes()] == [0, 1, 3]
    assert er.related(0, 2) and not er.related(0, 1)


def test_refines():
    base, er = small_er()
    finer = FiniteER(base)
    finer.relate(3, 4)
    assert finer.refines(er)
    assert not er.refines(finer)


def test_tail_equivalent_shift_pairs():
    x = BoundaryCode((), (aL, bL))
    y = BoundaryCode((eL,), (bL, aL))
    assert tail_equivalent(x, x) == (0, 0)
    # shifting y by one realigns it with x, and (0,1) precedes (1,0)
    assert tail_equivalent(x, x.shift(1)) == (0, 1)
    assert tail_equivalent(x, y) == (0, 2)
    assert tail_equivalent(y, x) == (1, 1)
    z = BoundaryCode((), (aL, b2L))
    assert tail_equivalent(x, z) is None


def test_tail_equivalent_minimality_against_wider_scan():
    am = builtin("sl2z")
    pts = build_sample_space(am, 2, 4).points
    for x in pts[::3]:
        for y in pts[::4]:
            got = tail_equivalent(x, y)
            best = None
            for i in range(4 * (x.horizon() + 1)):
                for j in range(4 * (y.horizon() + 1)):
                    if x.shift(i) == y.shift(j):
                        cand = (i, j)
                        if best is None or (cand[0] + cand[1], cand[0]) < \
                                (best[0] + best[1], best[0]):
                            best = cand
            assert got == best


def test_tail_equivalent_codes_are_orbit_equivalent():
    # tail equivalence is a sufficient condition the equiv decision must meet
    found = 0
    for name in BUILTIN_NAMES:
        am = builtin(name)
        pts = build_sample_space(am, 2, 4).points
        for x in pts:
            for y in pts:
                shifts = tail_equivalent(x, y)
                if shifts is None:
                    continue
                found += 1
                i, j = shifts
                g = multiply(am, word_element(am, x.letters(i)),
                             invert(am, word_element(am, y.letters(j))))
                assert act_on_boundary(am, g, y) == x
                assert orbit_equivalent(am, x, y).equivalent
    assert found > 100


def test_canonical_orbit_code_is_h_invariant():
    for name in BUILTIN_NAMES:
        am = builtin(name)
        pts = build_sample_space(am, 1, 4).points
        for x in pts:
            coc, h = _orbit_min(am, x)
            assert (coc, h) == orbit_min(am, x)
            for elem in am.H.elements():
                h = word_of_subgroup_element(am, A_SIDE, elem)
                assert _orbit_min(am, act_on_boundary(am, h, x))[0] == coc
            assert compare_words(coc, x) <= 0


def test_sample_space_dihedral_is_both_ends():
    am = builtin("dihedral")
    space = build_sample_space(am, 1, 4)
    assert space.points == (BoundaryCode((eL,), (bL, aL)),
                            BoundaryCode((), (aL, bL)))


def test_sample_space_sizes():
    assert len(build_sample_space(builtin("sl2z"), 1, 4).points) == 8
    assert len(build_sample_space(builtin("psl2z"), 1, 4).points) == 8
    assert len(build_sample_space(builtin("dihedral"), 2, 4).points) == 2


def _enumerated_candidates(am, p_max, q_max):
    """Count the (prefix, cycle) tuples by enumerating them."""
    pools = (am.A.index - 1, am.B.index - 1)
    total = 0
    for p_len in range(p_max + 1):
        for c_len in range(2, q_max + 1, 2):
            sizes = [pools[pos % 2] + (pos == 0) for pos in range(p_len)]
            sizes += [pools[(p_len + j) % 2] for j in range(c_len)]
            total += sum(1 for _ in product(*(range(n) for n in sizes)))
    return total


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def test_sample_space_size_counts_the_enumeration():
    for name in BUILTIN_NAMES:
        am = builtin(name)
        for p_max in range(4):
            for q_max in range(2, 9):
                assert sample_space_size(am, p_max, q_max) == \
                    _enumerated_candidates(am, p_max, q_max)
    s4, _ = load_config(str(FIXTURES / "s4_c3_s3.json"))
    c12, _ = load_config(str(FIXTURES / "c12_c3_c15.json"))
    for am in (s4, c12):
        for p_max, q_max in ((0, 2), (1, 4), (2, 4), (3, 6)):
            assert sample_space_size(am, p_max, q_max) == \
                _enumerated_candidates(am, p_max, q_max)
    assert sample_space_size(s4, 1, 4) == 504
    assert sample_space_size(s4, 2, 4) == 952
    assert sample_space_size(c12, 1, 4) == 780
    # 952 is the largest sample space the README and the benchmark ask for
    assert 952 * 100 < SAMPLE_SPACE_CAP


def test_oversized_sample_space_is_refused_before_enumeration():
    s4, _ = load_config(str(FIXTURES / "s4_c3_s3.json"))
    c12, _ = load_config(str(FIXTURES / "c12_c3_c15.json"))
    with pytest.raises(RelationError, match="16287180 candidate codes"):
        build_sample_space(c12, 1, 12)
    with pytest.raises(RelationError, match="5602425752 candidate codes"):
        build_sample_space(s4, 2, 20)
    with pytest.raises(RelationError, match="more than 2"):
        build_sample_space(s4, 1, 10 ** 9)


def test_sample_space_is_canonical_and_sorted():
    am = builtin("sl2z")
    space = build_sample_space(am, 2, 4)
    pts = space.points
    assert len(set(pts)) == len(pts)
    for a, b in zip(pts, pts[1:]):
        assert compare_words(a, b) < 0
    for x in pts:
        assert BoundaryCode(x.prefix, x.cycle) == x
        assert len(x.prefix) <= 2 and len(x.cycle) <= 4


def test_sample_space_closed_under_even_shifts():
    am = builtin("sl2z")
    space = build_sample_space(am, 1, 4)
    pts = set(space.points)
    for x in space.points:
        for i in range(0, x.horizon() + 2, 2):
            assert x.shift_code(i) in pts


def test_orbit_equivalent_known_pairs():
    am = builtin("sl2z")
    x1 = BoundaryCode((), (aL, bL))
    y1 = BoundaryCode((eL,), (bL, aL))
    d = orbit_equivalent(am, x1, y1)
    assert d.equivalent
    assert act_on_boundary(am, d.witness, y1) == x1
    x2 = BoundaryCode((), (aL, b2L))
    d2 = orbit_equivalent(am, x1, x2)
    assert not d2.equivalent and d2.witness is None
    # shifted spellings of one end are orbit equivalent
    x3 = BoundaryCode((), (aL, bL, aL, b2L))
    x4 = x3.shift_code(2)
    d3 = orbit_equivalent(am, x3, x4)
    assert d3.equivalent
    assert act_on_boundary(am, d3.witness, x4) == x3


def test_orbit_equivalent_brute_agrees():
    for name in ("dihedral", "psl2z", "sl2z"):
        am = builtin(name)
        pts = build_sample_space(am, 1, 4).points
        bound = 4 if name != "sl2z" else 3
        for i, x in enumerate(pts):
            for y in pts[i:]:
                via_codes = orbit_equivalent(am, x, y)
                via_brute = word_search(am, x, y, bound)
                if via_brute is not None:
                    assert via_codes.equivalent
                    assert act_on_boundary(am, via_brute, y) == x
                if via_codes.equivalent:
                    assert act_on_boundary(am, via_codes.witness, y) == x
                else:
                    assert via_brute is None


def test_dihedral_ends_witness_is_a_reflection():
    am = builtin("dihedral")
    left = BoundaryCode((), (aL, bL))
    right = BoundaryCode((eL,), (bL, aL))
    d = orbit_equivalent(am, left, right)
    assert d.equivalent
    assert act_on_boundary(am, d.witness, right) == left


@pytest.mark.parametrize("name,classes", [
    ("dihedral", 1), ("sl2z", 3), ("psl2z", 3),
])
def test_witness_chain_structure(name, classes):
    am = builtin(name)
    space = build_sample_space(am, 1, 4)
    n_max = space.p_max + space.q_max * am.C.order
    wc = hyperfiniteness_witness(am, space, n_max)
    validate_witness_chain(wc)
    assert len(wc.target.classes()) == classes
    assert wc.stabilized_at is not None and wc.stabilized_at <= n_max
    assert len(wc.certificates) == len(space.points)
    # brute-force cross-check of the target relation
    for i in range(len(space.points)):
        for j in range(i + 1, len(space.points)):
            expect = orbit_equivalent(am, space.points[i], space.points[j])
            assert wc.target.related(i, j) == expect.equivalent


def test_witness_chain_monotone_growth():
    am = builtin("sl2z")
    space = build_sample_space(am, 1, 4)
    wc = hyperfiniteness_witness(am, space, 4)
    sizes = [len(er.classes()) for er in wc.chain]
    assert sizes == sorted(sizes, reverse=True)
    assert wc.chain[0].refines(wc.target)
    # E_0 groups exactly the points sharing a canonical orbit code
    for i in range(len(space.points)):
        for j in range(len(space.points)):
            same = _orbit_min(am, space.points[i])[0] == \
                _orbit_min(am, space.points[j])[0]
            assert wc.chain[0].related(i, j) == same


def test_witness_chain_json_roundtrip():
    am = builtin("sl2z")
    space = build_sample_space(am, 1, 4)
    wc = hyperfiniteness_witness(am, space, 6)
    doc = witness_chain_to_json(am, wc)
    text = json.dumps(doc, indent=2, sort_keys=True)
    back = json.loads(text)
    base, chain, target = witness_chain_from_json(am, back)
    assert base.points == wc.sample.points
    assert [er.classes() for er in chain] == [er.classes() for er in wc.chain]
    assert target.classes() == wc.target.classes()
    assert json.dumps(back, indent=2, sort_keys=True) == text


def test_witness_chain_json_rejects_corrupted_witness():
    am = builtin("dihedral")
    space = build_sample_space(am, 1, 4)
    wc = hyperfiniteness_witness(am, space, 2)
    doc = witness_chain_to_json(am, wc)
    bad = json.loads(json.dumps(doc))
    if bad["witnesses"]:
        bad["witnesses"][0]["word"] = "s*t*s"
        with pytest.raises(RelationError, match="witness"):
            witness_chain_from_json(am, bad)


def test_orbit_witness_table_verified():
    am = builtin("psl2z")
    space = build_sample_space(am, 1, 4)
    wc = hyperfiniteness_witness(am, space, 6)
    table = orbit_witness_table(am, wc)
    assert len(table) == len(space.points)
    for idx, rep, g in table:
        assert act_on_boundary(am, g, space.points[idx]) == space.points[rep]


@pytest.mark.parametrize("name", ["dihedral", "sl2z", "psl2z"])
def test_orbit_witness_table_matches_pairwise_queries(name):
    am = builtin(name)
    space = build_sample_space(am, 1, 4)
    wc = hyperfiniteness_witness(am, space, 6)
    assert orbit_witness_table(am, wc) == pairwise_witness_table(am, wc)
