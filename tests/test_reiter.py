import time
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor.codes import parse_code
from arbor.groups import (A_SIDE, B_SIDE, Letter, normal_form,
                          word_of_subgroup_element)
from arbor.reiter import (
    GRID_VECTOR_CAP,
    DeviationTensor,
    ProbVector,
    WindowEscape,
    cfw_extract,
    check_tensor,
    check_uniform_coamenable,
    check_window_size,
    coset_window,
    free_ball,
    free_reduce,
    free_tree_window,
    grid_search_min_deviation,
    grid_vector_count,
    integer_window,
    l1_distance,
    monotone_tensor,
    reiter_lp,
    tensor_from_json,
    verify_cfw,
    _numerators,
    _window_deviations,
)
from arbor.tree import OverBudget, act_on_vertex, ball_size

from bruteforce import (BUILTIN_NAMES, boundary_product_tensor, builtin,
                        interior, tensor_to_json)


def test_prob_vector_basics():
    p = ProbVector.uniform([0, 1, 2, 3])
    assert p.weight(2) == Fraction(1, 4)
    assert p.weight(9) == 0
    q = ProbVector([(0, Fraction(1, 2)), (1, Fraction(1, 2)),
                    (2, Fraction(0))])
    assert q.support == (0, 1)
    with pytest.raises(ValueError):
        ProbVector([(0, Fraction(1, 2))])
    with pytest.raises(ValueError, match="^cannot spread mass over nothing$"):
        ProbVector.uniform([])
    with pytest.raises(ValueError):
        ProbVector([(0, Fraction(3, 2)), (1, Fraction(-1, 2))])
    # duplicate labels accumulate
    r = ProbVector([(0, Fraction(1, 2)), (0, Fraction(1, 2))])
    assert r == ProbVector([(0, Fraction(1))])
    assert l1_distance(p, q) == Fraction(1)
    assert l1_distance(p, p) == 0


def test_pushforward_merges_and_escapes():
    p = ProbVector.uniform([0, 1, 2, 3])
    q = p.pushforward(lambda v: v // 2)
    assert q == ProbVector([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    with pytest.raises(WindowEscape) as err:
        p.pushforward(lambda v: None if v == 3 else v)
    assert "3" in str(err.value)


def test_integer_window_interior():
    w = integer_window(3)
    assert w.vertices == (-3, -2, -1, 0, 1, 2, 3)
    assert interior(w) == (-2, -1, 0, 1, 2)
    assert w.edge_maps[0].get(2) == 3
    assert w.edge_maps[0].get(3) is None


@pytest.mark.parametrize("m", [3, 5, 10])
def test_line_window_optimum(m):
    # the interval of length m cannot beat 2/m, and achieves it uniformly
    w = integer_window(m + 2)
    res = reiter_lp(w, support=list(range(m)))
    assert res.optimum == Fraction(2, m)
    assert res.p == ProbVector.uniform(list(range(m)))
    assert all(dev == Fraction(2, m) for _, dev in res.per_gen)


def test_line_window_grid_oracle():
    w = integer_window(5)
    val, best = grid_search_min_deviation(w, [0, 1, 2], 20)
    assert val == Fraction(2, 3)
    assert best == ProbVector.uniform([0, 1, 2])


def test_lp_target_epsilon():
    w = integer_window(5)
    hit = reiter_lp(w, support=[0, 1, 2], target_eps=Fraction(1))
    assert hit.meets_target is True
    assert hit.optimum == Fraction(2, 3)
    miss = reiter_lp(w, support=[0, 1, 2], target_eps=Fraction(1, 2))
    assert miss.meets_target is False
    assert miss.optimum == Fraction(2, 3)
    assert reiter_lp(w, support=[0, 1, 2]).meets_target is None


def test_lp_support_escape():
    w = integer_window(3)
    with pytest.raises(WindowEscape):
        reiter_lp(w, support=[2, 3])
    with pytest.raises(WindowEscape, match="^empty support"):
        reiter_lp(w, support=[])


def test_oversized_lp_is_refused_before_building():
    # 4007 rows by 3003 columns
    w = integer_window(1002)
    started = time.perf_counter()
    with pytest.raises(OverBudget, match="12033021 entries"):
        reiter_lp(w, support=list(range(1000)))
    assert time.perf_counter() - started < 1


def test_free_reduce():
    assert free_reduce("aA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abA") == "abA"
    assert free_reduce("Aab") == "b"


def test_free_ball_sizes():
    assert len(free_ball(2, 0)) == 1
    assert len(free_ball(2, 1)) == 5
    assert len(free_ball(2, 2)) == 17
    assert len(free_ball(2, 4)) == 161


def test_ball_sizes_in_closed_form():
    # a free window is a ball in the 2·rank-regular tree; rank 1 is the line
    for radius in range(5):
        assert ball_size(2, 2, radius) == len(integer_window(radius).vertices)
        for rank in range(1, 5):
            assert ball_size(2 * rank, 2 * rank, radius) == \
                len(free_ball(rank, radius))
            assert ball_size(2 * rank, 2 * rank, radius) == \
                len(free_tree_window(rank, radius).vertices)
    assert ball_size(12, 12, 5) == 193261
    with pytest.raises(ValueError, match="rank must be between 1 and 6"):
        check_window_size(7, 1, 100_000)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        free_ball(2, -1)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        check_window_size(1, -1, 100_000)


def test_oversized_window_is_refused_before_building():
    check_window_size(6, 4, 100_000)
    with pytest.raises(OverBudget, match="193261 vertices"):
        check_window_size(6, 5, 100_000)
    with pytest.raises(OverBudget, match="2000000001 vertices"):
        check_window_size(1, 10 ** 9, 100_000)
    started = time.perf_counter()
    with pytest.raises(OverBudget, match=r"more than 2\*\*1000000000"):
        check_window_size(2, 10 ** 9, 100_000)
    assert time.perf_counter() - started < 1
    with pytest.raises(ValueError, match="rank must be between 1 and 6"):
        check_window_size(0, 10 ** 9, 100_000)


def test_free_window_optimum_stays_large():
    # rank 2, all four generators: no vector on the 2-ball gets small
    w = free_tree_window(2, 4)
    sup = free_ball(2, 2)
    res = reiter_lp(w, support=sup)
    assert res.optimum == Fraction(18, 17)
    assert res.optimum > Fraction(1, 4)
    assert all(dev == Fraction(18, 17) for _, dev in res.per_gen)
    # uniform mass on the ball is an optimal vertex here
    assert res.p == ProbVector.uniform(sup)
    # cheap grid pass cannot do better than the exact optimum
    val, _ = grid_search_min_deviation(w, sup, 3)
    assert val >= res.optimum


def test_lp_optimum_monotone_in_support():
    # enlarging the support can only help
    w = integer_window(12)
    values = [reiter_lp(w, support=list(range(m))).optimum
              for m in (3, 5, 10)]
    assert values == sorted(values, reverse=True)
    wf = free_tree_window(2, 4)
    small = reiter_lp(wf, support=free_ball(2, 1)).optimum
    large = reiter_lp(wf, support=free_ball(2, 2)).optimum
    assert small >= large


def test_coset_action_table():
    # sl2z's K side: C6, with C2 embedded at {0, 3}
    act = coset_window(builtin("sl2z"), B_SIDE, [1, 3, 1])
    assert list(act.vertices) == [0, 1, 2]
    assert act.gens == (1, 3, 1)
    assert [act.edge_maps[0][x] for x in act.vertices] == [1, 2, 0]
    assert [act.edge_maps[1][x] for x in act.vertices] == [0, 1, 2]
    assert act.edge_maps[2] == act.edge_maps[0]


COSET_MODELS = BUILTIN_NAMES + tuple(
    str(p) for p in sorted((Path(__file__).parent / "models").glob("*.json")))


@pytest.mark.parametrize("side", (A_SIDE, B_SIDE), ids=("h", "k"))
@pytest.mark.parametrize("name", COSET_MODELS,
                         ids=lambda name: Path(name).stem)
def test_coset_action_is_the_vertex_action(name, side):
    # a factor G permutes the neighbours of its base vertex as it permutes
    # G/C.  On the H side coset r is the vertex (A, r); on the K side coset
    # 0 is the base vertex and coset s is (A, 0), (B, s)
    am = builtin(name)
    gens = range(am.groups[side].order)
    window = coset_window(am, side, gens)
    assert window.vertices == tuple(range(am.transversals[side].index))
    if side == A_SIDE:
        vertex = [(Letter(A_SIDE, r),) for r in window.vertices]
    else:
        vertex = [()] + [(Letter(A_SIDE, 0), Letter(B_SIDE, s))
                         for s in window.vertices[1:]]
    for e, image in zip(gens, window.edge_maps):
        g = word_of_subgroup_element(am, side, e)
        assert [act_on_vertex(am, g, v) for v in vertex] \
            == [vertex[image[x]] for x in window.vertices]


def test_uniform_vector_is_coamenability_certificate():
    am = builtin("sl2z")  # K = C6, with C2 embedded at {0, 3}
    cert = check_uniform_coamenable(am, B_SIDE, [1, 5], Fraction(1, 100))
    assert cert.max_deviation == 0
    assert cert.epsilon == Fraction(1, 100)
    assert cert.p == ProbVector.uniform([0, 1, 2])  # uniform on the cosets
    assert cert.gens == (1, 5)
    assert all(dev == 0 for _, dev in cert.per_gen)
    with pytest.raises(ValueError):
        check_uniform_coamenable(am, B_SIDE, [1], Fraction(0))
    with pytest.raises(ValueError):
        check_uniform_coamenable(am, B_SIDE, [7], Fraction(1, 2))


def test_numerators_in_lexicographic_order():
    for parts in range(1, 5):
        for total in range(7):
            expected = sorted(
                v for v in product(range(total + 1), repeat=parts)
                if sum(v) == total)
            assert list(_numerators(total, parts)) == expected


def test_monotone_tensor_thresholds():
    t = monotone_tensor()
    assert len(t.values) == 11 and len(t.values[0]) == 13
    ex = cfw_extract(t, m_max=12)
    assert ex.thresholds == tuple(range(11))
    for row in ex.rows:
        assert row.ok
        assert row.bad_mass == Fraction(1, 2 ** row.f) - Fraction(1, 2 ** 12)
    verify_cfw(ex)


def test_cfw_default_m_max():
    t = monotone_tensor(i_count=4, j_count=6)
    ex = cfw_extract(t)
    assert ex.m_max == 5
    verify_cfw(ex)


def test_tensor_json_roundtrip():
    t = monotone_tensor(i_count=3, j_count=4)
    doc = tensor_to_json(t)
    back = tensor_from_json(doc)
    assert back == t
    assert doc["mu"] == ["1"]
    assert doc["values"][0][1][0][0] == "1/2"


def test_tensor_validation():
    with pytest.raises(ValueError,
                       match="mu must weight exactly the sample points"):
        check_tensor(DeviationTensor(("g1",), ("x0", "x1"), (Fraction(1),),
                                     ((((Fraction(0), Fraction(0)),),),)))
    bad = tensor_to_json(monotone_tensor(2, 2))
    bad["values"][0][0][0][0] = "5/2"
    with pytest.raises(ValueError):
        tensor_from_json(bad)


def test_boundary_tensor_line_model_degenerates():
    # both ends of the line lie in one orbit, so every deviation vanishes
    am = builtin("dihedral")
    left = parse_code(am, "prefix=e;cycle=t,s")
    right = parse_code(am, "prefix=;cycle=s,t")
    g = normal_form(am, [("H", "s")])
    t = boundary_product_tensor(
        am, [left, right], [Fraction(1, 2), Fraction(1, 2)], [g],
        i_count=3, j_count=3)
    assert all(t.values[i][j][0][x] == 0
               for i in range(3) for j in range(3) for x in range(2))
    ex = cfw_extract(t, m_max=4)
    assert ex.thresholds == (0, 0, 0)
    verify_cfw(ex)


def test_boundary_tensor_alternating_model():
    am = builtin("sl2z")
    x = parse_code(am, "prefix=;cycle=a,b")
    y = parse_code(am, "prefix=;cycle=a,b2")
    g = normal_form(am, [("H", "a")])
    t = boundary_product_tensor(
        am, [x, y], [Fraction(1, 2), Fraction(1, 2)], [g],
        i_count=2, j_count=3)
    assert t.group_labels == ("a",)
    for i in range(2):
        for j in range(3):
            for p in range(2):
                assert 0 <= t.values[i][j][0][p] <= 2
    back = tensor_from_json(tensor_to_json(t))
    assert back == t
    ex = cfw_extract(t, m_max=3)
    verify_cfw(ex)


def _fraction_grid(window, support, max_denominator):
    """The grid search written directly over ProbVector and Fraction."""
    k = len(support)
    best = None
    for d in range(1, max_denominator + 1):
        for bars in combinations(range(d + k - 1), k - 1):
            edges = (-1,) + bars + (d + k - 1,)
            p = ProbVector((support[t], Fraction(edges[t + 1] - edges[t] - 1,
                                                 d)) for t in range(k))
            val = max(_window_deviations(window, p))
            if best is None or val < best[0]:
                best = (val, p)
    return best


@st.composite
def _small_grids(draw):
    if draw(st.booleans()):
        radius = draw(st.integers(3, 5))
        steps = draw(st.lists(st.sampled_from([1, -1, 2, -2, 3]),
                              min_size=1, max_size=3, unique=True))
        window = integer_window(radius, steps)
    else:
        window = free_tree_window(draw(st.integers(1, 2)),
                                  draw(st.integers(1, 2)))
    inner = list(interior(window))
    support = draw(st.lists(st.sampled_from(inner), min_size=1,
                            max_size=min(4, len(inner)), unique=True))
    return window, support, draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_small_grids())
def test_integer_grid_matches_fraction_grid(case):
    window, support, max_den = case
    value, p = grid_search_min_deviation(window, support, max_den)
    assert value == max(_window_deviations(window, p))
    assert max(q.denominator for _, q in p.items()) <= max_den
    assert (value, p) == _fraction_grid(window, support, max_den)


def test_grid_vector_count_is_one_binomial():
    # the oracle: a loop over denominators, and the vectors _numerators
    # lists for each
    for k in range(1, 8):
        for max_den in range(30):
            loop = sum(comb(d + k - 1, k - 1) for d in range(1, max_den + 1))
            assert grid_vector_count(k, max_den) == loop
            if k <= 4 and max_den <= 8:
                assert grid_vector_count(k, max_den) == sum(
                    1 for d in range(1, max_den + 1) for _ in _numerators(d, k))
    assert grid_vector_count(0, 5) == grid_vector_count(3, -2) == 0


def test_grid_size_is_counted_first():
    assert grid_vector_count(10, 20) == comb(30, 10) - 1
    assert grid_vector_count(6, 12) == comb(18, 6) - 1
    w = integer_window(12)
    started = time.perf_counter()
    with pytest.raises(OverBudget, match=str(comb(30, 10) - 1)):
        grid_search_min_deviation(w, list(range(10)), 20)
    assert time.perf_counter() - started < 1
    assert grid_vector_count(10, 20) > GRID_VECTOR_CAP >= grid_vector_count(6, 12)


def test_grid_support_escape():
    with pytest.raises(WindowEscape, match="escapes"):
        grid_search_min_deviation(integer_window(3), [2, 3], 4)
    with pytest.raises(WindowEscape, match="^empty grid$"):
        grid_search_min_deviation(integer_window(3), [0, 1], 0)
