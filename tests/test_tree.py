"""Tree construction, vertex/boundary actions, geodesics, and stabilizers."""
from pathlib import Path

import pytest

from arbor.cli import load_config
from arbor.codes import BoundaryCode
from arbor.groups import (
    A_SIDE, B_SIDE, Letter, invert, multiply,
    normal_form, word_of_subgroup_element,
)
from arbor.tree import (
    GeodesicPath, H_TYPE, K_TYPE, TreeError, TreeVertex, act_on_boundary,
    act_on_vertex, base_vertex, build_tree, check_acylindricity,
    check_theorem_A, code_truncate, geodesic, is_adjacent,
    ray_stabilizer, stabilizer_of_segment, to_dot, validate_geodesic,
    validate_vertex, vertex_from_letters, word_element,
)

from bruteforce import (BUILTIN_NAMES, acylindricity_survey, builtin,
                        enumerate_reduced_words, geodesic_to_code)

aL = Letter(A_SIDE, 1)
bL = Letter(B_SIDE, 1)
b2L = Letter(B_SIDE, 2)
eL = Letter(A_SIDE, 0)


def sample_codes(am):
    """A fixed, varied batch of boundary codes valid in every built-in model."""
    out = [
        BoundaryCode((), (aL, bL)),
        BoundaryCode((eL,), (bL, aL)),
        BoundaryCode((aL,), (bL, aL)),
        BoundaryCode((eL, bL), (aL, bL)),
    ]
    if am.B.index > 2:
        out += [
            BoundaryCode((), (aL, b2L)),
            BoundaryCode((), (aL, bL, aL, b2L)),
            BoundaryCode((eL, b2L), (aL, bL)),
        ]
    return out


def test_vertex_from_letters_normalization():
    assert vertex_from_letters([], H_TYPE) == base_vertex()
    assert vertex_from_letters([], K_TYPE) == TreeVertex(K_TYPE, (eL,))
    assert vertex_from_letters([aL], H_TYPE) == base_vertex()
    assert vertex_from_letters([eL], H_TYPE) == base_vertex()
    assert vertex_from_letters([aL], K_TYPE) == TreeVertex(K_TYPE, (aL,))
    assert vertex_from_letters([bL], K_TYPE) == TreeVertex(K_TYPE, (eL,))
    assert vertex_from_letters([bL], H_TYPE) == TreeVertex(H_TYPE, (eL, bL))
    assert vertex_from_letters([aL, bL], K_TYPE) == TreeVertex(K_TYPE, (aL,))


def test_validate_vertex():
    am = builtin("sl2z")
    validate_vertex(am, base_vertex())
    validate_vertex(am, TreeVertex(K_TYPE, (eL,)))
    with pytest.raises(TreeError):
        validate_vertex(am, TreeVertex(H_TYPE, (aL,)))
    with pytest.raises(TreeError):
        validate_vertex(am, TreeVertex(K_TYPE, (aL, eL, aL)))
    with pytest.raises(TreeError):
        validate_vertex(am, TreeVertex(K_TYPE, (Letter(A_SIDE, 7),)))


def expected_level_counts(index_a, index_b, radius):
    counts = [1]
    for depth in range(1, radius + 1):
        if depth == 1:
            counts.append(index_a)
        elif depth % 2 == 0:
            counts.append(counts[-1] * (index_b - 1))
        else:
            counts.append(counts[-1] * (index_a - 1))
    return counts


@pytest.mark.parametrize("name,profile", [
    ("dihedral", [1, 2, 2, 2, 2]),
    ("sl2z", [1, 2, 4, 4, 8]),
    ("psl2z", [1, 2, 4, 4, 8]),
])
def test_build_tree_profiles(name, profile):
    am = builtin(name)
    tree = build_tree(am, 4)
    assert tree.counts_by_distance() == profile
    assert tree.counts_by_distance() == expected_level_counts(
        am.A.index, am.B.index, 4)
    assert len(set(tree.vertices)) == len(tree.vertices)
    assert len(tree.edges) == len(tree.vertices) - 1
    for v in tree.vertices:
        validate_vertex(am, v)
    for i, j in tree.edges:
        assert is_adjacent(tree.vertices[i], tree.vertices[j])


def test_build_tree_radius_six_profile():
    tree = build_tree(builtin("sl2z"), 6)
    assert tree.counts_by_distance() == [1, 2, 4, 4, 8, 8, 16]


def test_build_tree_vertex_cap():
    with pytest.raises(TreeError, match="cap"):
        build_tree(builtin("sl2z"), 6, vertex_cap=10)


def test_act_on_vertex_translates_base_coset():
    am = builtin("sl2z")
    a = normal_form(am, [("H", 1)])
    vertex_k = vertex_from_letters([], K_TYPE)
    assert act_on_vertex(am, a, vertex_k) == TreeVertex(K_TYPE, (aL,))


def test_act_on_vertex_identity_and_inverse():
    for name in BUILTIN_NAMES:
        am = builtin(name)
        tree = build_tree(am, 4)
        e = am.identity_word()
        words = enumerate_reduced_words(am, 2)
        for v in tree.vertices:
            assert act_on_vertex(am, e, v) == v
        for g in words:
            gi = invert(am, g)
            for v in tree.vertices[:7]:
                assert act_on_vertex(am, gi, act_on_vertex(am, g, v)) == v


def test_act_on_vertex_is_an_action():
    am = builtin("sl2z")
    tree = build_tree(am, 3)
    words = enumerate_reduced_words(am, 2)
    for g in words[:12]:
        for h in words[:12]:
            gh = multiply(am, g, h)
            for v in tree.vertices[::3]:
                assert act_on_vertex(am, gh, v) == \
                    act_on_vertex(am, g, act_on_vertex(am, h, v))


def test_act_on_vertex_preserves_adjacency():
    for name in BUILTIN_NAMES:
        am = builtin(name)
        tree = build_tree(am, 4)
        for g in enumerate_reduced_words(am, 3):
            for i, j in tree.edges:
                gv = act_on_vertex(am, g, tree.vertices[i])
                gw = act_on_vertex(am, g, tree.vertices[j])
                assert is_adjacent(gv, gw)


def test_base_stabilizer_is_the_first_factor():
    am = builtin("sl2z")
    base = base_vertex()
    fixing = [g for g in enumerate_reduced_words(am, 2)
              if act_on_vertex(am, g, base) == base]
    expected = sorted(
        (word_of_subgroup_element(am, A_SIDE, h) for h in am.H.elements()),
        key=lambda w: w.sort_key())
    assert sorted(fixing, key=lambda w: w.sort_key()) == expected


def test_geodesic_through_base_and_reversal():
    am = builtin("sl2z")
    tree = build_tree(am, 2)
    v = TreeVertex(K_TYPE, (aL,))
    w = TreeVertex(K_TYPE, (eL,))
    path = geodesic(tree, v, w)
    assert path.length == 2
    assert path.vertices == (v, base_vertex(), w)
    validate_geodesic(am, path)
    back = geodesic(tree, w, v)
    assert back.vertices == tuple(reversed(path.vertices))


def test_geodesic_distances_match_word_structure():
    am = builtin("sl2z")
    tree = build_tree(am, 4)
    for v in tree.vertices[::5]:
        for w in tree.vertices[::7]:
            path = geodesic(tree, v, w)
            validate_geodesic(am, path)
            lcp = 0
            while (lcp < min(len(v.word), len(w.word))
                   and v.word[lcp] == w.word[lcp]):
                lcp += 1
            assert path.length == (len(v.word) - lcp) + (len(w.word) - lcp)


def test_geodesic_requires_tree_membership():
    am = builtin("sl2z")
    tree = build_tree(am, 2)
    outside = TreeVertex(K_TYPE, (aL, b2L, aL))
    with pytest.raises(TreeError, match="inside"):
        geodesic(tree, base_vertex(), outside)


def test_code_truncate_and_inverse():
    am = builtin("sl2z")
    for x in sample_codes(am):
        n = len(x.prefix) + 3 * len(x.cycle)
        path = code_truncate(x, n)
        validate_geodesic(am, path)
        assert path.length == n
        assert path.vertices[0] == base_vertex()
        assert geodesic_to_code(path) == x


def test_geodesic_to_code_errors():
    x = BoundaryCode((), (aL, bL))
    path = code_truncate(x, 6)
    with pytest.raises(TreeError, match="base"):
        geodesic_to_code(GeodesicPath(path.vertices[1:]))
    with pytest.raises(TreeError, match="period"):
        geodesic_to_code(code_truncate(x, 2))
    wiggle = GeodesicPath(path.vertices[:3] + (path.vertices[1],))
    with pytest.raises(TreeError, match="backtrack"):
        geodesic_to_code(wiggle)


def test_act_on_boundary_identity_and_center():
    am = builtin("sl2z")
    e = am.identity_word()
    z = normal_form(am, [("C", 1)])
    for x in sample_codes(am):
        assert act_on_boundary(am, e, x) == x
        assert act_on_boundary(am, z, x) == x


def test_act_on_boundary_dihedral_end_swap():
    am = builtin("dihedral")
    s = normal_form(am, [("H", 1)])
    t = normal_form(am, [("K", 1)])
    left = BoundaryCode((), (aL, bL))
    right = BoundaryCode((eL,), (bL, aL))
    # both generators are reflections of the line, so each swaps the two ends
    assert act_on_boundary(am, t, right) == left
    assert act_on_boundary(am, t, left) == right
    assert act_on_boundary(am, s, left) == right
    assert act_on_boundary(am, s, right) == left


def test_act_on_boundary_is_an_action():
    for name in BUILTIN_NAMES:
        am = builtin(name)
        words = enumerate_reduced_words(am, 2)
        for x in sample_codes(am)[:5]:
            for g in words[::3]:
                for h in words[::4]:
                    gh = multiply(am, g, h)
                    assert act_on_boundary(am, gh, x) == \
                        act_on_boundary(am, g, act_on_boundary(am, h, x))


def test_act_on_boundary_matches_vertex_action():
    # far-out vertices of the translated ray must lie on the ray of the image code
    for name in BUILTIN_NAMES:
        am = builtin(name)
        for x in sample_codes(am):
            big = len(x.prefix) + 2 * len(x.cycle) + 10
            big += big % 2
            for g in enumerate_reduced_words(am, 2)[::2]:
                y = act_on_boundary(am, g, x)
                far = TreeVertex(H_TYPE, x.letters(big))
                gv = act_on_vertex(am, g, far)
                assert y.letters(len(gv.word)) == gv.word


def test_act_on_boundary_inverse():
    am = builtin("psl2z")
    for x in sample_codes(am):
        for g in enumerate_reduced_words(am, 2):
            y = act_on_boundary(am, g, x)
            assert act_on_boundary(am, invert(am, g), y) == x


def test_stabilizer_of_base_segment():
    am = builtin("sl2z")
    stab = stabilizer_of_segment(am, GeodesicPath((base_vertex(),)))
    assert stab.order == am.H.order
    stab_k = stabilizer_of_segment(
        am, GeodesicPath((vertex_from_letters([], K_TYPE),)))
    assert stab_k.order == am.K.order


def test_stabilizer_of_edge_is_amalgamated_image():
    am = builtin("sl2z")
    edge = GeodesicPath((base_vertex(), vertex_from_letters([], K_TYPE)))
    stab = stabilizer_of_segment(am, edge)
    assert stab.order == 2
    z = normal_form(am, [("C", 1)])
    assert set(stab.elements) == {am.identity_word(), z}


def test_stabilizer_away_from_base():
    am = builtin("sl2z")
    tree = build_tree(am, 4)
    group_order = {H_TYPE: am.H.order, K_TYPE: am.K.order}
    for v in tree.vertices[::4]:
        for w in tree.vertices[::6]:
            path = geodesic(tree, v, w)
            stab = stabilizer_of_segment(am, path)
            assert group_order[v.vtype] % stab.order == 0
            for g in stab.elements:
                for u in path.vertices:
                    assert act_on_vertex(am, g, u) == u


def test_ray_stabilizer_values():
    am = builtin("sl2z")
    x = BoundaryCode((), (aL, bL))
    stab = ray_stabilizer(am, x)
    z = normal_form(am, [("C", 1)])
    assert set(stab) == {am.identity_word(), z}
    assert set(ray_stabilizer(builtin("dihedral"), BoundaryCode((), (aL, bL)))) == \
        {builtin("dihedral").identity_word()}


@pytest.mark.parametrize("name,order", [
    ("dihedral", 1), ("sl2z", 2), ("psl2z", 1),
])
def test_theorem_certificates_at_length_one(name, order):
    am = builtin(name)
    x = BoundaryCode((), (aL, bL))
    cert = check_theorem_A(am, x)
    assert cert is not None
    assert cert.sigma_length == 1
    assert cert.order == order
    assert frozenset(cert.stabilizer.elements) == frozenset(cert.ray_stabilizer)


def test_theorem_check_exhaustion_returns_none():
    am = builtin("sl2z")
    x = BoundaryCode((), (aL, bL))
    assert check_theorem_A(am, x, max_len=0) is None


@pytest.mark.parametrize("name,expected_orders", [
    ("dihedral", (1,)), ("sl2z", (2,)), ("psl2z", (1,)),
])
def test_acylindricity_orders(name, expected_orders):
    am = builtin(name)
    report = check_acylindricity(am, seg_length=2, tree_radius=3)
    assert report.segments > 0
    orders = tuple(order for order, _ in report.orders_histogram)
    assert orders == expected_orders
    assert report.max_order <= am.C.order
    total = sum(count for _, count in report.orders_histogram)
    assert total == report.segments


@pytest.mark.parametrize("seg_length", [1, 2, 3])
@pytest.mark.parametrize("name", ["dihedral", "sl2z", "psl2z"])
def test_acylindricity_walk_matches_pairwise_survey(name, seg_length):
    am = builtin(name)
    for radius in range(seg_length, seg_length + 3):
        report = check_acylindricity(am, seg_length, radius)
        assert (report.segments, report.orders_histogram) == \
            acylindricity_survey(am, seg_length, radius)


def test_acylindricity_walk_matches_pairwise_survey_on_index_4_5_model():
    fixture = Path(__file__).resolve().parent.parent / "perfbench" / \
        "fixtures" / "c12_c3_c15.json"
    am, _ = load_config(str(fixture))
    report = check_acylindricity(am, 2)
    assert (report.segments, report.orders_histogram) == \
        acylindricity_survey(am, 2, report.tree_radius)


def test_to_dot_is_deterministic_and_wellformed():
    am = builtin("sl2z")
    tree = build_tree(am, 3)
    dot1 = to_dot(am, tree)
    dot2 = to_dot(am, build_tree(am, 3))
    assert dot1 == dot2
    assert dot1.startswith("graph bass_serre {")
    assert dot1.endswith("}\n")
    assert dot1.count("--") == len(tree.edges)
    assert dot1.count("shape=circle") == sum(
        1 for v in tree.vertices if v.vtype == H_TYPE)
    assert 'v0 [label="", shape=circle];' in dot1


def test_word_element_of_vertex_words():
    am = builtin("sl2z")
    tree = build_tree(am, 4)
    for v in tree.vertices:
        w = word_element(am, v.word)
        assert act_on_vertex(am, w, TreeVertex(v.vtype, ()) if v.vtype == H_TYPE
                             else vertex_from_letters([], K_TYPE)) == v
