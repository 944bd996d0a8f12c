"""Tree construction, vertex/boundary actions, geodesics, and stabilizers."""
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from arbor.cli import load_config, main
from arbor.codes import BoundaryCode
from arbor.groups import (
    A_SIDE, B_SIDE, Letter, invert, multiply,
    normal_form, word_of_subgroup_element,
)
from arbor.tree import (
    GeodesicPath, H_TYPE, K_TYPE, TreeError, TreeVertex, act_on_boundary,
    act_on_vertex, ball_bits, ball_size, build_tree,
    check_acylindricity, check_theorem_A, code_truncate, geodesic,
    is_adjacent, lockstep, over_cap,
    ray_stabilizer, stabilizer_of_segment, to_dot, validate_geodesic,
    validate_vertex, vertex_from_letters, word_element,
)

import bruteforce
from bruteforce import (BUILTIN_NAMES, acylindricity_survey, base_vertex,
                        builtin, enumerate_reduced_words, geodesic_to_code,
                        word_geodesic, word_tree, word_tree_dot)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "perfbench" / "fixtures"
ORACLE_MODELS = BUILTIN_NAMES + tuple(
    str(p) for p in sorted(FIXTURES.glob("*.json"))) + (
    str(HERE / "models" / "s4_s3_s4.json"),)
# the models whose C is neither central nor trivial: only there do the
# edges at one vertex have different stabilizers r C r^-1, so only there
# can a walk that finds the wrong edge's stabilizer show
S4_MODELS = (str(FIXTURES / "s4_c3_s3.json"), str(HERE / "models" / "s4_s3_s4.json"))

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
    with pytest.raises(TreeError, match="does not reach a vertex"):
        vertex_from_letters([aL, aL], H_TYPE)


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


def test_validate_geodesic_refuses_trivial_letter_past_the_start():
    # only a word's first letter may be trivial, where it names the base's
    # K neighbour; the path is adjacent and does not backtrack, so the
    # vertex check is what refuses it
    am = builtin("sl2z")
    path = GeodesicPath((base_vertex(), TreeVertex(K_TYPE, (eL,)),
                         TreeVertex(H_TYPE, (eL, Letter(B_SIDE, 0)))))
    with pytest.raises(TreeError, match=r"^trivial letter beyond position 0 "
                                        r"\(position 1\)$"):
        validate_geodesic(am, path)


def test_validate_geodesic_refuses_empty_and_broken_paths():
    am = builtin("sl2z")
    with pytest.raises(TreeError, match="^empty path$"):
        validate_geodesic(am, GeodesicPath(()))
    # two H-type vertices at distance 2: not adjacent
    far = TreeVertex(H_TYPE, (eL, bL))
    assert not is_adjacent(base_vertex(), far)
    with pytest.raises(TreeError, match="^consecutive path vertices are "
                                        "not adjacent$"):
        validate_geodesic(am, GeodesicPath((base_vertex(), far)))


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
    verts = [tree.vertex(i) for i in tree.vertices]
    assert len(set(verts)) == len(verts)
    for v in verts:
        validate_vertex(am, v)
    for i in tree.vertices[1:]:
        assert tree.parent[i] < i
        assert is_adjacent(verts[tree.parent[i]], verts[i])


def test_build_tree_radius_six_profile():
    tree = build_tree(builtin("sl2z"), 6)
    assert tree.counts_by_distance() == [1, 2, 4, 4, 8, 8, 16]


def test_build_tree_vertex_cap():
    with pytest.raises(TreeError, match="cap"):
        build_tree(builtin("sl2z"), 6, vertex_cap=10)
    with pytest.raises(TreeError, match="radius 6 has 43 vertices, over the "
                                        "vertex cap of 42"):
        build_tree(builtin("sl2z"), 6, vertex_cap=42)
    assert len(build_tree(builtin("sl2z"), 6, vertex_cap=43).vertices) == 43


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(
    str(p) for p in sorted(FIXTURES.glob("*.json"))),
    ids=lambda name: Path(name).stem)
def test_ball_size_counts_the_built_tree(name):
    am = builtin(name)
    for radius in range(7):
        assert ball_size(am.A.index, am.B.index, radius) == \
            len(build_tree(am, radius).vertices)


def test_ball_bits_bound_every_ball():
    for a in range(2, 7):
        for b in range(2, 7):
            for radius in range(1, 13):
                assert ball_size(a, b, radius) > 2 ** ball_bits(a, b, radius)
    # the line is counted, not bounded; the free ball of rank 2 doubles at
    # every depth, sl2z's tree at every other
    assert ball_bits(2, 2, 10 ** 9) == 0
    assert ball_bits(4, 4, 10 ** 9) == 10 ** 9
    assert ball_bits(2, 3, 60) == 30


def test_over_cap_counts_only_what_it_can():
    def never():
        raise AssertionError("counted a size already known to be too large")

    assert over_cap(100, 8, never) == "more than 2**8"
    assert over_cap(100, 7, lambda: 100) is None
    assert over_cap(100, 7, lambda: 101) == "101"
    # a count too long to print reads as a power of two below it
    assert over_cap(100, 0, lambda: 10 ** 5000) == "more than 2**16609"
    assert over_cap(100, 0, lambda: 2 ** 20000) == "more than 2**19999"
    assert 2 ** 16609 < 10 ** 5000


@pytest.mark.parametrize("name", ORACLE_MODELS,
                         ids=lambda name: Path(name).stem)
def test_parent_arrays_match_the_word_tree(name, tmp_path, capsys):
    am = builtin(name)
    for radius in range(5):
        tree, words = build_tree(am, radius), word_tree(am, radius)
        assert tree.depths == words.depths
        assert tuple(map(tree.vertex, tree.vertices)) == words.vertices
        assert tuple((tree.parent[i], i) for i in tree.vertices[1:]) == \
            words.edges
        dot = tmp_path / f"r{radius}.dot"
        assert main(["tree", "--config", name, "--radius", str(radius),
                     "--dot", str(dot)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["vertices"], doc["edges"], doc["counts_by_distance"]) == (
            len(words.vertices), len(words.edges),
            [words.depths.count(d) for d in range(radius + 1)])
        assert dot.read_text() == word_tree_dot(am, words)
    tree, words = build_tree(am, 3), word_tree(am, 3)
    for i in tree.vertices:
        for j in tree.vertices:
            assert geodesic(tree, i, j) == word_geodesic(
                words, words.vertices[i], words.vertices[j])


def test_largest_dihedral_ball_is_fast_and_small():
    # 2 * 49,999 + 1 vertices: the largest ball the vertex cap admits
    am, radius = builtin("dihedral"), 49_999
    started = time.perf_counter()
    tree = build_tree(am, radius)
    assert time.perf_counter() - started < 1
    assert len(tree.vertices) == 99_999
    assert tree.vertex(len(tree.vertices) - 1).word == \
        ((aL, bL) * radius)[:radius]
    # the peak is measured in a second, untimed build: tracing slows it
    tracemalloc.start()
    try:
        build_tree(am, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


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
        verts = [tree.vertex(i) for i in tree.vertices]
        for v in verts:
            assert act_on_vertex(am, e, v) == v
        for g in words:
            gi = invert(am, g)
            for v in verts[:7]:
                assert act_on_vertex(am, gi, act_on_vertex(am, g, v)) == v


def test_act_on_vertex_is_an_action():
    am = builtin("sl2z")
    tree = build_tree(am, 3)
    words = enumerate_reduced_words(am, 2)
    for g in words[:12]:
        for h in words[:12]:
            gh = multiply(am, g, h)
            for v in map(tree.vertex, tree.vertices[::3]):
                assert act_on_vertex(am, gh, v) == \
                    act_on_vertex(am, g, act_on_vertex(am, h, v))


def test_act_on_vertex_preserves_adjacency():
    for name in BUILTIN_NAMES:
        am = builtin(name)
        tree = build_tree(am, 4)
        for g in enumerate_reduced_words(am, 3):
            for i in tree.vertices[1:]:
                gv = act_on_vertex(am, g, tree.vertex(tree.parent[i]))
                gw = act_on_vertex(am, g, tree.vertex(i))
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
    assert (tree.vertex(2), tree.vertex(1)) == (v, w)
    path = geodesic(tree, 2, 1)
    assert path.length == 2
    assert path.vertices == (v, base_vertex(), w)
    validate_geodesic(am, path)
    back = geodesic(tree, 1, 2)
    assert back.vertices == tuple(reversed(path.vertices))


def test_geodesic_distances_match_word_structure():
    am = builtin("sl2z")
    tree = build_tree(am, 4)
    for i in tree.vertices[::5]:
        for j in tree.vertices[::7]:
            path = geodesic(tree, i, j)
            validate_geodesic(am, path)
            v, w = tree.vertex(i), tree.vertex(j)
            lcp = 0
            while (lcp < min(len(v.word), len(w.word))
                   and v.word[lcp] == w.word[lcp]):
                lcp += 1
            assert path.length == (len(v.word) - lcp) + (len(w.word) - lcp)


def test_geodesic_requires_tree_membership():
    tree = build_tree(builtin("sl2z"), 2)
    assert len(tree.vertices) == 7
    for outside in (-1, 7, 10 ** 9):
        for ends in ((0, outside), (outside, 0)):
            with pytest.raises(TreeError, match="inside"):
                geodesic(tree, *ends)


def test_code_truncate_and_inverse():
    am = builtin("sl2z")
    for x in sample_codes(am):
        n = len(x.prefix) + 3 * len(x.cycle)
        path = code_truncate(x, n)
        validate_geodesic(am, path)
        assert path.length == n
        assert path.vertices[0] == base_vertex()
        assert geodesic_to_code(path) == x
    with pytest.raises(TreeError, match="must be nonnegative"):
        code_truncate(sample_codes(am)[0], -1)


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
    for i in tree.vertices[::4]:
        for j in tree.vertices[::6]:
            path = geodesic(tree, i, j)
            stab = stabilizer_of_segment(am, path)
            assert group_order[path.vertices[0].vtype] % stab.order == 0
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
    assert cert.elements == ray_stabilizer(am, x)


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
    with pytest.raises(TreeError, match="^tree radius must be at least the "
                                        "segment length$"):
        check_acylindricity(am, seg_length=2, tree_radius=1)


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


def segments(am, length):
    """Every segment of the given length in the ball of radius length + 2,
    once from each end."""
    ball = build_tree(am, length + 2)
    near = [[p] if p >= 0 else [] for p in ball.parent]
    for child in ball.vertices[1:]:
        near[ball.parent[child]].append(child)
    for i in ball.vertices:
        walk = [(i, -1)]
        for _ in range(length):
            walk = [(w, u) for u, prev in walk for w in near[u] if w != prev]
        for j, _ in walk:
            yield geodesic(ball, i, j)


@pytest.mark.parametrize("length", [0, 1, 2, 3])
@pytest.mark.parametrize("name", S4_MODELS, ids=lambda name: Path(name).stem)
def test_segment_stabilizer_matches_every_factor_element(name, length):
    am, _ = load_config(name)
    starts = set()
    for path in segments(am, length):
        starts.add(path.vertices[0].vtype)
        assert stabilizer_of_segment(am, path).elements == \
            bruteforce.stabilizer_of_segment(am, path).elements
    assert starts == {H_TYPE, K_TYPE}


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("name", S4_MODELS, ids=lambda name: Path(name).stem)
def test_segment_walk_deaths_are_first_moves(monkeypatch, name, length):
    # each element the walk drops first moves the translated segment at
    # exactly the position it reports, and each survivor moves none of it
    am, _ = load_config(name)
    walks = []
    walk = lockstep

    def recorded(am, path, least):
        walks.append(walk(am, path, least))
        return walks[-1]

    monkeypatch.setattr("arbor.tree.lockstep", recorded)
    for path in segments(am, length):
        stabilizer_of_segment(am, path)
        _, survivors, deaths = walks.pop()
        v0 = path.vertices[0]
        t = invert(am, word_element(am, v0.word))
        moved = [act_on_vertex(am, t, v) for v in path.vertices]
        side = A_SIDE if v0.vtype == H_TYPE else B_SIDE
        reported, found = bruteforce.walk_first_moves(am, side, moved,
                                                      survivors, deaths)
        assert reported == found


@pytest.mark.parametrize("seg_length", [1, 2, 3])
@pytest.mark.parametrize("name", S4_MODELS, ids=lambda name: Path(name).stem)
def test_acylindricity_survey_matches_on_s4_models(name, seg_length):
    am, _ = load_config(name)
    report = check_acylindricity(am, seg_length, seg_length + 1)
    assert (report.segments, report.orders_histogram) == \
        acylindricity_survey(am, seg_length, seg_length + 1)


@pytest.mark.parametrize("argv,calls", [
    (["acylindrical", "--seg-length", "3", "--config",
      str(FIXTURES / "c12_c3_c15.json")], 34_320),
    (["acylindrical", "--seg-length", "2", "--config", S4_MODELS[1]], 5_088),
    (["theorem-a", "--p-max", "2", "--q-max", "4", "--config",
      S4_MODELS[0]], 1_944),
    (["stabilizers", "--p-max", "2", "--q-max", "4", "--config",
      S4_MODELS[0]], 1_944),
], ids=["c12-length-3", "s4_s3_s4-length-2", "s4-theorem-a",
        "s4-stabilizers"])
def test_survey_vertex_actions(monkeypatch, capsys, argv, calls):
    # a segment: two translations (its two ends), the first edge's |C|
    # stabilizer elements each applied to the second vertex, one action per
    # later death (on the vertex at its position, whose image's parent must
    # be the vertex before it), and each survivor re-applied to the two
    # ends.  A ray: the first edge and later deaths as for a segment, and
    # nothing more, since its survivors are re-applied to the end by
    # act_on_boundary; theorem-A certificates and ray stabilizers are one
    # certificate, so they cost the same
    count = [0]

    def counted(*args):
        count[0] += 1
        return act_on_vertex(*args)

    monkeypatch.setattr("arbor.tree.act_on_vertex", counted)
    assert main(["check", "--what"] + argv) == 0
    capsys.readouterr()
    assert count[0] == calls


def test_to_dot_is_deterministic_and_wellformed():
    am = builtin("sl2z")
    tree = build_tree(am, 3)
    dot1 = to_dot(am, tree)
    dot2 = to_dot(am, build_tree(am, 3))
    assert dot1 == dot2
    assert dot1.startswith("graph bass_serre {")
    assert dot1.endswith("}\n")
    assert dot1.count("--") == len(tree.vertices) - 1
    assert dot1.count("shape=circle") == sum(
        1 for i in tree.vertices if tree.vertex(i).vtype == H_TYPE)
    assert 'v0 [label="", shape=circle];' in dot1


def test_word_element_of_vertex_words():
    am = builtin("sl2z")
    tree = build_tree(am, 4)
    for v in map(tree.vertex, tree.vertices):
        w = word_element(am, v.word)
        assert act_on_vertex(am, w, TreeVertex(v.vtype, ()) if v.vtype == H_TYPE
                             else vertex_from_letters([], K_TYPE)) == v
