"""Tree construction, vertex/boundary actions, geodesics, and stabilizers."""
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from arbor.cli import load_config, main
from arbor.codes import BoundaryCode
from arbor.groups import (
    A_SIDE, B_SIDE, Letter, ReducedWord, invert, multiply,
    normal_form, word_of_subgroup_element,
)
from arbor.tree import (
    GeodesicPath, OverBudget, TreeError,
    act_on_boundary, act_on_vertex, ball_bits, ball_size, build_tree,
    check_acylindricity, check_theorem_A, code_truncate, geodesic,
    is_adjacent, lockstep, ray_stabilizer, refuse_over, stabilizer_of_segment,
    to_dot, validate_geodesic, validate_vertex, vertex_from_letters, word_element,
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
    assert vertex_from_letters([], A_SIDE) == base_vertex()
    assert vertex_from_letters([], B_SIDE) == (eL,)
    assert vertex_from_letters([aL], A_SIDE) == base_vertex()
    assert vertex_from_letters([eL], A_SIDE) == base_vertex()
    assert vertex_from_letters([aL], B_SIDE) == (aL,)
    assert vertex_from_letters([bL], B_SIDE) == (eL,)
    assert vertex_from_letters([bL], A_SIDE) == (eL, bL)
    assert vertex_from_letters([aL, bL], B_SIDE) == (aL,)
    with pytest.raises(TreeError, match="does not reach a vertex"):
        vertex_from_letters([aL, aL], A_SIDE)


def test_validate_vertex():
    am = builtin("sl2z")
    validate_vertex(am, base_vertex())
    validate_vertex(am, (eL,))
    with pytest.raises(TreeError):
        validate_vertex(am, (aL, eL, aL))
    with pytest.raises(TreeError):
        validate_vertex(am, (Letter(A_SIDE, 7),))


def test_validate_geodesic_refuses_trivial_letter_past_the_start():
    # only a word's first letter may be trivial, where it names the base's
    # K neighbour; the path is adjacent and does not backtrack, so the
    # vertex check is what refuses it
    am = builtin("sl2z")
    path = GeodesicPath((base_vertex(), (eL,), (eL, Letter(B_SIDE, 0))))
    with pytest.raises(TreeError, match=r"^trivial letter beyond position 0 "
                                        r"\(position 1\)$"):
        validate_geodesic(am, path)


def test_validate_geodesic_refuses_empty_and_broken_paths():
    am = builtin("sl2z")
    with pytest.raises(TreeError, match="^empty path$"):
        validate_geodesic(am, GeodesicPath(()))
    # two H-type vertices at distance 2: not adjacent
    far = (eL, bL)
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
    with pytest.raises(OverBudget, match="cap"):
        build_tree(builtin("sl2z"), 6, vertex_cap=10)
    with pytest.raises(OverBudget, match="radius 6 has 43 vertices, over "
                                         "the vertex cap of 42"):
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


def test_refuse_over_counts_only_what_it_can():
    def never():
        raise AssertionError("counted a size already known to be too large")

    def refusal(bits, count):
        with pytest.raises(OverBudget) as exc:
            refuse_over(100, bits, count, "{count} over {cap}")
        return str(exc.value)

    assert refusal(8, never) == "more than 2**8 over 100"
    assert refuse_over(100, 7, lambda: 100, "unused") is None
    assert refusal(7, lambda: 101) == "101 over 100"
    # a count too long to print reads as a power of two below it
    assert refusal(0, lambda: 10 ** 5000) == "more than 2**16609 over 100"
    assert refusal(0, lambda: 2 ** 20000) == "more than 2**19999 over 100"
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
    assert tree.vertex(len(tree.vertices) - 1) == \
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
    vertex_k = vertex_from_letters([], B_SIDE)
    assert act_on_vertex(am, a, vertex_k) == (aL,)


def test_act_on_vertex_identity_and_inverse():
    for name in BUILTIN_NAMES:
        am = builtin(name)
        tree = build_tree(am, 4)
        e = ReducedWord((), 0)
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
        (word_of_subgroup_element(am, A_SIDE, h) for h in range(am.H.order)),
        key=lambda w: w.sort_key())
    assert sorted(fixing, key=lambda w: w.sort_key()) == expected


def test_geodesic_through_base_and_reversal():
    am = builtin("sl2z")
    tree = build_tree(am, 2)
    v = (aL,)
    w = (eL,)
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
            while lcp < min(len(v), len(w)) and v[lcp] == w[lcp]:
                lcp += 1
            assert path.length == (len(v) - lcp) + (len(w) - lcp)


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
    e = ReducedWord((), 0)
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
                gv = act_on_vertex(am, g, x.letters(big))
                assert y.letters(len(gv)) == gv


def test_act_on_boundary_inverse():
    am = builtin("psl2z")
    for x in sample_codes(am):
        for g in enumerate_reduced_words(am, 2):
            y = act_on_boundary(am, g, x)
            assert act_on_boundary(am, invert(am, g), y) == x


def test_stabilizer_of_base_segment():
    am = builtin("sl2z")
    stab = stabilizer_of_segment(am, GeodesicPath((base_vertex(),)))
    assert len(stab) == am.H.order
    stab_k = stabilizer_of_segment(
        am, GeodesicPath((vertex_from_letters([], B_SIDE),)))
    assert len(stab_k) == am.K.order


def test_stabilizer_of_edge_is_amalgamated_image():
    am = builtin("sl2z")
    edge = GeodesicPath((base_vertex(), vertex_from_letters([], B_SIDE)))
    stab = stabilizer_of_segment(am, edge)
    assert len(stab) == 2
    z = normal_form(am, [("C", 1)])
    assert set(stab) == {ReducedWord((), 0), z}


def test_stabilizer_away_from_base():
    am = builtin("sl2z")
    tree = build_tree(am, 4)
    group_order = {A_SIDE: am.H.order, B_SIDE: am.K.order}
    for i in tree.vertices[::4]:
        for j in tree.vertices[::6]:
            path = geodesic(tree, i, j)
            stab = stabilizer_of_segment(am, path)
            assert group_order[len(path.vertices[0]) % 2] % len(stab) == 0
            for g in stab:
                for u in path.vertices:
                    assert act_on_vertex(am, g, u) == u


def test_ray_stabilizer_values():
    am = builtin("sl2z")
    x = BoundaryCode((), (aL, bL))
    stab = ray_stabilizer(am, x)
    z = normal_form(am, [("C", 1)])
    assert set(stab) == {ReducedWord((), 0), z}
    assert set(ray_stabilizer(builtin("dihedral"), BoundaryCode((), (aL, bL)))) == \
        {ReducedWord((), 0)}


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
    report = check_acylindricity(am, seg_length=2)
    assert report.tree_radius == 4 and report.segments > 0
    orders = tuple(order for order, _ in report.orders_histogram)
    assert orders == expected_orders
    assert report.max_order <= am.C.order
    total = sum(count for _, count in report.orders_histogram)
    assert total == report.segments


@pytest.mark.parametrize("seg_length", [1, 2, 3])
@pytest.mark.parametrize("name", ["dihedral", "sl2z", "psl2z"])
def test_acylindricity_walk_matches_pairwise_survey(name, seg_length):
    am = builtin(name)
    report = check_acylindricity(am, seg_length)
    assert (report.segments, report.orders_histogram) == \
        acylindricity_survey(am, seg_length, seg_length + 2)


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
        starts.add(len(path.vertices[0]) % 2)
        assert stabilizer_of_segment(am, path) == \
            bruteforce.stabilizer_of_segment(am, path)
    assert starts == {A_SIDE, B_SIDE}


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
        t = invert(am, word_element(am, v0))
        moved = [act_on_vertex(am, t, v) for v in path.vertices]
        side = len(v0) % 2
        reported, found = bruteforce.walk_first_moves(am, side, moved,
                                                      survivors, deaths)
        assert reported == found


@pytest.mark.parametrize("seg_length", [1, 2, 3])
@pytest.mark.parametrize("name", S4_MODELS, ids=lambda name: Path(name).stem)
def test_acylindricity_survey_matches_on_s4_models(name, seg_length):
    am, _ = load_config(name)
    report = check_acylindricity(am, seg_length)
    assert (report.segments, report.orders_histogram) == \
        acylindricity_survey(am, seg_length, seg_length + 2)


@pytest.mark.parametrize("argv,calls", [
    (["acylindrical", "--seg-length", "3", "--config",
      str(FIXTURES / "c12_c3_c15.json")], 13_848),
    (["acylindrical", "--seg-length", "2", "--config", S4_MODELS[1]], 1_666),
    (["theorem-a", "--p-max", "2", "--q-max", "4", "--config",
      S4_MODELS[0]], 504),
    (["stabilizers", "--p-max", "2", "--q-max", "4", "--config",
      S4_MODELS[0]], 504),
], ids=["c12-length-3", "s4_s3_s4-length-2", "s4-theorem-a",
        "s4-stabilizers"])
def test_survey_vertex_actions(monkeypatch, capsys, argv, calls):
    # a start vertex, once per survey: its translation checked on it.  A
    # segment: the translation of its far end, and each element of its
    # stabilizer re-applied to the far end.  A conjugate, once per start and
    # base element: one check that it fixes the start.  A segment type, once
    # per survey: the first edge's |C| stabilizer elements each applied to
    # the second vertex, and one action per later death (on the vertex at
    # its position, whose image's parent must be the vertex before it).  A
    # walked ray prefix, once per request: the first edge and later deaths as
    # for a type, and nothing more, since each ray's survivors are re-applied
    # to its end by act_on_boundary; theorem-A certificates and ray
    # stabilizers are one certificate, so they cost the same
    count = [0]

    def counted(*args):
        count[0] += 1
        return act_on_vertex(*args)

    monkeypatch.setattr("arbor.tree.act_on_vertex", counted)
    assert main(["check", "--what"] + argv) == 0
    capsys.readouterr()
    assert count[0] == calls


def test_survey_translates_each_start_once(monkeypatch, capsys):
    # the C12 length-3 survey's 3,120 segments start at 261 vertices, each
    # translated once, and their stabilizers hold 783 distinct (start, base
    # element) pairs, each conjugated once by two products
    counts = {"word_element": 0, "invert": 0, "multiply": 0}

    def counting(name, f):
        def counted(*args):
            counts[name] += 1
            return f(*args)
        return counted

    for name, f in [("word_element", word_element), ("invert", invert),
                    ("multiply", multiply)]:
        monkeypatch.setattr(f"arbor.tree.{name}", counting(name, f))
    assert main(["check", "--what", "acylindrical", "--seg-length", "3",
                 "--config", str(FIXTURES / "c12_c3_c15.json")]) == 0
    assert '"segments": 3120' in capsys.readouterr().out
    assert counts == {"word_element": 261, "invert": 261, "multiply": 1_566}


@pytest.mark.parametrize("name,length,segments,walks", [
    (str(FIXTURES / "c12_c3_c15.json"), 3, 3_120, 108),
    (S4_MODELS[1], 2, 318, 24),
], ids=["c12-length-3", "s4_s3_s4-length-2"])
def test_survey_walks_once_per_segment_type(monkeypatch, name, length,
                                            segments, walks):
    # one lockstep walk per translated segment, however many segments of
    # the ball translate onto it
    count = [0]

    def counted(*args):
        count[0] += 1
        return lockstep(*args)

    monkeypatch.setattr("arbor.tree.lockstep", counted)
    am, _ = load_config(name)
    assert check_acylindricity(am, length).segments == segments
    assert count[0] == walks


def test_memoized_survey_stabilizers_match_fresh_ones(monkeypatch):
    # each stabilizer the survey builds from a searched type is the one a
    # call without a memo finds for the same segment
    am, _ = load_config(S4_MODELS[1])
    found = []

    def recorded(am, path, memo):
        found.append((path, stabilizer_of_segment(am, path, memo)))
        return found[-1][1]

    monkeypatch.setattr("arbor.tree.stabilizer_of_segment", recorded)
    assert check_acylindricity(am, 3).segments == len(found) == 1_440
    for path, stab in found:
        assert stabilizer_of_segment(am, path) == stab


def test_reused_segment_type_is_still_rechecked(monkeypatch, capsys):
    # a conjugation that comes out as a hyperbolic element, which fixes no
    # vertex, on every segment whose type was searched before it: the memo
    # spares the search, the start's translation and the conjugates already
    # made from that start, and not the check that each new conjugate fixes
    # the start or the re-check at the segment's far end
    searched = [False]

    def walked(*args):
        searched[0] = True
        return lockstep(*args)

    def stabilized(*args):
        searched[0] = False
        return stabilizer_of_segment(*args)

    def conjugated(am, u, v):
        return multiply(am, u, v) if searched[0] else \
            ReducedWord((aL, bL), 0)

    monkeypatch.setattr("arbor.tree.lockstep", walked)
    monkeypatch.setattr("arbor.tree.stabilizer_of_segment", stabilized)
    monkeypatch.setattr("arbor.tree.multiply", conjugated)
    assert main(["check", "--what", "acylindrical", "--seg-length", "2",
                 "--config", S4_MODELS[1]]) == 3
    assert capsys.readouterr() == (
        "", "internal error: conjugated stabilizer element fails to fix\n")


def test_far_end_recheck_alone_refuses_a_whole_factor(monkeypatch, capsys):
    # a base stabilizer that is all of the factor G at the base coset: every
    # conjugate fixes the segment's start, so only the re-check at each
    # segment's own far end can refuse it
    def whole_factor(am, moved):
        side = len(moved[0]) % 2
        return tuple(word_of_subgroup_element(am, side, e)
                     for e in range(am.groups[side].order))

    monkeypatch.setattr("arbor.tree._base_stabilizer", whole_factor)
    assert main(["check", "--what", "acylindrical", "--seg-length", "2",
                 "--config", S4_MODELS[1]]) == 3
    assert capsys.readouterr() == (
        "", "internal error: conjugated stabilizer element fails to fix\n")


@pytest.mark.parametrize("model,length,segments,histogram", [
    ("s4_s3_s4", 3, 1_440, ((1, 960), (2, 480))),
    ("s4_s3_s4", 4, 8_694, ((1, 7_728), (2, 966))),
    ("z2wr4_z2e4", 3, 896, ((4, 768), (8, 128))),
    ("z2wr4_z2e4", 4, 4_956, ((2, 1_536), (4, 3_096), (8, 324))),
])
def test_survey_histograms_of_models_with_several_orders(model, length,
                                                         segments, histogram):
    # literals from a search of every segment: a memo that merged two
    # types with different orders would move a count between them
    am, _ = load_config(str(HERE / "models" / f"{model}.json"))
    report = check_acylindricity(am, length)
    assert (report.segments, report.orders_histogram) == (segments, histogram)


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
        1 for i in tree.vertices if len(tree.vertex(i)) % 2 == A_SIDE)
    assert 'v0 [label="", shape=circle];' in dot1


def test_word_element_of_vertex_words():
    am = builtin("sl2z")
    tree = build_tree(am, 4)
    for v in map(tree.vertex, tree.vertices):
        w = word_element(am, v)
        assert act_on_vertex(am, w, vertex_from_letters([], len(v) % 2)) == v
