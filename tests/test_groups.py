"""Group tables, cosets, amalgam construction, and normal-form arithmetic."""
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor.cli import ConfigError, load_config
from arbor.groups import (
    A_SIDE, B_SIDE, GROUP_ORDER_CAP, Amalgam, GroupError, Letter, ReducedWord,
    cyclic_group, group_from_table, group_from_permutations, make_group,
    make_amalgam, normal_form, multiply, invert, word_to_str, word_from_str,
)

from bruteforce import (
    BUILTIN_NAMES, builtin, coset_partition, element_order,
    enumerate_reduced_words, intercalates, is_associative, swap_intercalate,
    words_equal, tagged_of_reduced, element_key, MODEL_KEYS,
    validate_reduced_word, permutation_table,
)

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
MODEL_NAMES = list(BUILTIN_NAMES) + [str(p)
                                     for p in sorted(FIXTURES.glob("*.json"))]


def test_cyclic_group_basics():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert element_order(g, 2) == 3
    assert g.name(0) == "e"


def test_cyclic_rejects_nonpositive():
    with pytest.raises(GroupError):
        cyclic_group(0)


def test_table_validation_rejects_bad_identity():
    with pytest.raises(GroupError, match="identity"):
        group_from_table([[1, 0], [0, 1]])


def test_table_validation_rejects_non_latin():
    with pytest.raises(GroupError):
        group_from_table([[0, 1], [1, 1]])


@pytest.mark.parametrize("table,message", [
    ([[0, 1], [1]], "multiplication table is not square over 0..n-1"),
    # an entry out of range is reported before the broken identity
    ([[1, 0], [0, 7]], "multiplication table is not square over 0..n-1"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 3]],
     "multiplication table is not square over 0..n-1"),
    ([[1, 0], [0, 1]], "index 0 is not a two-sided identity"),
    # column 1 repeats an entry and so does row 2: the lower index is named
    ([[0, 1, 2], [1, 2, 0], [2, 1, 1]], "row or column 1 is not a permutation"),
    ([[0, 1, 2], [1, 0, 0], [2, 2, 1]], "row or column 1 is not a permutation"),
])
def test_table_validation_messages_in_order(table, message):
    with pytest.raises(GroupError) as exc:
        group_from_table(table)
    assert str(exc.value) == message


# A Latin square with two-sided identity that fails associativity.
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


# A loop of order 11 in which {0, 1}, {0, 1, 2, 3} and {0, ..., 6} are
# closed under right multiplication by 1; by 1 and 2; by 1, 2 and 4.  A group
# of order 11 would be reached by floor(log2 11) = 3 generators.
LOOP_11 = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    [1, 0, 3, 10, 6, 4, 2, 5, 7, 8, 9],
    [2, 3, 0, 4, 1, 6, 8, 9, 5, 10, 7],
    [3, 2, 1, 7, 5, 8, 10, 6, 9, 0, 4],
    [4, 5, 6, 9, 0, 7, 1, 8, 10, 3, 2],
    [5, 6, 4, 2, 3, 9, 7, 10, 0, 1, 8],
    [6, 4, 5, 8, 2, 10, 9, 1, 3, 7, 0],
    [7, 9, 8, 6, 10, 2, 5, 0, 1, 4, 3],
    [8, 7, 10, 1, 9, 3, 0, 2, 4, 6, 5],
    [9, 10, 7, 5, 8, 0, 4, 3, 6, 2, 1],
    [10, 8, 9, 0, 7, 1, 3, 4, 2, 5, 6],
]


def test_table_validation_rejects_non_associative():
    assert not is_associative(LOOP_5)
    with pytest.raises(GroupError, match="associative"):
        group_from_table(LOOP_5)
    assert not is_associative(LOOP_11)
    with pytest.raises(GroupError, match="not associative: 11 elements need "
                                         "more than 3 generators"):
        group_from_table(LOOP_11)


def test_associativity_is_checked_at_every_order():
    # C300 with one intercalate swapped: (1·1)·2 = 154 but 1·(1·2) = 4
    table = swap_intercalate([[(i + j) % 300 for j in range(300)]
                              for i in range(300)], (1, 151, 1, 151))
    assert table[table[1][1]][2] == 154 and table[1][table[1][2]] == 4
    with pytest.raises(GroupError, match="not associative"):
        group_from_table(table)


def _base_tables():
    yield from ([[(i + j) % n for j in range(n)] for i in range(n)]
                for n in range(1, 17))
    # C2 x C2 x C2, S3, D4 and A4, none of them cyclic
    yield [[i ^ j for j in range(8)] for i in range(8)]
    yield permutation_table([(1, 0, 2), (1, 2, 0)])
    yield permutation_table([(1, 2, 3, 0), (0, 3, 2, 1)])
    yield permutation_table([(1, 2, 0, 3), (0, 2, 3, 1)])


BASE_TABLES = list(_base_tables())


@st.composite
def loops(draw):
    """A group table, relabelled by a permutation that fixes 0, with up to
    three intercalates swapped in turn: a Latin square with identity 0,
    associative or not."""
    table = draw(st.sampled_from(BASE_TABLES))
    n = len(table)
    relabel = [0] + draw(st.permutations(range(1, n)))
    back = {x: i for i, x in enumerate(relabel)}
    table = [[relabel[table[back[a]][back[b]]] for b in range(n)]
             for a in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        quads = intercalates(table)
        if not quads:
            break
        table = swap_intercalate(table, draw(st.sampled_from(quads)))
    return table


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(loops())
def test_light_check_agrees_with_the_triple_loop(table):
    try:
        group_from_table(table)
        accepted = True
    except GroupError as err:
        assert "not associative" in str(err)
        accepted = False
    assert accepted == is_associative(table)


def test_permutation_closure_three_cycle():
    g = group_from_permutations([(1, 2, 0)])
    assert g.order == 3
    assert element_order(g, 1) == 3


def test_permutation_closure_symmetric_group():
    g = group_from_permutations([(1, 0, 2), (0, 2, 1)])
    assert g.order == 6
    orders = sorted(element_order(g, a) for a in g.elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_permutation_closure_cap():
    with pytest.raises(GroupError, match="cap"):
        group_from_permutations([(1, 2, 3, 0)], cap=3)


@pytest.mark.parametrize("gens", [
    [(1, 0, 2, 3), (1, 2, 3, 0)],
    [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)],
    [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
    [tuple((i + 1) % 40 for i in range(40))],
])
def test_permutation_table_matches_direct_composition(gens):
    g = group_from_permutations(gens)
    assert g.mul_table == permutation_table(gens)


def test_largest_permutation_closure_is_fast():
    # a 1024-cycle: composing every pair directly takes over a minute
    started = time.perf_counter()
    g = group_from_permutations([tuple((i + 1) % 1024 for i in range(1024))],
                                cap=GROUP_ORDER_CAP)
    assert time.perf_counter() - started < 10
    assert g.order == 1024 and element_order(g, 1) == 1024


def test_make_group_dispatch():
    assert make_group(5).order == 5
    assert make_group({"cyclic": 3, "names": ["e", "x", "x2"]}).name(1) == "x"
    assert make_group({"permutations": [(1, 0)]}).order == 2
    assert make_group({"mul_table": [[0, 1], [1, 0]]}).order == 2
    with pytest.raises(GroupError):
        make_group({"cyclic": 2, "mul_table": [[0]]})


def test_homomorphism_validation():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    am = make_amalgam(c4, c4, c2, [0, 2], [0, 2])
    assert am.embed_to_side(A_SIDE, 1) == 2
    assert am.embed_to_side(B_SIDE, 1) == 2
    with pytest.raises(GroupError, match=r"not a homomorphism at \(1,1\)"):
        make_amalgam(c4, c4, c2, [0, 1], [0, 2])  # 1+1 = 0 in C2, 2 in C4
    with pytest.raises(GroupError, match="not injective"):
        make_amalgam(c4, c4, c2, [0, 2], [0, 0])
    with pytest.raises(GroupError, match="out of range"):
        make_amalgam(c4, c4, c2, [0, 4], [0, 2])
    with pytest.raises(GroupError, match="cover every source element"):
        make_amalgam(c4, c4, c2, [0, 2], [0])
    with pytest.raises(GroupError, match="identity to identity"):
        make_amalgam(c4, c4, c2, [2, 0], [0, 2])


def test_subgroup_predicates():
    # {0, 2, 4} is the image of C3 in C6; {0, 2} is no subgroup, so no
    # homomorphism from C2 has it as its image
    c6 = cyclic_group(6)
    am = make_amalgam(c6, c6, cyclic_group(3), [0, 2, 4], [0, 4, 2])
    assert {am.embed_to_side(A_SIDE, c) for c in range(3)} == {0, 2, 4}
    with pytest.raises(GroupError, match="not a homomorphism"):
        make_amalgam(c6, c6, cyclic_group(2), [0, 2], [0, 3])


def test_left_cosets_c4_mod_c2():
    c4 = cyclic_group(4)
    am = make_amalgam(c4, c4, cyclic_group(2), [0, 2], [0, 2])
    trans = am.transversal(A_SIDE)
    assert trans.reps == (0, 1)
    assert trans.index == 2
    cosets = [sorted(u for u in c4.elements()
                     if am.decompose(A_SIDE, u)[0] == i) for i in range(2)]
    assert cosets == [[0, 2], [1, 3]]
    # independent recomputation element by element
    for i, coset in enumerate(cosets):
        for x in coset:
            assert sorted(c4.mul(x, s) for s in (0, 2)) == coset
        assert min(coset) == trans.reps[i]


def test_left_cosets_rejects_non_subgroup(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": {
        "h": {"cyclic": 4}, "k": {"cyclic": 4}, "c": {"cyclic": 2},
        "embed_h": [0, 1], "embed_k": [0, 2]}}))
    with pytest.raises(ConfigError, match=r"^model: not a homomorphism"):
        load_config(str(path))


@pytest.mark.parametrize("name", MODEL_NAMES,
                         ids=lambda name: Path(name).stem)
def test_cosets_match_the_brute_force_partition(name):
    am = builtin(name)
    for side in (A_SIDE, B_SIDE):
        grp = am.side_group(side)
        images = [am.embed_to_side(side, c) for c in am.C.elements()]
        cosets, reps = coset_partition(grp, images)
        assert am.transversal(side).reps == tuple(reps)
        for g in grp.elements():
            rep_idx, carry = am.decompose(side, g)
            assert g in cosets[rep_idx]
            assert grp.mul(am.rep_element(side, rep_idx),
                           am.embed_to_side(side, carry)) == g


def test_amalgam_indices():
    am = builtin("sl2z")
    assert (am.A.index, am.B.index) == (2, 3)
    assert am.A.reps == (0, 1)
    assert am.B.reps == (0, 1, 2)
    d = builtin("dihedral")
    assert (d.A.index, d.B.index) == (2, 2)
    p = builtin("psl2z")
    assert (p.A.index, p.B.index) == (2, 3)


def test_amalgam_rejects_index_one():
    c4 = cyclic_group(4)
    with pytest.raises(GroupError, match="at least 2"):
        make_amalgam(c4, cyclic_group(8), c4, [0, 1, 2, 3], [0, 2, 4, 6])


def test_amalgam_refuses_images_that_are_not_a_subgroup():
    # make_amalgam checks the embedding first; built directly, the coset
    # walk is what refuses {0, 1, 2} in C4: 3 + 1 lands in the first coset
    c4 = cyclic_group(4)
    with pytest.raises(GroupError,
                       match="^coset factorization is not unique$"):
        Amalgam(c4, c4, cyclic_group(3), (0, 1, 2), (0, 1, 2))


def test_amalgam_rejects_non_injective_embedding():
    c2 = cyclic_group(2)
    with pytest.raises(GroupError):
        make_amalgam(c2, c2, c2, [0, 0], [0, 1])


def test_decompose_tables_are_exact():
    for am in (builtin("dihedral"), builtin("sl2z"), builtin("psl2z")):
        for side in (A_SIDE, B_SIDE):
            grp = am.side_group(side)
            for u in grp.elements():
                rep_idx, c = am.decompose(side, u)
                rep = am.rep_element(side, rep_idx)
                assert grp.mul(rep, am.embed_to_side(side, c)) == u
                embedded = {am.embed_to_side(side, c) for c in am.C.elements()}
                assert (rep_idx == 0) == (u in embedded)


def test_normal_form_single_letters_sl2z():
    am = builtin("sl2z")
    assert normal_form(am, [("H", "a3")]) == ReducedWord((Letter(A_SIDE, 1),), 1)
    assert normal_form(am, [("K", 4)]) == ReducedWord((Letter(B_SIDE, 1),), 1)
    assert normal_form(am, [("K", 3)]) == ReducedWord((), 1)
    assert normal_form(am, [("C", "z")]) == ReducedWord((), 1)


def test_normal_form_carry_propagates_sl2z():
    am = builtin("sl2z")
    w = normal_form(am, [("K", 4), ("H", 1)])
    assert w == ReducedWord((Letter(B_SIDE, 1), Letter(A_SIDE, 1)), 1)
    assert normal_form(am, [("H", 1), ("H", 3)]) == ReducedWord((), 0)


def test_normal_form_dihedral_alternation():
    am = builtin("dihedral")
    w = normal_form(am, [("H", "s"), ("K", "t"), ("H", "s")])
    assert w.letters == (Letter(A_SIDE, 1), Letter(B_SIDE, 1), Letter(A_SIDE, 1))
    assert w.carry == 0
    assert normal_form(am, [("H", 1), ("H", 1)]) == am.identity_word()


def test_normal_form_validates_inputs():
    am = builtin("sl2z")
    with pytest.raises(GroupError):
        normal_form(am, [("X", 1)])
    with pytest.raises(GroupError):
        normal_form(am, [("H", 9)])
    with pytest.raises(GroupError):
        normal_form(am, [("H", "nope")])
    with pytest.raises(GroupError, match="^C element 99 out of range$"):
        normal_form(am, [("C", 99)])


@pytest.mark.parametrize("name", ["dihedral", "sl2z", "psl2z"])
def test_normal_form_matches_matrix_oracle_exhaustively(name):
    am = builtin(name)
    key = MODEL_KEYS[name]
    syllables = [(A_SIDE, x) for x in range(1, am.H.order)] + \
                [(B_SIDE, x) for x in range(1, am.K.order)]
    tags = {A_SIDE: "H", B_SIDE: "K"}
    from itertools import product as iproduct
    for length in range(0, 4):
        for combo in iproduct(syllables, repeat=length):
            w = normal_form(am, [(tags[s], x) for s, x in combo])
            validate_reduced_word(am, w)
            assert key(combo) == key(tagged_of_reduced(am, w))


def test_normal_form_matches_rewriting_closure_sl2z():
    am = builtin("sl2z")
    from itertools import product as iproduct
    syllables = [(A_SIDE, x) for x in range(1, 4)] + [(B_SIDE, x) for x in range(1, 6)]
    tags = {A_SIDE: "H", B_SIDE: "K"}
    for length in range(0, 3):
        for combo in iproduct(syllables, repeat=length):
            w = normal_form(am, [(tags[s], x) for s, x in combo])
            assert words_equal(am, combo, tagged_of_reduced(am, w))


def test_closure_separates_unequal_words():
    am = builtin("sl2z")
    assert not words_equal(am, ((A_SIDE, 1),), ((B_SIDE, 1),))
    assert not words_equal(am, ((A_SIDE, 2),), ())
    assert words_equal(am, ((A_SIDE, 2),), ((B_SIDE, 3),))


@pytest.mark.parametrize("name", ["dihedral", "sl2z", "psl2z"])
def test_multiply_matches_matrix_oracle(name):
    am = builtin(name)
    words = enumerate_reduced_words(am, 2)
    for u in words:
        for v in words:
            p = multiply(am, u, v)
            validate_reduced_word(am, p)
            assert element_key(name, am, p) == MODEL_KEYS[name](
                tagged_of_reduced(am, u) + tagged_of_reduced(am, v))


@pytest.mark.parametrize("name", ["dihedral", "sl2z", "psl2z"])
def test_invert_is_exact(name):
    am = builtin(name)
    for u in enumerate_reduced_words(am, 2):
        ui = invert(am, u)
        validate_reduced_word(am, ui)
        assert multiply(am, u, ui) == am.identity_word()
        assert multiply(am, ui, u) == am.identity_word()
        assert invert(am, ui) == u


def test_multiply_is_associative_on_sample():
    am = builtin("sl2z")
    words = enumerate_reduced_words(am, 1)
    for u in words:
        for v in words:
            for w in words:
                assert multiply(am, multiply(am, u, v), w) == \
                    multiply(am, u, multiply(am, v, w))


def test_enumerate_reduced_words_counts():
    am = builtin("sl2z")
    # shapes: () plus alternating strings from letter pools of sizes 1 (A) and 2 (B)
    def shape_count(max_len):
        total = 1
        for start_pool, other_pool in ((1, 2), (2, 1)):
            for length in range(1, max_len + 1):
                n = 1
                for pos in range(length):
                    n *= start_pool if pos % 2 == 0 else other_pool
                total += n
        return total
    for max_len in (0, 1, 2, 3):
        words = enumerate_reduced_words(am, max_len)
        assert len(words) == shape_count(max_len) * am.C.order
        assert len(set(words)) == len(words)
        assert words == sorted(words, key=ReducedWord.sort_key)


def test_word_string_roundtrip():
    for name in ("dihedral", "sl2z"):
        am = builtin(name)
        for w in enumerate_reduced_words(am, 2):
            s = word_to_str(am, w)
            assert word_from_str(am, s) == w
    am = builtin("sl2z")
    assert word_to_str(am, am.identity_word()) == "e"
    assert word_from_str(am, "a*b2*z").carry == 1
    with pytest.raises(GroupError):
        word_from_str(am, "a*q")


def test_word_from_str_refuses_a_name_of_two_factors():
    # "x" names a generator of H and one of K, two different elements
    h = cyclic_group(4, ["e", "x", "a2", "a3"])
    k = cyclic_group(6, ["e", "x", "b2", "b3", "b4", "b5"])
    am = make_amalgam(h, k, cyclic_group(2, ["e", "z"]), [0, 2], [0, 3])
    assert word_from_str(am, "a2*b2") == normal_form(am, [("H", 2), ("K", 2)])
    for s in ("x", "a2*x"):
        with pytest.raises(GroupError, match="^ambiguous element name 'x'$"):
            word_from_str(am, s)


def test_validate_reduced_word_rejects_bad_words():
    am = builtin("sl2z")
    with pytest.raises(GroupError, match="alternate"):
        validate_reduced_word(am, ReducedWord((Letter(A_SIDE, 1), Letter(A_SIDE, 1)), 0))
    with pytest.raises(GroupError, match="trivial"):
        validate_reduced_word(am, ReducedWord((Letter(A_SIDE, 0),), 0))
    with pytest.raises(GroupError, match="carry"):
        validate_reduced_word(am, ReducedWord((), 5))
