"""Group tables, cosets, amalgam construction, and normal-form arithmetic."""
import pytest

from arbor.groups import (
    A_SIDE, B_SIDE, GroupError, Letter, ReducedWord,
    cyclic_group, group_from_table, group_from_permutations, make_group,
    make_homomorphism, make_amalgam, is_subgroup, left_cosets,
    normal_form, multiply, invert, word_to_str, word_from_str,
)

from bruteforce import (
    builtin, element_order, enumerate_reduced_words, words_equal,
    tagged_of_reduced, element_key, MODEL_KEYS, validate_reduced_word,
)


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


def test_table_validation_rejects_non_associative():
    # Latin square with two-sided identity that fails associativity.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match="associative"):
        group_from_table(table)


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


def test_make_group_dispatch():
    assert make_group(5).order == 5
    assert make_group({"cyclic": 3, "names": ["e", "x", "x2"]}).name(1) == "x"
    assert make_group({"permutations": [(1, 0)]}).order == 2
    assert make_group({"mul_table": [[0, 1], [1, 0]]}).order == 2
    with pytest.raises(GroupError):
        make_group({"cyclic": 2, "mul_table": [[0]]})


def test_homomorphism_validation():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    h = make_homomorphism(c2, c4, [0, 2], require_injective=True)
    assert h.images[1] == 2
    with pytest.raises(GroupError):
        make_homomorphism(c2, c4, [0, 1])  # 1+1 = 0 in C2 but 1+1 = 2 in C4
    with pytest.raises(GroupError):
        make_homomorphism(c2, c4, [0, 0], require_injective=True)


def test_subgroup_predicates():
    c6 = cyclic_group(6)
    assert is_subgroup(c6, {0, 2, 4})
    assert not is_subgroup(c6, {0, 2})


def test_left_cosets_c4_mod_c2():
    c4 = cyclic_group(4)
    cosets, trans = left_cosets(c4, {0, 2})
    assert cosets == [[0, 2], [1, 3]]
    assert trans.reps == (0, 1)
    assert trans.index == 2
    # independent recomputation element by element
    for i, coset in enumerate(cosets):
        for x in coset:
            assert sorted(c4.mul(x, s) for s in (0, 2)) == coset
        assert min(coset) == trans.reps[i]


def test_left_cosets_rejects_non_subgroup():
    with pytest.raises(GroupError):
        left_cosets(cyclic_group(4), {0, 1})


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


def test_validate_reduced_word_rejects_bad_words():
    am = builtin("sl2z")
    with pytest.raises(GroupError, match="alternate"):
        validate_reduced_word(am, ReducedWord((Letter(A_SIDE, 1), Letter(A_SIDE, 1)), 0))
    with pytest.raises(GroupError, match="trivial"):
        validate_reduced_word(am, ReducedWord((Letter(A_SIDE, 0),), 0))
    with pytest.raises(GroupError, match="carry"):
        validate_reduced_word(am, ReducedWord((), 5))
