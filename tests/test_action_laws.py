"""Action laws of the tree layer, on random elements, ends and vertices.

Properties the boundary and vertex actions must keep whatever engine
computes them: the identity acts trivially, acting by h then g is acting
by gh, g^-1 undoes g, and edges go to edges.  Products are checked against
the rewriting closure, which never touches the normal-form tables, and the
lockstep walks behind canonical orbit codes, ray stabilizers and theorem-A
certificates against applying every base element.  The letter feed behind
every product is checked against absorb for each side, carry and rep, and
products and actions against an oracle that absorbs every letter.  Runs on
the three built-in models and the benchmark's two fixtures; the feed, the
absorb oracle and the walks also run on every model in tests/models, the
ones here with a non-cyclic C.  With a cyclic C a carry and its image under
the step table generate the same subgroup, so a stabilizer walk that
forgets to move its survivors' carries still finds every stabilizer, and
only those models catch it.  On Z2 wr Z4 *_(Z2^3) Z2^4 a carry lives for
two cycle passes and dies in the third, so ray certificates run far past
the horizon.
"""
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor.cber import _orbit_min
from arbor.codes import BoundaryCode
from arbor.groups import (A_SIDE, B_SIDE, Letter, ReducedWord, absorb, feed,
                          invert, multiply)
from arbor.tree import (act_on_boundary, act_on_vertex, check_theorem_A,
                        code_truncate, is_adjacent, lockstep, lockstep_bound,
                        ray_stabilizer, validate_vertex)

import bruteforce
from bruteforce import (BUILTIN_NAMES, absorb_act_on_boundary,
                        absorb_act_on_vertex, absorb_multiply, builtin,
                        orbit_min, tagged_of_reduced, words_equal)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "perfbench" / "fixtures"
MODELS = {name: builtin(name) for name in BUILTIN_NAMES}
MODELS.update((p.stem, builtin(str(p)))
              for p in sorted(FIXTURES.glob("*.json")))
WALK_MODELS = dict(MODELS, **{p.stem: builtin(str(p))
                              for p in sorted((HERE / "models").glob("*.json"))})

LAWS = settings(max_examples=100, deadline=None, derandomize=True,
                database=None)


def _letters(draw, am, length: int, start: int, first_trivial: bool):
    """Alternating letters from side `start`; the first may be trivial."""
    out = []
    for i in range(length):
        side = (start + i) % 2
        low = 0 if i == 0 and first_trivial else 1
        out.append(Letter(side, draw(st.integers(
            low, am.transversals[side].index - 1))))
    return tuple(out)


@st.composite
def words(draw, am, max_letters: int = 4):
    letters = _letters(draw, am, draw(st.integers(0, max_letters)),
                       draw(st.integers(0, 1)), False)
    return ReducedWord(letters, draw(st.integers(0, am.C.order - 1)))


@st.composite
def ends(draw, am):
    p = draw(st.integers(0, 3))
    letters = _letters(draw, am, p + draw(st.sampled_from((2, 4, 6))),
                       A_SIDE, p > 0)
    return BoundaryCode(letters[:p], letters[p:])


@st.composite
def vertices(draw, am):
    length = draw(st.integers(0, 5))
    v = _letters(draw, am, length, A_SIDE, True)
    validate_vertex(am, v)
    return v


@pytest.mark.parametrize("name", sorted(MODELS))
def test_boundary_action_laws(name):
    am = MODELS[name]

    @LAWS
    @given(words(am), words(am), ends(am))
    def laws(g, h, x):
        hx = act_on_boundary(am, h, x)
        assert act_on_boundary(am, ReducedWord((), 0), x) == x
        assert act_on_boundary(am, g, hx) == \
            act_on_boundary(am, multiply(am, g, h), x)
        assert act_on_boundary(am, invert(am, h), hx) == x

    laws()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_vertex_action_laws(name):
    am = MODELS[name]

    @LAWS
    @given(words(am), words(am), vertices(am), st.data())
    def laws(g, h, v, data):
        hv = act_on_vertex(am, h, v)
        validate_vertex(am, hv)
        assert act_on_vertex(am, ReducedWord((), 0), v) == v
        assert act_on_vertex(am, g, hv) == \
            act_on_vertex(am, multiply(am, g, h), v)
        assert act_on_vertex(am, invert(am, h), hv) == v
        # a child of v, as build_tree grows it
        side = len(v) % 2
        low = 1 if v else 0
        rep = data.draw(st.integers(low, am.transversals[side].index - 1))
        w = v + (Letter(side, rep),)
        assert is_adjacent(v, w)
        assert is_adjacent(hv, act_on_vertex(am, h, w))

    laws()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_multiply_matches_rewriting_closure(name):
    am = MODELS[name]

    @LAWS
    @given(words(am, 2), words(am, 2))
    def law(u, v):
        product = multiply(am, u, v)
        assert words_equal(am, tagged_of_reduced(am, u)
                           + tagged_of_reduced(am, v),
                           tagged_of_reduced(am, product))

    law()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_step_table_is_exact(name):
    am = MODELS[name]
    for side in (A_SIDE, B_SIDE):
        grp = am.groups[side]
        for c in range(am.C.order):
            for rep in range(am.transversals[side].index):
                u = grp.mul_table[am.embed[side][c]][
                    am.transversals[side].reps[rep]]
                assert am.steps[side][c][rep] == (am.rep_idx[side][u],
                                                  am.carry[side][u])


@pytest.mark.parametrize("name", sorted(WALK_MODELS))
def test_feed_matches_absorb(name):
    # every side, carry and rep fed into an empty word, after each letter
    # of the other side (one step-table lookup) and after each letter of
    # the same side (the junction absorb merges)
    am = WALK_MODELS[name]
    for side in (A_SIDE, B_SIDE):
        befores = [()] + [(Letter(s, r),) for s in (1 - side, side)
                          for r in range(1, am.transversals[s].index)]
        for c in range(am.C.order):
            for rep in range(am.transversals[side].index):
                for before in befores:
                    fed, absorbed = list(before), list(before)
                    assert feed(am, fed, c, Letter(side, rep)) == absorb(
                        am, absorbed, c, side, am.transversals[side].reps[rep])
                    assert fed == absorbed


@pytest.mark.parametrize("name", sorted(WALK_MODELS))
def test_products_match_the_absorb_oracle(name):
    am = WALK_MODELS[name]

    @LAWS
    @given(words(am), words(am), vertices(am), ends(am))
    def law(u, v, w, x):
        assert multiply(am, u, v) == absorb_multiply(am, u, v)
        assert act_on_vertex(am, u, w) == absorb_act_on_vertex(am, u, w)
        assert act_on_boundary(am, u, x) == absorb_act_on_boundary(am, u, x)

    law()


@pytest.mark.parametrize("name", sorted(WALK_MODELS))
def test_orbit_min_walk_matches_every_element_applied(name):
    am = WALK_MODELS[name]

    @LAWS
    @given(ends(am))
    def law(x):
        # x with its first letter made trivial
        head = (Letter(A_SIDE, 0),)
        trivial = BoundaryCode(head + x.prefix[1:], x.cycle) if x.prefix \
            else BoundaryCode(head, x.cycle[1:] + x.cycle[:1])
        for code in (x, trivial):
            assert _orbit_min(am, code) == orbit_min(am, code)

    law()


@pytest.mark.parametrize("name", sorted(WALK_MODELS))
def test_stabilizer_walk_matches_every_element_applied(name):
    am = WALK_MODELS[name]

    @LAWS
    @given(ends(am), st.integers(0, 4))
    def law(x, max_len):
        ray = bruteforce.ray_stabilizer(am, x)
        assert ray_stabilizer(am, x) == ray
        # uncapped, the walk certifies every end within its own bound
        for cap, brute_cap in ((None, lockstep_bound(am, x)),
                               (max_len, max_len)):
            cert = check_theorem_A(am, x, cap)
            expect = bruteforce.check_theorem_A(am, x, brute_cap)
            assert (cert is None) == (expect is None)
            if cert is not None:
                n, stab, brute_ray = expect
                assert (cert.sigma_length, cert.elements, cert.elements) == \
                    (n, stab, brute_ray)
                assert cert.order == len(ray)

    law()


@pytest.mark.parametrize("name", sorted(WALK_MODELS))
def test_ray_walk_deaths_are_first_moves(name):
    am = WALK_MODELS[name]

    @LAWS
    @given(ends(am))
    def law(x):
        # along the steps the walk took, each element it drops first moves
        # the ray at exactly the position it reports, and each survivor
        # moves none of them
        out, survivors, deaths = lockstep(am, x, False)
        reported, found = bruteforce.walk_first_moves(
            am, A_SIDE, code_truncate(x, len(out)).vertices, survivors,
            deaths)
        assert reported == found

    law()
