"""Action laws of the tree layer, on random elements, ends and vertices.

Properties the boundary and vertex actions must keep whatever engine
computes them: the identity acts trivially, acting by h then g is acting
by gh, g^-1 undoes g, and edges go to edges.  Products are checked against
the rewriting closure, which never touches the normal-form tables.  Runs on
the three built-in models and the benchmark's two fixtures.
"""
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor.codes import BoundaryCode
from arbor.groups import A_SIDE, Letter, ReducedWord, invert, multiply
from arbor.tree import (TreeVertex, act_on_boundary, act_on_vertex,
                        is_adjacent, validate_vertex)

from bruteforce import BUILTIN_NAMES, builtin, tagged_of_reduced, words_equal

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
MODELS = {name: builtin(name) for name in BUILTIN_NAMES}
MODELS.update((p.stem, builtin(str(p)))
              for p in sorted(FIXTURES.glob("*.json")))

LAWS = settings(max_examples=100, deadline=None, derandomize=True,
                database=None)


def _letters(draw, am, length: int, start: int, first_trivial: bool):
    """Alternating letters from side `start`; the first may be trivial."""
    out = []
    for i in range(length):
        side = (start + i) % 2
        low = 0 if i == 0 and first_trivial else 1
        out.append(Letter(side, draw(st.integers(
            low, am.transversal(side).index - 1))))
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
    v = TreeVertex(length % 2, _letters(draw, am, length, A_SIDE, True))
    validate_vertex(am, v)
    return v


@pytest.mark.parametrize("name", sorted(MODELS))
def test_boundary_action_laws(name):
    am = MODELS[name]

    @LAWS
    @given(words(am), words(am), ends(am))
    def laws(g, h, x):
        hx = act_on_boundary(am, h, x)
        assert act_on_boundary(am, am.identity_word(), x) == x
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
        assert act_on_vertex(am, am.identity_word(), v) == v
        assert act_on_vertex(am, g, hv) == \
            act_on_vertex(am, multiply(am, g, h), v)
        assert act_on_vertex(am, invert(am, h), hv) == v
        # a child of v, as build_tree grows it
        side = len(v.word) % 2
        low = 1 if v.word else 0
        rep = data.draw(st.integers(low, am.transversal(side).index - 1))
        w = TreeVertex(1 - v.vtype, v.word + (Letter(side, rep),))
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
