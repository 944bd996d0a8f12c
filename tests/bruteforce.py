"""Independent oracles used only by the tests.

Two roads that never touch the normal-form machinery: a bounded rewriting
closure over tagged words, and faithful matrix/affine representations of the
three built-in models.  Two exhaustive surveys the library replaced with
direct constructions: segments from all vertex pairs, and orbit witnesses
rebuilt from scratch for every pair.  Direct checks of what the commands
print: normal-form validity, tail equivalence (which implies orbit
equivalence), codes read back off their rays, and a bounded word search for
orbit witnesses over every normal form up to a length.  Deviation tensors built
from a model's boundary action, as inputs for `cfw`.  The built-in models
themselves come from the packaged configs, through the loader the command
line uses.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional

from arbor.cli import load_config
from arbor.codes import BoundaryCode, PeriodicWord, compare_words, format_code
from arbor.groups import (A_SIDE, B_SIDE, Amalgam, FiniteGroup, GroupError,
                          Letter, ReducedWord, invert, multiply,
                          word_of_subgroup_element, word_to_str)
from arbor.reiter import (DeviationTensor, ProbVector, SchreierWindow,
                          format_fraction, l1_distance)
from arbor.tree import (GeodesicPath, TreeError, act_on_boundary, base_vertex,
                        build_tree, geodesic, stabilizer_of_segment,
                        word_element)

Tagged = tuple[tuple[int, int], ...]  # (side, element index), elements nontrivial

BUILTIN_NAMES = ("dihedral", "sl2z", "psl2z")


def builtin(name: str) -> Amalgam:
    """A model by built-in name or config path, as `--config` loads it."""
    return load_config(name)[0]


def element_order(group: FiniteGroup, a: int) -> int:
    """Least k >= 1 with a^k the identity, by repeated multiplication."""
    k, x = 1, a
    while x != 0:
        x = group.mul(x, a)
        k += 1
    return k


def validate_reduced_word(am: Amalgam, w: ReducedWord) -> None:
    """Check alternation, nontrivial letters, and ranges; raises GroupError."""
    for i, letter in enumerate(w.letters):
        if letter.side not in (A_SIDE, B_SIDE):
            raise GroupError(f"letter {i} has invalid side {letter.side}")
        if not (1 <= letter.rep < am.transversal(letter.side).index):
            raise GroupError(f"letter {i} is trivial or out of range")
        if i and w.letters[i - 1].side == letter.side:
            raise GroupError(f"letters {i - 1} and {i} do not alternate")
    if not (0 <= w.carry < am.C.order):
        raise GroupError("carry out of range")


def enumerate_reduced_words(am: Amalgam, max_letters: int) -> list[ReducedWord]:
    """All normal forms with at most max_letters letters, sorted deterministically."""
    n_a, n_b = am.A.index, am.B.index
    shapes: list[tuple[Letter, ...]] = [()]
    for start in (A_SIDE, B_SIDE):
        for length in range(1, max_letters + 1):
            pools = []
            for pos in range(length):
                side = start if pos % 2 == 0 else 1 - start
                count = n_a if side == A_SIDE else n_b
                pools.append([Letter(side, r) for r in range(1, count)])
            shapes.extend(product(*pools))
    words = [ReducedWord(tuple(shape), c)
             for shape in shapes for c in am.C.elements()]
    words.sort(key=ReducedWord.sort_key)
    return words


def normalize_tagged(word) -> Tagged:
    return tuple((side, elem) for side, elem in word if elem != 0)


def _neighbors(am: Amalgam, word: Tagged) -> list[Tagged]:
    out = []
    n = len(word)
    for i in range(n - 1):
        (s1, x1), (s2, x2) = word[i], word[i + 1]
        if s1 == s2:
            merged = am.side_group(s1).mul(x1, x2)
            mid = ((s1, merged),) if merged != 0 else ()
            out.append(word[:i] + mid + word[i + 2:])
        else:
            for c in range(1, am.C.order):
                left = am.side_group(s1).mul(x1, am.embed_to_side(s1, c))
                right = am.side_group(s2).mul(
                    am.embed_to_side(s2, am.C.inv(c)), x2)
                mid = tuple(p for p in ((s1, left), (s2, right)) if p[1] != 0)
                out.append(word[:i] + mid + word[i + 2:])
    embedded = [{am.embed_to_side(side, c): c for c in am.C.elements()}
                for side in (A_SIDE, B_SIDE)]
    for i in range(n):
        side, elem = word[i]
        c = embedded[side].get(elem)
        if c is not None:
            other = 1 - side
            out.append(word[:i] + ((other, am.embed_to_side(other, c)),)
                       + word[i + 1:])
    return out


def closure(am: Amalgam, word, cap: int = 500_000) -> frozenset[Tagged]:
    """All tagged words reachable by value-preserving rewrites."""
    start = normalize_tagged(word)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for nxt in _neighbors(am, cur):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("rewriting closure exceeded cap")
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def words_equal(am: Amalgam, w1, w2, cap: int = 500_000) -> bool:
    """Equality of group elements via intersection of rewriting closures."""
    c1 = closure(am, w1, cap)
    if normalize_tagged(w2) in c1:
        return True
    return bool(c1 & closure(am, w2, cap))


def tagged_of_reduced(am: Amalgam, w: ReducedWord):
    """Spell a normal form as a tagged word (letters, then the carry letter)."""
    out = [(letter.side, am.letter_element(letter)) for letter in w.letters]
    if w.carry != 0:
        out.append((A_SIDE, am.embed_to_side(A_SIDE, w.carry)))
    return tuple(out)


# --- matrix / affine representations ---------------------------------------

def _mat_mul(m, n):
    return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
             m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0],
             m[1][0] * n[0][1] + m[1][1] * n[1][1]))


_ID = ((1, 0), (0, 1))
_S = ((0, -1), (1, 0))       # order 4
_ST = ((0, -1), (1, 1))      # order 6, (ST)^3 = S^2 = -I


def _mat_pow(m, k):
    out = _ID
    for _ in range(k):
        out = _mat_mul(out, m)
    return out


def _sign_normalize(m):
    flat = (m[0][0], m[0][1], m[1][0], m[1][1])
    for x in flat:
        if x != 0:
            return m if x > 0 else tuple(tuple(-v for v in row) for row in m)
    raise ValueError("zero matrix")


def sl2z_key(tagged):
    """Product in SL(2,Z) under a -> S, b -> ST; faithful for the C4*C6 model."""
    out = _ID
    for side, elem in tagged:
        gen = _S if side == A_SIDE else _ST
        out = _mat_mul(out, _mat_pow(gen, elem))
    return out


def psl2z_key(tagged):
    """Product in PSL(2,Z) under s -> S, t -> ST, sign-normalized."""
    out = _ID
    for side, elem in tagged:
        gen = _S if side == A_SIDE else _ST
        out = _mat_mul(out, _mat_pow(gen, elem))
    return _sign_normalize(out)


def dihedral_key(tagged):
    """Product of the affine maps s: x -> -x and t: x -> 1 - x."""
    a, b = 1, 0
    for side, elem in tagged:
        if elem == 0:
            continue
        ga, gb = (-1, 0) if side == A_SIDE else (-1, 1)
        a, b = a * ga, a * gb + b
    return (a, b)


MODEL_KEYS = {"dihedral": dihedral_key, "sl2z": sl2z_key, "psl2z": psl2z_key}


def element_key(model_name: str, am: Amalgam, w: ReducedWord):
    return MODEL_KEYS[model_name](tagged_of_reduced(am, w))


# --- tree and orbit surveys --------------------------------------------------

def acylindricity_survey(am: Amalgam, seg_length: int, tree_radius: int):
    """(segments, orders histogram) from a geodesic between every vertex pair
    of the ball, keeping the pairs at distance seg_length."""
    tree = build_tree(am, tree_radius)
    hist: dict[int, int] = {}
    nv = len(tree.vertices)
    for i in range(nv):
        for j in range(i + 1, nv):
            path = geodesic(tree, tree.vertices[i], tree.vertices[j])
            if path.length == seg_length:
                order = stabilizer_of_segment(am, path).order
                hist[order] = hist.get(order, 0) + 1
    return sum(hist.values()), tuple(sorted(hist.items()))


def orbit_min(am: Amalgam, x: BoundaryCode) -> tuple[BoundaryCode, ReducedWord]:
    """The least translate of x under the base vertex group, and the first
    element of H that gives it: every element applied, every code compared."""
    best = None
    for elem in am.H.elements():
        h = word_of_subgroup_element(am, A_SIDE, elem)
        code = act_on_boundary(am, h, x)
        if best is None or compare_words(code, best[0]) < 0:
            best = (code, h)
    return best


def pairwise_witness_table(am: Amalgam, wc):
    """(point, class representative, witness) rows built pair by pair, as
    orbit_equivalent once did: both codes' shift minima computed afresh for
    every pair, then the first equal pair, the representative's shift
    outermost, turned into a word."""
    def shift_minima(x):
        return [(i, *orbit_min(am, x.shift_code(i)))
                for i in range(0, x.horizon() + 2, 2)]

    rows = []
    for cls in wc.target.classes():
        rep = cls[0]
        x = wc.sample.points[rep]
        for idx in cls:
            y = wc.sample.points[idx]
            xs, ys = shift_minima(x), shift_minima(y)
            i, j, hx, hy = next((i, j, hx, hy) for i, cx, hx in xs
                                for j, cy, hy in ys if cx == cy)
            wx = word_element(am, x.letters(i))
            wy = word_element(am, y.letters(j))
            g = multiply(am, multiply(am, wx, invert(am, hx)),
                         multiply(am, hy, invert(am, wy)))
            assert act_on_boundary(am, g, y) == x
            rows.append((idx, rep, g))
    return rows


def word_search(am: Amalgam, x: BoundaryCode, y: BoundaryCode,
                max_letters: int) -> Optional[ReducedWord]:
    """The first normal form of at most max_letters letters, in
    enumerate_reduced_words order, carrying y to x.  None only says that no
    short word does: the search is bounded."""
    return next((g for g in enumerate_reduced_words(am, max_letters)
                 if act_on_boundary(am, g, y) == x), None)


def tail_equivalent(x: PeriodicWord, y: PeriodicWord
                    ) -> Optional[tuple[int, int]]:
    """Least shifts (i, j), ordered by i+j then i, with equal shifted sequences.

    For boundary codes i and j have the same parity, and the element spelled
    by x's first i letters times the inverse of y's first j carries y to x:
    tail-equivalent ends lie in one orbit.
    """
    hx, hy = x.horizon(), y.horizon()
    sx = [x.shift(i) for i in range(hx + 1)]
    sy = [y.shift(j) for j in range(hy + 1)]
    for total in range(hx + hy + 1):
        for i in range(max(0, total - hy), min(total, hx) + 1):
            if sx[i] == sy[total - i]:
                return (i, total - i)
    return None


def geodesic_to_code(path: GeodesicPath) -> BoundaryCode:
    """Recover the boundary code from a long enough base-rooted ray sample.

    The sample must start at the base vertex, move strictly away from it, and
    contain the full prefix plus at least two full cycles of the end it tracks.
    """
    if not path.vertices or path.vertices[0] != base_vertex():
        raise TreeError("ray sample must start at the base vertex")
    letters: list[Letter] = []
    for a, b in zip(path.vertices, path.vertices[1:]):
        if len(b.word) != len(a.word) + 1 or b.word[:len(a.word)] != a.word:
            raise TreeError("ray sample backtracks or skips a vertex")
        letters.append(b.word[-1])
    n = len(letters)
    for c in range(2, n // 2 + 1, 2):
        for p in range(0, n - 2 * c + 1):
            if all(letters[i] == letters[p + (i - p) % c] for i in range(p, n)):
                return BoundaryCode(letters[:p], letters[p:p + c])
    raise TreeError("no even period covering two full cycles fits the sample")


# --- windows and deviation tensors -----------------------------------------

def interior(window: SchreierWindow) -> tuple:
    """Vertices whose images under every generator stay in the window."""
    return tuple(v for v in window.vertices
                 if all(v in m for m in window.edge_maps))


def tensor_to_json(t: DeviationTensor) -> dict:
    """The document `cfw --tensor` reads back with tensor_from_json."""
    return {
        "group": list(t.group_labels),
        "points": list(t.point_labels),
        "mu": [format_fraction(q) for q in t.mu],
        "values": [[[[format_fraction(q) for q in row] for row in block]
                    for block in plane] for plane in t.values],
    }


def boundary_product_tensor(am: Amalgam, points, mu, words,
                            i_count: int, j_count: int) -> DeviationTensor:
    """Deviations of sliding averages of canonical orbit codes along shifts.

    Stage (i, j) averages the canonical codes of the even shifts numbered
    i..i+j; for orbit-equivalent points these averages eventually agree, so
    rows decay in j wherever the group element preserves the orbit.
    """
    def avg(i: int, j: int, x: BoundaryCode) -> ProbVector:
        codes = [orbit_min(am, x.shift_code(2 * k))[0]
                 for k in range(i, i + j + 1)]
        return ProbVector((c, Fraction(1, len(codes))) for c in codes)

    values = tuple(
        tuple(tuple(tuple(l1_distance(avg(i, j, x),
                                      avg(i, j, act_on_boundary(am, g, x)))
                          for x in points) for g in words)
              for j in range(j_count))
        for i in range(i_count))
    return DeviationTensor(
        tuple(word_to_str(am, g) for g in words),
        tuple(format_code(am, x) for x in points),
        tuple(Fraction(q) for q in mu),
        values)
