"""Independent oracles used only by the tests.

Two roads that never touch the normal-form machinery: a bounded rewriting
closure over tagged words, and faithful matrix/affine representations of the
three built-in models.  Exhaustive searches the library replaced with
direct constructions: tree balls that store every vertex's word (with
geodesics through two words' common prefix and dot labels joined from the
words), segments from all vertex pairs, orbit witnesses rebuilt from
scratch for every pair, segment stabilizers from every element of the
factor at the segment's start, canonical orbit codes from every base
element applied and compared, and permutation-group tables with every product
composed, associativity by the triple loop, and coset partitions rebuilt
element by element.  Direct checks of what the commands
print: normal-form validity, tail equivalence (which implies orbit
equivalence), codes read back off their rays, and a bounded word search for
orbit witnesses over every normal form up to a length.  Products and vertex
and boundary actions that feed every letter through absorb as a raw side
element, never through the step table.  Deviation tensors built
from a model's boundary action, as inputs for `cfw`.  The built-in models
themselves come from the packaged configs, through the loader the command
line uses.  The two-phase simplex with every tableau entry a Fraction, which
the integer tableau of `arbor.lp` must match pivot for pivot.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product
from typing import Optional, Sequence

from arbor import lp
from arbor.cber import classes
from arbor.cli import load_config
from arbor.codes import BoundaryCode, PeriodicWord, compare_words, format_code
from arbor.groups import (A_SIDE, B_SIDE, Amalgam, FiniteGroup, GroupError,
                          Letter, ReducedWord, absorb, invert, multiply,
                          word_of_subgroup_element, word_to_str)
from arbor.reiter import (DeviationTensor, ProbVector, SchreierWindow,
                          check_tensor, format_fraction, l1_distance)
from arbor.tree import (GeodesicPath, TreeError, Vertex,
                        act_on_boundary, act_on_vertex, code_truncate,
                        validate_geodesic, vertex_from_letters, word_element)

Tagged = tuple[tuple[int, int], ...]  # (side, element index), elements nontrivial

BUILTIN_NAMES = ("dihedral", "sl2z", "psl2z")


def base_vertex() -> Vertex:
    """The coset H itself, the empty word: the root of every ball and every
    ray."""
    return ()


def builtin(name: str) -> Amalgam:
    """A model by built-in name or config path, as `--config` loads it."""
    return load_config(name)[0]


def element_order(group: FiniteGroup, a: int) -> int:
    """Least k >= 1 with a^k the identity, by repeated multiplication."""
    k, x = 1, a
    while x != 0:
        x = group.mul_table[x][a]
        k += 1
    return k


def permutation_table(generators) -> tuple[tuple[int, ...], ...]:
    """The multiplication table of a permutation closure, breadth-first and
    identity first, with every product composed directly."""
    degree = len(generators[0])
    gens = [tuple(g) for g in generators]

    def compose(p, q):
        return tuple(p[q[x]] for x in range(degree))

    elements = [tuple(range(degree))]
    seen = {elements[0]: 0}
    queue = [elements[0]]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                seen[nxt] = len(elements)
                elements.append(nxt)
                queue.append(nxt)
    return tuple(tuple(seen[compose(a, b)] for b in elements)
                 for a in elements)


def is_associative(table) -> bool:
    """(ab)c = a(bc) for every triple, by the triple loop."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def intercalates(table) -> list:
    """Every 2x2 Latin subsquare (r1, r2, c1, c2) off row and column 0:
    table[r1][c1] = table[r2][c2] and table[r1][c2] = table[r2][c1]."""
    n = len(table)
    out = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            where = {x: c for c, x in enumerate(table[r2])}
            for c1 in range(1, n):
                c2 = where[table[r1][c1]]
                if c2 > c1 and table[r1][c2] == table[r2][c1]:
                    out.append((r1, r2, c1, c2))
    return out


def swap_intercalate(table, quad) -> list:
    """A copy of the table with one intercalate's two symbols swapped: still
    a Latin square with identity 0, and often no longer associative."""
    r1, r2, c1, c2 = quad
    out = [list(row) for row in table]
    out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
    out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
    return out


def coset_partition(group: FiniteGroup, images) -> tuple[list, list]:
    """Left cosets g·C of an embedded subgroup, ordered by least element,
    as sorted lists, and their least elements."""
    cosets = []
    for g in range(group.order):
        if not any(g in coset for coset in cosets):
            cosets.append(sorted({group.mul_table[g][x] for x in images}))
    return cosets, [coset[0] for coset in cosets]


def validate_reduced_word(am: Amalgam, w: ReducedWord) -> None:
    """Check alternation, nontrivial letters, and ranges; raises GroupError."""
    for i, letter in enumerate(w.letters):
        if letter.side not in (A_SIDE, B_SIDE):
            raise GroupError(f"letter {i} has invalid side {letter.side}")
        if not (1 <= letter.rep < am.transversals[letter.side].index):
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
             for shape in shapes for c in range(am.C.order)]
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
            merged = am.groups[s1].mul_table[x1][x2]
            mid = ((s1, merged),) if merged != 0 else ()
            out.append(word[:i] + mid + word[i + 2:])
        else:
            for c in range(1, am.C.order):
                left = am.groups[s1].mul_table[x1][am.embed[s1][c]]
                right = am.groups[s2].mul_table[
                    am.embed[s2][am.C.inv_table[c]]][x2]
                mid = tuple(p for p in ((s1, left), (s2, right)) if p[1] != 0)
                out.append(word[:i] + mid + word[i + 2:])
    embedded = [{am.embed[side][c]: c for c in range(am.C.order)}
                for side in (A_SIDE, B_SIDE)]
    for i in range(n):
        side, elem = word[i]
        c = embedded[side].get(elem)
        if c is not None:
            other = 1 - side
            out.append(word[:i] + ((other, am.embed[other][c]),)
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
    out = [(side, am.transversals[side].reps[rep]) for side, rep in w.letters]
    if w.carry != 0:
        out.append((A_SIDE, am.embed[A_SIDE][w.carry]))
    return tuple(out)


# --- products with every letter absorbed -----------------------------------

def absorb_letter(am: Amalgam, letters: list, carry: int, letter: Letter
                  ) -> int:
    """One letter fed through absorb as a raw side element, with no
    step-table lookup; returns the new carry."""
    side, rep = letter
    return absorb(am, letters, carry, side, am.transversals[side].reps[rep])


def absorb_multiply(am: Amalgam, u: ReducedWord, v: ReducedWord
                    ) -> ReducedWord:
    out, carry = list(u.letters), u.carry
    for letter in v.letters:
        carry = absorb_letter(am, out, carry, letter)
    return ReducedWord(tuple(out), am.C.mul_table[carry][v.carry])


def absorb_act_on_vertex(am: Amalgam, g: ReducedWord, v: Vertex) -> Vertex:
    out, carry = list(g.letters), g.carry
    for letter in v:
        carry = absorb_letter(am, out, carry, letter)
    return vertex_from_letters(out, len(v) % 2)


def absorb_act_on_boundary(am: Amalgam, g: ReducedWord, x: BoundaryCode
                           ) -> BoundaryCode:
    """g·x with every letter of x absorbed into g's word in turn.  Letters
    cancel into g until the first one stays; from then on each letter
    appends one, and the stream cycles once (cycle position, carry)
    repeats past x's prefix."""
    out, carry = list(g.letters), g.carry
    for i in count():
        trial = list(out)
        after = absorb_letter(am, trial, carry, x.letter_at(i))
        if len(trial) > len(out):
            break
        out, carry = trial, after
    seen: dict = {}
    for j in count(i):
        state = ((j - len(x.prefix)) % len(x.cycle), carry)
        if j >= len(x.prefix):
            if state in seen:
                break
            seen[state] = len(out)
        carry = absorb_letter(am, out, carry, x.letter_at(j))
    prefix, cycle = out[:seen[state]], out[seen[state]:]
    if (prefix or cycle)[0].side == B_SIDE:
        prefix = [Letter(A_SIDE, 0)] + prefix
    return BoundaryCode(prefix, cycle)


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

@dataclass(frozen=True)
class WordTree:
    """A tree ball that stores every vertex's whole word and an index from
    words to vertex numbers."""

    radius: int
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    depths: tuple[int, ...]
    index: dict = field(compare=False, repr=False)

    def index_of(self, v: Vertex) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise TreeError(f"vertex not inside the truncated tree: {v}") from None


def word_tree(am: Amalgam, radius: int) -> WordTree:
    """Breadth-first ball of the given radius, each child's word spelled by
    appending one letter to its parent's."""
    vertices: list[Vertex] = [base_vertex()]
    depths: list[int] = [0]
    edges: list[tuple[int, int]] = []
    index = {vertices[0]: 0}
    level: list[int] = [0]
    for depth in range(1, radius + 1):
        nxt: list[int] = []
        for vi in level:
            v = vertices[vi]
            side = len(v) % 2
            start = 0 if not v else 1
            for rep in range(start, am.transversals[side].index):
                child = v + (Letter(side, rep),)
                index[child] = len(vertices)
                vertices.append(child)
                depths.append(depth)
                edges.append((vi, index[child]))
                nxt.append(index[child])
        level = nxt
    return WordTree(radius, tuple(vertices), tuple(edges), tuple(depths),
                    index)


def word_geodesic(tree: WordTree, v: Vertex, w: Vertex) -> GeodesicPath:
    """The path between two vertices of the ball through their words'
    longest common prefix."""
    tree.index_of(v)
    tree.index_of(w)
    lcp = 0
    while lcp < min(len(v), len(w)) and v[lcp] == w[lcp]:
        lcp += 1
    down = [v[:k] for k in range(len(v), lcp - 1, -1)]
    up = [w[:k] for k in range(lcp + 1, len(w) + 1)]
    return GeodesicPath(tuple(down + up))


def word_tree_dot(am: Amalgam, tree: WordTree) -> str:
    """The Graphviz source `tree --dot` writes, each label joined from the
    vertex's stored word."""
    lines = ["graph bass_serre {"]
    for i, v in enumerate(tree.vertices):
        shape = "circle" if len(v) % 2 == A_SIDE else "box"
        label = ",".join(am.letter_name(letter) for letter in v)
        lines.append(f'  v{i} [label="{label}", shape={shape}];')
    for i, j in tree.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def stabilizer_of_segment(am: Amalgam, segment: GeodesicPath
                          ) -> tuple[ReducedWord, ...]:
    """All g fixing every vertex of the segment: the segment translated to
    start at a base coset, every element of that coset's factor applied to
    every translated vertex, and each one that fixes them all conjugated
    back."""
    validate_geodesic(am, segment)
    v0 = segment.vertices[0]
    t = invert(am, word_element(am, v0))
    moved = [act_on_vertex(am, t, v) for v in segment.vertices]
    side = len(v0) % 2
    assert moved[0] == vertex_from_letters([], side)
    t_inv = invert(am, t)
    found = []
    for elem in range(am.groups[side].order):
        h = word_of_subgroup_element(am, side, elem)
        if all(act_on_vertex(am, h, v) == v for v in moved):
            found.append(multiply(am, multiply(am, t_inv, h), t))
    found.sort(key=ReducedWord.sort_key)
    return tuple(found)


def acylindricity_survey(am: Amalgam, seg_length: int, tree_radius: int):
    """(segments, orders histogram) from a geodesic between every vertex pair
    of the ball, keeping the pairs at distance seg_length."""
    tree = word_tree(am, tree_radius)
    hist: dict[int, int] = {}
    nv = len(tree.vertices)
    for i in range(nv):
        for j in range(i + 1, nv):
            path = word_geodesic(tree, tree.vertices[i], tree.vertices[j])
            if path.length == seg_length:
                order = len(stabilizer_of_segment(am, path))
                hist[order] = hist.get(order, 0) + 1
    return sum(hist.values()), tuple(sorted(hist.items()))


def first_move(am: Amalgam, side: int, elem: int,
               vertices: Sequence[Vertex]) -> Optional[int]:
    """The least k such that elem, an element of one side's factor, moves
    vertices[k], each vertex tried with act_on_vertex; None when it fixes
    them all."""
    h = word_of_subgroup_element(am, side, elem)
    return next((k for k, v in enumerate(vertices)
                 if act_on_vertex(am, h, v) != v), None)


def walk_first_moves(am: Amalgam, side: int, vertices: Sequence[Vertex],
                     survivors, deaths) -> tuple[list, list]:
    """(reported, found) for a fixing walk along vertices: each element of
    the factor with the position the walk reports it dying at (None for a
    survivor), and each with its first move along vertices."""
    reported = sorted([(e, None) for _, e in survivors]
                      + [(e, k) for k, e in deaths], key=lambda pair: pair[0])
    found = [(e, first_move(am, side, e, vertices))
             for e in range(am.groups[side].order)]
    return reported, found


def ray_stabilizer(am: Amalgam, x: BoundaryCode) -> tuple[ReducedWord, ...]:
    """Elements of the base vertex group fixing the end x: every element
    applied with act_on_boundary, sorted as the library sorts them."""
    out = []
    for elem in range(am.H.order):
        h = word_of_subgroup_element(am, A_SIDE, elem)
        if act_on_boundary(am, h, x) == x:
            out.append(h)
    out.sort(key=ReducedWord.sort_key)
    return tuple(out)


def check_theorem_A(am: Amalgam, x: BoundaryCode, max_len: int):
    """(n, segment stabilizer, ray stabilizer) for the least n whose segment
    stabilizer, searched afresh for every n, equals the ray stabilizer; None
    when no n up to max_len works."""
    ray = ray_stabilizer(am, x)
    for n in range(max_len + 1):
        stab = stabilizer_of_segment(am, code_truncate(x, n))
        if frozenset(stab) == frozenset(ray):
            return n, stab, ray
    return None


def orbit_min(am: Amalgam, x: BoundaryCode) -> tuple[BoundaryCode, ReducedWord]:
    """The least translate of x under the base vertex group, and the first
    element of H that gives it: every element applied, every code compared."""
    best = None
    for elem in range(am.H.order):
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
    for cls in classes(wc.target):
        rep = cls[0]
        x = wc.points[rep]
        for idx in cls:
            y = wc.points[idx]
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
        if len(b) != len(a) + 1 or b[:len(a)] != a:
            raise TreeError("ray sample backtracks or skips a vertex")
        letters.append(b[-1])
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
    return check_tensor(DeviationTensor(
        tuple(word_to_str(am, g) for g in words),
        tuple(format_code(am, x) for x in points),
        tuple(Fraction(q) for q in mu),
        values))


class _FractionTableau:
    """Sparse rows over Fraction in terms of the current basis, plus
    reduced costs: row r reads sum_j rows[r][j] x_j = rhs[r], with
    rows[r][basis[r]] == 1; red holds the nonzero reduced costs and z the
    objective value.  Every (row, column) pivot is appended to pivots."""

    def __init__(self, rows, rhs, basis, pivots: list) -> None:
        self.rows, self.rhs, self.basis = rows, rhs, basis
        self.red: dict = {}
        self.z = Fraction(0)
        self.pivots = pivots

    def price(self, cost: dict) -> None:
        red = dict(cost)
        z = Fraction(0)
        for row, b, col in zip(self.rows, self.rhs, self.basis):
            cb = cost.get(col)
            if cb:
                for j, v in row.items():
                    red[j] = red.get(j, Fraction(0)) - cb * v
                z += cb * b
        self.red = {j: v for j, v in red.items() if v}
        self.z = z

    def pivot(self, r: int, col: int) -> None:
        self.pivots.append((r, col))
        piv = self.rows[r][col]
        prow = {j: v / piv for j, v in self.rows[r].items()}
        self.rows[r] = prow
        self.rhs[r] /= piv
        pb = self.rhs[r]
        for i, row in enumerate(self.rows):
            factor = row.get(col)
            if i != r and factor is not None:
                _fraction_eliminate(row, prow, factor)
                self.rhs[i] -= factor * pb
        factor = self.red.get(col)
        if factor is not None:
            _fraction_eliminate(self.red, prow, factor)
            self.z += factor * pb
        self.basis[r] = col


def _fraction_eliminate(row: dict, prow: dict, factor: Fraction) -> None:
    for j, v in prow.items():
        new = row.get(j, Fraction(0)) - factor * v
        if new:
            row[j] = new
        else:
            del row[j]


def _fraction_loop(tab: _FractionTableau, allowed: int) -> None:
    pivots = 0
    while True:
        candidates = [(v, j) for j, v in tab.red.items()
                      if j < allowed and v < 0]
        if not candidates:
            return
        if pivots >= lp.BLAND_AFTER:
            enter = min(j for _, j in candidates)
        else:
            enter = min(candidates)[1]
        leave, best = -1, None
        for r, row in enumerate(tab.rows):
            coef = row.get(enter)
            if coef is not None and coef > 0:
                ratio = tab.rhs[r] / coef
                if (best is None or ratio < best or (
                        ratio == best and tab.basis[r] < tab.basis[leave])):
                    leave, best = r, ratio
        if leave < 0:
            raise lp.LpError("unbounded objective")
        tab.pivot(leave, enter)
        pivots += 1
        if pivots > lp.MAX_PIVOTS:
            raise lp.LpError(f"pivot budget {lp.MAX_PIVOTS} exhausted")


def fraction_simplex(c, a_ub, b_ub, a_eq, b_eq, pivots: list
                     ) -> lp.LpSolution:
    """The two-phase simplex of `lp.solve_lp` with every tableau entry a
    Fraction; its (row, column) pivots are appended to pivots in order, also
    when it fails.  The solution is not re-verified; infeasible and
    unbounded programs raise the same LpError."""
    n = len(c)
    cons = [({j: Fraction(v) for j, v in enumerate(row) if v}, Fraction(b))
            for row, b in zip(list(a_ub) + list(a_eq), list(b_ub) + list(b_eq))]
    n_ub = len(a_ub)
    rows, rhs, basis, signs, with_art = [], [], [], [], []
    slack, art = n, n + n_ub
    for i, (row, b) in enumerate(cons):
        sign = -1 if b < 0 else 1
        row = {j: sign * v for j, v in row.items()}
        if i < n_ub:
            row[slack + i] = Fraction(sign)
        if i < n_ub and sign > 0:
            basis.append(slack + i)
        else:
            row[art + i] = Fraction(1)
            basis.append(art + i)
            with_art.append(i)
        rows.append(row)
        rhs.append(b * sign)
        signs.append(sign)
    tab = _FractionTableau(rows, rhs, basis, pivots)
    if with_art:
        tab.price({art + i: Fraction(1) for i in with_art})
        _fraction_loop(tab, art)
        if tab.z > 0:
            raise lp.LpError("infeasible constraints")
        keep = []
        for r in range(len(tab.rows)):
            if tab.basis[r] >= art:
                real = [j for j in tab.rows[r] if j < art]
                if not real:
                    continue
                tab.pivot(r, min(real))
            keep.append(r)
        tab.rows = [tab.rows[r] for r in keep]
        tab.rhs = [tab.rhs[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
        for row in tab.rows:
            for i in with_art:
                if i < n_ub:
                    row.pop(art + i, None)
    tab.price({j: Fraction(v) for j, v in enumerate(c) if v})
    _fraction_loop(tab, art)
    x = [Fraction(0)] * n
    for col, b in zip(tab.basis, tab.rhs):
        if col < n:
            x[col] = b
    y = [-tab.red.get(slack + i, Fraction(0)) for i in range(n_ub)]
    y += [-signs[i] * tab.red.get(art + i, Fraction(0))
          for i in range(n_ub, len(cons))]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return lp.LpSolution(value, tuple(x), tuple(y))
