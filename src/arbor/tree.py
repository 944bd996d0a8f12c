"""The Bass-Serre tree of an amalgam, its boundary action, and stabilizers.

Vertices are cosets gH and gK, and a vertex is its word: alternating
transversal letters with the trailing same-side letter absorbed into the
coset.  Its type is the side of the factor whose conjugate fixes it, which
is the word's length mod 2 (Serre, Trees, I.4): gH words (A_SIDE) have even
length and gK words (B_SIDE) odd length; a gK word may start with the
trivial H-side letter, which encodes the coset K itself.  Rays from
the base vertex are exactly the letter streams of boundary codes.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .codes import BoundaryCode
from .groups import (A_SIDE, B_SIDE, Amalgam, Letter, ReducedWord,
                     VerificationError, feed, invert, multiply,
                     word_of_subgroup_element)

# Vertices a truncated tree may hold; the ARBOR_VERTEX_CAP environment
# variable overrides it on the command line.
VERTEX_CAP = 100_000

# Letter names `tree --dot` may write into its labels, summed over vertices.
DOT_LETTER_CAP = 10_000_000


class TreeError(ValueError):
    """Raised for invalid vertices and paths."""


class OverBudget(ValueError):
    """Raised, before the work starts, when a run would exceed one of its
    caps; refuse_over is the one place that raises it."""


Vertex = tuple[Letter, ...]  # a coset's word; its side is len(word) % 2


def vertex_from_letters(letters: Sequence[Letter], side: int) -> Vertex:
    """Normalize a letter word to the canonical word of the vertex of the
    given side: the coset of that side's factor that the word reaches."""
    out = list(letters)
    if out and out[-1].side == side:
        out.pop()
    if not out:
        if side == B_SIDE:
            out = [Letter(A_SIDE, 0)]
    elif out[0].side == B_SIDE:
        out.insert(0, Letter(A_SIDE, 0))
    if len(out) % 2 != side:
        raise TreeError("letter word does not reach a vertex of the requested type")
    return tuple(out)


def validate_vertex(am: Amalgam, v: Vertex) -> None:
    for i, letter in enumerate(v):
        if letter.side != i % 2:
            raise TreeError(f"vertex word letter {i} on wrong side")
        if not (0 <= letter.rep < am.transversals[letter.side].index):
            raise TreeError(f"vertex word letter {i} out of range")
        if letter.rep == 0 and i > 0:
            raise TreeError(f"trivial letter beyond position 0 (position {i})")


def is_adjacent(v: Vertex, w: Vertex) -> bool:
    a, b = (v, w) if len(v) < len(w) else (w, v)
    return len(b) == len(a) + 1 and b[:len(a)] == a


class TruncatedTree(NamedTuple):
    """A ball in breadth-first order: vertex i > 0 hangs below parent[i] by
    letter[i]; the base has parent -1 and letter None."""

    radius: int
    parent: tuple[int, ...]
    letter: tuple[Optional[Letter], ...]
    depths: tuple[int, ...]

    @property
    def vertices(self) -> range:
        return range(len(self.depths))

    def counts_by_distance(self) -> list[int]:
        counts = [0] * (self.radius + 1)
        for d in self.depths:
            counts[d] += 1
        return counts

    def vertex(self, i: int) -> Vertex:
        """Vertex i spelled as a word, by climbing its parents."""
        if not 0 <= i < len(self.depths):
            raise TreeError(f"vertex {i} is not inside the truncated tree")
        word = []
        while i > 0:
            word.append(self.letter[i])
            i = self.parent[i]
        return tuple(reversed(word))


def geometric(r: int, n: int) -> int:
    """1 + r + ... + r**(n-1)."""
    if r <= 1:
        return n if r == 1 else min(n, 1)
    return (r ** n - 1) // (r - 1)


def ball_size(a: int, b: int, radius: int) -> int:
    """Vertices of the radius ball around a vertex of degree a in the
    (a, b)-biregular tree, in closed form: depth 1 holds a of them, and
    later depths multiply by b - 1 and a - 1 in turn.

    The Bass-Serre tree of H *_C K is (|H:C|, |K:C|)-biregular, and the
    free group of rank n has the 2n-regular tree as its Cayley graph.
    """
    p = (a - 1) * (b - 1)  # growth over two depths
    odd, even = (radius + 1) // 2, radius // 2  # depths 2j+1 and 2j+2
    return 1 + a * geometric(p, odd) + a * (b - 1) * geometric(p, even)


def ball_bits(a: int, b: int, radius: int) -> int:
    """An e such that a ball of radius >= 1 holds more than 2**e vertices;
    0 for the line (a = b = 2), whose size is cheap to compute.

    A growing ball at least doubles over every two depths, and over every
    depth when a and b are both over 2.
    """
    if (a - 1) * (b - 1) == 1:
        return 0
    return radius if min(a, b) > 2 else (radius + 1) // 2


def refuse_over(cap: int, bits: int, count: Callable[[], int],
                message: str) -> None:
    """Raise OverBudget when count() is over cap, with the count and the cap
    filled in for message's {count} and {cap}; its other text holds no
    braces, since it is a str.format template.

    The one rule for every budget: a count known to be over 2**bits is not
    computed once 2**bits is past the cap, and reads "more than 2**bits";
    a count too long to print reads the same way with its own bit length.
    """
    if bits > cap.bit_length():
        shown = f"more than 2**{bits}"
    else:
        n = count()
        if n <= cap:
            return
        try:
            shown = str(n)
        except ValueError:  # past the interpreter's digit limit for int to str
            shown = f"more than 2**{(n - 1).bit_length() - 1}"
    raise OverBudget(message.format(count=shown, cap=cap))


def build_tree(am: Amalgam, radius: int, vertex_cap: int = VERTEX_CAP) -> TruncatedTree:
    """Breadth-first ball of the given radius around the base vertex, counted
    first and refused over the vertex cap; its letters are shared objects."""
    if radius < 0:
        raise TreeError("radius must be nonnegative")
    a, b = am.A.index, am.B.index
    refuse_over(vertex_cap, ball_bits(a, b, radius),
                lambda: ball_size(a, b, radius),
                f"the tree ball of radius {radius} has {{count}} vertices, "
                "over the vertex cap of {cap}")
    parent, letter, depths = [-1], [None], [0]
    level = range(1)  # the vertices one depth up
    for depth in range(1, radius + 1):
        # only the base's children may begin with the trivial letter
        letters = am.alphabet[(depth - 1) % 2][depth > 1:]
        parent += [vi for vi in level for _ in letters]
        letter += letters * len(level)
        level = range(level.stop, len(parent))
        depths += [depth] * len(level)
    return TruncatedTree(radius, tuple(parent), tuple(letter), tuple(depths))


def word_element(am: Amalgam, letters: Sequence[Letter]) -> ReducedWord:
    """The group element spelled by a vertex word or ray prefix."""
    out: list[Letter] = []
    carry = 0
    for letter in letters:
        carry = feed(am, out, carry, letter)
    return ReducedWord(tuple(out), carry)


def act_on_vertex(am: Amalgam, g: ReducedWord, v: Vertex) -> Vertex:
    """Left translation of a coset vertex; preserves type and adjacency."""
    letters = list(g.letters)
    carry = g.carry
    for letter in v:
        carry = feed(am, letters, carry, letter)
    return vertex_from_letters(letters, len(v) % 2)


class GeodesicPath(NamedTuple):
    vertices: tuple[Vertex, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def validate_geodesic(am: Amalgam, path: GeodesicPath) -> None:
    if not path.vertices:
        raise TreeError("empty path")
    for v in path.vertices:
        validate_vertex(am, v)
    for a, b in zip(path.vertices, path.vertices[1:]):
        if not is_adjacent(a, b):
            raise TreeError("consecutive path vertices are not adjacent")
    for a, b in zip(path.vertices, path.vertices[2:]):
        if a == b:
            raise TreeError("path backtracks")


def _path_between(v: Vertex, w: Vertex) -> GeodesicPath:
    """The unique shortest path between two vertices, through their words'
    longest common prefix: each vertex's parent is its word less the last
    letter."""
    lcp = 0
    while lcp < min(len(v), len(w)) and v[lcp] == w[lcp]:
        lcp += 1
    down = [v[:k] for k in range(len(v), lcp - 1, -1)]
    up = [w[:k] for k in range(lcp + 1, len(w) + 1)]
    return GeodesicPath(tuple(down + up))


def geodesic(tree: TruncatedTree, i: int, j: int) -> GeodesicPath:
    """The unique shortest path between tree vertices i and j."""
    return _path_between(tree.vertex(i), tree.vertex(j))


def code_truncate(x: BoundaryCode, n: int) -> GeodesicPath:
    """The first n steps of the ray from the base vertex toward the end x."""
    if n < 0:
        raise TreeError("truncation length must be nonnegative")
    word = x.letters(n)
    return GeodesicPath(tuple(word[:k] for k in range(n + 1)))


def act_on_boundary(am: Amalgam, g: ReducedWord, x: BoundaryCode) -> BoundaryCode:
    """Left translation of an end: g applied to the ray coding x, re-coded
    from the base vertex.

    Two phases.  The junction phase feeds ray letters into the normal form of
    g until appending stops cancelling, which happens within len(g.letters)+2
    feeds; the letters accumulated at that point are the stable path from the
    base toward the translated ray.  The carry phase then rewrites the rest of
    the stream, conjugating each representative by the pending amalgamated
    element; states (cycle position, carry) repeat within |cycle|*|C| steps,
    which yields the new cycle.
    """
    prefix, cycle = x.prefix, x.cycle
    tail, period = len(prefix), len(cycle)
    letters = list(g.letters)
    carry = g.carry
    i = 0
    while True:
        if i > len(g.letters) + tail + 2 * period + 4:
            raise VerificationError("junction phase failed to stabilize")
        before, saved = len(letters), carry
        carry = feed(am, letters, carry,
                     prefix[i] if i < tail else cycle[(i - tail) % period])
        if len(letters) > before:  # a step appended one letter: take it back
            letters.pop()
            carry = saved
            break
        i += 1
    stable = letters

    steps, alphabet = am.steps, am.alphabet
    emitted: list[Letter] = []
    seen: dict[tuple[int, int], int] = {}
    cycle_letters: Optional[tuple[Letter, ...]] = None
    j = i
    while True:
        if j >= tail:
            state = ((j - tail) % period, carry)
            if state in seen:
                cycle_letters = tuple(emitted[seen[state]:])
                break
            seen[state] = len(emitted)
            letter = cycle[state[0]]
        else:
            letter = prefix[j]
        if len(emitted) > tail + period * am.C.order + 4:
            raise VerificationError("carry phase failed to cycle")
        rep_idx, carry = steps[letter.side][carry][letter.rep]
        emitted.append(alphabet[letter.side][rep_idx])
        j += 1

    cut = len(emitted) - len(cycle_letters)
    out_prefix = stable + emitted[:cut]
    if not out_prefix:
        first = cycle_letters[0]
        if first.side == B_SIDE:
            out_prefix = [Letter(A_SIDE, 0)]
    elif out_prefix[0].side == B_SIDE:
        out_prefix = [Letter(A_SIDE, 0)] + out_prefix
    return BoundaryCode(out_prefix, cycle_letters)


def lockstep_bound(am: Amalgam, x: BoundaryCode) -> int:
    """The most letters lockstep walks along x (see its stop rules)."""
    return len(x.prefix) + 3 * len(x.cycle) * am.C.order


def lockstep(am: Amalgam, path: BoundaryCode | Sequence[Letter], least: bool
             ) -> tuple[tuple[Letter, ...], list[tuple[int, int]],
                        list[tuple[int, int]]]:
    """Walk every element of a factor G along a path from G's base coset at
    once.

    The path is an end x, walked by H from the base vertex, or a finite
    letter sequence walked by the factor of its first letter's side: a
    segment translated to start at a base coset, where from K the step to
    the base vertex reads as the letter (B, 0).  An element e turns the
    first letter into the first letter of e.path and a carry in C; each
    later letter is one step-table lookup that moves the carry past it and
    emits the next letter of e.path.  At each position only the elements
    that emit the wanted letter survive: the least one when least is set,
    otherwise the path's own letter, so that the survivors after k letters
    fix the path's first k steps.  Returns the emitted letters, the
    survivors as (carry, e) in index order, and, for a fixing walk,
    each death as (k, e): e fixes k - 1 steps of the path but not k.

    The walk stops when one survivor is left, since it never dies: it
    emits the least letter, or it is the identity; a finite sequence is
    otherwise walked to its end.  Along an end, survivors' carries are
    distinct (e P = P' c = e' P gives e = e'), so the walk also stops when
    (cycle position, survivor carries) repeats, since nothing died in
    between and the same stretch then repeats forever; or after
    len(prefix) + 3*len(cycle)*|C| letters.  Past
    len(prefix) + len(cycle)*|C| letters every survivor's own (cycle
    position, carry) has repeated, so its stream, like x's, is periodic with
    a period of at most len(cycle)*|C|; two such streams that agree for
    twice that long agree forever (Fine and Wilf), so nothing dies after
    the bound.
    """
    if isinstance(path, BoundaryCode):
        prefix, cycle, bound = path.prefix, path.cycle, lockstep_bound(am, path)
    else:  # a finite sequence reaches its bound before any cycle position
        prefix, cycle, bound = path, (), len(path)
    tail = len(prefix)
    letter = prefix[0] if tail else cycle[0]
    side = letter.side
    grp, head = am.groups[side], am.transversals[side].reps[letter.rep]
    moved = [((am.rep_idx[side][u], am.carry[side][u]), e)  # u = e·head
             for e, u in enumerate(row[head] for row in grp.mul_table)]
    emitted: list[Letter] = []
    deaths: list[tuple[int, int]] = []
    seen: set = set()
    j = 0
    while True:
        if least:
            letter = Letter(letter.side, min(r for (r, _), _ in moved))
        emitted.append(letter)
        want = letter.rep
        survivors = [(carry, e) for (rep, carry), e in moved if rep == want]
        j += 1
        if not least:
            deaths += [(j, e) for (rep, _), e in moved if rep != want]
        if len(survivors) == 1 or j >= bound:
            break
        if j >= tail:
            state = ((j - tail) % len(cycle),
                     frozenset(c for c, _ in survivors))
            if state in seen:
                break
            seen.add(state)
            letter = cycle[state[0]]
        else:
            letter = prefix[j]
        rows, rep = am.steps[letter.side], letter.rep
        moved = [(rows[c][rep], e) for c, e in survivors]
    return tuple(emitted), survivors, deaths


def _check_complete(am: Amalgam, side: int, path: Sequence[Vertex],
                    survivors: list[tuple[int, int]],
                    deaths: list[tuple[int, int]]) -> None:
    """Nothing a fixing walk left out fixes its path, path[k] the vertex k
    steps from the base coset of side, whose factor G fixes path[0].

    Every death must lie on the path, and there must be one: G permutes the
    |G:C| >= 2 neighbours of its vertex transitively, so some element dies
    at the first letter.  By orbit-stabilizer the elements alive after it
    are the whole stabilizer of the first edge (Serre, Trees, I.4) when
    they are |G|/|G:C| distinct elements that each fix path[1]; every other
    element moves path[1].  Each later death (k, e) is shown to fix
    path[k - 1] and move path[k], so e dies where the walk says it does:
    e fixes path[0], so it maps the geodesic from path[0] to path[k] onto
    the one to u = e path[k], and e fixes path[k - 1] exactly when u's
    neighbour toward path[0] is path[k - 1].  As k >= 2 and path[0] is the
    base vertex or its neighbour K, that neighbour is u's word less its
    last letter.
    """
    if not deaths or max(deaths)[0] >= len(path):
        raise VerificationError("the walk reports no death, or one past its path")
    later = [(k, e) for k, e in deaths if k > 1]
    alive = [e for _, e in survivors] + [e for _, e in later]
    size = am.groups[side].order // am.transversals[side].index
    if len(alive) != size or len(set(alive)) != size:
        raise VerificationError(f"the walk's first-edge stabilizer is not "
                                f"|G|/|G:C| = {size} distinct elements")
    words = {e: word_of_subgroup_element(am, side, e) for e in alive}
    if any(act_on_vertex(am, words[e], path[1]) != path[1] for e in alive):
        raise VerificationError("an element the walk keeps past the first "
                                "letter moves the first edge")
    for k, e in later:
        u = act_on_vertex(am, words[e], path[k])
        if u == path[k] or u[:-1] != path[k - 1]:
            raise VerificationError(f"an element the walk reports dying at "
                                    f"distance {k} does not fix the path's "
                                    f"vertex at {k - 1} and move the one at "
                                    f"{k}")


def _base_stabilizer(am: Amalgam, moved: tuple[Vertex, ...]
                     ) -> tuple[ReducedWord, ...]:
    """Words of the elements of the factor G at moved[0], a base coset, that
    fix every vertex of the geodesic moved: all of G for one vertex,
    otherwise the survivors of one lockstep walk along its letters, which
    _check_complete shows to be complete."""
    side = len(moved[0]) % 2
    fixing = range(am.groups[side].order)
    if len(moved) > 1:
        # each step appends its letter, except K's step to the base vertex
        letters = [w[-1] if len(w) > len(v) else Letter(B_SIDE, 0)
                   for v, w in zip(moved, moved[1:])]
        _, survivors, deaths = lockstep(am, letters, False)
        _check_complete(am, side, moved, survivors, deaths)
        fixing = [e for _, e in survivors]
    return tuple(word_of_subgroup_element(am, side, e) for e in fixing)


class SurveyMemo(NamedTuple):
    """What a survey keeps for one amalgam: each translated segment's base
    stabilizer words, and each start vertex's translation with the
    conjugates made for it."""

    types: dict[tuple[Vertex, ...], tuple[ReducedWord, ...]]
    starts: dict[Vertex, tuple[ReducedWord, ReducedWord,
                               dict[ReducedWord, ReducedWord]]]


def stabilizer_of_segment(am: Amalgam, segment: GeodesicPath,
                          memo: Optional[SurveyMemo] = None
                          ) -> tuple[ReducedWord, ...]:
    """All g fixing every vertex of the segment, via translation to the base:
    the exact pointwise stabilizer as normal forms in ReducedWord.sort_key
    order, so its order is the tuple's length.

    Translating the segment by t to start at a base coset reduces the search
    to the factor G at that coset, and G fixes its own vertex.  Only the two
    ends are translated: an automorphism maps the geodesic between two
    vertices onto the geodesic between their images, and a tree has one
    geodesic between two vertices (Serre, Trees, I.4), so the translated
    segment is the path between the images, which must have the segment's
    length.  The lockstep walk of G along the translated letters keeps the
    elements that fix the rest, _check_complete shows that it left out
    none, and each one is conjugated back and re-applied to the segment's
    two ends: by the same uniqueness, an element that fixes both ends fixes
    every vertex between them.  A reversal swaps the ends, so it fixes
    neither unless the segment is one vertex.  The survey builds its own
    segments, so an invalid one, a translation that misses the base coset
    or a translated path of the wrong length is a defect and not an input
    error.

    The walk, its check and the words of its survivors depend only on the
    translated segment, so memo.types, keyed on its tuple of vertex words,
    holds them for every segment of the same type: the segment's stabilizer
    is the conjugate of its translate's by back (Serre, Trees, I.4).  The
    translation t, its check at the start v0 and each conjugate back h t
    with its check at v0 depend only on v0 and h, so memo.starts holds them
    for every segment from v0.  Everything else, the far end's translation,
    the length check and each conjugate re-applied to the segment's own far
    end included, is done for each segment.  Without a memo nothing is kept.
    """
    try:
        validate_geodesic(am, segment)
    except TreeError as exc:
        raise VerificationError(f"survey segment is not a geodesic: {exc}") \
            from None
    v0, v1 = segment.vertices[0], segment.vertices[-1]
    memo = SurveyMemo({}, {}) if memo is None else memo
    start = vertex_from_letters([], len(v0) % 2)
    if v0 not in memo.starts:
        back = word_element(am, v0)  # takes the base coset to v0
        t = invert(am, back)
        if act_on_vertex(am, t, v0) != start:
            raise VerificationError(
                "failed to translate the segment start to a base coset")
        memo.starts[v0] = back, t, {}
    back, t, conjugates = memo.starts[v0]
    moved = _path_between(start, act_on_vertex(am, t, v1)).vertices
    if len(moved) != len(segment.vertices):
        raise VerificationError(
            f"the translated segment has length {len(moved) - 1}, not "
            f"{segment.length}")
    if moved not in memo.types:
        memo.types[moved] = _base_stabilizer(am, moved)
    for h in memo.types[moved]:
        if h not in conjugates:
            g = multiply(am, multiply(am, back, h), t)
            if act_on_vertex(am, g, v0) != v0:
                raise VerificationError(
                    "conjugated stabilizer element fails to fix")
            conjugates[h] = g
    found = sorted((conjugates[h] for h in memo.types[moved]),
                   key=ReducedWord.sort_key)
    if any(act_on_vertex(am, g, v1) != v1 for g in found):
        raise VerificationError("conjugated stabilizer element fails to fix")
    return tuple(found)


class TheoremStyleCertificate(NamedTuple):
    """The elements fixing the first sigma_length steps of a ray, and its end."""

    sigma_length: int
    elements: tuple[ReducedWord, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


# What check_theorem_A keeps for the rays of one amalgam: for each walked
# prefix, the elements that survive it in walk order and their sorted words.
RayMemo = dict[tuple[Letter, ...], tuple[tuple[int, ...],
                                          tuple[ReducedWord, ...]]]


def ray_stabilizer(am: Amalgam, x: BoundaryCode,
                   memo: Optional[RayMemo] = None) -> tuple[ReducedWord, ...]:
    """Elements of the base vertex group fixing the end x: those of its
    theorem-A certificate."""
    return check_theorem_A(am, x, memo=memo).elements


def check_theorem_A(am: Amalgam, x: BoundaryCode,
                    max_len: Optional[int] = None,
                    memo: Optional[RayMemo] = None
                    ) -> Optional[TheoremStyleCertificate]:
    """Least n with Stab(first n steps of the ray) equal to Stab(the end).

    Base-rooted rays only: both stabilizers lie inside H, and one lockstep
    walk gives n as the position of its last death.  No death lies past
    the walk's own bound, so the certificate always exists; with a max_len,
    None when n is over it, after the same re-checks, so that a missing
    certificate rests on a checked n too.  Segment stabilizers only shrink,
    so equality at n persists for every longer segment.  Each stabilizer
    element is re-applied to the end; it lies in H, so it fixes the base
    vertex, and a tree has one geodesic between two points, so it fixes
    every step of the ray (Serre, Trees, I.4).  _check_complete shows that
    every other element of H moves the first n steps, and that the element
    that dies at n fixes n - 1 steps but not n (for n = 1, that the first
    edge has a stabilizer smaller than H).

    The survivors after k letters are the elements of H that fix the first
    k steps, and none dies after sigma, so two rays that share their first
    sigma letters give _check_complete the same path, survivors and deaths.
    A memo, keyed on those letters, holds the survivors and their sorted
    words once the check has passed for them; a ray that finds its prefix
    there must have walked to the same survivors, and each word is still
    re-applied to its own end.  Without a memo nothing is kept.
    """
    if max_len is not None and max_len < 0:
        raise TreeError(f"segment length cap must be nonnegative, got {max_len}")
    memo = {} if memo is None else memo
    _, survivors, deaths = lockstep(am, x, False)
    sigma = max(deaths, default=(0, None))[0]
    alive = tuple(e for _, e in survivors)
    key = x.letters(sigma)
    kept = memo.get(key)
    if kept is not None:
        if kept[0] != alive:
            raise VerificationError("the ray's walk keeps other elements than "
                                    "a walk along the same prefix")
        words = kept[1]
    else:
        words = tuple(sorted((word_of_subgroup_element(am, A_SIDE, e)
                              for e in alive), key=ReducedWord.sort_key))
    if any(act_on_boundary(am, h, x) != x for h in words):
        raise VerificationError("ray stabilizer element fails to fix the end")
    if kept is None:
        _check_complete(am, A_SIDE, code_truncate(x, sigma).vertices,
                        survivors, deaths)
        memo[key] = alive, words
    if max_len is not None and sigma > max_len:
        return None
    return TheoremStyleCertificate(sigma, words)


class AcylindricityReport(NamedTuple):
    """Orders of all length-L segment stabilizers inside the tree ball of
    radius L + 2."""

    seg_length: int
    tree_radius: int
    segments: int
    orders_histogram: tuple[tuple[int, int], ...]

    @property
    def max_order(self) -> int:
        return max(order for order, _ in self.orders_histogram)


def check_acylindricity(am: Amalgam, seg_length: int = 2,
                        vertex_cap: int = VERTEX_CAP) -> AcylindricityReport:
    """Exhaust all segments of one length in the ball of radius
    seg_length + 2 and tabulate stabilizer orders, each the length of the
    segment's stabilizer tuple.

    In a tree a non-backtracking walk is the geodesic between its ends, so
    walking seg_length steps from every vertex reaches exactly the vertices
    at that distance.  Each segment is taken once, from its lower-index end.
    One memo serves the call, so each translated segment is searched once,
    and each start vertex is translated, and each of its conjugates made and
    checked to fix it, once; each segment's far end is still translated and
    re-checked under every element of its stabilizer.
    """
    if seg_length < 1:
        raise TreeError("segment length must be positive")
    tree_radius = seg_length + 2
    tree = build_tree(am, tree_radius, vertex_cap)
    neighbors = [[p] if p >= 0 else [] for p in tree.parent]
    for child in tree.vertices[1:]:
        neighbors[tree.parent[child]].append(child)
    hist: dict[int, int] = {}
    memo = SurveyMemo({}, {})
    count = 0
    for i in tree.vertices:
        walk = [(i, -1)]  # (vertex, the vertex it was reached from)
        for _ in range(seg_length):
            walk = [(w, u) for u, prev in walk for w in neighbors[u]
                    if w != prev]
        for j in sorted(u for u, _ in walk if u > i):
            path = geodesic(tree, i, j)
            order = len(stabilizer_of_segment(am, path, memo))
            hist[order] = hist.get(order, 0) + 1
            count += 1
    return AcylindricityReport(seg_length, tree_radius, count,
                               tuple(sorted(hist.items())))


def to_dot(am: Amalgam, tree: TruncatedTree) -> str:
    """Graphviz source: H-type vertices as circles, K-type as boxes, each
    labelled with its word.  The labels hold sum(depths) letter names, which
    is counted first and refused over DOT_LETTER_CAP."""
    refuse_over(DOT_LETTER_CAP, 0, lambda: sum(tree.depths),
                f"the dot labels of a ball of radius {tree.radius} hold "
                "{count} letters, over the cap of {cap}")
    lines = ["graph bass_serre {"]
    labels = [""]
    for i, depth in enumerate(tree.depths):
        if i:
            name = am.letter_name(tree.letter[i])
            up = labels[tree.parent[i]]
            labels.append(f"{up},{name}" if depth > 1 else name)
        shape = "circle" if depth % 2 == A_SIDE else "box"
        lines.append(f'  v{i} [label="{labels[i]}", shape={shape}];')
    for i in tree.vertices[1:]:
        lines.append(f"  v{tree.parent[i]} -- v{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
