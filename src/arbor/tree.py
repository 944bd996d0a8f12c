"""The Bass-Serre tree of an amalgam, its boundary action, and stabilizers.

Vertices are cosets gH and gK encoded by words: alternating transversal
letters with the trailing same-side letter absorbed into the coset.  H-type
words have even length and K-type words odd length; a K-type word may start
with the trivial H-side letter, which encodes the coset K itself.  Rays from
the base vertex are exactly the letter streams of boundary codes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import BoundaryCode
from .groups import (A_SIDE, B_SIDE, Amalgam, Letter, ReducedWord,
                     VerificationError, absorb, invert, multiply,
                     word_of_subgroup_element)

H_TYPE = 0
K_TYPE = 1


# Vertices a truncated tree may hold; the ARBOR_VERTEX_CAP environment
# variable overrides it on the command line.
VERTEX_CAP = 100_000

# Letter names `tree --dot` may write into its labels, summed over vertices.
DOT_LETTER_CAP = 10_000_000


class TreeError(ValueError):
    """Raised for invalid vertices, paths, or exceeded caps."""


@dataclass(frozen=True)
class TreeVertex:
    vtype: int
    word: tuple[Letter, ...]


def base_vertex() -> TreeVertex:
    return TreeVertex(H_TYPE, ())


def vertex_from_letters(letters: Sequence[Letter], vtype: int) -> TreeVertex:
    """Normalize a letter word to the canonical vertex word of the given type."""
    out = list(letters)
    tail_side = A_SIDE if vtype == H_TYPE else B_SIDE
    if out and out[-1].side == tail_side:
        out.pop()
    if not out:
        if vtype == K_TYPE:
            out = [Letter(A_SIDE, 0)]
    elif out[0].side == B_SIDE:
        out.insert(0, Letter(A_SIDE, 0))
    if len(out) % 2 != vtype:
        raise TreeError("letter word does not reach a vertex of the requested type")
    return TreeVertex(vtype, tuple(out))


def validate_vertex(am: Amalgam, v: TreeVertex) -> None:
    if v.vtype not in (H_TYPE, K_TYPE) or len(v.word) % 2 != v.vtype:
        raise TreeError(f"vertex type {v.vtype} does not match word length")
    for i, letter in enumerate(v.word):
        if letter.side != i % 2:
            raise TreeError(f"vertex word letter {i} on wrong side")
        if not (0 <= letter.rep < am.transversal(letter.side).index):
            raise TreeError(f"vertex word letter {i} out of range")
        if letter.rep == 0 and i > 0:
            raise TreeError(f"trivial letter beyond position 0 (position {i})")


def is_adjacent(v: TreeVertex, w: TreeVertex) -> bool:
    if v.vtype == w.vtype:
        return False
    a, b = (v, w) if len(v.word) < len(w.word) else (w, v)
    return len(b.word) == len(a.word) + 1 and b.word[:len(a.word)] == a.word


@dataclass(frozen=True)
class TruncatedTree:
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

    def vertex(self, i: int) -> TreeVertex:
        """Vertex i spelled as a word, by climbing its parents."""
        if not 0 <= i < len(self.depths):
            raise TreeError(f"vertex {i} is not inside the truncated tree")
        word = []
        while i > 0:
            word.append(self.letter[i])
            i = self.parent[i]
        return TreeVertex(len(word) % 2, tuple(reversed(word)))


def ball_size(am: Amalgam, radius: int) -> int:
    """Vertices of the radius ball around the base vertex, in closed form:
    depth 1 holds a = |H:C| of them, and later depths multiply by b - 1 and
    a - 1 in turn, where b = |K:C|."""
    a, b = am.A.index, am.B.index
    p = (a - 1) * (b - 1)  # growth over two depths
    odd, even = (radius + 1) // 2, radius // 2  # depths 2j+1 and 2j+2
    if p == 1:
        return 1 + a * odd + a * (b - 1) * even
    return 1 + (a * (p ** odd - 1) + a * (b - 1) * (p ** even - 1)) // (p - 1)


def build_tree(am: Amalgam, radius: int, vertex_cap: int = VERTEX_CAP) -> TruncatedTree:
    """Breadth-first ball of the given radius around the base vertex, counted
    first and refused over the vertex cap; its letters are shared objects."""
    if radius < 0:
        raise TreeError("radius must be nonnegative")
    # a growing ball (a + b > 4) holds over 2**half vertices: past the cap,
    # do not compute its size
    half = (radius + 1) // 2
    too_big = am.A.index + am.B.index > 4 and half > vertex_cap.bit_length()
    count = f"more than 2**{half}" if too_big else ball_size(am, radius)
    if too_big or count > vertex_cap:
        raise TreeError(f"the tree ball of radius {radius} has {count} "
                        f"vertices, over the vertex cap of {vertex_cap}")
    alphabet = [[Letter(side, rep) for rep in range(am.transversal(side).index)]
                for side in (A_SIDE, B_SIDE)]
    parent, letter, depths = [-1], [None], [0]
    level = range(1)  # the vertices one depth up
    for depth in range(1, radius + 1):
        # only the base's children may begin with the trivial letter
        letters = alphabet[(depth - 1) % 2][depth > 1:]
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
        carry = absorb(am, out, carry, letter.side, am.letter_element(letter))
    return ReducedWord(tuple(out), carry)


def act_on_vertex(am: Amalgam, g: ReducedWord, v: TreeVertex) -> TreeVertex:
    """Left translation of a coset vertex; preserves type and adjacency."""
    letters = list(g.letters)
    carry = g.carry
    for letter in v.word:
        carry = absorb(am, letters, carry, letter.side, am.letter_element(letter))
    return vertex_from_letters(letters, v.vtype)


@dataclass(frozen=True)
class GeodesicPath:
    vertices: tuple[TreeVertex, ...]

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


def geodesic(tree: TruncatedTree, i: int, j: int) -> GeodesicPath:
    """The unique shortest path between tree vertices i and j."""
    v, w = tree.vertex(i), tree.vertex(j)
    lcp = 0
    while lcp < min(len(v.word), len(w.word)) and v.word[lcp] == w.word[lcp]:
        lcp += 1
    down = [v.word[:k] for k in range(len(v.word), lcp - 1, -1)]
    up = [w.word[:k] for k in range(lcp + 1, len(w.word) + 1)]
    verts = [TreeVertex(len(word) % 2, word) for word in down + up]
    return GeodesicPath(tuple(verts))


def code_truncate(x: BoundaryCode, n: int) -> GeodesicPath:
    """The first n steps of the ray from the base vertex toward the end x."""
    if n < 0:
        raise TreeError("truncation length must be nonnegative")
    verts = [TreeVertex(k % 2, x.letters(k)) for k in range(n + 1)]
    return GeodesicPath(tuple(verts))


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
    letters = list(g.letters)
    carry = g.carry
    i = 0
    while True:
        if i > len(g.letters) + len(x.prefix) + 2 * len(x.cycle) + 4:
            raise VerificationError("junction phase failed to stabilize")
        letter = x.letter_at(i)
        before = len(letters)
        saved_letters = list(letters)
        saved_carry = carry
        carry = absorb(am, letters, carry, letter.side, am.letter_element(letter))
        if len(letters) > before:
            letters = saved_letters
            carry = saved_carry
            break
        i += 1
    stable = letters

    emitted: list[Letter] = []
    seen: dict[tuple[int, int], int] = {}
    cycle_letters: Optional[tuple[Letter, ...]] = None
    j = i
    while True:
        if j >= len(x.prefix):
            state = ((j - len(x.prefix)) % len(x.cycle), carry)
            if state in seen:
                cycle_letters = tuple(emitted[seen[state]:])
                break
            seen[state] = len(emitted)
        if len(emitted) > len(x.prefix) + len(x.cycle) * am.C.order + 4:
            raise VerificationError("carry phase failed to cycle")
        letter = x.letter_at(j)
        rep_idx, carry = am.step(letter.side, carry, letter.rep)
        emitted.append(Letter(letter.side, rep_idx))
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


def lockstep(am: Amalgam, x: BoundaryCode, least: bool
             ) -> tuple[tuple[Letter, ...], list[tuple[int, int]], int,
                        Optional[int]]:
    """Walk every element of H along the end x at once.

    An element e turns x's first letter into the first letter of e.x and a
    carry in C; each later letter is one step-table lookup that moves the
    carry past it and emits the next letter of e.x.  At each position only
    the elements that emit the wanted letter survive: the least one when
    least is set, otherwise x's own letter, so that the survivors after n
    letters fix the ray's first n steps.  Returns the emitted letters, the
    survivors as (carry, e) in H.elements() order, sigma (the letter count
    at the last death, 0 when none dies) and the first element that died
    there.

    Survivors' carries are distinct (e P = P' c = e' P gives e = e'), so
    the walk stops when one survivor is left; or when (cycle position,
    survivor carries) repeats, since nothing died in between and the same
    stretch then repeats forever; or after len(prefix) + 3*len(cycle)*|C|
    letters.  Past len(prefix) + len(cycle)*|C| letters every survivor's own
    (cycle position, carry) has repeated, so its stream, like x's, is
    periodic with a period of at most len(cycle)*|C|; two such streams that
    agree for twice that long agree forever (Fine and Wilf), so nothing
    dies after the bound.
    """
    letter = x.letter_at(0)
    head = am.rep_element(A_SIDE, letter.rep)
    moved = [(am.decompose(A_SIDE, am.H.mul(e, head)), e)
             for e in am.H.elements()]
    emitted: list[Letter] = []
    sigma, dead = 0, None
    bound = len(x.prefix) + 3 * len(x.cycle) * am.C.order
    seen: set = set()
    j = 0
    while True:
        if least:
            letter = Letter(letter.side, min(r for (r, _), _ in moved))
        emitted.append(letter)
        survivors, want = [], letter.rep
        for (rep, carry), e in moved:
            if rep == want:
                survivors.append((carry, e))
            elif sigma != j + 1:
                sigma, dead = j + 1, e
        j += 1
        if len(survivors) == 1 or j >= bound:
            break
        if j >= len(x.prefix):
            state = ((j - len(x.prefix)) % len(x.cycle),
                     frozenset(c for c, _ in survivors))
            if state in seen:
                break
            seen.add(state)
        letter = x.letter_at(j)
        moved = [(am.step(letter.side, c, letter.rep), e)
                 for c, e in survivors]
    return tuple(emitted), survivors, sigma, dead


@dataclass(frozen=True)
class SegmentStabilizer:
    """The exact setwise-fixing subgroup of a finite segment, as normal forms."""

    segment: GeodesicPath
    elements: tuple[ReducedWord, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def stabilizer_of_segment(am: Amalgam, segment: GeodesicPath) -> SegmentStabilizer:
    """All g fixing every vertex of the segment, via translation to the base.

    Conjugating the segment so it starts at a base coset reduces the search
    to one finite factor, which is exhaustive and exact.
    """
    validate_geodesic(am, segment)
    v0 = segment.vertices[0]
    t = invert(am, word_element(am, v0.word))
    moved = [act_on_vertex(am, t, v) for v in segment.vertices]
    expected = base_vertex() if v0.vtype == H_TYPE else vertex_from_letters([], K_TYPE)
    if moved[0] != expected:
        raise TreeError("failed to translate the segment start to a base coset")
    side = A_SIDE if v0.vtype == H_TYPE else B_SIDE
    grp = am.side_group(side)
    t_inv = invert(am, t)
    found: list[ReducedWord] = []
    for elem in grp.elements():
        h = word_of_subgroup_element(am, side, elem)
        if all(act_on_vertex(am, h, v) == v for v in moved):
            g = multiply(am, multiply(am, t_inv, h), t)
            if any(act_on_vertex(am, g, v) != v for v in segment.vertices):
                raise VerificationError("conjugated stabilizer element fails to fix")
            found.append(g)
    found.sort(key=ReducedWord.sort_key)
    return SegmentStabilizer(segment, tuple(found))


@dataclass(frozen=True)
class TheoremStyleCertificate:
    """The elements fixing the first sigma_length steps of a ray, and its end."""

    code: BoundaryCode
    sigma_length: int
    elements: tuple[ReducedWord, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _words(am: Amalgam, elements) -> tuple[ReducedWord, ...]:
    return tuple(sorted((word_of_subgroup_element(am, A_SIDE, e)
                         for e in elements), key=ReducedWord.sort_key))


def _recheck_ray(am: Amalgam, x: BoundaryCode, sigma: int, fixing: list,
                 words: tuple[ReducedWord, ...]) -> None:
    """Each reported word fixes the end x, and each element of H outside
    fixing moves the ray's vertex at sigma.

    H fixes the base, so for sigma >= 1 only the elements fixing the first
    step can fix that vertex: the conjugates r c r^-1 (c in C) by the
    first letter's representative r.
    """
    if any(act_on_boundary(am, h, x) != x for h in words):
        raise VerificationError("ray stabilizer element fails to fix the end")
    H = am.H
    r = am.rep_element(A_SIDE, x.letter_at(0).rep)
    suspects = H.elements() if sigma == 0 else [
        H.mul(H.mul(r, am.embed_to_side(A_SIDE, c)), H.inv(r))
        for c in am.C.elements()]
    far = TreeVertex(sigma % 2, x.letters(sigma))
    for e in suspects:
        if e not in fixing and act_on_vertex(
                am, word_of_subgroup_element(am, A_SIDE, e), far) == far:
            raise VerificationError(f"an element left out of the stabilizer "
                                    f"fixes the ray's vertex at distance "
                                    f"{sigma}")


def ray_stabilizer(am: Amalgam, x: BoundaryCode) -> tuple[ReducedWord, ...]:
    """Elements of the base vertex group fixing the end x, each re-applied,
    and shown to be all of them."""
    _, survivors, sigma, _ = lockstep(am, x, False)
    fixing = [e for _, e in survivors]
    words = _words(am, fixing)
    _recheck_ray(am, x, sigma, fixing, words)
    return words


def check_theorem_A(am: Amalgam, x: BoundaryCode,
                    max_len: Optional[int] = None) -> Optional[TheoremStyleCertificate]:
    """Least n with Stab(first n steps of the ray) equal to Stab(the end).

    Base-rooted rays only: both stabilizers lie inside H, and one lockstep
    walk gives n as its last death.  Returns None when n is over max_len;
    segment stabilizers only shrink, so equality at n persists for every
    longer segment.  Each stabilizer element is re-applied to every vertex
    of the segment and to the end, every other element of H is shown to
    move the segment, and below n one element is shown to fix the segment
    of n - 1 steps but move the vertex at n.
    """
    if max_len is None:
        max_len = x.horizon() + 2
    elif max_len < 0:
        raise TreeError(f"segment length cap must be nonnegative, got {max_len}")
    _, survivors, sigma, dead = lockstep(am, x, False)
    if sigma > max_len:
        return None
    segment = code_truncate(x, sigma)
    fixing = [e for _, e in survivors]
    words = _words(am, fixing)
    if any(act_on_vertex(am, h, v) != v
           for h in words for v in segment.vertices):
        raise VerificationError(
            "segment stabilizer element fails to fix the segment")
    _recheck_ray(am, x, sigma, fixing, words)
    if sigma:
        g = word_of_subgroup_element(am, A_SIDE, dead)
        near, far = segment.vertices[-2:]
        if act_on_vertex(am, g, near) != near \
                or act_on_vertex(am, g, far) == far:
            raise VerificationError(
                f"no element fixes {sigma - 1} steps of the ray but not "
                f"{sigma}")
    return TheoremStyleCertificate(x, sigma, words)


@dataclass(frozen=True)
class AcylindricityReport:
    """Orders of all length-L segment stabilizers inside a truncated tree."""

    seg_length: int
    tree_radius: int
    segments: int
    orders_histogram: tuple[tuple[int, int], ...]

    @property
    def max_order(self) -> int:
        return max(order for order, _ in self.orders_histogram)


def check_acylindricity(am: Amalgam, seg_length: int = 2,
                        tree_radius: Optional[int] = None,
                        vertex_cap: int = VERTEX_CAP) -> AcylindricityReport:
    """Exhaust all segments of one length in a ball and tabulate stabilizer orders.

    In a tree a non-backtracking walk is the geodesic between its ends, so
    walking seg_length steps from every vertex reaches exactly the vertices
    at that distance.  Each segment is taken once, from its lower-index end.
    """
    if seg_length < 1:
        raise TreeError("segment length must be positive")
    if tree_radius is None:
        tree_radius = seg_length + 2
    if tree_radius < seg_length:
        raise TreeError("tree radius must be at least the segment length")
    tree = build_tree(am, tree_radius, vertex_cap)
    neighbors = [[p] if p >= 0 else [] for p in tree.parent]
    for child in tree.vertices[1:]:
        neighbors[tree.parent[child]].append(child)
    hist: dict[int, int] = {}
    count = 0
    for i in tree.vertices:
        walk = [(i, -1)]  # (vertex, the vertex it was reached from)
        for _ in range(seg_length):
            walk = [(w, u) for u, prev in walk for w in neighbors[u]
                    if w != prev]
        for j in sorted(u for u, _ in walk if u > i):
            path = geodesic(tree, i, j)
            stab = stabilizer_of_segment(am, path)
            hist[stab.order] = hist.get(stab.order, 0) + 1
            count += 1
    return AcylindricityReport(seg_length, tree_radius, count,
                               tuple(sorted(hist.items())))


def to_dot(am: Amalgam, tree: TruncatedTree) -> str:
    """Graphviz source: H-type vertices as circles, K-type as boxes, each
    labelled with its word.  The labels hold sum(depths) letter names, which
    is counted first and refused over DOT_LETTER_CAP."""
    letters = sum(tree.depths)
    if letters > DOT_LETTER_CAP:
        raise TreeError(f"the dot labels of a ball of radius {tree.radius} "
                        f"hold {letters} letters, over the cap of "
                        f"{DOT_LETTER_CAP}")
    lines = ["graph bass_serre {"]
    labels = [""]
    for i, depth in enumerate(tree.depths):
        if i:
            name = am.letter_name(tree.letter[i])
            up = labels[tree.parent[i]]
            labels.append(f"{up},{name}" if depth > 1 else name)
        shape = "circle" if depth % 2 == H_TYPE else "box"
        lines.append(f'  v{i} [label="{labels[i]}", shape={shape}];')
    for i in tree.vertices[1:]:
        lines.append(f"  v{tree.parent[i]} -- v{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
