"""The Bass-Serre tree of an amalgam, its boundary action, and stabilizers.

Vertices are cosets gH and gK encoded by words: alternating transversal
letters with the trailing same-side letter absorbed into the coset.  H-type
words have even length and K-type words odd length; a K-type word may start
with the trivial H-side letter, which encodes the coset K itself.  Rays from
the base vertex are exactly the letter streams of boundary codes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    radius: int
    vertices: tuple[TreeVertex, ...]
    edges: tuple[tuple[int, int], ...]
    depths: tuple[int, ...]
    index: dict = field(compare=False, repr=False)

    @property
    def base(self) -> TreeVertex:
        return self.vertices[0]

    def counts_by_distance(self) -> list[int]:
        counts = [0] * (self.radius + 1)
        for d in self.depths:
            counts[d] += 1
        return counts

    def index_of(self, v: TreeVertex) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise TreeError(f"vertex not inside the truncated tree: {v}") from None


def build_tree(am: Amalgam, radius: int, vertex_cap: int = VERTEX_CAP) -> TruncatedTree:
    """Breadth-first ball of the given radius around the base vertex."""
    if radius < 0:
        raise TreeError("radius must be nonnegative")
    vertices: list[TreeVertex] = [base_vertex()]
    depths: list[int] = [0]
    edges: list[tuple[int, int]] = []
    index = {vertices[0]: 0}
    level: list[int] = [0]
    for depth in range(1, radius + 1):
        nxt: list[int] = []
        for vi in level:
            v = vertices[vi]
            side = A_SIDE if len(v.word) % 2 == 0 else B_SIDE
            start = 0 if not v.word else 1
            for rep in range(start, am.transversal(side).index):
                word = v.word + (Letter(side, rep),)
                child = TreeVertex(1 - v.vtype, word)
                if len(vertices) >= vertex_cap:
                    raise TreeError(
                        f"vertex cap {vertex_cap} exceeded at radius {depth}")
                index[child] = len(vertices)
                vertices.append(child)
                depths.append(depth)
                edges.append((vi, index[child]))
                nxt.append(index[child])
        level = nxt
    return TruncatedTree(radius, tuple(vertices), tuple(edges),
                         tuple(depths), index)


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


def geodesic(tree: TruncatedTree, v: TreeVertex, w: TreeVertex) -> GeodesicPath:
    """The unique shortest path between two tree vertices."""
    tree.index_of(v)
    tree.index_of(w)
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
        grp = am.side_group(letter.side)
        u = grp.mul(am.embed_to_side(letter.side, carry),
                    am.letter_element(letter))
        rep_idx, carry = am.decompose(letter.side, u)
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
    """Witness that a finite initial segment already pins the ray stabilizer."""

    code: BoundaryCode
    sigma_length: int
    stabilizer: SegmentStabilizer
    ray_stabilizer: tuple[ReducedWord, ...]

    @property
    def order(self) -> int:
        return self.stabilizer.order


def ray_stabilizer(am: Amalgam, x: BoundaryCode) -> tuple[ReducedWord, ...]:
    """Elements of the base vertex group fixing the end x."""
    out = []
    for elem in am.H.elements():
        h = word_of_subgroup_element(am, A_SIDE, elem)
        if act_on_boundary(am, h, x) == x:
            out.append(h)
    out.sort(key=ReducedWord.sort_key)
    return tuple(out)


def check_theorem_A(am: Amalgam, x: BoundaryCode,
                    max_len: Optional[int] = None) -> Optional[TheoremStyleCertificate]:
    """Least n with Stab(first n steps of the ray) equal to Stab(the end).

    Base-rooted rays only: both stabilizers are computed inside H.  Returns
    None when no n up to max_len works; segment stabilizers only shrink, so
    equality at n persists for every longer segment.
    """
    if max_len is None:
        max_len = x.horizon() + 2
    elif max_len < 0:
        raise TreeError(f"segment length cap must be nonnegative, got {max_len}")
    target = frozenset(ray_stabilizer(am, x))
    for n in range(max_len + 1):
        stab = stabilizer_of_segment(am, code_truncate(x, n))
        if frozenset(stab.elements) == target:
            return TheoremStyleCertificate(x, n, stab, tuple(sorted(
                target, key=ReducedWord.sort_key)))
    return None


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
    neighbors: list[list[int]] = [[] for _ in tree.vertices]
    for a, b in tree.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    hist: dict[int, int] = {}
    count = 0
    for i, v in enumerate(tree.vertices):
        walk = [(i, -1)]  # (vertex, the vertex it was reached from)
        for _ in range(seg_length):
            walk = [(w, u) for u, prev in walk for w in neighbors[u]
                    if w != prev]
        for j in sorted(u for u, _ in walk if u > i):
            path = geodesic(tree, v, tree.vertices[j])
            stab = stabilizer_of_segment(am, path)
            hist[stab.order] = hist.get(stab.order, 0) + 1
            count += 1
    return AcylindricityReport(seg_length, tree_radius, count,
                               tuple(sorted(hist.items())))


def to_dot(am: Amalgam, tree: TruncatedTree) -> str:
    """Graphviz source: H-type vertices as circles, K-type as boxes."""
    lines = ["graph bass_serre {"]
    for i, v in enumerate(tree.vertices):
        shape = "circle" if v.vtype == H_TYPE else "box"
        label = ",".join(am.letter_name(letter) for letter in v.word)
        lines.append(f'  v{i} [label="{label}", shape={shape}];')
    for i, j in tree.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
