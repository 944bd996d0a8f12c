"""Exact finite-group arithmetic, coset transversals, and amalgam normal forms.

Groups are multiplication tables over element indices 0..n-1 with 0 the
identity.  An amalgam H *_C K stores one coset transversal per factor and a
pair of O(1) decomposition tables, so normal-form reduction never searches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

A_SIDE = 0  # letters drawn from the H-side transversal
B_SIDE = 1  # letters drawn from the K-side transversal

ASSOC_CHECK_CAP = 256
# {"cyclic": n} builds an n-by-n table; on one core 1024 takes about 0.45 s
# and 55 MB
CYCLIC_ORDER_CAP = 1024


class GroupError(ValueError):
    """Raised for invalid tables, homomorphisms, or subgroup data."""


class VerificationError(RuntimeError):
    """An internal re-check disagrees with the result it checks.

    This is a defect in the computation, not a verdict about the input.
    """


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an explicit multiplication table, identity at index 0."""

    order: int
    mul_table: tuple[tuple[int, ...], ...]
    inv_table: tuple[int, ...]
    names: tuple[str, ...]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a]

    def index_of_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GroupError(f"unknown element name {name!r}") from None


def _validate_table(mul_table: Sequence[Sequence[int]]) -> None:
    n = len(mul_table)
    if n == 0:
        raise GroupError("empty multiplication table")
    for row in mul_table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise GroupError("multiplication table is not square over 0..n-1")
    for i in range(n):
        if mul_table[0][i] != i or mul_table[i][0] != i:
            raise GroupError("index 0 is not a two-sided identity")
    for i in range(n):
        if len(set(mul_table[i])) != n or len({mul_table[j][i] for j in range(n)}) != n:
            raise GroupError(f"row or column {i} is not a permutation")
    if n <= ASSOC_CHECK_CAP:
        for a in range(n):
            for b in range(n):
                ab = mul_table[a][b]
                for c in range(n):
                    if mul_table[ab][c] != mul_table[a][mul_table[b][c]]:
                        raise GroupError(f"table is not associative at ({a},{b},{c})")


def _inverses(mul_table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = len(mul_table)
    inv = [-1] * n
    for a in range(n):
        for b in range(n):
            if mul_table[a][b] == 0:
                inv[a] = b
                break
        if inv[a] < 0:
            raise GroupError(f"element {a} has no inverse")
    return tuple(inv)


def _default_names(n: int) -> tuple[str, ...]:
    return ("e",) + tuple(f"g{i}" for i in range(1, n))


def group_from_table(mul_table: Sequence[Sequence[int]],
                     names: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Build and validate a group from an explicit multiplication table."""
    table = tuple(tuple(row) for row in mul_table)
    _validate_table(table)
    n = len(table)
    if names is None:
        names = _default_names(n)
    names = tuple(names)
    if len(names) != n or len(set(names)) != n:
        raise GroupError("names must be distinct and cover every element")
    return FiniteGroup(n, table, _inverses(table), names)


def cyclic_group(n: int, names: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Cyclic group of order n with elements 0..n-1 under addition mod n."""
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    if n > CYCLIC_ORDER_CAP:
        raise GroupError(f"cyclic group of order {n} is over the cap of "
                         f"{CYCLIC_ORDER_CAP} elements")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(table, names)


def group_from_permutations(generators: Sequence[Sequence[int]],
                            names: Optional[Sequence[str]] = None,
                            cap: int = 256) -> FiniteGroup:
    """Close a set of permutations under composition, breadth-first, identity first."""
    if not generators:
        raise GroupError("need at least one generator permutation")
    degree = len(generators[0])
    gens = []
    for g in generators:
        p = tuple(g)
        if sorted(p) != list(range(degree)):
            raise GroupError(f"not a permutation of 0..{degree - 1}: {g}")
        gens.append(p)

    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(degree))

    identity = tuple(range(degree))
    elements = [identity]
    seen = {identity: 0}
    queue = [identity]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                if len(elements) >= cap:
                    raise GroupError(f"closure exceeds cap of {cap} elements")
                seen[nxt] = len(elements)
                elements.append(nxt)
                queue.append(nxt)
    n = len(elements)
    table = [[seen[compose(elements[i], elements[j])] for j in range(n)]
             for i in range(n)]
    return group_from_table(table, names)


GroupSpec = Union[int, dict, FiniteGroup]


def _spec_int(value, key: str) -> int:
    # type(), not isinstance(): a JSON true is no integer here
    if type(value) is not int:
        raise GroupError(f"{key}: need an integer, got {value!r}")
    return value


def _spec_rows(value, key: str) -> list:
    if not isinstance(value, (list, tuple)) \
            or not all(isinstance(row, (list, tuple)) for row in value):
        raise GroupError(f"{key}: need a list of integer lists")
    for row in value:
        for x in row:
            _spec_int(x, key)
    return value


def make_group(spec: GroupSpec) -> FiniteGroup:
    """Build a group from an int (cyclic order), a spec dict, or pass one through.

    Dict forms: {"cyclic": n}, {"mul_table": [[...]]}, {"permutations": [[...]]},
    each optionally with "names" (a list of strings); permutations may carry
    a closure "cap".  Values of the wrong JSON type raise GroupError.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if type(spec) is int:
        return cyclic_group(spec)
    if not isinstance(spec, dict):
        raise GroupError(f"cannot build a group from {type(spec).__name__}")
    names = spec.get("names")
    if names is not None and (not isinstance(names, (list, tuple)) or
                              not all(isinstance(n, str) for n in names)):
        raise GroupError(f"names: need a list of strings, got {names!r}")
    kinds = [k for k in ("cyclic", "mul_table", "permutations") if k in spec]
    if len(kinds) != 1:
        raise GroupError("group spec needs exactly one of cyclic/mul_table/permutations")
    kind = kinds[0]
    if kind == "cyclic":
        return cyclic_group(_spec_int(spec["cyclic"], kind), names)
    if kind == "mul_table":
        return group_from_table(_spec_rows(spec["mul_table"], kind), names)
    cap = _spec_int(spec.get("cap", 256), "cap")
    return group_from_permutations(_spec_rows(spec["permutations"], kind),
                                   names, cap=cap)


@dataclass(frozen=True)
class Homomorphism:
    """A map between finite groups given by its value on every source element."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]


def make_homomorphism(source: FiniteGroup, target: FiniteGroup,
                      images: Sequence[int],
                      require_injective: bool = False) -> Homomorphism:
    """Validate the homomorphism property exhaustively and wrap the map."""
    images = tuple(images)
    if len(images) != source.order:
        raise GroupError("image table must cover every source element")
    if any(not (0 <= x < target.order) for x in images):
        raise GroupError("image out of range")
    if images[0] != 0:
        raise GroupError("homomorphism must send identity to identity")
    for a in source.elements():
        for b in source.elements():
            if images[source.mul(a, b)] != target.mul(images[a], images[b]):
                raise GroupError(f"not a homomorphism at ({a},{b})")
    if require_injective and len(set(images)) != source.order:
        raise GroupError("embedding is not injective")
    return Homomorphism(source, target, images)


def is_subgroup(group: FiniteGroup, elems: Iterable[int]) -> bool:
    s = frozenset(elems)
    if 0 not in s or any(not (0 <= x < group.order) for x in s):
        return False
    return all(group.mul(a, b) in s for a in s for b in s)


@dataclass(frozen=True)
class Transversal:
    """Left-coset representatives for a subgroup, least element index per coset."""

    subgroup: frozenset[int]
    reps: tuple[int, ...]

    @property
    def index(self) -> int:
        return len(self.reps)


def left_cosets(group: FiniteGroup, subgroup: Iterable[int]) -> tuple[list[list[int]], Transversal]:
    """Partition into left cosets gS, ordered and represented by least element."""
    sub = frozenset(subgroup)
    if not is_subgroup(group, sub):
        raise GroupError("not a subgroup")
    assigned: dict[int, int] = {}
    cosets: list[list[int]] = []
    reps: list[int] = []
    for g in group.elements():
        if g in assigned:
            continue
        coset = sorted(group.mul(g, s) for s in sub)
        for x in coset:
            assigned[x] = len(cosets)
        cosets.append(coset)
        reps.append(g)
    return cosets, Transversal(sub, tuple(reps))


@dataclass(frozen=True, order=True)
class Letter:
    """One transversal letter: a side tag and a representative index on that side."""

    side: int
    rep: int


@dataclass(frozen=True)
class ReducedWord:
    """Normal form: alternating nontrivial transversal letters, then a carry in C."""

    letters: tuple[Letter, ...]
    carry: int

    def sort_key(self) -> tuple:
        return (len(self.letters), self.letters, self.carry)


class Amalgam:
    """An amalgamated product H *_C K with precomputed decomposition tables.

    Every element of H factors uniquely as rep * embed_h(c); the tables
    _rep_idx and _carry hold that factorization for both sides, which makes
    appending a single raw letter to a normal form an O(1) operation.
    """

    def __init__(self, H: FiniteGroup, K: FiniteGroup, C: FiniteGroup,
                 embed_h: Homomorphism, embed_k: Homomorphism) -> None:
        if embed_h.source is not C or embed_k.source is not C:
            raise GroupError("embeddings must share the amalgamated group as source")
        if embed_h.target is not H or embed_k.target is not K:
            raise GroupError("embeddings must land in H and K respectively")
        for emb in (embed_h, embed_k):
            if len(set(emb.images)) != C.order:
                raise GroupError("amalgam embeddings must be injective")
        self.H, self.K, self.C = H, K, C
        self.embed_h, self.embed_k = embed_h, embed_k
        _, self.A = left_cosets(H, frozenset(embed_h.images))
        _, self.B = left_cosets(K, frozenset(embed_k.images))
        if self.A.index < 2 or self.B.index < 2:
            raise GroupError("both amalgam indices must be at least 2")

        self._groups = (H, K)
        self._embed = (embed_h.images, embed_k.images)
        self._transversals = (self.A, self.B)
        # u = reps[_rep_idx[u]] * embed(_carry[u]), uniquely
        factored = [self._factor_side(side) for side in (A_SIDE, B_SIDE)]
        self._rep_idx = (factored[0][0], factored[1][0])
        self._carry = (factored[0][1], factored[1][1])

    def _factor_side(self, side: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        grp = self._groups[side]
        trans = self._transversals[side]
        emb = self._embed[side]
        rep_idx = [-1] * grp.order
        carry = [-1] * grp.order
        for i, r in enumerate(trans.reps):
            for c, img in enumerate(emb):
                u = grp.mul(r, img)
                if rep_idx[u] >= 0:
                    raise GroupError("coset factorization is not unique")
                rep_idx[u] = i
                carry[u] = c
        if any(x < 0 for x in rep_idx):
            raise GroupError("coset factorization does not cover the group")
        return tuple(rep_idx), tuple(carry)

    def side_group(self, side: int) -> FiniteGroup:
        return self._groups[side]

    def transversal(self, side: int) -> Transversal:
        return self._transversals[side]

    def embed_to_side(self, side: int, c: int) -> int:
        return self._embed[side][c]

    def rep_element(self, side: int, rep_index: int) -> int:
        return self._transversals[side].reps[rep_index]

    def decompose(self, side: int, elem: int) -> tuple[int, int]:
        """Factor elem = rep * embed(c); returns (rep index, c index)."""
        return self._rep_idx[side][elem], self._carry[side][elem]

    def letter_element(self, letter: Letter) -> int:
        return self.rep_element(letter.side, letter.rep)

    def letter_name(self, letter: Letter) -> str:
        return self._groups[letter.side].name(self.letter_element(letter))

    def identity_word(self) -> ReducedWord:
        return ReducedWord((), 0)


def make_amalgam(H: FiniteGroup, K: FiniteGroup, C: FiniteGroup,
                 embed_h_images: Sequence[int],
                 embed_k_images: Sequence[int]) -> Amalgam:
    """Assemble an amalgam from groups plus the two embedding image tables."""
    eh = make_homomorphism(C, H, embed_h_images, require_injective=True)
    ek = make_homomorphism(C, K, embed_k_images, require_injective=True)
    return Amalgam(H, K, C, eh, ek)


def absorb(am: Amalgam, letters: list[Letter], carry: int,
           side: int, elem: int) -> int:
    """Absorb one raw side element into (letters, carry); returns the new carry.

    Mutates letters in place.  The pending carry commutes past nothing: it is
    folded into the incoming element through the side embedding first.
    """
    grp = am.side_group(side)
    x = grp.mul(am.embed_to_side(side, carry), elem)
    if letters and letters[-1].side == side:
        prev = letters.pop()
        x = grp.mul(am.letter_element(prev), x)
    rep_idx, new_carry = am.decompose(side, x)
    if rep_idx != 0:
        letters.append(Letter(side, rep_idx))
    return new_carry


RawSyllable = tuple[str, Union[int, str]]

_SIDE_OF_TAG = {"H": A_SIDE, "K": B_SIDE}


def normal_form(am: Amalgam, word: Iterable[RawSyllable]) -> ReducedWord:
    """Reduce a raw word of ("H"|"K"|"C", element) syllables to its normal form.

    Elements may be indices or element names.  C syllables are folded through
    the H-side embedding; the choice does not matter by the amalgam relation.
    """
    letters: list[Letter] = []
    carry = 0
    for tag, raw in word:
        if tag == "C":
            grp, side = am.C, A_SIDE
            elem = grp.index_of_name(raw) if isinstance(raw, str) else raw
            if not (0 <= elem < grp.order):
                raise GroupError(f"C element {raw!r} out of range")
            carry = absorb(am, letters, carry, side, am.embed_to_side(side, elem))
            continue
        if tag not in _SIDE_OF_TAG:
            raise GroupError(f"unknown syllable tag {tag!r}")
        side = _SIDE_OF_TAG[tag]
        grp = am.side_group(side)
        elem = grp.index_of_name(raw) if isinstance(raw, str) else raw
        if not (0 <= elem < grp.order):
            raise GroupError(f"{tag} element {raw!r} out of range")
        carry = absorb(am, letters, carry, side, elem)
    return ReducedWord(tuple(letters), carry)


def multiply(am: Amalgam, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """Product of two normal forms, again in normal form."""
    letters = list(u.letters)
    carry = u.carry
    for letter in v.letters:
        carry = absorb(am, letters, carry, letter.side, am.letter_element(letter))
    carry = am.C.mul(carry, v.carry)
    return ReducedWord(tuple(letters), carry)


def invert(am: Amalgam, u: ReducedWord) -> ReducedWord:
    """Inverse of a normal form, in normal form."""
    letters: list[Letter] = []
    carry = am.C.inv(u.carry)
    for letter in reversed(u.letters):
        grp = am.side_group(letter.side)
        carry = absorb(am, letters, carry, letter.side,
                       grp.inv(am.letter_element(letter)))
    return ReducedWord(tuple(letters), carry)


def word_of_subgroup_element(am: Amalgam, side: int, elem: int) -> ReducedWord:
    """Normal form of a single H- or K-element."""
    letters: list[Letter] = []
    carry = absorb(am, letters, 0, side, elem)
    return ReducedWord(tuple(letters), carry)


def word_to_str(am: Amalgam, w: ReducedWord) -> str:
    """Display form: letter names joined by '*', with a trailing carry name."""
    parts = [am.letter_name(letter) for letter in w.letters]
    if w.carry != 0:
        parts.append(am.C.name(w.carry))
    return "*".join(parts) if parts else am.C.name(0)


def word_from_str(am: Amalgam, s: str) -> ReducedWord:
    """Parse the display form back; names resolve by side with ambiguity errors."""
    s = s.strip()
    if not s or s == am.C.name(0):
        return am.identity_word()
    syllables: list[RawSyllable] = []
    for tok in s.split("*"):
        tok = tok.strip()
        hits = []
        for tag, grp in (("H", am.H), ("K", am.K), ("C", am.C)):
            if tok in grp.names and grp.index_of_name(tok) != 0:
                hits.append((tag, tok))
        if not hits:
            raise GroupError(f"unknown element name {tok!r}")
        if len(hits) > 1:
            raise GroupError(f"ambiguous element name {tok!r}")
        syllables.append(hits[0])
    return normal_form(am, syllables)
