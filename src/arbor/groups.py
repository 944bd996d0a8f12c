"""Exact finite-group arithmetic, coset transversals, and amalgam normal forms.

Groups are multiplication tables over element indices 0..n-1 with 0 the
identity.  An amalgam H *_C K stores one coset transversal per factor, a
pair of O(1) decomposition tables and a step table built from them, all
checked against group multiplication when the amalgam is made, so
normal-form reduction never searches.  Every product of normal forms feeds
transversal letters one at a time through feed: after a letter of the other
side, or into an empty word, that is one step-table lookup; only a
same-side junction multiplies, through absorb.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence, Union

A_SIDE = 0  # letters drawn from the H-side transversal
B_SIDE = 1  # letters drawn from the K-side transversal

# Elements of a {"cyclic": n} group or a {"permutations": ...} closure: both
# build an n-by-n table.  On one core, 1024 takes about 0.45 s and 55 MB as a
# cyclic group, 0.45 s and 40 MB as the closure of a 1024-cycle, and 0.75 s as
# C2^10, whose associativity check needs ten generators
GROUP_ORDER_CAP = 1024


class GroupError(ValueError):
    """Raised for invalid tables, homomorphisms, or subgroup data."""


class VerificationError(RuntimeError):
    """An internal re-check disagrees with the result it checks.

    This is a defect in the computation, not a verdict about the input.
    """


class FiniteGroup(NamedTuple):
    """A finite group as an explicit multiplication table, identity at index 0."""

    order: int
    mul_table: tuple[tuple[int, ...], ...]
    inv_table: tuple[int, ...]
    names: tuple[str, ...]

    def index_of_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GroupError(f"unknown element name {name!r}") from None


def _validate_table(mul_table: Sequence[Sequence[int]]) -> None:
    """Refuse a table that is not a group: square over 0..n-1, identity at 0,
    rows and columns permutations, and associative by Light's test (Clifford
    & Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2).

    The least element not yet reached joins a generating set S, and {0} is
    closed again under right multiplication by S, until all are reached.  The
    t with (xy)t = x(yt) for all x, y hold 0 and S and are closed under
    products: (xy)(tu) = ((xy)t)u = (x(yt))u = x((yt)u) = x(y(tu)).  Every
    element is some 0·s1···sk, so checking (xy)s = x(ys) for s in S proves
    associativity.  In a group each new member of S at least doubles the
    subgroup S generates (Lagrange), so |S| <= floor(log2 n); a table that
    needs more is not associative.  The cost is O(n^2 log n).
    """
    n = len(mul_table)
    if n == 0:
        raise GroupError("empty multiplication table")
    full = set(range(n))
    for row in mul_table:
        if len(row) != n or not full.issuperset(row):
            raise GroupError("multiplication table is not square over 0..n-1")
    for i in range(n):
        if mul_table[0][i] != i or mul_table[i][0] != i:
            raise GroupError("index 0 is not a two-sided identity")
    for i, (row, col) in enumerate(zip(mul_table, zip(*mul_table))):
        if len(set(row)) != n or len(set(col)) != n:
            raise GroupError(f"row or column {i} is not a permutation")
    gens: list[int] = []
    reached = {0}
    while len(reached) < n:
        if len(gens) == n.bit_length() - 1:
            raise GroupError(f"table is not associative: {n} elements need "
                             f"more than {len(gens)} generators")
        gens.append(next(g for g in range(n) if g not in reached))
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for s in gens:
                if mul_table[x][s] not in reached:
                    reached.add(mul_table[x][s])
                    frontier.append(mul_table[x][s])
    for s in gens:
        col = [row[s] for row in mul_table]  # col[z] = z·s
        at_col = itemgetter(*col)
        for x, row in enumerate(mul_table):
            # (xy)s against x(ys), for every y at once
            if itemgetter(*row)(col) != at_col(row):
                y = next(y for y in range(n) if col[row[y]] != row[col[y]])
                raise GroupError(f"table is not associative at ({x},{y},{s})")


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
    # 0 appears once in each row of the Latin square, at the inverse
    return FiniteGroup(n, table, tuple(row.index(0) for row in table), names)


def cyclic_group(n: int, names: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Cyclic group of order n with elements 0..n-1 under addition mod n."""
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    if n > GROUP_ORDER_CAP:
        raise GroupError(f"cyclic group of order {n} is over the cap of "
                         f"{GROUP_ORDER_CAP} elements")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(table, names)


def group_from_permutations(generators: Sequence[Sequence[int]],
                            names: Optional[Sequence[str]] = None
                            ) -> FiniteGroup:
    """Close a set of permutations under composition, breadth-first, identity first.

    The closure stops past GROUP_ORDER_CAP elements.  A generator on more
    than GROUP_ORDER_CAP points is refused before any composition: every
    group the cap admits acts faithfully on its own elements (Cayley), so
    on at most GROUP_ORDER_CAP points.
    """
    if not generators:
        raise GroupError("need at least one generator permutation")
    degree = len(generators[0])
    gens = []
    for g in generators:
        if len(g) > GROUP_ORDER_CAP:
            raise GroupError(f"a permutation of degree {len(g)} is over the "
                             f"cap of {GROUP_ORDER_CAP} points")
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
    # elements[k] = elements[parent[k]] * gens[via[k]], and right[g][k] is the
    # index of elements[k] * gens[g]: each table entry is then one lookup
    parent, via = [0], [0]
    right: list[list[int]] = [[] for _ in gens]
    for k, cur in enumerate(elements):  # grows while walked: breadth-first
        for gi, g in enumerate(gens):
            nxt = compose(cur, g)
            if nxt not in seen:
                if len(elements) >= GROUP_ORDER_CAP:
                    raise GroupError(f"closure exceeds the cap of "
                                     f"{GROUP_ORDER_CAP} elements")
                seen[nxt] = len(elements)
                elements.append(nxt)
                parent.append(k)
                via.append(gi)
            right[gi].append(seen[nxt])
    n = len(elements)
    table = []
    for i in range(n):
        row = [i]
        for j in range(1, n):
            row.append(right[via[j]][row[parent[j]]])
        table.append(row)
    return group_from_table(table, names)


GroupSpec = Union[int, dict]
# every key a spec dict may hold; make_group reads no other
SPEC_KEYS = ("cyclic", "mul_table", "permutations", "names")
# characters a report puts between element names (, ; *) or that would end
# or escape a quoted dot label (" \); names must avoid them to read back
NAME_SEPARATORS = ',;*"\\'


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
    """Build a group from an int (cyclic order) or a spec dict.

    Dict forms: {"cyclic": n}, {"mul_table": [[...]]}, {"permutations": [[...]]},
    each optionally with "names" (a list of strings).  Values of the wrong
    JSON type raise GroupError.
    """
    if type(spec) is int:
        return cyclic_group(spec)
    if not isinstance(spec, dict):
        raise GroupError(f"cannot build a group from {type(spec).__name__}")
    names = spec.get("names")
    if names is not None and (not isinstance(names, (list, tuple)) or
                              not all(isinstance(n, str) for n in names)):
        raise GroupError(f"names: need a list of strings, got {names!r}")
    for name in names or ():
        if not name or name != name.strip() \
                or any(c in name for c in NAME_SEPARATORS):
            raise GroupError(
                f"names: {name!r} cannot be read back from a report; a name "
                f"is nonempty, has no surrounding whitespace and holds none "
                f"of {' '.join(NAME_SEPARATORS)}")
    kinds = [k for k in ("cyclic", "mul_table", "permutations") if k in spec]
    if len(kinds) != 1:
        raise GroupError("group spec needs exactly one of cyclic/mul_table/permutations")
    kind = kinds[0]
    if kind == "cyclic":
        return cyclic_group(_spec_int(spec["cyclic"], kind), names)
    if kind == "mul_table":
        return group_from_table(_spec_rows(spec["mul_table"], kind), names)
    return group_from_permutations(_spec_rows(spec["permutations"], kind),
                                   names)


class Transversal(NamedTuple):
    """Left-coset representatives of an embedded subgroup, least element
    index per coset, cosets in the order of their least elements."""

    reps: tuple[int, ...]

    @property
    def index(self) -> int:
        return len(self.reps)


class Letter(NamedTuple):
    """One transversal letter: a side tag and a representative index on that side."""

    side: int
    rep: int


class ReducedWord(NamedTuple):
    """Normal form: alternating nontrivial transversal letters, then a carry in C."""

    letters: tuple[Letter, ...]
    carry: int

    def sort_key(self) -> tuple:
        return (len(self.letters), self.letters, self.carry)


class Amalgam:
    """An amalgamated product H *_C K, read through its per-side tables.

    Each table is a pair indexed by side, A_SIDE for H and B_SIDE for K:
    groups, the factor; embed, C's image in it; transversals, its coset
    representatives; and rep_idx and carry, which factor every element u
    uniquely as u = transversals[side].reps[rep_idx[side][u]] ·
    embed[side][carry[side][u]], so appending a single raw letter to a
    normal form is O(1).  The step table steps, built from them, moves a
    pending carry past one transversal letter: it is the one letter feed of
    every normal-form product (see feed), and all a base-group element does
    to a ray after its first letter.  alphabet holds one shared Letter per
    side and rep.  make_amalgam checks the embeddings first; the constructor
    checks the derived tables against group multiplication alone, so that
    no run-time re-check rests on an unchecked table.  Nothing changes an
    amalgam after its constructor runs: cli.load_config hands one to every
    request that loads the same config text.
    """

    def __init__(self, H: FiniteGroup, K: FiniteGroup, C: FiniteGroup,
                 embed_h: tuple[int, ...], embed_k: tuple[int, ...]) -> None:
        self.H, self.K, self.C = H, K, C
        self.groups = (H, K)
        self.embed = (embed_h, embed_k)
        self.transversals, self.rep_idx, self.carry = zip(
            *map(_factor, self.groups, self.embed))
        self.A, self.B = self.transversals
        if self.A.index < 2 or self.B.index < 2:
            raise GroupError("both amalgam indices must be at least 2")
        self.alphabet = tuple(tuple(Letter(side, rep) for rep in range(t.index))
                              for side, t in enumerate(self.transversals))
        # embed(c) * reps[r] = reps[r'] * embed(c'): steps[side][c][r] = (r', c')
        self.steps = tuple(
            tuple(tuple((rep_idx[row[r]], carry[row[r]]) for r in t.reps)
                  for row in (group.mul_table[img] for img in embed))
            for group, embed, t, rep_idx, carry in zip(
                self.groups, self.embed, self.transversals, self.rep_idx,
                self.carry))
        self._check_tables()

    def _check_tables(self) -> None:
        """Check the derived tables by group multiplication alone:
        |reps|·|C| = |G| and every u = reps[rep_idx[u]]·embed(carry[u]), so
        each u factors uniquely; and every step entry has
        embed(c)·reps[r] = reps[r']·embed(c').  That is
        |H| + |K| + |C|·([H:C] + [K:C]) checked products per load.
        A failure is a defect in arbor, not in the model."""
        for side, name in ((A_SIDE, "H"), (B_SIDE, "K")):
            mul = self.groups[side].mul_table
            embed, reps = self.embed[side], self.transversals[side].reps
            if len(reps) * len(embed) != len(mul) or any(
                    mul[reps[r]][embed[c]] != u for u, (r, c) in
                    enumerate(zip(self.rep_idx[side], self.carry[side]))):
                raise VerificationError(f"the {name} coset tables do not "
                                        f"factor {name} uniquely")
            for c, row in enumerate(self.steps[side]):
                left = mul[embed[c]]
                for r, (rep, carry) in enumerate(row):
                    if left[reps[r]] != mul[reps[rep]][embed[carry]]:
                        raise VerificationError(
                            f"the {name} step table disagrees with group "
                            f"multiplication at carry {c}, rep {r}")

    def letter_name(self, letter: Letter) -> str:
        side = letter.side
        return self.groups[side].names[
            self.transversals[side].reps[letter.rep]]


def _factor(group: FiniteGroup, images: tuple[int, ...]
            ) -> tuple[Transversal, tuple[int, ...], tuple[int, ...]]:
    """Left cosets of the embedded subgroup in one walk over the group.

    The least element g not yet in a coset opens coset i, and g·images[c]
    gets rep index i and carry c.  Returns the transversal, the rep index
    and the carry of every u, with u = reps[rep_idx[u]] · images[carry[u]].
    """
    reps: list[int] = []
    rep_idx = [-1] * group.order
    carry = [-1] * group.order
    for g, row in enumerate(group.mul_table):
        if rep_idx[g] >= 0:
            continue
        for c, img in enumerate(images):
            u = row[img]
            if rep_idx[u] >= 0:
                raise GroupError("coset factorization is not unique")
            rep_idx[u] = len(reps)
            carry[u] = c
        reps.append(g)
    return Transversal(tuple(reps)), tuple(rep_idx), tuple(carry)


def make_amalgam(H: FiniteGroup, K: FiniteGroup, C: FiniteGroup,
                 embed_h_images: Sequence[int],
                 embed_k_images: Sequence[int]) -> Amalgam:
    """Assemble an amalgam from groups plus the two embedding image tables.

    Each table must be an injective homomorphism from C, checked on every
    pair of elements.
    """
    embeds = []
    for target, images in ((H, embed_h_images), (K, embed_k_images)):
        images = tuple(images)
        if len(images) != C.order:
            raise GroupError("image table must cover every source element")
        if any(not (0 <= x < target.order) for x in images):
            raise GroupError("image out of range")
        if images[0] != 0:
            raise GroupError("homomorphism must send identity to identity")
        for a, row in enumerate(C.mul_table):
            image_row = target.mul_table[images[a]]
            for b, ab in enumerate(row):
                if images[ab] != image_row[images[b]]:
                    raise GroupError(f"not a homomorphism at ({a},{b})")
        if len(set(images)) != C.order:
            raise GroupError("embedding is not injective")
        embeds.append(images)
    return Amalgam(H, K, C, *embeds)


def absorb(am: Amalgam, letters: list[Letter], carry: int,
           side: int, elem: int) -> int:
    """Absorb one raw side element into (letters, carry); returns the new carry.

    Mutates letters in place.  The pending carry commutes past nothing: it is
    folded into the incoming element through the side embedding first, and
    a last letter on the same side is multiplied in; the product is read
    off the decomposition tables.
    """
    mul = am.groups[side].mul_table
    x = mul[am.embed[side][carry]][elem]
    if letters and letters[-1].side == side:
        x = mul[am.transversals[side].reps[letters.pop().rep]][x]
    rep = am.rep_idx[side][x]
    if rep:
        letters.append(am.alphabet[side][rep])
    return am.carry[side][x]


def feed(am: Amalgam, letters: list[Letter], carry: int,
         letter: Letter) -> int:
    """Feed one transversal letter into (letters, carry); returns the new
    carry.

    Mutates letters in place.  Into an empty word or after a letter of the
    other side it is one step-table lookup, embed(carry)·rep = rep'·embed(c'),
    and rep' is appended unless trivial, as a shared letter of am.alphabet.
    Only a same-side junction merges through absorb.
    """
    side = letter.side
    if letters and letters[-1].side == side:
        return absorb(am, letters, carry, side,
                      am.transversals[side].reps[letter.rep])
    rep, carry = am.steps[side][carry][letter.rep]
    if rep:
        letters.append(am.alphabet[side][rep])
    return carry


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
            carry = absorb(am, letters, carry, side, am.embed[side][elem])
            continue
        if tag not in _SIDE_OF_TAG:
            raise GroupError(f"unknown syllable tag {tag!r}")
        side = _SIDE_OF_TAG[tag]
        grp = am.groups[side]
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
        carry = feed(am, letters, carry, letter)
    carry = am.C.mul_table[carry][v.carry]
    return ReducedWord(tuple(letters), carry)


def invert(am: Amalgam, u: ReducedWord) -> ReducedWord:
    """Inverse of a normal form, in normal form."""
    letters: list[Letter] = []
    carry = am.C.inv_table[u.carry]
    for side, rep in reversed(u.letters):
        carry = absorb(am, letters, carry, side, am.groups[side].inv_table[
            am.transversals[side].reps[rep]])
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
        parts.append(am.C.names[w.carry])
    return "*".join(parts) if parts else am.C.names[0]


def word_from_str(am: Amalgam, s: str) -> ReducedWord:
    """Parse the display form back; names resolve by side with ambiguity errors."""
    s = s.strip()
    if not s or s == am.C.names[0]:
        return ReducedWord((), 0)
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
