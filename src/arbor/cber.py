"""Finite-sample equivalence relations, witness chains, and orbit witnesses.

Everything here runs on explicit finite point sets, and a relation on n
points is one tuple of n class labels (a Partition), so relations and their
refinements are checked exhaustively rather than asserted.  Orbit machinery
for boundary codes goes through canonical orbit codes: the minimum, over the
base vertex group, of the translated code.  Two ends lie in the same orbit
iff some pair of even shifts produces equal canonical codes, and every
positive answer is returned with a verified group-element witness.
"""
from __future__ import annotations

from itertools import product as iproduct
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .codes import BoundaryCode, format_code, parse_code
from .groups import (A_SIDE, Amalgam, ReducedWord, VerificationError,
                     invert, multiply, word_of_subgroup_element, word_to_str,
                     word_from_str)
from .tree import (act_on_boundary, ball_bits, ball_size, check_theorem_A,
                   geometric, lockstep, lockstep_bound, refuse_over,
                   TheoremStyleCertificate, word_element)


class RelationError(ValueError):
    """Raised for sample spaces and chains that cannot be built, and for
    stored point sets, relations or witnesses that do not hold."""


# A finite equivalence relation on the points 0..n-1: entry i is the least
# point in i's class.  Equal relations are equal tuples.
Partition = tuple[int, ...]


def partition(size: int, links: Iterable[tuple[int, int]]) -> Partition:
    """The least equivalence relation on range(size) holding every link."""
    root = list(range(size))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:  # the lesser root stays: each root is its class's least
            root[max(ra, rb)] = min(ra, rb)
    return tuple(find(i) for i in range(size))


def classes(labels: Partition) -> tuple[tuple[int, ...], ...]:
    """Each class ascending, classes in the order of their least points."""
    buckets: dict[int, list[int]] = {}
    for i, least in enumerate(labels):
        buckets.setdefault(least, []).append(i)
    return tuple(tuple(cls) for cls in buckets.values())


def refines(fine: Partition, coarse: Partition) -> bool:
    """Every class of fine sits inside one class of coarse."""
    return all(coarse[i] == coarse[least] for i, least in enumerate(fine))


def _orbit_min(am: Amalgam, x: BoundaryCode) -> tuple[BoundaryCode, ReducedWord]:
    """The least translate of x under the base vertex group, and the first
    element in index order that gives it.

    Base-rooted codes in one orbit differ exactly by elements fixing the base
    vertex, so this minimum is a complete orbit invariant for equal codes and
    the first stage of the shift search for tail-related ones.

    The lockstep walk of H along x (tree.lockstep) keeps the elements that
    emit the least letter; the code is then derived by act_on_boundary from
    the first survivor and must spell the letters the walk emitted.
    """
    emitted, survivors, _ = lockstep(am, x, True)
    h = word_of_subgroup_element(am, A_SIDE, survivors[0][1])
    code = act_on_boundary(am, h, x)
    if code.letters(len(emitted)) != emitted:
        raise VerificationError(
            "canonical orbit code disagrees with the lockstep walk")
    return code, h


class OrbitDecision(NamedTuple):
    """Outcome of an orbit-equivalence query, with its verified witness if any."""

    equivalent: bool
    witness: Optional[ReducedWord]
    shifts: Optional[tuple[int, int]]


ShiftCodes = tuple[tuple[int, BoundaryCode, ReducedWord], ...]


def _even_shift_codes(am: Amalgam, x: BoundaryCode, mins: dict) -> ShiftCodes:
    """(shift, canonical code, minimizing base element) for even shifts to the horizon.

    mins maps a shifted code to its _orbit_min; the caller owns it and keeps
    it for one computation, so a code shared by several shifts is minimized
    once.
    """
    bound = x.horizon() + 1
    out = []
    for i in range(0, bound + 1, 2):
        shifted = x.shift_code(i)
        found = mins.get(shifted)
        if found is None:
            found = mins[shifted] = _orbit_min(am, shifted)
        out.append((i, found[0], found[1]))
    return tuple(out)


def _shift_witness(am: Amalgam, x: BoundaryCode, xs: ShiftCodes,
                   y: BoundaryCode, ys: ShiftCodes
                   ) -> Optional[tuple[ReducedWord, tuple[int, int]]]:
    """A verified element carrying y to x, from the first equal pair of codes.

    Pairs are scanned with x's shift outermost.  The witness is rebuilt from
    the shift prefixes and minimizing base elements and re-applied to y
    before it is returned; None when no pair of shifts matches.
    """
    for i, cx, hx in xs:
        for j, cy, hy in ys:
            if cx == cy:
                wx = word_element(am, x.letters(i))
                wy = word_element(am, y.letters(j))
                g = multiply(am, multiply(am, wx, invert(am, hx)),
                             multiply(am, hy, invert(am, wy)))
                if act_on_boundary(am, g, y) != x:
                    raise VerificationError(
                        "orbit witness failed re-verification")
                return g, (i, j)
    return None


# Step-table lookups the lockstep walks of one orbit_equivalent call may
# make, by their own bound.  On one core a psl2z pair of 400-letter cycles
# plans 482,802 and takes about 0.6 s, a pair of 800-letter cycles
# 1,925,602 and 2.4 s.
EQUIV_STEP_CAP = 1_000_000


def shift_walk_steps(am: Amalgam, x: BoundaryCode) -> int:
    """The most step-table lookups _even_shift_codes makes for x.

    Each even shift is walked for up to lockstep's bound for x, which no
    shift of x exceeds: every element of H meets the first letter, and at
    most |C| survivors, whose carries are distinct, each later one.
    """
    shifts = (x.horizon() + 1) // 2 + 1
    return shifts * (am.H.order + am.C.order * (lockstep_bound(am, x) - 1))


def orbit_equivalent(am: Amalgam, x: BoundaryCode,
                     y: BoundaryCode) -> OrbitDecision:
    """Decide whether some group element carries y to x.

    Complete: it scans even shift pairs up to the horizons and reconstructs
    a witness from the shift prefixes and minimizing base elements.  The
    walks are counted first and refused over EQUIV_STEP_CAP.
    """
    refuse_over(EQUIV_STEP_CAP, 0,
                lambda: shift_walk_steps(am, x) + shift_walk_steps(am, y),
                f"the orbit walks of two codes of {len(x.prefix) + len(x.cycle)} "
                f"and {len(y.prefix) + len(y.cycle)} letters would take "
                "{count} steps, over the cap of {cap}; shorten the codes")
    mins: dict = {}
    found = _shift_witness(am, x, _even_shift_codes(am, x, mins),
                           y, _even_shift_codes(am, y, mins))
    if found is None:
        return OrbitDecision(False, None, None)
    g, shifts = found
    return OrbitDecision(True, g, shifts)


class SampleSpace(NamedTuple):
    """All canonical boundary codes within prefix and cycle length caps."""

    p_max: int
    q_max: int
    points: tuple[BoundaryCode, ...]


SAMPLE_SPACE_CAP = 100_000

# Letters the candidate codes of a sample space may spell, bounded by the
# candidates times p_max + q_max.  On one core, dihedral at p_max 1024 and
# q_max 4 (a bound of 4.2 million) takes about 1.2 s, at p_max 2048 (16.8
# million) 4.8 s, and at p_max 8192 about a minute.
SAMPLE_LETTER_CAP = 10_000_000


def sample_space_size(am: Amalgam, p_max: int, q_max: int) -> int:
    """The (prefix, cycle) candidates build_sample_space enumerates, counted.

    A prefix spells a vertex of the tree ball of radius p_max (position 0
    may be the trivial letter), and a cycle of 2k letters has r**k choices,
    r = (|H:C| - 1)(|K:C| - 1).
    """
    a, b = am.A.index, am.B.index
    r = (a - 1) * (b - 1)
    return ball_size(a, b, p_max) * r * geometric(r, q_max // 2)


def build_sample_space(am: Amalgam, p_max: int, q_max: int) -> SampleSpace:
    """Enumerate every canonical code with |prefix| <= p_max, |cycle| <= q_max.

    The candidates are counted first and refused over SAMPLE_SPACE_CAP,
    and a bound on the letters they spell over SAMPLE_LETTER_CAP.
    """
    if p_max < 0 or q_max < 2:
        raise RelationError("need p_max >= 0 and q_max >= 2")
    a, b = am.A.index, am.B.index
    # the prefixes alone number over 2**ball_bits, and in a growing tree the
    # r**(q_max // 2) longest cycles alone over 2**(q_max // 2 - 1)
    growing = (a - 1) * (b - 1) > 1
    bits = max(ball_bits(a, b, p_max), q_max // 2 - 1 if growing else 0)
    space = (f"a sample space with prefixes up to {p_max} and cycles up to "
             f"{q_max} letters would")
    refuse_over(SAMPLE_SPACE_CAP, bits,
                lambda: sample_space_size(am, p_max, q_max),
                space + " enumerate {count} candidate codes, over the cap of "
                "{cap}; lower the prefix or cycle cap")
    # each candidate spells at most p_max + q_max letters
    refuse_over(SAMPLE_LETTER_CAP, 0,
                lambda: sample_space_size(am, p_max, q_max) * (p_max + q_max),
                space + " spell up to {count} letters in its candidate codes, "
                "over the cap of {cap}; lower the prefix or cycle cap")
    found = set()
    for p_len in range(p_max + 1):
        # as in build_tree: only the first letter may be trivial
        prefix_pools = [am.alphabet[pos % 2][pos > 0:] for pos in range(p_len)]
        for c_len in range(2, q_max + 1, 2):
            cycle_pools = [am.alphabet[(p_len + j) % 2][1:]
                           for j in range(c_len)]
            for prefix in iproduct(*prefix_pools):
                for cycle in iproduct(*cycle_pools):
                    code = BoundaryCode(prefix, cycle)
                    if code.prefix == prefix and code.cycle == cycle:
                        found.add(code)
    # Past the longer prefix two points are periodic with periods of at most
    # q_max, and periodic words that agree for p + q - gcd(p, q) letters
    # agree forever (Fine and Wilf), so distinct points differ within the
    # key's letters and the key order is the order of their sequences.
    keyed = sorted(((x.letters(p_max + 2 * q_max), x) for x in found),
                   key=itemgetter(0))
    if any(a >= b for (a, _), (b, _) in zip(keyed, keyed[1:])):
        raise VerificationError("two sample points share their sort key")
    return SampleSpace(p_max, q_max, tuple(x for _, x in keyed))


# Relations times sample points in a witness chain.  On one core, sl2z's 8
# default points at n_max 24,999 take about 1 s and 60 MB.
CHAIN_ENTRY_CAP = 200_000


class WitnessChain(NamedTuple):
    """An increasing chain of finite relations on the sample points, E_n for
    n = 0..n_max, and the orbit relation it should exhaust."""

    points: tuple[BoundaryCode, ...]
    chain: tuple[Partition, ...]
    target: Partition
    stabilized_at: Optional[int]
    # per point, in order; none when the chain stops short of the target
    certificates: tuple[TheoremStyleCertificate, ...]
    shift_codes: tuple[ShiftCodes, ...]  # per point, from _even_shift_codes


def hyperfiniteness_witness(am: Amalgam, sample: SampleSpace,
                            n_max: int) -> WitnessChain:
    """Build E_0 <= E_1 <= ... <= E_n_max from shift witnesses on the sample.

    E_n relates two sample points when even shifts i, j <= n give equal
    canonical orbit codes, closed transitively inside the sample.  The
    target is the same construction with unbounded (horizon-capped) shifts,
    which is the full orbit relation on the sample.  The chain's entries are
    counted first and refused over CHAIN_ENTRY_CAP.  Only a chain that
    reaches its target goes on to every sample point's stabilizer
    certificate: one that stops short is left without certificates, for its
    caller to refuse.
    """
    if n_max < 0:
        raise RelationError("n_max must be nonnegative")
    refuse_over(CHAIN_ENTRY_CAP, 0, lambda: (n_max + 1) * len(sample.points),
                f"a witness chain of {n_max + 1} relations over "
                f"{len(sample.points)} points has {{count}} entries, over the "
                "cap of {cap}; lower n_max")
    mins: dict = {}
    shift_codes = tuple(_even_shift_codes(am, x, mins) for x in sample.points)
    occurrences: dict[BoundaryCode, list[tuple[int, int]]] = {}
    for idx, codes in enumerate(shift_codes):
        for i, code, _ in codes:
            occurrences.setdefault(code, []).append((idx, i))

    def relation_at(bound: Optional[int]) -> Partition:
        links = []
        for occ in occurrences.values():
            live = [idx for idx, i in occ if bound is None or i <= bound]
            links += zip(live, live[1:])
        return partition(len(sample.points), links)

    chain = tuple(relation_at(n) for n in range(n_max + 1))
    target = relation_at(None)
    stabilized_at = next((n for n, er in enumerate(chain) if er == target),
                         None)
    if stabilized_at is None:
        return WitnessChain(sample.points, chain, target, None, (),
                            shift_codes)
    memo: dict = {}
    certs = tuple(check_theorem_A(am, x, memo=memo) for x in sample.points)
    return WitnessChain(sample.points, chain, target, stabilized_at, certs,
                        shift_codes)


def validate_witness_chain(wc: WitnessChain) -> None:
    """Monotonicity and exhaustion checks; raises VerificationError on failure."""
    for earlier, later in zip(wc.chain, wc.chain[1:]):
        if not refines(earlier, later):
            raise VerificationError("chain is not increasing")
    if not wc.chain or wc.chain[-1] != wc.target:
        raise VerificationError("chain does not exhaust the target relation")


def orbit_witness_table(am: Amalgam, wc: WitnessChain
                        ) -> list[tuple[int, int, ReducedWord]]:
    """(point, class representative, verified word carrying the point's code
    to the representative's code) for every sample point."""
    out = []
    for cls in classes(wc.target):
        rep = cls[0]
        for idx in cls:
            found = _shift_witness(am, wc.points[rep], wc.shift_codes[rep],
                                   wc.points[idx], wc.shift_codes[idx])
            if found is None:
                raise VerificationError(
                    f"target class pair ({rep},{idx}) has no orbit witness")
            out.append((idx, rep, found[0]))
    return out


def witness_chain_to_json(am: Amalgam, wc: WitnessChain,
                          with_witnesses: bool = True) -> dict:
    """A JSON-ready dict: points as code strings, relations as class arrays."""
    doc = {
        "points": [format_code(am, x) for x in wc.points],
        "n_values": list(range(len(wc.chain))),
        "chain": [[list(cls) for cls in classes(er)] for er in wc.chain],
        "target": [list(cls) for cls in classes(wc.target)],
        "stabilized_at": wc.stabilized_at,
        "certificates": [
            {"point": idx,
             "sigma_length": cert.sigma_length,
             "order": cert.order,
             "stabilizer": [word_to_str(am, w) for w in cert.elements]}
            for idx, cert in enumerate(wc.certificates)
        ],
    }
    if with_witnesses:
        doc["witnesses"] = [
            {"point": idx, "class_rep": rep, "word": word_to_str(am, g)}
            for idx, rep, g in orbit_witness_table(am, wc)
        ]
    return doc


def witness_chain_from_json(am: Amalgam, doc: dict
                            ) -> tuple[tuple[BoundaryCode, ...],
                                       list[Partition], Partition]:
    """Rebuild the points and relations; verifies any embedded witnesses."""
    points = tuple(parse_code(am, s) for s in doc["points"])
    first: dict[BoundaryCode, int] = {}
    for i, x in enumerate(points):
        if first.setdefault(x, i) != i:
            raise RelationError(f"duplicate point at positions {first[x]} "
                                f"and {i}")

    def index(a: int) -> int:
        if not 0 <= a < len(points):
            raise RelationError(f"point {a} is not in the point set")
        return a

    def from_classes(class_lists) -> Partition:
        labels: list[Optional[int]] = [None] * len(points)
        for cls in class_lists:
            least = min(cls, default=None)
            for a in cls:
                if labels[index(a)] is not None:
                    raise RelationError(f"point {a} in two classes")
                labels[a] = least
        if None in labels:
            raise RelationError("classes do not partition the point set")
        return tuple(labels)

    chain = [from_classes(c) for c in doc["chain"]]
    target = from_classes(doc["target"])
    for w in doc.get("witnesses", []):
        x, rep = points[index(w["point"])], points[index(w["class_rep"])]
        if act_on_boundary(am, word_from_str(am, w["word"]), x) != rep:
            raise RelationError(f"stored witness for point {w['point']} fails")
    return points, chain, target
