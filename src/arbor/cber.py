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

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import product as iproduct
from typing import Iterable, Optional

from .codes import BoundaryCode, compare_words, format_code, parse_code
from .groups import (A_SIDE, B_SIDE, Amalgam, Letter, ReducedWord,
                     VerificationError, invert, multiply,
                     word_of_subgroup_element, word_to_str, word_from_str)
from .tree import (act_on_boundary, check_theorem_A, lockstep,
                   TheoremStyleCertificate, word_element)


class RelationError(ValueError):
    """Raised for sample spaces and chains that cannot be built, and for
    stored point sets, relations or witnesses that do not hold."""


class HypothesisError(RuntimeError):
    """Raised when a required stabilizer certificate does not exist in bounds."""


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
    element in H.elements() order that gives it.

    Base-rooted codes in one orbit differ exactly by elements fixing the base
    vertex, so this minimum is a complete orbit invariant for equal codes and
    the first stage of the shift search for tail-related ones.

    The lockstep walk of H along x (tree.lockstep) keeps the elements that
    emit the least letter; the code is then derived by act_on_boundary from
    the first survivor and must spell the letters the walk emitted.
    """
    emitted, survivors, _, _ = lockstep(am, x, True)
    h = word_of_subgroup_element(am, A_SIDE, survivors[0][1])
    code = act_on_boundary(am, h, x)
    if code.letters(len(emitted)) != emitted:
        raise VerificationError(
            "canonical orbit code disagrees with the lockstep walk")
    return code, h


@dataclass(frozen=True)
class OrbitDecision:
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


def orbit_equivalent(am: Amalgam, x: BoundaryCode,
                     y: BoundaryCode) -> OrbitDecision:
    """Decide whether some group element carries y to x.

    Complete: it scans even shift pairs up to the horizons and reconstructs
    a witness from the shift prefixes and minimizing base elements.
    """
    mins: dict = {}
    found = _shift_witness(am, x, _even_shift_codes(am, x, mins),
                           y, _even_shift_codes(am, y, mins))
    if found is None:
        return OrbitDecision(False, None, None)
    g, shifts = found
    return OrbitDecision(True, g, shifts)


@dataclass(frozen=True)
class SampleSpace:
    """All canonical boundary codes within prefix and cycle length caps."""

    p_max: int
    q_max: int
    points: tuple[BoundaryCode, ...]


SAMPLE_SPACE_CAP = 100_000


def _geometric(r: int, n: int) -> int:
    """1 + r + ... + r^(n-1)."""
    if r <= 1:
        return n if r == 1 else min(n, 1)
    return (r ** n - 1) // (r - 1)


def sample_space_size(am: Amalgam, p_max: int, q_max: int) -> int:
    """The (prefix, cycle) candidates build_sample_space enumerates, counted.

    With a and b nontrivial representatives on the H and K sides, a cycle of
    2k letters has (ab)^k choices, and a prefix of p >= 1 letters has
    (a+1)*b*a*b*... (p factors) choices: position 0 may be trivial.
    """
    a, b = am.A.index - 1, am.B.index - 1
    r = a * b
    pairs, odd = divmod(p_max, 2)
    prefixes = 1 + (a + 1) * ((1 + b) * _geometric(r, pairs) + odd * r ** pairs)
    return prefixes * r * _geometric(r, q_max // 2)


def build_sample_space(am: Amalgam, p_max: int, q_max: int) -> SampleSpace:
    """Enumerate every canonical code with |prefix| <= p_max, |cycle| <= q_max.

    The candidates are counted first and refused over SAMPLE_SPACE_CAP.
    """
    if p_max < 0 or q_max < 2:
        raise RelationError("need p_max >= 0 and q_max >= 2")
    caps = f"prefixes up to {p_max} and cycles up to {q_max} letters"
    if (am.A.index - 1) * (am.B.index - 1) > 1 and max(p_max, q_max) > 8192:
        # the count grows at least like 2**(cap / 2): do not compute it
        raise RelationError(
            f"a sample space with {caps} would enumerate more than 2**4096 "
            f"candidate codes, over the cap of {SAMPLE_SPACE_CAP}")
    count = sample_space_size(am, p_max, q_max)
    if count > SAMPLE_SPACE_CAP:
        raise RelationError(
            f"a sample space with {caps} would enumerate {count} candidate "
            f"codes, over the cap of {SAMPLE_SPACE_CAP}; lower the prefix or "
            f"cycle cap")
    pools = {A_SIDE: [Letter(A_SIDE, r) for r in range(1, am.A.index)],
             B_SIDE: [Letter(B_SIDE, r) for r in range(1, am.B.index)]}
    found = set()
    for p_len in range(p_max + 1):
        for c_len in range(2, q_max + 1, 2):
            prefix_pools = []
            for pos in range(p_len):
                side = pos % 2
                choices = list(pools[side])
                if pos == 0:
                    choices = [Letter(A_SIDE, 0)] + choices
                prefix_pools.append(choices)
            cycle_pools = [pools[(p_len + j) % 2] for j in range(c_len)]
            for prefix in iproduct(*prefix_pools):
                for cycle in iproduct(*cycle_pools):
                    code = BoundaryCode(prefix, cycle)
                    if code.prefix == prefix and code.cycle == cycle:
                        found.add(code)
    points = sorted(found, key=cmp_to_key(compare_words))
    return SampleSpace(p_max, q_max, tuple(points))


# Relations times sample points in a witness chain.  On one core, sl2z's 8
# default points at n_max 24,999 take about 1 s and 60 MB.
CHAIN_ENTRY_CAP = 200_000


@dataclass(frozen=True)
class WitnessChain:
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
    entries = (n_max + 1) * len(sample.points)
    if entries > CHAIN_ENTRY_CAP:
        raise RelationError(
            f"a witness chain of {n_max + 1} relations over "
            f"{len(sample.points)} points has {entries} entries, over the cap "
            f"of {CHAIN_ENTRY_CAP}; lower n_max")
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
    certs: list[TheoremStyleCertificate] = []
    missing = []
    for x in sample.points:
        cert = check_theorem_A(am, x)
        if cert is None:
            missing.append(x)
        else:
            certs.append(cert)
    if missing:
        raise HypothesisError(
            f"no stabilizer certificate for {len(missing)} sample point(s); "
            f"first: {missing[0]!r}")
    return WitnessChain(sample.points, chain, target, stabilized_at,
                        tuple(certs), shift_codes)


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
