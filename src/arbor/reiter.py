"""Almost-invariant probability vectors on orbits, exactly.

Vectors are finitely supported with rational weights.  Deviations are l1
norms of pushforward differences, windows are finite Schreier-graph balls,
and optima come from the exact simplex, re-verified directly from the
returned vertex before anything is reported.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .groups import Amalgam, VerificationError
from .lp import solve_lp
from .tree import ball_bits, ball_size, refuse_over


class WindowEscape(ValueError):
    """Raised when mass would leave the finite window."""


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


class ProbVector:
    """A finitely supported rational probability vector over hashable labels."""

    def __init__(self, weights: Iterable[tuple[object, Fraction]]) -> None:
        self._w = _summed((label, Fraction(q)) for label, q in weights)

    @classmethod
    def uniform(cls, labels: Sequence) -> "ProbVector":
        n = len(labels)
        if n == 0:
            raise ValueError("cannot spread mass over nothing")
        return cls((lab, Fraction(1, n)) for lab in labels)

    @property
    def support(self) -> tuple:
        return tuple(self._w.keys())

    def weight(self, label) -> Fraction:
        return self._w.get(label, Fraction(0))

    def items(self):
        return tuple(self._w.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, ProbVector) and dict(self._w) == dict(other._w)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in self._w.items())
        return f"ProbVector({{{inner}}})"

    def pushforward(self, f: Callable) -> "ProbVector":
        """Image measure under f; f returning None means mass escapes.  The
        image is summed once, from weights that are already Fractions."""
        def image(label):
            target = f(label)
            if target is None:
                raise WindowEscape(f"mass escapes at element {label!r}")
            return target

        out = ProbVector.__new__(ProbVector)
        out._w = _summed((image(label), q) for label, q in self._w.items())
        return out


def _summed(weights: Iterable[tuple[object, Fraction]]) -> dict:
    """Fraction weights summed per label, in first-seen label order and with
    zero weights left out; one pass that refuses a negative weight and a
    total other than 1."""
    out: dict = {}
    total = Fraction(0)
    for label, q in weights:
        if q < 0:
            raise ValueError(f"negative weight at {label!r}")
        if q == 0:
            continue
        seen = out.get(label)
        out[label] = q if seen is None else seen + q
        total += q
    if total != 1:
        raise ValueError(f"weights sum to {total}, not 1")
    return out


def l1_distance(p: ProbVector, q: ProbVector) -> Fraction:
    keys = set(p.support) | set(q.support)
    return sum((abs(p.weight(k) - q.weight(k)) for k in keys), Fraction(0))


# --- windows: finite pieces of Schreier graphs --------------------------------

class SchreierWindow(NamedTuple):
    """A finite piece of a Schreier graph: vertices and partial generator maps."""

    vertices: tuple
    gens: tuple
    edge_maps: tuple  # one dict per generator, possibly partial


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise ValueError("radius must be nonnegative")


def integer_window(radius: int, steps: Sequence[int] = (1, -1)) -> SchreierWindow:
    """Translation by each step on the integer interval [-radius, radius]."""
    _check_radius(radius)
    vertices = tuple(range(-radius, radius + 1))
    maps = tuple({v: v + s for v in vertices if abs(v + s) <= radius}
                 for s in steps)
    return SchreierWindow(vertices, tuple(steps), maps)


_FREE_LETTERS = "abcdef"


def _free_inverse(letter: str) -> str:
    return letter.lower() if letter.isupper() else letter.upper()


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == _free_inverse(ch):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _free_gens(rank: int) -> tuple[str, ...]:
    """The letters of the free group of this rank, then their inverses."""
    if not (1 <= rank <= len(_FREE_LETTERS)):
        raise ValueError(f"rank must be between 1 and {len(_FREE_LETTERS)}")
    letters = _FREE_LETTERS[:rank]
    return tuple(letters) + tuple(letters.upper())


def free_ball(rank: int, radius: int) -> list[str]:
    """Reduced words of length <= radius, by length, words as strings."""
    gens = _free_gens(rank)
    _check_radius(radius)
    out = [""]
    frontier = [""]
    for _ in range(radius):
        frontier = [ch + w for w in frontier for ch in gens
                    if not w.startswith(_free_inverse(ch))]
        out.extend(frontier)
    return out


def free_tree_window(rank: int, radius: int) -> SchreierWindow:
    """Left multiplication by each letter and inverse on a free-group ball."""
    gens = _free_gens(rank)
    vertices = tuple(free_ball(rank, radius))
    maps = tuple({v: y for v in vertices
                  if len(y := free_reduce(ch + v)) <= radius}
                 for ch in gens)
    return SchreierWindow(vertices, gens, maps)


def coset_window(am: Amalgam, side: int, gens: Sequence[int]
                 ) -> SchreierWindow:
    """Left translation by each generator on the cosets of C in one factor
    of the amalgam, numbered as its transversal is."""
    group, reps = am.groups[side], am.transversals[side].reps
    vertices = tuple(range(len(reps)))
    maps = tuple({x: am.rep_idx[side][group.mul_table[s][reps[x]]]
                  for x in vertices} for s in gens)
    return SchreierWindow(vertices, tuple(gens), maps)


def check_window_size(rank: int, radius: int, vertex_cap: int) -> None:
    """Refuse a free-group ball over the vertex cap: the ball in the
    2·rank-regular tree, so rank 1 is the integer line of 2·radius + 1."""
    _free_gens(rank)
    _check_radius(radius)
    degree = 2 * rank
    refuse_over(vertex_cap, ball_bits(degree, degree, radius),
                lambda: ball_size(degree, degree, radius),
                f"the window of radius {radius} has {{count}} vertices, over "
                "the vertex cap of {cap}; lower the radius or the support")


class ReiterCertificate(NamedTuple):
    """A vector whose worst generator deviation is strictly below epsilon."""

    p: ProbVector
    gens: tuple
    epsilon: Fraction
    max_deviation: Fraction
    per_gen: tuple


class ReiterLpResult(NamedTuple):
    """Exact minimizer of the worst-case deviation over a support."""

    optimum: Fraction
    p: ProbVector
    per_gen: tuple
    meets_target: Optional[bool]


def _window_deviations(window: SchreierWindow, p: ProbVector) -> list[Fraction]:
    return [l1_distance(p, p.pushforward(m.get)) for m in window.edge_maps]


def _distinct_support(support: Sequence) -> list:
    """The support as a list, refused when it is empty or names a vertex
    twice, which would give that vertex two weights."""
    support = list(support)
    if not support or len(set(support)) < len(support):
        raise ValueError("the support must be nonempty, with each vertex "
                         "listed once")
    return support


# Dense LP entries (rows times columns) reiter_lp hands to the simplex.  The
# largest LP in the tests and the benchmark has about 26,000 entries; in
# process on one core of a 2-core Xeon, z with 200 support points (486,621)
# takes about 0.55 s, the rank-3 free window on the 2-ball (307,910) about
# 0.8 s and z with 287 points (997,920), the largest the cap admits, about
# 1.1 s.
LP_ENTRY_CAP = 1_000_000


def reiter_lp(window: SchreierWindow, support: Sequence,
              target_eps: Optional[Fraction] = None) -> ReiterLpResult:
    """Minimize the worst-case pushforward deviation over vectors on a support.

    Exact: the LP runs in rational arithmetic and the returned vertex is
    re-verified directly against the window maps; any disagreement is a hard
    failure rather than a result.
    """
    support = _distinct_support(support)
    sup_index = {v: k for k, v in enumerate(support)}
    for s, m in zip(window.gens, window.edge_maps):
        for v in support:
            if m.get(v) is None:
                raise WindowEscape(
                    f"support vertex {v!r} escapes under generator "
                    f"{s!r}; shrink the support or grow the window")

    # variables: p_0..p_{k-1}, then d_{s,w} blocks, then t
    nsup = len(support)
    d_index: dict[tuple[int, object], int] = {}
    doms: list[list] = []
    pos = nsup
    for gi, m in enumerate(window.edge_maps):
        dom = sorted({w for v in support for w in (v, m[v])}, key=repr)
        doms.append(dom)
        for w in dom:
            d_index[(gi, w)] = pos
            pos += 1
    t_var = pos
    nvars = pos + 1
    # two rows per domain vertex, one t row per generator, one equality row
    refuse_over(LP_ENTRY_CAP, 0,
                lambda: (2 * (pos - nsup) + len(doms) + 1) * nvars,
                f"the program over {nsup} support vertices and "
                f"{len(window.gens)} generators has {{count}} entries, over "
                "the cap of {cap}; shrink the support")

    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for gi, m in enumerate(window.edge_maps):
        for w in doms[gi]:
            row = [Fraction(0)] * nvars
            if w in sup_index:
                row[sup_index[w]] += 1
            for v in support:
                if m[v] == w:
                    row[sup_index[v]] -= 1
            row[d_index[(gi, w)]] = Fraction(-1)
            a_ub.append(row)
            b_ub.append(Fraction(0))
            a_ub.append([-q for q in row[:nsup]] + row[nsup:])
            b_ub.append(Fraction(0))
        row = [Fraction(0)] * nvars
        for w in doms[gi]:
            row[d_index[(gi, w)]] = Fraction(1)
        row[t_var] = Fraction(-1)
        a_ub.append(row)
        b_ub.append(Fraction(0))
    a_eq = [[Fraction(1)] * nsup + [Fraction(0)] * (nvars - nsup)]
    b_eq = [Fraction(1)]
    cost = [Fraction(0)] * t_var + [Fraction(1)]

    sol = solve_lp(cost, a_ub, b_ub, a_eq, b_eq)
    p = ProbVector((support[k], sol.x[k]) for k in range(nsup)
                   if sol.x[k] != 0)
    per = _window_deviations(window, p)
    if max(per) != sol.value:
        raise VerificationError(
            f"verification mismatch: simplex reported {sol.value} but the "
            f"vertex deviates by {max(per)}")
    per_gen = tuple(zip(window.gens, per))
    meets = None if target_eps is None else (sol.value < target_eps)
    return ReiterLpResult(sol.value, p, per_gen, meets)


# The pruned search visits at most the whole grid, C(D+k, k) - 1 vectors,
# and on the z window a small share of it: in process on one core of a
# 2-vCPU host the z grids at the cap's edge for 2 to 12 points take 0.01 to
# 0.4 s.  Where the cuts come late, as on the rank-3 free ball at D = 20, a
# grid takes about 3 s, so the cap keeps the oracle to seconds; larger
# grids are refused up front.
GRID_VECTOR_CAP = 1_000_000


def grid_vector_count(support_size: int, max_denominator: int) -> int:
    """Vectors in the grid, the most a grid search visits: the sum over d of
    C(d+k-1, k-1), which is C(D+k, k) - 1 by the hockey-stick identity."""
    if support_size < 1 or max_denominator < 1:
        return 0
    return comb(max_denominator + support_size, support_size) - 1


def check_grid_size(support_size: int, max_denominator: int) -> None:
    """Refuse a grid search that would visit more than GRID_VECTOR_CAP vectors."""
    # C(D+k, k) >= 2**min(D, k), so the count is over 2**(min(D, k) - 1)
    refuse_over(GRID_VECTOR_CAP, min(support_size, max_denominator) - 1,
                lambda: grid_vector_count(support_size, max_denominator),
                f"grid check over {support_size} support vertices with "
                f"denominators up to {max_denominator} would visit {{count}} "
                "vectors, over the cap of {cap}; lower the denominator or "
                "shrink the support")


def grid_search_min_deviation(window: SchreierWindow, support: Sequence,
                              max_denominator: int
                              ) -> tuple[Fraction, ProbVector]:
    """Exact minimum over all vectors with weights n/d, d <= the cap.

    The first minimizer in enumeration order wins: denominators ascending,
    then the numerator vectors in lexicographic order.  For a fixed d the
    deviations are integer numerators over d.  The search is branch and
    bound (Land and Doig, 1960) and reads nothing from the LP.  It places
    one numerator at a time, and adds a generator's term |P_w - (the mass
    sent to w)| once every numerator in it is placed.  Terms only add, so
    the worst partial sum bounds every vector that extends the prefix, and
    the prefix is cut once that bound reaches this denominator's best so
    far, or ceil(best * d) for the best of the earlier ones.  The last two
    numerators, x and r - x, are not branched on: the worst deviation is a
    maximum of sums of |a x + b|, convex in x, so bisection finds its first
    minimizer.
    """
    support = _distinct_support(support)
    k = len(support)
    check_grid_size(k, max_denominator)
    for v in reversed(support):
        for s, m in zip(window.gens, window.edge_maps):
            if m.get(v) is None:
                raise WindowEscape(
                    f"support vertex {v!r} escapes under generator {s!r}")
    # each term as integer coefficients on the support positions: filed
    # under the last position it reads, or, when it reads one of the last
    # two, as a x + b with x at position k-2 and r - x at position k-1
    branched = max(k - 2, 0)
    ready: list[list] = [[] for _ in range(branched)]
    tails: list[list] = [[] for _ in window.edge_maps]
    for gi, m in enumerate(window.edge_maps):
        rows: dict = {}
        for t, v in enumerate(support):
            for w, c in ((v, 1), (m[v], -1)):
                row = rows.setdefault(w, {})
                row[t] = row.get(t, 0) + c
        for row in rows.values():
            coeffs = [(t, c) for t, c in sorted(row.items()) if c]
            if coeffs and coeffs[-1][0] < branched:
                ready[coeffs[-1][0]].append((gi, coeffs))
            elif coeffs:
                x_c, r_c = row.get(k - 2, 0), row.get(k - 1, 0)
                tails[gi].append((x_c - r_c, r_c, [(t, c) for t, c in coeffs
                                                   if t < branched]))
    parts = [0] * k

    def split(r: int, acc: list) -> tuple[int, int]:
        """(worst, x) for the first x in 0..r that minimizes the worst
        deviation when the last two positions hold x and r - x."""
        lines = [(base, [(a, r_c * r + sum(c * parts[t] for t, c in head))
                         for a, r_c, head in tail])
                 for base, tail in zip(acc, tails)]

        def worst(x: int) -> int:
            top = 0
            for base, ab in lines:
                for a, b in ab:
                    base += abs(a * x + b)
                top = max(top, base)
            return top

        lo, hi = 0, r if k > 1 else 0
        while lo < hi:
            mid = (lo + hi) // 2
            if worst(mid + 1) >= worst(mid):
                hi = mid
            else:
                lo = mid + 1
        return worst(lo), lo

    best: Optional[tuple[int, int, list]] = None
    zero = [0] * len(tails)
    # one support point has one vector per d, (d,), whose deviations are d
    # times those at d = 1, so no later denominator beats d = 1
    last = max_denominator if k > 1 else min(max_denominator, 1)
    for d in range(1, last + 1):
        # a deviation is at most 2d; an earlier denominator's best num/den
        # is beaten only by a worst below ceil(num * d / den)
        limit = 2 * d + 1 if best is None else -(-best[0] * d // best[1])
        found: Optional[list] = None
        if not branched:
            value, x = split(d, zero)
            if value < limit:
                limit, found = value, [x, d - x][-k:]
        # depth-first over positions 0..branched-1, each counting up from 0
        accs, bounds, rems = [zero] * branched, [0] * branched, [d] * branched
        t = 0 if branched else -1
        parts[0] = -1
        while t >= 0:
            parts[t] += 1
            if parts[t] > rems[t] or bounds[t] >= limit:
                t -= 1
                continue
            acc = accs[t][:]
            for gi, coeffs in ready[t]:
                term = 0
                for u, c in coeffs:
                    term += c * parts[u]
                acc[gi] += abs(term)
            bound = max(acc)
            if bound >= limit:
                continue
            r = rems[t] - parts[t]
            if t + 1 < branched:
                t += 1
                accs[t], bounds[t], rems[t], parts[t] = acc, bound, r, -1
                continue
            value, x = split(r, acc)
            if value < limit:
                limit, found = value, parts[:branched] + [x, r - x]
        if found is not None:
            best = (limit, d, found)
    if best is None:
        raise WindowEscape("empty grid")
    value, d, found = best
    return Fraction(value, d), ProbVector(
        (support[t], Fraction(found[t], d)) for t in range(k) if found[t])


def check_uniform_coamenable(am: Amalgam, side: int, gens: Sequence[int],
                             eps: Fraction) -> ReiterCertificate:
    """The uniform vector on the cosets of C in a finite factor beats every
    epsilon: C is co-amenable there.

    Validates eps > 0 and the generator range, then takes each generator's
    deviation on the coset window, which is exactly zero since a generator
    permutes the cosets; a deviation not strictly below eps fails the
    certificate's re-check.
    """
    group = am.groups[side]
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive for a strict certificate")
    for s in gens:
        if not (0 <= s < group.order):
            raise ValueError(f"generator {s} outside the group")
    window = coset_window(am, side, gens)
    u = ProbVector.uniform(window.vertices)
    per_gen = tuple(zip(window.gens, _window_deviations(window, u)))
    worst = max((dev for _, dev in per_gen), default=Fraction(0))
    if worst >= eps:
        raise VerificationError("certificate bound is not strict")
    return ReiterCertificate(u, window.gens, eps, worst, per_gen)


# --- deviation tensors and threshold extraction -----------------------------

class DeviationTensor(NamedTuple):
    """d[i][j][g][x]: exact deviations for a doubly indexed vector family.

    Row i is a refinement stage, column j a window stage, g runs over listed
    group elements (enumerated from 1 for weighting), x over sample points
    carrying the base measure mu.
    """

    group_labels: tuple
    point_labels: tuple
    mu: tuple
    values: tuple


def check_tensor(t: DeviationTensor) -> DeviationTensor:
    """t itself, once mu is shown to be a probability vector on the points
    and every plane, block and row to have its full size, with at least one
    row i and one column j and deviations in [0, 2]; raises ValueError
    otherwise."""
    if len(t.mu) != len(t.point_labels):
        raise ValueError("mu must weight exactly the sample points")
    if sum(t.mu, Fraction(0)) != 1 or any(q < 0 for q in t.mu):
        raise ValueError("mu must be a probability vector")
    if not t.values:
        raise ValueError("empty i dimension")
    if not t.values[0]:
        raise ValueError("empty j dimension")
    for i, plane in enumerate(t.values):
        if len(plane) != len(t.values[0]):
            raise ValueError("ragged j dimension")
        for j, block in enumerate(plane):
            if len(block) != len(t.group_labels):
                raise ValueError("ragged group dimension")
            for g, row in enumerate(block):
                if len(row) != len(t.point_labels):
                    raise ValueError("ragged point dimension")
                for q in row:
                    if not (0 <= q <= 2):
                        raise ValueError(
                            f"deviation out of [0,2] at {(i, j, g)}")
    return t


def tensor_from_json(doc: dict) -> DeviationTensor:
    return check_tensor(DeviationTensor(
        tuple(doc["group"]),
        tuple(doc["points"]),
        tuple(Fraction(str(q)) for q in doc["mu"]),
        tuple(tuple(tuple(tuple(Fraction(str(q)) for q in row)
                          for row in block) for block in plane)
              for plane in doc["values"]),
    ))


def monotone_tensor(i_count: int = 11, j_count: int = 13) -> DeviationTensor:
    """The synthetic single-orbit tensor d[i][j] = 1/(j+1), one element, one point."""
    values = tuple(
        tuple(((Fraction(1, j + 1),),) for j in range(j_count))
        for _ in range(i_count))
    return check_tensor(
        DeviationTensor(("g1",), ("x0",), (Fraction(1),), values))


class CfwRow(NamedTuple):
    """Extraction record for one refinement stage."""

    i: int
    f: int
    bad_mass: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.bad_mass < self.bound


class CfwExtraction(NamedTuple):
    tensor: DeviationTensor
    m_max: int
    rows: tuple

    @property
    def thresholds(self) -> tuple:
        return tuple(r.f for r in self.rows)


def _entry_threshold(t: DeviationTensor, i: int, g: int, x: int,
                     m: int) -> int:
    """Least j with d[i][j'][g][x] < 1/m for every j' >= j in range; the
    column count if none."""
    target = Fraction(1, m)
    jmin = 0
    for j, block in enumerate(t.values[i]):
        if block[g][x] >= target:
            jmin = j + 1
    return jmin


# (group element, band) slices cfw_extract weighs.  The weights are
# 2^-(n m) fractions, so on one core the built-in tensor's 2000 bands take
# about 1 s.
CFW_SLICE_CAP = 2_000


def cfw_extract(t: DeviationTensor, m_max: Optional[int] = None
                ) -> CfwExtraction:
    """Threshold function f with the slice measure of late entries below 2^-i.

    The product space weights slice (g_n, m) of the sample by mu/2^{n m}; the
    late set at stage (i, f) collects the points whose deviation row enters
    the target band only after f.  f(i) is the least column with late mass
    strictly below 2^-i, which exists because the finitely many columns
    exhaust every slice.  The slices are counted first and refused over
    CFW_SLICE_CAP.
    """
    columns = len(t.values[0])
    if m_max is None:
        m_max = columns - 1
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    refuse_over(CFW_SLICE_CAP, 0, lambda: len(t.group_labels) * m_max,
                "the extraction weighs {count} (group element, band) slices, "
                "over the cap of {cap}; lower m_max")
    rows = []
    for i in range(len(t.values)):
        # mass histogram over entry columns; rows that never enter the band
        # within range (jmin == columns) stay out of the union and drop here
        hist = [Fraction(0)] * columns
        for n, _ in enumerate(t.group_labels, start=1):
            for m in range(1, m_max + 1):
                weight = Fraction(1, 2 ** (n * m))
                for x in range(len(t.point_labels)):
                    jmin = _entry_threshold(t, i, n - 1, x, m)
                    if jmin < columns:
                        hist[jmin] += t.mu[x] * weight
        bound = Fraction(1, 2 ** i)
        # check_tensor keeps a column, and the last one's late mass is an
        # empty sum, so some f qualifies
        rows.append(next(CfwRow(i, f, late, bound) for f in range(columns)
                         if (late := sum(hist[f + 1:], Fraction(0))) < bound))
    return CfwExtraction(t, m_max, tuple(rows))


def verify_cfw(extraction: CfwExtraction) -> None:
    """Recompute every late mass from the raw definition and check it below
    the stage's bound 2^-i; raises VerificationError otherwise."""
    t = extraction.tensor
    for row in extraction.rows:
        if row.bound != Fraction(1, 2 ** row.i):
            raise VerificationError(
                f"stage {row.i} has bound {row.bound}, not 1/2**{row.i}")
        total = Fraction(0)
        plane = t.values[row.i]
        for n, _ in enumerate(t.group_labels, start=1):
            for m in range(1, extraction.m_max + 1):
                target = Fraction(1, m)
                for x in range(len(t.point_labels)):
                    entries = [block[n - 1][x] for block in plane]
                    in_union = any(all(q < target for q in entries[j:])
                                   for j in range(len(entries)))
                    in_f = all(q < target for q in entries[row.f:])
                    if in_union and not in_f:
                        total += t.mu[x] * Fraction(1, 2 ** (n * m))
        if total != row.bad_mass:
            raise VerificationError(
                f"late mass at stage {row.i} recomputes to {total}, "
                f"stored {row.bad_mass}")
        if not row.ok:
            raise VerificationError(f"stage {row.i} exceeds its bound")
