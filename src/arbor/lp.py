"""Exact rational linear programming by a sparse two-phase simplex on
integer rows.

Each tableau row holds the integer numerators of its nonzero entries and
of its right-hand side over one positive row denominator, so no entry is
ever a fractions.Fraction.  A pivot divides the pivot row by its pivot
entry and reduces it by the gcd, then clears the entering column from
every other row by an integer multiple of the pivot row; a row is scaled,
and reduced by the gcd again, only when the pivot numerator does not
divide its entry (Bareiss 1968; Escobedo & Moreno-Centeno 2015).  The
reduced costs are one more row of the same form, with -z on the right.
Every rule compares exact values: reduced costs by their numerators over
the shared positive denominator, ratios by cross products.  So the pivots
are those the same simplex takes on fractions.

Inequality rows with a nonnegative right-hand side start with their slack
in the basis; only equality rows and negative right-hand sides get an
artificial variable, and phase 1 runs only when there is one.  Pivoting
uses Dantzig's rule over ascending columns, with a switch to Bland's rule
after a fixed number of pivots, which guarantees termination.

Every solution is re-verified on fractions against the caller's data
before it is returned: the vertex must be feasible, and the dual vector read
off the final tableau must be dual feasible with the same objective value,
which proves the vertex optimal.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

_ZERO = Fraction(0)

# A solve pivots by Dantzig's rule up to BLAND_AFTER times in each phase,
# then by Bland's rule, and gives up past MAX_PIVOTS.
BLAND_AFTER = 2_000
MAX_PIVOTS = 50_000


class LpError(RuntimeError):
    """Raised for infeasible or unbounded programs, pivot exhaustion, or a
    solution that fails its optimality certificate."""


class LpSolution(NamedTuple):
    """An optimal vertex with its dual certificate.

    x is the primal assignment.  y holds one dual value per constraint, the
    inequality rows first, then the equality rows: y <= 0 on inequalities,
    A_ub^T y_ub + A_eq^T y_eq <= c, and b.y equals the optimal value.
    """

    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def _ratio(v) -> tuple[int, int]:
    """Numerator and positive denominator of a rational entry."""
    if type(v) is int:
        return v, 1
    q = v if isinstance(v, Fraction) else Fraction(v)
    return q.numerator, q.denominator


def _sparse_rows(n: int, rows: Sequence[Sequence], rhs: Sequence,
                 kind: str) -> list[tuple[dict, int, int]]:
    """(numerators of the nonzero entries, right-hand side numerator,
    denominator) per row: each row scaled by the lcm of its denominators."""
    out = []
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise LpError(f"{kind} row has wrong width")
        entries = {j: _ratio(v) for j, v in enumerate(row) if v}
        bn, bd = _ratio(b)
        den = lcm(bd, *(d for _, d in entries.values()))
        out.append(({j: p * (den // d) for j, (p, d) in entries.items()},
                    bn * (den // bd), den))
    return out


def _fraction_rows(n: int, rows: Sequence[Sequence], rhs: Sequence,
                   kind: str) -> list[tuple[dict, Fraction]]:
    """(nonzero entries, right-hand side) per row, as fractions."""
    out = []
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise LpError(f"{kind} row has wrong width")
        out.append(({j: Fraction(v) for j, v in enumerate(row) if v},
                    Fraction(b)))
    return out


def _eliminate(row: dict, b: int, den: int, prow: dict, pb: int, p: int,
               col: int) -> tuple[int, int]:
    """Clear column col of (row, b) over den with the pivot row (prow, pb)
    over p, whose entry in col is p; returns the new (b, den).

    With g = gcd(row[col], p), the row is scaled by p // g when that is
    not 1, and then loses row[col] // g times the pivot row.  Only a
    scaled row is reduced by the gcd afterwards.
    """
    g = gcd(row[col], p)
    scale, factor = p // g, row[col] // g
    if scale != 1:
        for j in row:
            row[j] *= scale
        b *= scale
        den *= scale
    for j, v in prow.items():
        new = row.get(j, 0) - factor * v
        if new:
            row[j] = new
        else:
            del row[j]
    b -= factor * pb
    if scale != 1:
        g = gcd(den, b, *row.values())
        if g != 1:
            for j in row:
                row[j] //= g
            b //= g
            den //= g
    return b, den


class _Tableau:
    """Integer rows in terms of the current basis, plus reduced costs.

    Row r reads sum_j (rows[r][j] / den[r]) x_j = rhs[r] / den[r], with
    den[r] > 0 and rows[r][basis[r]] == den[r].  red over red_den > 0 holds
    the nonzero reduced costs, and red_rhs / red_den is -z.
    """

    def __init__(self, rows: list[dict], rhs: list[int], den: list[int],
                 basis: list[int]) -> None:
        self.rows = rows
        self.rhs = rhs
        self.den = den
        self.basis = basis
        self.red: dict = {}
        self.red_rhs = 0
        self.red_den = 1

    def price(self, cost: dict, den: int) -> None:
        """Reduced costs of cost / den for the current basis."""
        self.red, self.red_rhs, self.red_den = dict(cost), 0, den
        for r, col in enumerate(self.basis):
            if col in self.red:
                self.red_rhs, self.red_den = _eliminate(
                    self.red, self.red_rhs, self.red_den,
                    self.rows[r], self.rhs[r], self.den[r], col)

    def pivot(self, r: int, col: int) -> None:
        prow, pb, p = self.rows[r], self.rhs[r], self.rows[r][col]
        if p != self.den[r]:
            g = gcd(p, pb, *prow.values())
            if p < 0:  # dividing by -g flips the signs and keeps p positive
                g = -g
            if g != 1:
                prow = {j: v // g for j, v in prow.items()}
                pb //= g
                p //= g
            self.rows[r], self.rhs[r], self.den[r] = prow, pb, p
        for i, row in enumerate(self.rows):
            if i != r and col in row:
                self.rhs[i], self.den[i] = _eliminate(
                    row, self.rhs[i], self.den[i], prow, pb, p, col)
        if col in self.red:
            self.red_rhs, self.red_den = _eliminate(
                self.red, self.red_rhs, self.red_den, prow, pb, p, col)
        self.basis[r] = col


def _simplex_loop(tab: _Tableau, allowed: int) -> None:
    """Pivot until no column below `allowed` has a negative reduced cost."""
    pivots = 0
    while True:
        # one positive denominator: numerators order as the reduced costs do
        candidates = [(v, j) for j, v in tab.red.items()
                      if j < allowed and v < 0]
        if not candidates:
            return
        if pivots >= BLAND_AFTER:
            enter = min(j for _, j in candidates)
        else:
            enter = min(candidates)[1]
        leave = -1
        best_b = best_coef = 0
        for r, row in enumerate(tab.rows):
            coef = row.get(enter)
            if coef is not None and coef > 0:
                # the ratio is rhs[r] / coef, the row denominator cancelling
                b = tab.rhs[r]
                lhs, rhs = b * best_coef, best_b * coef
                if (leave < 0 or lhs < rhs
                        or (lhs == rhs and tab.basis[r] < tab.basis[leave])):
                    leave, best_b, best_coef = r, b, coef
        if leave < 0:
            raise LpError("unbounded objective")
        tab.pivot(leave, enter)
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise LpError(f"pivot budget {MAX_PIVOTS} exhausted")


def verify_optimal(c: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence,
                   a_eq: Sequence[Sequence], b_eq: Sequence,
                   sol: LpSolution) -> None:
    """Check a solution's primal feasibility, value and dual certificate
    exactly against the original data; raises LpError on any failure."""
    cons = _fraction_rows(len(c), a_ub, b_ub, "inequality")
    n_ub = len(cons)
    cons += _fraction_rows(len(c), a_eq, b_eq, "equality")
    cost = [Fraction(v) for v in c]
    if len(sol.x) != len(cost) or any(v < 0 for v in sol.x):
        raise LpError("certificate: x is not a nonnegative vector of width n")
    if len(sol.y) != len(cons):
        raise LpError("certificate: need one dual value per constraint")
    if sum((ci * xi for ci, xi in zip(cost, sol.x)), _ZERO) != sol.value:
        raise LpError("certificate: c.x differs from the reported value")
    dual = [_ZERO] * len(cost)
    for i, ((row, b), y) in enumerate(zip(cons, sol.y)):
        lhs = sum((v * sol.x[j] for j, v in row.items()), _ZERO)
        if lhs > b if i < n_ub else lhs != b:
            raise LpError(f"certificate: constraint {i} is violated")
        if i < n_ub and y > 0:
            raise LpError(f"certificate: dual {i} of an inequality is positive")
        for j, v in row.items():
            dual[j] += v * y
    if any(d > ci for d, ci in zip(dual, cost)):
        raise LpError("certificate: the dual is infeasible")
    if sum((b * y for (_, b), y in zip(cons, sol.y)), _ZERO) != sol.value:
        raise LpError("certificate: b.y differs from the reported value")


def solve_lp(c: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence,
             a_eq: Sequence[Sequence], b_eq: Sequence) -> LpSolution:
    """Minimize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0."""
    n = len(c)
    cons = _sparse_rows(n, a_ub, b_ub, "inequality")
    n_ub = len(cons)
    cons += _sparse_rows(n, a_eq, b_eq, "equality")
    rows: list[dict] = []
    rhs: list[int] = []
    dens: list[int] = []
    basis: list[int] = []
    signs: list[int] = []
    slack = n  # inequality row i owns slack column n + i
    art = n + n_ub  # row i may own artificial column art + i
    with_art = []
    for i, (row, b, den) in enumerate(cons):
        sign = -1 if b < 0 else 1
        if sign < 0:
            row = {j: -v for j, v in row.items()}
        if i < n_ub:
            row[slack + i] = sign * den
        if i < n_ub and sign > 0:
            basis.append(slack + i)
        else:
            row[art + i] = den
            basis.append(art + i)
            with_art.append(i)
        rows.append(row)
        rhs.append(b * sign)
        dens.append(den)
        signs.append(sign)
    tab = _Tableau(rows, rhs, dens, basis)

    if with_art:
        tab.price({art + i: 1 for i in with_art}, 1)
        _simplex_loop(tab, art)
        if tab.red_rhs < 0:  # z > 0
            raise LpError("infeasible constraints")
        # drive degenerate artificials out; a row with no real entry is a
        # combination of the others and is dropped
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
        tab.den = [tab.den[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
        # slack columns carry the inequality duals, so only the equality
        # artificials stay, never to enter again, to carry theirs
        for row in tab.rows:
            for i in with_art:
                if i < n_ub:
                    row.pop(art + i, None)

    (cost, _, cost_den), = _sparse_rows(n, [c], [0], "cost")
    tab.price(cost, cost_den)
    _simplex_loop(tab, art)

    x = [_ZERO] * n
    for col, b, den in zip(tab.basis, tab.rhs, tab.den):
        if col < n:
            x[col] = Fraction(b, den)
    red, red_den = tab.red, tab.red_den
    y = [Fraction(-red.get(slack + i, 0), red_den) for i in range(n_ub)]
    y += [Fraction(-signs[i] * red.get(art + i, 0), red_den)
          for i in range(n_ub, len(cons))]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), _ZERO)
    sol = LpSolution(value, tuple(x), tuple(y))
    verify_optimal(c, a_ub, b_ub, a_eq, b_eq, sol)
    return sol
