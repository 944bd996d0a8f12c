"""Exact rational linear programming by a sparse two-phase simplex.

All arithmetic is over fractions.Fraction, so reported optima are exact
rationals, not floats.  Tableau rows are dicts of their nonzero entries.
Inequality rows with a nonnegative right-hand side start with their slack
in the basis; only equality rows and negative right-hand sides get an
artificial variable, and phase 1 runs only when there is one.  Pivoting
uses Dantzig's rule over ascending columns, with a switch to Bland's rule
after a fixed number of pivots, which guarantees termination.

Every solution is re-verified against the caller's data before it is
returned: the vertex must be feasible, and the dual vector read off the
final tableau must be dual feasible with the same objective value, which
proves the vertex optimal.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)

# A solve pivots by Dantzig's rule up to BLAND_AFTER times in each phase,
# then by Bland's rule, and gives up past MAX_PIVOTS.
BLAND_AFTER = 2_000
MAX_PIVOTS = 50_000


class LpError(RuntimeError):
    """Raised for infeasible or unbounded programs, pivot exhaustion, or a
    solution that fails its optimality certificate."""


@dataclass(frozen=True)
class LpSolution:
    """An optimal vertex with its dual certificate.

    x is the primal assignment.  y holds one dual value per constraint, the
    inequality rows first, then the equality rows: y <= 0 on inequalities,
    A_ub^T y_ub + A_eq^T y_eq <= c, and b.y equals the optimal value.
    """

    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def _sparse_rows(n: int, rows: Sequence[Sequence], rhs: Sequence,
                 kind: str) -> list[tuple[dict, Fraction]]:
    """(nonzero entries, right-hand side) per constraint row."""
    out = []
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise LpError(f"{kind} row has wrong width")
        out.append(({j: Fraction(v) for j, v in enumerate(row) if v},
                    Fraction(b)))
    return out


def _constraints(n: int, a_ub: Sequence[Sequence], b_ub: Sequence,
                 a_eq: Sequence[Sequence], b_eq: Sequence
                 ) -> tuple[list[tuple[dict, Fraction]], int]:
    """All constraints, the inequalities first, and their count."""
    ub = _sparse_rows(n, a_ub, b_ub, "inequality")
    return ub + _sparse_rows(n, a_eq, b_eq, "equality"), len(ub)


class _SparseTableau:
    """Sparse rows in terms of the current basis, plus reduced costs.

    Row r reads sum_j rows[r][j] x_j = rhs[r], with rows[r][basis[r]] == 1.
    red holds the nonzero reduced costs and z the objective value.
    """

    def __init__(self, rows: list[dict], rhs: list[Fraction],
                 basis: list[int]) -> None:
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.red: dict = {}
        self.z = _ZERO

    def price(self, cost: dict) -> None:
        """Reduced costs of cost for the current basis."""
        red = dict(cost)
        z = _ZERO
        for row, b, col in zip(self.rows, self.rhs, self.basis):
            cb = cost.get(col)
            if cb:
                for j, v in row.items():
                    red[j] = red.get(j, _ZERO) - cb * v
                z += cb * b
        self.red = {j: v for j, v in red.items() if v}
        self.z = z

    def pivot(self, r: int, col: int) -> None:
        prow = self.rows[r]
        piv = prow[col]
        if piv != 1:
            prow = {j: v / piv for j, v in prow.items()}
            self.rows[r] = prow
            self.rhs[r] /= piv
        pb = self.rhs[r]
        for i, row in enumerate(self.rows):
            if i != r:
                factor = row.get(col)
                if factor is not None:
                    _eliminate(row, prow, factor)
                    self.rhs[i] -= factor * pb
        factor = self.red.get(col)
        if factor is not None:
            _eliminate(self.red, prow, factor)
            self.z += factor * pb
        self.basis[r] = col


def _eliminate(row: dict, prow: dict, factor: Fraction) -> None:
    """row -= factor * prow, keeping only nonzero entries."""
    for j, v in prow.items():
        new = row.get(j, _ZERO) - factor * v
        if new:
            row[j] = new
        else:
            del row[j]


def _simplex_loop(tab: _SparseTableau, allowed: int) -> None:
    """Pivot until no column below `allowed` has a negative reduced cost."""
    pivots = 0
    while True:
        candidates = [(v, j) for j, v in tab.red.items()
                      if j < allowed and v < 0]
        if not candidates:
            return
        if pivots >= BLAND_AFTER:
            enter = min(j for _, j in candidates)
        else:
            enter = min(candidates)[1]
        leave = -1
        best_ratio = None
        for r, row in enumerate(tab.rows):
            coef = row.get(enter)
            if coef is not None and coef > 0:
                ratio = tab.rhs[r] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio
                            and tab.basis[r] < tab.basis[leave])):
                    best_ratio = ratio
                    leave = r
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
    cons, n_ub = _constraints(len(c), a_ub, b_ub, a_eq, b_eq)
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
    cons, n_ub = _constraints(n, a_ub, b_ub, a_eq, b_eq)
    rows: list[dict] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    signs: list[int] = []
    slack = n  # inequality row i owns slack column n + i
    art = n + n_ub  # row i may own artificial column art + i
    with_art = []
    for i, (row, b) in enumerate(cons):
        sign = -1 if b < 0 else 1
        row = dict(row) if sign > 0 else {j: -v for j, v in row.items()}
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
    tab = _SparseTableau(rows, rhs, basis)

    if with_art:
        tab.price({art + i: Fraction(1) for i in with_art})
        _simplex_loop(tab, art)
        if tab.z > 0:
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
        tab.basis = [tab.basis[r] for r in keep]
        # slack columns carry the inequality duals, so only the equality
        # artificials stay, never to enter again, to carry theirs
        for row in tab.rows:
            for i in with_art:
                if i < n_ub:
                    row.pop(art + i, None)

    tab.price({j: Fraction(v) for j, v in enumerate(c) if v})
    _simplex_loop(tab, art)

    x = [_ZERO] * n
    for col, b in zip(tab.basis, tab.rhs):
        if col < n:
            x[col] = b
    y = [-tab.red.get(slack + i, _ZERO) for i in range(n_ub)]
    y += [-signs[i] * tab.red.get(art + i, _ZERO)
          for i in range(n_ub, len(cons))]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), _ZERO)
    sol = LpSolution(value, tuple(x), tuple(y))
    verify_optimal(c, a_ub, b_ub, a_eq, b_eq, sol)
    return sol
