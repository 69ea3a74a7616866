"""Exact two-phase simplex over the integers.

The tableau is kept fraction-free: every entry is an integer and the
true value is entry/den for one shared positive denominator (integer
pivoting as in reverse-search vertex enumeration codes).  Divisions in
the pivot rule are exact by the subdeterminant identity; a nonzero
remainder would mean corruption and raises.

Bland's smallest-index rule everywhere, so the pivot sequence (and hence
the returned optimal basis) is fully deterministic and finite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def solve_lp(
    c: Sequence[int],
    a_eq: Sequence[Sequence[int]],
    b_eq: Sequence[int],
    a_ub: Sequence[Sequence[int]],
    b_ub: Sequence[int],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Minimize c.x subject to a_eq.x == b_eq, a_ub.x <= b_ub, x >= 0.

    All inputs must be integers.  Returns (status, x, objective).
    """
    p = len(c)
    rows: list[list[int]] = []
    rhs: list[int] = []
    kinds: list[str] = []  # "eq" or "ub"
    for a, b in zip(a_eq, b_eq):
        if len(a) != p:
            raise ValueError("a_eq row length mismatch")
        rows.append(list(a))
        rhs.append(b)
        kinds.append("eq")
    for a, b in zip(a_ub, b_ub):
        if len(a) != p:
            raise ValueError("a_ub row length mismatch")
        rows.append(list(a))
        rhs.append(b)
        kinds.append("ub")
    r = len(rows)

    # column layout: structural | slacks (ub rows) | artificials (as needed)
    num_slack = sum(1 for kd in kinds if kd == "ub")
    slack_col = {}
    j = p
    for i, kd in enumerate(kinds):
        if kd == "ub":
            slack_col[i] = j
            j += 1
    art_col = {}
    basis: list[int] = [0] * r
    tab: list[list[int]] = []
    total_pre_art = p + num_slack
    # count artificials first so the row width is known
    needs_art = []
    for i, kd in enumerate(kinds):
        neg = rhs[i] < 0
        if kd == "eq" or neg:
            needs_art.append(i)
    width = total_pre_art + len(needs_art) + 1  # + rhs column
    for i in range(r):
        sign = -1 if rhs[i] < 0 else 1
        row = [sign * a for a in rows[i]] + [0] * (width - p - 1) + [sign * rhs[i]]
        if i in slack_col:
            row[slack_col[i]] = sign
        tab.append(row)
    for idx, i in enumerate(needs_art):
        col = total_pre_art + idx
        art_col[i] = col
        tab[i][col] = 1
        basis[i] = col
    for i in range(r):
        if i not in art_col:
            basis[i] = slack_col[i]
    art_cols = set(art_col.values())
    den = 1

    def eliminate(rowi: list[int], ric: int, rowr: list[int], piv: int) -> list[int]:
        # one Bareiss step on a whole row: (rowi * piv - ric * rowr) / den
        if ric:
            new = [a * piv - ric * b for a, b in zip(rowi, rowr)]
        elif piv == den:
            return rowi
        else:
            new = [a * piv for a in rowi]
        if den != 1:
            if any(a % den for a in new):
                raise InvariantViolation("inexact division in a pivot step")
            new = [a // den for a in new]
        return new

    def pivot(r_i: int, c_j: int) -> None:
        nonlocal den
        rowr = tab[r_i]
        piv = rowr[c_j]
        for i, rowi in enumerate(tab):
            if i != r_i:
                tab[i] = eliminate(rowi, rowi[c_j], rowr, piv)
        den = piv
        basis[r_i] = c_j

    def run_phase(obj: list[int], limit: int) -> str:
        # obj is the scaled reduced-cost row; optimal when its first
        # limit entries are all >= 0
        while True:
            enter = -1
            for jj in range(limit):
                if obj[jj] < 0:
                    enter = jj
                    break
            if enter < 0:
                return OPTIMAL
            # ratio test over rows with positive pivot column entry
            best_i = -1
            for i in range(r):
                a = tab[i][enter]
                if a <= 0:
                    continue
                if best_i < 0:
                    best_i = i
                    continue
                lhs = tab[i][-1] * tab[best_i][enter]
                rhs_ = tab[best_i][-1] * a
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[best_i]):
                    best_i = i
            if best_i < 0:
                return UNBOUNDED
            piv = tab[best_i][enter]
            # update objective row with the same elimination step
            obj[:] = eliminate(obj, obj[enter], tab[best_i], piv)
            pivot(best_i, enter)

    # ---- phase 1: drive artificials to zero
    if needs_art:
        obj1 = [-sum(col) for col in zip(*(tab[i] for i in art_col))]
        for col in art_cols:
            obj1[col] = 0
        status = run_phase(obj1, total_pre_art + len(needs_art))
        if status != OPTIMAL:
            raise InvariantViolation("phase 1 cannot be unbounded")
        if obj1[-1] != 0:
            return INFEASIBLE, None, None
        # remove leftover artificials from the basis where possible
        for i in range(r):
            if basis[i] in art_cols:
                for jj in range(total_pre_art):
                    if tab[i][jj] != 0:
                        if tab[i][jj] < 0:
                            tab[i] = [-a for a in tab[i]]
                        pivot(i, jj)
                        break
                # a row that stays artificial-basic is redundant (b == 0)

    # ---- phase 2
    obj2 = [cj * den for cj in c] + [0] * (width - p)
    for i in range(r):
        cb = c[basis[i]] if basis[i] < p else 0
        if cb:
            obj2 = [o - cb * a for o, a in zip(obj2, tab[i])]
    status = run_phase(obj2, total_pre_art)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * p
    for i in range(r):
        if basis[i] < p:
            x[basis[i]] = Fraction(tab[i][-1], den)
    objective = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return OPTIMAL, x, objective
