"""Backtracking kernels for nowhere-zero flow search.

These are the package's only search kernels.  Both run over plain arrays
prepared by solve.py; the layout is fixed because the reference kernel
in tests/bruteforce.py takes the same arguments, and the benchmark
tracer wraps these functions by name and reads their returned tuple.
Edge positions follow the caller's assignment order; per position the
arrays give

  typ: 0 ordinary edge, 1 negative loop, 2 positive loop
  va, ca: first affected vertex and its boundary coefficient
  vb, cb: second affected vertex/coefficient (ordinary edges only)

A positive loop never constrains any boundary, so its value is pinned to
the first candidate without branching; trying alternatives could never
repair a failure elsewhere.

Node accounting: each candidate value tried at a position is one node,
kept or refused.  search_integer solves for the kept candidates in
closed form and jumps over the refused ones, counting a node for each,
so its count (and its tree and witness) equal those of trying every
candidate in turn, as its reference does.  A nonzero cap ends a search
with status 2 and nodes == cap + 1 as soon as the count passes the cap,
within a jump too; a cap of 0 means none.

Statuses: 0 witness found, 1 search space exhausted (an exactness
claim), 2 node cap hit before either.
"""

from __future__ import annotations

FOUND = 0
EXHAUSTED = 1
CAPPED = 2


def search_integer(m, n, typ, va, ca, vb, cb, k, cap):
    """Nowhere-zero integer flow, values in +-{1..k-1}.

    Candidates at a position are tried in the order 1, -1, 2, -2, ...;
    one is kept when every touched vertex has |partial boundary| at most
    its slack, the largest swing its unassigned edges can still produce.
    Returns (status, values, nodes).

    Boundary and slack at a position's ends stay fixed while its
    candidates are tried, so the kept values form one interval [lo, hi],
    solved on entry from the coefficients solve._kernel_arrays
    guarantees, in the layout the reference kernel in tests/bruteforce.py
    shares: ca = 1 and cb = +-1 on an ordinary edge, ca = 2 on a
    negative loop (|B + 2 val| <= S gives lo = -((S + B) // 2),
    hi = (S - B) // 2).
    The search jumps straight to the next candidate inside the interval
    and counts one node for every candidate jumped over, as though it
    had been tried and refused, so the search tree, the witness and the
    node count are those of trying the candidates one by one.  With a
    positive cap the search returns CAPPED with nodes == cap + 1 once
    the count passes the cap, also when a jump crosses it; a negative
    cap is passed by the first node."""
    values = [0] * m
    if m == 0:
        return FOUND, values, 0
    bnd = [0] * n
    slack = [0] * n
    rel = [0] * m  # slack each end of a position gives up while it is assigned
    for pos in range(m):
        t = typ[pos]
        if t == 0:
            rel[pos] = k - 1
            slack[va[pos]] += k - 1
            slack[vb[pos]] += k - 1
        elif t == 1:
            rel[pos] = 2 * (k - 1)
            slack[va[pos]] += 2 * (k - 1)
    if cap <= 0:
        cap = 1 << 62 if cap == 0 else 0  # none, or passed by the first node
    top = 2 * (k - 1)  # candidate index i has value i // 2 + 1, negated for odd i
    win = [None] * m  # per position: even and odd index bounds of [lo, hi]
    nodes = 0
    pos = 0
    while True:
        t = typ[pos]
        if t == 2:
            nodes += 1
            if nodes > cap:
                return CAPPED, values, cap + 1
            values[pos] = 1
            pos += 1
            if pos == m:
                return FOUND, values, nodes
            continue
        a = va[pos]
        r = rel[pos]
        sa = slack[a] - r
        slack[a] = sa
        x = bnd[a]
        if t == 0:
            lo = -sa - x
            hi = sa - x
            b = vb[pos]
            sb = slack[b] - r
            slack[b] = sb
            y = bnd[b]
            if cb[pos] > 0:
                if -sb - y > lo:
                    lo = -sb - y
                if sb - y < hi:
                    hi = sb - y
            else:
                if y - sb > lo:
                    lo = y - sb
                if y + sb < hi:
                    hi = y + sb
        else:
            lo = -((sa + x) // 2)
            hi = (sa - x) // 2
        i = 0
        j = top
        if lo <= hi:
            elo = 2 * lo - 2 if lo > 1 else 0
            ehi = 2 * hi - 2 if hi < k - 1 else top - 2
            olo = -2 * hi - 1 if hi < -1 else 1
            ohi = -2 * lo - 1 if lo > 1 - k else top - 1
            if elo <= ehi:
                j = elo
            if olo < j and olo <= ohi:
                j = olo
            win[pos] = (elo, ehi, olo, ohi)
        while True:
            if j < top:
                nodes += j - i + 1
                if nodes > cap:
                    return CAPPED, values, cap + 1
                val = -(j >> 1) - 1 if j & 1 else (j >> 1) + 1
                values[pos] = val
                bnd[a] += val
                if t == 0:
                    bnd[b] += cb[pos] * val
                else:
                    bnd[a] += val
                pos += 1
                if pos == m:
                    return FOUND, values, nodes
                break
            nodes += top - i
            if nodes > cap:
                return CAPPED, values, cap + 1
            slack[a] += r
            if t == 0:
                slack[b] += r
            pos -= 1
            while pos >= 0 and typ[pos] == 2:
                pos -= 1
            if pos < 0:
                return EXHAUSTED, values, nodes
            t = typ[pos]
            a = va[pos]
            r = rel[pos]
            val = values[pos]
            bnd[a] -= val
            if t == 0:
                b = vb[pos]
                bnd[b] -= cb[pos] * val
            else:
                bnd[a] -= val
            i = 2 * val - 1 if val > 0 else -2 * val  # one past val's index
            elo, ehi, olo, ohi = win[pos]
            # the next candidate from i on inside [lo, hi], else top
            j = i + (i & 1)
            if j < elo:
                j = elo
            if j > ehi:
                j = top
            d = i | 1
            if d < olo:
                d = olo
            if d < j and d <= ohi:
                j = d


def _unapply(bnd, typ, va, ca, vb, cb, pos, values):
    t = typ[pos]
    val = values[pos]
    if t == 0:
        bnd[va[pos]] -= ca[pos] * val
        bnd[vb[pos]] -= cb[pos] * val
    elif t == 1:
        bnd[va[pos]] -= ca[pos] * val


def search_modulo(m, n, typ, va, ca, vb, cb, k, cap):
    """Nowhere-zero modulo-k flow, values in {1..k-1}.

    Pruning: a vertex with no unassigned slots must be 0 mod k; with one
    slot left, an ordinary half-edge can contribute any nonzero residue
    and a negative loop any nonzero residue for odd k (any even residue,
    zero included, for even k)."""
    values = [0] * m
    bnd = [0] * n
    rem_ord = [0] * n
    rem_neg = [0] * n
    for i in range(m):
        t = typ[i]
        if t == 0:
            rem_ord[va[i]] += 1
            rem_ord[vb[i]] += 1
        elif t == 1:
            rem_neg[va[i]] += 1
    if m == 0:
        return FOUND, values, 0
    idx = [0] * (m + 1)
    nodes = 0
    pos = 0
    _rel_mod(rem_ord, rem_neg, typ, va, vb, 0)
    while True:
        i = idx[pos]
        t = typ[pos]
        limit = 1 if t == 2 else k - 1
        if i >= limit:
            _res_mod(rem_ord, rem_neg, typ, va, vb, pos)
            idx[pos] = 0
            pos -= 1
            if pos < 0:
                return EXHAUSTED, values, nodes
            _unapply(bnd, typ, va, ca, vb, cb, pos, values)
            idx[pos] += 1
            continue
        val = 1 if t == 2 else i + 1
        nodes += 1
        if cap and nodes > cap:
            return CAPPED, values, nodes
        values[pos] = val
        ok = True
        if t == 0:
            bnd[va[pos]] += ca[pos] * val
            bnd[vb[pos]] += cb[pos] * val
            ok = _mod_vertex_ok(bnd, rem_ord, rem_neg, va[pos], k) and _mod_vertex_ok(
                bnd, rem_ord, rem_neg, vb[pos], k
            )
        elif t == 1:
            bnd[va[pos]] += ca[pos] * val
            ok = _mod_vertex_ok(bnd, rem_ord, rem_neg, va[pos], k)
        if ok:
            pos += 1
            if pos == m:
                return FOUND, values, nodes
            _rel_mod(rem_ord, rem_neg, typ, va, vb, pos)
        else:
            _unapply(bnd, typ, va, ca, vb, cb, pos, values)
            idx[pos] += 1


def _rel_mod(rem_ord, rem_neg, typ, va, vb, pos):
    t = typ[pos]
    if t == 0:
        rem_ord[va[pos]] -= 1
        rem_ord[vb[pos]] -= 1
    elif t == 1:
        rem_neg[va[pos]] -= 1


def _res_mod(rem_ord, rem_neg, typ, va, vb, pos):
    t = typ[pos]
    if t == 0:
        rem_ord[va[pos]] += 1
        rem_ord[vb[pos]] += 1
    elif t == 1:
        rem_neg[va[pos]] += 1


def _mod_vertex_ok(bnd, rem_ord, rem_neg, v, k):
    total = rem_ord[v] + rem_neg[v]
    if total == 0:
        return bnd[v] % k == 0
    if total == 1:
        if bnd[v] % k == 0:
            # the last slot must contribute a nonzero residue, except a
            # negative loop under even k, which can also contribute zero
            return rem_neg[v] == 1 and k % 2 == 0
        if rem_neg[v] == 1 and k % 2 == 0 and bnd[v] % 2 != 0:
            return False
    return True
