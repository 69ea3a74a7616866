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

search_integer prunes with three exact rules.  The slack window: each
touched vertex keeps |partial boundary| within the largest swing its
unassigned edges can still produce.  The root rule: the first position
that is not a positive loop tries only the positive values 1..k-1,
since negating every value of a flow gives a flow.  The last-slot rules
(R1, R2): a candidate is refused when it leaves a touched vertex with
one unassigned slot that no nonzero value can close.  Each rule cuts
only subtrees that hold no flow and is unchanged when every value is
negated, so the status and the first witness are those of the plain
search.

Node accounting: each candidate value tried at a position is one node,
kept or refused.  search_integer solves for the kept candidates in
closed form and jumps over the refused ones, counting a node for each,
so its count (and its tree and witness) equal those of trying every
candidate in turn under the same rules, as its reference does.  Under
the root rule an exhausted search counts N' = p + (N - p) / 2 nodes,
where N is the count with both signs tried at the root and p the
positive loops pinned before it.  A nonzero cap ends a search with
status 2 and nodes == cap + 1 as soon as the count passes the cap,
within a jump too; a cap of 0 means none.

Statuses: 0 witness found, 1 search space exhausted (an exactness
claim), 2 node cap hit before either.
"""

from __future__ import annotations

FOUND = 0
EXHAUSTED = 1
CAPPED = 2

_R2 = (2, 0, 0)  # the last-slot rule of a negative loop


def search_integer(m, n, typ, va, ca, vb, cb, k, cap):
    """Nowhere-zero integer flow, values in +-{1..k-1}.

    Candidates at a position are tried in the order 1, -1, 2, -2, ...;
    one is kept when every touched vertex has |partial boundary| at most
    its slack, the largest swing its unassigned edges can still produce,
    and no touched vertex is left with a last slot no value can close.
    The root, the first position that is not a positive loop, tries
    only 1, 2, ..., k-1.  This is exact: the negation of a flow whose
    root value is -c is a flow with root value +c, and every pruning
    test is the same for both, so the subtree under -c mirrors the one
    under +c.  So the status and the first witness are those of trying
    both signs (a witness under -c has a mirror under +c, tried
    earlier), and an exhausted search counts p + (N - p) / 2 nodes for
    the N of trying both signs, p the positive loops before the root.
    The root's boundary is zero, so its window is symmetric and its
    first candidate is 1, as before.
    Returns (status, values, nodes).

    Last slots.  Call v an endpoint of the current position, B(v) its
    boundary once the candidate is applied, and suppose v has exactly
    one unassigned slot left (positive loops do not count).  Which slot
    that is depends only on the assignment order, so the setup pass
    finds it once per vertex, at v's second-to-last position.
      R1: an ordinary half-edge of e = (v, w).  Zero boundary at v
          forces e's value to f = -c_v(e) B(v), so the candidate is
          refused when B(v) = 0, or when w's other unassigned edges
          cannot absorb f: |B(w) + c_w(e) f| > slack(w) - (k - 1), with
          the candidate applied to B(w) when w is the other endpoint.
      R2: a negative loop, which adds 2f.  The candidate is refused
          when B(v) is 0 or odd.
    Both only cut subtrees that hold no flow, so the status and the
    first witness are those of the search without them, and both are
    unchanged when every value is negated, so the root rule stays
    exact.

    Boundary and slack at a position's ends stay fixed while its
    candidates are tried, so the values kept by the slack test form one
    interval [lo, hi], solved on entry from the coefficients
    solve._search_layout guarantees, in the layout the reference kernel
    in tests/bruteforce.py shares: ca = 1 and cb = +-1 on an ordinary
    edge, ca = 2 on a negative loop (|B + 2 val| <= S gives
    lo = -((S + B) // 2), hi = (S - B) // 2).  R1's test on w is linear
    in the value too, so it narrows [lo, hi] the same way.  What is
    left is at most two holes, the values that make B(v) zero at an
    end with a last slot, and R2's parity; a candidate falling on one
    is refused where it stands.
    The search jumps straight to the next candidate inside the interval
    and counts one node for every candidate jumped over or refused, as
    though it had been tried and refused, so the search tree, the
    witness and the node count are those of trying the candidates one
    by one.  With a positive cap the search returns CAPPED with
    nodes == cap + 1 once the count passes the cap, also when a jump
    crosses it; a negative cap is passed by the first node."""
    values = [0] * m
    if m == 0:
        return FOUND, values, 0
    bnd = [0] * n
    slack = [0] * n
    rel = [0] * m  # slack each end of a position gives up while it is assigned
    # rules[p], for a position p that is some vertex's second-to-last,
    # pairs the rules that the last slots of p's first and second end
    # set: R2 as (2, 0, 0), R1 as (kind, w, g) with g = c_v(e) c_w(e),
    # which is cb of e, and kind 1 when w is p's other end, else 0.
    # Built from the back: last[v] is -1 until v's last position is
    # seen, then that position, then m once its rule is set.
    rules = [None] * m
    last = [-1] * n
    k1 = k - 1
    for pos in range(m - 1, -1, -1):
        t = typ[pos]
        if t == 2:
            continue
        a = va[pos]
        b = vb[pos] if t == 0 else -1
        ra = rb = None
        q = last[a]
        if q < 0:
            last[a] = pos
        elif q < m:
            last[a] = m
            if typ[q] == 1:
                ra = _R2
            else:
                w = vb[q] if va[q] == a else va[q]
                ra = (1 if w == b else 0, w, cb[q])
        if t == 0:
            rel[pos] = k1
            slack[a] += k1
            slack[b] += k1
            q = last[b]
            if q < 0:
                last[b] = pos
            elif q < m:
                last[b] = m
                if typ[q] == 1:
                    rb = _R2
                else:
                    w = vb[q] if va[q] == b else va[q]
                    rb = (1 if w == a else 0, w, cb[q])
        else:
            rel[pos] = 2 * k1
            slack[a] += 2 * k1
        if ra is not None or rb is not None:
            rules[pos] = (ra, rb)
    if cap <= 0:
        cap = 1 << 62 if cap == 0 else 0  # none, or passed by the first node
    top = 2 * (k - 1)  # candidate index i has value i // 2 + 1, negated for odd i
    win = [None] * m  # per position: index bounds of [lo, hi], and its holes
    root = 0  # the first branching position
    while root < m and typ[root] == 2:
        root += 1
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
        holes = None  # (value, value, parity refused), or None
        if t == 0:
            lo = -sa - x
            hi = sa - x
            b = vb[pos]
            sb = slack[b] - r
            slack[b] = sb
            y = bnd[b]
            s = cb[pos]
            if s > 0:
                if -sb - y > lo:
                    lo = -sb - y
                if sb - y < hi:
                    hi = sb - y
            else:
                if y - sb > lo:
                    lo = y - sb
                if y + sb < hi:
                    hi = y + sb
            both = rules[pos]
            if both is not None:
                # B(a) = x + val and B(b) = y + s val once val is applied
                ua, ub = both
                ha = hb = 0
                par = -1
                if ua is not None:
                    ha = -x
                    kind, w, g = ua
                    if kind == 2:
                        par = ~x & 1
                    elif kind == 0:
                        # |B(w) - g (x + val)| <= R
                        rw = slack[w] - k1
                        c = g * bnd[w] - x
                        if c - rw > lo:
                            lo = c - rw
                        if c + rw < hi:
                            hi = c + rw
                    else:
                        # w = b: |(y - g x) + (s - g) val| <= R
                        rw = sb - k1
                        z = y - g * x
                        if s == g:
                            if z > rw or -z > rw:
                                hi = lo - 1
                        else:
                            z *= s
                            if -((rw + z) >> 1) > lo:
                                lo = -((rw + z) >> 1)
                            if (rw - z) >> 1 < hi:
                                hi = (rw - z) >> 1
                if ub is not None:
                    hb = -s * y
                    kind, w, g = ub
                    if kind == 2:
                        if par < 0:
                            par = ~y & 1
                        elif par != ~y & 1:
                            hi = lo - 1
                    elif kind == 0:
                        # |B(w) - g (y + s val)| <= R
                        rw = slack[w] - k1
                        c = s * (g * bnd[w] - y)
                        if c - rw > lo:
                            lo = c - rw
                        if c + rw < hi:
                            hi = c + rw
                    else:
                        # w = a: |(x - g y) + (1 - g s) val| <= R
                        rw = sa - k1
                        z = x - g * y
                        if s == g:
                            if z > rw or -z > rw:
                                hi = lo - 1
                        else:
                            if -((rw + z) >> 1) > lo:
                                lo = -((rw + z) >> 1)
                            if (rw - z) >> 1 < hi:
                                hi = (rw - z) >> 1
                holes = (ha, hb, par)
        else:
            lo = -((sa + x) // 2)
            hi = (sa - x) // 2
            both = rules[pos]
            if both is not None:
                # B(a) = x + 2 val once val is applied
                ua = both[0]
                if x & 1:
                    if ua[0] == 2:
                        hi = lo - 1
                else:
                    holes = (-(x >> 1), 0, -1)
                if ua[0] == 0:
                    # |B(w) - g (x + 2 val)| <= R
                    w = ua[1]
                    rw = slack[w] - k1
                    z = x - ua[2] * bnd[w]
                    if -((rw + z) >> 1) > lo:
                        lo = -((rw + z) >> 1)
                    if (rw - z) >> 1 < hi:
                        hi = (rw - z) >> 1
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
            win[pos] = (elo, ehi, olo, ohi, holes)
        while True:
            if j < top:
                val = -(j >> 1) - 1 if j & 1 else (j >> 1) + 1
                if holes is None or not (val == holes[0] or val == holes[1] or val & 1 == holes[2]):
                    nodes += j - i + 1
                    if nodes > cap:
                        return CAPPED, values, cap + 1
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
                # refused by a last slot: one node, counted here (a later
                # node or the position's exhaustion checks the cap)
                if pos == root:
                    nodes += 1
                    i = j + 2
                    j = i if i <= ehi else top
                    continue
                nodes += j - i + 1
                i = j + 1
            else:
                if pos == root:
                    # the root's untried candidates are its positive values
                    # from index i on, one node each
                    nodes += (top - i) >> 1
                    if nodes > cap:
                        return CAPPED, values, cap + 1
                    return EXHAUSTED, values, nodes
                nodes += top - i
                if nodes > cap:
                    return CAPPED, values, cap + 1
                slack[a] += r
                if t == 0:
                    slack[b] += r
                pos -= 1
                while typ[pos] == 2:  # stops at the root at the latest
                    pos -= 1
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
                elo, ehi, olo, ohi, holes = win[pos]
                if pos == root:
                    # the next root candidate is val + 1, at index 2 * val; the
                    # root's even indices run from 0 to ehi
                    i = 2 * val
                    j = i if i <= ehi else top
                    continue
                i = 2 * val - 1 if val > 0 else -2 * val  # one past val's index
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
