"""Backtracking kernels for nowhere-zero flow search.

These are the package's only search kernels.  Both run over plain arrays
prepared by solve.py; the layout is fixed because the reference kernel
in tests/bruteforce.py takes the same arguments, and the benchmark
tracer wraps these functions by name and reads their returned tuple.
Edge positions follow the caller's assignment order; per position the
arrays give

  typ: 0 ordinary edge, 1 negative loop
  va, ca: first affected vertex and its boundary coefficient
  vb, cb: second affected vertex/coefficient (ordinary edges only)

A positive loop adds nothing to any boundary, so the caller leaves it
out of the arrays and gives it the value 1.

search_integer prunes with three exact rules.  The slack window: each
touched vertex keeps |partial boundary| within the largest swing its
unassigned edges can still produce.  The root rule: position 0 tries
only the positive values 1..k-1, since negating every value of a flow
gives a flow.  The last-slot rules (R1, R2): a candidate is refused when
it leaves a touched vertex with one unassigned slot that no nonzero
value can close.  Each rule cuts only subtrees that hold no flow and is
unchanged when every value is negated, so the status and the first
witness are those of the plain search.

Node accounting: each candidate value tried at a position is one node,
kept or refused.  A nonzero cap ends a search with status 2 and nodes
== cap + 1 at the first node past the cap; a cap of 0 means none, and a
negative cap is passed by the first node.

Statuses: 0 witness found, 1 search space exhausted (an exactness
claim), 2 node cap hit before either.
"""

from __future__ import annotations

FOUND = 0
EXHAUSTED = 1
CAPPED = 2


def search_integer(m, n, typ, va, ca, vb, cb, k, cap):
    """Nowhere-zero integer flow, values in +-{1..k-1}.

    Candidates at a position are tried in the order 1, -1, 2, -2, ...,
    one node each: a candidate is applied, then refused if it breaks the
    slack window at either end or a last-slot rule, and kept otherwise.
    The root, position 0, tries only 1, 2, ..., k-1.  This is exact:
    the negation of a flow whose root value is -c is a flow with root
    value +c, and every rule is the same for both, so the subtree under
    -c mirrors the one under +c.  The status and the first witness are
    those of trying both signs, and an exhausted search counts N / 2
    nodes for the N of trying both signs.
    Returns (status, values, nodes), the same as
    tests/bruteforce.search_integer_reference with both rules on.

    Last slots.  Call v an endpoint of the current position and B(v)
    its boundary once the candidate is applied, and suppose v has
    exactly one unassigned slot left.  Which slot that is depends only
    on the assignment order, so one backward pass records it at v's
    second-to-last position.
      R1: an ordinary half-edge of e = (v, w).  Zero boundary at v
          forces e's value to f = -c_v(e) B(v), so the candidate is
          refused when B(v) = 0, or when w's other unassigned edges
          cannot absorb f: |B(w) + c_w(e) f| > slack(w) - (k - 1).
      R2: a negative loop, which adds 2f.  The candidate is refused
          when B(v) is 0 or odd."""
    values = [0] * m
    if m == 0:
        return FOUND, values, 0
    k1 = k - 1
    bnd = [0] * n
    slack = [0] * n
    # tail[p]: (v, w, g) for each end v of p whose last slot follows p,
    # with w the slot's other end and g = c_v c_w for R1, or w = -1 for
    # R2.  last[v] is -1 until v's last position is seen, then that
    # position, then m once v's second-to-last is recorded.
    tail = [()] * m
    last = [-1] * n
    for pos in range(m - 1, -1, -1):
        t = typ[pos]
        r = k1 if t == 0 else 2 * k1
        for v in (va[pos], vb[pos]) if t == 0 else (va[pos],):
            slack[v] += r
            q = last[v]
            if q < 0:
                last[v] = pos
            elif q < m:
                last[v] = m
                if typ[q] == 1:
                    tail[pos] += ((v, -1, 0),)
                else:
                    tail[pos] += ((v, vb[q] if va[q] == v else va[q], ca[q] * cb[q]),)
    if cap <= 0:
        cap = 1 << 62 if cap == 0 else 0  # none, or passed by the first node
    signed = [c for v in range(1, k) for c in (v, -v)]
    positive = range(1, k)
    idx = [0] * m  # the index of the candidate each position holds
    nodes = 0
    pos = 0
    while True:
        t = typ[pos]
        a = va[pos]
        b = vb[pos]
        c_a = ca[pos]
        c_b = cb[pos]
        r = k1 if t == 0 else 2 * k1  # the slack each end gives up
        cands = positive if pos == 0 else signed
        i = idx[pos]
        if i == 0:  # a fresh position
            slack[a] -= r
            if t == 0:
                slack[b] -= r
        while i < len(cands):
            val = cands[i]
            nodes += 1
            if nodes > cap:
                return CAPPED, values, cap + 1
            bnd[a] += c_a * val
            if t == 0:
                bnd[b] += c_b * val
            if (
                abs(bnd[a]) <= slack[a]
                and (t or abs(bnd[b]) <= slack[b])
                and (not tail[pos] or _last_slots_ok(bnd, slack, tail[pos], k1))
            ):
                break
            bnd[a] -= c_a * val
            if t == 0:
                bnd[b] -= c_b * val
            i += 1
        else:
            # every candidate refused: give the slack back, step back to
            # the previous position and move it to its next candidate
            if pos == 0:
                return EXHAUSTED, values, nodes
            slack[a] += r
            if t == 0:
                slack[b] += r
            idx[pos] = 0
            pos -= 1
            _unapply(bnd, typ, va, ca, vb, cb, pos, values)
            idx[pos] += 1
            continue
        idx[pos] = i
        values[pos] = val
        pos += 1
        if pos == m:
            return FOUND, values, nodes


def _last_slots_ok(bnd, slack, tail, k1):
    """R1 and R2 for the ends in tail, with the candidate applied."""
    for v, w, g in tail:
        x = bnd[v]
        if x == 0 or (x & 1 if w < 0 else abs(bnd[w] - g * x) > slack[w] - k1):
            return False
    return True


def _unapply(bnd, typ, va, ca, vb, cb, pos, values):
    val = values[pos]
    bnd[va[pos]] -= ca[pos] * val
    if typ[pos] == 0:
        bnd[vb[pos]] -= cb[pos] * val


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
        _res_mod(rem_ord, rem_neg, typ, va, vb, i)
    if m == 0:
        return FOUND, values, 0
    idx = [0] * (m + 1)
    nodes = 0
    pos = 0
    _rel_mod(rem_ord, rem_neg, typ, va, vb, 0)
    while True:
        i = idx[pos]
        if i >= k - 1:
            _res_mod(rem_ord, rem_neg, typ, va, vb, pos)
            idx[pos] = 0
            pos -= 1
            if pos < 0:
                return EXHAUSTED, values, nodes
            _unapply(bnd, typ, va, ca, vb, cb, pos, values)
            idx[pos] += 1
            continue
        val = i + 1
        nodes += 1
        if cap and nodes > cap:
            return CAPPED, values, nodes
        values[pos] = val
        bnd[va[pos]] += ca[pos] * val
        ok = _mod_vertex_ok(bnd, rem_ord, rem_neg, va[pos], k)
        if typ[pos] == 0:
            bnd[vb[pos]] += cb[pos] * val
            ok = ok and _mod_vertex_ok(bnd, rem_ord, rem_neg, vb[pos], k)
        if ok:
            pos += 1
            if pos == m:
                return FOUND, values, nodes
            _rel_mod(rem_ord, rem_neg, typ, va, vb, pos)
        else:
            _unapply(bnd, typ, va, ca, vb, cb, pos, values)
            idx[pos] += 1


def _rel_mod(rem_ord, rem_neg, typ, va, vb, pos):
    if typ[pos] == 0:
        rem_ord[va[pos]] -= 1
        rem_ord[vb[pos]] -= 1
    else:
        rem_neg[va[pos]] -= 1


def _res_mod(rem_ord, rem_neg, typ, va, vb, pos):
    if typ[pos] == 0:
        rem_ord[va[pos]] += 1
        rem_ord[vb[pos]] += 1
    else:
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
