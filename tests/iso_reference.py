"""Exhaustive reference for ``isomorphic``.

``ref_isomorphism`` assigns images to the elements 0, 1, 2, … in turn,
trying the unused elements of H in ascending order, and backtracks as soon
as a pair whose summands and sum are all assigned breaks
φ(a ⊕ b) = φ(a) ⊕ φ(b).  It reads the tables through the public ``oplus``
only and prunes by nothing else, so the first complete map is the
lexicographically smallest isomorphism by definition.  The search is
exponential, and serves only to check ``gyrogroups.analyze`` on small inputs.
"""


def ref_isomorphism(G, H):
    """The images of the lexicographically smallest isomorphism from G to H,
    as a tuple, or None when there is none."""
    n = G.order
    if H.order != n:
        return None
    g = [[G.oplus(a, b) for b in range(n)] for a in range(n)]
    h = [[H.oplus(a, b) for b in range(n)] for a in range(n)]
    # the pairs to check once v is assigned: those whose largest member of
    # a, b and a ⊕ b is v
    checks = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            checks[max(a, b, g[a][b])].append((a, b))
    phi = [0] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if used[w]:
                continue
            phi[v] = w
            if all(phi[g[a][b]] == h[phi[a]][phi[b]] for a, b in checks[v]):
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return tuple(phi) if extend(0) else None
