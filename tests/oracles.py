"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: permutation scans, subset scans,
cofactor expansion, and symbolic powers as an intersection of prime
powers. These implementations share no code with the package paths they
check.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product


def spans_path(vertex_set, edge_set):
    """Does some ordering of the whole set walk along graph edges?"""
    vs = sorted(vertex_set)
    for order in permutations(vs):
        if all((min(a, b), max(a, b)) in edge_set for a, b in zip(order, order[1:])):
            return True
    return False


def path_hypergraph_edges(n, edges, t):
    """All (t+1)-subsets spanning a t-edge path, by full ordering scan."""
    es = {(min(u, v), max(u, v)) for u, v in edges}
    return sorted(s for s in combinations(range(n), t + 1) if spans_path(s, es))


def star_plus_edge_scan(n, edges):
    """Is the edge set {c-x : x != c} | {a-b} for some center c and leaves a, b?"""
    es = {(min(u, v), max(u, v)) for u, v in edges}
    for c in range(n):
        leaves = [x for x in range(n) if x != c]
        star = {(min(c, x), max(c, x)) for x in leaves}
        if any(es == star | {pair} for pair in combinations(leaves, 2)):
            return True
    return False


def tau_scan(n, edge_sets):
    """Minimum cover size by scanning subsets in increasing size."""
    if not edge_sets:
        return 0
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            ss = set(sub)
            if all(ss & set(e) for e in edge_sets):
                return r
    raise AssertionError("unreachable: the full vertex set always covers")


def nu_scan(edge_sets):
    """Maximum matching size by scanning all edge subsets."""
    best = 0
    es = [set(e) for e in edge_sets]
    for r in range(1, len(es) + 1):
        for sub in combinations(es, r):
            if all(not a & b for a, b in combinations(sub, 2)):
                best = max(best, r)
    return best


def minimal_covers_scan(n, edge_sets):
    """All inclusion-minimal covers by subset scan plus minimality filter."""
    if not edge_sets:
        return [()]
    covers = []
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            ss = set(sub)
            if all(ss & set(e) for e in edge_sets):
                if not any(set(c) <= ss for c in covers):
                    covers.append(sub)
    return sorted(covers, key=lambda c: (len(c), c))


def weighted_cover_scan(n, edge_sets, cost):
    best = sum(cost)
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            ss = set(sub)
            if all(ss & set(e) for e in edge_sets):
                best = min(best, sum(cost[v] for v in sub))
    return best


def packing_scan(edge_sets, cost):
    """Maximum integer packing by bounded product scan."""
    if not edge_sets:
        return 0
    tops = [min(cost[v] for v in e) for e in edge_sets]
    best = 0
    for ys in product(*(range(t + 1) for t in tops)):
        loads = {}
        for y, e in zip(ys, edge_sets):
            for v in e:
                loads[v] = loads.get(v, 0) + y
        if all(loads.get(v, 0) <= cost[v] for v in loads):
            best = max(best, sum(ys))
    return best


def mfmc_probe_scan(n, edge_sets, cmax):
    """The first cost in {0..cmax}^n, in product order, whose weighted cover
    minimum exceeds its integer packing maximum, as (cost, cover, packing);
    None when no cost has a gap."""
    for cost in product(range(cmax + 1), repeat=n):
        wc = weighted_cover_scan(n, edge_sets, cost)
        mp = packing_scan(edge_sets, cost)
        if mp < wc:
            return cost, wc, mp
    return None


def cofactor_det(rows):
    """Recursive cofactor expansion over exact Fractions."""
    size = len(rows)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(size) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def rank_scan(rows):
    """Largest k with a nonzero k x k minor, by cofactor expansion."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for rset in combinations(range(m), k):
            for cset in combinations(range(n), k):
                if cofactor_det([[rows[i][j] for j in cset] for i in rset]):
                    return k
    return 0


def has_packing_scan(n, edge_sets):
    """Konig on every non-unit minor, by scanning all disjoint (D, C) pairs.

    Dominated edges are left in: they change neither tau nor nu.
    """
    for assignment in product((0, 1, 2), repeat=n):
        D = {v for v, a in enumerate(assignment) if a == 1}
        C = {v for v, a in enumerate(assignment) if a == 2}
        kept = [set(e) - C for e in edge_sets if not D & set(e)]
        if any(not e for e in kept):
            continue  # an edge inside C: the unit clutter
        if tau_scan(n, kept) != nu_scan(kept):
            return False
    return True


def isomorphic_scan(g1, g2):
    """Graph isomorphism by scanning all vertex bijections."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    e2 = set(g2.edges)
    for perm in permutations(range(g1.n)):
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g1.edges}
        if mapped == e2:
            return True
    return False


def connected_classes_scan(n):
    """Connected graphs on n vertices, one per isomorphism class.

    Bit i of an adjacency mask stands for combinations(range(n), 2)[i]. Masks
    are scanned in increasing order; each one not yet seen is the least of
    its orbit, and all n! relabellings of it are marked seen. Returns the
    connected classes' sorted edge tuples, in increasing mask order.
    """
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    maps = [[index[(min(perm[u], perm[v]), max(perm[u], perm[v]))] for u, v in pairs]
            for perm in permutations(range(n))]
    seen = bytearray(1 << len(pairs))
    out = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        for pmap in maps:
            seen[sum(1 << pmap[i] for i in bits)] = 1
        edges = tuple(pairs[i] for i in bits)
        reached = {0}
        for _ in range(n):
            reached |= {w for u, v in edges for w in (u, v) if {u, v} & reached}
        if len(reached) == n:
            out.append(edges)
    return out


def is_least_scan(mask, adj):
    """Is mask least in its orbit? The relabelling backtrack without pruning.

    Positions n-1 down to 0 are filled one vertex at a time; placing a vertex
    at position a fixes the mask block of pairs (a, a+1) .. (a, n-1) as its
    adjacency to the vertices already placed. A block above the mask's ends
    the branch, one below it refutes. Every candidate is tried, so the cost
    grows with the automorphism group.
    """
    n = len(adj)

    def place(a, free, rows):
        want = (mask >> (a * (n - 1) - a * (a - 1) // 2)) & ((1 << (n - 1 - a)) - 1)
        for v in [v for v in range(n) if free >> v & 1]:
            got = rows[v] >> (a + 1)
            if got < want:
                return False
            if got == want and a:
                nxt = rows[:]
                for u in range(n):
                    if (adj[v] & free) >> u & 1:
                        nxt[u] |= 1 << a
                if not place(a - 1, free ^ (1 << v), nxt):
                    return False
        return True

    return place(n - 1, (1 << n) - 1, [0] * n)


def least_rows_scan(adj):
    """The least rows of a graph over all vertex orders, by scanning every permutation.

    An order lists the vertices first to last. Its row i is the adjacency
    of the i-th vertex to the i before it, the first of them as the most
    significant bit; rows compare as a tuple. ``adj`` holds neighbour
    bitmasks; the graph may be disconnected.
    """
    n = len(adj)
    return min(tuple(sum(1 << (i - 1 - j) for j in range(i) if adj[order[i]] >> order[j] & 1)
                     for i in range(n))
               for order in permutations(range(n)))


def symbolic_member_scan(mono, covers, k):
    """Membership in the k-th symbolic power via per-cover degree sums."""
    return all(sum(mono[v] for v in cov) >= k for cov in covers)


def power_products(gens, k):
    """All k-fold products of generators, as a set of exponent tuples."""
    out = set()

    def rec(idx, left, acc):
        if left == 0:
            out.add(tuple(acc))
            return
        for i in range(idx, len(gens)):
            rec(i, left - 1, [a + b for a, b in zip(acc, gens[i])])

    if gens:
        rec(0, k, [0] * len(gens[0]))
    return out


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def minimal_gens(gens):
    """Sorted minimal generating set of exponent tuples."""
    kept = []
    for g in sorted(set(gens), key=sum):
        if not any(all(x <= y for x, y in zip(h, g)) for h in kept):
            kept.append(g)
    return tuple(sorted(kept))


def prime_power(cover, k, n):
    """Generators of P^k for the monomial prime on the cover variables."""
    if not cover:
        raise ValueError("a prime needs at least one variable")
    gens = []
    for split in combinations_with_replacement(sorted(set(cover)), k):
        g = [0] * n
        for v in split:
            g[v] += 1
        gens.append(tuple(g))
    return tuple(sorted(gens))


def intersect(gens_a, gens_b):
    """Generators of the intersection of two monomial ideals: pairwise lcms."""
    return minimal_gens(mono_lcm(f, g) for f in gens_a for g in gens_b)


def minimal_cover_vectors_scan(covers, k, n):
    """Minimal exponent vectors with degree sum >= k on every cover.

    Depth-first completion: repair the first deficient cover by single
    increments, capped at k per coordinate (truncating any exponent to k
    never leaves the solution set, so minimal vectors stay below the cap).
    Visited states are memoized; minimality is the local test that every
    positive coordinate sits on some cover that is tight at k.
    """
    start = (0,) * n
    seen = set()
    sols = []
    stack = [start]
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        deficient = next((cov for cov in covers if sum(e[v] for v in cov) < k), None)
        if deficient is None:
            sols.append(e)
            continue
        for v in deficient:
            if e[v] < k:
                stack.append(e[:v] + (e[v] + 1,) + e[v + 1:])
    out = []
    for e in sols:
        minimal = True
        for v in range(n):
            if e[v] and not any(v in cov and sum(e[u] for u in cov) == k for cov in covers):
                minimal = False
                break
        if minimal:
            out.append(e)
    return out


def symbolic_power_scan(n, edge_sets, k):
    """k-th symbolic power as the intersection of the minimal-cover prime powers."""
    acc = None
    for cov in minimal_covers_scan(n, edge_sets):
        pk = prime_power(cov, k, n)
        acc = pk if acc is None else intersect(acc, pk)
    return acc


def antichain(edges):
    """The inclusion-minimal sets among edges, as sorted tuples in sorted order."""
    sets = {frozenset(e) for e in edges}
    return tuple(sorted(tuple(sorted(e)) for e in sets if not any(f < e for f in sets)))


def random_clutter(rng, n, sizes=None):
    """The edges of a random clutter on n vertices (possibly none, never empty).

    Each drawn edge has a size chosen from ``sizes``, by default 1..n-1.
    """
    m = rng.randint(0, 2 * n)
    sizes = sizes or range(1, max(1, n - 1) + 1)
    return antichain(rng.sample(range(n), rng.choice(sizes)) for _ in range(m))


def ghouila_houri_check(rows):
    """Total unimodularity by the Ghouila-Houri criterion.

    Every subset of rows must admit a +-1 signing whose signed column sums
    all lie in {-1, 0, 1}. Applied to the transpose when that side is
    smaller; exponential, so only suitable for small matrices.
    """
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    for r in range(1, len(rows) + 1):
        for subset in combinations(rows, r):
            if not _signable(subset):
                return False
    return True


def _signable(rows):
    first, rest = rows[0], rows[1:]
    for mask in range(1 << len(rest)):
        sums = list(first)
        for i, row in enumerate(rest):
            s = 1 if mask >> i & 1 else -1
            for j, x in enumerate(row):
                sums[j] += s * x
        if all(-1 <= s <= 1 for s in sums):
            return True
    return False


def tu_witness_scan(rows):
    """The first square submatrix whose determinant is outside {0, +-1}.

    Unpruned: sizes k upward, then row sets, then column sets, each in
    lexicographic order, every submatrix by cofactor expansion. Returns
    None when every subdeterminant is in {0, +-1}, else (rows, cols, det).
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    for k in range(1, min(m, n) + 1):
        for rset in combinations(range(m), k):
            for cset in combinations(range(n), k):
                d = cofactor_det([[rows[i][j] for j in cset] for i in rset])
                if d not in (-1, 0, 1):
                    return rset, cset, d
    return None


def gauss_rank(rows):
    """Rank by Gaussian elimination over exact Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def vertex_witness_scan(n, edge_sets, coords):
    """The TU witness that a fractional vertex of Q(A) implies, as (rows, cols, det).

    The columns are the support of coords. The rows are the covering rows
    tight at coords, taken in index order while each stays linearly
    independent on the support, until there are as many as columns. The
    determinant is by cofactor expansion.
    """
    cols = [j for j in range(n) if coords[j]]
    rows = []
    for i, e in enumerate(edge_sets):
        if len(rows) == len(cols):
            break
        if sum(coords[j] for j in e) == 1:
            trial = [[int(j in edge_sets[r]) for j in cols] for r in rows + [i]]
            if gauss_rank(trial) == len(trial):
                rows.append(i)
    block = [[int(j in edge_sets[i]) for j in cols] for i in rows]
    return tuple(rows), tuple(cols), cofactor_det(block)


def pattern_vertex_hits(n, edge_sets):
    """Every (q, S) at which 1/q on S and 0 off it is a vertex of Q(A).

    Search order: |S| from 2, then q from 2 to |S|, then S in combinations
    order, with one weight list per S. S is a hit at q when every edge
    meets S at least q times and the edges meeting it exactly q times have
    rank |S| on S.
    """
    es = [set(e) for e in edge_sets]
    for s in range(2, n + 1):
        supports = []
        for S in combinations(range(n), s):
            ss = set(S)
            supports.append((S, [len(e & ss) for e in es]))
        for q in range(2, s + 1):
            for S, weights in supports:
                if any(w < q for w in weights):
                    continue
                tight = [e for e, w in zip(es, weights) if w == q]
                if gauss_rank([[int(j in e) for j in S] for e in tight]) == s:
                    yield q, S


def pattern_vertex_scan(n, edge_sets):
    """The first pattern vertex as (coords, tight_rows), or None.

    The tight rows are the edges meeting S exactly q times, ascending, then
    m + j for each coordinate j off S.
    """
    hit = next(pattern_vertex_hits(n, edge_sets), None)
    if hit is None:
        return None
    q, S = hit
    coords = tuple(Fraction(1, q) if j in S else Fraction(0) for j in range(n))
    tight = [i for i, e in enumerate(edge_sets) if len(set(e).intersection(S)) == q]
    tight += [len(edge_sets) + j for j in range(n) if j not in S]
    return coords, tuple(tight)


def exact_solve(rows, rhs):
    """The unique solution of a square integer system, as exact Fractions,
    or None when the system is singular.

    Gauss-Jordan elimination by integer cross-multiplication: no division
    until each diagonal entry divides its right-hand side at the end.
    """
    size = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next((i for i in range(col, size) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        lead = prow[col]
        for i in range(size):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [a * lead - f * b for a, b in zip(aug[i], prow)]
    return [Fraction(row[size], row[i]) for i, row in enumerate(aug)]


def covering_vertices_scan(n, edge_sets):
    """Every vertex of Q(A) = {x >= 0, Ax >= 1} once, as (coords, tight_rows).

    Bases are visited with the most zero coordinates first, then the zero
    set and the covering-row set each in combinations order; a vertex is
    yielded at the first basis whose system solves to it. The tight rows
    are the covering rows with <A_i, x> = 1, ascending, then m + j for each
    zero coordinate j.
    """
    es = [set(e) for e in edge_sets]
    m = len(es)
    seen = set()
    for zeros in range(n, -1, -1):
        size = n - zeros
        if size > m:
            continue
        for zset in combinations(range(n), zeros):
            live = [j for j in range(n) if j not in zset]
            for tset in combinations(range(m), size):
                sol = exact_solve([[int(j in es[i]) for j in live] for i in tset], [1] * size)
                if sol is None or any(v < 0 for v in sol):
                    continue
                coords = [Fraction(0)] * n
                for j, v in zip(live, sol):
                    coords[j] = v
                coords = tuple(coords)
                sums = [sum(coords[j] for j in e) for e in es]
                if coords in seen or any(s < 1 for s in sums):
                    continue
                seen.add(coords)
                tight = [i for i, s in enumerate(sums) if s == 1]
                tight += [m + j for j in range(n) if coords[j] == 0]
                yield coords, tuple(tight)
