"""Monomial ideals of clutters: power membership, symbolic powers, torsion-freeness.

Monomials are exponent tuples. The edge ideal I of a clutter has no
container of its own: the clutter's edges are its square-free generators,
and membership in I^k searches over c.edges directly. Only a symbolic
power is built, as a MonomialIdeal record, by direct enumeration of the
minimal exponent vectors whose degree sum over every minimal cover
reaches k. The search packs each state into two integers, the exponent
vector and the cover sums with a flag bit per cover, so finding the first
deficient cover is one addition and a mask; one monotone prune drops
every state whose extensions are all non-minimal, and it doubles as the
minimality test. The test suite checks the generators against the
defining intersection of powers of minimal-cover primes and against the
plain tuple search it replaced.
The headline operation decides I^k = I^(k) for k up to ceil(mu/2), which
settles the normally-torsion-free question, and with it the Mengerian one,
exactly: powers_equal returns the first generator of I^(k) outside I^k,
or None, and a refuted NtfResult carries it for k = checked_k[-1]. That
violation is also a gap in the min-max equation: on the cost vector of its
exponents, cover_degree (the weighted cover minimum) reaches k, while fewer
than k edges pack under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .clutters import Clutter, minimal_covers

Monomial = tuple[int, ...]


def format_monomial(a: Monomial) -> str:
    parts = []
    for i, e in enumerate(a):
        if e == 0:
            continue
        name = f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal by its minimal generators; symbolic_power builds it."""

    n: int
    gens: tuple[Monomial, ...]


def cover_degree(a: Monomial, covers: Sequence[tuple[int, ...]]) -> int:
    """Least a-degree of a minimal cover: x^a is in I^(k) exactly when it is >= k."""
    return min(sum(a[v] for v in cov) for cov in covers)


def _minimal_cover_vectors(covers: Sequence[tuple[int, ...]], k: int, n: int) -> list[Monomial]:
    """Minimal exponent vectors with degree sum >= k on every cover.

    Depth-first completion: repair the first deficient cover by single
    increments. A state is two packed integers: the exponent vector, with
    k.bit_length() bits per coordinate, and the cover sums, one field of
    (n*k).bit_length() + 1 bits per cover whose top bit is a flag. Raising
    coordinate v adds its precomputed word to each. A field's flag in
    S + (top - k)*ones is set when that cover reaches k, so the first
    deficient cover is the lowest clear flag; in S + (top - k - 1)*ones it
    is set when the cover exceeds k. A coordinate on a deficient cover is
    below k, so no exponent passes k and no field overflows.

    One monotone prune: a state with a positive coordinate whose covers
    all exceed k has no minimal extension, since sums only grow, and is
    dropped. The raised coordinate always keeps its repaired cover at or
    below k, so the test runs only when a raise lifts some cover past k.
    At a solution it is the minimality test, so every solution is minimal.
    """
    b = k.bit_length()
    w = (n * k).bit_length() + 1
    top = 1 << (w - 1)
    ones = sum(1 << i * w for i in range(len(covers)))
    flags = top * ones
    reach = (top - k) * ones
    exceed = reach - ones
    step = [0] * n
    for i, cov in enumerate(covers):
        for v in cov:
            step[v] |= 1 << i * w
    through = [word * top for word in step]
    # the lowest clear flag of cover i has bit_length (i + 1) * w
    raises = [()] + [tuple((1 << v * b, step[v], 1 << v) for v in cov) for cov in covers]
    seen = {0}
    sols = []
    stack = [(0, 0, 0)]  # exponent word, cover-sum word, mask of positive coordinates
    while stack:
        e, s, pos = stack.pop()
        short = ~(s + reach) & flags
        if not short:
            sols.append(e)
            continue
        loose = ~(s + exceed) & flags  # covers at or below k
        for unit, add, bit in raises[(short & -short).bit_length() // w]:
            child = e + unit
            if child in seen:
                continue
            seen.add(child)
            cs = s + add
            child_loose = ~(cs + exceed) & flags
            if child_loose != loose:
                q = pos
                while q:
                    u = q & -q
                    if not through[u.bit_length() - 1] & child_loose:
                        break
                    q ^= u
                if q:
                    continue
            stack.append((child, cs, pos | bit))
    mask = (1 << b) - 1
    return [tuple(e >> v * b & mask for v in range(n)) for e in sols]


def symbolic_power(c: Clutter, k: int) -> MonomialIdeal:
    """k-th symbolic power of the edge ideal of c.

    Enumerates the minimal exponent vectors whose degree sum over every
    minimal cover reaches k.
    """
    if c.is_empty:
        raise ValueError("the zero ideal has no symbolic powers here")
    if k < 1:
        raise ValueError("power exponent must be positive")
    gens = _minimal_cover_vectors(minimal_covers(c), k, c.n)
    return MonomialIdeal(c.n, tuple(sorted(gens)))


def member_of_power(m: Monomial, c: Clutter, k: int) -> bool:
    """Does some product of k edges of c (with repetition) divide m?

    An edge is a square-free generator, so it divides the rest r when r is
    positive on each of its vertices. Depth-first over c.edges with
    divisibility and degree pruning, on an explicit stack of lazy iterators
    that expands each (rest, depth) state once.
    """
    if k < 1:
        raise ValueError("power exponent must be positive")
    if c.is_empty:
        return False
    if len(m) != c.n:
        raise ValueError("monomial arity mismatch")
    min_deg = min(map(len, c.edges))

    def children(rem: Monomial, depth: int) -> Iterator[tuple[Monomial, int]]:
        if sum(rem) >= depth * min_deg:
            for e, mask in zip(c.edges, c.masks):
                if all(rem[v] for v in e):
                    yield tuple(r - (mask >> v & 1) for v, r in enumerate(rem)), depth - 1

    seen: set[tuple[Monomial, int]] = set()
    stack = [iter([(m, k)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif state not in seen:
            if state[1] == 0:
                return True
            seen.add(state)
            stack.append(children(*state))
    return False


def powers_equal(c: Clutter, k: int) -> Optional[Monomial]:
    """Decide I^k = I^(k): None when equal, else the first violating generator.

    The ordinary power always sits inside the symbolic one, so equality
    holds iff every minimal generator of the symbolic power factors into
    k edges of c. The first one that does not is the certificate.
    The empty clutter and k < 1 raise ValueError, as for symbolic_power.
    """
    return next((g for g in symbolic_power(c, k).gens if not member_of_power(g, c, k)), None)


@dataclass(frozen=True)
class NtfResult:
    """Verdict of the exact normally-torsion-free decision.

    normally_torsion_free is equivalent to the Mengerian property of the
    underlying clutter. checked_k lists the exponents whose power equality
    was tested; the bound ceil(mu/2) makes the finite check conclusive.
    violation, when set, is a generator of I^(k) outside I^k for the
    refuting k = checked_k[-1].
    """

    normally_torsion_free: bool
    mu: int
    bound: int
    checked_k: tuple[int, ...]
    violation: Optional[Monomial] = None


def power_bound(mu: int) -> int:
    """ceil(mu/2): power equality up to this k decides normal torsion-freeness."""
    return (mu + 1) // 2


def is_normally_torsion_free(c: Clutter) -> NtfResult:
    """Exact decision via power equality for k = 2 .. ceil(mu/2)."""
    mu = c.m
    bound = power_bound(mu)
    for k in range(2, bound + 1):
        violation = powers_equal(c, k)
        if violation is not None:
            return NtfResult(False, mu, bound, tuple(range(2, k + 1)), violation)
    return NtfResult(True, mu, bound, tuple(range(2, bound + 1)))
