"""Monomial ideals of clutters: power membership, symbolic powers, torsion-freeness.

Monomials are exponent tuples. Symbolic powers of a square-free monomial
ideal are computed by direct enumeration of the minimal exponent vectors
whose degree sum over every minimal cover reaches k; the test suite checks
them against the defining intersection of powers of minimal-cover primes.
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
from typing import Iterable, Iterator, Optional, Sequence

from .clutters import Clutter, _row, minimal_covers

Monomial = tuple[int, ...]


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def format_monomial(a: Monomial) -> str:
    parts = []
    for i, e in enumerate(a):
        if e == 0:
            continue
        name = f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def minimalize_generators(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Unique minimal generating set: drop every multiple of another generator."""
    uniq = sorted(set(gens), key=lambda g: (sum(g), g))
    kept: list[Monomial] = []
    for g in uniq:
        dg = sum(g)
        if not any(divides(h, g) for h in kept if sum(h) < dg):
            kept.append(g)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its unique minimal generating set."""

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.n:
                raise ValueError("generator arity must match the variable count")
            if any(e < 0 for e in g):
                raise ValueError("exponents must be nonnegative")
        norm = minimalize_generators(self.gens)
        if norm != self.gens:
            raise ValueError("generators are not a minimal generating set")

    @property
    def is_zero(self) -> bool:
        return not self.gens


def edge_ideal(c: Clutter) -> MonomialIdeal:
    """Square-free generator per hyperedge; the empty clutter gives (0)."""
    gens = [tuple(_row(e, range(c.n))) for e in c.masks]
    return MonomialIdeal(c.n, tuple(sorted(gens)))


def cover_degree(a: Monomial, covers: Sequence[tuple[int, ...]]) -> int:
    """Least a-degree of a minimal cover: x^a is in I^(k) exactly when it is >= k."""
    return min(sum(a[v] for v in cov) for cov in covers)


def _minimal_cover_vectors(covers: Sequence[tuple[int, ...]], k: int, n: int) -> list[Monomial]:
    """Minimal exponent vectors with degree sum >= k on every cover.

    Depth-first completion: repair the first deficient cover by single
    increments, capped at k per coordinate (truncating any exponent to k
    never leaves the solution set, so minimal vectors stay below the cap).
    Visited states are memoized; minimality is the local test that every
    positive coordinate sits on some cover that is tight at k.
    """
    start = (0,) * n
    seen: set[Monomial] = set()
    sols: list[Monomial] = []
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


def member_of_power(m: Monomial, I: MonomialIdeal, k: int) -> bool:
    """Does some product of k generators (with repetition) divide m?

    Depth-first over generators with divisibility and degree pruning, on an
    explicit stack of lazy iterators that expands each (rest, depth) state once.
    """
    if k < 1:
        raise ValueError("power exponent must be positive")
    if I.is_zero:
        return False
    if len(m) != I.n:
        raise ValueError("monomial arity mismatch")
    gens = I.gens
    min_deg = min(sum(g) for g in gens)

    def children(rem: Monomial, depth: int) -> Iterator[tuple[Monomial, int]]:
        if sum(rem) >= depth * min_deg:
            for g in gens:
                if divides(g, rem):
                    yield tuple(r - x for r, x in zip(rem, g)), depth - 1

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
    k edge generators. The first one that does not is the certificate.
    The empty clutter and k < 1 raise ValueError, as for symbolic_power.
    """
    I = edge_ideal(c)
    return next((g for g in symbolic_power(c, k).gens if not member_of_power(g, I, k)), None)


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


def is_normally_torsion_free(c: Clutter) -> NtfResult:
    """Exact decision via power equality for k = 2 .. ceil(mu/2)."""
    mu = c.m
    bound = (mu + 1) // 2
    for k in range(2, bound + 1):
        violation = powers_equal(c, k)
        if violation is not None:
            return NtfResult(False, mu, bound, tuple(range(2, k + 1)), violation)
    return NtfResult(True, mu, bound, tuple(range(2, bound + 1)))
