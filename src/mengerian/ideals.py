"""Monomial ideals of clutters: power membership, symbolic powers, torsion-freeness.

Monomials are exponent tuples. The edge ideal I of a clutter has no
container of its own: the clutter's edges are its square-free generators.
x^m lies in I^k exactly when k edges, with repetition, pack under the
capacity m, so membership is the packing search of clutters, the one
behind nu. Only a symbolic power is built, as a MonomialIdeal record: its
generators are the minimal exponent vectors whose degree sum over every
minimal cover reaches k, found by the transversal kernel of clutters,
the one behind minimal_covers. The test suite checks the generators
against the defining intersection of powers of minimal-cover primes and
against the plain tuple search the kernel replaced.
The headline operation decides I^k = I^(k) for k up to ceil(mu/2), which
settles the normally-torsion-free question, and with it the Mengerian one,
exactly: powers_equal returns the first generator of I^(k) outside I^k,
or None, and a refuted NtfResult carries it for k = checked_k[-1]. That
violation is also a gap in the min-max equation: on the cost vector of its
exponents, cover_degree (the weighted cover minimum) reaches k, while fewer
than k edges pack under it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .clutters import Clutter, _mask, _minimal_cover_vectors, _pack, minimal_covers

Monomial = tuple[int, ...]


def format_monomial(a: Monomial) -> str:
    parts = []
    for i, e in enumerate(a):
        if e == 0:
            continue
        name = f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class MonomialIdeal(NamedTuple):
    """Monomial ideal by its minimal generators; symbolic_power builds it."""

    n: int
    gens: tuple[Monomial, ...]


def cover_degree(a: Monomial, covers: Sequence[tuple[int, ...]]) -> int:
    """Least a-degree of a minimal cover: x^a is in I^(k) exactly when it is >= k."""
    return min(sum(a[v] for v in cov) for cov in covers)


def symbolic_power(c: Clutter, k: int) -> MonomialIdeal:
    """k-th symbolic power of the edge ideal of c.

    Enumerates, with the transversal kernel of clutters, the minimal
    exponent vectors whose degree sum over every minimal cover reaches k.
    """
    if c.is_empty:
        raise ValueError("the zero ideal has no symbolic powers here")
    if k < 1:
        raise ValueError("power exponent must be positive")
    gens = _minimal_cover_vectors(minimal_covers(c), k, c.n)
    return MonomialIdeal(c.n, tuple(sorted(gens)))


def member_of_power(m: Monomial, c: Clutter, k: int) -> bool:
    """Does some product of k edges of c (with repetition) divide m?

    The packing search of clutters at capacity m, stopped as soon as k
    edges pack; it walks the edges on an explicit stack, so its depth
    grows with neither k nor the exponents. No exponent above k matters,
    so the capacity layers stop at k.
    """
    if k < 1:
        raise ValueError("power exponent must be positive")
    if c.is_empty:
        return False
    if len(m) != c.n:
        raise ValueError("monomial arity mismatch")
    layers = [_mask(v for v, a in enumerate(m) if a > i) for i in range(min(max(m), k))]
    return _pack(c.masks, c.n, layers, k) >= k


def powers_equal(c: Clutter, k: int) -> Optional[Monomial]:
    """Decide I^k = I^(k): None when equal, else the first violating generator.

    The ordinary power always sits inside the symbolic one, so equality
    holds iff every minimal generator of the symbolic power factors into
    k edges of c. The first one that does not is the certificate.
    The empty clutter and k < 1 raise ValueError, as for symbolic_power.
    """
    return next((g for g in symbolic_power(c, k).gens if not member_of_power(g, c, k)), None)


class NtfResult(NamedTuple):
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
