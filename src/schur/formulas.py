"""Number-theoretic helpers and closed-form counts of Schur rings over Z_n.

All arithmetic is exact. Factorization is trial division, which is plenty at
the scales these formulas are evaluated at (well below 10**6).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from operator import index

__all__ = [
    "is_prime",
    "factorize",
    "divisors",
    "divisor_count",
    "euler_phi",
    "two_adic_split",
    "semiprime_factors",
    "four_p_factor",
    "subgroup_lattice_size",
    "count_prime",
    "count_semiprime",
    "count_semiprime_split",
    "count_2p",
    "count_3p",
    "count_5p",
    "count_4p",
]


def _integer(value: object) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def is_prime(m: int) -> bool:
    """Deterministic primality test by trial division."""
    if (m := _integer(m)) < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=4096, typed=True)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""
    if (m := _integer(m)) < 1:
        raise ValueError(f"cannot factorize {m}")
    out: list[tuple[int, int]] = []
    rest = m
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


@lru_cache(maxsize=4096, typed=True)
def divisors(m: int) -> tuple[int, ...]:
    """All positive divisors of m, ascending."""
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def divisor_count(m: int) -> int:
    return prod(e + 1 for _, e in factorize(m))


def euler_phi(m: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factorize(m))


def _unit_axes(n: int) -> list[tuple[int, int]]:
    """(order, generator) pairs whose generators give (Z/nZ)^x as a direct product.

    Per prime power p^e of n: a primitive root for odd p; -1, and 5 when
    e >= 3, for p = 2; each lifted by CRT to 1 mod n/p^e, then split into one
    axis (r^f, g^(m/r^f)) per r^f || its order m. Orders are prime powers, by prime.
    """
    axes = []
    for p, e in factorize(n):
        q, rest = p**e, n // p**e
        if p == 2:
            # -1 has order min(e, 2) mod 2^e
            local = [(min(e, 2), -1)] + ([(2 ** (e - 2), 5)] if e >= 3 else [])
        else:
            qs = [r for r, _ in factorize(p - 1)]
            g = next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in qs))
            # a primitive root mod p^2 is one mod every p^e; g + p is one if g is not
            local = [((p - 1) * q // p, g + p if pow(g, p - 1, p * p) == 1 else g)]
        for m, g in local:
            # x = g mod q and x = 1 mod rest
            x = 1 + rest * ((g - 1) * pow(rest, -1, q) % q)
            axes += [(r, r**f, pow(x, m // r**f, n)) for r, f in factorize(m)]
    return [(m, g) for _, m, g in sorted(axes)]


def two_adic_split(m: int) -> tuple[int, int]:
    """Write m = 2**k * a with a odd; returns (k, a)."""
    if (m := _integer(m)) < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    k = 0
    while m % 2 == 0:
        m //= 2
        k += 1
    return k, m


def semiprime_factors(n: int) -> tuple[int, int] | None:
    """Return (p, q) with p < q primes and n = p*q, or None."""
    f = factorize(n)
    if len(f) == 2 and f[0][1] == 1 and f[1][1] == 1:
        return f[0][0], f[1][0]
    return None


def four_p_factor(n: int) -> int | None:
    """Return the odd prime p when n = 4*p, else None."""
    if n % 4 == 0 and n // 4 > 2 and is_prime(n // 4):
        return n // 4
    return None


def subgroup_lattice_size(r: int, k: int, ell: int) -> int:
    """Number of subgroups of Z_{r^k} x Z_{r^ell} for a prime r."""
    r, k, ell = map(_integer, (r, k, ell))
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    if k < 0 or ell < 0:
        raise ValueError("exponents must be non-negative")
    return sum(
        euler_phi(r**j) * (k - j + 1) * (ell - j + 1)
        for j in range(min(k, ell) + 1)
    )


def count_prime(p: int) -> int:
    """Number of Schur rings over Z_p: the divisor count of p - 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return divisor_count(p - 1)


def count_semiprime(p: int, q: int) -> int:
    """Number of Schur rings over Z_pq for distinct primes p, q.

    The count splits as (number of subgroups of the unit group of Z_pq)
    + 2 * tau(p-1) * tau(q-1) wedge products + 1 trivial ring, with the
    subgroup lattice size evaluated prime by prime over the shared support
    of p - 1 and q - 1.
    """
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"{p} and {q} must both be prime")
    if p == q:
        raise ValueError("p and q must be distinct")
    fp, fq = dict(factorize(p - 1)), dict(factorize(q - 1))
    primes = sorted(fp.keys() | fq.keys())
    ks = [fp.get(r, 0) for r in primes]  # zero where r divides only q - 1
    ells = [fq.get(r, 0) for r in primes]
    lattice = prod(map(subgroup_lattice_size, primes, ks, ells))
    wedges = 2 * prod((k + 1) * (ell + 1) for k, ell in zip(ks, ells))
    return lattice + wedges + 1


def _divide_exactly(a: int, b: int) -> int:
    """a / b for a division the closed forms guarantee to be exact."""
    value, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return value


def count_semiprime_split(p: int, q: int) -> int:
    """Semiprime count via the 2-adic shapes p = 2**k*a + 1, q = 2**l*b + 1.

    Requires gcd(a, b) = 1. The j-th summand carries phi(2**j) = 2**(j-1).
    """
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ValueError(f"{p}, {q} must be distinct primes")
    k, a = two_adic_split(p - 1)
    ell, b = two_adic_split(q - 1)
    if gcd(a, b) != 1:
        raise ValueError(f"odd parts {a} and {b} must be coprime")
    x = divisor_count(p - 1)
    y = divisor_count(q - 1)
    bracket = 3 * (k + 1) * (ell + 1)
    for j in range(1, min(k, ell) + 1):
        bracket += euler_phi(2**j) * (k - j + 1) * (ell - j + 1)
    return bracket * _divide_exactly(x * y, (k + 1) * (ell + 1)) + 1


def _odd_prime_shape(p: int) -> tuple[int, int]:
    """(k, x) for an odd prime p: 2**k exactly divides p - 1, and x = tau(p - 1)."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"expected an odd prime, got {p}")
    return two_adic_split(p - 1)[0], divisor_count(p - 1)


def count_2p(p: int) -> int:
    """Number of Schur rings over Z_2p: 3*tau(p-1) + 1."""
    return 3 * _odd_prime_shape(p)[1] + 1


def count_3p(p: int) -> int:
    """Number of Schur rings over Z_3p for a prime p != 3."""
    if not is_prime(p) or p == 3:
        raise ValueError(f"expected a prime different from 3, got {p}")
    if p == 2:
        # p = 2 reduces to the 2p = 6 case counted the other way around
        return count_2p(3)
    k, x = _odd_prime_shape(p)
    return _divide_exactly((7 * k + 6) * x, k + 1) + 1


def count_5p(p: int) -> int:
    """Number of Schur rings over Z_5p for a prime p != 5."""
    if not is_prime(p) or p == 5:
        raise ValueError(f"expected a prime different from 5, got {p}")
    if p == 2:
        return count_2p(5)
    k, x = _odd_prime_shape(p)
    return _divide_exactly((13 * k + 7) * x, k + 1) + 1


def count_4p(p: int) -> int:
    """Number of Schur rings over Z_4p: ((15k + 14)/(k + 1)) * x + 3."""
    k, x = _odd_prime_shape(p)
    return _divide_exactly((15 * k + 14) * x, k + 1) + 3
