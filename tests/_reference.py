"""Reference computations that only the tests use.

_class_product is the class-sum product the axiom checker once worded its
violations with; the reference checker, the brute-force reference search and
the signature-kernel test check against it. count_semiprime_split_2j is the overcounting 2**j
variant of the split semiprime form, kept to show that the split form's
phi(2**j) coefficient matters.
"""

from typing import Sequence

from schur.formulas import divisor_count, two_adic_split


def _class_product(
    a: Sequence[int], b: Sequence[int], n: int, labels: Sequence[int], sizes: Sequence[int]
) -> tuple[dict[int, int], int]:
    """The product of two class sums in Z_n, and the first class it is not constant on.

    Returns the coefficient of each residue on the product's support, in
    first-hit order, and the label of the first class whose coefficients
    differ (scanning the support in that order), or -1 if there is none.
    labels[g] is the label of g's class and sizes[c] the size of class c.
    Only the support is scanned, so a pair costs O(|a||b|) whatever n is.
    """
    acc: dict[int, int] = {}
    for x in a:
        for y in b:
            g = (x + y) % n
            acc[g] = acc.get(g, 0) + 1
    hits: dict[int, list[int]] = {}
    for g, v in acc.items():
        c = labels[g]
        rec = hits.get(c)
        if rec is None:
            hits[c] = [v, 1]
        elif rec[0] != v:
            return acc, c
        else:
            rec[1] += 1
    # a class only partially covered by the support mixes a zero
    # coefficient with a positive one
    for c, (_, count) in hits.items():
        if count != sizes[c]:
            return acc, c
    return acc, -1


def count_semiprime_split_2j(p: int, q: int) -> int:
    """count_semiprime_split with 2**j in place of phi(2**j) in the j-th summand.

    A plausible-looking variant that overcounts: 79 instead of 67 at p=5, q=13.
    """
    k, _ = two_adic_split(p - 1)
    ell, _ = two_adic_split(q - 1)
    bracket = 3 * (k + 1) * (ell + 1)
    for j in range(1, min(k, ell) + 1):
        bracket += 2**j * (k - j + 1) * (ell - j + 1)
    return bracket * divisor_count(p - 1) * divisor_count(q - 1) // ((k + 1) * (ell + 1)) + 1
