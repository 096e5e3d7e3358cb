import pytest

from schur.formulas import (
    count_2p,
    count_3p,
    count_4p,
    count_5p,
    count_prime,
    count_semiprime,
    count_semiprime_split,
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    four_p_factor,
    is_prime,
    semiprime_factors,
    subgroup_lattice_size,
    two_adic_split,
)

from _reference import count_semiprime_split_2j

PRIMES_TO_500 = [p for p in range(2, 500) if is_prime(p)]


def test_basic_multiplicative_functions():
    assert euler_phi(8) == 4
    assert euler_phi(1) == 1
    assert divisor_count(12) == 6
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert two_adic_split(12) == (2, 3)
    assert two_adic_split(1) == (0, 1)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_non_integers_are_refused():
    # each went through the arithmetic: count_semiprime(3.0, 7) gave 27.0, count_prime(7.0)
    # gave 4, subgroup_lattice_size(2, 1.5, 1) gave 6.5 and factorize(12.5) ((12.5, 1),)
    factorize(12), divisors(12)  # an int's cache entry does not answer for 12.0
    for call, args in (
        (count_semiprime, (3.0, 7)),
        (count_prime, (7.0,)),
        (subgroup_lattice_size, (2, 1.5, 1)),
        (subgroup_lattice_size, (2.0, 1, 1)),
        (factorize, (12.5,)),
        (factorize, (12.0,)),
        (divisors, (12.0,)),
        (is_prime, (7.0,)),
        (two_adic_split, (12.0,)),
    ):
        with pytest.raises(ValueError, match="expected an integer"):
            call(*args)


def test_factor_caches_are_bounded():
    for cached in (factorize, divisors):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


def test_prime_detection():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(91)


def test_semiprime_and_fourp_recognition():
    assert semiprime_factors(21) == (3, 7)
    assert semiprime_factors(9) is None
    assert semiprime_factors(12) is None
    assert four_p_factor(12) == 3
    assert four_p_factor(8) is None
    assert four_p_factor(100) is None


def test_count_prime():
    assert count_prime(3) == 2
    assert count_prime(7) == 4
    assert count_prime(2) == 1
    with pytest.raises(ValueError):
        count_prime(9)


def test_count_prime_is_divisor_count():
    for p in (3, 7):
        assert count_prime(p) == divisor_count(p - 1)


def test_count_semiprime_spot_values():
    assert count_semiprime(3, 7) == 27
    assert count_semiprime(7, 13) == 97
    assert count_semiprime(5, 13) == 67


def test_count_semiprime_rejects_bad_input():
    with pytest.raises(ValueError):
        count_semiprime(3, 3)
    with pytest.raises(ValueError):
        count_semiprime(4, 7)


def test_count_2p_3p_5p_4p_spot_values():
    assert count_2p(5) == 10
    assert count_2p(7) == 13
    assert count_3p(7) == 27
    assert count_5p(13) == 67
    assert count_5p(19) == 61
    assert count_4p(3) == 32
    assert count_4p(5) == 47
    assert count_4p(19) == 90


def test_specialization_exclusions():
    with pytest.raises(ValueError):
        count_2p(2)
    with pytest.raises(ValueError):
        count_3p(3)
    with pytest.raises(ValueError):
        count_5p(5)
    with pytest.raises(ValueError):
        count_4p(2)


def test_split_form_agrees_and_wrong_coefficient_detected():
    assert count_semiprime_split(3, 7) == 27
    assert count_semiprime_split(5, 13) == 67
    # the 2**j coefficient variant overcounts
    assert count_semiprime_split_2j(5, 13) == 79
    # odd parts of 7-1 and 13-1 are both 3, so the split form does not apply
    with pytest.raises(ValueError):
        count_semiprime_split(13, 7)


def test_specialization_coherence_to_1000():
    for p in PRIMES_TO_500:
        if p != 2 and 2 * p <= 1000:
            assert count_semiprime(2, p) == count_2p(p)
        if p not in (2, 3) and 3 * p <= 1000:
            assert count_semiprime(3, p) == count_3p(p)
        if p not in (2, 5) and 5 * p <= 1000:
            assert count_semiprime(5, p) == count_5p(p)


def test_fermat_prime_simplification():
    for p in (3, 5, 17):
        k, a = two_adic_split(p - 1)
        assert a == 1
        assert count_4p(p) == 15 * k + 17


SAFE_PRIMES_TO_200 = [7, 11, 23, 47, 59, 83, 107, 167, 179]


def test_safe_prime_constants():
    for p in SAFE_PRIMES_TO_200:
        assert is_prime(p) and is_prime((p - 1) // 2)
        assert count_2p(p) == 13
        assert count_3p(p) == 27
        assert count_5p(p) == 41
        assert count_4p(p) == 61
    for p in SAFE_PRIMES_TO_200:
        for q in SAFE_PRIMES_TO_200:
            if p < q:
                assert count_semiprime(p, q) == 53


def test_semiprime_count_is_the_prime_by_prime_lattice_product():
    # 7 - 1 = 2 * 3 and 13 - 1 = 2**2 * 3 over the shared support (2, 3)
    lattice = subgroup_lattice_size(2, 1, 2) * subgroup_lattice_size(3, 1, 1)
    wedges = 2 * divisor_count(6) * divisor_count(12)
    assert count_semiprime(7, 13) == lattice + wedges + 1 == 97
    # a prime dividing only one of p - 1, q - 1 enters with exponent 0 on the other side
    assert count_semiprime(7, 11) == (
        subgroup_lattice_size(2, 1, 1)
        * subgroup_lattice_size(3, 1, 0)
        * subgroup_lattice_size(5, 0, 1)
        + 2 * divisor_count(6) * divisor_count(10)
        + 1
    )


def test_fourp_count_from_its_two_adic_shape():
    # 13 - 1 = 2**2 * 3: k = 2, a = 3 and x = tau(12) = 6, a multiple of k + 1
    k, a = two_adic_split(12)
    x = divisor_count(12)
    assert (k, a, x) == (2, 3, 6)
    assert count_4p(13) == (15 * k + 14) * x // (k + 1) + 3 == 91


def test_closed_forms_refuse_bad_primes_by_name():
    with pytest.raises(ValueError, match="^4 and 7 must both be prime$"):
        count_semiprime(4, 7)
    with pytest.raises(ValueError, match="^p and q must be distinct$"):
        count_semiprime(7, 7)
    for count in (count_2p, count_4p):
        with pytest.raises(ValueError, match="^expected an odd prime, got 2$"):
            count(2)
        with pytest.raises(ValueError, match="^expected an odd prime, got 9$"):
            count(9)


def test_all_formula_outputs_positive():
    for p in PRIMES_TO_500[:20]:
        assert count_prime(p) >= 1
        if p > 2:
            assert count_2p(p) > 0
            assert count_4p(p) > 0


def test_inexact_division_raises():
    from schur.formulas import _divide_exactly

    assert _divide_exactly(12, 4) == 3
    with pytest.raises(ArithmeticError):
        _divide_exactly(13, 4)
