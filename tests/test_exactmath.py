"""Exact scalar layer: quadratic extension arithmetic and finite fields."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from srgta import exactmath
from srgta.exactmath import (
    DEFAULT_PRIMES,
    DegreeZero,
    FiniteField,
    NotPrime,
    QuadExt,
    SizeGuardExceeded,
    TrivialField,
    _is_irreducible,
    _squarefree_split,
    gf_construct,
    gf_primitive_element,
    is_prime,
    prime_power,
    srg_eigenvalues,
    srg_multiplicities,
)

#: psi_12 and psi_13: the least odd composites that are strong pseudoprimes
#: to the first 12 and to the first 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


@pytest.fixture(scope="module")
def sympy():
    """The differential oracle; tests that use it skip without it."""
    return pytest.importorskip("sympy")

# a small panel of feasible primitive parameter sets used across the file
PARAM_PANEL = [
    (5, 2, 0, 1),
    (10, 3, 0, 1),
    (13, 6, 2, 3),
    (16, 5, 0, 2),
    (16, 6, 2, 2),
    (27, 10, 1, 5),
    (35, 16, 6, 8),
    (36, 14, 4, 6),
    (50, 7, 0, 1),
    (100, 22, 0, 6),
]


def test_prime_power_decomposition():
    assert prime_power(9) == (3, 2)
    assert prime_power(32) == (2, 5)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_power(0) is None


def test_is_prime_rejects_strong_pseudoprimes():
    # each passes Miller-Rabin for a prefix of the bases 2, 3, 5, ...:
    # 2047 for 2, 3215031751 for 2..7, 3825123056546413051 for 2..29 and
    # psi_12 for 2..37, so only base 41 rejects it
    for n in (2047, 3215031751, 3825123056546413051, PSI_12):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2147483659)
    assert not is_prime(2**61 + 1)


def test_is_prime_refuses_to_guess_at_psi_13():
    with pytest.raises(SizeGuardExceeded, match="proven exact only below"):
        is_prime(PSI_13)
    with pytest.raises(SizeGuardExceeded):
        is_prime(PSI_13 + 1)
    assert not is_prime(PSI_13 - 1)


def test_prime_power_of_large_prime_bases():
    p = 1000003
    assert prime_power(p**3) == (p, 3)
    assert prime_power(p**2 * 1000033) is None
    assert prime_power(3**60) == (3, 60)  # past psi_13, but 3 divides it
    assert prime_power(1000003 * 1000033) is None
    # perfect powers whose base has no prime factor up to 41
    assert prime_power(43**6) == (43, 6)
    assert prime_power((43 * 47) ** 2) is None
    assert prime_power((43 * 43 * 47) ** 3) is None
    assert prime_power((1000003 * 1000033) ** 2) is None


def test_is_prime_and_prime_power_match_sympy_below_2e5(sympy):
    limit = 200_000
    primes = list(sympy.primerange(limit))
    expected = {}
    for p in primes:
        q, k = p, 1
        while q < limit:
            expected[q] = (p, k)
            q, k = q * p, k + 1
    prime_set = set(primes)
    for n in range(limit):
        assert is_prime(n) == (n in prime_set), n
        assert prime_power(n) == expected.get(n), n


def test_is_prime_and_prime_power_match_sympy_on_20_to_80_bit_integers(sympy):
    # random odd integers, and beside each a prime, a prime power, three
    # times that power and a product of two consecutive primes
    rng = random.Random(2017)
    for _ in range(2000):
        n = rng.getrandbits(rng.randint(20, 80)) | 1
        p = int(sympy.nextprime(rng.getrandbits(rng.randint(6, 39))))
        k = rng.randint(1, 78 // p.bit_length())
        for m in (n, p, p**k, p**k * 3, p * int(sympy.nextprime(p))):
            assert is_prime(m) == sympy.isprime(m), m
            # perfect_power gives the largest exponent, so a prime power's base is prime
            base, e = sympy.perfect_power(m) or (m, 1)
            want = (int(base), int(e)) if sympy.isprime(base) else None
            assert prime_power(m) == want, m


def _split_by_sympy(sympy, n):
    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= int(p) ** (e // 2)
        d *= int(p) ** (e % 2)
    return s, d


def test_squarefree_split_matches_sympy_below_5e4(sympy):
    for n in range(1, 50_000):
        assert _squarefree_split(n) == _split_by_sympy(sympy, n), n


@pytest.mark.parametrize("p,q", [(1000003, 1000033), (65537, 3)])
def test_squarefree_split_past_the_cube_root(sympy, p, q):
    # trial division stops at the cube root of what is left, so the cofactor
    # is p*p, p*q or, for p*p*q, p*p once q is divided out
    assert _squarefree_split(p * p) == (p, 1)
    assert _squarefree_split(p * q) == (1, p * q)
    assert _squarefree_split(p * p * q) == (p, q)
    assert _squarefree_split(q * q * p) == (q, p)
    for n in (p * p, p * q, p * p * q, q * q * p, 4 * p * p * q):
        assert _squarefree_split(n) == _split_by_sympy(sympy, n), n


def test_squarefree_split_refuses_radicands_from_2_to_the_64():
    assert _squarefree_split(2**64 - 1) == (1, 2**64 - 1)
    with pytest.raises(SizeGuardExceeded):
        _squarefree_split(2**64)


def test_default_primes_are_prime_and_distinct():
    p, q = DEFAULT_PRIMES
    assert p != q
    assert is_prime(p) and is_prime(q)
    assert p < 2**20 and q < 2**20


# -- QuadExt ----------------------------------------------------------------

def test_quadext_canonical_radicand():
    assert QuadExt.sqrt_of(8) == QuadExt(0, 2, 2)
    assert QuadExt.sqrt_of(9) == QuadExt.of(3)
    assert QuadExt.sqrt_of(12) == QuadExt(0, 2, 3)
    # a zero irrational part collapses to the rational form d=1
    assert QuadExt(Fraction(3), Fraction(0), 5).d == 1


def test_quadext_repr_forms():
    assert repr(QuadExt.of(Fraction(-5))) == "-5"
    assert repr(QuadExt(Fraction(-1, 2), Fraction(1, 2), 5)) == "-1/2+1/2*sqrt(5)"
    assert repr(QuadExt(Fraction(-1, 2), Fraction(-1, 2), 13)) == "-1/2-1/2*sqrt(13)"


def test_quadext_rational_accessors():
    x = QuadExt.of(Fraction(7, 2))
    assert x.is_rational
    assert x.as_fraction() == Fraction(7, 2)
    with pytest.raises(ValueError):
        x.as_int()
    with pytest.raises(ValueError):
        QuadExt.sqrt_of(2).as_fraction()
    assert QuadExt.of(4).as_int() == 4


def test_quadext_exact_ordering():
    sqrt2 = QuadExt.sqrt_of(2)
    assert QuadExt.of(Fraction(7, 5)) < sqrt2 < QuadExt.of(Fraction(3, 2))
    # 99/70 is a convergent of sqrt(2); floats cannot tell these apart reliably
    assert sqrt2 < QuadExt.of(Fraction(99, 70))
    assert (sqrt2 * sqrt2 - 2).sign() == 0


def test_quadext_incompatible_radicands():
    with pytest.raises(ValueError):
        QuadExt.sqrt_of(2) + QuadExt.sqrt_of(3)
    with pytest.raises(ValueError):
        QuadExt.sqrt_of(2) * QuadExt.sqrt_of(3)


small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
radicands = st.sampled_from([2, 3, 5, 7, 13, 17])


@st.composite
def quadext_values(draw):
    return QuadExt(draw(small_fractions), draw(small_fractions), draw(radicands))


@given(quadext_values(), quadext_values())
def test_quadext_sign_matches_float(x, y):
    # products and differences within one extension field, checked against a
    # float evaluation that is far from the rounding boundary at these sizes
    if x.d != y.d and not (x.is_rational or y.is_rational):
        y = QuadExt(y.a, y.b, x.d)
    z = x * y - y
    approx = float(z)
    if abs(approx) > 1e-6:
        assert z.sign() == (1 if approx > 0 else -1)


@given(quadext_values(), quadext_values(), quadext_values())
def test_quadext_ring_axioms(x, y, z):
    d = x.d if not x.is_rational else (y.d if not y.is_rational else z.d)
    x, y, z = (QuadExt(v.a, v.b, d) for v in (x, y, z))
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x - x == QuadExt.of(0)


@given(quadext_values())
def test_quadext_inverse_roundtrip(x):
    if x.sign() == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == QuadExt.of(1)
        assert (x**3) * (x**-3) == QuadExt.of(1)


# -- eigenvalues and multiplicities -------------------------------------------

def test_eigenvalue_examples():
    assert srg_eigenvalues(10, 3, 0, 1) == (QuadExt.of(1), QuadExt.of(-2))
    assert srg_eigenvalues(27, 10, 1, 5) == (QuadExt.of(1), QuadExt.of(-5))
    theta, tau = srg_eigenvalues(5, 2, 0, 1)
    half = Fraction(1, 2)
    assert theta == QuadExt(-half, half, 5)
    assert tau == QuadExt(-half, -half, 5)


@pytest.mark.parametrize("n,k,lam,mu", PARAM_PANEL)
def test_eigenvalues_solve_quadratic(n, k, lam, mu):
    theta, tau = srg_eigenvalues(n, k, lam, mu)
    assert theta > tau
    assert theta + tau == QuadExt.of(lam - mu)
    assert theta * tau == QuadExt.of(mu - k)


def test_multiplicity_examples():
    assert srg_multiplicities(10, 3, 0, 1) == (5, 4)
    assert srg_multiplicities(27, 10, 1, 5) == (20, 6)
    assert srg_multiplicities(16, 5, 0, 2) == (10, 5)
    assert srg_multiplicities(13, 6, 2, 3) == (6, 6)


@pytest.mark.parametrize("n,k,lam,mu", PARAM_PANEL)
def test_multiplicities_trace_conditions(n, k, lam, mu):
    m1, m2 = srg_multiplicities(n, k, lam, mu)
    theta, tau = srg_eigenvalues(n, k, lam, mu)
    assert m1 + m2 == n - 1
    assert QuadExt.of(k) + m1 * theta + m2 * tau == QuadExt.of(0)


# -- finite fields ------------------------------------------------------------

def test_gf9_modulus_is_least_irreducible():
    f = gf_construct(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1, coefficients ascending


def test_gf8_modulus():
    assert gf_construct(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, (1, 1, 1)),  # x^2 + x + 1
    (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    (5, 2, (2, 0, 1)),  # x^2 + 2
    (3, 3, (1, 2, 0, 1)),  # x^3 + 2x + 1
    (7, 2, (1, 0, 1)),  # x^2 + 1
])
def test_small_field_moduli(p, k, modulus):
    assert gf_construct(p, k).modulus == modulus


def _sympy_irreducible(sympy, coeffs, p):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    # sympy wants dense descending coefficients, leading one first
    return gf_irreducible_p([ZZ(c) for c in reversed(coeffs)], p, ZZ)


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (5, 3), (7, 3), (11, 2), (13, 2)])
def test_irreducibility_matches_sympy_on_every_monic_polynomial(sympy, p, k):
    for degree in range(1, k + 1):
        for low in product(range(p), repeat=degree):
            f = low + (1,)
            assert _is_irreducible(f, p) == _sympy_irreducible(sympy, f, p), f


def test_least_irreducible_matches_sympy_for_fields_up_to_4096(sympy):
    for q in range(4, 4097):
        pk = prime_power(q)
        if pk is None or pk[1] == 1:
            continue
        p, k = pk
        field = gf_construct(p, k)
        modulus = field.modulus
        assert _sympy_irreducible(sympy, modulus, p), (q, modulus)
        index = field._undigits(modulus[:-1])
        for m in range(index):
            assert not _sympy_irreducible(sympy, tuple(field._digits(m)) + (1,), p), (q, m)


def test_primitive_element_factors_group_order_once(monkeypatch):
    calls = []
    factor = exactmath._prime_factors
    monkeypatch.setattr(exactmath, "_prime_factors", lambda n: calls.append(n) or factor(n))
    f = FiniteField(4099, 1)  # above the table threshold: no exp/log tables
    assert f.primitive_element() == 2
    assert calls == [4098]


def test_gf_construct_guards():
    with pytest.raises(NotPrime):
        gf_construct(4, 1)
    with pytest.raises(DegreeZero):
        gf_construct(3, 0)


@pytest.mark.parametrize("raw", ["abc", "", "1e3", "12.5"])
def test_malformed_size_guard_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("SRGTA_SIZE_GUARD", raw)
    with pytest.raises(SizeGuardExceeded, match=f"^SRGTA_SIZE_GUARD={raw!r} is not an integer$"):
        exactmath.guard_limit(100)
    with pytest.raises(SizeGuardExceeded, match="SRGTA_SIZE_GUARD"):
        gf_construct(13)


def test_primitive_element_examples():
    assert gf_primitive_element(gf_construct(5)) == 2
    # in GF(9) the element x+1 encodes as 1 + 1*3 = 4
    f9 = gf_construct(3, 2)
    assert gf_primitive_element(f9) == 4
    assert f9.element_order(4) == 8
    with pytest.raises(TrivialField):
        gf_primitive_element(gf_construct(2))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_multiplicative_group_cyclic(p, k):
    f = gf_construct(p, k)
    g = f.primitive_element()
    assert f.element_order(g) == f.q - 1
    seen = set()
    e = 1
    for _ in range(f.q - 1):
        seen.add(e)
        e = f.mul(e, g)
    assert seen == set(range(1, f.q))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    f = gf_construct(p, k)
    els = list(f.elements())
    for a, b in product(els, repeat=2):
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
        assert f.sub(f.add(a, b), b) == a
    for a, b, c in product(els, repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els[1:]:
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1


def test_zero_arithmetic():
    f = gf_construct(2, 4)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.element_order(0)
