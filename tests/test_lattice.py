import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from twistsep.errors import PreconditionError, ValidationError
from twistsep.lattice import (Lattice, det, hnf, identity_matrix,
                              invariant_factors, inverse_unimodular,
                              isolator_index, kernel_basis,
                              kernel_with_construction, mat_mul, mat_vec,
                              p_power_preimage, rank, saturation, snf, solve,
                              transpose, xgcd)

SEED = 20240214


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_snf_diagonal_examples():
    S, U, V = snf([[2, 0], [0, 3]])
    assert [S[0][0], S[1][1]] == [1, 6]
    S, U, V = snf([[5, 0], [0, 5]])
    assert [S[0][0], S[1][1]] == [5, 5]
    # a diagonal input with a negative or a leading zero entry is still
    # signed and ordered
    for M, diagonal in (([[0, 0], [0, -1]], [1, 0]), ([[-6, 0], [0, 0]], [6, 0])):
        S, U, V = snf(M)
        assert mat_mul(mat_mul(U, M), V) == S
        assert det(U) in (1, -1) and det(V) in (1, -1)
        assert [S[0][0], S[1][1]] == diagonal and S[0][1] == S[1][0] == 0
        assert invariant_factors(M) == diagonal[:1]


def test_empty_and_degenerate_shapes():
    # empty shapes keep their rows: snf of a row with no columns included
    assert solve([], []) == []
    assert solve([[]], [1]) is None
    assert kernel_basis([[]]) == Lattice(0, [])
    assert snf([[]]) == ([[]], [[1]], [])
    assert rank([[0, 0]]) == 0
    with pytest.raises(ValidationError, match="not unimodular"):
        inverse_unimodular([[2]])


def test_hnf_identity_for_unimodular():
    H, U = hnf(identity_matrix(3))
    assert H == identity_matrix(3)


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_xgcd_invariant(a, b):
    x, y, g = xgcd(a, b)
    assert x * a + y * b == g
    assert g >= 0


def test_snf_hnf_roundtrip_random():
    rng = random.Random(SEED)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        M = random_matrix(rng, m, n)
        H, U = hnf(M)
        assert mat_mul(U, M) == H
        assert det(U) in (1, -1)
        S, Us, Vs = snf(M)
        assert mat_mul(mat_mul(Us, M), Vs) == S
        diag = [S[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a != 0 and b != 0:
                assert b % a == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0


def test_kernel_prime_columns_example():
    K = kernel_basis([[2, 0, 1], [0, 3, 1]])
    assert K.rank == 1
    v = K.rows[0]
    assert v in ([3, 2, -6], [-3, -2, 6])
    gens, max_entry = kernel_with_construction([[2, 0, 1], [0, 3, 1]])
    assert gens == [[3, 2, -6]]
    assert max_entry == 6


def test_kernel_is_nullspace_random():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        M = random_matrix(rng, m, n)
        K = kernel_basis(M)
        for row in K.rows:
            assert all(v == 0 for v in mat_vec(M, row))
        # rank-nullity over Q
        r = len(invariant_factors(M))
        assert K.rank == n - r


def test_zero_map_kernel_is_everything():
    K = kernel_basis([[0, 0], [0, 0]])
    assert K.rows == identity_matrix(2)


def test_saturation_examples():
    assert isolator_index(Lattice.from_rows(1, [(7,)])) == 7
    assert isolator_index(Lattice.from_rows(1, [(9,)])) == 9
    assert isolator_index(Lattice.from_rows(2, [(1, 12)])) == 1
    assert isolator_index(Lattice.from_rows(2, [(2, 0), (0, 3)])) == 6


def test_saturation_idempotent_random():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        L = Lattice.from_rows(n, random_matrix(rng, k, n, 6))
        S = saturation(L)
        assert saturation(S) == S
        assert isolator_index(S) == 1
        for row in L.rows:
            assert S.contains(row)


def test_reduce_is_canonical_modulo_the_lattice():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        n = rng.randint(1, 4)
        L = Lattice.from_rows(n, random_matrix(rng, rng.randint(0, n), n, 6))
        v = [rng.randint(-30, 30) for _ in range(n)]
        shifted = list(v)
        for row in L.rows:
            c = rng.randint(-5, 5)
            shifted = [a + c * b for a, b in zip(shifted, row)]
        r = L.reduce(v)
        assert L.reduce(shifted) == r == L.reduce(r)
        assert L.coordinates([a - b for a, b in zip(v, r)]) is not None
        assert L.contains(v) == (L.coordinates(v) is not None) == (not any(r))


def test_image_membership():
    assert solve([[2, 0], [0, 3]], [4, 3]) == [2, 1]
    assert solve([[2, 0], [0, 2]], [1, 0]) is None
    assert solve([[1, 0], [0, 1]], [0, 0]) == [0, 0]


def test_p_power_preimage_examples():
    f = [[2]]
    a = p_power_preimage(f, (2 ** 3,), 2, 2)
    assert mat_vec(f, a) == [8]
    assert a[0] % 4 == 0

    f = [[1, 0], [0, 2]]
    a = p_power_preimage(f, (4, 4), 2, 1)
    assert mat_vec(f, a) == [4, 4]
    assert all(v % 2 == 0 for v in a)

    uni = [[1, 1], [0, 1]]
    a = p_power_preimage(uni, (12, 4), 2, 2)
    assert mat_vec(uni, a) == [12, 4]
    assert all(v % 4 == 0 for v in a)


def test_p_power_preimage_distinguishes_errors():
    with pytest.raises(PreconditionError) as err:
        p_power_preimage([[2]], (3,), 2, 0)
    assert err.value.reason == "divisibility"
    # (0, 2) is 2-divisible but never in the image of g
    with pytest.raises(PreconditionError) as err:
        p_power_preimage([[2, 0], [0, 0]], (0, 2), 2, 0)
    assert err.value.reason == "membership"


def test_p_power_preimage_random_property():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        M = random_matrix(rng, 2, 2, 4)
        if det(M) == 0:
            continue
        p, k = rng.choice([(2, 1), (2, 2), (3, 1)])
        vp = 0
        d = isolator_index(Lattice.from_rows(2, transpose(M)))
        while d % p == 0:
            d //= p
            vp += 1
        src = [rng.randint(-5, 5) * p ** (k + vp) for _ in range(2)]
        b = mat_vec(M, src)
        if any(v % p ** (k + vp) for v in b):
            continue
        a = p_power_preimage(M, b, p, k)
        assert mat_vec(M, a) == b
        assert all(v % p ** k == 0 for v in a)


def test_cramer_agrees_with_image_membership():
    # Cramer's rule: a square M with det d != 0 has the unique rational
    # solution a_i = det(M_i) / d, M_i being M with column i replaced by b
    rng = random.Random(SEED + 5)
    for _ in range(80):
        M = random_matrix(rng, 3, 3, 5)
        d = det(M)
        if d == 0:
            continue
        b = [rng.randint(-20, 20) for _ in range(3)]
        minors = [det([row[:i] + [bi] + row[i + 1:] for row, bi in zip(M, b)])
                  for i in range(3)]
        integral = all(x % d == 0 for x in minors)
        s = solve(M, b)
        assert (s is None) == (not integral)
        if s is not None:
            assert s == [x // d for x in minors]
            assert mat_vec(M, s) == b


def sparse_matrix(rng, m, n, bound=6):
    return [[0 if rng.random() < 0.3 else rng.randint(-bound, bound)
             for _ in range(n)] for _ in range(m)]


def test_solve_returns_the_reduced_solution_random():
    rng = random.Random(SEED + 6)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        M = sparse_matrix(rng, m, n)
        if rng.random() < 0.5:
            b = mat_vec(M, [rng.randint(-5, 5) for _ in range(n)])
        else:
            b = [rng.randint(-8, 8) for _ in range(m)]
        a = solve(M, b)
        # the column lattice is the image: membership decides solvability
        assert (a is None) == (not Lattice.from_rows(m, transpose(M)).contains(b))
        if a is not None:
            assert mat_vec(M, a) == b
            assert list(kernel_basis(M).reduce(a)) == a


def test_isolator_index_is_the_product_of_invariant_factors_random():
    rng = random.Random(SEED + 7)
    for _ in range(300):
        n = rng.randint(1, 6)
        L = Lattice.from_rows(n, sparse_matrix(rng, rng.randint(0, 6), n))
        assert isolator_index(L) == math.prod(invariant_factors(L.rows))


def test_inverse_unimodular_random():
    rng = random.Random(SEED + 8)
    for _ in range(100):
        n = rng.randint(1, 5)
        M = identity_matrix(n)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                c = rng.randint(-3, 3)
                M[i] = [x + c * y for x, y in zip(M[i], M[j])]
            else:
                M[i] = [-x for x in M[i]]
        assert mat_mul(inverse_unimodular(M), M) == identity_matrix(n)
