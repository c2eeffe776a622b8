from legdet.arith import OddPrime, legendre, primes_in_range
from legdet.exactlinalg import IntMatrix, det
from legdet.matrices import build_cp, build_ep, build_mp


def test_cp_frozen_small():
    assert build_cp(OddPrime(3)).rows == ((0, 1), (-1, 0))
    assert build_cp(OddPrime(5)).rows == (
        (0, 1, -1, -1),
        (1, 0, 1, -1),
        (-1, 1, 0, 1),
        (-1, -1, 1, 0),
    )


def test_ep_frozen_small():
    assert build_ep(OddPrime(5)).rows == (
        (0, 1, -1),
        (1, 0, 1),
        (-1, 1, 0),
    )
    assert build_ep(OddPrime(7)).rows == (
        (0, 1, 1, -1),
        (-1, 0, 1, 1),
        (-1, -1, 0, 1),
        (1, -1, -1, 0),
    )


def test_mp_frozen_small():
    assert build_mp(OddPrime(5)).rows == (
        (1, 1, 1),
        (1, 0, 1),
        (-1, 1, 0),
    )
    assert build_mp(OddPrime(7)).rows == (
        (1, 1, 1, 1),
        (1, 0, -1, -1),
        (1, 1, 0, -1),
        (-1, 1, 1, 0),
    )
    assert build_mp(OddPrime(3)).rows == ((1, 1), (1, 0))


def test_dimensions():
    for q in primes_in_range(3, 40):
        assert build_cp(q).dim == q.p - 1
        assert build_mp(q).dim == q.n + 1
        assert build_ep(q).dim == q.n + 1


def test_entries_definitions():
    for q in primes_in_range(3, 30):
        c = build_cp(q)
        for i in range(1, q.p):
            for j in range(1, q.p):
                assert c.rows[i - 1][j - 1] == legendre(j - i, q)
        e = build_ep(q)
        for i in range(q.n + 1):
            for j in range(q.n + 1):
                assert e.rows[i][j] == legendre(j - i, q)
        m = build_mp(q)
        assert all(x == 1 for x in m.rows[0])
        for i in range(1, q.n + 1):
            for j in range(q.n + 1):
                assert m.rows[i][j] == legendre(i - j, q)


def test_builder_entries_are_python_ints():
    # Bareiss multiplies the entries of every IntMatrix; an int64 would
    # wrap silently
    big = 1 << 80
    for q in primes_in_range(3, 200):
        for build in (build_cp, build_ep, build_mp):
            rows = build(q).rows
            assert all(type(x) is int for row in rows for x in row), (build.__name__, q.p)
            assert {x * big for row in rows for x in row} <= {-big, 0, big}, q.p


def test_ep_symmetry_by_residue_class():
    # The (j-i) entry pattern makes E transpose into legendre(-1,p) times E.
    for q in primes_in_range(3, 60):
        e = build_ep(q)
        s = legendre(-1, q)
        assert IntMatrix(list(zip(*e.rows))) == IntMatrix([[s * x for x in row] for row in e.rows])


def test_diagonals_are_zero_except_mp_corner():
    for q in primes_in_range(3, 60):
        assert all(build_cp(q).rows[i][i] == 0 for i in range(q.p - 1))
        assert all(build_ep(q).rows[i][i] == 0 for i in range(q.n + 1))
        m = build_mp(q)
        assert m.rows[0][0] == 1
        assert all(m.rows[i][i] == 0 for i in range(1, q.n + 1))


def test_mp_det_equals_cofactor_sum_over_first_row():
    # det(M) expands along the all-ones top row into signed minors of the
    # pure Legendre-pattern matrix, a useful cross-check of both builders.
    for q in primes_in_range(3, 31):
        m = build_mp(q)
        dim = m.dim
        base = m.rows
        total = 0
        for k in range(dim):
            minor = IntMatrix(
                [
                    [x for j, x in enumerate(row) if j != k]
                    for i, row in enumerate(base)
                    if i != 0
                ]
            )
            total += (-1) ** k * det(minor)
        assert det(m) == total
