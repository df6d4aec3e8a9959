"""Deterministic random generators shared by the test modules.

Everything takes an explicit ``random.Random`` so that every test run is
reproducible; no global seeding.
"""

from random import Random

from fibsurf import (
    NOT_ADAPTED,
    AdaptedBasis,
    AdaptedBasisProblem,
    AlternatingForm,
    DimensionMismatch,
    IntMatrix,
    NotUnimodular,
    PostconditionFailed,
    block_normal_gram,
    canonical_problem,
    coprincipal_type,
    smith_normal_form,
)
from fibsurf.adapted import _combo, _mat_vec
from fibsurf.intlinalg import _unimodular_inverse

SL2_S = IntMatrix([[0, -1], [1, 0]])
SL2_T = IntMatrix([[1, 1], [0, 1]])
SL2_T_INV = IntMatrix([[1, -1], [0, 1]])


def gram_in_basis(gram: IntMatrix, basis: IntMatrix) -> IntMatrix:
    """Gram matrix of the form restricted to the columns of ``basis``."""
    return basis.transpose() * gram * basis


def random_unimodular(rng: Random, n: int, steps: int = 12) -> IntMatrix:
    """Product of row shears, swaps and sign flips; det is +-1 and the
    entries stay small because the shear coefficients are bounded."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


def random_sl2_word(rng: Random, max_len: int = 8) -> IntMatrix:
    """Random word of length <= max_len in S and T (and T^-1)."""
    m = IntMatrix.identity(2)
    for _ in range(rng.randint(0, max_len)):
        m = m * rng.choice([SL2_S, SL2_T, SL2_T_INV])
    return m


def random_gamma_d_element(rng: Random, d: int, max_len: int = 8) -> IntMatrix:
    """Random word in A = [[1,d],[0,1]], B = [[1,0],[d,1]] and inverses;
    every such product is congruent to the identity modulo d."""
    gens = [
        IntMatrix([[1, d], [0, 1]]),
        IntMatrix([[1, -d], [0, 1]]),
        IntMatrix([[1, 0], [d, 1]]),
        IntMatrix([[1, 0], [-d, 1]]),
    ]
    m = IntMatrix.identity(2)
    for _ in range(rng.randint(1, max_len)):
        m = m * rng.choice(gens)
    return m


def random_symmetric(rng: Random, g: int, bound: int = 2) -> IntMatrix:
    rows = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = v
    return IntMatrix(rows)


def random_symplectic(rng: Random, g: int, steps: int = 6) -> IntMatrix:
    """Random element of Sp(2g, Z) as a product of the standard generators
    [[I,B],[0,I]], [[I,0],[C,I]], [[A,0],[0,A^-T]] and J."""
    n = 2 * g
    j_rows = [[0] * n for _ in range(n)]
    for i in range(g):
        j_rows[i][g + i] = 1
        j_rows[g + i][i] = -1
    j_mat = IntMatrix(j_rows)
    m = IntMatrix.identity(n)
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0:
            b = random_symmetric(rng, g, bound=1)
            blk = [[0] * n for _ in range(n)]
            for i in range(n):
                blk[i][i] = 1
            for i in range(g):
                for jj in range(g):
                    blk[i][g + jj] = b[i, jj]
            m = m * IntMatrix(blk)
        elif kind == 1:
            c = random_symmetric(rng, g, bound=1)
            blk = [[0] * n for _ in range(n)]
            for i in range(n):
                blk[i][i] = 1
            for i in range(g):
                for jj in range(g):
                    blk[g + i][jj] = c[i, jj]
            m = m * IntMatrix(blk)
        elif kind == 2:
            a = random_unimodular(rng, g, steps=5)
            a_inv_t = _unimodular_inverse(a).transpose()
            blk = [[0] * n for _ in range(n)]
            for i in range(g):
                for jj in range(g):
                    blk[i][jj] = a[i, jj]
                    blk[g + i][g + jj] = a_inv_t[i, jj]
            m = m * IntMatrix(blk)
        else:
            m = m * j_mat
    return m


def randomized_problem(rng: Random, g: int, d: int) -> AdaptedBasisProblem:
    """The canonical configuration pushed through a random unimodular change
    of ambient coordinates, with the generator columns of each sublattice
    remixed by further unimodular matrices."""
    base = canonical_problem(g, d)
    n = 2 * g
    r = random_unimodular(rng, n, steps=14)
    r_inv = _unimodular_inverse(r)
    gram = gram_in_basis(base.form.gram, r_inv)
    c_u = random_unimodular(rng, n, steps=8)
    c_a = random_unimodular(rng, n - 2, steps=8)
    c_e = random_unimodular(rng, 2, steps=8)
    return AdaptedBasisProblem(
        g=g,
        d=d,
        U=r * base.U * c_u,
        form=AlternatingForm(gram),
        U_A=r * base.U_A * c_a,
        U_E=r * base.U_E * c_e,
    )


def reference_is_adapted_basis(p, b) -> bool:
    """The earlier Smith-based form of ``is_adapted_basis``, kept as an
    oracle: each part must solve against a factorisation of its sublattice
    with a unimodular coordinate matrix, and have the normal Gram matrix."""
    if b.g != p.g or b.d != p.d:
        raise DimensionMismatch("basis and problem disagree on (g, d)")
    if len(b.vectors[0]) != p.form.dim:
        raise DimensionMismatch("basis vectors live in the wrong ambient space")
    g, d = p.g, p.d

    # (1) the listed vectors are a Z-basis of U
    coords = p.factored_U.solve(b.listed_matrix())
    if coords is None or coords.det() not in (1, -1):
        return False

    # (2) u_1..u_{g-1}, u_{g+1}..u_{2g-1} is a symplectic basis of U_A of
    #     type (1, ..., 1, d)
    part_a = IntMatrix.from_columns(b.u_a_part())
    coords_a = smith_normal_form(p.U_A).solve(part_a)
    if coords_a is None or coords_a.det() not in (1, -1):
        return False
    if gram_in_basis(p.form.gram, part_a) != block_normal_gram(coprincipal_type(g - 1, d)):
        return False

    # (3) u_g, u_{2g} is a symplectic basis of U_E of type (d)
    part_e = IntMatrix.from_columns(list(b.u_e_part()))
    coords_e = smith_normal_form(p.U_E).solve(part_e)
    if coords_e is None or coords_e.det() not in (1, -1):
        return False
    if gram_in_basis(p.form.gram, part_e) != IntMatrix([[0, d], [-d, 0]]):
        return False
    return True


def reference_change_basis(b, m, d):
    """The earlier solve-based form of ``change_basis``, kept as an oracle:
    the coordinates of the two glue numerators come from solving in the
    listed basis, and are divided by d there."""
    if m.rows != 2 or m.cols != 2:
        raise DimensionMismatch("basis change takes a 2x2 matrix")
    if m.det() != 1:
        raise NotUnimodular(f"determinant {m.det()} != 1")
    g = b.g
    u_g, u_2g = b.u_e_part()
    new_u_g = _combo([u_g, u_2g], [m[0, 0], m[0, 1]])
    new_u_2g = _combo([u_g, u_2g], [m[1, 0], m[1, 1]])

    old_basis = b.listed_matrix()
    numerators = IntMatrix.from_columns([
        _combo([new_u_g, b.u(2 * g - 1)], [1, 1]),
        _combo([new_u_2g, b.u(g - 1)], [1, 1]),
    ])
    coords = smith_normal_form(old_basis).solve(numerators)
    if coords is None:  # they manifestly lie in the span
        raise PostconditionFailed("numerators do not lie in U")
    if any(c % d for row in coords.entries() for c in row):
        return NOT_ADAPTED
    new_u_2g1, new_u_2g2 = (
        _mat_vec(old_basis, tuple(c // d for c in col)) for col in coords.columns()
    )

    vectors = list(b.vectors)
    vectors[g - 1] = new_u_g
    vectors[2 * g - 2] = new_u_2g1
    vectors[2 * g - 1] = new_u_2g2
    return AdaptedBasis(g=g, d=d, vectors=tuple(vectors))


def reference_smith_form(m: IntMatrix):
    """The earlier elimination behind ``smith_normal_form``, kept as an
    oracle for its pivot rule: a full scan of the trailing block for the
    first minimal-magnitude entry, and a divisibility scan for every pivot.
    Returns the entries of D, S and T."""
    a = m.tolists()
    nr, nc = m.rows, m.cols
    s = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    t = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for x in (a, t):
            for r in x:
                r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]

    def add_col(src, dst, c):
        for x in (a, t):
            for r in x:
                r[dst] += c * r[src]

    k = 0
    while k < min(nr, nc):
        pivot = None
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        if pivot[1] != k:
            swap_cols(k, pivot[1])

        while True:
            restart = False
            for i in range(k + 1, nr):
                if a[i][k]:
                    q, r = divmod(a[i][k], a[k][k])
                    add_row(k, i, -q)
                    if r:
                        swap_rows(k, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, nc):
                if a[k][j]:
                    q, r = divmod(a[k][j], a[k][k])
                    add_col(k, j, -q)
                    if r:
                        swap_cols(k, j)
                        restart = True
                        break
            if restart:
                continue
            culprit = None
            p = a[k][k]
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, k, 1)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            s[k] = [-x for x in s[k]]
        k += 1

    return tuple(tuple(map(tuple, x)) for x in (a, s, t))


def reference_frobenius_basis(gram: IntMatrix):
    """The earlier reduction behind ``frobenius_basis``, kept as an oracle
    for its pivot rule: a full scan for the first minimal |pairing| and both
    divisibility scans for every pivot.  Returns (basis entries, divisors);
    raises ``ValueError`` where ``frobenius_basis`` raises ``Degenerate``."""
    n = gram.rows
    g_mat = gram.tolists()
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap(i, j):
        if i == j:
            return
        for r in g_mat:
            r[i], r[j] = r[j], r[i]
        g_mat[i], g_mat[j] = g_mat[j], g_mat[i]
        for r in p:
            r[i], r[j] = r[j], r[i]

    def negate(i):
        for r in g_mat:
            r[i] = -r[i]
        g_mat[i] = [-x for x in g_mat[i]]
        for r in p:
            r[i] = -r[i]

    def add(src, dst, c):
        for r in g_mat:
            r[dst] += c * r[src]
        for j in range(n):
            g_mat[dst][j] += c * g_mat[src][j]
        for r in p:
            r[dst] += c * r[src]

    divisors = []
    for m in range(n // 2):
        base = 2 * m
        while True:
            pivot = None
            best = None
            for r in range(base, n):
                for c in range(r + 1, n):
                    v = abs(g_mat[r][c])
                    if v and (best is None or v < best):
                        best, pivot = v, (r, c)
            if pivot is None:
                raise ValueError("degenerate block during reduction")
            r, c = pivot
            swap(base, r)
            if c == base:
                c = r
            swap(base + 1, c)
            if g_mat[base][base + 1] < 0:
                negate(base + 1)
            piv = g_mat[base][base + 1]

            retry = False
            for k in range(base + 2, n):
                if g_mat[base][k] % piv:
                    add(base + 1, k, -(g_mat[base][k] // piv))
                    retry = True
                    break
                if g_mat[base + 1][k] % piv:
                    add(base, k, g_mat[base + 1][k] // piv)
                    retry = True
                    break
            if retry:
                continue

            for k in range(base + 2, n):
                a = g_mat[base + 1][k] // piv
                b = -(g_mat[base][k] // piv)
                if a:
                    add(base, k, a)
                if b:
                    add(base + 1, k, b)

            culprit = None
            for i in range(base + 2, n):
                for j in range(i + 1, n):
                    if g_mat[i][j] % piv:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                divisors.append(piv)
                break
            add(culprit, base + 1, 1)

    g = n // 2
    perm = [2 * j for j in range(g)] + [2 * j + 1 for j in range(g)]
    return tuple(tuple(r[j] for j in perm) for r in p), tuple(divisors)
