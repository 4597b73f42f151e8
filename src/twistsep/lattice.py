"""Exact integer linear algebra on one normal form: kernels, preimages,
saturations, indices and the Smith form all run on the row Hermite form
(hnf), along with the constructive preimage routines used elsewhere.

Matrices are plain lists of rows of Python ints, so every computation is
exact at arbitrary precision. A matrix M with m rows and n columns
represents the homomorphism Z^n -> Z^m, a |-> M a (column-vector action).
Lattices are stored as Hermite-reduced row bases, which makes equality of
sublattices a plain list comparison.
"""

from dataclasses import dataclass, field
import math

from .errors import PreconditionError, ValidationError


def xgcd(a, b):
    # Maintain x*a + y*b == g alongside the Euclidean algorithm.
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A:
        return []
    n = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * n
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def det(M):
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(M)
    if n == 0:
        return 1
    if any(len(row) != n for row in M):
        raise ValidationError("determinant of a non-square matrix")
    a = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hnf(M):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U*M == H. H has one pivot per
    nonzero row, pivots positive, entries above each pivot reduced into
    [0, pivot). This is the canonical basis used for lattice equality.
    """
    m = len(M)
    H = [row[:] for row in M]
    U = identity_matrix(m)
    n = len(M[0]) if m else 0
    pivot_row = 0
    for col in range(n):
        # find a row with a nonzero entry in this column
        row = None
        for i in range(pivot_row, m):
            if H[i][col] != 0:
                row = i
                break
        if row is None:
            continue
        H[pivot_row], H[row] = H[row], H[pivot_row]
        U[pivot_row], U[row] = U[row], U[pivot_row]
        # clear below with gcd row operations
        for i in range(pivot_row + 1, m):
            while H[i][col] != 0:
                a, b = H[pivot_row][col], H[i][col]
                if abs(a) >= abs(b):
                    q = a // b
                    H[pivot_row] = [x - q * y for x, y in zip(H[pivot_row], H[i])]
                    U[pivot_row] = [x - q * y for x, y in zip(U[pivot_row], U[i])]
                    H[pivot_row], H[i] = H[i], H[pivot_row]
                    U[pivot_row], U[i] = U[i], U[pivot_row]
                else:
                    q = b // a
                    H[i] = [x - q * y for x, y in zip(H[i], H[pivot_row])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[pivot_row])]
        if H[pivot_row][col] < 0:
            H[pivot_row] = [-x for x in H[pivot_row]]
            U[pivot_row] = [-x for x in U[pivot_row]]
        # reduce entries above the pivot
        p = H[pivot_row][col]
        for i in range(pivot_row):
            q = H[i][col] // p
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[pivot_row])]
                U[i] = [x - q * y for x, y in zip(U[i], U[pivot_row])]
        pivot_row += 1
        if pivot_row == m:
            break
    return H, U


def snf(M):
    """Smith normal form. Returns (S, U, V) with U*M*V == S, S diagonal
    with nonnegative entries and the divisibility chain s1 | s2 | ...

    Alternating Hermite forms (Kannan and Bachem): each round takes a
    column form S Q^T = hnf(S^T)^T, then a row form P S = hnf(S), at least
    once and until S is diagonal; an s_i that does not divide s_(i+1) then
    takes row i + 1 into its own, and the rounds go on.

    Termination. Let t be the first diagonal position whose row or column
    is not clear. A column form clears row t and makes S[t][t] that row's
    gcd; a row form clears column t and makes S[t][t] that column's gcd.
    So S[t][t] only ever becomes a divisor of itself, and it gets strictly
    smaller unless its row and column are already clear (a clear row t is
    then the unique Hermite row with pivot S[t][t]). Cleared rows and
    columns stay clear, as the Hermite form is unique. After a repair the
    next column form makes s_i the proper divisor gcd(s_i, s_(i+1)), and
    the earlier positions stay; so the diagonal falls in the lexicographic
    order of divisibility, which is well founded.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    S, U, V = [row[:] for row in M], identity_matrix(m), identity_matrix(n)
    if not m or not n:
        return S, U, V
    while True:
        T, Q = hnf(transpose(S))
        S, P = hnf(transpose(T))
        U, V = mat_mul(P, U), mat_mul(V, transpose(Q))
        if any(S[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        d = [S[i][i] for i in range(min(m, n)) if S[i][i]]
        i = next((i for i in range(len(d) - 1) if d[i + 1] % d[i]), None)
        if i is None:
            return S, U, V
        S[i] = [x + y for x, y in zip(S[i], S[i + 1])]
        U[i] = [x + y for x, y in zip(U[i], U[i + 1])]


def invariant_factors(M):
    S = snf(M)[0]
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i]]


def rank(M):
    return sum(1 for row in hnf(M)[0] if any(row))


def _column_form(M):
    """(H, U, K) with U M^T = H in Hermite form, so M U^T = H^T: H keeps
    the nonzero rows, U their rows of the transform, and K the rows that
    hnf sends to zero, a basis of {v : M v = 0}."""
    H, U = hnf(transpose(M))
    r = sum(1 for row in H if any(row))
    return H[:r], U[:r], U[r:]


def solve(M, b):
    """The integer solution a of M a = b reduced modulo the kernel lattice,
    or None. M acts on column vectors.

    a = U^T y solves when H^T y = b, and y is read off pivot by pivot; a
    pivot that does not divide its entry, or a residue left at the end,
    means there is no solution. The solutions form one coset of the kernel,
    and kernel.reduce returns its canonical representative, whichever
    elimination found it."""
    m = len(M)
    n = len(M[0]) if m else 0
    if len(b) != m:
        raise ValidationError("dimension mismatch in solve")
    if n == 0:
        return [] if all(x == 0 for x in b) else None
    H, U, K = _column_form(M)
    y = Lattice(m, H).coordinates(b)
    if y is None:
        return None
    a = [sum(c * u[j] for c, u in zip(y, U)) for j in range(n)]
    return list(Lattice.from_rows(n, K).reduce(a))


def inverse_unimodular(M):
    """Inverse of a unimodular integer matrix, exact: hnf(M) = (I, M^-1)."""
    H, U = hnf(M)
    if H != identity_matrix(len(M)):
        raise ValidationError("matrix is not unimodular")
    return U


@dataclass
class Lattice:
    """A sublattice of Z^ambient given by a Hermite-reduced row basis."""

    ambient: int
    rows: list = field(default_factory=list)

    @classmethod
    def from_rows(cls, ambient, rows):
        reduced, _ = hnf([list(r) for r in rows]) if rows else ([], None)
        reduced = [r for r in reduced if any(r)]
        return cls(ambient, reduced)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """The canonical representative of v modulo the lattice: each
        Hermite row in turn takes v's pivot entry into [0, pivot), so two
        vectors reduce alike exactly when they differ by a lattice vector."""
        v = list(v)
        for row in self.rows:
            p = next(j for j, x in enumerate(row) if x)
            q = v[p] // row[p]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v):
        return not any(self.reduce(v))

    def coordinates(self, v):
        """Coefficients of v over the basis rows, or None."""
        coeffs = []
        v = list(v)
        for row in self.rows:
            p = next(j for j, x in enumerate(row) if x)
            if v[p] % row[p] != 0:
                return None
            q = v[p] // row[p]
            coeffs.append(q)
            v = [x - q * y for x, y in zip(v, row)]
        return coeffs if not any(v) else None

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.ambient == other.ambient and self.rows == other.rows


def saturation(L):
    """The isolator lattice: rational span of L intersected with Z^ambient,
    the kernel of the kernel of L's rows (all of Z^ambient at full rank)."""
    if L.rank == L.ambient:
        return Lattice(L.ambient, identity_matrix(L.ambient))
    if not L.rows:
        return Lattice(L.ambient, [])
    return kernel_basis(kernel_basis(L.rows).rows)


def isolator_index(L):
    """[sqrt(L) : L], the product of L's nonzero invariant factors: the
    columns of L's basis span a full-rank lattice of that index in
    Z^rank, whose Hermite basis is triangular with the index as the
    product of its pivots."""
    cols = Lattice.from_rows(L.rank, transpose(L.rows))
    return math.prod(row[i] for i, row in enumerate(cols.rows))


def kernel_basis(matrix):
    """Row basis of {v : M v = 0}, in Hermite form."""
    n = len(matrix[0]) if matrix else 0
    if n == 0:
        return Lattice(0, [])
    return Lattice.from_rows(n, _column_form(matrix)[2])


def kernel_with_construction(matrix):
    """Kernel generators built the explicit way: for a map with independent
    first-k columns and minor determinant D, each tail coordinate j yields
    v_j = iota(x_j) - D * e_{k+j} where x_j solves M x_j = D * M e_{k+j}.

    Returns (generators, max_abs_entry). The generators span a finite-index
    sublattice of the kernel.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    cols = transpose(matrix)
    # greedily pick a maximal independent set of columns
    chosen = []
    chosen_idx = []
    for j, col in enumerate(cols):
        trial = chosen + [col]
        if rank(trial) == len(trial):
            chosen.append(col)
            chosen_idx.append(j)
    k = len(chosen)
    if k == 0:
        gens = identity_matrix(n)
        return gens, 1
    sub = transpose(chosen)  # m x k
    if k == m:
        D = det(sub)
    else:
        # rectangular: fall back to the product of invariant factors
        D = isolator_index(Lattice.from_rows(m, chosen))
    tail = [j for j in range(n) if j not in chosen_idx]
    gens = []
    max_entry = 0
    for j in tail:
        target = [D * x for x in mat_vec(matrix, [1 if t == j else 0 for t in range(n)])]
        x = solve(sub, target)
        if x is None:
            raise ValidationError("construction column solve failed")
        v = [0] * n
        for idx, val in zip(chosen_idx, x):
            v[idx] = val
        v[j] -= D
        gens.append(v)
        max_entry = max(max_entry, max(abs(t) for t in v))
    return gens, max_entry


def p_power_preimage(M, b, p, k):
    """Given b in the image of M and b in p^(k + v_p(det M)) * Z^m, return a
    preimage a in p^k * Z^n; det M is the isolator index of the image.
    Raises PreconditionError naming the failed condition."""
    b = list(b)
    d = isolator_index(Lattice.from_rows(len(M), transpose(M)))
    vp = 0
    dd = d
    while dd % p == 0:
        dd //= p
        vp += 1
    depth = p ** (k + vp)
    if any(x % depth != 0 for x in b):
        raise PreconditionError(
            "b is not in p^(k + v_p(det)) * B", reason="divisibility")
    g = [x // depth for x in b]
    target = [(p ** vp) * x for x in g]
    atilde = solve(M, target)
    if atilde is None:
        # distinguish: maybe b itself is not in the image at all
        if solve(M, b) is None:
            raise PreconditionError("b is not in the image of f", reason="membership")
        raise PreconditionError(
            "p^v_p(det) * (b / p^(k+v)) escaped the image", reason="membership")
    return [(p ** k) * x for x in atilde]
