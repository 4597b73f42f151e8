"""Independent answer checks built on unitriangular integer matrices.

ut4 elements are 4x4 upper unitriangular matrices and the Heisenberg
group H3 is the 3x3 case; the extension H3 x| C2 adds D = diag(1, -1, 1),
whose conjugation negates x and y and fixes z. Every product here is a
plain integer matrix product, so no check shares code with the library's
Mal'cev collection.
"""


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _inverse(M):
    """(I + N)^-1 = I - N + N^2 - ... for nilpotent N = M - I."""
    n = len(M)
    N = [[M[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    out = _identity(n)
    term = _identity(n)
    for k in range(1, n):
        term = _matmul(term, N)
        sign = -1 if k % 2 else 1
        out = [[out[i][j] + sign * term[i][j] for j in range(n)] for i in range(n)]
    return out


def _power(M, e):
    base = M if e >= 0 else _inverse(M)
    out = _identity(len(M))
    e = abs(e)
    while e:
        if e & 1:
            out = _matmul(out, base)
        base = _matmul(base, base)
        e >>= 1
    return out


class UnitriangularGroup:
    """Exponent vectors over a basis of elementary matrices I + E_rc,
    listed in the library's basis order."""

    def __init__(self, n, positions):
        self.n = n
        self.positions = positions

    def matrix(self, g):
        out = _identity(self.n)
        for (r, c), e in zip(self.positions, g):
            if e:
                step = _identity(self.n)
                step[r][c] = e
                out = _matmul(out, step)
        return out

    def coords(self, M):
        """Peel the basis generators off in order; raises if M is outside
        the group."""
        out = []
        for r, c in self.positions:
            e = M[r][c]
            out.append(e)
            step = _identity(self.n)
            step[r][c] = -e
            M = _matmul(step, M)
        if M != _identity(self.n):
            raise ValueError("matrix is not in the group")
        return tuple(out)

    def mult(self, *gs):
        out = _identity(self.n)
        for g in gs:
            out = _matmul(out, self.matrix(g))
        return self.coords(out)

    def inv(self, g):
        return self.coords(_inverse(self.matrix(g)))

    def hom_matrix(self, images, g):
        """phi(g) as the product of generator-image matrices
        phi(a_1)^g_1 ... phi(a_h)^g_h."""
        out = _identity(self.n)
        for img, e in zip(images, g):
            if e:
                out = _matmul(out, _power(self.matrix(img), e))
        return out

    def twisted_conjugate(self, images, z, x):
        """z x phi(z)^-1."""
        return self.coords(_matmul(_matmul(self.matrix(z), self.matrix(x)),
                                   _inverse(self.hom_matrix(images, z))))


UT4 = UnitriangularGroup(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)])
H3 = UnitriangularGroup(3, [(0, 1), (1, 2), (0, 2)])
_D = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]


def h3c2_matrix(n, coset):
    M = H3.matrix(n)
    return _matmul(M, _D) if coset else M


def h3c2_is_conjugator(w, x, y):
    """w x w^-1 == y for (n, coset) pairs of H3 x| C2; (M D)^-1 = D M^-1."""
    n, coset = w
    w_inv = _inverse(H3.matrix(n))
    if coset:
        w_inv = _matmul(_D, w_inv)
    lhs = _matmul(_matmul(h3c2_matrix(n, coset), h3c2_matrix(*x)), w_inv)
    return lhs == h3c2_matrix(*y)


def h3c2_conjugate_in_kernel(x, y):
    """Whether x, y in H3 are conjugate in H3 x| C2. Conjugating (a, b, c)
    by H3 moves c through c + gcd(a, b)Z; the involution sends (a, b, c)
    to (-a, -b, c)."""
    a, b, c = x
    for sa, sb in ((a, b), (-a, -b)):
        if (y[0], y[1]) != (sa, sb):
            continue
        g = _gcd(a, b)
        if (g == 0 and y[2] == c) or (g and (y[2] - c) % g == 0):
            return True
    return False


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def h3_separates(images, x, y, moduli):
    """Whether H3 / <x^m1, y^m2, z^m3> separates y from the twisted class of
    x under phi (given by generator images). The diagonal subgroup is
    normal when m3 divides m1 and m2, and then reducing each coordinate
    modulo its modulus is a coset representative. Returns None when the
    moduli do not give a normal subgroup."""
    m1, m2, m3 = moduli
    if m1 % m3 or m2 % m3:
        return None

    def red(g):
        return (g[0] % m1, g[1] % m2, g[2] % m3)

    moves = []
    for i in range(3):
        a = tuple(int(t == i) for t in range(3))
        fa = H3.coords(H3.hom_matrix(images, a))
        moves.append((a, H3.inv(fa)))
        moves.append((H3.inv(a), fa))
    start = red(x)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for e in frontier:
            for u, v in moves:
                t = red(H3.mult(u, e, v))
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return red(y) not in seen
