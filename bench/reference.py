"""Plain-Python references for checking rsplab outputs.

Nothing here imports numpy or rsplab: every expected value the benchmark
compares against is recomputed from the generated inputs with the
standard library, so a defect in the program cannot hide in a shared
helper.  Sizes are fixed and tiny (4x4 states, 3x3 correlation blocks).
"""

import bisect
import math

_I2 = ((1, 0), (0, 1))
_SX = ((0, 1), (1, 0))
_SY = ((0, -1j), (1j, 0))
_SZ = ((1, 0), (0, -1))
PAULI = (_I2, _SX, _SY, _SZ)


def _kron(a, b):
    return [[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)]
            for i in range(4)]


_BASIS = [[_kron(PAULI[m], PAULI[n]) for n in range(4)] for m in range(4)]


# ---------------------------------------------------------------------------
# Random inputs (stdlib random only)

def tetra_point(rng):
    """Uniform point of the Bell tetrahedron, strictly inside it."""
    while True:
        c = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        if min(bell_weights(c)) > 1e-6:
            return c


def bell_weights(c):
    c1, c2, c3 = c
    return (0.25 * (1 - c1 - c2 - c3), 0.25 * (1 - c1 + c2 + c3),
            0.25 * (1 + c1 - c2 + c3), 0.25 * (1 + c1 + c2 - c3))


def ginibre(rng):
    """G G^dag / tr for a standard complex normal 4x4 G, as nested lists.

    The product is formed so that rho[j][i] is exactly conj(rho[i][j]).
    """
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
         for _ in range(4)]
    rho = [[sum(g[i][k] * g[j][k].conjugate() for k in range(4))
            for j in range(4)] for i in range(4)]
    tr = sum(rho[i][i].real for i in range(4))
    return [[x / tr for x in row] for row in rho]


def purity(rho):
    return sum((rho[i][k] * rho[k][i]).real for i in range(4) for k in range(4))


def bounded_purity_ginibre(rng, max_purity=0.99):
    while True:
        rho = ginibre(rng)
        if purity(rho) <= max_purity:
            return rho


def state_json(rho):
    return {"type": "dense",
            "re": [[x.real for x in row] for row in rho],
            "im": [[x.imag for x in row] for row in rho]}


# ---------------------------------------------------------------------------
# Pauli decomposition as the 4x4 real matrix C with C[0][0] = 1,
# C[i][0] = a_i, C[0][j] = b_j and C[i][j] = E_ij.

def correlation_matrix(rho):
    return [[sum(rho[x][y] * _BASIS[m][n][y][x]
                 for x in range(4) for y in range(4)).real
             for n in range(4)] for m in range(4)]


def bell_correlation(c):
    return [[1.0, 0.0, 0.0, 0.0], [0.0, c[0], 0.0, 0.0],
            [0.0, 0.0, c[1], 0.0], [0.0, 0.0, 0.0, c[2]]]


def density_matrix(cmat):
    return [[0.25 * sum(cmat[m][n] * _BASIS[m][n][x][y]
                        for m in range(4) for n in range(4))
             for y in range(4)] for x in range(4)]


def split(cmat):
    """(a, b, E) of a correlation matrix."""
    a = [cmat[i][0] for i in range(1, 4)]
    b = [cmat[0][j] for j in range(1, 4)]
    e = [[cmat[i][j] for j in range(1, 4)] for i in range(1, 4)]
    return a, b, e


def matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def transpose(x):
    return [list(col) for col in zip(*x)]


def sym_eigvals(m, sweeps=50):
    """Eigenvalues of a small real symmetric matrix, descending (Jacobi)."""
    a = [list(map(float, row)) for row in m]
    n = len(a)
    for _ in range(sweeps):
        off = sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        if off < 1e-30:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted((a[i][i] for i in range(n)), reverse=True)


def measures(cmat):
    """(f_rsp, d_g) from the closed forms, recomputed independently."""
    a, _, e = split(cmat)
    e_sq = [max(v, 0.0) for v in sym_eigvals(matmul(transpose(e), e))]
    f = 0.5 * (e_sq[1] + e_sq[2])
    q = matmul(e, transpose(e))
    for i in range(3):
        for j in range(3):
            q[i][j] += a[i] * a[j]
    lam_max = sym_eigvals(q)[0]
    frob = sum(v * v for row in e for v in row)
    d = max(0.0, 0.5 * (sum(v * v for v in a) + frob - lam_max))
    return f, d


def bell_measure(c):
    """f_rsp = d_g = (sum c^2 - max c^2) / 2 for a Bell-diagonal state."""
    sq = [x * x for x in c]
    return 0.5 * (sum(sq) - max(sq))


# ---------------------------------------------------------------------------
# Channels as affine Bloch maps r -> t + T r

def channel_affine(name, p=None):
    if name == "amplitude_damping":
        q = 1.0 - p
        rq = math.sqrt(q)
        return [0.0, 0.0, p], [[rq, 0.0, 0.0], [0.0, rq, 0.0], [0.0, 0.0, q]]
    if name == "depolarizing":
        s = 1.0 - p
        return [0.0, 0.0, 0.0], [[s, 0.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, s]]
    if name == "discord_raising":
        return [0.5, 0.0, 0.5], [[0.0, 0.0, -0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]]
    if name == "identity":
        return [0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    raise ValueError(f"no reference for channel {name!r}")


def _transfer(affine):
    t, tmat = affine
    return [[1.0, 0.0, 0.0, 0.0]] + [[t[i]] + list(tmat[i]) for i in range(3)]


def apply_product(cmat, affine_a, affine_b):
    """Correlation matrix after channel A on qubit 1 and B on qubit 2."""
    return matmul(matmul(_transfer(affine_a), cmat), transpose(_transfer(affine_b)))


# ---------------------------------------------------------------------------
# Symmetric amplitude damping of a Bell-diagonal state (closed form)

def _damped_squares(c, p):
    q = 1.0 - p
    e3 = c[2] * q * q + p * p
    return (q * c[0]) ** 2, (q * c[1]) ** 2, e3 * e3


def f_damped(c, p):
    sq = _damped_squares(c, p)
    return 0.5 * (sum(sq) - max(sq))


def damping_gain(c, grid=400):
    """Largest rise of f_rsp over an interior grid of damping strengths."""
    return max(f_damped(c, k / grid) for k in range(1, grid)) - bell_measure(c)


def dg_damped(c, p):
    e1, e2, e3 = _damped_squares(c, p)
    return 0.5 * (p * p + e1 + e2 + e3 - max(e1, e2, e3 + p * p))


# ---------------------------------------------------------------------------
# Tetrahedron lattice

def scan_axis(resolution):
    n = resolution - 1
    x = [-1.0 + 2.0 * i / n for i in range(resolution)]
    return [0.5 * (x[i] - x[n - i]) for i in range(resolution)]


def scan_member_count(resolution, eps=1e-9):
    """Lattice points of the scan grid inside the tetrahedron.

    For fixed (c1, c2) the members form the c3 interval cut out by the
    four face inequalities, so each column is counted by bisection.
    """
    axis = scan_axis(resolution)
    total = 0
    for c1 in axis:
        for c2 in axis:
            lo = max(-1.0 + c1 - c2, -1.0 - c1 + c2) - eps
            hi = min(1.0 - c1 - c2, 1.0 + c1 + c2) + eps
            if hi >= lo:
                total += bisect.bisect_right(axis, hi) - bisect.bisect_left(axis, lo)
    return total


def close(x, y, tol=1e-9):
    return abs(x - y) <= tol


def all_close(xs, ys, tol=1e-9):
    xs, ys = _flat(xs), _flat(ys)
    return len(xs) == len(ys) and all(close(x, y, tol) for x, y in zip(xs, ys))


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flat(item)]
    return [x]
