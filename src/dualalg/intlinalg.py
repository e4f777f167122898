"""Exact integer matrix kernel: Hermite and Smith normal forms, determinants,
F_p ranks, and what one Smith form of a fixed matrix gives: image-lattice
membership, the kernel and the saturation of the column span.

Everything runs on arbitrary-precision Python integers; no floating point is
used anywhere.  The Smith normal form returns its unimodular transforms, so
callers can re-multiply and assert the factor identity ``u*m*v == d``; the
Hermite normal form of a lattice needs and keeps none.

Conventions:

* HNF (``lattice_hnf``) is row-style upper echelon with positive pivots;
  entries above a pivot are reduced into ``[0, pivot)`` and zero rows are
  dropped.  The HNF of a generating set of row vectors is therefore a
  canonical form of the lattice they span, so lattice equality is bit-exact
  comparison of HNFs.
* SNF is ``u*m*v = d`` with ``d`` diagonal, nonnegative, and each diagonal
  entry dividing the next.  Pivoting is on the minimal absolute value, which
  keeps coefficient growth tame at the matrix sizes used here.
"""

from __future__ import annotations

from operator import mul

from .errors import CrossCheckFailed, DimensionMismatch, NonSquare


class IntMatrix:
    """Immutable dense integer matrix (row-major tuple of tuples)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def of_rows(cls, rows):
        """Wrap a tuple of equal-length tuples of ints as they are, with no
        copy and no check; for rows the package has just built itself."""
        m = object.__new__(cls)
        m.entries = rows
        m.rows = len(rows)
        m.cols = len(rows[0]) if rows else 0
        return m

    @staticmethod
    def identity(n):
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return IntMatrix([self.col(j) for j in range(self.cols)])

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch("matrix product shape")
            ot = tuple(zip(*other.entries))
            return IntMatrix.of_rows(
                tuple(tuple([_dot(r, c) for c in ot]) for r in self.entries)
            )
        return NotImplemented

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix difference shape")
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def scale(self, c):
        return IntMatrix([[c * x for x in row] for row in self.entries])

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length")
        return tuple(_dot(row, vec) for row in self.entries)


def _dot(a, b):
    return sum(map(mul, a, b))


def det(m: IntMatrix):
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
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


def snf(m: IntMatrix):
    """Smith normal form ``(d, u, v)`` with ``u*m*v = d``.

    ``u`` and ``v`` are unimodular; ``d`` is diagonal with nonnegative entries
    in a divisibility chain d1 | d2 | ...; pivoting picks the minimal absolute
    value in the remaining block (Kannan-Bachem style).
    """
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def addrow(dst, src, c):
        for k in range(ncols):
            a[dst][k] += c * a[src][k]
        for k in range(nrows):
            u[dst][k] += c * u[src][k]

    def addcol(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def swaprows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swapcols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swaprows(t, piv[0])
        swapcols(t, piv[1])
        clean = True
        for i in range(t + 1, nrows):
            q = a[i][t] // a[t][t]
            if q:
                addrow(i, t, -q)
            if a[i][t] != 0:
                clean = False
        for j in range(t + 1, ncols):
            q = a[t][j] // a[t][t]
            if q:
                addcol(j, t, -q)
            if a[t][j] != 0:
                clean = False
        if not clean:
            continue
        t += 1
    # a is diagonal, its t nonzero entries first; their signs move into u
    for i in range(t):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            u[i] = [-x for x in u[i]]
    # enforce d_i | d_{i+1} on the diagonal alone: column i += column i+1,
    # then rows i, i+1 combined by x*d_i + y*d_j = g give (g, d_i*d_j/g) and
    # the entry y*d_j, a multiple of g that one column step clears
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % di:
                g, x, y = _xgcd(di, dj)
                p, q = di // g, dj // g
                for r in v:
                    r[i] += r[i + 1]
                    r[i + 1] -= y * q * r[i]
                ui, uj = u[i], u[i + 1]
                u[i] = [x * s + y * s2 for s, s2 in zip(ui, uj)]
                u[i + 1] = [p * s2 - q * s for s, s2 in zip(ui, uj)]
                a[i][i], a[i + 1][i + 1] = g, p * dj
                changed = True
    return tuple(IntMatrix.of_rows(tuple(map(tuple, x))) for x in (a, u, v))


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), for a, b > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def rank_mod_p(rows, p):
    """Rank over F_p (p prime) of integer rows, by forward elimination: each
    pivot clears only the rows below it."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        inv = pow(top[col], -1, p)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], top)]
        rank += 1
    return rank


class SmithForm:
    """One Smith normal form ``u*m*v = d`` of a fixed matrix ``m``, taken once
    and read by every solve against ``m``, by its kernel, by the reduction
    modulo that kernel and by the saturation of its column span.  ``kernel``
    is a Z-basis of {x : m*x = 0}, the nonzero rows of its canonical HNF, so
    equal kernels give equal output."""

    def __init__(self, m: IntMatrix):
        d, u, v = snf(m)
        self.m, self.u, self.v = m, u, v
        r = min(m.rows, m.cols)
        self.diag = tuple(d[i, i] for i in range(r))
        cols = [v.col(j) for j in range(m.cols) if j >= r or self.diag[j] == 0]
        self.kernel = list(lattice_hnf(cols, m.cols).entries)

    def solve(self, b):
        """Decide whether ``b`` lies in the integer column span of ``m``.

        Returns ``(True, x)`` with ``m.apply(x) == b``, or ``(False, None)``;
        CrossCheckFailed if back-substitution does not give ``b``.
        """
        m = self.m
        if len(b) != m.rows:
            raise DimensionMismatch("b length != rows")
        y = self.u.apply(tuple(b))
        r = len(self.diag)
        x0 = [0] * m.cols
        for i, yi in enumerate(y):
            di = self.diag[i] if i < r else 0
            if (yi % di if di else yi) != 0:
                return False, None
            if di:
                x0[i] = yi // di
        x = self.v.apply(tuple(x0))
        if m.apply(x) != tuple(b):
            raise CrossCheckFailed(f"back-substitution gives {m.apply(x)}, expected {tuple(b)}")
        return True, x

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the kernel lattice."""
        return _reduce_hnf(vec, self.kernel)

    def saturation_basis(self):
        """Column i of ``m*v`` divided by d_i, for each nonzero d_i.

        ``m*v = u^-1 * d``, so these are the leading columns of ``u^-1``: a
        Z-basis of the saturation (rational span meet Z^rows) of the column
        span of ``m``, in which that span has index the product of the d_i.
        CrossCheckFailed if a division is not exact."""
        out = []
        for i, di in enumerate(self.diag):
            if di:
                col = self.m.apply(self.v.col(i))
                if any(x % di for x in col):
                    raise CrossCheckFailed(f"column {i} of m*v is not divisible by {di}")
                out.append(tuple(x // di for x in col))
        return out


def in_image(m: IntMatrix, b):
    """``SmithForm(m).solve(b)``, for a matrix solved against once."""
    return SmithForm(m).solve(b)


def kernel_basis(m: IntMatrix):
    """``SmithForm(m).kernel``, for a matrix whose kernel is taken once."""
    return SmithForm(m).kernel


def lattice_hnf(generators, ncols):
    """Canonical HNF of the lattice spanned by the given row vectors: their
    row-style Hermite normal form with its zero rows dropped.

    Each column's pivot comes from repeated division steps on the entry of
    least absolute value, is made positive, and every entry above it is then
    reduced into ``[0, pivot)``.
    """
    m = IntMatrix(generators)
    if m.rows and m.cols != ncols:
        raise DimensionMismatch(f"generators of length {m.cols}, expected {ncols}")
    a = [list(row) for row in m.entries]
    nrows = m.rows
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # clear below pivot_row in this column by gcd steps; the rows from
        # pivot_row on are zero left of col
        while True:
            best = None
            for i in range(pivot_row, nrows):
                if a[i][col] != 0 and (best is None or abs(a[i][col]) < abs(a[best][col])):
                    best = i
            if best is None:
                break
            a[pivot_row], a[best] = a[best], a[pivot_row]
            top = a[pivot_row]
            done = True
            for i in range(pivot_row + 1, nrows):
                row = a[i]
                if row[col] != 0:
                    c = row[col] // top[col]
                    for k in range(col, ncols):
                        row[k] -= c * top[k]
                    if row[col] != 0:
                        done = False
            if done:
                break
        if a[pivot_row][col] != 0:
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-x for x in a[pivot_row]]
            pivots.append((pivot_row, col))
            pivot_row += 1
    # reduce entries above each pivot into [0, pivot)
    for prow, pcol in pivots:
        top = a[prow]
        for i in range(prow):
            c = a[i][pcol] // top[pcol]
            if c:
                row = a[i]
                for k in range(pcol, ncols):
                    row[k] -= c * top[k]
    return IntMatrix.of_rows(tuple(map(tuple, a[:pivot_row])))


def reduce_mod_lattice(vec, lattice_rows):
    """Canonical representative of ``vec`` modulo the lattice spanned by rows.

    Subtracts multiples of the HNF rows so the coordinate at each pivot column
    lands in ``[0, pivot)``.  With a fixed HNF this is a bit-exact canonical
    form for cosets.
    """
    if not lattice_rows:
        return tuple(vec)
    return _reduce_hnf(vec, lattice_hnf(lattice_rows, len(vec)).entries)


def _reduce_hnf(vec, h_rows):
    x = list(vec)
    for row in h_rows:
        pcol = next(j for j, e in enumerate(row) if e)
        q = x[pcol] // row[pcol]
        if q:
            for k in range(len(x)):
                x[k] -= q * row[k]
    return tuple(x)
