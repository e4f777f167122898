"""Brute-force conjugacy analysis of small matrix groups over finite fields.

Enumerates GL_n or SL_n over GF(q) for n <= 3 outright, partitions the group
into conjugacy classes by orbit refinement under a generating set (never by
all-pairs conjugation), and counts the classes of elements whose order is
prime to the field characteristic.  Every element is additionally checked for
the equivalence "order prime to p iff minimal polynomial squarefree", the two
working definitions of semisimplicity in a finite matrix group.
"""

from __future__ import annotations

from .errors import CapExceeded, CrossCheckFailed
from .finitefield import GF, _digits_fixed, poly_derivative, poly_gcd
from .rootdata import prime_power_split

DEFAULT_GROUP_CAP = 10 ** 6


class MatrixGroupSpec:
    def __init__(self, family, n, q, cap=DEFAULT_GROUP_CAP):
        if family not in ("GL", "SL"):
            raise ValueError("family must be GL or SL")
        if n > 3 or n < 1:
            raise ValueError("n must be 1, 2 or 3")
        self.p, self.r = prime_power_split(q)
        self.family = family
        self.n = n
        self.q = q
        self.cap = cap

    def order(self):
        q, n = self.q, self.n
        gl = 1
        for i in range(n):
            gl *= q ** n - q ** i
        return gl if self.family == "GL" else gl // (q - 1)


def _mat_mul(field, a, b, n):
    return tuple(
        tuple(
            _sum(field, [field.mul(a[i][k], b[k][j]) for k in range(n)])
            for j in range(n)
        )
        for i in range(n)
    )


def _sum(field, xs):
    acc = 0
    for x in xs:
        acc = field.add(acc, x)
    return acc


def _det(field, m, n):
    if n == 1:
        return m[0][0]
    if n == 2:
        return field.sub(field.mul(m[0][0], m[1][1]), field.mul(m[0][1], m[1][0]))
    total = 0
    for j in range(3):
        minor = field.sub(
            field.mul(m[1][(j + 1) % 3], m[2][(j + 2) % 3]),
            field.mul(m[1][(j + 2) % 3], m[2][(j + 1) % 3]),
        )
        total = field.add(total, field.mul(m[0][j], minor))
    return total


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_inv(field, m, n, bound):
    """m^-1 = m^(k-1) from the order k of m, as FrobeniusData takes tau^-1;
    the powers are walked only up to the group order ``bound``."""
    ident = _identity(n)
    acc, prev = m, ident
    for _ in range(bound):
        if acc == ident:
            return prev
        acc, prev = _mat_mul(field, acc, m, n), acc
    raise CrossCheckFailed(f"order of generator {m} over GF({field.q}) exceeds the group order {bound}")


def enumerate_group(spec: MatrixGroupSpec):
    """All elements of the group, as tuples of tuples of field codes."""
    order = spec.order()
    if order > spec.cap:
        raise CapExceeded(f"group order {order} exceeds cap {spec.cap}")
    field = GF(spec.p, spec.r)
    n, q = spec.n, spec.q
    want_det_one = spec.family == "SL"
    elems = []
    for code in range(q ** (n * n)):
        entries = _digits_fixed(code, q, n * n)
        m = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
        d = _det(field, m, n)
        if d == 0:
            continue
        if want_det_one and d != 1:
            continue
        elems.append(m)
    if len(elems) != order:
        raise CrossCheckFailed(
            f"enumerated {len(elems)} elements of {spec.family}({n}, q={q}), order formula {order}"
        )
    return field, elems


def _generators(spec: MatrixGroupSpec, field: GF):
    """A generating set: elementary transvections, plus a primitive diagonal
    for GL."""
    n = spec.n
    gens = []
    # off-diagonal coefficients must span F_q over F_p for the transvections
    # to generate; powers of a multiplicative generator form such a basis
    one_units = [1]
    if field.r > 1:
        g = field.generator()
        one_units = [field.pow(g, k) for k in range(field.r)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in one_units:
                m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                m[i][j] = c
                gens.append(tuple(tuple(row) for row in m))
    if spec.family == "GL":
        g = field.generator()
        m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        m[0][0] = g
        gens.append(tuple(tuple(row) for row in m))
    return gens


def element_order(field, m, n, bound):
    acc = m
    ident = _identity(n)
    for k in range(1, bound + 1):
        if acc == ident:
            return k
        acc = _mat_mul(field, acc, m, n)
    raise CrossCheckFailed(f"order of {m} over GF({field.q}) exceeds the group order {bound}")


def minimal_polynomial(field, m, n):
    """Monic minimal polynomial (coefficient list, low degree first)."""
    powers = [_identity(n)]
    for _ in range(n):
        powers.append(_mat_mul(field, powers[-1], m, n))
    for deg in range(1, n + 1):
        for code in range(field.q ** deg):
            coeffs = _digits_fixed(code, field.q, deg) + [1]
            acc = [[0] * n for _ in range(n)]
            for k, ck in enumerate(coeffs):
                if ck:
                    for i in range(n):
                        for j in range(n):
                            acc[i][j] = field.add(acc[i][j], field.mul(ck, powers[k][i][j]))
            if all(all(x == 0 for x in row) for row in acc):
                return coeffs
    raise CrossCheckFailed(f"no minimal polynomial of degree <= {n} for {m} over GF({field.q})")


def brute_force_ss_classes(spec: MatrixGroupSpec):
    """(semisimple class count, order histogram of the semisimple classes).

    Also verifies, element by element, that order prime to p coincides with
    squarefreeness of the minimal polynomial (diagonalizability over the
    splitting field).
    """
    field, elems = enumerate_group(spec)
    n = spec.n
    p = field.p
    order = len(elems)
    gens = _generators(spec, field)
    gen_invs = [_mat_inv(field, g, n, order) for g in gens]
    unvisited = set(elems)
    class_reps = []
    class_sizes = []
    while unvisited:
        rep = unvisited.pop()
        cls = {rep}
        frontier = [rep]
        while frontier:
            x = frontier.pop()
            for g, gi in zip(gens, gen_invs):
                y = _mat_mul(field, gi, _mat_mul(field, x, g, n), n)
                if y in unvisited:
                    unvisited.remove(y)
                    cls.add(y)
                    frontier.append(y)
                elif y not in cls:
                    cls.add(y)
                    frontier.append(y)
        class_reps.append(rep)
        class_sizes.append(len(cls))
    if sum(class_sizes) != order:
        raise CrossCheckFailed(f"class sizes sum to {sum(class_sizes)}, group order {order}")
    ss_count = 0
    histogram = {}
    for rep in class_reps:
        k = element_order(field, rep, n, order)
        p_regular = k % p != 0
        mp = minimal_polynomial(field, rep, n)
        g = poly_gcd(field, mp, poly_derivative(field, mp))
        squarefree = len(g) == 1
        if p_regular != squarefree:
            raise CrossCheckFailed(
                f"p-regular/semisimple mismatch at {rep}: order {k}, minpoly {mp}"
            )
        if p_regular:
            ss_count += 1
            histogram[k] = histogram.get(k, 0) + 1
    return ss_count, dict(sorted(histogram.items()))
