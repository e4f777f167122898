"""Independent counting oracles: twisted-torus fixed-point counts, the
class-count average, explicit fixed-point enumeration with evaluation in a
prime field, and Weyl-orbit fusion across twist sectors.

For a twist w the fixed points of w∘F on the dual torus form a finite abelian
group isomorphic to the cokernel of (F*w - id) on the character lattice; its
order is |det(F*w - id)|.  Averaging those orders over W counts the W-orbits
of the union of all sectors, which is the point count of the fixed-point
scheme and the target of every rank cross-check in this package.  Each
sector matrix is built once, in sector_divisors, from its first parent's in
Weyl order by one simple reflection and with no matrix product, and its
Bareiss determinant taken; the class count averages those over all of W.
Up to the W-action a sector depends only on the F-conjugacy class of w, read
off the reflection tables of weyl_group, so the table sector_divisors hands
on has one row per class: the Smith normal form is taken, and the point walk
and the trace form run, once per class, on its first sector in Weyl order.
Every sector's determinant is compared with the SNF diagonal of its class.

Points are realized concretely: a prime ell with ell = 1 mod every elementary
divisor makes all required roots of unity live in F_ell.  A point is held as
its exponent vector mod l (the lcm of the divisors) against a generator zeta
of the l-th roots of unity, so a weight's value is one dot product mod l and
one power of zeta.  Exponent vectors are points of Y/lY (Y the cocharacter
lattice), and two lie in one W-orbit exactly when their integer lifts lie in
one orbit of W x lY.  The closed l-scaled alcove is a strict fundamental
domain for W x lQ^vee (Q^vee the coroot lattice), so each point gets an
exact orbit key: its central pairings reduced into [0, l), then the least
alcove representative over the cosets of Q^vee in the semisimple part of Y.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import BadPrime, CrossCheckFailed, NonIntegral
from .finitefield import GF
from .intlinalg import IntMatrix, SmithForm, det, snf
from .orbitring import OrbitCache
from .rootdata import (FrobeniusData, RootDatum, _is_prime, _sparse, chamber, weyl_group,
                       weyl_walk)


def class_count(rd: RootDatum, frob: FrobeniusData):
    """(1/|W|) * sum over w of |det(F*w - id)|, checked integral: the count
    from sector_divisors."""
    return sector_divisors(rd, frob)[2]


class TorusPoint:
    """A character-lattice homomorphism into F_ell^x, held as its exponent
    vector: the j-th standard basis weight goes to zeta^(exponents[j]), where
    zeta generates the l-th roots of unity in F_ell.

    ``values`` are those images, computed on first read; ``w_index`` records
    the sector the representative was first found in.
    """

    __slots__ = ("exponents", "zeta", "l", "ell", "w_index", "_values")

    def __init__(self, exponents, zeta, l, ell, w_index):
        self.exponents = tuple(exponents)
        self.zeta = zeta
        self.l = l
        self.ell = ell
        self.w_index = w_index
        self._values = None

    @property
    def values(self):
        if self._values is None:
            self._values = tuple(pow(self.zeta, e, self.ell) for e in self.exponents)
        return self._values

    def eval_weight(self, lam):
        e = 0
        for x, y in zip(self.exponents, lam):
            e += x * y
        return pow(self.zeta, e % self.l, self.ell)

    def __repr__(self):
        return f"TorusPoint({self.values}, ell={self.ell})"


def sector_divisors(rd: RootDatum, frob: FrobeniusData, weyl=None):
    """The sector table: each A_w = F*w - id is built once, F*w by one
    reflection of its parent's (weyl_walk from F: as tau^-1 s_b tau =
    s_sigma^-1(b), F*s_b*F^-1 = s_sigma^-1(b)), its order |det A_w| is taken
    by Bareiss for every w, and the SNF u*A*v = diag(d) once per F-conjugacy
    class.

    s_a*A_w*s_a = A_w' with w' = s_sigma(a)*w*s_a for every simple reflection
    s_a, as tau s_a tau^-1 = s_sigma(a) with sigma = frob.simple_permutation;
    so the sectors split into the F-conjugacy classes w -> s_sigma(a)*w*s_a,
    read off the tables of weyl_group, and conjugate sectors have the same
    SNF diagonal and W-images of each other's fixed points.  The
    representative of a class is its first sector in Weyl order.

    Returns (divisors_lcm, classes, count): classes[k] = (w_index, u, diag,
    class size) for the class whose first sector is w_index, in Weyl order of
    those, and count = sum over all w of |det A_w| / |W| (NonIntegral if the
    division is not exact).  Every sector's |det| is compared with the
    product of its class's SNF diagonal: CrossCheckFailed naming the sector
    on a mismatch, or when a conjugate of a sector lies in an earlier class.
    """
    if weyl is None:
        weyl = weyl_group(rd)
    moves = [None] * rd.nroots
    for a, b in frob.simple_permutation.items():
        moves[b] = rd.simple[a]
    rep_of = [None] * len(weyl)
    diags = {}
    classes = []
    total = 0
    l = 1
    for i, fw in enumerate(weyl_walk(frob.f_matrix.entries, moves, weyl)):
        # A = F*w - id: one diagonal entry changes per row
        a = IntMatrix.of_rows(tuple(row[:r] + (row[r] - 1,) + row[r + 1:]
                                    for r, row in enumerate(fw)))
        order = abs(det(a))
        if order == 0:
            raise NonIntegral("sector matrix is singular; q >= 2 should prevent this")
        total += order
        if rep_of[i] is None:
            d, u, _ = snf(a)
            diag = diags[i] = tuple(d[k, k] for k in range(rd.rank))
            classes.append((i, u, diag, _close_class(i, weyl, frob.simple_permutation, rep_of)))
            for x in diag:
                l = l * x // gcd(l, x)
        else:
            diag = diags[rep_of[i]]
        if prod(diag) != order:
            raise CrossCheckFailed(
                f"sector {i}: SNF diagonal {list(diag)} of sector {rep_of[i]} has product "
                f"{prod(diag)}, |det(F*w - id)| = {order}"
            )
    count, rem = divmod(total, len(weyl))
    if rem:
        raise NonIntegral(f"sector sum {total} not divisible by |W| = {len(weyl)}")
    return l, classes, count


def _close_class(i, weyl, sigma, rep_of):
    """Mark each sector F-conjugate to sector i with i in ``rep_of``, closing
    under w_j -> s_sigma(a)*w_j*s_a, the index left[sigma(a)][right[a][j]],
    and return the class size.  Classes are disjoint, so meeting a sector of
    an earlier class is a CrossCheckFailed."""
    rep_of[i] = i
    size = 1
    frontier = [i]
    while frontier:
        j = frontier.pop()
        for a, right in enumerate(weyl.right):
            k = weyl.left[sigma[a]][right[j]]
            if rep_of[k] is None:
                rep_of[k] = i
                size += 1
                frontier.append(k)
            elif rep_of[k] != i:
                raise CrossCheckFailed(
                    f"sector {j}: conjugate to sector {k} of the class of sector {rep_of[k]}"
                )
    return size


def _pick_ell(l, p, ell=None):
    """Validate a given ell against the divisor lcm ``l``, or choose the
    smallest prime ell = 1 mod l with ell != p."""
    if ell is None:
        ell = l + 1
        while not (_is_prime(ell) and ell != p):
            ell += l
        return ell
    if not _is_prime(ell):
        raise BadPrime(f"{ell} is not prime")
    if ell == p:
        raise BadPrime("ell must differ from p")
    if (ell - 1) % l != 0:
        raise BadPrime(f"ell = {ell} is not 1 mod {l}")
    return ell


def key_lattice(rd: RootDatum, l):
    """The data of orbit_key at modulus l: (l, central, shifts, walls).

    ``central`` pairs each basis functional phi_k of rd.central_lattice(),
    sparse, with l*y_k for a y_k in Y such that phi_j . y_k = delta_jk (Phi
    is saturated, so one SmithForm of Phi solves for all).  ``shifts`` are
    l*z for z over the cosets of Y_ss/Q^vee, Y_ss = Y cap ker Phi and Q^vee
    the coroot lattice, from rd.coroot_form, u*C*v = diag(d) of the coroot
    rows C: row i of u*C is d_i*b_i with b_1, ... a basis of Y_ss, and the
    cosets are the sums of c_i*b_i with 0 <= c_i < d_i.  ``walls`` are the
    chamber walls (beta, beta^vee, offset) of the closed l-scaled alcove
    {offset + <beta, L> >= 0}: rd.cowalls (the simple roots with offset 0),
    then -theta, -theta^vee with offset l for each highest root theta.
    CrossCheckFailed when a central functional cannot be lifted, when a row
    of u*C is no multiple of its d_i, or when some b_i leaves ker Phi.
    """
    phi = rd.central_lattice()
    central = []
    if phi:
        phi_form = SmithForm(IntMatrix(phi))
        for k, row in enumerate(phi):
            ok, y = phi_form.solve(tuple(int(j == k) for j in range(len(phi))))
            if not ok:
                raise CrossCheckFailed(f"central functional {list(row)} cannot be lifted to Y")
            central.append((_sparse(row), _sparse([l * x for x in y])))
    shifts = [(0,) * rd.rank]
    if rd.nroots:
        form = rd.coroot_form
        for row, di in zip((form.u * form.m).entries, form.diag):
            if di == 0 or any(x % di for x in row):
                raise CrossCheckFailed(
                    f"coroot SNF row {list(row)} is not {di} times a vector of Y")
            b = tuple(x // di for x in row)
            for f in phi:
                if sum(x * y for x, y in zip(f, b)):
                    raise CrossCheckFailed(
                        f"coroot direction {list(b)} lies outside Y_ss: it pairs "
                        f"nonzero with central functional {list(f)}"
                    )
            shifts = [tuple(x + j * l * y for x, y in zip(z, b)) for j in range(di) for z in shifts]
    walls = rd.cowalls + tuple((_sparse([-x for x in theta]), _sparse([-x for x in theta_v]), l)
                               for theta, theta_v in rd.highest_roots())
    return l, central, shifts, walls


def orbit_key(pt, lattice):
    """Exact W-orbit key of the point L in Y/lY, from key_lattice(rd, l).

    W acts on exponent vectors by the reflections L - <alpha, L> alpha^vee,
    and its orbits on Y/lY are orbits of W x lY on integer lifts.
    Translating by l*y_k brings each central pairing phi_k . L into [0, l);
    what is left of lY is lY_ss, the union of the cosets l*z + lQ^vee.  For
    each z, rootdata.chamber reflects L + l*z into the closed l-scaled
    alcove, a strict fundamental domain for W x lQ^vee (each reflection in a
    wall the point lies strictly beyond brings it nearer an interior point),
    and the key is the least of these alcove points.
    """
    l, central, shifts, walls = lattice
    base = list(pt)
    for phi, ly in central:
        c = 0
        for k, a in phi:
            c += a * base[k]
        c //= l
        if c:
            for k, a in ly:
                base[k] -= c * a
    best = None
    for shift in shifts:
        v = chamber([x + y for x, y in zip(base, shift)], walls)
        if best is None or v < best:
            best = v
    return best


def enumerate_points(rd: RootDatum, frob: FrobeniusData, ell=None, *, sectors=None):
    """One representative per W-orbit of the union of all sector fixed groups.

    A point is held as its exponent vector L mod l (l the lcm of all
    elementary divisors): its value on the j-th basis weight is zeta^(L_j),
    zeta = g^((ell-1)/l).  The class whose first sector has SNF
    u*(F*w - id)*v = diag(d) is walked as one product over 0 <= c_i < d_i of
    the steps c_i*(l/d_i)*(row i of u) mod l, built digit by digit with digit
    0 varying fastest.  Each walked point gets its exact orbit key
    (orbit_key), and a point whose key is new is kept as its orbit's
    representative, the first point of the orbit walked in class order.  The
    number of orbits must equal the class count of the same table, else
    CrossCheckFailed.  ``sectors`` (the output of sector_divisors) is computed
    here unless a caller passes it in.
    """
    if sectors is None:
        sectors = sector_divisors(rd, frob)
    l, classes, count = sectors
    ell = _pick_ell(l, frob.p, ell)
    lattice = key_lattice(rd, l)
    reps = []
    seen = set()
    for w_index, u, diag, _ in classes:
        walk = [(0,) * rd.rank]
        for d, row in zip(diag, u.entries):
            step = [l // d * x for x in row]
            walk = [tuple([(x + c * y) % l for x, y in zip(cur, step)])
                    for c in range(d) for cur in walk]
        for cur in walk:
            key = orbit_key(cur, lattice)
            if key not in seen:
                seen.add(key)
                reps.append((cur, w_index))
    if len(reps) != count:
        raise CrossCheckFailed(f"orbit fusion found {len(reps)} orbits, class_count = {count}")
    zeta = pow(GF(ell).generator(), (ell - 1) // l, ell)
    points = [TorusPoint(key, zeta, l, ell, w_index) for key, w_index in reps]
    points.sort(key=lambda pt: pt.values)
    return points


def evaluate(cache: OrbitCache, x, pt: TorusPoint):
    """Value of an invariant element at a torus point, in F_ell."""
    total = 0
    for lam, c in x.coeffs.items():
        s = 0
        for mu in cache.orbit(lam):
            s += pt.eval_weight(mu)
        total += c * s
    return total % pt.ell
