"""The quotient of the invariant ring by the Frobenius-difference ideal:
normal forms, explicit Z-bases, rank data, structure constants, the averaged
trace form, its Gram discriminant, and a reducedness certificate by modular
evaluation, under two basis strategies.

GenericSC (derived group of the dual datum simply-connected): the basis is
indexed by a box of fundamental-weight coefficients in [0, q) times a set of
representatives of the central lattice modulo (F - id).  Normal forms follow
the constructive reduction: a weight with some pairing >= q is rewritten
through the product expansions against r(q*w_a) and r(tau(w_a)), which have
the same image in the quotient, and every step strictly lowers the height.
Every orbit sum (reduction, products, evaluations, trace form) is built in
the coordinates (b, c) of X = sum Z w_a + X0, b the pairings and c the
central part; X is the boundary format.  The reduction is memoized under the
canonical weight (b, 0): a weight (b, c) reads that entry with its central
coordinate moved, as e(0, c) is an invariant unit.

SOEven (the even special orthogonal datum): the published basis box
S1 | S2 | S2' is materialized as stated.  The published reduction sketch
cannot rewrite every weight (a band of two-sided weights admits no dominant
decomposition lam = kappa + q*mu at all), so the context builds the
GenericSC ring of a rank+1 datum whose derived group is simply-connected
(the "z-extension" cover, so_even_cover) and reduces every orbit sum there,
entering each weight x as (x, 0); coordinates w.r.t. the box are then the
canonical integer solution of an exact linear system, and every solve is
certified or fails loudly.  Note: the point count of this datum is q^n,
which contradicts the published box size 2q^n - 2q^(n-1) + q^(n-2); the
package computes both and surfaces the mismatch rather than hiding it.  See
the project README for the full analysis.
"""

from __future__ import annotations

import itertools
from operator import index, mul

from .errors import (
    ContextMismatch,
    CrossCheckFailed,
    LimitExceeded,
    NonIntegral,
    NonTermination,
    NotDominant,
    ReductionUnsolvable,
    StrategyInapplicable,
)
from .intlinalg import IntMatrix, SmithForm, det, rank_mod_p
from .oracles import TorusPoint, enumerate_points, evaluate, sector_divisors
from .orbitring import InvariantElement, OrbitCache, combine, multiply, product
from .rootdata import UNAVAILABLE, FrobeniusData, RootDatum, weyl_group

GENERIC_SC = "GenericSC"
SO_EVEN = "SOEven"


class BElement:
    """Sparse vector over the context basis: {basis index -> nonzero int}."""

    __slots__ = ("coeffs", "ctx_id")

    def __init__(self, coeffs, ctx_id):
        self.coeffs = {index(k): index(v) for k, v in coeffs.items() if v}
        self.ctx_id = ctx_id

    def __add__(self, other):
        if self.ctx_id != other.ctx_id:
            raise ContextMismatch("elements from different contexts")
        return BElement(combine(((self.coeffs, 1), (other.coeffs, 1))), self.ctx_id)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return BElement(combine(((self.coeffs, c),)), self.ctx_id)

    def __eq__(self, other):
        return (
            isinstance(other, BElement)
            and self.coeffs == other.coeffs
            and self.ctx_id == other.ctx_id
        )

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.ctx_id))

    def __repr__(self):
        return f"BElement({dict(sorted(self.coeffs.items()))})"


class BContext:
    """Everything needed to compute in the quotient ring for one datum.

    Immutable after construction except the memo cache, the central-shift
    offsets read with it, the lazily computed oracle data (the sector table,
    points, evaluation matrices), the structure-constant tensor, the basis
    traces and the SOEven change of basis, each computed at most once per
    context: idempotent write-once-per-key caches.
    ``cache`` holds orbits in X only, for curtis and verification.
    """

    _next_id = itertools.count()

    def __init__(self, rd, frob, strategy):
        self.rd = rd
        self.frob = frob
        self.strategy = strategy
        self.ctx_id = next(BContext._next_id)
        self.weyl = weyl_group(rd)
        self.cache = OrbitCache(rd)
        self.memo = {}
        self._sector_data = None
        self._points = None
        self._evaluations = None
        self._structure = None
        self._traces = None
        self._shifts = {}
        self._cover = None
        if strategy == GENERIC_SC:
            self._init_ring(rd, frob)
            self.basis = [self._to_x.apply(w) for w in self._wbasis]
        elif strategy == SO_EVEN:
            self._init_so_even()
        else:
            raise StrategyInapplicable(f"unknown strategy {strategy!r}")

    # -- shared plumbing -------------------------------------------------

    def sector_data(self):
        """(divisor lcm, per-class (w_index, u, diag, class size), class
        count) from sector_divisors."""
        if self._sector_data is None:
            self._sector_data = sector_divisors(self.rd, self.frob, self.weyl)
        return self._sector_data

    def class_count(self):
        """The |W|-average of the sector orders, read from sector_data()."""
        return self.sector_data()[2]

    def points(self):
        if self._points is None:
            self._points = enumerate_points(self.rd, self.frob, sectors=self.sector_data())
        return self._points

    def evaluations(self):
        """Values of every basis orbit sum (rows) at every point (columns), from
        the ring's orbits in (b, c): <E, to_x*w> = <to_x^T*E, w> for exponents E."""
        if self._evaluations is None:
            to_xt = self._to_x.transpose()
            pts = [TorusPoint(to_xt.apply(p.exponents), p.zeta, p.l, p.ell, p.w_index)
                   for p in self.points()]
            self._evaluations = [[evaluate(self._wcache, InvariantElement.r(w), pt) for pt in pts]
                                 for w in self._wbasis]
        return self._evaluations

    def lift(self, x: BElement):
        """Representative invariant element using the stored basis weights."""
        if x.ctx_id != self.ctx_id:
            raise ContextMismatch("element belongs to a different context")
        return InvariantElement(combine(({self.basis[i]: 1}, c) for i, c in x.coeffs.items()))

    def unit(self):
        return normal_form(self, InvariantElement.one(self.rd.rank))

    # -- the ring ---------------------------------------------------------

    def _init_ring(self, rd, frob):
        """The ring every orbit sum is built in, for a datum rd with
        simply-connected derived group: the change of basis to_x = (w_1 ...
        w_m | z_1 ... z_k) from the coordinates (b, c) of X = sum Z w_i + X0
        to those of X, its inverse to_w, whose first m rows are the simple
        coroots, and a private copy of the datum and of its orbit cache, and
        tau, in (b, c).

        All ring arithmetic runs on that copy: b holds the pairings of a weight
        and c its central part, so w_a is the unit vector e_a.  The ring's
        basis, ``_wbasis``, is the box [0, q)^m times representatives of
        X0 / (F - id) X0."""
        lifts = rd.fundamental_weight_lifts()
        if lifts == UNAVAILABLE:
            raise StrategyInapplicable(
                "GenericSC needs fundamental weight lifts (simply-connected derived datum)"
            )
        m = rd.nroots
        to_x = IntMatrix(list(zip(*(list(lifts) + rd.central_lattice()))))
        form = SmithForm(to_x)
        if any(d != 1 for d in form.diag):
            raise CrossCheckFailed("fundamental weights and central lattice do not span X")
        self._to_x = to_x
        self._to_w = to_w = form.v * form.u
        ident = IntMatrix.identity(rd.rank).entries
        w_rd = RootDatum(rd.rank, [to_w.apply(a) for a in rd.simple_roots], ident[:m], rd.label)
        self._wcache = OrbitCache(w_rd)
        # the reduction's partners (q*e_a, tau(e_a)) of each w_a = e_a, with
        # tau(e_a) column a of to_w * tau * to_x
        wtau = to_w * frob.tau * to_x
        self._steps = [(tuple(frob.q if i == a else 0 for i in range(rd.rank)), wtau.col(a))
                       for a in range(m)]
        f = (to_w * frob.f_matrix * to_x).entries
        if any(any(row[m:]) for row in f[:m]):
            raise NonIntegral("F does not preserve the central lattice")
        a0 = IntMatrix([row[m:] for row in f[m:]]) - IntMatrix.identity(rd.rank - m)
        central = SmithForm(a0)
        if 0 in central.diag:
            raise NonIntegral("(F - id) singular on the central lattice")
        # the representative of box is its one preimage u^-1 * box, and the
        # saturation basis holds the columns of u^-1
        cols = central.saturation_basis()
        reps = [tuple(sum(b * col[k] for b, col in zip(box, cols)) for k in range(a0.rows))
                for box in itertools.product(*[range(x) for x in central.diag])]
        self._central, self._central_reps = central, reps
        self._wbasis = [b + c for b in itertools.product(range(frob.q), repeat=m) for c in reps]

    def _central_rep_index(self, c):
        """Index of the representative of the class of central coordinates c
        modulo (F - id): u*c read modulo the SNF diagonal, in the order of
        itertools.product (last digit fastest)."""
        idx = 0
        for a, d in zip(self._central.u.apply(c), self._central.diag):
            idx = idx * d + a % d
        return idx

    # -- SOEven ----------------------------------------------------------

    def _init_so_even(self):
        """The ring of so_even_cover(rd), with to_w cut down to x -> (x, 0)
        -> (b, c) and to_x to its first n rows, and the published box as
        basis, in X and (as ``_wbasis``) in (b, c)."""
        rd, frob = self.rd, self.frob
        n = rd.rank
        if not _looks_like_so_even(rd):
            raise StrategyInapplicable("SOEven needs the even special orthogonal datum")
        if frob.tau != IntMatrix.identity(n):
            raise StrategyInapplicable("SOEven is implemented for the split case only")
        cover_rd = so_even_cover(rd)
        self._init_ring(cover_rd, FrobeniusData(cover_rd, frob.p, frob.r))
        self._to_w = IntMatrix([row[:n] for row in self._to_w.entries])
        self._to_x = IntMatrix(self._to_x.entries[:n])
        self.basis = so_even_basis_weights(n, frob.q)
        self._wbasis = [self._to_w.apply(lam) for lam in self.basis]

    def cover(self):
        """The SOEven change of basis: the matrix whose columns are the ring
        normal forms of the box, factorized once (its SmithForm, holding the
        kernel) on the first normal form or product."""
        if self.strategy != SO_EVEN:
            raise StrategyInapplicable("cover() is an SOEven facility")
        if self._cover is None:
            size = self.frob.q ** self.rd.nroots * len(self._central_reps)
            cols = [_dense(_reduce_w(self, {w: 1}), size) for w in self._wbasis]
            self._cover = SmithForm(IntMatrix(list(zip(*cols))))
        return self._cover


def _looks_like_so_even(rd: RootDatum):
    n = rd.rank
    if n < 2 or rd.nroots != n:
        return False
    expected = [tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(n)) for i in range(n - 1)]
    expected.append(tuple(1 if j in (n - 2, n - 1) else 0 for j in range(n)))
    return list(rd.simple_roots) == expected and list(rd.simple_coroots) == expected


def so_even_basis_weights(n, q):
    """The published box S1 | S2 | S2' as explicit dominant weights."""
    basis = []
    # S1: nonnegative, consecutive differences in [0,q), last coordinate in [0,q)
    for diffs in itertools.product(range(q), repeat=n - 1):
        for an in range(q):
            coords = [an] * n
            for i in range(n - 2, -1, -1):
                coords[i] = coords[i + 1] + diffs[i]
            basis.append(tuple(coords))
    # S2 | S2': two-sided, differences in [0,q) down to position n-2, and
    # 0 < a_n <= a_{n-1} < q (S2) or q < a_{n-1} < 2q, 0 < a_n < a_{n-1} - q (S2')
    s2 = [(a, b) for a in range(1, q) for b in range(1, a + 1)]
    s2_prime = [(a, b) for a in range(q + 1, 2 * q) for b in range(1, a - q)]
    for tails in (s2, s2_prime):
        for diffs in itertools.product(range(q), repeat=n - 2):
            for a_nm1, an in tails:
                coords = [0] * (n - 2) + [a_nm1, -an]
                for i in range(n - 3, -1, -1):
                    coords[i] = coords[i + 1] + diffs[i]
                basis.append(tuple(coords))
    return basis


def so_even_claimed_rank(n, q):
    return 2 * q ** n - 2 * q ** (n - 1) + q ** (n - 2)


def so_even_cover(rd: RootDatum):
    """The rank+1 datum with simply-connected derived group that an SOEven
    context builds its ring on.

    Its character lattice is Z^(n+1); the first n coordinates carry the same
    simple roots, and the extra coordinate enters only the last simple
    coroot.  x -> (x, 0) commutes with every reflection (the extra coordinate
    is 0 on its image), so orbit sums map to orbit sums of the same size,
    products commute with it and the Frobenius-difference ideal maps into the
    cover's.  Its Cartan matrix is the datum's (the extra coordinate is 0 on
    every root), so the two Weyl groups agree.
    """
    roots = [tuple(a) + (0,) for a in rd.simple_roots]
    coroots = [tuple(av) + (0,) for av in rd.simple_coroots[:-1]]
    coroots.append(tuple(rd.simple_coroots[-1]) + (-1,))
    return RootDatum(rd.rank + 1, roots, coroots, label=rd.label + "-cover")


def _dense(coeffs, size):
    out = [0] * size
    for k, v in coeffs.items():
        out[k] = v
    return out


def build_context(rd, frob, strategy) -> BContext:
    return BContext(rd, frob, strategy)


def rank(ctx: BContext) -> int:
    return len(ctx.basis)


def normal_form(ctx: BContext, x: InvariantElement) -> BElement:
    """Image of an invariant element in the quotient, in basis coordinates,
    reduced in the ring's (b, c)."""
    m = ctx.rd.nroots
    coeffs = {}
    for lam, c in x.coeffs.items():
        w = ctx._to_w.apply(lam)
        if any(b < 0 for b in w[:m]):
            raise NotDominant(str(lam))
        coeffs[w] = c
    return _normal_form_w(ctx, coeffs)


def _normal_form_w(ctx: BContext, coeffs):
    """Normal form of the sum of c*r(w) over {w: c}, each w a dominant
    weight in (b, c): the ring's reduction as it stands (GenericSC) or
    solved against the box (SOEven), reduced modulo the kernel lattice for
    determinism.  Raises ReductionUnsolvable if the box does not span it."""
    nf = _reduce_w(ctx, coeffs)
    if ctx.strategy == GENERIC_SC:
        return BElement(nf, ctx.ctx_id)
    form = ctx.cover()
    ok, c = form.solve(_dense(nf, form.m.rows))
    if not ok:
        raise ReductionUnsolvable(
            "SOEven box does not span this element in the cover; "
            "the published basis cannot express it"
        )
    return BElement(dict(enumerate(form.reduce(c))), ctx.ctx_id)


def _reduce_w(ctx: BContext, coeffs):
    """Coefficients in the ring's own basis of the sum of c*r(w) over
    {w: c}, each w = (b, z) a dominant weight in (b, c): the memo entry of
    the canonical weight (b, 0), reduced if new, shifted by z."""
    m = ctx.rd.nroots
    terms = []
    for w, c in coeffs.items():
        z = w[m:]
        key = w[:m] + (0,) * len(z)
        entry = ctx.memo.get(key)
        if entry is None:
            entry = _reduce_canonical(ctx, key)
        terms.append((_shifted(ctx, entry, z) if any(z) else entry, c))
    return combine(terms)


def _shifted(ctx: BContext, entry, z):
    """Coefficients of the normal form of r(w + (0, z)) from the memo entry
    of r(w): e(0, z) is an invariant unit, so each basis index (box, ci)
    moves to (box, index of the class of _central_reps[ci] + z).  The
    offsets per ci are computed once per z."""
    delta = ctx._shifts.get(z)
    if delta is None:
        delta = [
            ctx._central_rep_index(tuple(a + b for a, b in zip(rep, z))) - ci
            for ci, rep in enumerate(ctx._central_reps)
        ]
        ctx._shifts[z] = delta
    nc = len(delta)
    return {i + delta[i % nc]: v for i, v in entry.items()}


def _reduce_canonical(ctx: BContext, key):
    """Memoized reduction of the orbit sum of a canonical weight (b, 0).

    A weight with some b_a >= q is rewritten through the products of
    r(w - q*e_a) with r(q*e_a) and with r(tau(e_a)), which have the same
    image in the quotient; each term of the replacement is read as its
    canonical weight shifted by its central part.  The leading coefficient
    and the height descent are checked on every rewrite.  A weight with b in
    the box is basis vector (b, 0), the mixed-radix index of b times the
    number of central classes.
    """
    cache, memo = ctx._wcache, ctx.memo
    q, m, nc = ctx.frob.q, ctx.rd.nroots, len(ctx._central_reps)
    zero = key[m:]
    replacements = {}
    stack = [key]
    while stack:
        cur = stack.pop()
        if cur in memo:
            continue
        alpha = next((i for i in range(m) if cur[i] >= q), None)
        if alpha is None:
            idx = 0
            for x in cur[:m]:
                idx = idx * q + x
            memo[cur] = {idx * nc: 1}
            continue
        replacement = replacements.get(cur)
        if replacement is None:
            lam_p = cur[:alpha] + (cur[alpha] - q,) + cur[alpha + 1:]
            q_e, tau_e = ctx._steps[alpha]
            p1 = product(cache, lam_p, q_e)
            if p1.get(cur) != 1:
                raise NonTermination(
                    f"leading coefficient of r({cur}) is {p1.get(cur)}"
                )
            p2 = product(cache, lam_p, tau_e)
            replacement = combine(((p2, 1), (p1, -1), ({cur: 1}, 1)))
            h_cur = cache.height(cur)
            for term in replacement:
                if not cache.height(term) < h_cur:
                    raise NonTermination(
                        f"height failed to decrease: {term} vs {cur} "
                        f"({cache.height(term)} >= {h_cur})"
                    )
            replacements[cur] = replacement
        pending = [k for k in (t[:m] + zero for t in replacement) if k not in memo]
        if pending:
            stack.append(cur)
            stack.extend(pending)
            continue
        memo[cur] = _reduce_w(ctx, replacement)
    return memo[key]


def multiply_b(ctx: BContext, x: BElement, y: BElement) -> BElement:
    """The product of the basis lifts in the ring's (b, c), reduced there."""
    if x.ctx_id != ctx.ctx_id or y.ctx_id != ctx.ctx_id:
        raise ContextMismatch("operands belong to a different context")
    a, b = (
        InvariantElement(combine(({ctx._wbasis[i]: 1}, c) for i, c in e.coeffs.items()))
        for e in (x, y)
    )
    return _normal_form_w(ctx, multiply(ctx._wcache, a, b).coeffs)


def structure_constants(ctx: BContext, limit=64):
    """Dense tensor c[i][j][k] with basis_i * basis_j = sum_k c[i][j][k] basis_k,
    built once per context and kept in ctx._structure; callers only read it.
    The rank limit is checked on every call."""
    n = len(ctx.basis)
    if n > limit:
        raise LimitExceeded(f"rank {n} exceeds limit {limit}")
    if ctx._structure is None:
        tensor = [[None] * n for _ in range(n)]
        for i in range(n):
            bi = BElement({i: 1}, ctx.ctx_id)
            for j in range(i, n):
                bj = BElement({j: 1}, ctx.ctx_id)
                tensor[i][j] = tensor[j][i] = _dense(multiply_b(ctx, bi, bj).coeffs, n)
        ctx._structure = tensor
    return ctx._structure


def trace_form(ctx: BContext, x: BElement):
    """tr(x) = sum of c * tr(b_i) over the coefficients of x, read from
    basis_traces."""
    if x.ctx_id != ctx.ctx_id:
        raise ContextMismatch("element belongs to a different context")
    traces = basis_traces(ctx)
    return sum(c * traces[i] for i, c in x.coeffs.items())


def basis_traces(ctx: BContext):
    """[tr(b_0), ..., tr(b_{n-1})] in one sweep, kept in ctx._traces.  tr(b)
    averages over W the characters of b's orbit trivial on each twisted fixed
    torus, checked integral for each b.  The count is the same on F-conjugate
    sectors, so each class row of sector_data, its u*to_x formed once, counts
    with its class size; each of the ring's basis orbits is read once."""
    if ctx._traces is None:
        maps = [(u * ctx._to_x, d, size) for _, u, d, size in ctx.sector_data()[1]]
        traces = []
        for i, lam in enumerate(ctx._wbasis):
            hits = 0
            for w in ctx._wcache.orbit(lam):
                for ux, diag, size in maps:
                    y = ux.apply(w)
                    if all(yi % d == 0 for yi, d in zip(y, diag)):
                        hits += size
            trace, rem = divmod(hits, len(ctx.weyl))
            if rem:
                raise NonIntegral(f"trace sum {hits} of basis element {i} not divisible by |W|")
            traces.append(trace)
        ctx._traces = traces
    return ctx._traces


def gram_matrix(ctx: BContext):
    """G[i][j] = tr(b_i * b_j) = sum_k c[i][j][k] * tr(b_k), by linearity."""
    n = len(ctx.basis)
    tensor = structure_constants(ctx, limit=n)
    traces = basis_traces(ctx)
    return IntMatrix(
        [[sum(map(mul, tensor[i][j], traces)) for j in range(n)] for i in range(n)]
    )


def gram_discriminant(ctx: BContext):
    return det(gram_matrix(ctx))


def is_plus_minus_p_power(value, p):
    v = abs(value)
    if v == 0:
        return False
    while v % p == 0:
        v //= p
    return v == 1


def reducedness_certificate(ctx: BContext):
    """True iff the basis evaluation matrix at all fixed points has full rank
    equal to both the basis size and the point count."""
    r, nb, np_ = evaluation_rank(ctx)
    return r == nb == np_


def evaluation_rank(ctx: BContext):
    """(rank mod ell of the evaluation matrix, basis size, point count)."""
    pts = ctx.points()
    r = rank_mod_p(ctx.evaluations(), pts[0].ell) if pts else 0
    return r, len(ctx.basis), len(pts)
