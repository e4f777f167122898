"""The quotient of the invariant ring by the Frobenius-difference ideal:
normal forms, explicit Z-bases, rank data, structure constants, the averaged
trace form, its Gram discriminant, and a reducedness certificate by modular
evaluation.

Two basis strategies are supported.

GenericSC (derived group of the dual datum simply-connected): the basis is
indexed by a box of fundamental-weight coefficients in [0, q) times a set of
representatives of the central lattice modulo (F - id).  Normal forms follow
the constructive reduction: a weight with some pairing >= q is rewritten
through the product expansions against r(q*w_a) and r(tau(w_a)), which have
the same image in the quotient, and every step strictly lowers the height.

SOEven (the even special orthogonal datum): the published basis box
S1 | S2 | S2' is materialized as stated.  The published reduction sketch
cannot rewrite every weight (a band of two-sided weights admits no dominant
decomposition lam = kappa + q*mu at all), so normal forms are computed
through an embedding into a rank+1 datum whose derived group is
simply-connected ("z-extension" cover); coordinates w.r.t. the box are then
the canonical integer solution of an exact linear system, and every solve is
certified or fails loudly.  Note: the point count of this datum is q^n, which
contradicts the published box size 2q^n - 2q^(n-1) + q^(n-2); the package
computes both and surfaces the mismatch rather than hiding it.  See the
project README for the full analysis.
"""

from __future__ import annotations

import itertools

from .errors import (
    ContextMismatch,
    CrossCheckFailed,
    LimitExceeded,
    NonIntegral,
    NonTermination,
    ReductionUnsolvable,
    StrategyInapplicable,
)
from .intlinalg import IntMatrix, det, in_image, kernel_basis, reduce_mod_lattice, snf
from .oracles import class_count, enumerate_points, evaluate, sector_divisors
from .orbitring import InvariantElement, OrbitCache, multiply
from .rootdata import (
    UNAVAILABLE,
    FrobeniusData,
    RootDatum,
    _unimodular_inverse,
    is_q_restricted,
    weyl_group,
)

GENERIC_SC = "GenericSC"
SO_EVEN = "SOEven"


class BElement:
    """Sparse vector over the context basis: {basis index -> nonzero int}."""

    __slots__ = ("coeffs", "ctx_id")

    def __init__(self, coeffs, ctx_id):
        self.coeffs = {int(k): int(v) for k, v in coeffs.items() if v}
        self.ctx_id = ctx_id

    def __add__(self, other):
        if self.ctx_id != other.ctx_id:
            raise ContextMismatch("elements from different contexts")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return BElement(out, self.ctx_id)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return BElement({k: c * v for k, v in self.coeffs.items()}, self.ctx_id)

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

    Immutable after construction except the memo cache, the lazily computed
    oracle data (sector SNFs, class count, points, evaluation matrices) and
    the structure-constant tensor, each computed at most once per context.
    All are idempotent write-once-per-key caches (racing writers would all
    write the same value).
    """

    _next_id = itertools.count()

    def __init__(self, rd, frob, strategy, weyl=None):
        self.rd = rd
        self.frob = frob
        self.strategy = strategy
        self.ctx_id = next(BContext._next_id)
        self.weyl = weyl if weyl is not None else weyl_group(rd)
        self.cache = OrbitCache(rd)
        self.memo = {}
        self._sector_data = None
        self._class_count = None
        self._points = {}
        self._evaluations = {}
        self._structure = None
        if strategy == GENERIC_SC:
            self._init_generic_sc()
        elif strategy == SO_EVEN:
            self._init_so_even()
        else:
            raise StrategyInapplicable(f"unknown strategy {strategy!r}")

    # -- shared plumbing -------------------------------------------------

    def sector_data(self):
        """(divisor lcm, per-sector SNF data) from sector_divisors."""
        if self._sector_data is None:
            self._sector_data = sector_divisors(self.rd, self.frob, self.weyl)
        return self._sector_data

    def class_count(self):
        if self._class_count is None:
            self._class_count = class_count(self.rd, self.frob, self.weyl)
        return self._class_count

    def points(self, ell=None):
        got = self._points.get(ell)
        if got is None:
            got = enumerate_points(
                self.rd, self.frob, ell, self.weyl,
                sectors=self.sector_data(), expected_orbits=self.class_count(),
            )
            self._points[ell] = got
            self._points.setdefault(got[0].ell if got else None, got)
        return got

    def evaluations(self, ell=None):
        """Values of every basis orbit sum at every point: rows follow the
        basis, columns follow points(ell)."""
        got = self._evaluations.get(ell)
        if got is None:
            pts = self.points(ell)
            got = [
                [evaluate(self.cache, InvariantElement.r(lam), pt) for pt in pts]
                for lam in self.basis
            ]
            self._evaluations[ell] = got
        return got

    def structure_constants(self, limit=64):
        """The structure-constant tensor, built once; callers only read it.

        The rank limit is checked on every call, as by structure_constants."""
        n = len(self.basis)
        if n > limit:
            raise LimitExceeded(f"rank {n} exceeds limit {limit}")
        if self._structure is None:
            self._structure = structure_constants(self, limit=n)
        return self._structure

    def lift(self, x: BElement):
        """Representative invariant element using the stored basis weights."""
        out = InvariantElement()
        for idx, c in x.coeffs.items():
            out = out + InvariantElement.r(self.basis[idx], c)
        return out

    def unit(self):
        return self.from_weight((0,) * self.rd.rank)

    def from_weight(self, lam):
        return normal_form(self, InvariantElement.r(lam))

    # -- GenericSC -------------------------------------------------------

    def _init_generic_sc(self):
        rd, frob = self.rd, self.frob
        lifts = rd.fundamental_weight_lifts()
        if lifts == UNAVAILABLE:
            raise StrategyInapplicable(
                "GenericSC needs fundamental weight lifts (simply-connected derived datum)"
            )
        self.lifts = [tuple(x) for x in lifts]
        central = rd.central_lattice()
        self.central_basis = central
        k = len(central)
        if k:
            b0 = IntMatrix([[central[i][j] for i in range(k)] for j in range(rd.rank)])
            self._central_mat = b0
            fb = [frob.f_apply(v) for v in central]
            f0_cols = []
            for v in fb:
                ok, x = in_image(b0, v)
                if not ok:
                    raise NonIntegral("F does not preserve the central lattice")
                f0_cols.append(x)
            f0 = IntMatrix([[f0_cols[j][i] for j in range(k)] for i in range(k)])
            a0 = f0 - IntMatrix.identity(k)
            d, u, v = snf(a0)
            diag = [d[i, i] for i in range(k)]
            if any(x == 0 for x in diag):
                raise NonIntegral("(F - id) singular on the central lattice")
            uinv = _unimodular_inverse(u)
            reps = []
            for box in itertools.product(*[range(x) for x in diag]):
                y = uinv.apply(box)
                reps.append(b0.apply(y))
            self.central_reps = reps
            self._central_diag = diag
            self._central_u = u
        else:
            self._central_mat = None
            self.central_reps = [(0,) * rd.rank]
            self._central_diag = []
        q = frob.q
        basis = []
        index = {}
        for b in itertools.product(range(q), repeat=rd.nroots):
            for ci, rep in enumerate(self.central_reps):
                lam = tuple(rep)
                for coeff, w in zip(b, self.lifts):
                    lam = tuple(x + coeff * y for x, y in zip(lam, w))
                basis.append(lam)
                index[(b, ci)] = len(basis) - 1
        self.basis = basis
        self._basis_index = index

    def _central_rep_index(self, mu):
        """Index of the canonical representative of a central weight."""
        k = len(self.central_basis)
        if k == 0:
            if any(mu):
                raise NonIntegral(f"{mu} is not in the central lattice")
            return 0
        ok, y = in_image(self._central_mat, mu)
        if not ok:
            raise NonIntegral(f"{mu} is not in the central lattice")
        u = self._central_u
        box = tuple(a % d for a, d in zip(u.apply(y), self._central_diag))
        # must match itertools.product enumeration order (last digit fastest)
        idx = 0
        for a, d in zip(box, self._central_diag):
            idx = idx * d + a
        return idx

    # -- SOEven ----------------------------------------------------------

    def _init_so_even(self):
        rd = self.rd
        n = rd.rank
        if not _looks_like_so_even(rd):
            raise StrategyInapplicable("SOEven needs the even special orthogonal datum")
        if self.frob.tau != IntMatrix.identity(n):
            raise StrategyInapplicable("SOEven is implemented for the split case only")
        q = self.frob.q
        self.basis = so_even_basis_weights(n, q)
        self._cover = None

    def cover(self):
        """Lazily built simply-connected-derived cover context and transfer data."""
        if self.strategy != SO_EVEN:
            raise StrategyInapplicable("cover() is an SOEven facility")
        if self._cover is None:
            self._cover = _SOCover(self)
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
    # S2: two-sided, differences in [0,q) down to position n-2, 0 < a_n <= a_{n-1} < q
    for diffs in itertools.product(range(q), repeat=n - 2):
        for a_nm1 in range(1, q):
            for an in range(1, a_nm1 + 1):
                coords = [0] * n
                coords[n - 1] = -an
                coords[n - 2] = a_nm1
                for i in range(n - 3, -1, -1):
                    coords[i] = coords[i + 1] + diffs[i]
                basis.append(tuple(coords))
    # S2': same but q < a_{n-1} < 2q and 0 < a_n < a_{n-1} - q
    for diffs in itertools.product(range(q), repeat=n - 2):
        for a_nm1 in range(q + 1, 2 * q):
            for an in range(1, a_nm1 - q):
                coords = [0] * n
                coords[n - 1] = -an
                coords[n - 2] = a_nm1
                for i in range(n - 3, -1, -1):
                    coords[i] = coords[i + 1] + diffs[i]
                basis.append(tuple(coords))
    return basis


def so_even_claimed_rank(n, q):
    return 2 * q ** n - 2 * q ** (n - 1) + q ** (n - 2)


class _SOCover:
    """Embedding of the even orthogonal datum into a rank+1 datum with
    simply-connected derived group, plus the exact change-of-basis solve.

    The cover has character lattice Z^(n+1); the first n coordinates carry the
    same simple roots, and the extra coordinate enters only the last simple
    coroot.  Restriction to the hyperplane (x, 0) is the identity on the
    original lattice and commutes with all reflections, so orbit sums map to
    orbit sums and the Frobenius-difference ideal maps into the cover's.
    """

    def __init__(self, ctx: BContext):
        rd = ctx.rd
        n = rd.rank
        roots = [tuple(a) + (0,) for a in rd.simple_roots]
        coroots = [tuple(av) + (0,) for av in rd.simple_coroots[:-1]]
        coroots.append(tuple(rd.simple_coroots[-1]) + (-1,))
        cover_rd = RootDatum(n + 1, roots, coroots, label=rd.label + "-cover")
        cover_frob = FrobeniusData(cover_rd, ctx.frob.p, ctx.frob.r)
        self.ctx = ctx
        self.cover_ctx = BContext(cover_rd, cover_frob, GENERIC_SC)
        if len(self.cover_ctx.weyl) != len(ctx.weyl):
            raise CrossCheckFailed(
                f"cover Weyl group has order {len(self.cover_ctx.weyl)}, "
                f"the datum's has {len(ctx.weyl)}"
            )
        cols = []
        for lam in ctx.basis:
            nf = normal_form(self.cover_ctx, InvariantElement.r(self.embed(lam)))
            cols.append(_dense(nf, len(self.cover_ctx.basis)))
        m = IntMatrix([[cols[j][i] for j in range(len(cols))] for i in range(len(self.cover_ctx.basis))])
        self.matrix = m
        self.kernel = kernel_basis(m)

    def embed(self, lam):
        return tuple(lam) + (0,)

    def reduce(self, x: InvariantElement):
        """Canonical coordinates of x w.r.t. the SOEven box, via the cover.

        Solves matrix * c = cover-coordinates(x) over Z and reduces the
        solution modulo the kernel lattice for determinism.  Raises
        ReductionUnsolvable if the box does not span the image of x.
        """
        lifted = InvariantElement({self.embed(k): v for k, v in x.coeffs.items()})
        target = _dense(normal_form(self.cover_ctx, lifted), len(self.cover_ctx.basis))
        ok, c = in_image(self.matrix, target)
        if not ok:
            raise ReductionUnsolvable(
                "SOEven box does not span this element in the cover; "
                "the published basis cannot express it"
            )
        c = reduce_mod_lattice(c, self.kernel)
        return BElement({i: v for i, v in enumerate(c) if v}, self.ctx.ctx_id)


def _dense(x: BElement, size):
    out = [0] * size
    for k, v in x.coeffs.items():
        out[k] = v
    return out


def build_context(rd, frob, strategy, weyl=None) -> BContext:
    return BContext(rd, frob, strategy, weyl)


def rank(ctx: BContext) -> int:
    return len(ctx.basis)


def normal_form(ctx: BContext, x: InvariantElement) -> BElement:
    """Image of an invariant element in the quotient, in basis coordinates."""
    if ctx.strategy == SO_EVEN:
        return ctx.cover().reduce(x)
    out = BElement({}, ctx.ctx_id)
    for lam, c in x.coeffs.items():
        out = out + _reduce_generic(ctx, lam).scale(c)
    return out


def _reduce_generic(ctx: BContext, lam) -> BElement:
    """Memoized reduction of a single orbit sum, GenericSC strategy."""
    lam = tuple(lam)
    got = ctx.memo.get(lam)
    if got is not None:
        return got
    rd, frob = ctx.rd, ctx.frob
    replacements = {}
    stack = [lam]
    while stack:
        cur = stack.pop()
        if cur in ctx.memo:
            continue
        if is_q_restricted(rd, frob, cur):
            b = tuple(rd.pair(cur, i) for i in range(rd.nroots))
            mu = list(cur)
            for coeff, w in zip(b, ctx.lifts):
                for j in range(rd.rank):
                    mu[j] -= coeff * w[j]
            ci = ctx._central_rep_index(tuple(mu))
            idx = ctx._basis_index[(b, ci)]
            ctx.memo[cur] = BElement({idx: 1}, ctx.ctx_id)
            continue
        replacement = replacements.get(cur)
        if replacement is None:
            alpha = next(i for i in range(rd.nroots) if rd.pair(cur, i) >= frob.q)
            w_a = ctx.lifts[alpha]
            lam_p = tuple(x - frob.q * y for x, y in zip(cur, w_a))
            if not rd.is_dominant(lam_p):
                raise CrossCheckFailed(f"{lam_p} = {cur} - q*w_{alpha} is not dominant")
            q_w = tuple(frob.q * y for y in w_a)
            tau_w = frob.tau_apply(w_a)
            p1 = multiply(ctx.cache, InvariantElement.r(lam_p), InvariantElement.r(q_w))
            if p1.coeffs.get(cur) != 1:
                raise NonTermination(
                    f"leading coefficient of r({cur}) is {p1.coeffs.get(cur)}"
                )
            p2 = multiply(ctx.cache, InvariantElement.r(lam_p), InvariantElement.r(tau_w))
            replacement = p2 - (p1 - InvariantElement.r(cur))
            h_cur = ctx.cache.height(cur)
            for term in replacement.coeffs:
                if not ctx.cache.height(term) < h_cur:
                    raise NonTermination(
                        f"height failed to decrease: {term} vs {cur} "
                        f"({ctx.cache.height(term)} >= {h_cur})"
                    )
            replacements[cur] = replacement
        pending = [t for t in replacement.coeffs if t not in ctx.memo]
        if pending:
            stack.append(cur)
            stack.extend(pending)
            continue
        acc = BElement({}, ctx.ctx_id)
        for term, c in replacement.coeffs.items():
            acc = acc + ctx.memo[term].scale(c)
        ctx.memo[cur] = acc
    return ctx.memo[lam]


def multiply_b(ctx: BContext, x: BElement, y: BElement) -> BElement:
    if x.ctx_id != ctx.ctx_id or y.ctx_id != ctx.ctx_id:
        raise ContextMismatch("operands belong to a different context")
    prod = multiply(ctx.cache, ctx.lift(x), ctx.lift(y))
    return normal_form(ctx, prod)


def structure_constants(ctx: BContext, limit=64):
    """Dense tensor c[i][j][k] with basis_i * basis_j = sum_k c[i][j][k] basis_k."""
    n = len(ctx.basis)
    if n > limit:
        raise LimitExceeded(f"rank {n} exceeds limit {limit}")
    tensor = [[None] * n for _ in range(n)]
    for i in range(n):
        bi = BElement({i: 1}, ctx.ctx_id)
        for j in range(i, n):
            bj = BElement({j: 1}, ctx.ctx_id)
            prod = multiply_b(ctx, bi, bj)
            row = [0] * n
            for k, v in prod.coeffs.items():
                row[k] = v
            tensor[i][j] = row
            tensor[j][i] = row
    return tensor


def trace_form(ctx: BContext, x: BElement):
    """Average over W of the number of orbit characters trivial on each
    twisted fixed torus; integer by the theory, asserted here."""
    if x.ctx_id != ctx.ctx_id:
        raise ContextMismatch("element belongs to a different context")
    lifted = ctx.lift(x)
    _, sectors = ctx.sector_data()
    total = 0
    for lam, c in lifted.coeffs.items():
        orb = ctx.cache.orbit(lam)
        hits = 0
        for w, u, diag in sectors:
            for mu in orb:
                y = u.apply(mu)
                if all(yi % d == 0 for yi, d in zip(y, diag)):
                    hits += 1
        total += c * hits
    if total % len(ctx.weyl) != 0:
        raise NonIntegral(f"trace sum {total} not divisible by |W|")
    return total // len(ctx.weyl)


def gram_matrix(ctx: BContext):
    """G[i][j] = tr(b_i * b_j) = sum_k c[i][j][k] * tr(b_k), by linearity."""
    n = len(ctx.basis)
    tensor = ctx.structure_constants(limit=n)
    traces = [trace_form(ctx, BElement({k: 1}, ctx.ctx_id)) for k in range(n)]
    return IntMatrix(
        [[sum(c * t for c, t in zip(tensor[i][j], traces)) for j in range(n)] for i in range(n)]
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


def reducedness_certificate(ctx: BContext, ell=None):
    """True iff the basis evaluation matrix at all fixed points has full rank
    equal to both the basis size and the point count."""
    r, nb, np_ = evaluation_rank(ctx, ell)
    return r == nb == np_


def evaluation_rank(ctx: BContext, ell=None):
    """(rank mod ell of the evaluation matrix, basis size, point count)."""
    pts = ctx.points(ell)
    r = _rank_mod_p(ctx.evaluations(ell), pts[0].ell) if pts else 0
    return r, len(ctx.basis), len(pts)


def _rank_mod_p(rows, p):
    m = [[x % p for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank_ = 0
    col = 0
    for col in range(nc):
        piv = None
        for r in range(rank_, nr):
            if m[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        inv = pow(m[rank_][col], p - 2, p)
        m[rank_] = [x * inv % p for x in m[rank_]]
        for r in range(nr):
            if r != rank_ and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank_])]
        rank_ += 1
        if rank_ == nr:
            break
    return rank_
