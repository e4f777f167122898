"""Root data on the dual-torus character lattice, Weyl groups as reflection
tables, and Frobenius twisting data.

A :class:`RootDatum` stores the character lattice X of a (dual) maximal torus
in fixed integer coordinates, the simple roots as vectors of X, and the simple
coroots as vectors of the dual lattice Y; the canonical pairing is the
standard dot product in these coordinates.  All downstream arithmetic (orbit
sums, quotient rings, point counts) consumes exactly this data.

:class:`FrobeniusData` packages a prime power q = p^r together with a finite
order lattice automorphism tau normalizing the simple roots; the induced
endomorphism on X is ``F = q * tau^{-1}``, so tau*F = F*tau = q.
"""

from __future__ import annotations

import os
from collections import deque

from .errors import (
    CapExceeded,
    DimensionMismatch,
    DualalgError,
    InvalidCartan,
)
from .finitefield import _factorize
from .intlinalg import IntMatrix, SmithForm, det

DEFAULT_WEYL_CAP = 10 ** 6

UNAVAILABLE = "unavailable"


class RootDatum:
    def __init__(self, rank, simple_roots, simple_coroots, label=""):
        self.rank = rank
        self.simple_roots = tuple(tuple(int(x) for x in a) for a in simple_roots)
        self.simple_coroots = tuple(tuple(int(x) for x in a) for a in simple_coroots)
        self.label = label
        if len(self.simple_roots) != len(self.simple_coroots):
            raise DimensionMismatch("need as many coroots as roots")
        for a in self.simple_roots + self.simple_coroots:
            if len(a) != rank:
                raise DimensionMismatch("root/coroot length != rank")
        self.nroots = len(self.simple_roots)
        # (alpha, alpha^vee) as (coordinate, entry) pairs: the simple
        # reflection is the rank-one update s(lam) = lam - <lam, alpha^vee> alpha
        self.simple = tuple(
            (_sparse(a), _sparse(av)) for a, av in zip(self.simple_roots, self.simple_coroots)
        )
        # the walls of the dominant chamber for chamber(): on X a weight is
        # reflected in alpha when <lam, alpha^vee> < 0, on Y a coweight in
        # alpha^vee when <alpha, y> < 0
        self.walls = tuple((coroot, root, 0) for root, coroot in self.simple)
        self.cowalls = tuple((root, coroot, 0) for root, coroot in self.simple)
        self.cartan = tuple(self.pairings(a) for a in self.simple_roots)
        self.validate()
        # the one factorization of the coroot rows: its kernel is the central
        # lattice, and it solves for the fundamental-weight lifts
        self.coroot_form = SmithForm(IntMatrix(self.simple_coroots)) if self.nroots else None

    # -- structure -----------------------------------------------------

    def validate(self):
        """The Cartan matrix is a generalized Cartan matrix (GCM) of finite
        type, else InvalidCartan.  The test is exact: a GCM has off-diagonal
        entries <= 0, so it is a Z-matrix; a Z-matrix whose leading principal
        minors are all positive is a nonsingular M-matrix (Berman-Plemmons
        1994, Thm 6.2.3); and such a GCM is of finite type (Kac 1990, Thm
        4.3).  So W is finite, and its closure is bounded by the Weyl cap."""
        c = self.cartan
        for i in range(self.nroots):
            if c[i][i] != 2:
                raise InvalidCartan(f"<alpha_{i}, alpha_{i}^vee> != 2")
            for j in range(self.nroots):
                if i != j and c[i][j] > 0:
                    raise InvalidCartan("positive off-diagonal Cartan entry")
                if i != j and (c[i][j] == 0) != (c[j][i] == 0):
                    raise InvalidCartan("asymmetric zero pattern")
        for k in range(1, self.nroots + 1):
            if det(IntMatrix([row[:k] for row in c[:k]])) <= 0:
                raise InvalidCartan("not of finite type (nonpositive principal minor)")

    def pairings(self, lam):
        """(<lam, alpha_1^vee>, ..., <lam, alpha_n^vee>) in one pass over the
        sparse coroots; DimensionMismatch unless lam has length rank."""
        if len(lam) != self.rank:
            raise DimensionMismatch("pairing length")
        out = []
        for _, coroot in self.simple:
            p = 0
            for k, c in coroot:
                p += lam[k] * c
            out.append(p)
        return tuple(out)

    # -- derived data ----------------------------------------------------

    def central_lattice(self):
        """Z-basis (rows) of {lam : <lam, alpha^vee> = 0 for all simple alpha}."""
        if self.nroots == 0:
            return [tuple(r) for r in IntMatrix.identity(self.rank).entries]
        return list(self.coroot_form.kernel)

    def highest_roots(self):
        """(theta, theta^vee) for each irreducible component, sorted.  Each
        simple root alpha walks to the dominant root theta = w*alpha of its
        W-orbit, kept when no theta + alpha_j is a root, as only the highest
        root of a component is maximal among its positive roots.  v is a root
        exactly when chamber(v) is such a theta: every root is W-conjugate to a
        simple root, and the closed chamber meets each W-orbit once.  theta^vee
        = w*alpha^vee is the one dominant coweight in the W-orbit of alpha^vee."""
        tops = [chamber(a, self.walls) for a in self.simple_roots]
        dominant = set(tops)
        found = {}
        for theta, a_v in zip(tops, self.simple_coroots):
            if all(chamber(tuple(x + y for x, y in zip(theta, b)), self.walls) not in dominant
                   for b in self.simple_roots):
                found[theta] = chamber(a_v, self.cowalls)
        return sorted(found.items())

    def fundamental_weight_lifts(self):
        """Weights with <w_i, alpha_j^vee> = delta_ij, or UNAVAILABLE.

        Exists exactly when the derived datum is simply-connected.  The choice
        is pinned to the representative reduced against the HNF of the central
        lattice, so output is deterministic; only the defining pairings are
        contractual.  Every solve and the reduction read coroot_form.
        """
        if self.nroots == 0:
            return []
        form = self.coroot_form
        lifts = []
        for i in range(self.nroots):
            target = tuple(1 if j == i else 0 for j in range(self.nroots))
            ok, x = form.solve(target)
            if not ok:
                return UNAVAILABLE
            lifts.append(form.reduce(x))
        return lifts


def _sparse(vec):
    return tuple((k, x) for k, x in enumerate(vec) if x)


def chamber(v, walls):
    """The point of the closed chamber {offset + <f, v> >= 0 for every wall}
    in the orbit of ``v`` under the reflections in those walls.

    A wall is a triple (f, d, offset) of sparse vectors f, d with <f, d> = 2
    and an integer offset: with c = offset + <f, v> < 0, v is reflected to
    v - c*d, after which the wall reads -c > 0.  The walls are walked
    cyclically until a full round moves nothing.  Where the closed chamber
    is a strict fundamental domain for the group the reflections generate
    (the dominant chamber for W, the l-scaled alcove for W x lQ^vee), the
    end point is the one point of the orbit in it, whatever the walk order.
    """
    cur = list(v)
    n = len(walls)
    clean = 0
    i = 0
    while clean < n:
        f, d, offset = walls[i]
        c = offset
        for k, a in f:
            c += a * cur[k]
        if c < 0:
            for k, a in d:
                cur[k] -= c * a
            clean = 1
        else:
            clean += 1
        i += 1
        if i == n:
            i = 0
    return tuple(cur)


def _reflect_rows(m, root, coroot):
    """s * M = M - alpha (alpha^vee^T M) on a tuple of row tuples; only the
    rows where alpha != 0 change."""
    row = [0] * len(m)
    for k, c in coroot:
        for j, x in enumerate(m[k]):
            row[j] += c * x
    out = list(m)
    for i, a in root:
        out[i] = tuple([x - a * y for x, y in zip(m[i], row)])
    return tuple(out)


class WeylGroup(tuple):
    """The elements of W as the pairing vectors of w*rho, in closure order
    with the identity first, the spanning tree of the closure and the
    multiplication tables of the simple reflections: ``parents`` lists (b, p)
    for each w_j after the identity, first reached as s_b * w_p, and
    ``left[a][j]`` is the index of s_a * w_j, ``right[a][j]`` that of
    w_j * s_a."""

    def __new__(cls, elems, parents, left, right):
        self = super().__new__(cls, elems)
        self.parents = parents
        self.left = left
        self.right = right
        return self


def weyl_group(rd: RootDatum):
    """Full Weyl group by closure of the simple reflections, as a WeylGroup.

    The closure is rho_closure on the Cartan rows: W acts freely on the
    pairing vector of rho, so that orbit is the group, in closure order, its
    first reaches the parents and its lookups the left table; as
    w_j * s_a = s_b * (w_p * s_a) for w_j = s_b * w_p, so do those of the
    right table.  weyl_walk builds matrices of W where they are read.
    """
    orbit, parents, left = rho_closure(rd.cartan)
    right = [[row[0]] for row in left]
    for b, p in parents:
        for row in right:
            row.append(left[b][row[p]])
    return WeylGroup(orbit, parents, left, right)


def rho_closure(cartan):
    """(orbit, parents, left) of the all-ones vector, the pairings of rho,
    under the reflections s_b: p -> p - p_b * cartan[b] of a Cartan matrix,
    by breadth-first closure.  The orbit is in closure order with rho first,
    ``parents`` lists (b, p) for each later element, first reached as s_b
    applied to element p, and ``left[b][j]`` is the index of s_b applied to
    element j.  The reflection group acts freely on rho, so the orbit has
    its order: |W| on the Cartan matrix of a datum, |W_J| on its J rows and
    columns.

    Raises CapExceeded before materializing more than DUALALG_WEYL_CAP
    elements (env var, default 10^6).
    """
    raw = os.environ.get("DUALALG_WEYL_CAP", DEFAULT_WEYL_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise DualalgError(f"DUALALG_WEYL_CAP must be an integer, got {raw!r}") from None
    rho = (1,) * len(cartan)
    orbit = [rho]
    index = {rho: 0}
    parents = []
    rows = [_sparse(row) for row in cartan]
    left = [[] for _ in rows]
    # orbit grows while it is walked, so the walk is breadth-first
    for j, v in enumerate(orbit):
        for b, row in enumerate(rows):
            c = v[b]
            nxt = list(v)
            for i, y in row:
                nxt[i] -= c * y
            nxt = tuple(nxt)
            k = index.get(nxt)
            if k is None:
                k = index[nxt] = len(orbit)
                orbit.append(nxt)
                parents.append((b, j))
                if len(orbit) > cap:
                    raise CapExceeded(f"Weyl group exceeds cap {cap}")
            left[b].append(k)
    return orbit, parents, left


def weyl_walk(start, moves, weyl):
    """M*w_j as row tuples for each w_j in closure order, from ``start`` = M
    and the parents of the WeylGroup ``weyl``.  ``moves[b]`` is the (root,
    coroot) of M*s_b*M^-1, so M*w_j = (M*s_b*M^-1)*(M*w_p) for w_j = s_b*w_p
    is one rank-one update of its parent's, kept only from the current parent
    on (the closure walks parents in order, so they never decrease)."""
    yield start
    live = deque([start])
    base = 0
    for b, p in weyl.parents:
        for _ in range(p - base):
            live.popleft()
        base = p
        m = _reflect_rows(live[0], *moves[b])
        live.append(m)
        yield m


class FrobeniusData:
    """(p, r, tau) with q = p^r and F = q * tau^{-1} on the character lattice."""

    def __init__(self, rd: RootDatum, p, r, tau=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if r < 1:
            raise ValueError("r must be >= 1")
        self.rd = rd
        self.p = p
        self.r = r
        self.q = p ** r
        if tau is None:
            tau = IntMatrix.identity(rd.rank)
        elif not isinstance(tau, IntMatrix):
            tau = IntMatrix(tau)
        if (tau.rows, tau.cols) != (rd.rank, rd.rank):
            raise ValueError(f"tau must be {rd.rank}x{rd.rank}, got {tau.rows}x{tau.cols}")
        if det(tau) not in (1, -1):
            raise ValueError("tau is not unimodular")
        self.tau = tau
        self._validate()

    def _validate(self):
        """tau^-1 = tau^(k-1) from the order k of tau; F = q * tau^-1."""
        rd = self.rd
        ident = IntMatrix.identity(rd.rank)
        acc, prev = self.tau, ident
        for _ in range(1000):
            if acc == ident:
                break
            acc, prev = acc * self.tau, acc
        else:
            raise ValueError("tau does not have small finite order")
        self.tau_inv = prev
        self.f_matrix = prev.scale(self.q)
        simple = {a: i for i, a in enumerate(rd.simple_roots)}
        perm = {}
        for i, a in enumerate(rd.simple_roots):
            img = self.tau.apply(a)
            if img not in simple:
                raise ValueError("tau does not permute the simple roots")
            perm[i] = simple[img]
        # the contragredient of tau must induce the same permutation on coroots
        tau_ct = self.tau_inv.transpose()
        for i, av in enumerate(rd.simple_coroots):
            if tau_ct.apply(av) != rd.simple_coroots[perm[i]]:
                raise ValueError("tau is not compatible with the coroot set")
        self.simple_permutation = perm

    def f_apply(self, lam):
        return self.f_matrix.apply(lam)


def _is_prime(n):
    return _factorize(n) == {n: 1}


def prime_power_split(q):
    """Return (p, r) with q = p^r, or raise ValueError."""
    fac = _factorize(q)
    if len(fac) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    [(p, r)] = fac.items()
    return p, r


# -- standard constructions ------------------------------------------------


def build_standard(family, n=None, cartan=None, label=None):
    """Standard root data.

    family in {"Torus", "GL", "SL", "PGL", "Sp", "SO", "FromCartan"}; n is the
    defining integer (SO and Sp take the matrix size 2n).  FromCartan builds
    the simply-connected datum of a finite-type generalized Cartan matrix.
    """
    if family == "FromCartan":
        return _from_cartan(cartan, label or "FromCartan")
    if n is None or n < 1:
        raise ValueError("n >= 1 required")
    if family == "Torus":
        return RootDatum(n, [], [], label or f"Torus({n})")
    if family == "GL":
        roots = [_eps(n, i, i + 1) for i in range(n - 1)]
        return RootDatum(n, roots, roots, label or f"GL({n})")
    if family == "SL":
        if n < 2:
            raise ValueError("SL needs n >= 2")
        return _from_cartan(_cartan_a(n - 1), label or f"SL({n})")
    if family == "PGL":
        if n < 2:
            raise ValueError("PGL needs n >= 2")
        c = _cartan_a(n - 1)
        rank = n - 1
        roots = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        coroots = [tuple(c[k][i] for k in range(rank)) for i in range(rank)]
        return RootDatum(rank, roots, coroots, label or f"PGL({n})")
    if family == "Sp":
        if n % 2 != 0 or n < 2:
            raise ValueError("Sp takes an even matrix size 2n")
        m = n // 2
        roots = [_eps(m, i, i + 1) for i in range(m - 1)]
        roots.append(tuple(2 if j == m - 1 else 0 for j in range(m)))
        coroots = [_eps(m, i, i + 1) for i in range(m - 1)]
        coroots.append(tuple(1 if j == m - 1 else 0 for j in range(m)))
        return RootDatum(m, roots, coroots, label or f"Sp({n})")
    if family == "SO":
        if n % 2 != 0 or n < 4:
            raise ValueError("SO takes an even matrix size 2n with n >= 2")
        m = n // 2
        roots = [_eps(m, i, i + 1) for i in range(m - 1)]
        roots.append(tuple(1 if j in (m - 2, m - 1) else 0 for j in range(m)))
        return RootDatum(m, roots, list(roots), label or f"SO({n})")
    raise ValueError(f"unknown family {family!r}")


def _eps(n, i, j):
    """epsilon_i - epsilon_j (0-based)."""
    v = [0] * n
    v[i] = 1
    v[j] = -1
    return tuple(v)


def _cartan_a(l):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(l))
        for i in range(l)
    )


def _from_cartan(c, label):
    if c is None:
        raise InvalidCartan("missing Cartan matrix")
    c = tuple(tuple(int(x) for x in row) for row in c)
    l = len(c)
    for row in c:
        if len(row) != l:
            raise InvalidCartan("Cartan matrix must be square")
    # RootDatum.validate checks c, which is the Cartan matrix of this datum
    roots = [tuple(c[i][j] for j in range(l)) for i in range(l)]
    coroots = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    return RootDatum(l, roots, coroots, label)


def datum_from_json(doc):
    """Root datum plus optional tau matrix from the JSON schema.

    Schema: {"rank": n, "simple_roots": [[...]], "simple_coroots": [[...]],
    "tau": [[...]] (optional), "label": "..."}.  Every number must be a JSON
    integer, the rank nonnegative and the label a string, else DualalgError.
    """
    if not isinstance(doc, dict):
        raise DualalgError("datum JSON must be an object")
    rank = _json_int("rank", doc.get("rank"))
    if rank < 0:
        raise DualalgError(f"rank must be nonnegative, got {rank}")
    label = doc.get("label", "custom")
    if not isinstance(label, str):
        raise DualalgError(f"label must be a string, got {label!r}")
    rd = RootDatum(
        rank,
        _json_rows("simple_roots", doc.get("simple_roots", [])),
        _json_rows("simple_coroots", doc.get("simple_coroots", [])),
        label,
    )
    tau = doc.get("tau")
    return rd, (IntMatrix(_json_rows("tau", tau)) if tau is not None else None)


def _json_int(key, x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise DualalgError(f"{key} must be an integer, got {x!r}")
    return x


def _json_rows(key, rows):
    """A JSON list of integer lists, checked entry by entry."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise DualalgError(f"{key} must be a list of integer lists")
    return [[_json_int(f"{key} entry", x) for x in row] for row in rows]
