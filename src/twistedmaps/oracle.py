"""Brute-force orbit machinery cross-validating the closed-form censuses.

A map pair is normalized as (x, y) with y = [B, 1] a canonical class
representative and x = [A, 1] twisted, where A is shaped so that xy is an
involution:

    dia class, B = dia(lam, 1):   A = [[-1, b], [c, lam^sigma]],
    off class, B = off(lam, 1):   A = [[a, lam^sigma], [-1, d]].

Each admissible x is recorded as a quad (first, second, u) of field ints,
(b, c) or (a, d) plus u = det-parameter first*second + lam^sigma, which must
be a non-square.  Orbits of pairs under conjugation correspond to orbits of
quads under the stabilizer of y, and that action is semiregular, so orbit
counts are exact divisions.  Everything here recomputes those orbits by
direct group arithmetic, never through the closed formulas.

A map is an orbit, so every per-map question is whether some image pair lies
in a given orbit: reflexibility asks it of (x^-1, y^-1), positive and negative
self-duality of (y, x) and (y^-1, x^-1), and Galois fusion of the entrywise
Frobenius image.  pair_key answers all of them by naming the orbit of any
admissible pair as (class, quad), and each stage past the partition names an
orbit as its record does, (class, least quad).  orbit_walker is the one walk
of an orbit: the partition runs it from each unseen quad, fusion from each
Frobenius image to name its orbit.  The explicit conjugator
searches that witness these answers, and the whole-group enumerators, are
test references in tests/reference.py, outside the package.
"""

from dataclasses import dataclass, replace

from .canonical import (all_classes, canonical_form, canonical_rep,
                        is_exceptional, stabilizer_elements)
from .gfield import make_field
from .numth import divisors, odd_part, odd_prime_power
from .twisted_group import (TwElem, conjugate, identity, mat_frob, mat_inv,
                            order)


def _lam_sigma(F, cls):
    return F.frobenius(F.pow(F.xi, cls.i), F.m // 2)


# ---------------------------------------------------------------------------
# quads <-> pairs

# flat positions (row-major) of the corner, first, second and shape entries
# of a partner matrix; the corner is -1 and the shape entry lam^sigma
_SLOTS = {"dia": (0, 1, 2, 3), "off": (2, 0, 3, 1)}


def quad_matrix(F, cls, quad):
    """Matrix A of the twisted x = [A, 1] a quad encodes against one class;
    raises ValueError unless u is the non-square first*second + lam^sigma."""
    first, second, u = quad
    ls = _lam_sigma(F, cls)
    if F.add(F.mul(first, second), ls) != u or F.is_square(u):
        raise ValueError("quad %r is not admissible against %r" % (quad, cls))
    A = [0] * 4
    for pos, a in zip(_SLOTS[cls.form], (F.neg(1), first, second, ls)):
        A[pos] = a
    return tuple(A)


def quad_pair(F, cls, quad):
    """The normalized map pair encoded by a quad against one class."""
    return TwElem(F, quad_matrix(F, cls, quad), 1), canonical_rep(cls, F)


def matrix_quad(F, cls, M):
    """Quad of a matrix M that is projectively in the shape paired with the
    class representative; shape violations raise.  M scales to a matrix of
    determinant -u (dia) or u (off), so asserting u a non-square asserts
    that M is nonsingular with the determinant class of a twisted x."""
    corner, first, second, shape = (M[pos] for pos in _SLOTS[cls.form])
    assert corner != 0, "%s-shaped partner has nonzero corner" % cls.form
    s = F.neg(F.inv(corner))
    first, second = F.mul(s, first), F.mul(s, second)
    ls = _lam_sigma(F, cls)
    assert F.mul(s, shape) == ls, "partner must keep the involution shape"
    u = F.add(F.mul(first, second), ls)
    assert u != 0 and not F.is_square(u), "partner must be twisted in G"
    return (first, second, u)


def pair_key(F, first, second):
    """(class, quad) of the orbit holding the map pair (first, second): the
    class of second, and the quad of first once second is conjugated onto
    that class's representative."""
    cls, w = canonical_form(second)
    return cls, matrix_quad(F, cls, conjugate(first, w).matrix)


def class_quads(F, cls):
    """All admissible quads against one class, generated deterministically.

    In an exceptional class y has order 4, so quads whose x has order 4 as
    well are dropped.  x = [A, 1] has order 4 iff the trace of A A^sigma
    vanishes; with first = xi^k and u - lam^sigma = xi^d that trace is
    zero iff (2k - d)(q - 1) (dia) or (2k - d)(q + 1) (off) is n/2 mod
    n = q^2 - 1.  The off rows with a zero entry never have trace 0."""
    q = F.p ** (F.m // 2)
    ls = _lam_sigma(F, cls)
    nonsquares = [w for w in F.units() if not F.is_square(w)]

    if cls.form == "off":
        # rows with a = 0 or d = 0 force u = lam^sigma
        for t in F.units():
            yield (0, t, ls)
            yield (t, 0, ls)
    # second = (u - lam^sigma) / first, one exp lookup on the log of u - ls
    diffs = [(u, F.dlog(F.sub(u, ls))) for u in nonsquares if u != ls]
    n = F.size - 1
    exceptional = is_exceptional(cls, q)
    r = q - 1 if cls.form == "dia" else q + 1
    for k, first in enumerate(F.units()):  # first = xi^k
        for u, d in diffs:
            if exceptional and (2 * k - d) * r % n == n // 2:
                continue
            yield (first, F.exp[(d - k) % n], u)


# ---------------------------------------------------------------------------
# stabilizer orbits

def act_quad(F, cls, g, quad):
    """Image of a quad under conjugating its x by a stabilizer element of y:
    the one-step reference for orbit_walker, which tests check against it
    and perfbench times.  The other references are in tests/reference.py."""
    x, _ = quad_pair(F, cls, quad)
    return matrix_quad(F, cls, conjugate(x, g).matrix)


def _stabilizer_moves(F, cls):
    """Each stabilizer element g = [D, j] as a raw-matrix move (L, R, j):
    conjugate([A, 1], g) = g^-1 [A, 1] g = [L A^(sigma^j) R, 1] with
    L = (D^(sigma^j))^-1 and R = D^(sigma^(j+1)).  D is diagonal or
    antidiagonal, so L and R are too; orbit_walker relies on it."""
    f = F.m // 2
    moves = []
    for g in stabilizer_elements(cls, F):
        D = (g.matrix, mat_frob(F, g.matrix, f))  # D^(sigma^0), D^(sigma^1)
        moves.append((mat_inv(F, D[g.i]), D[1 - g.i], g.i))
    return moves


def _log_move(F, cls, L, R, j):
    """A move (L, R, j) in log form (j, corner, first, second, shape, then
    three offsets).  With L and R monomial, entry (r, c) of L X R is
    X[r ^ tL][c ^ tR] times a unit, tL and tR being 1 for antidiagonal.
    corner ... shape are the positions in X that land in those slots; the
    offsets are the logs of the units by which first, second and shape are
    scaled once the whole matrix is scaled by -1/corner."""
    tL, tR = (0 if M[0] else 1 for M in (L, R))
    assert all(M[1 - t] == M[2 + t] == 0 for M, t in ((L, tL), (R, tR))), \
        "stabilizer moves must be monomial"
    entries, units = [], []
    for pos in _SLOTS[cls.form]:
        r, c = divmod(pos, 2)
        entries.append(2 * (r ^ tL) + (c ^ tR))
        units.append(F.dlog(L[2 * r + (r ^ tL)]) + F.dlog(R[2 * (c ^ tR) + c]))
    n, half = F.size - 1, F.dlog(F.neg(1))
    return (j, *entries, *((u - units[0] + half) % n for u in units[1:]))


def orbit_walker(F, cls):
    """walk(quad): the set of quads in quad's stabilizer orbit, walked on
    discrete logs.  The class's moves are put in log form once; they are
    monomial, so per walk the logs of A's entries are taken once (sigma
    multiplies a log by q), and per member first and second are one exp
    lookup each and u one Zech lookup.  Each walk keeps matrix_quad's checks
    as asserts, and asserts semiregularity and that quad is a member."""
    moves = [_log_move(F, cls, *move) for move in _stabilizer_moves(F, cls)]
    n = F.size - 1
    q = F.p ** (F.m // 2)
    exp, log, zech = F.exp, F.log, F.zech
    lls = log[_lam_sigma(F, cls)]
    corner = "%s-shaped partner has nonzero corner" % cls.form

    def walk(quad):
        la = [log[a] for a in quad_matrix(F, cls, quad)]  # -1 marks a zero
        twists = (la, [a * q % n if a >= 0 else -1 for a in la])
        orbit = set()
        for j, ic, i1, i2, ish, o1, o2, osh in moves:
            lx = twists[j]
            lc, l1, l2, lsh = lx[ic], lx[i1], lx[i2], lx[ish]
            assert lc >= 0, corner
            assert lsh >= 0 and (lsh - lc + osh) % n == lls, \
                "partner must keep the involution shape"
            if l1 < 0 or l2 < 0:  # an off row with a = 0 or d = 0
                first = exp[(l1 - lc + o1) % n] if l1 >= 0 else 0
                second = exp[(l2 - lc + o2) % n] if l2 >= 0 else 0
                lu = lls
            else:
                e1, e2 = (l1 - lc + o1) % n, (l2 - lc + o2) % n
                first, second = exp[e1], exp[e2]
                z = zech[(e1 + e2 - lls) % n]  # u = ls (1 + first second/ls)
                assert z >= 0, "partner must be twisted in G"
                lu = (lls + z) % n
            assert lu % 2, "partner must be twisted in G"
            orbit.add((first, second, exp[lu]))
        assert len(orbit) == len(moves), "stabilizer action must be semiregular"
        assert quad in orbit
        return orbit

    return walk


def orbit_partition(F, cls):
    """The class block partitioned into sorted stabilizer orbits."""
    walk = orbit_walker(F, cls)
    seen = set()
    orbits = []
    for quad in class_quads(F, cls):
        if quad not in seen:
            orbit = walk(quad)
            seen.update(orbit)
            orbits.append(sorted(orbit))
    return orbits


def enumerate_orbits(q):
    """{class: [orbits]} for the whole twisted coset at one q."""
    p, f = odd_prime_power(q)
    F = make_field(p, 2 * f)
    return {cls: orbit_partition(F, cls) for cls in all_classes(q)}


def orbit_count_summary(q, orbits):
    """Orbit totals per class kind, keyed like census.orbit_counts."""
    out = {"dia_generic": 0, "dia_exceptional": 0,
           "off_generic": 0, "off_exceptional": 0}
    for cls, cls_orbits in orbits.items():
        kind = "exceptional" if is_exceptional(cls, q) else "generic"
        out["%s_%s" % (cls.form, kind)] += len(cls_orbits)
    out["total"] = sum(out.values())
    return out


# ---------------------------------------------------------------------------
# which twisted subgroup a pair generates

def _word_invariant(F, z):
    """tr(M)^2/det(M) of an untwisted element, stable under conjugation,
    scaling, inversion and cyclic shifts of the word."""
    M = z.matrix
    assert z.i == 0
    tr = F.add(M[0], M[3])
    det = F.sub(F.mul(M[0], M[3]), F.mul(M[1], M[2]))
    return F.div(F.mul(tr, tr), det)


def generated_level(pair):
    """Smallest admissible exponent e such that the pair generates a copy of
    the twisted group over GF(p^{2e}).

    Conjugating the pair into the canonical subgroup over GF(p^{2e})
    forces the invariant tr(M)^2/det(M) of every even word M in the pair
    into that subfield, so testing a batch of short words rules proper
    levels out.  The test alone is not sufficient (distinct words can
    share an invariant), so any surviving proper level is confirmed by a
    closure run capped just past the largest proper subgroup order; the
    generated subgroup is always a twisted group of known order, which
    the closure size then pins down.
    """
    x, y = pair
    F = x.F
    f = F.m // 2
    alpha, o = odd_part(f)
    proper = [2 ** alpha * d for d in divisors(o)[:-1]]
    if not proper:
        return f
    xx, yy, xy = x * x, y * y, x * y
    words = (xx, yy, xy, x * y.inv(), xx * xy, xx * yy, xy * xy)
    invs = [_word_invariant(F, z) for z in words]
    if not any(all(F.in_subfield(v, 2 * e) for v in invs) for e in proper):
        return f
    p = F.p
    sizes = {p ** (2 * e) * (p ** (4 * e) - 1): e for e in proper}
    try:
        n = closure_order(pair, cap=max(sizes))
    except RuntimeError:
        return f
    assert n in sizes, "subgroup order matches no admissible level"
    return sizes[n]


def closure_order(pair, cap=10 ** 6):
    """Size of the subgroup generated by the pair, by breadth-first closure
    over positive words (in a finite group they already form the subgroup)."""
    x, y = pair
    gens = (x, y)
    seen = {identity(x.F)}
    frontier = [identity(x.F)]
    while frontier:
        nxt = []
        for z in frontier:
            for g in gens:
                w = z * g
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > cap:
                        raise RuntimeError("closure exceeds cap")
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# Galois fusion of orbits into map classes

def _phi_pair(pair, j):
    """Entrywise p^j-power Frobenius applied to both members."""
    x, y = pair
    F = x.F
    return (TwElem(F, mat_frob(F, x.matrix, j), x.i),
            TwElem(F, mat_frob(F, y.matrix, j), y.i))


def galois_fuse(orbits, p, f):
    """Group per-class orbits into bundles identified under the entrywise
    Frobenius action; returns a list of bundles of (class, key), key being
    an orbit's least quad as in its OrbitRec.

    The Galois group is cyclic, generated by the p-power Frobenius phi, and
    phi^f is conjugation by [I, 1], which fixes every orbit.  So a bundle is
    the Frobenius image set of its first orbit, each image named by the
    least quad of its walked orbit, and asserted disjoint from the bundles
    before it; only the least quad orbit[0] of each given orbit is read.
    Orbits of pairs generating the full group fall into bundles of size
    exactly f; orbits conjugate into proper subfield subgroups may fuse less.
    """
    F = make_field(p, 2 * f)
    walks = {cls: orbit_walker(F, cls) for cls in orbits}
    placed = set()
    bundles = []
    for cls, cls_orbits in orbits.items():
        for orbit in cls_orbits:
            if (cls, orbit[0]) in placed:
                continue
            pair = quad_pair(F, cls, orbit[0])
            images = (pair_key(F, *_phi_pair(pair, j)) for j in range(1, f))
            bundle = {(cls, orbit[0])}
            bundle.update((c, min(walks[c](quad))) for c, quad in images)
            assert placed.isdisjoint(bundle), "Frobenius images must be closed"
            placed |= bundle
            bundles.append(bundle)
    return sorted(sorted(b) for b in bundles)


# ---------------------------------------------------------------------------
# self-duality census

# per q and class form: (maps with equal vertex and face order,
#                        positively self-dual, negatively self-dual, both)
SELFDUAL_TABLE = {
    3: {"dia": (0, 0, 0, 0), "off": (3, 3, 3, 3)},
    5: {"dia": (15, 15, 5, 5), "off": (10, 10, 6, 6)},
    7: {"dia": (28, 28, 8, 8), "off": (78, 42, 14, 14)},
    9: {"dia": (95, 45, 9, 9), "off": (68, 36, 10, 10)},
    11: {"dia": (276, 132, 24, 24), "off": (265, 165, 33, 33)},
    13: {"dia": (469, 273, 39, 39), "off": (666, 234, 42, 42)},
    17: {"dia": (2556, 612, 68, 68), "off": (1312, 544, 72, 72)},
    19: {"dia": (1960, 760, 80, 80), "off": (2799, 855, 95, 95)},
}


@dataclass(frozen=True, order=True)
class OrbitRec:
    """One pair orbit: canonical key (minimal quad), bookkeeping, flags."""
    form: str
    i: int
    key: tuple
    size: int
    level: int
    k: int
    l: int
    reflexible: bool
    pos_selfdual: bool
    neg_selfdual: bool


def _record_for(F, cls, orbit, orders):
    """The record of one orbit; orders maps each class to the order of its
    representative, which every member of the class shares."""
    pair = quad_pair(F, cls, orbit[0])
    x, y = pair
    xi, yi = x.inv(), y.inv()
    members = set(orbit)

    def same_map(key):
        return key[0] == cls and key[1] in members

    dual = pair_key(F, y, x)  # keyed by the class of x
    k, l = orders[dual[0]], orders[cls]
    return OrbitRec(
        form=cls.form, i=cls.i, key=orbit[0], size=len(orbit),
        level=generated_level(pair), k=k, l=l,
        reflexible=same_map(pair_key(F, xi, yi)),
        pos_selfdual=same_map(dual),
        neg_selfdual=k == l and same_map(pair_key(F, yi, xi)),
    )


def orbit_records(q, orbits):
    """Deterministically ordered OrbitRec rows for every orbit at one q."""
    p, f = odd_prime_power(q)
    F = make_field(p, 2 * f)
    orders = {cls: order(canonical_rep(cls, F)) for cls in all_classes(q)}
    recs = [_record_for(F, cls, orbit, orders)
            for cls, cls_orbits in orbits.items() for orbit in cls_orbits]
    recs.sort()
    return recs


def fused_records(records, bundles):
    """One aggregated record per Galois bundle of (class, key) members, each
    the key of one of the records given; flags and type must agree across
    the bundle and are asserted to."""
    by_key = {(r.form, r.i, r.key): r for r in records}
    out = []
    for bundle in bundles:
        members = [by_key[(cls.form, cls.i, key)] for cls, key in bundle]
        head = members[0]
        for m in members[1:]:
            assert (m.form, m.k, m.l, m.level, m.reflexible, m.pos_selfdual,
                    m.neg_selfdual) == (head.form, head.k, head.l, head.level,
                                        head.reflexible, head.pos_selfdual,
                                        head.neg_selfdual), "bundle flags differ"
        out.append(replace(min(members), size=sum(m.size for m in members)))
    out.sort()
    return out


def selfdual_cells(records):
    """Table cells {form: (equal-type count, positive, negative, both)}
    derived from already-built records (fused ones for composite f)."""
    out = {}
    for form in ("dia", "off"):
        eq = [r for r in records if r.form == form and r.k == r.l]
        out[form] = (len(eq),
                     sum(1 for r in eq if r.pos_selfdual),
                     sum(1 for r in eq if r.neg_selfdual),
                     sum(1 for r in eq if r.pos_selfdual and r.neg_selfdual))
    return out
