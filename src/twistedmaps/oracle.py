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

Every fixed image of a quad is one log-form move (_log_move): x ->
g^-1 T(x) g, g monomial and T an entrywise p^e power or the inverse, read
against one class and written against another; _image_walk is the one
loop that applies moves, by families whose moves share every value the
shape and twist checks read, so each check runs once per family.  Each
family is a coset of first offsets, so its images are strided slices of
the exp table, and each fills one cell, an int the walk reports.  The
stabilizer's moves walk an orbit (orbit_walker), one move names the
inverse pair (_inverse_quad), and one move names a Frobenius image, whose
class's orbit_walker walks its orbit (_frobenius_walk).  orbit_partition
scans the first quad of each cell of a class block (_log_grid) and keeps
one seen set of the cells its walks report.  A record asks whether
(x^-1, y^-1), (y, x) and (y^-1, x^-1) lie in its orbit; only (y, x)
takes a canonical form, of x, where x shares y's class.  Galois fusion
names each image as a record is named, (class, least quad).

generated_level names the subfield level a pair generates by an order
screen and a capped closure, and closure_order builds that subgroup on the
rows of its matrices, without TwElem products.  The explicit conjugator
searches, the three-lookup record builder with its pair_key, the TwElem
closure and the whole-group enumerators are test references in
tests/reference.py, outside the package.
"""

from dataclasses import dataclass, replace
from itertools import chain, repeat

from .canonical import (CanonClass, all_classes, canonical_form,
                        canonical_order, canonical_rep, is_exceptional,
                        stabilizer_elements, twisted_class)
from .gfield import make_field
from .numth import divisors, odd_part, odd_prime_power
from .twisted_group import TwElem, conjugate, mat_frob, mat_inv


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


def _log_grid(F, cls):
    """(zero rows, columns, drop): a class block's quads.  The zero rows
    are the off rows with a = 0 or d = 0, which force u = lam^sigma.  The
    rest is a log grid: column j is (u, d) for the j-th non-square
    u != lam^sigma, d the log of u - lam^sigma, and the quad in row k and
    column j is (xi^k, xi^(d - k), u), second = (u - lam^sigma)/first
    being one exp lookup.  drop(k, d) is the one admissibility test on the
    grid.

    In an exceptional class y has order 4, so quads whose x has order 4 as
    well are dropped.  x = [A, 1] has order 4 iff the trace of A A^sigma
    vanishes; with first = xi^k and u - lam^sigma = xi^d that trace is
    zero iff (2k - d)(q - 1) (dia) or (2k - d)(q + 1) (off) is n/2 mod
    n = q^2 - 1.  The zero rows never have trace 0."""
    q = F.p ** (F.m // 2)
    n = F.size - 1
    ls = _lam_sigma(F, cls)
    zero_rows = [] if cls.form == "dia" else [
        quad for t in F.units() for quad in ((0, t, ls), (t, 0, ls))]
    columns = [(u, F.dlog(F.sub(u, ls))) for u in F.units()
               if not F.is_square(u) and u != ls]
    if not is_exceptional(cls, q):
        return zero_rows, columns, lambda k, d: False
    r = q - 1 if cls.form == "dia" else q + 1
    return zero_rows, columns, lambda k, d: (2 * k - d) * r % n == n // 2


def class_quads(F, cls):
    """All admissible quads against one class, generated deterministically:
    the zero rows, then the log grid row by row."""
    zero_rows, columns, drop = _log_grid(F, cls)
    yield from zero_rows
    n = F.size - 1
    for k, first in enumerate(F.units()):  # first = xi^k
        for u, d in columns:
            if not drop(k, d):
                yield (first, F.exp[(d - k) % n], u)


# ---------------------------------------------------------------------------
# stabilizer orbits

def act_quad(F, cls, g, quad):
    """Image of a quad under conjugating its x by a stabilizer element of y:
    the one-step reference for orbit_walker, which tests check against it
    and perfbench times.  The other references are in tests/reference.py."""
    x, _ = quad_pair(F, cls, quad)
    return matrix_quad(F, cls, conjugate(x, g).matrix)


def _log_move(F, cls, g, e=0, adj=False):
    """x -> g^-1 T(x) g for a monomial g = [D, j] as a move onto quads
    against cls, in log form (k, corner, first, second, shape, then three
    offsets).  T(x) is [A^(p^e), 1] entrywise, or with adj [adj(A)^(p^e),
    1]: x^-1 = [adj(A)^sigma, 1] is adj with e = f.

    g^-1 [B, 1] g = [L B^(sigma^j) R, 1] with L = (D^(sigma^j))^-1 and
    R = D^(sigma^(j+1)), both monomial, so entry (r, c) of L X R is
    X[r ^ tL][c ^ tR] times a unit, tL and tR being 1 for antidiagonal.
    X is A or adj(A) = (d, -b, -c, a), a diagonal swap and a half offset,
    raised to p^(e + j f); k is that power mod |F| - 1, a factor on logs.
    corner ... shape are the positions in A that land in those slots; the
    offsets are the logs of the units by which first, second and shape
    are scaled once the whole matrix is scaled by -1/corner."""
    f, n, half = F.m // 2, F.size - 1, F.dlog(F.neg(1))
    D = (g.matrix, mat_frob(F, g.matrix, f))  # D^(sigma^0), D^sigma
    L, R = mat_inv(F, D[g.i]), D[1 - g.i]
    tL, tR = (0 if M[0] else 1 for M in (L, R))
    assert all(M[1 - t] == M[2 + t] == 0 for M, t in ((L, tL), (R, tR))), \
        "moves must be monomial"
    entries, units = [], []
    for pos in _SLOTS[cls.form]:
        r, c = divmod(pos, 2)
        src = 2 * (r ^ tL) + (c ^ tR)
        unit = F.dlog(L[2 * r + (r ^ tL)]) + F.dlog(R[2 * (c ^ tR) + c])
        if adj:
            src, unit = (src, unit + half) if src % 3 else (3 - src, unit)
        entries.append(src)
        units.append(unit)
    return (pow(F.p, e + g.i * f, n), *entries,
            *((u - units[0] + half) % n for u in units[1:]))


def _image_walk(F, src, dst, moves):
    """walk(quad): (images, cells), the images under log-form moves of the
    pair a quad encodes against src, as a list of quads against dst family
    by family, and the cell each family fills, one int per family.  Per
    walk the logs of A's entries are read off the quad and raised to
    each power the moves take.

    The moves are grouped into families that share the power, the four
    slots, the shape offset and the sum o12 of the first and second
    offsets.  Across a family the corner, shape, first and second logs are
    the same, and so is e1 + e2, hence u: matrix_quad's checks, as asserts
    against dst, read the same values on every move of a family and run
    once per family, and u is one Zech lookup.  Every family is a coset:
    its first offsets are r + t s, 0 <= t < m, for one size m and stride
    s = n/m, n = |F| - 1, across the walker (asserted when it is built).
    So a family's first logs are the residue class rho = b1 + r mod s,
    b1 = l1 - lc, its images are (exp[rho::s], the seconds, u) with the
    seconds a reversed slice of exp + exp at b1 + b2 + o12 - rho, and two
    families share an image only if they share the cell (u, rho), the int
    log(u) s + rho.  An off row with a = 0 or d = 0 keeps u = lam^sigma,
    and its nonzero entry's logs are the residue class rho = b1 + r
    (second = 0) or b2 + o12 - r (first = 0) mod s, the cell -1 - rho or
    -1 - s - rho.  The walk asserts the cells distinct (semiregular).
    walk.family_size is m."""
    n = F.size - 1
    exp, log, zech = F.exp, F.log, F.zech
    exp2 = exp + exp
    lls_src = log[_lam_sigma(F, src)]
    lls = lls_src if dst == src else log[_lam_sigma(F, dst)]
    ls = exp[lls]
    powers = sorted({move[0] for move in moves})
    families = {}
    for k, ic, i1, i2, ish, o1, o2, osh in moves:
        key = (powers.index(k), ic, i1, i2, ish, (o1 + o2) % n, osh)
        families.setdefault(key, []).append(o1)
    m = len(moves) // len(families)
    s = n // m
    for o1s in families.values():
        assert m * s == n and sorted(o1s) == list(range(o1s[0] % s, n, s)), \
            "each move family must be a coset of one size"
    families = [(*key, o1s[0] % s) for key, o1s in families.items()]
    slots, half = _SLOTS[src.form], log[F.neg(1)]
    corner = "%s-shaped partner has nonzero corner" % dst.form

    def walk(quad):
        la = [0] * 4  # log[0] is -1, which marks a zero entry
        for pos, a in zip(slots, (half, log[quad[0]], log[quad[1]], lls_src)):
            la[pos] = a
        twists = [[a * k % n if a >= 0 else -1 for a in la] for k in powers]
        images, cells = [], []
        for t, ic, i1, i2, ish, o12, osh, r in families:
            lx = twists[t]
            lc, l1, l2, lsh = lx[ic], lx[i1], lx[i2], lx[ish]
            assert lc >= 0, corner
            assert lsh >= 0 and (lsh - lc + osh) % n == lls, \
                "partner must keep the involution shape"
            b1, b2 = l1 - lc, l2 - lc
            if l1 < 0 or l2 < 0:  # an off row with a = 0 or d = 0: u = ls
                assert lls % 2, "partner must be twisted in G"
                if l2 < 0:  # second = 0
                    rho = (b1 + r) % s
                    images += zip(exp[rho::s], repeat(0), repeat(ls))
                    cells.append(-1 - rho)
                else:  # first = 0
                    rho = (b2 + o12 - r) % s
                    images += zip(repeat(0), exp[rho::s], repeat(ls))
                    cells.append(-1 - s - rho)
                continue
            # e1 + e2 = b1 + b2 + o12; u = ls (1 + first second/ls)
            z = zech[(b1 + b2 + o12 - lls) % n]
            assert z >= 0, "partner must be twisted in G"
            lu = (lls + z) % n
            assert lu % 2, "partner must be twisted in G"
            rho = (b1 + r) % s
            c = (b1 + b2 + o12 - rho) % n + n  # log of second at first xi^rho
            images += zip(exp[rho::s], exp2[c:c - n:-s], repeat(exp[lu]))
            cells.append(lu * s + rho)
        assert len(set(cells)) == len(cells), "the action must be semiregular"
        return images, cells

    walk.family_size = m
    return walk


def orbit_walker(F, cls):
    """walk(quad): (images, cells) of the stabilizer's moves through
    _image_walk, the images being the quads in quad's stabilizer orbit."""
    return _image_walk(F, cls, cls, [_log_move(F, cls, g)
                                     for g in stabilizer_elements(cls, F)])


def _inverse_quad(F, cls):
    """quad -> quad of the inverse pair (x^-1, y^-1): the one image of the
    move of [D, 0], D = off(1, 1/lam), after inversion.  [D, 0] conjugates
    y^-1 = rep(cls)^-1 onto rep(cls) for both forms, and conjugators of
    y^-1 onto y differ by a stabilizer element, so any one names the same
    orbit."""
    D = TwElem(F, (0, 1, F.inv(F.pow(F.xi, cls.i)), 0), 0)
    walk = _image_walk(F, cls, cls, [_log_move(F, cls, D, F.m // 2, adj=True)])
    return lambda quad: walk(quad)[0][0]


def _frobenius_walk(F, cls, j):
    """(c, walk): walk(quad) is the orbit, as quads against c, of the image
    under phi^j of the pair a quad encodes against cls.  canonical_form
    gives the class c of phi^j(rep(cls)) and a monomial witness w; the move
    x -> w^-1 phi^j(x) w carries the pair onto one against rep(c), and c's
    own orbit_walker walks that image's orbit."""
    rep = canonical_rep(cls, F)
    c, w = canonical_form(TwElem(F, mat_frob(F, rep.matrix, j), rep.i))
    image = _image_walk(F, cls, c, [_log_move(F, c, w, j)])
    orbit = orbit_walker(F, c)
    return c, lambda quad: orbit(image(quad)[0][0])[0]


def orbit_partition(F, cls):
    """The class block partitioned into sorted stabilizer orbits, in the
    order of their first quads in class_quads.  A walk reports the cells
    its families fill, ints log(u) s + rho on the log grid and -1 - rho
    (second = 0) or -1 - s - rho (first = 0) on the zero rows, s = n/m;
    every quad lies in one cell, and the cell's first quad in class_quads
    has log(first), or on a zero row log t, below s.  drop(k, d) depends on
    k mod s only, so the scan reads those first quads in class_quads order,
    skipping dropped cells, and walks each whose cell is unseen: it meets
    each orbit at its first quad.  The walk's cells must be unseen (the
    orbits are disjoint) and must hold the start cell."""
    walk = orbit_walker(F, cls)
    zero_rows, columns, drop = _log_grid(F, cls)
    exp, log, n = F.exp, F.log, F.size - 1
    s = n // walk.family_size
    # zero_rows is (0, xi^t, ls), (xi^t, 0, ls) for t = 0, 1, ...
    starts = chain(((quad, -1 - i // 2 - (0 if i % 2 else s))
                    for i, quad in enumerate(zero_rows[:2 * s])),
                   (((exp[k], exp[(d - k) % n], u), log[u] * s + k)
                    for k in range(s) for u, d in columns if not drop(k, d)))
    seen = set()
    orbits = []
    for quad, cell in starts:
        if cell not in seen:
            orbit, cells = walk(quad)
            assert seen.isdisjoint(cells), "orbits must be disjoint"
            seen.update(cells)
            assert cell in seen, "a walk must reach its own quad"
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

def generated_level(pair, orders):
    """Smallest admissible exponent e such that the pair generates a copy of
    the twisted group over GF(p^{2e}); orders are the pair's element orders,
    which a record reads from the classes of x and y.

    The orders screen and a closure decides.  A pair inside a copy over
    GF(p^{2e}) is a pair of its twisted elements, so both orders are
    among that copy's class orders; a pair failing this for every proper e
    is at level f.  A passing pair goes to a closure capped just past the
    largest proper subgroup order.  The generated subgroup is a twisted
    group of known order, so the closure's size names the level, and a
    closure past the cap means level f.
    """
    F = pair[0].F
    f = F.m // 2
    alpha, o = odd_part(f)
    proper = [2 ** alpha * d for d in divisors(o)[:-1]]
    if not proper:
        return f
    p = F.p
    screens = ({canonical_order(c, p ** e) for c in all_classes(p ** e)}
               for e in proper)
    if not any(all(k in s for k in orders) for s in screens):
        return f
    sizes = {p ** (2 * e) * (p ** (4 * e) - 1): e for e in proper}
    try:
        n = closure_order(pair, cap=max(sizes))
    except RuntimeError:
        return f
    assert n in sizes, "subgroup order matches no admissible level"
    return sizes[n]


def _row_table(F, B):
    """Right multiplication by B on the rows of a matrix, as points of the
    projective line: entry p is (point, log of lead) of the row (1, p) B,
    and entry |F| that of (0, 1) B.

    Read on logs: for p = xi^k an entry x + p y of the row is
    x (1 + xi^(k + log y - log x)), one Zech lookup, and the point v/u is
    one exp lookup."""
    n, exp, log, zech = F.size - 1, F.exp, F.log, F.zech

    def line(x, y):
        """logs of x + p y for p = 0, xi^0, ..., xi^(n - 1), -1 for 0"""
        lx, ly = log[x], log[y]
        if ly < 0:
            return [lx] * (n + 1)
        if lx < 0:
            return [-1, *((k + ly) % n for k in range(n))]
        s = (ly - lx) % n
        return [lx, *((lx + z) % n if z >= 0 else -1
                      for z in zech[s:] + zech[:s])]

    a, b, c, d = B
    rows = [(exp[(lv - lu) % n] if lv >= 0 else 0, lu) if lu >= 0
            else (F.size, lv)
            for lu, lv in zip(line(a, c) + [log[c]], line(b, d) + [log[d]])]
    # row 1 + k is p = xi^k, and log[0] = -1 reads row 0, p = 0
    return [rows[1 + log[p]] for p in F.elements()] + rows[-1:]


def _closure_rows(pair, cap):
    """The elements of the subgroup a pair of twisted elements generates,
    in the row form of closure_order."""
    F = pair[0].F
    n = F.size - 1
    gens = [((_row_table(F, g.matrix),
              _row_table(F, mat_frob(F, g.matrix, F.m // 2))), g.i)
            for g in pair]
    start = (0, F.size, 0, 0)  # the identity
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p0, p1, s1, i in frontier:
            for tables, gi in gens:
                table = tables[i]
                q0, t0 = table[p0]
                q1, t1 = table[p1]
                assert q0 != q1, "product rows must not be proportional"
                w = (q0, q1, (s1 + t1 - t0) % n, i ^ gi)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > cap:
                        raise RuntimeError("closure exceeds cap")
        frontier = nxt
    assert 2 * sum(z[3] for z in seen) == len(seen), \
        "a subgroup with twisted elements must be half twisted"
    return seen


def closure_order(pair, cap=10 ** 6):
    """Size of the subgroup generated by a pair of twisted elements, by
    breadth-first closure over positive words (in a finite group they
    already form the subgroup); raises RuntimeError once it passes cap.

    An element [A, i] is walked as (p0, p1, s1, i): p0 and p1 are A's rows
    as points of the projective line over F, the row (1, b) written b and
    (0, 1) written |F|; row 0 is scaled to lead 1, as TwElem scales A, and
    s1 is the log of row 1's lead.  z g = [A B^(sigma^i), i ^ j] for a
    generator g = [B, j], so each generator carries one row table for B and
    one for B^sigma, and a product is two table lookups and a sum of logs.
    The generators must be twisted: the closure asserts that half of its
    elements are, as in any subgroup holding a twisted element.
    """
    return len(_closure_rows(pair, cap))


# ---------------------------------------------------------------------------
# Galois fusion of records into map classes

def galois_fuse(records, p, f):
    """Bundle the records of one q under the entrywise Frobenius action;
    returns the bundles as sorted lists of records.

    The Galois group is generated by the p-power Frobenius phi, and phi^f
    is conjugation by [I, 1], which fixes every orbit.  So a bundle is a
    record with the records of its key's walks under phi^j, 0 < j < f,
    each named (class, least quad), and is asserted disjoint from the
    bundles before it.  Orbits of pairs generating the full group fall
    into bundles of size exactly f; those in proper subfield subgroups
    may fuse less."""
    F = make_field(p, 2 * f)
    named = {(CanonClass(r.form, r.i), r.key): r for r in records}
    images = {cls: [_frobenius_walk(F, cls, j) for j in range(1, f)]
              for cls in {c for c, _ in named}}
    placed = set()
    bundles = []
    for (cls, key), rec in named.items():
        if rec in placed:
            continue
        bundle = {rec, *(named[c, min(walk(key))] for c, walk in images[cls])}
        assert placed.isdisjoint(bundle), "Frobenius images must be closed"
        placed |= bundle
        bundles.append(sorted(bundle))
    return sorted(bundles)


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


def _record_for(F, cls, orbit, inverse):
    """The record of one orbit.  The pair (x, y) of its key is built by
    quad_pair, with quad_matrix's admissibility check, and the dual quad
    by matrix_quad, with its asserts.  k and l are the orders of x's
    class c_x, read by twisted_class, and of cls.  inverse, the class's
    _inverse_quad, names (x^-1, y^-1).  (y, x) and (y^-1, x^-1) lie in
    c_x, so only when c_x = cls does canonical_form(x) run: its witness
    carries (y, x) onto the dual quad, whose inverse names (y^-1, x^-1)."""
    x, y = quad_pair(F, cls, orbit[0])
    members = set(orbit)
    q = F.p ** (F.m // 2)
    c_x = twisted_class(x)
    k, l = canonical_order(c_x, q), canonical_order(cls, q)
    pos_selfdual = neg_selfdual = False
    if c_x == cls:
        dual = matrix_quad(F, cls, conjugate(y, canonical_form(x)[1]).matrix)
        pos_selfdual = dual in members
        neg_selfdual = inverse(dual) in members
    return OrbitRec(
        form=cls.form, i=cls.i, key=orbit[0], size=len(orbit),
        level=generated_level((x, y), (k, l)), k=k, l=l,
        reflexible=inverse(orbit[0]) in members,
        pos_selfdual=pos_selfdual, neg_selfdual=neg_selfdual,
    )


def orbit_records(q, orbits):
    """Deterministically ordered OrbitRec rows for every orbit at one q;
    the inverse map is built once per class."""
    p, f = odd_prime_power(q)
    F = make_field(p, 2 * f)
    out = []
    for cls, block in orbits.items():
        inverse = _inverse_quad(F, cls)
        out += (_record_for(F, cls, orbit, inverse) for orbit in block)
    return sorted(out)


def fused_records(bundles):
    """One aggregated record per Galois bundle: its head, the least member,
    carrying the bundle's total size.  Flags and type must agree across the
    bundle and are asserted to."""
    out = []
    for bundle in bundles:
        head = bundle[0]
        for m in bundle[1:]:
            assert replace(m, i=head.i, key=head.key, size=head.size) == head, \
                "bundle flags differ"
        out.append(replace(head, size=sum(m.size for m in bundle)))
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
