"""Test references: explicit conjugator witnesses, the three-lookup record
builder with its pair_key, the TwElem closure, and whole-group enumerators.

No CLI path and no benchmark leg runs any of these.  They stand beside the
package as slow, direct recomputations: the conjugator searches witness what
the orbit records answer by lookup, the record builder names every image
pair with its own canonical form, the closure multiplies TwElems where
oracle.closure_order steps rows through tables, the enumerators walk a
whole group for exhaustive checks at tiny q, and naive_order takes any
element where twisted_group.order takes only twisted ones.
"""

from twistedmaps.canonical import (all_classes, canonical_form,
                                   canonical_rep, stabilizer_elements)
from twistedmaps.gfield import make_field
from twistedmaps.numth import odd_prime_power
from twistedmaps.oracle import (OrbitRec, generated_level, matrix_quad,
                                quad_pair)
from twistedmaps.twisted_group import TwElem, conjugate, iota, mat_det, order


# ---------------------------------------------------------------------------
# explicit conjugator witnesses

def _search(x, y, x_to, y_to):
    """First g in Gbar with x^g == x_to and y^g == y_to, else None.

    Such a g carries y onto y_to, so the two share a canonical class; the
    candidates are w s w^-1 v for s in the stabilizer of the class
    representative, where w is the witness of y and v carries y onto y_to.
    """
    c_src, w = canonical_form(y)
    c_dst, w_dst = canonical_form(y_to)
    if c_src != c_dst:
        return None
    v = w * w_dst.inv()
    w_inv = w.inv()
    for s in stabilizer_elements(c_src, y.F):
        g = w * s * w_inv * v
        if conjugate(x, g) == x_to:
            assert conjugate(y, g) == y_to
            return g
    return None


def is_reflexible(pair):
    """A conjugator inverting both members, or None.  Reflexible maps are
    exactly the pairs where one exists."""
    x, y = pair
    return _search(x, y, x.inv(), y.inv())


def self_duality(pair):
    """(positive witness, negative witness), either possibly None: positive
    swaps the two members, negative swaps and inverts them.

    Swapping generators of unequal order is impossible, so that case is a
    caller error rather than a plain no.
    """
    x, y = pair
    if order(x) != order(y):
        raise ValueError("self-duality needs generators of equal order")
    pos = _search(x, y, y, x)
    neg = _search(x, y, y.inv(), x.inv())
    return pos, neg


def brute_reflexible(pair, elements):
    """Exhaustive-scan reference for is_reflexible; feasible only for tiny q."""
    x, y = pair
    for g in elements:
        if conjugate(x, g) == x.inv() and conjugate(y, g) == y.inv():
            return g
    return None


# ---------------------------------------------------------------------------
# records with one pair_key lookup per image pair

def pair_key(F, first, second):
    """(class, quad) of the orbit holding the map pair (first, second): the
    class of second, and the quad of first once second is conjugated onto
    that class's representative."""
    cls, w = canonical_form(second)
    return cls, matrix_quad(F, cls, conjugate(first, w).matrix)


def _record_by_pair_key(F, cls, orbit, orders):
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
        level=generated_level(pair, (k, l)), k=k, l=l,
        reflexible=same_map(pair_key(F, xi, yi)),
        pos_selfdual=same_map(dual),
        neg_selfdual=k == l and same_map(pair_key(F, yi, xi)),
    )


def records_by_pair_key(q, orbits):
    """Reference for oracle.orbit_records: the same rows, each image pair
    named by its own canonical form, up to three per orbit."""
    p, f = odd_prime_power(q)
    F = make_field(p, 2 * f)
    orders = {cls: order(canonical_rep(cls, F)) for cls in all_classes(q)}
    recs = [_record_by_pair_key(F, cls, orbit, orders)
            for cls, cls_orbits in orbits.items() for orbit in cls_orbits]
    recs.sort()
    return recs


# ---------------------------------------------------------------------------
# subgroup closure by TwElem products

def closure_by_products(pair, cap=10 ** 6):
    """The subgroup generated by the pair, as a set of TwElems, by
    breadth-first closure over positive words (in a finite group they
    already form the subgroup)."""
    start = TwElem(pair[0].F, (1, 0, 0, 1), 0)  # the identity
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for z in frontier:
            for g in pair:
                w = z * g
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > cap:
                        raise RuntimeError("closure exceeds cap")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# whole-group enumerators

def naive_order(x, cap=10 ** 6):
    """Order of any element of Gbar by repeated products; the reference for
    twisted_group.order, which takes only twisted elements of G."""
    acc = x
    k = 1
    while not acc.is_identity():
        acc = acc * x
        k += 1
        if k > cap:
            raise RuntimeError("order exceeds cap")
    return k


def all_group_elements(F, which="G"):
    """Iterate the chosen group exactly once per projective element.

    Normalized matrices have first nonzero entry 1: either a = 1 with b, c, d
    free, or a = 0, b = 1 with c nonzero (else singular) and d free.
    """
    def matrices():
        for b in F.elements():
            for c in F.elements():
                for d in F.elements():
                    A = (1, b, c, d)
                    if mat_det(F, A) != 0:
                        yield A
        for c in F.units():
            for d in F.elements():
                yield (0, 1, c, d)

    for A in matrices():
        if which == "G":
            yield TwElem(F, A, iota(F, A))
        elif which == "G0":
            if F.is_square(mat_det(F, A)):
                yield TwElem(F, A, 0)
        elif which == "Gbar":
            yield TwElem(F, A, 0)
            yield TwElem(F, A, 1)
        else:
            raise ValueError(which)
