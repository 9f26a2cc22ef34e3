"""Micro-timings (microseconds per operation) of single layer calls.

Operands are drawn with the run's seed from valid inputs only: nonzero
field elements, twisted elements of M(q^2) (twist bit 1, non-square
determinant), and quads from `class_quads` with an element of the quad's
stabilizer.  Each probe times SAMPLES batches of fresh operands; one sample
is the batch time divided by the batch size, so it includes the loop's own
cost.
"""

import random
import statistics
import time

SAMPLES = 200


def _time(call, draw, batch):
    """SAMPLES per-op times of `call(*ops)`, each over `batch` drawn ops."""
    clock = time.perf_counter
    out = []
    for _ in range(SAMPLES):
        chunk = [draw() for _ in range(batch)]
        t0 = clock()
        for ops in chunk:
            call(*ops)
        out.append((clock() - t0) / batch * 1e6)
    return out


def _stats(samples):
    return {"median": statistics.median(samples),
            "p90": statistics.quantiles(samples, n=10)[8],
            "n": len(samples)}


def run(q, seed):
    """{probe name: {median, p90, n}} in GF(q^2)."""
    from twistedmaps import canonical, gfield, oracle, twisted_group
    from twistedmaps.numth import prime_power
    from twistedmaps.twisted_group import TwElem

    p, f = prime_power(q)
    F = gfield.make_field(p, 2 * f)
    rng = random.Random(seed)

    def unit():
        return rng.randrange(1, F.size)

    def twisted():
        while True:
            A = tuple(rng.randrange(F.size) for _ in range(4))
            det = F.sub(F.mul(A[0], A[3]), F.mul(A[1], A[2]))
            if det and not F.is_square(det):
                return TwElem(F, A, 1)

    classes = canonical.all_classes(q)
    blocks = [(cls, list(oracle.class_quads(F, cls)),
               canonical.stabilizer_elements(cls, F))
              for cls in rng.sample(classes, min(3, len(classes)))]

    def quad_op():
        cls, quads, stab = rng.choice(blocks)
        return F, cls, rng.choice(stab), rng.choice(quads)

    probes = {
        "gfield.mul_us": (F.mul, lambda: (unit(), unit()), 1000),
        "gfield.add_us": (F.add, lambda: (unit(), unit()), 1000),
        "gfield.inv_us": (F.inv, lambda: (unit(),), 1000),
        "gfield.frobenius_us": (F.frobenius, lambda: (unit(), f), 1000),
        "twisted_group.mul_us": (TwElem.__mul__,
                                 lambda: (twisted(), twisted()), 20),
        "twisted_group.inv_us": (TwElem.inv, lambda: (twisted(),), 20),
        "twisted_group.conjugate_us": (twisted_group.conjugate,
                                       lambda: (twisted(), twisted()), 10),
        "twisted_group.order_us": (twisted_group.order,
                                   lambda: (twisted(),), 1),
        "canonical.canonical_form_us": (canonical.canonical_form,
                                        lambda: (twisted(),), 5),
        "oracle.act_quad_us": (oracle.act_quad, quad_op, 20),
    }
    return {name: _stats(_time(call, draw, batch))
            for name, (call, draw, batch) in probes.items()}
