"""Random test modules: small sums and tensors of seagulls, F2, free cells
and truncated infinite seagulls (with a cutoff or a floor), in a random
basis."""

from a1mod import a1core
from a1mod.a1core import direct_sum, dualize, f2, free_module, tensor, truncate
from a1mod.f2linalg import BitMatrix, rank, solve
from a1mod.structure import seagull, seagull_inf


def random_automorphism(rng, m):
    """Conjugate the module structure by a random graded change of basis."""
    mats, invs = {}, {}
    for k in m.space.degrees:
        n = m.space.dim(k)
        while True:
            cand = BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
            if rank(cand) == n:
                break
        mats[k] = cand
        invs[k] = BitMatrix.from_columns(n, [solve(cand, 1 << j)
                                             for j in range(n)])
    labels = {k: list(m.space.labels[k]) for k in m.space.degrees}
    sq1, sq2 = {}, {}
    for k in m.space.degrees:
        if m.space.dim(k + 1):
            sq1[k] = mats[k + 1].mul(m.sq1.mat(k)).mul(invs[k])
        if m.space.dim(k + 2):
            sq2[k] = mats[k + 2].mul(m.sq2.mat(k)).mul(invs[k])
    return a1core.module(labels, sq1, sq2, truncated_above=m.truncated_above,
                         truncated_below=m.truncated_below, name="twisted")


def random_part(rng, truncated=True):
    kinds = ["seagull", "f2", "free"] + (["above", "below"] if truncated else [])
    kind, shift = rng.choice(kinds), rng.randint(-4, 4)
    if kind == "seagull":
        return seagull(rng.randint(1, 3), shift)
    if kind == "f2":
        return f2(shift)
    if kind == "free":
        return free_module(shift)
    m = seagull_inf(shift + rng.randint(8, 14), shift)
    return m if kind == "above" else dualize(m)


def opposite_truncations(a, b):
    """One module truncated above and the other below: ``tensor`` refuses."""
    return any(x.truncated_above is not None and y.truncated_below is not None
               for x, y in ((a, b), (b, a)))


def random_module(rng, truncated=True):
    """A sum or tensor of two random parts in a random basis; with
    ``truncated``, parts may carry a cutoff or a floor and the result may be
    truncated further."""
    a, b = random_part(rng, truncated), random_part(rng, truncated)
    if rng.random() < 0.5 and not opposite_truncations(a, b):
        m = tensor(a, b)
    else:
        m = direct_sum(a, b)
    if truncated and m.hi is not None and rng.random() < 0.3:
        m = truncate(m, m.hi - rng.randint(0, 6))
    return random_automorphism(rng, m)
