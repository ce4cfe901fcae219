"""The injective (free) resolution whose closed forms the localized spectral
sequence of ``davismahowald`` uses, built explicitly so the tests can check
it: stage s is free on generators in negative degrees, and the structure
maps follow one word pattern.  ``check_injective_exactness`` verifies that
the stages form an exact complex.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from a1mod.a1core import (WORD_DEGREE, A1Module, GradedMap, apply_word, f2,
                          free_module_on, linear_map_from_generators)
from a1mod.davismahowald import _exact


@dataclass
class InjectiveStage:
    s: int
    module: A1Module
    gens: Dict[int, Tuple[int, int]]     # gen degree -> (degree, vector)
    f: GradedMap                         # from the previous stage (F2 at 0)
    r: Tuple[int, int]                   # distinguished element r_s
    t: Tuple[int, int]                   # t_s = Sq1 r_s


def _injective_gen_degrees(s: int) -> List[int]:
    r = s % 4
    if r == 0:
        js = range(s // 2 + 1)
        extra: List[int] = []
    elif r == 1:
        js = range((s - 1) // 2 + 1)
        extra = [-5 - 3 * s]
    elif r == 2:
        js = range((s - 2) // 2 + 1)
        extra = [-4 - 3 * s]
    else:
        js = range((s - 1) // 2 + 1)
        extra = []
    return sorted([-s - 4 * j - 6 for j in js] + extra, reverse=True)


def build_injective(max_s: int) -> List[InjectiveStage]:
    """The free resolution that feeds the localized spectral sequence; stage
    s generators sit in negative degrees -s-4j-6 with boundary-pattern
    extras, and the structure maps are

        f_s(e[k]) = Sq1 e[k-1] + Sq2 e[k-2] + Sq2Sq1 e[k-3] + Sq2Sq1Sq2 e[k-5]

    omitting any absent generators."""
    stages: List[InjectiveStage] = []
    prev: Optional[InjectiveStage] = None
    for s in range(max_s + 1):
        degs = _injective_gen_degrees(s)
        mod = free_module_on([(f"e[{gd}]", gd) for gd in degs])
        gens = {gd: (gd, 1 << mod.space.labels[gd].index(f"e[{gd}]"))
                for gd in degs}
        r_vec = apply_word(mod, "Sq2Sq1Sq2", *gens[-s - 6])
        t_vec = apply_word(mod, "Sq1", *r_vec)
        if prev is None:  # the augmentation F2 -> C_0, 1 -> t_0
            source, gsrcs, gvals = f2(t_vec[0]), [(t_vec[0], 1)], [t_vec]
        else:
            source, gsrcs, gvals = prev.module, [], []
            for k, gv in prev.gens.items():
                acc = 0
                for word in ("Sq1", "Sq2", "Sq2Sq1", "Sq2Sq1Sq2"):
                    if k - WORD_DEGREE[word] in gens:
                        acc ^= apply_word(mod, word,
                                          *gens[k - WORD_DEGREE[word]])[1]
                gsrcs.append(gv)
                gvals.append((k, acc))
        # the source is generated by gsrcs, so their values fix the map
        fmap = linear_map_from_generators(source, mod, gsrcs, gvals)
        stages.append(InjectiveStage(s, mod, gens, fmap, r_vec, t_vec))
        prev = stages[-1]
    return stages


def check_injective_exactness(stages: List[InjectiveStage]) -> Dict[str, bool]:
    """f o f = 0 from the augmentation 1 -> t_0 on, exactness at every stage
    with an outgoing map, and f_s(r_{s-1}) = t_s."""
    ok_complex, ok_exact = _exact([st.f for st in stages])
    ok_rt = all((prev.r[0], st.f.apply(*prev.r)) == st.t
                for prev, st in zip(stages, stages[1:]))
    return {"complex": ok_complex, "exact": ok_exact, "r_t": ok_rt}
