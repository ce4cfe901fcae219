import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, davismahowald, f2linalg, modfile, structure
from a1mod.a1core import direct_sum, f2, suspend, tensor, validate
from a1mod.davismahowald import (build_N, build_dm_complex,
                                 check_dm_exactness, d2, e1_page, e3_page,
                                 lift_check, localized_ext,
                                 seagull_localized_ext, sq4_solver)
from a1mod.f2linalg import BitMatrix, Subspace
from a1mod.margolis import margolis_homology
import dm_complex
from random_modules import random_module
from routes import assert_tensor_functional_symmetry
from solver_reference import _word_matrix, linear_map_reference, sq4_reference


def test_n_sigma_validates():
    for sigma in range(0, 9):
        validate(build_N(sigma))


def test_n_sigma_q0_homology():
    # Q0-homology of the degree-sigma polynomial piece concentrates on the
    # powers of the degree-3 generator with even exponent: x3^sigma is the
    # only monomial without x2
    for sigma in range(0, 7):
        res = margolis_homology(build_N(sigma), "Q0")
        want = [3 * sigma] if sigma % 2 == 0 else []
        assert res.nonzero_degrees() == want


def test_dm_complex_exact():
    stages = build_dm_complex(6)
    checks = check_dm_exactness(stages, 40)
    assert checks == {"complex": True, "exact": True, "onto": True}


def test_dm_boundary_respects_split():
    # the boundary of every A-generator is a sum of classes of the form
    # 1 (x) monomial in the previous stage
    stages = build_dm_complex(5)
    for prev, st in zip(stages, stages[1:]):
        for _, deg, vec in st.a_gens:
            out = st.boundary.apply(deg, vec)
            tgt_deg = deg + st.boundary.shift
            for i in range(prev.module.space.dim(tgt_deg)):
                if (out >> i) & 1:
                    lbl = prev.module.space.labels[tgt_deg][i]
                    assert lbl.split("(x)")[0] == "g0"


def test_injective_resolution():
    stages = dm_complex.build_injective(6)
    checks = dm_complex.check_injective_exactness(stages)
    assert checks == {"complex": True, "exact": True, "r_t": True}
    # stage 0's map is the augmentation 1 -> t_0
    assert stages[0].f.apply(stages[0].t[0], 1) == stages[0].t[1]


def _zero_like(f):
    return a1core.GradedMap(f.source, f.target, f.shift, {})


def test_exactness_checks_fail_on_a_zero_map():
    # a zero map at stage 2 keeps every composite zero but leaves the
    # kernel of stage 1's map larger than the image of stage 2's
    dm = build_dm_complex(4)
    dm[2] = dataclasses.replace(dm[2], boundary=_zero_like(dm[2].boundary))
    checks = check_dm_exactness(dm, 40)
    assert (checks["complex"], checks["exact"]) == (True, False)
    inj = dm_complex.build_injective(4)
    inj[2] = dataclasses.replace(inj[2], f=_zero_like(inj[2].f))
    checks = dm_complex.check_injective_exactness(inj)
    assert (checks["complex"], checks["exact"]) == (True, False)


def test_exact_rejects_the_identity_twice():
    m = structure.seagull(1)
    one = a1core.GradedMap(m.space, m.space, 0, {
        k: BitMatrix.identity(m.dim(k)) for k in m.space.degrees})
    assert davismahowald._exact([one, one]) == (False, False)


def test_e1_page_odd_sigma_vanishes():
    page = e1_page(structure.seagull(1), 5)
    assert all(sigma % 2 == 0 for sigma, _, _ in page.records)


def test_e1_page_stems():
    page = e1_page(structure.seagull(1), 4)
    got = {(sigma, stem) for sigma, stem, _ in page.records}
    # dual Q0-homology classes in dual degrees 0 and -5 give stems 2s and
    # 2s + 5 at filtration s... stem = 2*sigma - delta
    assert got == {(0, 0), (0, 5), (2, 4), (2, 9), (4, 8), (4, 13)}


def test_d2_seagull1():
    data = d2(structure.seagull(1))
    assert data.pairs == [("d5.0*", "d0.0*")]
    assert not data.is_zero()


def test_d2_seagull2_zero():
    assert d2(structure.seagull(2)).is_zero()


def test_d2_f2_zero():
    assert d2(f2()).is_zero()


def test_d2_blockwise_on_sums():
    m = direct_sum(structure.seagull(1), suspend(structure.seagull(1), 5))
    data = d2(m)
    assert len(data.pairs) == 2
    assert all(src.startswith("d5") or src.startswith("d10")
               for src, _ in data.pairs)


def test_d2_representative_independence():
    # the pairing only depends on homology classes: recomputing after a
    # labelled but basis-shuffled presentation gives the same pair degrees
    m = tensor(structure.seagull(1), structure.seagull(1))
    base = d2(m)
    again = d2(tensor(structure.seagull(1), structure.seagull(1)))
    assert base.pairs == again.pairs


def test_e3_seagull1():
    page = e3_page(structure.seagull(1))
    assert [(s, d) for s, d in page.first_column if d] == [(0, 1)]
    assert [(k, d) for k, d in page.generic if d] == []


def test_e3_page_dualizes_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return a1core.dualize(m)

    monkeypatch.setattr(davismahowald, "dualize", counting)
    e3_page(structure.seagull(3))
    assert len(calls) == 1


def test_e3_seagull2_mismatch():
    # the closed-form differential vanishes yet the page still overcounts:
    # only a later differential (certified via the classification route)
    # can reconcile the stem lists
    page = e3_page(structure.seagull(2))
    first = {s for s, d in page.first_column if d}
    assert 9 in first
    assert localized_ext(structure.seagull(2), 12).tower_stems() == [0, 4]


def test_seagull_localized_ext_formula():
    assert seagull_localized_ext(3, 2) == [2, 6, 10]


def test_localized_ext_open_ended():
    assert not localized_ext(structure.seagull(2), 12).open_ended
    assert localized_ext(structure.seagull_inf(20), 12).open_ended


def test_localized_ext_empty_modules():
    zero = localized_ext(a1core.zero_module(), 12)
    assert (zero.stems, zero.open_ended, zero.cutoff) == ({}, False, None)
    # an empty module truncated above keeps its cutoff
    assert localized_ext(a1core.truncate(structure.seagull(2), -1),
                         12).cutoff == -1


def test_localized_ext_matches_resolution_towers():
    from a1mod.resolution import h0_tower_counts
    cases = [f2(), structure.seagull(1), structure.seagull(2),
             direct_sum(structure.seagull(1),
                        suspend(structure.seagull(1), 5)),
             tensor(structure.seagull(1), structure.seagull(1))]
    for m in cases:
        towers = {k for k, v in h0_tower_counts(m, 8).items() if v}
        local = set(localized_ext(m, 8).tower_stems())
        assert towers == local


def test_lift_check_seagulls_no_lift():
    for n in (1, 2, 3, 4):
        assert lift_check(structure.seagull(n)).outcome == "no_lift"


def test_lift_check_truncated_tower_lifts():
    assert lift_check(structure.seagull_inf(24)).outcome == "lifts"


def test_lift_check_f2_inconclusive():
    assert lift_check(f2()).outcome == "inconclusive"


def test_lift_check_truncated_without_degree4_operator():
    # Sq2Sq1Sq2 of the class in degree -2 is not a boundary
    m = a1core.truncate(direct_sum(f2(-4), structure.seagull(1, -2)), 3)
    verdict = lift_check(m)
    assert verdict.outcome == "no_lift"
    assert verdict.evidence[-1] == \
        "no degree-4 operator satisfies the commutator equation"


def test_sq4_solver():
    assert not sq4_solver(structure.seagull(1))
    assert sq4_solver(structure.seagull(2))
    assert sq4_solver(f2())
    # only degrees k with k + 5 at or below the cutoff constrain S: cut below
    # its top class, seagull(1) carries one
    s1 = structure.seagull(1)
    cut = a1core.module(s1.space.labels, s1.sq1.mats, s1.sq2.mats,
                        truncated_above=4)
    assert sq4_solver(cut) and sq4_reference(cut)


def _homotopy(m):
    """A null-homotopy S of W = Sq2Sq1Sq2 on (M, Sq1), the certificate that
    ``sq4_solver`` is right to answer True: degree k -> matrix into k + 4.

    Split each degree j as boundaries + homology representatives R_j + a
    complement U_j of the cycles; h inverts Sq1 from U_{j-1} onto the
    boundaries (zero on R_j and U_j) and pi projects onto R_j.  When W is
    zero on homology, S = W h + h W pi."""
    degs = m.space.degrees
    span = {k + d for k in degs for d in (-1, 0, 4, 5)}  # the degrees read
    cycles = {j: f2linalg.kernel(m.sq1.mat(j)) for j in span}
    rest = {j: f2linalg.complement(cycles[j], Subspace.full(m.dim(j)))
            for j in span}
    wing = {j: _word_matrix(m, "Sq2Sq1Sq2", j) for j in span}

    def contraction(j):
        """h: M_j -> M_{j-1} and pi: M_j -> M_j, read off the coordinates
        in the basis Sq1 U_{j-1}, R_j, U_j of M_j."""
        n, lifts = m.dim(j), rest[j - 1]
        reps = f2linalg.complement(f2linalg.image(m.sq1.mat(j - 1)),
                                   cycles[j])
        basis = BitMatrix.from_columns(
            n, [m.sq1.apply(j - 1, u) for u in lifts] + reps + rest[j])
        coords = BitMatrix.from_columns(  # the inverse of basis
            n, [f2linalg.solve(basis, 1 << c) for c in range(n)]).data
        nb, nr = len(lifts), len(reps)
        h = BitMatrix.from_columns(m.dim(j - 1), lifts).mul(
            BitMatrix(nb, n, coords[:nb]))
        pi = BitMatrix.from_columns(n, reps).mul(
            BitMatrix(nr, n, coords[nb:nb + nr]))
        return h, pi

    hpi = {j: contraction(j) for j in {k + d for k in degs for d in (0, 5)}}
    return {k: wing[k - 1].mul(hpi[k][0]).add(
                hpi[k + 5][0].mul(wing[k]).mul(hpi[k][1]))
            for k in degs if m.dim(k + 4)}


def _assert_homotopy(m):
    # Sq1 S + S Sq1 = Sq2Sq1Sq2 on every degree whose target is reliable
    mats = _homotopy(m)

    def s4(k):
        return mats.get(k, BitMatrix.zeros(m.dim(k + 4), m.dim(k)))

    for k in m.space.degrees:
        if m.truncated_above is not None and k + 5 > m.truncated_above:
            continue
        lhs = m.sq1.mat(k + 4).mul(s4(k)).add(s4(k + 1).mul(m.sq1.mat(k)))
        assert lhs == _word_matrix(m, "Sq2Sq1Sq2", k)


def test_sq4_solution_satisfies_relation():
    m = structure.seagull(2)
    assert sq4_solver(m)
    _assert_homotopy(m)


def test_sq4_solver_visits_only_the_degrees_it_reads(monkeypatch):
    # two classes far apart: the work depends on the degrees that hold
    # classes, not on the gap between them
    calls, kernel = [], davismahowald.kernel

    def counting(a):
        calls.append(a)
        return kernel(a)

    monkeypatch.setattr(davismahowald, "kernel", counting)
    counts = []
    for top in (2000, 20000):
        calls.clear()
        assert sq4_solver(modfile.parse_module(
            f"module gap\ngen a 0\ngen b {top}\n"))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4 * 2


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_sq4_solver_matches_the_reference_solve(seed):
    # random-basis sums and tensors, with cutoffs, floors and truncations
    m = random_module(random.Random(seed))
    feasible = sq4_solver(m)
    assert feasible == sq4_reference(m)
    if feasible:
        _assert_homotopy(m)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_sq4_feasible_exactly_when_d2_vanishes(seed):
    # W is zero on Q0-homology exactly when its transpose is zero on the
    # dual's Q0-homology
    m = random_module(random.Random(seed), truncated=False)
    assert sq4_solver(m) == d2(m).is_zero()


def _no_solver(m):
    raise AssertionError("sq4_solver ran")


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_lift_check_needs_no_solver_without_truncation(seed):
    # the fourth detector runs once d2 has vanished, and then, without
    # truncation, the operator exists: lift_check answers without the
    # solver, and the solver it skips would have found the operator
    m = random_module(random.Random(seed), truncated=False)
    want = lift_check(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(davismahowald, "sq4_solver", _no_solver)
        got = lift_check(m)
    assert (got.outcome, got.evidence) == (want.outcome, want.evidence)
    if got.evidence[-1] == "degree-4 operator exists; no obstruction found":
        assert sq4_solver(m)


def test_lift_check_runs_the_solver_on_truncated_modules(monkeypatch):
    monkeypatch.setattr(davismahowald, "sq4_solver", _no_solver)
    with pytest.raises(AssertionError, match="sq4_solver ran"):
        lift_check(a1core.truncate(f2(), 10))


def test_dm_and_injective_maps_match_the_reference_solve(monkeypatch):
    calls = []

    def both(*args, **kwargs):
        got = a1core.linear_map_from_generators(*args, **kwargs)
        want = linear_map_reference(*args, **kwargs)
        calls.append(all(got.mat(k) == want.mat(k)
                         for k in got.source.degrees))
        return got

    for mod in (davismahowald, dm_complex):
        monkeypatch.setattr(mod, "linear_map_from_generators", both)
    build_dm_complex(10)
    dm_complex.build_injective(8)
    assert len(calls) == 11 + 9 and all(calls)


def test_no_solve_wider_than_two_degrees(monkeypatch):
    # no system over the entries of a graded map: every solve has at most
    # twice as many unknowns as the largest degree of the modules involved
    widths, solve = [], f2linalg.solve

    def counting(a, b):
        widths.append(a.cols)
        return solve(a, b)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("a1mod.") and \
                getattr(mod, "solve", None) is solve:
            monkeypatch.setattr(mod, "solve", counting)

    def widest(modules):
        return max(m.dim(k) for m in modules for k in m.space.degrees)

    dm = widest([f2()] + [stage.module for stage in build_dm_complex(8)])
    assert max(widths, default=0) <= 2 * dm
    widths.clear()
    inj = widest([stage.module for stage in dm_complex.build_injective(8)])
    assert max(widths, default=0) <= 2 * inj
    widths.clear()
    # the degree-4 criterion reads kernels and images and solves nothing
    assert sq4_solver(tensor(structure.seagull(3), structure.seagull(3)))
    assert widths == []


def test_tensor_functional_symmetry():
    # any functional killing the action images pairs Sq2Sq1Sq2 n (x) m with
    # n (x) Sq2Sq1Sq2 m: the difference is always an action boundary
    rng = random.Random(3)
    a = structure.seagull(rng.randint(1, 2))
    b = suspend(structure.seagull(rng.randint(1, 2)), rng.randint(0, 3))
    assert_tensor_functional_symmetry(a, b)


def test_negative_polynomial_degree_refused():
    with pytest.raises(ValueError, match="negative polynomial degree"):
        build_N(-1)
