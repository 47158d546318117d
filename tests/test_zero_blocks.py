"""Zero blocks and exactness from ranks, against the general paths they skip.

homology skips elimination where its answer is fixed in advance: a product
with a zero factor, the cohomology at a degree whose two differentials are
both zero, and a map induced into such a degree.  resolutions reads the
exactness of each degree's sequence of induced maps from ranks
(homology._exact_at_nodes) instead of building a ChainComplex per degree.
The oracles below are the routes these replace, kept verbatim: the product
by sums, the eliminating cohomology record, the solve_columns induced map
and the per-degree ChainComplex exactness.  Every result must equal its
oracle, scalar types included, on the corpus fixtures (each diagram and
ladder untwisted and twisted by each of its Maurer-Cartan elements),
random_ladder(0..24) and the fractional ladder twisted by their data, and a hand-made complex with
nonzero differentials and non-unit pivots.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from linfty import homology
from linfty.graded import InputError, MathCheckError, ZERO
from linfty.homology import (
    ChainComplex,
    Matrix,
    _exact_at_nodes,
    _fold,
    _from_columns,
    check_chain_map,
    induced_map,
    rank,
    reduce_against,
    rref,
    solve_columns,
)
from linfty.instances import random_ladder
from linfty.io import load_document
from linfty.resolutions import (
    _sequence_report,
    _sequence_skeleton,
    check_resolution,
    induced_cohomology_sequence,
    module_morphism_blocks,
    twist_resolution,
    twist_resolution_morphism,
)
from linfty.twisting import mc_check

from test_raise_sites import broken
from test_scalar_types import fractional_ladder

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- the oracles: the general routes, verbatim ---------------------------------------

def product_by_sums(a, b):
    """Matrix.__mul__ without the zero-factor path."""
    cols = b.transpose().rows
    return Matrix._made(a.nrows, b.ncols, tuple([
        _fold([sum([x * y for x, y in zip(row, col)], ZERO) for col in cols])
        for row in a.rows]))


class Eliminating(ChainComplex):
    """A complex whose cohomology record is eliminated at every degree."""

    def _cohomology_record(self, k):
        if k not in self._homology:
            cycles = self.cycle_basis(k)
            bred, bpivots = rref(self.d(k - 1).transpose())
            boundary = bred.rows[:len(bpivots)]
            reduced = [reduce_against(v, boundary, bpivots) for v in cycles]
            if reduced:
                rep_matrix, rep_pivots = rref(Matrix._made(
                    len(reduced), self.dim(k), tuple(map(_fold, reduced))))
                reps = rep_matrix.rows[:len(rep_pivots)]
            else:
                reps = ()
            betti = len(cycles) - rank(self.d(k - 1))
            if len(reps) != betti:
                raise MathCheckError(
                    f"cohomology audit failed at degree {k}: "
                    f"{len(reps)} representatives vs Betti {betti}")
            self._homology[k] = (betti, reps, boundary)
        return self._homology[k]


def eliminating(cc):
    return Eliminating(cc.dims, cc.differentials)


def solved_induced_map(src, dst, maps, k):
    """induced_map through solve_columns at every degree."""
    _, src_reps = src.cohomology(k)
    betti_dst, dst_reps = dst.cohomology(k)
    f = maps[k] if k in maps else Matrix._zero(dst.dim(k), src.dim(k))
    if not isinstance(f, Matrix):
        f = Matrix.from_rows(f, ncols=src.dim(k))
    basis = _from_columns(dst.dim(k), dst_reps + list(dst.boundary_basis(k)))
    cols = solve_columns(basis, [f._apply(rep) for rep in src_reps])
    if cols is None:
        raise MathCheckError(
            f"image of a cycle is not a cycle at degree {k}; not a chain map")
    return _from_columns(betti_dst, [c[:betti_dst] for c in cols])


def per_degree_exactness(dims, mats):
    """exact_at of one degree's sequence through a ChainComplex of it."""
    try:
        seq = Eliminating(dims, mats)
        return [seq.is_exact_at(p) for p in range(len(dims))]
    except MathCheckError:
        return [False] * len(dims)


def per_degree_report(complexes, blocks):
    """_sequence_report with a ChainComplex per degree, nothing skipped."""
    complexes = [eliminating(cc) for cc in complexes]
    degrees = sorted({d for cc in complexes for d in cc.degrees()})
    betti = [{d: cc.cohomology(d)[0] for d in degrees} for cc in complexes]
    induced = {}
    exact_at = {}
    for d in degrees:
        induced[d] = mats = {
            p: solved_induced_map(complexes[p], complexes[p + 1], blocks[p], d)
            for p in range(len(blocks))}
        dims = {p: betti[p][d] for p in range(len(complexes))}
        flags = per_degree_exactness(dims, mats)
        for p in range(len(complexes)):
            exact_at[(d, p)] = flags[p]
    return {
        "degrees": degrees,
        "betti": betti,
        "induced": induced,
        "exact_at": exact_at,
        "exact": all(exact_at.values()),
    }


def typed(value):
    """value with each scalar paired with its type, containers and dict
    order kept, a Matrix as its shape and rows."""
    if isinstance(value, Matrix):
        return ("Matrix", value.nrows, value.ncols, typed(value.rows))
    if isinstance(value, dict):
        return (dict, [(k, typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(v) for v in value])
    return (type(value), value)


# -- the inputs ----------------------------------------------------------------------

def corpus_diagrams_and_ladders():
    """Each fixture diagram and ladder, untwisted and twisted by each
    element of its document that is Maurer-Cartan for its base."""
    diagrams, ladders = [], []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(path.read_text(encoding="utf-8"))
        elements = [pi for _, pi in doc.elements.values()]
        for found, items, twist in (
                (diagrams, doc.resolutions.values(), twist_resolution),
                (ladders, doc.ladders.values(), twist_resolution_morphism)):
            for item in items:
                found.append(item)
                base = getattr(item, "source", item).base
                for pi in elements:
                    try:
                        if not mc_check(base, pi):
                            continue
                    except InputError:  # an element of another space
                        continue
                    found.append(twist(item, pi))
    return diagrams, ladders


def scenes():
    """(diagram skeletons, chain maps): every diagram's node complexes and
    map blocks, and every map of a skeleton or of a ladder as (source
    complex, target complex, blocks)."""
    diagrams, ladders = corpus_diagrams_and_ladders()
    # untwisted, their modules lie over a curved base: no node complexes
    ladders += [twist_resolution_morphism(ladder, xi) for ladder, xi in
                [random_ladder(seed) for seed in range(25)]
                + [fractional_ladder()]]
    skeletons = [_sequence_skeleton(diagram) for diagram in diagrams]
    maps = []
    for ladder in ladders:
        src = _sequence_skeleton(ladder.source)
        tgt = _sequence_skeleton(ladder.target)
        skeletons += [src, tgt]
        for p, u in enumerate(ladder.verticals()):
            maps.append((src[0][p], tgt[0][p], module_morphism_blocks(u)))
    for complexes, blocks in skeletons:
        maps += [(complexes[p], complexes[p + 1], b)
                 for p, b in enumerate(blocks)]
    return skeletons, maps


@pytest.fixture(scope="module")
def scene():
    return scenes()


def hand_made():
    """Nonzero differentials with non-unit pivots (2, then 3/2) at degrees
    0 -> 1 -> 2, H^1 a line, and a flat degree 3 of dimension 2."""
    return ChainComplex({0: 1, 1: 3, 2: 1, 3: 2},
                        {0: [[2], [3], [0]], 1: [[Fraction(3, 2), -1, 0]]})


# -- products ------------------------------------------------------------------------

def test_a_product_with_a_zero_factor_is_the_product_by_sums():
    half = Fraction(1, 2)
    mats = [Matrix(2, 2, [[half, 2], [3, -half]]), Matrix(2, 2),
            Matrix(2, 3, [[0, half, 0], [0, 0, 0]]), Matrix(2, 3),
            Matrix(3, 2, [[1, 0], [0, 0], [half, 4]]), Matrix(3, 2),
            Matrix(0, 2), Matrix(2, 0), Matrix(0, 3), Matrix(3, 0),
            Matrix(2, 2, [[half, 0], [0, half]])]
    zero_factors = 0
    for a in mats:
        for b in mats:
            if a.ncols == b.nrows:
                zero_factors += a.is_zero() or b.is_zero()
                assert typed(a * b) == typed(product_by_sums(a, b)), (a, b)
    assert zero_factors > 10


def test_the_chain_map_products_are_the_products_by_sums(scene):
    """Every product check_chain_map and check_complex form on the scenes."""
    _, maps = scene
    zero_factors = 0
    for src, dst, blocks in maps:
        mats = check_chain_map(src, dst, blocks)
        for k, m in mats.items():
            for a, b in ((mats.get(k + 1), src.d(k)), (dst.d(k), m)):
                if a is None:
                    continue
                zero_factors += a.is_zero() or b.is_zero()
                assert typed(a * b) == typed(product_by_sums(a, b))
    assert zero_factors > 100


# -- cohomology records and induced maps ---------------------------------------------

def assert_records_are_eliminated(cc):
    """Each degree's record, and its flat or eliminated path, checked."""
    oracle = eliminating(cc)
    flat = 0
    for k in [min(cc.degrees(), default=0) - 1, *cc.degrees()]:
        flat += cc._flat_at(k)
        assert typed(cc._cohomology_record(k)) == \
            typed(oracle._cohomology_record(k)), k
        assert cc.cohomology(k) == oracle.cohomology(k)
    return flat


def test_each_node_cohomology_is_the_eliminated_one(scene):
    skeletons, _ = scene
    flat = sum(assert_records_are_eliminated(cc)
               for complexes, _ in skeletons for cc in complexes)
    general = sum(not cc._flat_at(k) for complexes, _ in skeletons
                  for cc in complexes for k in cc.degrees())
    assert flat > 100 and general > 0


def test_each_induced_map_is_the_solved_one(scene):
    _, maps = scene
    flat = 0
    for src, dst, blocks in maps:
        degrees = sorted(set(src.degrees()) | set(dst.degrees()))
        for k in degrees:
            flat += dst._flat_at(k)
            got = induced_map(src, dst, blocks, k)
            want = solved_induced_map(eliminating(src), eliminating(dst),
                                      blocks, k)
            assert typed(got) == typed(want), k
    assert flat > 100


def test_the_hand_made_complex_takes_both_paths_with_the_oracles_answers():
    cc = hand_made()
    assert sorted(cc.differentials) == [0, 1]
    assert [cc._flat_at(k) for k in range(-1, 5)] == \
        [True, False, False, False, True, True]
    assert assert_records_are_eliminated(cc) == 2
    assert cc.betti() == {0: 0, 1: 1, 2: 0, 3: 2}
    assert typed(cc._cohomology_record(1)) == typed(
        (1, ((0, 0, 1),), ((1, Fraction(3, 2), 0),)))
    # into itself by 2 (general target degrees), into a flat line at
    # degree 1 by a map killing the boundary (2, 3, 0)
    line = ChainComplex({1: 1}, {})
    for dst, blocks in ((cc, {k: Matrix.identity(n).scale(2)
                              for k, n in cc.dims.items()}),
                        (line, {1: [[3, -2, Fraction(1, 3)]]})):
        check_chain_map(cc, dst, blocks)
        for k in range(-1, 5):
            got = induced_map(cc, dst, blocks, k)
            want = solved_induced_map(eliminating(cc), eliminating(dst),
                                      blocks, k)
            assert typed(got) == typed(want), k
    assert induced_map(cc, line, {1: [[3, -2, Fraction(1, 3)]]}, 1) == \
        Matrix(1, 1, [[Fraction(1, 3)]])


# -- exactness from ranks ------------------------------------------------------------

def test_each_sequence_report_is_the_per_degree_one(scene):
    skeletons, _ = scene
    verdicts = set()
    for complexes, blocks in skeletons:
        report = _sequence_report(complexes, blocks)
        assert typed(report) == typed(per_degree_report(complexes, blocks))
        verdicts.update(report["exact_at"].values())
    assert verdicts == {True, False}


@pytest.mark.parametrize("dims, maps", [
    # the hand-made differentials as a sequence: exact but at node 1
    ([1, 3, 1, 2], [[[2], [3], [0]], [[Fraction(3, 2), -1, 0]], [[0], [0]]]),
    # a short exact sequence through a non-unit pivot
    ([1, 2, 1], [[[2], [4]], [[2, -1]]]),
    # a nonzero composite: no node is exact
    ([1, 1, 1], [[[3]], [[Fraction(1, 2)]]]),
    # zero maps only
    ([0, 2, 1], [[[], []], [[0, 0]]]),
])
def test_exactness_from_ranks_is_the_complex_exactness(dims, maps):
    mats = [Matrix.from_rows(m, ncols=dims[p]) for p, m in enumerate(maps)]
    want = per_degree_exactness(dict(enumerate(dims)), dict(enumerate(mats)))
    assert _exact_at_nodes(dims, mats) == want


@pytest.mark.parametrize("side", ["rank", "rref"])
def test_a_bareiss_rref_disagreement_marks_the_degree_not_exact(monkeypatch,
                                                                side):
    """An off-by-one rank inside the exactness helper, on the cech_fixb
    diagram (exact, a nonzero induced map at each degree): each degree with
    a nonzero induced map turns not exact at every node."""
    doc = load_document((FIXTURES / "cech_fixb.json").read_text(
        encoding="utf-8"))
    diagram = doc.resolutions["cech_fixb"]
    intact = induced_cohomology_sequence(diagram)
    assert intact["exact"]
    moved = {d for d, mats in intact["induced"].items()
             if any(not m.is_zero() for m in mats.values())}
    assert moved == {0, 1}
    change = (lambda r: r + 1) if side == "rank" else \
        (lambda r: (r[0], r[1][:-1]))
    monkeypatch.setattr(homology, side, broken(
        homology, side, _exact_at_nodes, lambda m: True, change))
    report = induced_cohomology_sequence(diagram)
    assert typed(report["induced"]) == typed(intact["induced"])
    assert report["exact_at"] == {
        (d, p): ok and d not in moved
        for (d, p), ok in intact["exact_at"].items()}
    failures = check_resolution(diagram)["failures"]
    bad = sorted((d, p) for d in moved for p in range(len(diagram.modules())))
    assert failures == [f"cohomology sequence not exact at {bad}"]

