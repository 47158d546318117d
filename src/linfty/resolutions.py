"""Resolution diagrams of modules and the twisted quasi-isomorphism criterion.

A diagram packages an augmented module M over a base structure together with
a finite sequence of modules M^0, M^1, ... over the same base, an
augmentation M -> M^0 and connecting maps M^i -> M^{i+1}, all of which are
module morphisms composing to zero.  The numeric content lives in the
arity-0 operators: each module carries a linear differential on its space,
each morphism a linear chain map, and the diagram induces a sequence of
cohomologies whose exactness is what "resolution" means here.

The criterion: a ladder between two such diagrams whose twisted level maps
are all quasi-isomorphisms has a twisted augmented map that is again a
quasi-isomorphism, provided the twist is Maurer-Cartan and stays adapted to
both diagrams.  The checker runs the exact-rows argument (solving for the
induced map through the injective augmentations) and, independently, the
direct cohomology computation; the two routes must agree, and a disagreement
raises instead of picking a side.
"""

from .graded import InputError, MathCheckError, _instance_of, _list_of
from .homology import (
    _exact_at_nodes,
    check_chain_map,
    induced_map,
    induced_maps,
    is_isomorphism,
    linear_blocks,
    operator_complex,
    rank,
    solve_matrix,
)
from .modules import (
    LInftyModule,
    ModuleMorphism,
    check_module_morphism,
    check_module_square_zero,
    compose_module_morphisms,
)
from .structures import LInftyStructure
from .twisting import (
    _twist_rows, mc_check, twist_structure, validate_twist_datum)


def module_chain_complex(module):
    """Complex of the arity-0 operator on the module space.

    Exists whenever phi_0 squares to zero; over a curved base this can fail
    (phi_0^2 picks up a curvature action term), and then there is no
    underlying complex to take cohomology of.
    """
    _instance_of(module, LInftyModule, "module")
    try:
        return operator_complex(module.space,
                                lambda s: module.component(0, (), s))
    except MathCheckError:
        raise MathCheckError(
            "arity-0 module operator does not square to zero; "
            "no underlying complex") from None


def module_morphism_blocks(mm):
    """degree -> matrix of the arity-0 unit-word part of a module morphism."""
    _instance_of(mm, ModuleMorphism, "module morphism")
    blocks = linear_blocks(mm.source.space, mm.target.space,
                           lambda s: mm.component(0, (), s))
    return {deg: block for deg, (block, _, _) in blocks.items()}


def _is_zero_module_morphism(mm):
    return all(not table for table in mm.components.values())


class ResolutionDiagram:
    """Augmented module, levels, augmentation and connecting maps."""

    def __init__(self, base, augmented, levels, augmentation, connecting):
        levels = _list_of(levels, "diagram levels")
        connecting = _list_of(connecting, "connecting maps")
        _instance_of(base, LInftyStructure, "base")
        for m in [augmented] + levels:
            _instance_of(m, LInftyModule, "diagram module")
        for f in [augmentation] + connecting:
            _instance_of(f, ModuleMorphism, "diagram map")
        if not levels:
            raise InputError("a resolution diagram needs at least one level")
        if len(connecting) != len(levels) - 1:
            raise InputError(
                f"{len(levels)} levels need {len(levels) - 1} connecting maps, "
                f"got {len(connecting)}")
        for m in [augmented] + levels:
            if m.base != base:
                raise InputError("all modules must share the diagram's base")
        if augmentation.source != augmented or augmentation.target != levels[0]:
            raise InputError("augmentation must map the augmented module to level 0")
        for i, d in enumerate(connecting):
            if d.source != levels[i] or d.target != levels[i + 1]:
                raise InputError(f"connecting map {i} endpoints do not match levels")
        self.base = base
        self.augmented = augmented
        self.levels = levels
        self.augmentation = augmentation
        self.connecting = connecting

    def modules(self):
        return [self.augmented] + self.levels

    def maps(self):
        return [self.augmentation] + self.connecting

    def __eq__(self, other):
        return (isinstance(other, ResolutionDiagram)
                and self.base == other.base
                and self.augmented == other.augmented
                and self.levels == other.levels
                and self.augmentation == other.augmentation
                and self.connecting == other.connecting)


def _twist_diagram(diagram, pi, base):
    """Twist each module once over the twisted base, then wire the maps.

    The twisted tables are made on the kept twist rows of the validated
    datum pi, trusted, since they derive from the diagram's own tables.
    """
    modules = [LInftyModule._made(base, m.space, _twist_rows(m, pi))
               for m in diagram.modules()]
    maps = [ModuleMorphism._made(modules[p], modules[p + 1], _twist_rows(f, pi))
            for p, f in enumerate(diagram.maps())]
    return ResolutionDiagram(base, modules[0], modules[1:], maps[0], maps[1:])


def twist_resolution(diagram, pi):
    _instance_of(diagram, ResolutionDiagram, "diagram")
    pi = validate_twist_datum(diagram.base.space, pi)
    return _twist_diagram(diagram, pi, twist_structure(diagram.base, pi))


def induced_cohomology_sequence(diagram):
    """Cohomology nodes and induced maps of the arity-0 skeleton.

    Returns a report with per-node Betti tables, per-degree induced
    matrices, and exactness flags; node 0 is the augmented module, node
    i + 1 is level i.  Exactness at the ends means injectivity at node 0
    and surjectivity at the last node.
    """
    _instance_of(diagram, ResolutionDiagram, "diagram")
    return _sequence_report(*_sequence_skeleton(diagram))


def _sequence_skeleton(diagram):
    """Node complexes and map blocks of a diagram, checked as chain maps."""
    complexes = [module_chain_complex(m) for m in diagram.modules()]
    blocks = [module_morphism_blocks(f) for f in diagram.maps()]
    for p, mats in enumerate(blocks):
        check_chain_map(complexes[p], complexes[p + 1], mats)
    return complexes, blocks


def _sequence_report(complexes, blocks):
    """The induced_cohomology_sequence report of a checked skeleton."""
    degrees = sorted({d for cc in complexes for d in cc.degrees()})
    betti = [{d: cc.cohomology(d)[0] for d in degrees} for cc in complexes]
    induced = {}
    exact_at = {}
    for d in degrees:
        induced[d] = mats = {
            p: induced_map(complexes[p], complexes[p + 1], blocks[p], d)
            for p in range(len(blocks))}
        flags = _exact_at_nodes([b[d] for b in betti], list(mats.values()))
        exact_at.update(((d, p), ok) for p, ok in enumerate(flags))
    return {
        "degrees": degrees,
        "betti": betti,
        "induced": induced,
        "exact_at": exact_at,
        "exact": all(exact_at.values()),
    }


def check_resolution(diagram, max_arity=None):
    """Constituent checks, complex conditions and exactness at zero twist.

    Collects failures into the report rather than raising, so broken
    diagrams can be described; "ok" is the conjunction of everything.
    """
    _instance_of(diagram, ResolutionDiagram, "diagram")
    failures = []
    for p, m in enumerate(diagram.modules()):
        try:
            check_module_square_zero(m, max_arity=max_arity)
        except MathCheckError as e:
            failures.append(f"module at node {p}: {e}")
    for p, f in enumerate(diagram.maps()):
        try:
            check_module_morphism(f, max_arity=max_arity)
        except MathCheckError as e:
            failures.append(f"map into node {p + 1}: {e}")
    maps = diagram.maps()
    for p in range(len(maps) - 1):
        comp = compose_module_morphisms(maps[p + 1], maps[p])
        if not _is_zero_module_morphism(comp):
            failures.append(f"composite through node {p + 1} is nonzero")
    sequence = None
    if not failures:
        try:
            sequence = induced_cohomology_sequence(diagram)
            if not sequence["exact"]:
                bad = sorted(k for k, v in sequence["exact_at"].items() if not v)
                failures.append(f"cohomology sequence not exact at {bad}")
        except MathCheckError as e:
            failures.append(str(e))
    return {
        "ok": not failures,
        "failures": failures,
        "sequence": sequence,
    }


def check_adapted_mc(diagram, pi):
    """Twist the whole diagram and test exactness of the induced sequence.

    pi must be Maurer-Cartan for the base (checked first; this is what makes
    the twisted arity-0 operators square to zero).  Returns (adapted, report).
    """
    _instance_of(diagram, ResolutionDiagram, "diagram")
    if not mc_check(diagram.base, pi):
        raise MathCheckError(
            "twist datum is not Maurer-Cartan for the base; "
            "adaptedness is undefined")
    twisted = twist_resolution(diagram, pi)
    report = induced_cohomology_sequence(twisted)
    return report["exact"], report


class ResolutionMorphism:
    """Ladder between two diagrams over the same base."""

    def __init__(self, source, target, augmented_map, level_maps):
        level_maps = _list_of(level_maps, "level maps")
        _instance_of(source, ResolutionDiagram, "ladder source")
        _instance_of(target, ResolutionDiagram, "ladder target")
        for u in [augmented_map] + level_maps:
            _instance_of(u, ModuleMorphism, "vertical map")
        if source.base != target.base:
            raise InputError("ladder endpoints must share a base")
        if len(level_maps) != len(source.levels) or \
                len(source.levels) != len(target.levels):
            raise InputError("ladder needs one vertical map per level")
        if augmented_map.source != source.augmented or \
                augmented_map.target != target.augmented:
            raise InputError("augmented vertical map endpoints do not match")
        for i, u in enumerate(level_maps):
            if u.source != source.levels[i] or u.target != target.levels[i]:
                raise InputError(f"vertical map {i} endpoints do not match")
        self.source = source
        self.target = target
        self.augmented_map = augmented_map
        self.level_maps = level_maps

    def verticals(self):
        return [self.augmented_map] + self.level_maps


def twist_resolution_morphism(ladder, pi):
    """Twist both diagrams over one twisted base and wire the verticals."""
    _instance_of(ladder, ResolutionMorphism, "ladder")
    pi = validate_twist_datum(ladder.source.base.space, pi)
    base = twist_structure(ladder.source.base, pi)
    source = _twist_diagram(ladder.source, pi, base)
    target = _twist_diagram(ladder.target, pi, base)
    verticals = [ModuleMorphism._made(s, t, _twist_rows(u, pi))
                 for u, s, t in zip(ladder.verticals(), source.modules(),
                                    target.modules())]
    return ResolutionMorphism(source, target, verticals[0], verticals[1:])


def check_resolution_morphism(ladder, max_arity=None):
    """Every square commutes; square 0 is the augmentation square."""
    _instance_of(ladder, ResolutionMorphism, "ladder")
    failures = []
    for p, u in enumerate(ladder.verticals()):
        try:
            check_module_morphism(u, max_arity=max_arity)
        except MathCheckError as e:
            failures.append(f"vertical map at node {p}: {e}")
    src_maps = ladder.source.maps()
    tgt_maps = ladder.target.maps()
    verticals = ladder.verticals()
    squares = {}
    for p in range(len(src_maps)):
        lhs = compose_module_morphisms(verticals[p + 1], src_maps[p])
        rhs = compose_module_morphisms(tgt_maps[p], verticals[p])
        squares[p] = lhs == rhs
        if not squares[p]:
            failures.append(f"square {p} does not commute")
    return {"ok": not failures, "failures": failures, "squares": squares}


def _induced_at(mats, src, dst, blocks, d):
    """mats[d] when computed already, else the degree-d map blocks induce."""
    return mats[d] if d in mats else induced_map(src, dst, blocks, d)


def prop_key_pipeline(ladder, pi, max_arity=None):
    """Hypotheses, exact-rows conclusion and its independent confirmation.

    Clauses, in order: the ladder commutes; pi is Maurer-Cartan for the
    base; pi is adapted to both diagrams; every twisted level map is a
    quasi-isomorphism.  Any failure stops with verdict "hypotheses unmet"
    and the failing clause.  When all hold, the induced map on augmented
    cohomology is computed two ways: solved through the injective twisted
    augmentations (the exact-rows route), and directly from the twisted
    augmented map.  Both must give the same matrices and both must be
    isomorphisms; a mismatch here convicts the library, not the input,
    so it raises instead of reporting a verdict.
    """
    _instance_of(ladder, ResolutionMorphism, "ladder")
    report = {"verdict": None, "failing_clause": None}

    ladder_report = check_resolution_morphism(ladder, max_arity=max_arity)
    report["ladder"] = ladder_report
    if not ladder_report["ok"]:
        report["verdict"] = "hypotheses unmet"
        report["failing_clause"] = "ladder does not commute"
        return report

    if not mc_check(ladder.source.base, pi):
        report["verdict"] = "hypotheses unmet"
        report["failing_clause"] = "twist datum not Maurer-Cartan for the base"
        return report

    # the whole ladder is twisted once and each twisted module's complex is
    # built once; they serve adaptedness, the level maps and both routes
    twisted = twist_resolution_morphism(ladder, pi)
    src_cc, src_blocks = _sequence_skeleton(twisted.source)
    seq_src = _sequence_report(src_cc, src_blocks)
    tgt_cc, tgt_blocks = _sequence_skeleton(twisted.target)
    seq_tgt = _sequence_report(tgt_cc, tgt_blocks)
    report["adapted_source"] = seq_src
    report["adapted_target"] = seq_tgt
    if not seq_src["exact"] or not seq_tgt["exact"]:
        which = "source" if not seq_src["exact"] else "target"
        report["verdict"] = "hypotheses unmet"
        report["failing_clause"] = f"twist not adapted to the {which} diagram"
        return report

    level_flags = {}
    level_blocks = []
    level_mats = []
    for n, u in enumerate(twisted.level_maps):
        level_blocks.append(module_morphism_blocks(u))
        level_mats.append(
            induced_maps(src_cc[n + 1], tgt_cc[n + 1], level_blocks[n]))
        level_flags[n] = all(is_isomorphism(m) for m in level_mats[n].values())
    report["level_quasi_iso"] = level_flags
    if not all(level_flags.values()):
        bad = sorted(n for n, ok in level_flags.items() if not ok)
        report["verdict"] = "hypotheses unmet"
        report["failing_clause"] = f"twisted level maps {bad} are not quasi-isomorphisms"
        return report

    # exact-rows route: through the augmentation squares.  H(F) and H(G)
    # are injective (exactness at node 0), so H(G) X = H(U^0) H(F) pins X.
    # Node 0 of each complex list is the augmented module, node 1 level 0.
    # H(F), H(G) and H(U^0) are read from the maps the adaptedness and level
    # checks computed, and computed here only at a degree those lack; the
    # direct route computes its own maps.
    u_blocks = module_morphism_blocks(twisted.augmented_map)
    degrees = sorted(set(src_cc[0].degrees()) | set(tgt_cc[0].degrees()))
    src_aug = {d: mats[0] for d, mats in seq_src["induced"].items()}
    tgt_aug = {d: mats[0] for d, mats in seq_tgt["induced"].items()}
    solved = {}
    direct = {}
    for d in degrees:
        hf = _induced_at(src_aug, src_cc[0], src_cc[1], src_blocks[0], d)
        hg = _induced_at(tgt_aug, tgt_cc[0], tgt_cc[1], tgt_blocks[0], d)
        hu0 = _induced_at(level_mats[0], src_cc[1], tgt_cc[1],
                          level_blocks[0], d)
        if rank(hg) != hg.ncols:
            raise MathCheckError(
                f"twisted target augmentation not injective on cohomology "
                f"at degree {d} despite adaptedness")
        x = solve_matrix(hg, hu0 * hf)
        if x is None:
            raise MathCheckError(
                f"exact-rows route unsolvable at degree {d}: augmentation "
                f"square does not close on cohomology")
        solved[d] = x
        direct[d] = induced_map(src_cc[0], tgt_cc[0], u_blocks, d)
    report["induced"] = direct
    agree = all(solved[d] == direct[d] for d in degrees)
    iso = all(is_isomorphism(direct[d]) for d in degrees)
    report["routes_agree"] = agree
    report["isomorphism"] = iso
    if not agree or not iso:
        raise MathCheckError(
            "hypotheses hold but the twisted augmented map fails to be a "
            "quasi-isomorphism; exact-rows and direct routes disagree with "
            f"the expected conclusion (agree={agree}, iso={iso})")
    report["verdict"] = "quasi-isomorphism"
    return report
