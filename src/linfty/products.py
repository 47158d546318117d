"""Finite products of structures, their universal property, and Cech diagrams.

A product over a finite index set acts slotwise: words drawn from a single
slot map through that factor's components, mixed words map to zero, and the
unit-word value is the tuple of factor curvatures.  Slot generators are
named "index.generator", so indices may not contain a dot.

Twisting commutes with all of this: the twist of the product by a tuple
datum equals the product of the slotwise twists, the Maurer-Cartan series
splits per slot, and slotwise morphism families twist slotwise.  These are
exact component identities and the verifier raises when they fail.

The Cech builder turns a combinatorial cover (nerve tuples, local
structures, restriction morphisms) plus a global structure into a
resolution diagram: level k is the product over (k+1)-tuples, made into a
module over the global structure through the assembled restriction
morphism, and the connecting maps are the alternating-sum differential of
the restrictions, strict as module morphisms (strict_level_map, which also
places a ladder's chart transports); see build_cech_complex for what it
checks.
Assembled structures, product and slotwise morphisms and connecting maps
derive from valid tables and are made unchecked (ComponentTable._made).
"""

from .graded import (
    GradedSpace,
    InputError,
    MathCheckError,
    ONE,
    el_add,
)
from .structures import (
    LInftyMorphism,
    LInftyStructure,
    check_morphism,
    check_square_zero,
    compose,
    identity_morphism,
    strict_morphism,
)
from .twisting import maurer_cartan_series, twist_structure, twist_morphism
from .modules import (
    ModuleMorphism,
    compose_module_morphisms,
    module_from_morphism,
    module_morphism_from_triangle,
)
from .resolutions import ResolutionDiagram, _is_zero_module_morphism


def _check_index(i):
    if not isinstance(i, str) or not i:
        raise InputError(f"product index {i!r} must be a nonempty string")
    if "." in i or any(ch in i for ch in "|@ \t\n"):
        raise InputError(f"product index {i!r} contains a reserved character")


def slot_name(index, gen):
    return f"{index}.{gen}"


def split_slot(name):
    index, _, gen = name.partition(".")
    return index, gen


def rename_element(index, element):
    return {slot_name(index, g): q for g, q in element.items()}


def rename_word(index, word):
    return tuple(slot_name(index, g) for g in word)


def _merge_slots(tables, key):
    """Joint components of per-slot component tables.

    Values move into their slot, words map through key(index, word), and
    entries that land on one joint word add up.
    """
    components = {}
    for i, comps in tables.items():
        for k, table in comps.items():
            out = components.setdefault(k, {})
            for word, value in table.items():
                joint = key(i, word)
                out[joint] = el_add(out.get(joint, {}), rename_element(i, value))
    return components


class ProductStructure:
    """Slotwise product; `assembled` is the structure on the joint space."""

    def __init__(self, factors, label=""):
        if not factors:
            raise InputError("product over an empty index set is not supported")
        for i in factors:
            _check_index(i)
        self.index = tuple(sorted(factors))
        self.factors = {i: factors[i] for i in self.index}
        orders = {f.space.nilpotency_order for f in self.factors.values()}
        if len(orders) != 1:
            raise InputError(
                f"product factors must share a truncation order, got {sorted(orders)}")
        gens = []
        for i in self.index:
            sp = self.factors[i].space
            for g in sp.basis:
                gens.append((slot_name(i, g), sp.degree(g), sp.filtration(g)))
        self.space = GradedSpace(gens, orders.pop(), label=label)
        components = _merge_slots(
            {i: self.factors[i].components for i in self.index}, rename_word)
        self.assembled = LInftyStructure._made(self.space, components,
                                               label=label)
        self.label = label


def projection(product, i):
    if i not in product.factors:
        raise InputError(f"no factor at index {i!r}")
    mapping = {}
    for name in product.space.basis:
        idx, g = split_slot(name)
        mapping[name] = {g: ONE} if idx == i else {}
    return strict_morphism(product.assembled, product.factors[i], mapping,
                           label=f"pr.{i}")


def product_morphism(product, family, label=""):
    """Unique morphism into the product with pr_i composed after it = family[i].

    family maps each index to a morphism from one common source into that
    factor; the joint components are the slotwise renames, summed.
    """
    if sorted(family) != list(product.index):
        raise InputError("family must provide exactly one morphism per factor")
    sources = list(family.values())
    source = sources[0].source
    for f in sources[1:]:
        if f.source != source:
            raise InputError("product morphism family must share a source")
    for i in product.index:
        if family[i].target != product.factors[i]:
            raise InputError(f"family member at {i!r} does not land in factor {i!r}")
    components = _merge_slots(
        {i: family[i].components for i in product.index},
        lambda i, word: word)
    return LInftyMorphism._made(source, product.assembled, components,
                                label=label)


def slotwise_morphism(source_product, target_product, family, label=""):
    """Coordinatewise morphism between two products over the same index set."""
    if source_product.index != target_product.index:
        raise InputError("slotwise morphism needs matching index sets")
    if sorted(family) != list(source_product.index):
        raise InputError("family must provide exactly one morphism per factor")
    for i in source_product.index:
        if family[i].source != source_product.factors[i] or \
                family[i].target != target_product.factors[i]:
            raise InputError(f"family member at {i!r} has wrong endpoints")
    components = _merge_slots(
        {i: family[i].components for i in source_product.index}, rename_word)
    return LInftyMorphism._made(source_product.assembled,
                                target_product.assembled, components,
                                label=label)


def assemble_twist_datum(product, pis):
    """Joint twist datum from per-factor data; missing factors mean zero."""
    joint = {}
    for i, pi in pis.items():
        if i not in product.factors:
            raise InputError(f"twist datum mentions unknown factor {i!r}")
        joint.update(rename_element(i, pi))
    return joint


def assemble_and_twist(product, pis, slot_morphisms=None):
    """Verify that twisting and the product construction commute.

    Always checked, raising on failure since these are identities:
      - the Maurer-Cartan series of the joint datum is the tuple of the
        factor series, so the datum is Maurer-Cartan iff every slot is;
      - the twist of the assembled structure equals the assembled twist.
    When a slotwise morphism family is given, also:
      - the twist of the slotwise morphism equals the slotwise twists.
    Returns a report with per-factor and joint Maurer-Cartan flags and the
    slots carrying a nonzero residual.
    """
    pis = {i: pis.get(i, {}) for i in product.index}
    joint = assemble_twist_datum(product, pis)
    factor_series = {i: maurer_cartan_series(product.factors[i], pis[i])
                     for i in product.index}
    joint_series = maurer_cartan_series(product.assembled, joint)
    if assemble_twist_datum(product, factor_series) != joint_series:
        raise MathCheckError(
            "Maurer-Cartan series of the joint datum is not slotwise")
    twisted_joint = twist_structure(product.assembled, joint)
    slotwise_twist = ProductStructure(
        {i: twist_structure(product.factors[i], pis[i]) for i in product.index})
    if twisted_joint != slotwise_twist.assembled:
        raise MathCheckError("twist of the product differs from the product of twists")
    report = {
        "mc_by_factor": {i: not s for i, s in factor_series.items()},
        "mc_joint": not joint_series,
        "mc_residual_slots": sorted({split_slot(g)[0] for g in joint_series}),
        "twist_slotwise": True,
        "series_slotwise": True,
        "morphism_slotwise": None,
    }
    if slot_morphisms is not None:
        targets = ProductStructure(
            {i: slot_morphisms[i].target for i in product.index})
        joint_morphism = slotwise_morphism(product, targets, slot_morphisms)
        lhs = twist_morphism(joint_morphism, joint)
        twisted_family = {i: twist_morphism(slot_morphisms[i], pis[i])
                          for i in product.index}
        rhs = slotwise_morphism(
            ProductStructure({i: twisted_family[i].source for i in product.index}),
            ProductStructure({i: twisted_family[i].target for i in product.index}),
            twisted_family)
        if lhs != rhs:
            raise MathCheckError(
                "twist of the slotwise morphism differs from the slotwise twists")
        report["morphism_slotwise"] = True
    return report


# -- covers -----------------------------------------------------------------------


def _is_subtuple(a, b):
    it = iter(b)
    return all(x in it for x in a)


class CoverDescription:
    """Combinatorial cover: nerve tuples, local structures, restrictions.

    Tuples are strictly increasing in the declared order of the opens; the
    nerve must contain every singleton and be closed under subtuples.
    Restrictions are given for every proper face pair present in the nerve
    and must compose functorially; a longer tuple means a deeper overlap,
    so restrictions go from shorter tuples to longer ones.
    """

    def __init__(self, opens, nerve, local_structures, restrictions, label=""):
        opens = list(opens)
        if not opens or len(set(opens)) != len(opens):
            raise InputError("opens must be a nonempty list of distinct names")
        for name in opens:
            _check_index(name)
            if "," in name:
                raise InputError(f"open name {name!r} may not contain a comma")
        order = {name: p for p, name in enumerate(opens)}
        nerve = [tuple(a) for a in nerve]
        seen = set()
        for a in nerve:
            if not a or a in seen:
                raise InputError(f"nerve tuple {a} is empty or repeated")
            seen.add(a)
            if any(x not in order for x in a):
                raise InputError(f"nerve tuple {a} mentions an unknown open")
            if any(order[a[j]] >= order[a[j + 1]] for j in range(len(a) - 1)):
                raise InputError(f"nerve tuple {a} is not strictly increasing")
        for name in opens:
            if (name,) not in seen:
                raise InputError(f"nerve must contain the singleton ({name!r},)")
        for a in nerve:
            for j in range(len(a)):
                face = a[:j] + a[j + 1:]
                if face and face not in seen:
                    raise InputError(f"nerve not closed under faces: {face} missing")
        if set(local_structures) != seen:
            raise InputError("local structures must be keyed exactly by the nerve")
        orders = {s.space.nilpotency_order for s in local_structures.values()}
        if len(orders) != 1:
            raise InputError("local structures must share a truncation order")
        expected_pairs = {(a, b) for a in nerve for b in nerve
                          if len(a) < len(b) and _is_subtuple(a, b)}
        if set(restrictions) != expected_pairs:
            missing = sorted(expected_pairs - set(restrictions))
            extra = sorted(set(restrictions) - expected_pairs)
            raise InputError(
                f"restrictions must be keyed by proper face pairs; "
                f"missing {missing}, extra {extra}")
        for (a, b), r in restrictions.items():
            if r.source != local_structures[a] or r.target != local_structures[b]:
                raise InputError(f"restriction {a} -> {b} has wrong endpoints")
            if any(k != 1 for k in r.components):
                raise InputError(
                    f"restriction {a} -> {b} must be strict (linear only)")
        for a in nerve:
            for b in nerve:
                if not (len(a) < len(b) and _is_subtuple(a, b)):
                    continue
                for c in nerve:
                    if not (len(b) < len(c) and _is_subtuple(b, c)):
                        continue
                    step = compose(restrictions[(b, c)], restrictions[(a, b)])
                    if step != restrictions[(a, c)]:
                        raise MathCheckError(
                            f"restrictions not functorial along {a} -> {b} -> {c}")
        self.opens = opens
        self.nerve = sorted(nerve, key=lambda a: (len(a), tuple(order[x] for x in a)))
        self.local_structures = dict(local_structures)
        self.restrictions = dict(restrictions)
        self.label = label

    def depth(self):
        return max(len(a) for a in self.nerve)

    def level(self, k):
        return [a for a in self.nerve if len(a) == k + 1]


def tuple_slot(a):
    return ",".join(a)


def strict_level_map(source, target, pieces, label=""):
    """Strict module map between two Cech levels, from per-chart strict maps.

    Each piece (a, b, sign, r) sends slot a's generator g to sign r_1(g) in
    slot b; pieces that land on one key add up.  Made unchecked: callers
    pass checked strict maps that commute with the levels' restrictions,
    and the sum of such maps intertwines the level modules.
    """
    table = {}
    for a, b, sign, r in pieces:
        for g in r.word_space.basis:
            key = ((), slot_name(a, g))
            image = r.component(1, (g,))
            table[key] = el_add(table.get(key, {}), {
                slot_name(b, t): q * sign for t, q in image.items()})
    return ModuleMorphism._made(source, target, {0: table}, label=label)


def build_cech_complex(cover, global_structure, global_restrictions, label=""):
    """Resolution diagram of the cover's alternating-sum differential.

    global_restrictions maps each open to a morphism from the global
    structure to that chart's local structure.  The builder checks its
    inputs: the global structure and every local structure square to zero,
    every global and cover restriction is a morphism, and the induced maps
    to deeper overlaps agree along every route (functoriality is the
    cover's own check).  The augmented module is the module of the
    identity, level k the module of the assembled restriction morphism r_k,
    each built once; the augmentation is the triangle r_0 o identity onto
    those two.

    What it builds from checked inputs is not re-proved: the module of a
    morphism between square-zero structures squares to zero, and the Cech
    differential of strict, functorial restrictions is a module morphism
    (Lada-Markl; Dolgushev).  The one check kept on the output is that the
    alternating sum squares to zero and kills the augmentation.
    """
    inputs = (global_structure, *cover.local_structures.values())
    for structure in {id(s): s for s in inputs}.values():
        check_square_zero(structure)
    if sorted(global_restrictions) != sorted(cover.opens):
        raise InputError("need exactly one global restriction per open")
    for name, r in global_restrictions.items():
        if r.target != cover.local_structures[(name,)]:
            raise InputError(f"global restriction at {name!r} has wrong target")
        if r.source != global_structure:
            raise InputError(f"global restriction at {name!r} has wrong source")
        check_morphism(r)
    for r in cover.restrictions.values():
        check_morphism(r)
    total = {}
    for a in cover.nerve:
        if len(a) == 1:
            total[a] = global_restrictions[a[0]]
            continue
        routes = [compose(cover.restrictions[((x,), a)], global_restrictions[x])
                  for x in a]
        for x, route in zip(a[1:], routes[1:]):
            if route != routes[0]:
                raise MathCheckError(
                    f"global restrictions to {a} disagree between routes "
                    f"through {a[0]!r} and {x!r}")
        total[a] = routes[0]

    assembled_restrictions = []
    for k in range(cover.depth()):
        tuples = cover.level(k)
        product = ProductStructure(
            {tuple_slot(a): cover.local_structures[a] for a in tuples})
        family = {tuple_slot(a): total[a] for a in tuples}
        assembled_restrictions.append(
            product_morphism(product, family, label=f"cech.{k}"))

    identity = identity_morphism(global_structure)
    augmented = module_from_morphism(identity)
    levels = [module_from_morphism(r) for r in assembled_restrictions]
    augmentation = module_morphism_from_triangle(
        assembled_restrictions[0], identity, augmented, levels[0])

    connecting = []
    for k in range(cover.depth() - 1):
        # the face of b missing its j-th open carries the sign (-1)^j
        pieces = [(tuple_slot(a), tuple_slot(b),
                   (-1) ** next(j for j, x in enumerate(b) if x not in a),
                   cover.restrictions[(a, b)])
                  for a in cover.level(k) for b in cover.level(k + 1)
                  if _is_subtuple(a, b)]
        connecting.append(strict_level_map(levels[k], levels[k + 1], pieces,
                                           label=f"d.{k}"))

    diagram = ResolutionDiagram(global_structure, augmented, levels,
                                augmentation, connecting, label=label)

    maps = diagram.maps()
    for p in range(len(maps) - 1):
        if not _is_zero_module_morphism(
                compose_module_morphisms(maps[p + 1], maps[p])):
            raise MathCheckError(
                f"alternating-sum differential does not square to zero "
                f"at level {p}")
    return diagram
