"""Randomized valid instances built from nilpotent matrix algebras.

Strictly upper triangular matrix units carry an associative product
e_ij e_kl = [j = k] e_il, hence a graded commutator bracket that satisfies
Jacobi for free.  Grading a unit by w_j - w_i for a weight vector w and
filtering it by j - i gives a finite-dimensional curved Lie algebra once a
degree-1 element xi is chosen: the differential is bracketing with xi and
the curvature is -1/2 [xi, xi].  With these choices xi itself is always
Maurer-Cartan, so every instance ships with a canonical flattening twist.

Non-strictness comes from conjugating by random filtration-raising
coordinate changes; richer Maurer-Cartan elements from adding multiples of
single units (every single unit squares to zero).  Ladders spread an
instance over a two-chart cover and transport each chart separately by a
strict map; two_chart_ladder's level maps are those transports, slot by
slot.

Everything is driven by random.Random(seed), so instances are reproducible
from the seed alone.
"""

from fractions import Fraction
import random

from .graded import (
    InputError, ONE, _accumulate, _check_arity, _dict_of, _instance_of, _is_int,
    el_add, parse_scalar)
from .structures import (
    LInftyMorphism,
    LInftyStructure,
    compose,
    conjugate,
    from_curved_lie,
    identity_morphism,
    invert,
)
from .twisting import mc_check, push_mc
from .products import (
    CoverDescription,
    build_cech_complex,
    strict_level_map,
    tuple_slot,
)
from .modules import identity_module_morphism
from .resolutions import ResolutionMorphism


def unit_name(i, j):
    return f"e{i}{j}"


def _unit_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _multiply(n, a, b):
    """Product of two strictly upper triangular matrices, unit coefficients."""
    out = {}
    for (i, j), p in a.items():
        for (k, l), q in b.items():
            if j == k:
                _accumulate(out, (i, l), p * q)
    return out


def matrix_structure(n, weights=None, xi=None, label=""):
    """Curved Lie structure on the strictly upper triangular n x n units.

    weights: length-n nondecreasing integers; unit e_ij gets unshifted
    degree weights[j] - weights[i] and filtration j - i, truncation order n.
    xi: coefficient dict over degree-1 units (default: every superdiagonal
    unit of degree 1 with coefficient 1).  Returns (structure, xi).  An n
    that is not an int of at least 2, malformed weights, a non-dict xi or
    an xi entry of the wrong degree is an InputError.
    """
    _check_arity(n, "n")
    if n < 2:
        raise InputError(f"need at least two rows, got {n}")
    if weights is None:
        weights = list(range(n))
    if not isinstance(weights, (list, tuple)) \
            or not all(map(_is_int, weights)):
        raise InputError(f"weights must be a list of integers, got {weights!r}")
    if len(weights) != n:
        raise InputError(f"one weight per row: {n} rows, {len(weights)} weights")
    pairs = _unit_pairs(n)
    deg = {(i, j): weights[j - 1] - weights[i - 1] for (i, j) in pairs}
    gens = [(unit_name(i, j), deg[(i, j)], j - i) for (i, j) in pairs]
    if xi is None:
        xi = {unit_name(i, i + 1): ONE for i in range(1, n)
              if deg[(i, i + 1)] == 1}
    _dict_of(xi, "xi")
    xi_mat = {}
    for (i, j) in pairs:
        q = xi.get(unit_name(i, j))
        if q:
            if deg[(i, j)] != 1:
                raise InputError(f"xi entry {unit_name(i, j)} has degree "
                                 f"{deg[(i, j)]}, needs 1")
            xi_mat[(i, j)] = parse_scalar(q)

    def commutator(a, b, par_a, par_b):
        ab = _multiply(n, a, b)
        ba = _multiply(n, b, a)
        sign = -1 if (par_a % 2) and (par_b % 2) else 1
        out = dict(ab)
        for key, q in ba.items():
            _accumulate(out, key, -sign * q)
        return out

    def as_element(mat):
        return {unit_name(i, j): parse_scalar(q) for (i, j), q in mat.items() if q}

    bracket = {}
    for a in pairs:
        for b in pairs:
            mat = commutator({a: 1}, {b: 1}, deg[a], deg[b])
            if mat:
                bracket[(unit_name(*a), unit_name(*b))] = as_element(mat)
    differential = {}
    for a in pairs:
        mat = commutator(xi_mat, {a: 1}, 1, deg[a])
        if mat:
            differential[unit_name(*a)] = as_element(mat)
    xi_sq = commutator(xi_mat, xi_mat, 1, 1)
    curvature = as_element({k: Fraction(-q, 2) for k, q in xi_sq.items()})
    structure = from_curved_lie(gens, n, curvature, differential, bracket,
                                label=label or f"upper{n}")
    return structure, as_element(xi_mat)


# Coefficient pools, read at each draw: the linear part of a coordinate
# change and the extra term of an instance's datum draw from the first, the
# quadratic part of a coordinate change from the second.
LINEAR_POOL = (-2, -1, 1, 2)
QUADRATIC_POOL = (-1, 1)


def random_weights(rng, n):
    """Nondecreasing weights with at least one unit step off the diagonal."""
    steps = [1] + [rng.choice((1, 1, 2)) for _ in range(n - 2)]
    rng.shuffle(steps)
    weights = [0]
    for s in steps:
        weights.append(weights[-1] + s)
    return weights


def _raising_linear_part(rng, space):
    """Arity-1 table: identity plus random same-degree raising terms."""
    table = {}
    for g in space.basis:
        value = {g: ONE}
        for t in space.basis:
            if t != g and space.degree(t) == space.degree(g) \
                    and space.filtration(t) > space.filtration(g) \
                    and rng.random() < 0.5:
                value[t] = rng.choice(LINEAR_POOL)
        table[(g,)] = value
    return table


def random_conjugation(rng, structure):
    """Random invertible coordinate change: identity plus raising terms.

    The linear part adds filtration-raising same-degree terms, the
    quadratic part adds arbitrary admissible values; both keep the map a
    morphism onto the transported structure by construction.
    """
    space = structure.space
    comps = {1: _raising_linear_part(rng, space)}
    table = {}
    for idx, a in enumerate(space.basis):
        for b in space.basis[idx:]:
            word = space.normalize_word([a, b])
            if word is None:
                continue
            word, _ = word
            want = space.word_degree(word)
            floor = space.word_weight(word)
            value = {}
            for t in space.basis:
                if space.degree(t) == want and space.filtration(t) >= floor \
                        and rng.random() < 0.3:
                    value[t] = rng.choice(QUADRATIC_POOL)
            if value:
                table[word] = value
    if table:
        comps[2] = table
    return conjugate(structure, comps)


def random_instance(seed):
    """Reproducible bundle: strict base, canonical MC element, a non-strict
    isomorphism onto a transported copy, and the pushed MC element."""
    rng = random.Random(seed)
    n = rng.choice((3, 3, 4))
    weights = random_weights(rng, n)
    base, xi = matrix_structure(n, weights, label=f"inst{seed}")
    candidates = [g for g in base.space.basis if base.space.degree(g) == 0]
    pi = dict(xi)
    if candidates and rng.random() < 0.7:
        extra = rng.choice(candidates)
        pi = el_add(pi, {extra: rng.choice(LINEAR_POOL)})
    if not mc_check(base, pi):
        raise AssertionError(f"seed {seed}: constructed datum is not Maurer-Cartan")
    transported, morphism = random_conjugation(rng, base)
    return {
        "seed": seed,
        "base": base,
        "pi": pi,
        "morphism": morphism,
        "transported": transported,
        "pi_pushed": push_mc(morphism, pi),
    }


def random_strict_transport(rng, structure):
    """Strict isomorphism: identity plus random filtration-raising terms."""
    return conjugate(structure, {1: _raising_linear_part(rng, structure.space)})


# nerve of the two-chart cover U, V: both charts and their overlap
CHARTS = (("U",), ("V",), ("U", "V"))


def _check_transports(transports):
    """InputError naming the first chart without a morphism in transports."""
    transports = _dict_of(transports, "transports")
    for a in CHARTS:
        t = transports.get(a)
        if t is None:
            raise InputError(f"no transport on chart {a}")
        if not isinstance(t, LInftyMorphism):
            raise InputError(f"transport on chart {a} must be a morphism, "
                             f"got {type(t).__name__}")


def two_chart_diagram(structure, transports=None, label=""):
    """Spread a structure over a two-chart cover.

    transports, when given, maps each chart tuple to a strict isomorphism
    out of the structure, else InputError names the chart; local structures
    are their targets and the cover restrictions are the induced
    comparisons t_UV o t_a^{-1}, so any choice yields a valid diagram with
    identity-shaped combinatorics.  Without
    transports the spread is the identity one: a single identity morphism
    serves as every transport and, being its own restriction to the
    overlap, as both cover restrictions, so it is built and checked once.
    A structure that is not an LInftyStructure is an InputError.
    """
    _instance_of(structure, LInftyStructure, "structure")
    b = ("U", "V")
    if transports is None:
        identity = identity_morphism(structure)
        transports = dict.fromkeys(CHARTS, identity)
        restrictions = {(a, b): identity for a in (("U",), ("V",))}
    else:
        _check_transports(transports)
        restrictions = {(a, b): compose(transports[b], invert(transports[a]))
                        for a in (("U",), ("V",))}
    locals_ = {a: transports[a].target for a in CHARTS}
    cover = CoverDescription(["U", "V"], CHARTS, locals_, restrictions,
                             label=label)
    return build_cech_complex(
        cover, structure, {name: transports[(name,)] for name in ("U", "V")},
        label=label)


def two_chart_ladder(structure, transports, label=""):
    """Ladder from the identity spread of a structure to a transported one.

    transports maps each chart tuple to a strict map out of the structure,
    else InputError names the chart before anything is built.  The source
    is two_chart_diagram(structure), the target
    two_chart_diagram(structure, transports); level map k sends each chart's
    slot through its transport (products.strict_level_map) between the
    diagrams' level modules, and the augmented map is the identity.  A
    structure that is not an LInftyStructure is an InputError.
    """
    _instance_of(structure, LInftyStructure, "structure")
    _check_transports(transports)
    for a in CHARTS:
        if not transports[a].is_strict():
            raise InputError(f"transport on chart {a} must be strict")
    src = two_chart_diagram(structure, label=f"{label}.src")
    tgt = two_chart_diagram(structure, transports, label=f"{label}.tgt")
    verticals = [strict_level_map(src.levels[k], tgt.levels[k],
                                  [(tuple_slot(a), tuple_slot(a), 1,
                                    transports[a])
                                   for a in CHARTS if len(a) == k + 1])
                 for k in range(2)]
    return ResolutionMorphism(src, tgt, identity_module_morphism(src.augmented),
                              verticals, label=label)


def random_ladder(seed):
    """Reproducible ladder over a random matrix instance, with its MC datum.

    two_chart_ladder with independent random strict transports per chart;
    the pair (ladder, pi) satisfies every hypothesis of the twisted
    criterion.
    """
    rng = random.Random(seed)
    n = rng.choice((3, 3, 4))
    weights = random_weights(rng, n)
    base, xi = matrix_structure(n, weights, label=f"ladder{seed}")
    transports = {a: random_strict_transport(rng, base)[1] for a in CHARTS}
    return two_chart_ladder(base, transports, label=f"ladder{seed}"), xi
