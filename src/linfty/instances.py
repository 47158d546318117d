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
instance over a two-chart cover and transport each chart separately;
two_chart_ladder builds such a ladder from the per-chart transports.

Everything is driven by random.Random(seed), so instances are reproducible
from the seed alone.
"""

from fractions import Fraction
import random

from .graded import ONE, _accumulate, el_add
from .structures import (
    compose,
    conjugate,
    from_curved_lie,
    identity_morphism,
    invert,
)
from .twisting import mc_check, push_mc
from .products import (
    CoverDescription,
    ProductStructure,
    build_cech_complex,
    product_morphism,
    slotwise_morphism,
    tuple_slot,
)
from .modules import identity_module_morphism, module_morphism_from_triangle
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
    unit of degree 1 with coefficient 1).  Returns (structure, xi).
    """
    if n < 2:
        raise ValueError("need at least two rows")
    if weights is None:
        weights = list(range(n))
    if len(weights) != n:
        raise ValueError("one weight per row")
    pairs = _unit_pairs(n)
    deg = {(i, j): weights[j - 1] - weights[i - 1] for (i, j) in pairs}
    gens = [(unit_name(i, j), deg[(i, j)], j - i) for (i, j) in pairs]
    if xi is None:
        xi = {unit_name(i, i + 1): ONE for i in range(1, n)
              if deg[(i, i + 1)] == 1}
    xi_mat = {}
    for (i, j) in pairs:
        q = xi.get(unit_name(i, j))
        if q:
            if deg[(i, j)] != 1:
                raise ValueError(f"xi entry {unit_name(i, j)} has degree "
                                 f"{deg[(i, j)]}, needs 1")
            xi_mat[(i, j)] = Fraction(q)

    def commutator(a, b, par_a, par_b):
        ab = _multiply(n, a, b)
        ba = _multiply(n, b, a)
        sign = -1 if (par_a % 2) and (par_b % 2) else 1
        out = dict(ab)
        for key, q in ba.items():
            _accumulate(out, key, -sign * q)
        return out

    def as_element(mat):
        return {unit_name(i, j): Fraction(q) for (i, j), q in mat.items() if q}

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
                value[t] = Fraction(rng.choice((-2, -1, 1, 2)))
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
                    value[t] = Fraction(rng.choice((-1, 1)))
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
        pi = el_add(pi, {extra: Fraction(rng.choice((-2, -1, 1, 2)))})
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


def two_chart_diagram(structure, transports=None, label=""):
    """Spread a structure over a two-chart cover.

    transports, when given, maps chart tuples to strict isomorphisms out of
    the structure; local structures are their targets and the cover
    restrictions are the induced comparisons, so any choice yields a valid
    diagram with identity-shaped combinatorics.
    """
    if transports is None:
        transports = {a: identity_morphism(structure) for a in CHARTS}
    locals_ = {a: transports[a].target for a in CHARTS}
    restrictions = {}
    for a in (("U",), ("V",)):
        b = ("U", "V")
        restrictions[(a, b)] = compose(transports[b], invert(transports[a]))
    cover = CoverDescription(["U", "V"], CHARTS, locals_, restrictions,
                             label=label)
    return build_cech_complex(
        cover, structure, {name: transports[(name,)] for name in ("U", "V")},
        label=label)


def two_chart_ladder(structure, transports, label=""):
    """Ladder from the identity spread of a structure to a transported one.

    transports maps each chart tuple to a strict map out of the structure.
    The source is two_chart_diagram(structure), the target is
    two_chart_diagram(structure, transports), the level maps come from the
    fiberwise triangle construction with the transports as fibers, between
    the diagrams' own level modules, and the augmented map is the identity.
    """
    src = two_chart_diagram(structure, label=f"{label}.src")
    tgt = two_chart_diagram(structure, transports, label=f"{label}.tgt")
    verticals = []
    for k in range(2):
        level = [a for a in CHARTS if len(a) == k + 1]
        src_product = ProductStructure(
            {tuple_slot(a): structure for a in level})
        tgt_product = ProductStructure(
            {tuple_slot(a): transports[a].target for a in level})
        fiber = slotwise_morphism(src_product, tgt_product,
                                  {tuple_slot(a): transports[a] for a in level})
        inner = product_morphism(src_product, {
            tuple_slot(a): identity_morphism(structure) for a in level})
        verticals.append(module_morphism_from_triangle(
            fiber, inner, src.levels[k], tgt.levels[k]))
    return ResolutionMorphism(
        src, tgt,
        identity_module_morphism(src.augmented),
        verticals,
        label=label)


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
