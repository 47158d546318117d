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
instance over a two-chart cover and transport each chart separately.

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


def random_conjugation(rng, structure, arity_two=True):
    """Random invertible coordinate change: identity plus raising terms.

    The linear part adds filtration-raising same-degree terms, the
    quadratic part adds arbitrary admissible values; both keep the map a
    morphism onto the transported structure by construction.
    """
    space = structure.space
    comps = {1: _raising_linear_part(rng, space)}
    if arity_two:
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


def two_chart_diagram(structure, transports=None, label=""):
    """Spread a structure over a two-chart cover.

    transports, when given, maps chart tuples to strict isomorphisms out of
    the structure; local structures are their targets and the cover
    restrictions are the induced comparisons, so any choice yields a valid
    diagram with identity-shaped combinatorics.
    """
    tuples = [("U",), ("V",), ("U", "V")]
    if transports is None:
        transports = {a: identity_morphism(structure) for a in tuples}
    locals_ = {a: transports[a].target for a in tuples}
    restrictions = {}
    for a in (("U",), ("V",)):
        b = ("U", "V")
        restrictions[(a, b)] = compose(transports[b], invert(transports[a]))
    cover = CoverDescription(["U", "V"], tuples, locals_, restrictions,
                             label=label)
    return build_cech_complex(
        cover, structure, {name: transports[(name,)] for name in ("U", "V")},
        label=label)


def random_ladder(seed):
    """Reproducible ladder over a random matrix instance, with its MC datum.

    Source: the instance spread with identity transports.  Target: the same
    instance spread with independent random strict transports per chart.
    Verticals come from the fiberwise triangle construction, and the pair
    (ladder, pi) satisfies every hypothesis of the twisted criterion.
    """
    rng = random.Random(seed)
    n = rng.choice((3, 3, 4))
    weights = random_weights(rng, n)
    base, xi = matrix_structure(n, weights, label=f"ladder{seed}")
    src = two_chart_diagram(base, label=f"ladder{seed}.src")
    tuples = [("U",), ("V",), ("U", "V")]
    transports = {a: random_strict_transport(rng, base)[1] for a in tuples}
    tgt = two_chart_diagram(base, transports, label=f"ladder{seed}.tgt")

    verticals = []
    for k in range(2):
        level = [a for a in tuples if len(a) == k + 1]
        src_product = ProductStructure({tuple_slot(a): base for a in level})
        tgt_product = ProductStructure(
            {tuple_slot(a): transports[a].target for a in level})
        fiber = slotwise_morphism(src_product, tgt_product,
                                  {tuple_slot(a): transports[a] for a in level})
        inner = product_morphism(src_product, {
            tuple_slot(a): identity_morphism(base) for a in level})
        verticals.append(module_morphism_from_triangle(fiber, inner))
    ladder = ResolutionMorphism(
        src, tgt,
        identity_module_morphism(src.augmented),
        verticals,
        label=f"ladder{seed}")
    return ladder, xi
