"""Curved structures on the reduced-plus-unit symmetric coalgebra.

A structure is stored by its Taylor components: for each arity k a sparse
table of values on canonical words.  The coderivation it generates acts on a
word by splitting off every shuffle-selected subword:

    Q(g_1 v ... v g_n) = sum over k, sigma in Sh(k, n-k) of
        eps(sigma) Q_k(left block) v (right block)

with Sh(n,0) = Sh(0,n) = {id} and Q_0 applied to the unit word.  A morphism
acts on a word through the block that holds its first letter:

    F(g_1 v ... v g_n) = sum over k, sigma in Sh(k-1, n-k) on g_2..g_n of
        eps(sigma) F_k(g_1 v left block) v F(right block)

so each set partition of the word is visited once, with no 1/p!, and a
strict map takes one split per word.  Both actions land in the
weight-truncated coalgebra.  Both are linear, so each table applies itself
to a word once: it keeps the image of the word with coefficient 1, and an
apply sums coeff * image over the words of its input; F(right block) is
the table's own kept image of a shorter word.  Where only the arity-one
part of an image is wanted (a component of a composite or a conjugate), it
is read by corestriction: one component lookup per word of the input, with
no image built.

Construction validates shape only: degree +1 (shifted) and filtration
compatibility for structures, degree 0 for morphisms, matching truncation
orders.  Whether Q squares to zero or F intertwines coderivations is checked
separately, so ill-formed examples can be built and probed.

Components at arities beyond a materialization cap are not representable;
derived objects (composites, inverses, conjugates) are materialized up to an
explicit cap that callers must choose at least as large as any arity they
later inspect.  default_cap is the one rule for a cap the caller leaves open,
in materialization and checks alike: it covers the verification arity, the
arities of the maps involved and every word that survives truncation when
all generators sit in positive filtration.
"""

from .graded import (
    ComponentTable,
    InputError,
    MathCheckError,
    ONE,
    ZERO,
    _accumulate,
    co_canon,
    co_from_element,
    co_linear_part,
    el_add,
    el_scale,
    el_sub,
    exact_element,
    koszul_sign,
    multi_shuffles,
    shuffle_splits,
    sym_mul,
)
from .homology import (
    induced_maps,
    is_isomorphism,
    linear_blocks,
    operator_complex,
    solve,
)

VERIFY_ARITY = 4


def default_cap(space, *arities, max_arity=None):
    """The caller's cap when given, else max(VERIFY_ARITY, N-1, *arities)."""
    if max_arity is not None:
        return max_arity
    return max(VERIFY_ARITY, space.nilpotency_order - 1, *arities)


class LInftyStructure(ComponentTable):
    """Taylor components of a degree +1 coderivation on one graded space."""

    def __init__(self, space, components, label=""):
        self.space = space
        self.label = label
        self._set_components(space, space, components, 1)

    def curvature(self):
        """Q_0 applied to the unit word."""
        return self.component(0, ())

    def is_flat(self):
        return not self.curvature()

    def _ends(self):
        return (self.space.generators, self.space.nilpotency_order)


def spaces_equal(a, b):
    return (a.generators == b.generators
            and a.nilpotency_order == b.nilpotency_order)


def _coderivation_image(structure, word):
    """Q(word): Q_k on the left block of every shuffle split."""
    space = structure.space
    out = {}
    sizes = [k for k in range(min(len(word), structure.max_arity) + 1)
             if k == 0 or k in structure.components]
    for eps, left, right, _ in shuffle_splits(space, word, sizes):
        for produced, q in structure.value(left).items():
            norm = space.normalize_word([produced] + right)
            if norm is not None:
                _accumulate(out, norm[0], eps * q * norm[1])
    return co_canon(space, out)


def coderivation_apply(structure, coelt):
    """Apply the full coderivation to a coalgebra element."""
    return structure._apply(coelt, _coderivation_image)


def check_square_zero(structure, max_arity=None):
    """Q o Q = 0 on every surviving word up to the cap; witness on failure."""
    space = structure.space
    for word in space.enumerate_words(default_cap(space, max_arity=max_arity)):
        once = coderivation_apply(structure, {word: ONE})
        twice = coderivation_apply(structure, once)
        if twice:
            raise MathCheckError(
                f"coderivation does not square to zero: residual {twice} on word {word}")
    return True


def from_curved_lie(generators, nilpotency_order, curvature, differential,
                    bracket, label=""):
    """Structure of a curved Lie algebra given in unshifted degrees.

    generators: (name, unshifted degree, filtration level) triples.
    curvature: element of unshifted degree 2.  differential: generator ->
    element, unshifted degree +1.  bracket: (g, h) -> element; pairs absent
    in both orders are zero, pairs given in both orders must agree with
    antisymmetry [g,h] = -(-1)^{|g||h|}[h,g] in unshifted degrees.

    Components on the shifted space: Q_0(1) = -R, Q_1 = -d, and on a word
    g v h the quadratic part is -(-1)^{|g|}[g,h] with |g| unshifted.
    """
    from .graded import GradedSpace

    shifted = [(name, deg - 1, filt) for name, deg, filt in generators]
    space = GradedSpace(shifted, nilpotency_order, label=label)
    unshifted_degree = {name: deg for name, deg, _ in generators}

    def checked_element(el, expected_deg, what):
        el = exact_element(el)
        for g in el:
            if g not in unshifted_degree:
                raise InputError(f"{what} mentions unknown generator {g!r}")
            if unshifted_degree[g] != expected_deg:
                raise InputError(
                    f"{what}: generator {g} has unshifted degree "
                    f"{unshifted_degree[g]}, expected {expected_deg}")
        return el

    comp0 = {}
    curvature = checked_element(curvature, 2, "curvature")
    if curvature:
        comp0[()] = el_scale(curvature, -1)

    comp1 = {}
    for g, image in differential.items():
        if g not in unshifted_degree:
            raise InputError(f"differential defined on unknown generator {g!r}")
        image = checked_element(image, unshifted_degree[g] + 1, f"d({g})")
        if image:
            comp1[(g,)] = el_scale(image, -1)

    # collect the bracket on unordered pairs, enforcing antisymmetry
    table = {}
    for (g, h), value in bracket.items():
        if g not in unshifted_degree or h not in unshifted_degree:
            raise InputError(f"bracket on unknown pair ({g!r}, {h!r})")
        value = checked_element(
            value, unshifted_degree[g] + unshifted_degree[h], f"[{g},{h}]")
        key = (g, h)
        flip_sign = 1 if unshifted_degree[g] * unshifted_degree[h] % 2 else -1
        if key in table and table[key] != value:
            raise InputError(f"bracket given twice on ({g}, {h}) with different values")
        table[key] = value
        flipped = el_scale(value, flip_sign)
        rkey = (h, g)
        if rkey in bracket:
            other = exact_element(bracket[rkey])
            if other != flipped:
                raise InputError(f"bracket on ({g},{h}) and ({h},{g}) breaks antisymmetry")
        table.setdefault(rkey, flipped)

    comp2 = {}
    for word in space.enumerate_words(2, min_arity=2):
        g, h = word
        value = table.get((g, h), {})
        if not value:
            continue
        signed = el_scale(value, 1 if unshifted_degree[g] % 2 else -1)
        if signed:
            comp2[word] = signed
    # a repeated generator word (g, g) needs [g, g]; consistency with the
    # flip rule is automatic only for distinct pairs, so check separately
    for (g, h), value in table.items():
        if g == h and value:
            if unshifted_degree[g] % 2 == 0:
                raise InputError(f"[{g},{g}] must vanish for even {g}")

    return LInftyStructure(space, {0: comp0, 1: comp1, 2: comp2}, label=label)


class LInftyMorphism(ComponentTable):
    """Taylor components of a coalgebra morphism between two structures."""

    def __init__(self, source, target, components, label=""):
        if source.space.nilpotency_order != target.space.nilpotency_order:
            raise InputError("morphism endpoints must share one truncation order")
        self.source = source
        self.target = target
        self.label = label
        self._set_components(source.space, target.space, components, 0)
        if 0 in self.components:
            raise InputError("morphism components start at arity 1")

    def is_strict(self):
        return self.max_arity <= 1

    def _ends(self):
        src, tgt = self.source.space, self.target.space
        return (src.generators, src.nilpotency_order,
                tgt.generators, tgt.nilpotency_order)


def _morphism_image(morphism, word):
    """F(word): F on each block holding the first letter, times F(rest)."""
    src = morphism.source.space
    tgt = morphism.target.space
    n = len(word)
    if n == 0:
        return {(): ONE}
    out = {}
    degrees = [src.degree(g) for g in word]
    for k in range(1, min(n, morphism.max_arity) + 1):
        for tail in multi_shuffles((k - 1, n - k)):
            sigma = (0, *(i + 1 for i in tail))
            value = morphism.value([word[i] for i in sigma[:k]])
            if not value:
                continue
            rest = morphism._image(tuple(word[i] for i in sigma[k:]),
                                   _morphism_image)
            eps = koszul_sign(sigma, degrees)
            for oword, q in sym_mul(tgt, co_from_element(value), rest).items():
                _accumulate(out, oword, eps * q)
    return out


def morphism_apply(morphism, coelt):
    """Apply the induced coalgebra morphism to a coalgebra element."""
    return morphism._apply(coelt, _morphism_image)


def check_morphism(morphism, max_arity=None):
    """F Q = Q F on every surviving word up to the cap; witness on failure."""
    space = morphism.source.space
    for word in space.enumerate_words(default_cap(space, max_arity=max_arity)):
        lhs = morphism_apply(morphism, coderivation_apply(morphism.source, {word: ONE}))
        rhs = coderivation_apply(morphism.target, morphism_apply(morphism, {word: ONE}))
        if lhs != rhs:
            diff = el_sub(lhs, rhs)
            raise MathCheckError(
                f"morphism does not intertwine coderivations: residual {diff} on word {word}")
    return True


def strict_morphism(source, target, mapping, label=""):
    """Morphism with only an arity-1 component, given generator by generator."""
    comp1 = {(g,): dict(image) for g, image in mapping.items() if image}
    return LInftyMorphism(source, target, {1: comp1}, label=label)


def identity_morphism(structure):
    return strict_morphism(structure, structure,
                           {g: {g: ONE} for g in structure.space.basis})


def compose(outer, inner, max_arity=None):
    """Composite morphism outer o inner, materialized up to max_arity.

    Endpoint spaces must agree; whether the middle structures agree is the
    caller's business (identity tests compare derived structures on purpose).
    Components beyond the cap are dropped, so pick the cap at least as large
    as any arity later inspected; the default covers verification arity and,
    for positively filtered spaces, every surviving word.
    """
    if not spaces_equal(inner.target.space, outer.source.space):
        raise InputError("composition endpoints do not match")
    cap = default_cap(inner.source.space, inner.max_arity, outer.max_arity,
                      max_arity=max_arity)
    comps = {}
    for word in inner.source.space.enumerate_words(cap, min_arity=1):
        value = outer._corestrict(morphism_apply(inner, {word: ONE}))
        if value:
            comps.setdefault(len(word), {})[word] = value
    return LInftyMorphism(inner.source, outer.target, comps)


def _strict_blocks(morphism):
    """Per-degree matrices of the arity-1 component, plus basis bookkeeping."""
    return linear_blocks(morphism.source.space, morphism.target.space,
                         lambda s: morphism.component(1, (s,)))


def invert(morphism, max_arity=None):
    """Inverse of a morphism whose arity-1 part is bijective.

    Strategy: E := inverse of the strict part, solved degree by degree.  A
    strict map is inverted by E alone.  Otherwise K := E o F is tangent to the
    identity and differs from it by a strictly arity-lowering map, so its
    inverse is the Neumann series, which ends within the word's arity;
    components are read off by projecting to arity one.  Returns K^{-1} o E.
    """
    src = morphism.source
    tgt = morphism.target
    inverse_map = {}
    for deg, (block, s_names, t_names) in _strict_blocks(morphism).items():
        if len(s_names) != len(t_names) or not is_isomorphism(block):
            raise MathCheckError(
                f"strict part is not invertible in degree {deg}")
        for j, t in enumerate(t_names):
            unit = [ONE if i == j else ZERO for i in range(len(t_names))]
            coords = solve(block, unit)
            inverse_map[t] = {s: coords[i] for i, s in enumerate(s_names) if coords[i]}
    strict_inverse = strict_morphism(tgt, src, inverse_map)

    cap = default_cap(src.space, morphism.max_arity, max_arity=max_arity)
    if morphism.is_strict() and cap >= 1:
        return strict_inverse
    tangent = compose(strict_inverse, morphism, max_arity=cap)

    comps = {}
    for word in src.space.enumerate_words(cap, min_arity=1):
        # Neumann series for (id + nu)^{-1} applied to the word; nu lowers
        # arity, so the term vanishes after at most len(word) steps
        total = {}
        term = {word: ONE}
        sign = 1
        for _ in range(len(word) + 1):
            if not term:
                break
            total = el_add(total, term) if sign > 0 else el_sub(total, term)
            term = el_sub(morphism_apply(tangent, term), term)
            sign = -sign
        if term:
            raise MathCheckError(
                f"Neumann series of the tangent map does not end on word {word}")
        value = co_linear_part(total)
        if value:
            comps.setdefault(len(word), {})[word] = value
    tangent_inverse = LInftyMorphism(src, src, comps)
    return compose(tangent_inverse, strict_inverse, max_arity=cap)


def conjugate(structure, components, max_arity=None):
    """Transport a structure along a coalgebra isomorphism: Phi Q Phi^{-1}.

    components describe any coalgebra automorphism of the structure's space
    (raw morphism tables; the target structure cannot be wired in
    advance because conjugation is what computes it).  Returns the unique
    structure making the map an isomorphism of structures, together with
    that map, properly wired and ready for check_morphism.
    """
    space = structure.space
    placeholder = LInftyStructure(space, {})
    phi = LInftyMorphism(structure, placeholder, components)
    cap = default_cap(space, phi.max_arity, max_arity=max_arity)
    inverse = invert(phi, max_arity=cap)
    comps = {}
    for word in space.enumerate_words(cap):
        pulled = morphism_apply(inverse, {word: ONE})
        derived = coderivation_apply(structure, pulled)
        value = phi._corestrict(derived)
        if value:
            comps.setdefault(len(word), {})[word] = value
    transported = LInftyStructure(space, comps)
    return transported, LInftyMorphism(structure, transported, components)


def chain_complex(structure):
    """Underlying complex (shifted degrees) of a flat structure."""
    if not structure.is_flat():
        raise MathCheckError(
            "curved structure has no underlying complex: curvature is nonzero")
    return operator_complex(structure.space,
                            lambda s: structure.component(1, (s,)))


def is_quasi_iso(morphism):
    """Strict-part map on cohomology is an isomorphism in every degree.

    Both endpoint structures must be flat.  The arity-1 component is checked
    to be a chain map as part of the computation.
    """
    src_cx = chain_complex(morphism.source)
    tgt_cx = chain_complex(morphism.target)
    blocks = {deg: block for deg, (block, _, _) in _strict_blocks(morphism).items()}
    mats = induced_maps(src_cx, tgt_cx, blocks)
    return all(is_isomorphism(m) for m in mats.values())
