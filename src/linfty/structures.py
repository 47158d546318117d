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
all generators sit in positive filtration.  ComponentTable._sweep is the
one place that chooses the keys a sweep visits: the table's words, or
its surviving tensors, up to min(cap, bound), where the bound is derived
from the max_arity of the tables involved: beyond it a construction's
components vanish, and so does the arity-one part of a check's residual.

A check's residual R is a coderivation (Q o Q), a coderivation along F
(F Q - Q' F), or a comodule map (phi o phi over a base with Q o Q = 0, and
f phi - phi' f): R(w) is a signed sum of terms each carrying pr1 R(u) for a
subword u of w.  Each check is one sweep: it reads pr1 R by corestriction
on words up to min(cap, bound), the first word where that is nonzero is
the witness, and R is computed in full on that word alone, for the error
text.  It is the first word up to the cap with R != 0.  Sweeps run by
arity first; let w be such a word of least arity a.  Some subword u of w
has pr1 R(u) != 0, so R(u) != 0, and minimality forces u = w.  So at arity
a the words with R != 0 and with pr1 R != 0 are the same, in the same
order, and a <= min(cap, bound) since pr1 R vanishes above the bound.
A sweep builds only what it reads: the splits of an image that land at
the reading table's arities (the square-zero sweep's Q(w), unkept), or one
component (a strict map's pr1 Q(w) = Q_|w|(w)).
Over a base that fails its own sweep phi o phi is no comodule map, so
check_module_square_zero keeps its full loop there.
"""

from .graded import (
    ComponentTable,
    GradedSpace,
    InputError,
    MathCheckError,
    ONE,
    _add_scaled,
    _add_word,
    _check_arity,
    _dict_of,
    _fraction_repr,
    _instance_of,
    _triples,
    co_from_element,
    co_linear_part,
    el_scale,
    el_sub,
    exact_element,
)
from .homology import (
    Matrix,
    induced_maps,
    is_isomorphism,
    linear_blocks,
    operator_complex,
    solve_columns,
)

VERIFY_ARITY = 4


def default_cap(space, *arities, max_arity=None):
    """The caller's cap when given, else max(VERIFY_ARITY, N-1, *arities)."""
    if max_arity is not None:
        return _check_arity(max_arity)
    return max(VERIFY_ARITY, space.nilpotency_order - 1, *arities)


class LInftyStructure(ComponentTable):
    """Taylor components of a degree +1 coderivation on one graded space."""

    def __init__(self, space, components):
        self._wire(_instance_of(space, GradedSpace, "structure space"))
        self._set_components(space, space, components, 1)

    def _wire(self, space):
        self.space = self.word_space = space
        self.key_space = None

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


def _coderivation_image(structure, word, least=0):
    """Q(word): Q_k on the left block of each shuffle split of a canonical
    word, for k >= least; a split's terms land at arity |word| - k + 1."""
    space = structure.space
    cap = space.nilpotency_order
    filtration = space._filtration
    components = structure.components
    sizes = tuple([k for k in range(least, min(len(word), structure.max_arity) + 1)
                   if k == 0 or k in components])
    out = {}
    for eps, left, right, _ in space._split_plan(word, sizes):
        value = components.get(len(left), {}).get(tuple([word[i] for i in left]))
        if not value:
            continue
        rest = tuple([word[i] for i in right])
        rest_weight = sum([filtration[g] for g in rest])
        for produced, q in value.items():
            if filtration[produced] + rest_weight < cap:
                _add_word(out, space, (produced,) + rest, eps * q)
    return out


def coderivation_apply(structure, coelt):
    """Apply the full coderivation to a coalgebra element."""
    return structure._apply(coelt, _coderivation_image)


def _square_zero_failure(structure, cap):
    """The first word up to min(cap, 2 m_Q - 1) with pr1 Q(Q(w)) != 0, or None.

    pr1 Q_b(Q_a(w)) needs a, b <= m_Q and |w| = a + b - 1, so it reads
    only the splits of Q(w) with a >= |w| + 1 - m_Q, whose terms land at
    arity <= m_Q: only those are built, and they are not kept.
    """
    m_q = structure.max_arity
    return next(
        (word for word in structure._sweep(cap, 2 * m_q - 1)
         if structure._corestrict(_coderivation_image(
             structure, word, max(0, len(word) + 1 - m_q)))),
        None)


def check_square_zero(structure, max_arity=None):
    """Q o Q = 0 on every surviving word up to the cap; witness on failure.

    Q o Q is a coderivation, so its arity-one part decides; that part
    vanishes on words above 2 m_Q - 1, the bound of the sweep.  A pass is
    kept per cap; a failure raises every time.
    """
    cap = default_cap(structure.space, max_arity=max_arity)
    return structure._kept(("square_zero", cap),
                           lambda: _check_square_zero(structure, cap))


def _check_square_zero(structure, cap):
    word = _square_zero_failure(structure, cap)
    if word is None:
        return True
    twice = coderivation_apply(
        structure, coderivation_apply(structure, {word: ONE}))
    raise MathCheckError(
        "coderivation does not square to zero: residual "
        f"{_fraction_repr(twice)} on word {word}")


def from_curved_lie(generators, nilpotency_order, curvature, differential,
                    bracket):
    """Structure of a curved Lie algebra given in unshifted degrees.

    generators: (name, unshifted degree, filtration level) triples.
    curvature: element of unshifted degree 2.  differential: generator ->
    element, unshifted degree +1.  bracket: (g, h) -> element; pairs absent
    in both orders are zero, pairs given in both orders must agree with
    antisymmetry [g,h] = -(-1)^{|g||h|}[h,g] in unshifted degrees.

    Components on the shifted space: Q_0(1) = -R, Q_1 = -d, and on a word
    g v h the quadratic part is -(-1)^{|g|}[g,h] with |g| unshifted.
    """
    generators = _triples(generators)
    shifted = [(name, deg - 1, filt) for name, deg, filt in generators]
    space = GradedSpace(shifted, nilpotency_order)
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
    for g, image in _dict_of(differential, "differential").items():
        if g not in unshifted_degree:
            raise InputError(f"differential defined on unknown generator {g!r}")
        image = checked_element(image, unshifted_degree[g] + 1, f"d({g})")
        if image:
            comp1[(g,)] = el_scale(image, -1)

    # collect the bracket on unordered pairs, enforcing antisymmetry
    table = {}
    for (g, h), value in _dict_of(bracket, "bracket").items():
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

    return LInftyStructure(space, {0: comp0, 1: comp1, 2: comp2})


class LInftyMorphism(ComponentTable):
    """Taylor components of a coalgebra morphism between two structures."""

    def __init__(self, source, target, components):
        self._wire(_instance_of(source, LInftyStructure, "morphism source"),
                   _instance_of(target, LInftyStructure, "morphism target"))
        self._set_components(source.space, target.space, components, 0)
        if 0 in self.components:
            raise InputError("morphism components start at arity 1")

    def _wire(self, source, target):
        if source.space.nilpotency_order != target.space.nilpotency_order:
            raise InputError("morphism endpoints must share one truncation order")
        self.source = source
        self.target = target
        self.word_space = source.space
        self.key_space = None

    def is_strict(self):
        return self.max_arity <= 1

    def _ends(self):
        src, tgt = self.source.space, self.target.space
        return (src.generators, src.nilpotency_order,
                tgt.generators, tgt.nilpotency_order)


def _morphism_image(morphism, word):
    """F(word): F on each block holding the first letter, times F(rest).

    The blocks are read off the space's plan of the (k-1, n-k)-splits of
    the word's tail: the first letter stays in front, so the sign of a
    split of the tail is the sign of the shuffle of the word.
    """
    n = len(word)
    if n == 0:
        return {(): ONE}
    src, tgt = morphism.source.space, morphism.target.space
    cap = tgt.nilpotency_order
    filtration, weight = tgt._filtration, tgt.word_weight
    first, tail = word[:1], word[1:]
    out = {}
    for k in range(1, min(n, morphism.max_arity) + 1):
        row = morphism.components.get(k)
        if not row:
            continue
        for eps, left, right, _ in src._split_plan(tail, (k - 1,)):
            value = row.get(first + tuple([tail[i] for i in left]))
            if not value:
                continue
            rest = morphism._image(tuple([tail[i] for i in right]),
                                   _morphism_image)
            # F_k(block) v F(rest) is summed on its own, then scaled by eps
            # into out: adding its terms to out one by one would drop and
            # re-insert keys whose partial sums cancel, and so change the
            # order in which error texts print residuals
            product = {}
            for produced, q in value.items():
                weight_p = filtration[produced]
                for oword, r in rest.items():
                    if weight_p + weight(oword) < cap:
                        _add_word(product, tgt, (produced,) + oword, q * r)
            _add_scaled(out, product, eps)
    return out


def morphism_apply(morphism, coelt):
    """Apply the induced coalgebra morphism to a coalgebra element."""
    return morphism._apply(coelt, _morphism_image)


def check_morphism(morphism, max_arity=None):
    """F Q = Q' F on every surviving word up to the cap; witness on failure.

    F Q - Q' F is a coderivation along F, so its arity-one part decides.
    pr1 F(Q w) reads F on words of arity |w| - a + 1 <= m_F, and
    pr1 Q'(F w) reads Q' on words of arity >= |w| / m_F; so the sweep
    stops at max(m_F + m_Q - 1, m_Q' m_F).  A strict F reads pr1 Q(w) =
    Q_|w|(w), one lookup, and builds Q(w) on a failing word alone, for the
    witness.  A pass is kept per cap; a failure raises every time.
    """
    cap = default_cap(morphism.source.space, max_arity=max_arity)
    return morphism._kept(("morphism", cap),
                          lambda: _check_morphism(morphism, cap))


def _check_morphism(morphism, cap):
    source, target = morphism.source, morphism.target
    m_f = morphism.max_arity
    bound = max(m_f + source.max_arity - 1, target.max_arity * m_f)
    for word in morphism._sweep(cap, bound):
        start = {word: ONE}
        image = (co_from_element(source._corestrict(start)) if m_f <= 1
                 else coderivation_apply(source, start))
        pushed = morphism_apply(morphism, start)
        if morphism._corestrict(image) != target._corestrict(pushed):
            diff = el_sub(
                morphism_apply(morphism, coderivation_apply(source, start)),
                coderivation_apply(target, pushed))
            raise MathCheckError(
                "morphism does not intertwine coderivations: residual "
                f"{_fraction_repr(diff)} on word {word}")
    return True


def strict_morphism(source, target, mapping):
    """Morphism with only an arity-1 component, given generator by generator."""
    comp1 = {(g,): dict(image)
             for g, image in _dict_of(mapping, "mapping").items() if image}
    return LInftyMorphism(source, target, {1: comp1})


def identity_morphism(structure):
    return strict_morphism(structure, structure,
                           {g: {g: ONE} for g in structure.space.basis})


def compose(outer, inner, max_arity=None):
    """Composite morphism outer o inner, materialized up to max_arity.

    Endpoint spaces must agree; whether the middle structures agree is the
    caller's business (identity tests compare derived structures on purpose).
    Components beyond the cap are dropped, so pick the cap at least as large
    as any arity later inspected; the default covers verification arity and,
    for positively filtered spaces, every surviving word.  The sweep stops
    at m_outer m_inner: inner(w) has arity at least |w| / m_inner, and
    outer's corestriction reads arities up to m_outer.
    """
    if not spaces_equal(inner.target.space, outer.source.space):
        raise InputError("composition endpoints do not match")
    cap = default_cap(inner.source.space, inner.max_arity, outer.max_arity,
                      max_arity=max_arity)
    comps = {}
    for word in inner._sweep(cap, outer.max_arity * inner.max_arity, 1):
        value = outer._corestrict(morphism_apply(inner, {word: ONE}))
        if value:
            comps.setdefault(len(word), {})[word] = value
    return LInftyMorphism._made(inner.source, outer.target, comps)


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
    components are read off by projecting to arity one.  Returns K^{-1} o E,
    kept per cap.
    """
    cap = default_cap(morphism.source.space, morphism.max_arity,
                      max_arity=max_arity)
    return morphism._kept(("inverse", cap), lambda: _invert(morphism, cap))


def _invert(morphism, cap):
    src = morphism.source
    tgt = morphism.target
    inverse_map = {}
    for deg, (block, s_names, t_names) in _strict_blocks(morphism).items():
        # a square block is invertible exactly when B x = e_i solves for
        # every unit column: a singular one puts a pivot of [B | I] past B
        columns = None
        if len(s_names) == len(t_names):
            columns = solve_columns(block, Matrix.identity(len(t_names)).rows)
        if columns is None:
            raise MathCheckError(
                f"strict part is not invertible in degree {deg}")
        for t, coords in zip(t_names, columns):
            inverse_map[(t,)] = {s: coords[i] for i, s in enumerate(s_names)
                                 if coords[i]}
    strict_inverse = LInftyMorphism._made(tgt, src, {1: inverse_map})

    if morphism.is_strict() and cap >= 1:
        return strict_inverse
    tangent = compose(strict_inverse, morphism, max_arity=cap)

    comps = {}
    for word in morphism._sweep(cap, min_arity=1):
        # Neumann series for (id + nu)^{-1} applied to the word; nu lowers
        # arity, so the term vanishes after at most len(word) steps
        total = {}
        term = {word: ONE}
        sign = 1
        for _ in range(len(word) + 1):
            if not term:
                break
            _add_scaled(total, term, sign)
            image = morphism_apply(tangent, term)  # a fresh dict
            _add_scaled(image, term, -1)
            term = image
            sign = -sign
        if term:
            raise MathCheckError(
                f"Neumann series of the tangent map does not end on word {word}")
        value = co_linear_part(total)
        if value:
            comps.setdefault(len(word), {})[word] = value
    tangent_inverse = LInftyMorphism._made(src, src, comps)
    return compose(tangent_inverse, strict_inverse, max_arity=cap)


def conjugate(structure, components, max_arity=None):
    """Transport a structure along a coalgebra isomorphism: Phi Q Phi^{-1}.

    components describe any coalgebra automorphism of the structure's space
    (raw morphism tables; the target structure cannot be wired in
    advance because conjugation is what computes it).  Returns the unique
    structure making the map an isomorphism of structures, together with
    that map, properly wired and ready for check_morphism.  A strict map
    transports Q_k to arity k alone: its sweep stops at m_Q and reads Phi_1
    of the corestriction of Q.  The returned map keeps, at the cap, the
    inverse solved here: invert reads components, spaces and the cap, never
    a structure, so the inverse of the placeholder-wired map, rewired, is
    the inverse of the returned one.
    """
    space = structure.space
    placeholder = LInftyStructure(space, {})
    phi = LInftyMorphism(structure, placeholder, components)
    cap = default_cap(space, phi.max_arity, max_arity=max_arity)
    inverse = invert(phi, max_arity=cap)
    bound = structure.max_arity if phi.is_strict() else cap
    comps = {}
    for word in structure._sweep(cap, bound):
        pulled = morphism_apply(inverse, {word: ONE})
        value = phi._corestrict(
            co_from_element(structure._corestrict(pulled)) if phi.is_strict()
            else coderivation_apply(structure, pulled))
        if value:
            comps.setdefault(len(word), {})[word] = value
    transported = LInftyStructure._made(space, comps)
    morphism = LInftyMorphism._made(structure, transported, phi.components)
    morphism._kept(("inverse", cap), lambda: LInftyMorphism._made(
        transported, structure, inverse.components))
    return transported, morphism


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
