"""Graded substrate: exact scalars, graded bases, Koszul signs and symmetric words.

Conventions used by every other module:

* Scalars are exact rationals (fractions.Fraction).  No floats anywhere.
* All stored degrees are degrees in the shifted space L[1].  An element of
  unshifted degree d sits in shifted degree d - 1.  Constructors that accept
  unshifted data (curved Lie algebras, dg modules) do the shift themselves;
  nothing else ever converts.
* Every space declares a nilpotency order N as a stand-in for a complete
  filtration: filtration levels of generators lie in [0, N) and any product
  whose total filtration weight reaches N is treated as zero.  Words in the
  symmetric coalgebra are truncated by total weight when they are built as
  coalgebra elements; evaluation of a multilinear component on a heavy word
  needs no truncation because filtration compatibility already forces the
  value to vanish.
* The canonical form of a word sorts its factors by (degree, name) and
  absorbs the Koszul sign of the sort.  A word with a repeated odd factor is
  zero.  All maps are stored sparsely on canonical words, which makes graded
  symmetry automatic.
"""

from fractions import Fraction
import itertools


class LinftyError(Exception):
    """Base for all errors raised by this package."""


class InputError(LinftyError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class MathCheckError(LinftyError):
    """A mathematical validation failed (CLI exit code 1)."""


ZERO = Fraction(0)
ONE = Fraction(1)

# Characters reserved by the fixture format for word and tensor keys.
_FORBIDDEN_NAME_CHARS = set("|@ \t\n")


def parse_scalar(text):
    """Parse "p" or "p/q" into a Fraction.  Bare ints pass through."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise InputError(f"exact scalars required, got {type(text).__name__}")
    s = text.strip()
    try:
        if "/" in s:
            p, q = s.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar literal {text!r}") from exc


def format_scalar(q):
    """Canonical form: "p" when the denominator is 1, else "p/q"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def koszul_sign(perm, degrees):
    """Sign epsilon(sigma) for reordering graded factors.

    perm lists original positions (0-based) in output order, so the word
    g_0 v ... v g_{n-1} becomes g_{perm[0]} v ... v g_{perm[n-1]}.  degrees
    are the shifted degrees of g_0..g_{n-1} indexed by original position.
    Each inverted pair of odd factors contributes -1.
    """
    n = len(perm)
    if len(degrees) != n or sorted(perm) != list(range(n)):
        raise InputError(f"malformed permutation {perm!r}")
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j] and degrees[perm[i]] % 2 and degrees[perm[j]] % 2:
                sign = -sign
    return sign


def shuffles(k, l):
    """All (k,l)-shuffles of {0..k+l-1} in lexicographic order.

    A shuffle is returned as a tuple s with s[:k] and s[k:] both increasing;
    s lists original positions in output order, matching koszul_sign.
    Sh(n,0) = Sh(0,n) = {identity}.
    """
    if k < 0 or l < 0:
        raise InputError("shuffle block sizes must be nonnegative")
    n = k + l
    out = []
    for left in itertools.combinations(range(n), k):
        leftset = set(left)
        right = tuple(i for i in range(n) if i not in leftset)
        out.append(left + right)
    return out


def multi_shuffles(block_sizes):
    """All (k_1,...,k_p)-shuffles: permutations increasing on each block."""
    total = sum(block_sizes)
    results = [()]
    remaining = [tuple(range(total))]
    for size in block_sizes:
        new_results = []
        new_remaining = []
        for prefix, rest in zip(results, remaining):
            for pick in itertools.combinations(rest, size):
                pickset = set(pick)
                new_results.append(prefix + pick)
                new_remaining.append(tuple(i for i in rest if i not in pickset))
        results = new_results
        remaining = new_remaining
    return results


def shuffle_splits(space, word, sizes):
    """Split a word along every (k, n-k)-shuffle with k in sizes.

    Yields (eps, left, right, left_odd): the Koszul sign of the shuffle, the
    left block of k generator names and the right block of the rest, and
    whether the left block has odd total degree.  Callers choose their own
    sign policy from these.
    """
    degrees = [space.degree(g) for g in word]
    n = len(word)
    for k in sizes:
        for sigma in shuffles(k, n - k):
            left = sigma[:k]
            yield (koszul_sign(sigma, degrees),
                   [word[i] for i in left],
                   [word[i] for i in sigma[k:]],
                   sum(degrees[i] for i in left) % 2)


class GradedSpace:
    """Finite ordered basis with shifted degrees and filtration levels.

    The basis is sorted into canonical (degree, name) order on construction.
    nilpotency_order N declares the truncation: generator levels are < N and
    total filtration weight >= N counts as zero.
    """

    def __init__(self, generators, nilpotency_order, label=""):
        if nilpotency_order < 1:
            raise InputError("nilpotency order must be a positive integer")
        gens = []
        for name, degree, filt in generators:
            if not isinstance(name, str) or not name:
                raise InputError(f"generator name must be a nonempty string, got {name!r}")
            if _FORBIDDEN_NAME_CHARS & set(name):
                raise InputError(f"generator name {name!r} uses a reserved character")
            if not isinstance(degree, int) or isinstance(degree, bool):
                raise InputError(f"generator {name}: degree must be an integer")
            if not isinstance(filt, int) or filt < 0 or filt >= nilpotency_order:
                raise InputError(
                    f"generator {name}: filtration level must lie in [0, {nilpotency_order})")
            gens.append((name, degree, filt))
        gens.sort(key=lambda g: (g[1], g[0]))
        names = [g[0] for g in gens]
        if len(set(names)) != len(names):
            raise InputError("generator names must be unique")
        self.label = label
        self.generators = tuple(gens)
        self.nilpotency_order = nilpotency_order
        self._degree = {g[0]: g[1] for g in gens}
        self._filtration = {g[0]: g[2] for g in gens}
        self._index = {g[0]: i for i, g in enumerate(gens)}

    @property
    def basis(self):
        return tuple(g[0] for g in self.generators)

    def __contains__(self, name):
        return name in self._degree

    def degree(self, name):
        try:
            return self._degree[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None

    def filtration(self, name):
        try:
            return self._filtration[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None

    def degrees_by_degree(self):
        """Map shifted degree -> tuple of generator names, in basis order."""
        out = {}
        for name, degree, _ in self.generators:
            out.setdefault(degree, []).append(name)
        return {d: tuple(v) for d, v in out.items()}

    # -- words ------------------------------------------------------------

    def normalize_word(self, factors):
        """Canonical (word, sign) for a list of generator names, or None if zero.

        The Koszul sign of sorting into (degree, name) order is returned
        separately; a repeated odd generator makes the word zero.
        """
        for f in factors:
            if f not in self._degree:
                raise InputError(f"unknown generator {f!r} in word")
        n = len(factors)
        sign = 1
        for i in range(n):
            di = self._degree[factors[i]]
            for j in range(i + 1, n):
                if self._index[factors[i]] > self._index[factors[j]]:
                    if di % 2 and self._degree[factors[j]] % 2:
                        sign = -sign
        word = tuple(sorted(factors, key=self._index.__getitem__))
        for a, b in zip(word, word[1:]):
            if a == b and self._degree[a] % 2:
                return None
        return word, sign

    def word_degree(self, word):
        return sum(self._degree[f] for f in word)

    def word_weight(self, word):
        return sum(self._filtration[f] for f in word)

    def enumerate_words(self, max_arity, min_arity=0):
        """All canonical nonzero words with arity in [min_arity, max_arity].

        Words whose total filtration weight reaches the nilpotency order are
        zero and are skipped.  Deterministic order: by arity, then
        lexicographically in basis indices.  A negative max_arity is an
        input error, not an empty sweep that would pass every check.
        """
        if max_arity < 0:
            raise InputError(f"max_arity must be nonnegative, got {max_arity}")
        names = self.basis
        for arity in range(min_arity, max_arity + 1):
            for combo in itertools.combinations_with_replacement(names, arity):
                if any(a == b and self._degree[a] % 2
                       for a, b in zip(combo, combo[1:])):
                    continue
                if self.word_weight(combo) >= self.nilpotency_order:
                    continue
                yield combo


# -- sparse vectors ---------------------------------------------------------
#
# Elements (generator -> Fraction), coalgebra elements (canonical word ->
# Fraction) and module tensors ((word, generator) -> Fraction) are plain
# dicts without zero entries; they share one add, one scale and one
# accumulator.

def _accumulate(out, key, q):
    """Add q at key in place, dropping the key when the sum vanishes.

    Called once per term inside the apply and twist loops of every layer.
    It is private because perfbench's tracer wraps public functions, and
    a span per term would cost more than the term.
    """
    s = out.get(key, ZERO) + q
    if s:
        out[key] = s
    else:
        out.pop(key, None)

def el_add(a, b):
    out = dict(a)
    for key, q in b.items():
        _accumulate(out, key, q)
    return out

def el_sub(a, b):
    return el_add(a, el_scale(b, -1))

def el_scale(a, q):
    q = parse_scalar(q)
    if not q:
        return {}
    return {key: c * q for key, c in a.items()}

def exact_element(element):
    """Element with exact coefficients and no zero terms.

    Every coefficient goes through parse_scalar, so floats and bools are
    rejected at the library boundary as they are in fixture files.
    """
    out = {}
    for g, q in element.items():
        q = parse_scalar(q)
        if q:
            out[g] = q
    return out

def element_degree(space, el):
    """Common shifted degree of a homogeneous element, None for zero."""
    degs = {space.degree(g) for g in el}
    if not degs:
        return None
    if len(degs) > 1:
        raise InputError(f"element is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()

def filtration_weight(space, el):
    """Minimum filtration level over the support; N for the zero element."""
    if not el:
        return space.nilpotency_order
    return min(space.filtration(g) for g in el)


# -- coalgebra elements (dicts canonical word -> Fraction) ------------------

def co_canon(space, terms):
    """Drop zero coefficients and words of filtration weight >= N."""
    cap = space.nilpotency_order
    return {w: q for w, q in terms.items() if q and space.word_weight(w) < cap}

def co_from_element(el):
    """View an element of L as a sum of arity-1 words."""
    return {(g,): q for g, q in el.items()}

def co_linear_part(coelt):
    """Arity-1 part of a coalgebra element, viewed as an element of L."""
    return {w[0]: q for w, q in coelt.items() if len(w) == 1}


def expand_factors(space, factors):
    """Multilinear expansion of a formal product of elements into words.

    factors is a list of elements (dicts).  Returns dict word -> Fraction
    with canonical words and Koszul signs folded in.  No weight truncation:
    heavy words are left for filtration compatibility to annihilate.
    Morphism images no longer use it (they multiply by sym_mul); it stays
    for perfbench, whose graded.expand_factors.* metrics read it.
    """
    out = {}
    for combo in itertools.product(*[list(el.items()) for el in factors]):
        names = [g for g, _ in combo]
        coeff = ONE
        for _, q in combo:
            coeff *= q
        norm = space.normalize_word(names)
        if norm is not None:
            _accumulate(out, norm[0], coeff * norm[1])
    return out


def sym_mul(space, a, b):
    """Symmetric product of two coalgebra elements, weight-truncated."""
    cap = space.nilpotency_order
    out = {}
    for wa, qa in a.items():
        weight_a = space.word_weight(wa)
        for wb, qb in b.items():
            if weight_a + space.word_weight(wb) >= cap:
                continue
            norm = space.normalize_word(list(wa) + list(wb))
            if norm is not None:
                _accumulate(out, norm[0], qa * qb * norm[1])
    return out


# -- component tables -------------------------------------------------------

# Error texts of ComponentTable._set_components, for word keys and for (word, generator)
# tensor keys: bad arity, the value's place, lowered filtration, vanishing key.
_MESSAGES = {
    False: ("component arities must be nonnegative",
            "value of arity-{arity} component on {word}",
            "component on {word} lowers filtration weight",
            "nonzero component on {word}, a word of vanishing weight"),
    True: ("module component arities must be nonnegative",
           "module component on {word} tensor {mgen}",
           "module component on {word} tensor {mgen} lowers filtration",
           "nonzero module component on a vanishing tensor {word} tensor {mgen}"),
}


class ComponentTable:
    """Sparse multilinear components: arity -> {key: element}.

    A key is a canonical word over word_space, or a (word, generator)
    tensor when key_space holds the generators.  Subclasses say through
    _ends() what else must agree for two tables to be equal; tables compare
    by value and are therefore unhashable.

    Tables are immutable after construction: nothing edits their components
    or rewires their endpoints.  The applies memoize on that.  Each table
    keeps the image of every key it has been applied to, with coefficient
    1, and so applies itself to a word once.  The memo sits in a slot, not
    in vars(table), and is never part of the table's value.
    """

    __slots__ = ("_images",)
    __hash__ = None

    def _image(self, key, compute):
        """compute(self, key), the image of key with coefficient 1, kept.

        The stored image is shared by every later apply; no caller mutates it.
        """
        image = self._images.get(key)
        if image is None:
            image = self._images[key] = compute(self, key)
        return image

    def _apply(self, elt, compute):
        """Sum of coeff * image over the keys of elt, in a fresh dict."""
        out = {}
        for key, coeff in elt.items():
            if not coeff:
                continue
            image = self._image(key, compute)
            if not out and coeff == 1:  # the common {word: ONE} call
                out.update(image)
                continue
            for okey, q in image.items():
                _accumulate(out, okey, coeff * q)
        return out

    def _corestrict(self, elt):
        """Arity-one part of an apply: sum of coeff * C_{|w|}(u) over keys u.

        u is a canonical word w, or a tensor (w, m) read at the unit-word
        slot.  Exactly one split of u lands in arity one: the whole word as
        Q's left block, F's single block (p = 1), or an even module map's
        empty left block; so one component lookup per key replaces the full
        image.
        """
        tensor = self.key_space is not None
        out = {}
        for key, coeff in elt.items():
            word, mgen = key if tensor else (key, None)
            for g, q in self.component(len(word), word, mgen).items():
                _accumulate(out, g, coeff * q)
        return out

    def _set_components(self, word_space, value_space, components, degree,
                        key_space=None):
        """Normalize keys, fold signs, validate degrees and filtration.

        A value lives in value_space and has the key's degree plus `degree`
        (+1 for structures and modules, 0 for maps); its filtration is at
        least the key's weight, which stays below the truncation order.
        """
        tensor = key_space is not None
        bad_arity, place, lowers, vanishing = _MESSAGES[tensor]
        out = {}
        for arity, table in components.items():
            arity = int(arity)
            if arity < 0:
                raise InputError(bad_arity)
            canon = {}
            for key, element in table.items():
                word, mgen = key if tensor else (key, None)
                word = tuple(word)
                if len(word) != arity:
                    raise InputError(f"word {word} filed under arity {arity}")
                if tensor and mgen not in key_space:
                    raise InputError(f"unknown module generator {mgen!r}")
                norm = word_space.normalize_word(list(word))
                element = exact_element(element)
                if norm is None:
                    if element:
                        raise InputError(f"nonzero value on the zero word {word}")
                    continue
                cword, sign = norm
                if element:
                    value = canon.setdefault((cword, mgen) if tensor else cword, {})
                    for g, q in element.items():
                        _accumulate(value, g, q * sign)
            for key, value in list(canon.items()):
                if not value:
                    del canon[key]
                    continue
                cword, mgen = key if tensor else (key, None)
                want = word_space.word_degree(cword) + degree
                weight = word_space.word_weight(cword)
                if tensor:
                    want += key_space.degree(mgen)
                    weight += key_space.filtration(mgen)
                for g in value:
                    if value_space.degree(g) != want:
                        where = place.format(arity=arity, word=cword, mgen=mgen)
                        raise InputError(
                            f"{where} has degree {value_space.degree(g)} at {g}, "
                            f"expected {want}")
                if filtration_weight(value_space, value) < weight:
                    raise InputError(lowers.format(word=cword, mgen=mgen))
                if weight >= word_space.nilpotency_order:
                    raise InputError(vanishing.format(word=cword, mgen=mgen))
            if canon:
                out[arity] = canon
        self.word_space = word_space
        self.key_space = key_space
        self.components = out
        self.max_arity = max(out, default=0)
        self._images = {}

    def component(self, arity, word, mgen=None):
        """Value on a canonical word (tensor mgen); empty dict when absent."""
        key = tuple(word) if mgen is None else (tuple(word), mgen)
        return self.components.get(arity, {}).get(key, {})

    def value(self, factors, mgen=None):
        """Value on any word of generator names, Koszul sign folded in."""
        norm = self.word_space.normalize_word(list(factors))
        if norm is None:
            return {}
        word, sign = norm
        component = self.component(len(word), word, mgen)
        if sign > 0:
            return dict(component)
        return {g: -q for g, q in component.items()}

    def keys_over(self, words):
        """(word, generator) keys over words; generator None for word keys."""
        return ((word, None) for word in words)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self._ends() == other._ends()
                and self.components == other.components)
