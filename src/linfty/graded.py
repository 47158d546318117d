"""Graded substrate: exact scalars, graded bases, Koszul signs and symmetric words.

Conventions used by every other module:

* Scalars are exact rationals: an int when integral, else a
  fractions.Fraction with denominator > 1; never a float.  Integral
  arithmetic then stays in machine ints, and a Fraction is built only
  where a division happens (the 1/l! of a twist, the pivots of an
  elimination).
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


ZERO = 0
ONE = 1

# A memo lookup's default, told apart from a stored None (a zero word).
_UNSEEN = object()

# Characters reserved by the fixture format for word and tensor keys.
_FORBIDDEN_NAME_CHARS = set("|@ \t\n")


def _is_int(value):
    """An int proper: bools, floats and strings are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_arity(arity, name="max_arity"):
    """A bound on word arity: a nonnegative int, else InputError."""
    if not _is_int(arity):
        raise InputError(
            f"{name} must be an integer, got {type(arity).__name__}")
    if arity < 0:
        raise InputError(f"{name} must be nonnegative, got {arity}")
    return arity


def _dict_of(value, what):
    """value when it is a dict, else InputError naming what it should be."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a dict, got {type(value).__name__}")
    return value


def _list_of(value, what):
    """value as a list when it is a list or a tuple, else InputError."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a list, got {type(value).__name__}")
    return list(value)


def _instance_of(value, cls, what):
    """value when it is a cls, else InputError naming the type it should be."""
    if not isinstance(value, cls):
        raise InputError(f"{what} must be of type {cls.__name__}, "
                         f"got {type(value).__name__}")
    return value


def _as_word(word):
    """A word as a tuple of generator names; a str is not split into letters."""
    if isinstance(word, str):
        raise InputError(
            f"word {word!r} is a string, not a tuple of generator names")
    try:
        return tuple(word)
    except TypeError:
        raise InputError(
            f"word {word!r} is not a tuple of generator names") from None


def _as_tensor(key):
    """A tensor key as its (word, generator) pair, else InputError."""
    if type(key) is not tuple or len(key) != 2:
        raise InputError(f"tensor key {key!r} is not a (word, generator) pair")
    return key


def parse_scalar(text):
    """The one coercion to an exact scalar: an int when integral, else a Fraction.

    Takes an int, a Fraction, or a "p" or "p/q" string; a Fraction or
    "p/q" with denominator 1 becomes its numerator.  Floats, bools and
    anything else are input errors.
    """
    if type(text) is int or _is_int(text):
        return text
    if isinstance(text, Fraction):
        q = text
    elif isinstance(text, str):
        s = text.strip()
        try:
            if "/" not in s:
                return int(s)
            p, d = s.split("/")
            q = Fraction(int(p), int(d))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad scalar literal {text!r}") from exc
    else:
        raise InputError(f"exact scalars required, got {type(text).__name__}")
    return q.numerator if q.denominator == 1 else q


def format_scalar(q):
    """Canonical form: "p" when integral, else "p/q"; floats are rejected."""
    q = parse_scalar(q)
    if q.denominator == 1:
        return str(q)
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
    return [left + tuple(i for i in range(n) if i not in left)
            for left in itertools.combinations(range(n), k)]


# block sizes -> tuple of every shuffle, shared by every space (multi_shuffles)
_SHUFFLES = {}


def multi_shuffles(block_sizes):
    """All (k_1,...,k_p)-shuffles: permutations increasing on each block.

    The shuffles of each tuple of block sizes are computed once per
    process and kept in a table; every call returns a fresh list of them,
    so a caller that mutates its list leaves the table as it was.
    """
    key = tuple(block_sizes)
    table = _SHUFFLES.get(key)
    if table is None:
        states = [((), tuple(range(sum(key))))]  # (picked, remaining)
        for size in key:
            states = [(prefix + pick, tuple(i for i in rest if i not in pick))
                      for prefix, rest in states
                      for pick in itertools.combinations(rest, size)]
        table = _SHUFFLES[key] = tuple(prefix for prefix, _ in states)
    return list(table)


class GradedSpace:
    """Finite ordered basis with shifted degrees and filtration levels.

    The basis is sorted into canonical (degree, name) order on construction.
    nilpotency_order N declares the truncation: generator levels are < N and
    total filtration weight >= N counts as zero.

    A space is immutable after construction: nothing edits its generators,
    degrees or levels.  Its word kernels memoize on that.  Each space keeps
    the canonical form (_norms) and the weight (_weights) of every word it
    was asked about; the canonical words of each arity built so far, each
    with its weight (_arities); every sweep of enumerate_words (_words);
    and every shuffle-split plan (_splits).  The coderivation, morphism and
    module kernels read these in place.  The twist layer keeps there the
    weighted powers pi^l / l! of each twist datum built so far (_powers).
    The memos sit in slots, not in vars(space), and are never part of the
    space's value; a failed lookup (an unknown generator, an invalid
    datum) is never stored.
    """

    __slots__ = ("_norms", "_words", "_arities", "_weights", "_splits",
                 "_powers", "__dict__")

    def __init__(self, generators, nilpotency_order, label=""):
        if not _is_int(nilpotency_order) or nilpotency_order < 1:
            raise InputError("nilpotency order must be a positive integer")
        gens = []
        for name, degree, filt in generators:
            if not isinstance(name, str) or not name:
                raise InputError(f"generator name must be a nonempty string, got {name!r}")
            if _FORBIDDEN_NAME_CHARS & set(name):
                raise InputError(f"generator name {name!r} uses a reserved character")
            if not _is_int(degree):
                raise InputError(f"generator {name}: degree must be an integer")
            if not _is_int(filt) or filt < 0 or filt >= nilpotency_order:
                raise InputError(
                    f"generator {name}: filtration level must lie in [0, {nilpotency_order})")
            gens.append((name, degree, filt))
        gens.sort(key=lambda g: (g[1], g[0]))
        names = [g[0] for g in gens]
        if len(set(names)) != len(names):
            raise InputError("generator names must be unique")
        self.label = label
        self.generators = tuple(gens)
        self.basis = tuple(names)
        self.nilpotency_order = nilpotency_order
        self._degree = {g[0]: g[1] for g in gens}
        self._filtration = {g[0]: g[2] for g in gens}
        self._index = {g[0]: i for i, g in enumerate(gens)}
        self._norms = {}    # tuple of factors -> (word, sign) or None
        self._weights = {}  # tuple of factors -> total filtration weight
        self._words = {}    # (max_arity, min_arity) -> tuple of words
        # arity a -> tuple of (word, first index its next letter may take,
        # weight), canonical and light words only; built up by _extend
        self._arities = [(((), 0, 0),)]
        self._splits = {}   # (parities, sizes) -> shuffle-split plan
        self._powers = {}   # twist datum -> [(l, pi^l / l!), ..., None if dead]

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
        factors = tuple(factors)
        norm = self._norms.get(factors, _UNSEEN)
        if norm is _UNSEEN:
            norm = self._norms[factors] = self._normalize(factors)
        return norm

    def _normalize(self, factors):
        degree, index = self._degree, self._index
        for f in factors:
            if f not in degree:
                raise InputError(f"unknown generator {f!r} in word")
        odd = [index[f] for f in factors if degree[f] % 2]
        if len(set(odd)) < len(odd):
            return None
        inversions = 0
        for i, a in enumerate(odd):
            for b in odd[i + 1:]:
                if a > b:
                    inversions += 1
        return (tuple(sorted(factors, key=index.__getitem__)),
                -1 if inversions % 2 else 1)

    def word_degree(self, word):
        try:
            return sum(self._degree[f] for f in word)
        except KeyError as exc:
            raise InputError(
                f"unknown generator {exc.args[0]!r} in word") from None

    def word_weight(self, word):
        """Total filtration level of the factors of a word."""
        key = word if type(word) is tuple else tuple(word)
        weight = self._weights.get(key)
        if weight is None:
            try:
                weight = sum(self._filtration[f] for f in key)
            except KeyError as exc:
                raise InputError(
                    f"unknown generator {exc.args[0]!r} in word") from None
            self._weights[key] = weight
        return weight

    def enumerate_words(self, max_arity, min_arity=0):
        """All canonical nonzero words with arity in [min_arity, max_arity].

        Words whose total filtration weight reaches the nilpotency order are
        zero and are skipped.  Deterministic order: by arity, then
        lexicographically in basis indices.  A max_arity or min_arity that
        is negative or not an int (a bool, a float, a string) is an input
        error, raised at call time, not an empty or silently rounded sweep
        that would pass every check.  A sweep is the concatenation of the
        space's per-arity tuples (_arities), each built once from the one
        below it by _extend; it is kept per (max_arity, min_arity) and
        returned as a tuple shared by every caller.
        """
        _check_arity(max_arity)
        _check_arity(min_arity, "min_arity")
        key = (max_arity, min_arity)
        words = self._words.get(key)
        if words is None:
            rows = self._arities
            while len(rows) <= max_arity and rows[-1]:
                rows.append(self._extend(rows[-1]))
            words = self._words[key] = tuple(
                [word for row in rows[min_arity:max_arity + 1]
                 for word, _, _ in row])
        return words

    def _extend(self, row):
        """The words of one arity more than row's, as (word, start, weight).

        Each word of row takes one more letter at or after its last in
        basis order (after it when that letter is odd, which may not
        repeat), while the running weight stays below the truncation
        order; so the words come out lexicographic in basis indices.
        """
        cap = self.nilpotency_order
        letters = [(name, filt, j + degree % 2)
                   for j, (name, degree, filt) in enumerate(self.generators)]
        return tuple([(word + (name,), start, total)
                      for word, first, weight in row
                      for name, filt, start in letters[first:]
                      if (total := weight + filt) < cap])

    def _split_plan(self, word, sizes):
        """(eps, left indices, right indices, left_odd) per split of word.

        eps is the Koszul sign of the (k, n-k)-shuffle for each k in the
        tuple sizes, and left_odd the parity of the left block's degree;
        both depend only on the parities of the word's degrees, which with
        sizes key the plan.  Plans are the one split generator: each is built
        once per space from multi_shuffles((k, n - k)), and every word kernel
        reads them.  eps is read in one pass over the left block: each odd
        left letter passes the odd right letters before it, that is the odd
        positions before it less the odd left letters before it.
        """
        try:
            parities = tuple([self._degree[g] % 2 for g in word])
        except KeyError as exc:
            raise InputError(f"unknown generator {exc.args[0]!r}") from None
        plan = self._splits.get((parities, sizes))
        if plan is None:
            n = len(parities)
            odd_before = list(itertools.accumulate(parities, initial=0))
            plan = []
            for k in sizes:
                for sigma in multi_shuffles((k, n - k)):
                    left = sigma[:k]
                    passed = odd_left = 0
                    for i in left:
                        if parities[i]:
                            passed += odd_before[i] - odd_left
                            odd_left += 1
                    plan.append((-1 if passed % 2 else 1, left, sigma[k:],
                                 odd_left % 2))
            self._splits[parities, sizes] = plan
        return plan


# -- sparse vectors ---------------------------------------------------------
#
# Elements (generator -> scalar), coalgebra elements (canonical word ->
# scalar) and module tensors ((word, generator) -> scalar) are plain dicts
# without zero entries; they share one add, one scale and one accumulator.
# A scalar is an int when integral, else a Fraction, never a float; stored
# values pass through parse_scalar, while sums and products inside a loop
# may hold a Fraction that happens to be integral.

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

def _fraction_repr(terms):
    """repr of a sparse vector with every value shown as a Fraction.

    Residuals in error texts are quoted this way, so the text reads the same
    whether a value is held as an int or as a Fraction.
    """
    return repr({key: Fraction(q) for key, q in terms.items()})

def exact_element(element):
    """Element with exact coefficients and no zero terms.

    Every coefficient goes through parse_scalar, so floats and bools are
    rejected at the library boundary as they are in fixture files.
    """
    out = {}
    for g, q in _dict_of(element, "element").items():
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


# -- coalgebra elements (dicts canonical word -> scalar) --------------------

def co_from_element(el):
    """View an element of L as a sum of arity-1 words."""
    return {(g,): q for g, q in el.items()}

def co_linear_part(coelt):
    """Arity-1 part of a coalgebra element, viewed as an element of L."""
    return {w[0]: q for w, q in coelt.items() if len(w) == 1}


def expand_factors(space, factors):
    """Multilinear expansion of a formal product of elements into words.

    factors is a list of elements (dicts).  Returns dict word -> scalar
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
    norms, weight = space._norms, space.word_weight
    right = [(wb, qb, weight(wb)) for wb, qb in b.items()]
    out = {}
    for wa, qa in a.items():
        weight_a = weight(wa)
        for wb, qb, weight_b in right:
            if weight_a + weight_b >= cap:
                continue
            factors = wa + wb
            norm = norms.get(factors) or space.normalize_word(factors)
            if norm is not None:
                word, sign = norm
                s = out.get(word, ZERO) + qa * qb * sign
                if s:
                    out[word] = s
                else:
                    out.pop(word, None)
    return out


# -- component tables -------------------------------------------------------

def _folded(value):
    """A fresh copy of value, each integral Fraction stored as its int."""
    for q in value.values():
        if type(q) is not int and q.denominator == 1:
            return {g: q if type(q) is int or q.denominator != 1
                    else q.numerator for g, q in value.items()}
    return dict(value)


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

    A public constructor validates what it is given: it normalizes keys,
    folds signs and checks degrees and filtration (_set_components).  A
    table the library derives from valid tables (a composite, an inverse,
    a conjugate, a twist, a product, the module of a morphism, a Cech
    connecting map) is made by _made on trusted components, unchecked.

    Tables are immutable after construction: nothing edits their components
    or rewires their endpoints.  The applies and twists memoize on that.
    Each table keeps the image of every key it has been applied to, with
    coefficient 1, and so applies itself to a word once.  Images are
    computed only on canonical words, whose split blocks are read by
    component.  It also keeps (_kept), per twist datum, each twisted row
    and the twisted structure or morphism built from it, and so twists
    itself by a datum once; per cap, its inverse and each check verdict
    that passed; and per route and datum, its Maurer-Cartan verdict.  A
    check that fails raises and keeps nothing, so it fails the same way
    every time.  Nothing kept refers back to its table, so a table and all
    it keeps are freed together.  The memos sit in slots, not in
    vars(table), and are never part of the table's value.
    """

    __slots__ = ("_images", "_twists")
    __hash__ = None

    def _image(self, key, compute):
        """compute(self, key), the image of key with coefficient 1, kept.

        On a miss compute sees only a canonical word: a zero word's image is
        {}, any other word's is +- the image of its canonical word, and an
        unknown generator or module generator raises.
        The stored image is shared by every later apply; no caller mutates it.
        """
        image = self._images.get(key)
        if image is None:
            tensor = self.key_space is not None
            word, mgen = _as_tensor(key) if tensor else (key, None)
            word = _as_word(word)
            if tensor and mgen not in self.key_space:
                raise InputError(f"unknown module generator {mgen!r}")
            try:
                norm = self.word_space.normalize_word(word)
            except InputError:
                unknown = next(g for g in word if g not in self.word_space)
                raise InputError(f"unknown generator {unknown!r}") from None
            if norm is None or norm == (word, 1):
                image = {} if norm is None else compute(self, key)
            else:
                canonical = norm[0] if mgen is None else (norm[0], mgen)
                image = el_scale(self._image(canonical, compute), norm[1])
            self._images[key] = image
        return image

    def _kept(self, key, build):
        """build(), kept under key: a datum key, (datum key, arity) for a
        twisted row, or a tagged tuple such as ("inverse", cap).

        When build raises, nothing is kept.  The kept value is shared by
        every later call; no caller mutates it.
        """
        value = self._twists.get(key)
        if value is None:
            value = self._twists[key] = build()
        return value

    def _apply(self, elt, compute):
        """Sum of coeff * image over the keys of elt, in a fresh dict.

        elt is a dict; a coefficient that is not an int goes through
        parse_scalar, so an apply takes exact scalars alone.
        """
        out = {}
        for key, coeff in _dict_of(elt, "apply input").items():
            if type(coeff) is not int:
                coeff = parse_scalar(coeff)
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
        components = self.components
        out = {}
        for key, coeff in elt.items():
            arity = len(key[0] if tensor else key)
            for g, q in components.get(arity, {}).get(key, {}).items():
                s = out.get(g, ZERO) + coeff * q
                if s:
                    out[g] = s
                else:
                    out.pop(g, None)
        return out

    def _set_components(self, word_space, value_space, components, degree,
                        key_space=None):
        """Normalize keys, fold signs, validate degrees and filtration.

        A value lives in value_space and has the key's degree plus `degree`
        (+1 for structures and modules, 0 for maps); its filtration is at
        least the key's weight, which stays below the truncation order.
        Arities are ints.  The first key on a canonical word keeps its own
        exact_element dict (negated for sign -1); later keys add into it.
        """
        tensor = key_space is not None
        bad_arity, place, lowers, vanishing = _MESSAGES[tensor]
        norms, key_degree, degrees = (
            word_space._norms, word_space._degree, value_space._degree)
        out = {}
        for arity, table in _dict_of(components, "components").items():
            if not _is_int(arity):
                raise InputError(f"component arity {arity!r} is not an integer")
            if arity < 0:
                raise InputError(bad_arity)
            canon = {}
            for key, element in _dict_of(
                    table, f"arity-{arity} components").items():
                word, mgen = _as_tensor(key) if tensor else (key, None)
                word = _as_word(word)
                if len(word) != arity:
                    raise InputError(f"word {word} filed under arity {arity}")
                if tensor and mgen not in key_space:
                    raise InputError(f"unknown module generator {mgen!r}")
                norm = norms.get(word) or word_space.normalize_word(word)
                element = exact_element(element)
                if norm is None:
                    if element:
                        raise InputError(f"nonzero value on the zero word {word}")
                    continue
                ckey = (norm[0], mgen) if tensor else norm[0]
                if element and ckey not in canon:
                    canon[ckey] = element if norm[1] > 0 else el_scale(element, -1)
                else:
                    for g, q in element.items():
                        _accumulate(canon[ckey], g, q * norm[1])
            for key, value in list(canon.items()):
                if not value:
                    del canon[key]
                    continue
                cword, mgen = key if tensor else (key, None)
                want = sum([key_degree[f] for f in cword]) + degree
                weight = word_space.word_weight(cword)
                if tensor:
                    want += key_space.degree(mgen)
                    weight += key_space.filtration(mgen)
                for g in value:
                    if degrees.get(g) != want:
                        where = place.format(arity=arity, word=cword, mgen=mgen)
                        raise InputError(
                            f"{where} has degree {value_space.degree(g)} at {g}, "
                            f"expected {want}")
                if min(map(value_space._filtration.__getitem__, value)) < weight:
                    raise InputError(lowers.format(word=cword, mgen=mgen))
                if weight >= word_space.nilpotency_order:
                    raise InputError(vanishing.format(word=cword, mgen=mgen))
            if canon:
                out[arity] = canon
        self._keep(out)

    @classmethod
    def _made(cls, *args, label=""):
        """cls(*args, label=label) on trusted components (the last of args).

        For tables derived from valid tables: keys are canonical and values
        have the right degree and filtration, so only the endpoint checks
        run.  Empty values and rows are dropped, and each value is copied
        with every integral Fraction stored as its int.
        """
        *ends, components = args
        table = object.__new__(cls)
        table._wire(*ends, label=label)
        rows = {}
        for arity, row in components.items():
            kept = {key: _folded(value) for key, value in row.items() if value}
            if kept:
                rows[arity] = kept
        table._keep(rows)
        return table

    def _keep(self, components):
        self.components = components
        self.max_arity = max(components, default=0)
        self._images = {}
        # datum -> twisted table; (datum, k) -> row k; tagged tuples ->
        # the inverse, check verdicts and Maurer-Cartan verdicts (_kept)
        self._twists = {}

    def _sweep(self, cap, bound=None, min_arity=0):
        """The table's keys over canonical words of arity min_arity up to
        min(cap, max(0, bound)), or up to cap when bound is None.

        The one rule for which keys a sweep visits, in enumerate_words
        order; lazy, so a sweep that stops early reads no further.
        """
        if bound is not None:
            cap = min(cap, max(0, bound))
        yield from self.word_space.enumerate_words(cap, min_arity)

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

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self._ends() == other._ends()
                and self.components == other.components)
