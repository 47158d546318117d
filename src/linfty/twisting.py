"""Twisting structures and morphisms by filtered degree-zero elements.

A twist datum is an element of shifted degree 0 sitting in positive
filtration, so its powers die below the truncation order and every series
here is a finite sum, evaluated literally:

    exp(pi)      = sum pi^k / k!
    Q^pi_k(w)    = sum (1/l!) Q_{k+l}(pi^l v w)
    pi_F         = sum (1/n!) F_n(pi^n),  n >= 1
    F^pi_k(w)    = sum (1/l!) F_{k+l}(pi^l v w)

The last three lines are one loop, twist_table, run on any component table:
the pushforward is the k = 0 value of F's table, and modules and their maps
are twisted by the same loop over (word, generator) keys.  The l = 0 term
of each line is the table's own row k: a twisted row starts from a copy of
it and sweeps keys only for the powers l >= 1, and where none of those can
land (k >= max_arity, so every row of a strict module map and the top row
of every table) the twisted row is that copy, with no sweep.  The loop
returns bare tables; callers wire them to endpoints they have twisted once.

Tables and spaces are immutable, so each twist is computed once per table
and datum and kept, keyed by the validated datum: a table keeps each
twisted row (so the pushforward, the Maurer-Cartan series and the full
twist share row 0), its twisted structure or morphism and, per route, its
mc_check verdict (a disagreement of the routes raises and is not kept),
and a space keeps the weighted powers pi^l / l! of each datum, built only
as far as a caller has read them: a twist row reads at most max_arity + 1
of them, and only exp_element, on the full Maurer-Cartan route, reads them
all.

Each entry validates its datum before any lookup, so an invalid one raises
every time and is never kept.  validate_twist_datum returns a read-only
copy marked with its space and carrying its memo key, and takes such a
copy back at once: a datum is checked once per public call, however deep
the entries it is passed on to, and it cannot change after its check.
Twisted tables are made unchecked (ComponentTable._made) from the kept
rows, read in place; twist_table hands out fresh dicts.  A kept row never
shares a dict with its table.

Maurer-Cartan has one definition, the curvature of the twisted structure
(the k = 0 case of the second line); the full-coderivation route
Q(exp pi) = 0 is computed independently and mc_check enforces that the two
routes agree before answering.
"""

from fractions import Fraction

from .graded import (
    InputError,
    MathCheckError,
    ONE,
    ZERO,
    _check_arity,
    co_from_element,
    el_add,
    el_scale,
    element_degree,
    exact_element,
    filtration_weight,
    sym_mul,
)
from .structures import (
    LInftyMorphism,
    LInftyStructure,
    coderivation_apply,
    compose,
)


class _Datum(dict):
    """A twist datum validated on space: read-only, so it stays valid.

    key is its memo key, frozenset(items): equal data give one key.
    """

    __slots__ = ("space", "key")

    def _read_only(self, *args, **kwargs):
        raise TypeError("a validated twist datum is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


def validate_twist_datum(space, pi):
    """Twist data are homogeneous of shifted degree 0 and positive weight.

    Returns a validated copy, read-only and marked with space; a datum
    already validated on space is returned as it is.
    """
    if type(pi) is _Datum and pi.space is space:
        return pi
    pi = _Datum(exact_element(pi))
    pi.space = space
    degree = element_degree(space, pi)
    if degree is not None and degree != 0:
        raise InputError(f"twist datum must have shifted degree 0, got {degree}")
    if filtration_weight(space, pi) < 1:
        raise InputError("twist datum must sit in positive filtration")
    pi.key = frozenset(pi.items())
    return pi


def weighted_powers(space, pi, limit=None):
    """The first limit (default: all) of (l, pi^l / l!) until the power dies.

    limit, when given, is checked like a cap: a nonnegative int.  The space
    keeps the powers of each datum built so far and extends them only when
    a caller asks for more, so a twist row builds only the powers it reads.
    The powers are shared by every caller; no caller mutates them.
    """
    if limit is not None:
        _check_arity(limit, "limit")
    pi = validate_twist_datum(space, pi)
    powers = space._powers.get(pi.key)
    if powers is None:
        powers = space._powers[pi.key] = [(0, {(): ONE})]
    while powers[-1] is not None and (limit is None or len(powers) < limit):
        ell, power = powers[-1]
        power = el_scale(sym_mul(space, power, co_from_element(pi)),
                         Fraction(1, ell + 1))
        powers.append((ell + 1, power) if power else None)
    live = powers[:-1] if powers[-1] is None else powers
    return tuple(live[:limit])


def exp_element(space, pi):
    """exp(pi) in the truncated coalgebra; a finite sum by weight."""
    total = {}
    for _, power in weighted_powers(space, pi):
        total = el_add(total, power)
    return total


def _twisted_row(table, pi, k):
    """Row k of the twist: sum (1/l!) C_{k+l}(pi^l v w) on each key of arity k.

    The l = 0 term is the table's own row k, so each key's total starts
    from a copy of its own value, and keys are swept only for the powers
    l >= 1.  When none of those can land (k >= max_arity: every row of a
    strict module map and the top row of every table), the row is a fresh
    copy of the own row, with no sweep and no normalization.  C_{k+l} is
    read in place at the canonical word.  The normalizing sign is always
    +1, so it is not read: the letters of pi have shifted degree 0, so they
    are even, and each key is canonical, so normalizing pi^l v w never
    passes one odd letter over another.
    """
    space = table.word_space
    norms, components = space._norms, table.components
    own = components.get(k, {})
    powers = weighted_powers(space, pi, max(0, table.max_arity + 1 - k))[1:]
    if not powers:
        return {key: dict(value) for key, value in own.items()}
    tensor = table.key_space is not None
    row = {}
    for key in table._sweep(k, min_arity=k):
        word = key[0] if tensor else key
        total = dict(own.get(key, ()))
        for _, power in powers:
            for pword, pcoeff in power.items():
                factors = pword + word
                norm = norms.get(factors) or space.normalize_word(factors)
                if norm is None:
                    continue
                cword = norm[0]
                value = components.get(len(cword), {}).get(
                    (cword, key[1]) if tensor else cword)
                if not value:
                    continue
                for g, q in value.items():
                    s = total.get(g, ZERO) + q * pcoeff
                    if s:
                        total[g] = s
                    else:
                        total.pop(g, None)
        if total:
            row[key] = total
    return row


def _kept_row(table, pi, k):
    """Row k of the twist of table by the validated datum pi, kept."""
    return table._kept((pi.key, k), lambda: _twisted_row(table, pi, k))


def _twist_rows(table, pi, arities=None):
    """arity -> kept nonzero row of the twist of table by pi.

    The rows are the kept ones, not copies: a table constructor may read
    them, since the validated and the trusted (ComponentTable._made) one
    both copy every value and keep nothing they were given.
    """
    pi = validate_twist_datum(table.word_space, pi)
    if arities is None:
        arities = range(table.max_arity + 1)
    rows = {}
    for k in arities:
        row = _kept_row(table, pi, k)
        if row:
            rows[k] = row
    return rows


def twist_table(table, pi, arities=None):
    """Twisted components C^pi_k(w) = sum (1/l!) C_{k+l}(pi^l v w).

    table is any component table (structure, morphism, module or module
    morphism); pi lives on its word space.  Returns raw components for the
    given arities (default: every arity of the table), ready to be wired to
    twisted endpoints by the caller.  Each row is computed once per table
    and datum; the returned dicts are fresh copies of the kept rows.
    arities, when given, is an iterable of nonnegative ints, each checked
    like a cap.
    """
    if arities is not None:
        try:
            arities = [_check_arity(k, "arity") for k in arities]
        except TypeError:
            raise InputError("arities must be an iterable of integers, got "
                             f"{type(arities).__name__}") from None
    return {k: {key: dict(value) for key, value in row.items()}
            for k, row in _twist_rows(table, pi, arities).items()}


def _unit_value(table, pi):
    """The k = 0 twisted value sum (1/l!) C_l(pi^l) on the unit word, fresh."""
    pi = validate_twist_datum(table.word_space, pi)
    return dict(_kept_row(table, pi, 0).get((), {}))


def twist_structure(structure, pi):
    """Structure with components Q^pi_k(w) = sum (1/l!) Q_{k+l}(pi^l v w).

    Kept per datum: a repeated call returns the same twisted structure.
    """
    pi = validate_twist_datum(structure.space, pi)
    return structure._kept(pi.key, lambda: LInftyStructure._made(
        structure.space, _twist_rows(structure, pi), label=structure.label))


def maurer_cartan_series(structure, pi):
    """Curvature of the twisted structure: sum (1/n!) Q_n(pi^n)."""
    return _unit_value(structure, pi)


def mc_check(structure, pi, route="both"):
    """Is pi Maurer-Cartan?  Routes: "series", "full", or "both".

    The series route tests the twisted curvature; the full route applies the
    whole coderivation to exp(pi).  When both run, disagreement is an
    internal inconsistency and raises instead of answering.  The verdict is
    kept per route and datum; a disagreement is not.
    """
    if route not in ("series", "full", "both"):
        raise InputError(f"unknown Maurer-Cartan route {route!r}")
    pi = validate_twist_datum(structure.space, pi)
    return structure._kept(("mc", route, pi.key),
                           lambda: _mc_verdict(structure, pi, route))


def _mc_verdict(structure, pi, route):
    """mc_check's answer on the validated datum pi, unkept."""
    results = {}
    if route in ("series", "both"):
        results["series"] = not maurer_cartan_series(structure, pi)
    if route in ("full", "both"):
        exp = exp_element(structure.space, pi)
        results["full"] = not coderivation_apply(structure, exp)
    if len(results) == 2 and results["series"] != results["full"]:
        raise MathCheckError(f"Maurer-Cartan routes disagree: {results}")
    return all(results.values())


def push_mc(morphism, pi):
    """Pushforward pi_F = sum over n >= 1 of (1/n!) F_n(pi^n)."""
    return _unit_value(morphism, pi)


def twist_morphism(morphism, pi):
    """Morphism F^pi between the twisted source and the pi_F-twisted target.

    Kept per datum: a repeated call returns the same twisted morphism.
    """
    pi = validate_twist_datum(morphism.word_space, pi)
    return morphism._kept(pi.key, lambda: LInftyMorphism._made(
        twist_structure(morphism.source, pi),
        twist_structure(morphism.target, push_mc(morphism, pi)),
        _twist_rows(morphism, pi, range(1, morphism.max_arity + 1)),
        label=morphism.label))


def mc_preservation(morphism, pi):
    """Pushforward with both ends certified Maurer-Cartan.

    Raises when pi is not Maurer-Cartan for the source (a precondition) or
    when pi_F fails for the target (which convicts the morphism).
    """
    pi = validate_twist_datum(morphism.word_space, pi)
    if not mc_check(morphism.source, pi):
        raise MathCheckError("twist datum is not Maurer-Cartan for the source")
    pi_f = push_mc(morphism, pi)
    if not mc_check(morphism.target, pi_f):
        raise MathCheckError(
            "pushforward of a Maurer-Cartan element fails for the target")
    return pi_f


def check_structure_twist_identities(structure, pi, second):
    """Iterated twists: (Q^pi)^b = Q^(pi+b) = (Q^b)^pi, componentwise."""
    space = structure.space
    pi = validate_twist_datum(space, pi)
    second = validate_twist_datum(space, second)
    once_then = twist_structure(twist_structure(structure, pi), second)
    at_once = twist_structure(structure, el_add(pi, second))
    other_order = twist_structure(twist_structure(structure, second), pi)
    if once_then != at_once:
        raise MathCheckError("(Q^pi)^b differs from Q^(pi+b)")
    if other_order != at_once:
        raise MathCheckError("(Q^b)^pi differs from Q^(pi+b)")
    return True


def check_morphism_twist_identities(morphism, pi, second):
    """Iterated twists of a morphism and additivity of pushforwards.

    Verifies (F^pi)^b = F^(pi+b) = (F^b)^pi including the endpoint
    structures, and both decompositions of the pushforward of pi + b:
    pi_F + b_(F^pi) and b_F + pi_(F^b).
    """
    space = morphism.source.space
    pi = validate_twist_datum(space, pi)
    second = validate_twist_datum(space, second)
    f_pi = twist_morphism(morphism, pi)
    f_b = twist_morphism(morphism, second)
    at_once = twist_morphism(morphism, el_add(pi, second))
    once_then = twist_morphism(f_pi, second)
    other_order = twist_morphism(f_b, pi)
    for got, clause in ((once_then, "(F^pi)^b"), (other_order, "(F^b)^pi")):
        if got != at_once:
            raise MathCheckError(f"{clause} differs from F^(pi+b)")
        if got.source != at_once.source or got.target != at_once.target:
            raise MathCheckError(f"{clause} has wrong twisted endpoints")
    total = push_mc(morphism, el_add(pi, second))
    if el_add(push_mc(morphism, pi), push_mc(f_pi, second)) != total:
        raise MathCheckError("pi_F + b_(F^pi) differs from (pi+b)_F")
    if el_add(push_mc(morphism, second), push_mc(f_b, pi)) != total:
        raise MathCheckError("b_F + pi_(F^b) differs from (pi+b)_F")
    return True


def check_pushforward_functoriality(outer, inner, pi):
    """(pi_F)_G = pi_(G o F), and twisting commutes with composition."""
    pi = validate_twist_datum(inner.source.space, pi)
    composite = compose(outer, inner)
    stepwise = push_mc(outer, push_mc(inner, pi))
    direct = push_mc(composite, pi)
    if stepwise != direct:
        raise MathCheckError("(pi_F)_G differs from pi_(G o F)")
    twisted_composite = twist_morphism(composite, pi)
    composed_twists = compose(twist_morphism(outer, push_mc(inner, pi)),
                              twist_morphism(inner, pi))
    if twisted_composite.components != composed_twists.components:
        raise MathCheckError("(G o F)^pi differs from G^(pi_F) o F^pi")
    return True
