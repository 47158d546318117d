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
are twisted by the same loop over (word, generator) keys.  The loop returns
bare tables; callers wire them to endpoints they have twisted once.

Maurer-Cartan has one definition, the curvature of the twisted structure
(the k = 0 case of the second line); the full-coderivation route
Q(exp pi) = 0 is computed independently and mc_check enforces that the two
routes agree before answering.
"""

from fractions import Fraction
from itertools import islice

from .graded import (
    InputError,
    MathCheckError,
    ONE,
    _accumulate,
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


def validate_twist_datum(space, pi):
    """Twist data are homogeneous of shifted degree 0 and positive weight."""
    pi = exact_element(pi)
    degree = element_degree(space, pi)
    if degree is not None and degree != 0:
        raise InputError(f"twist datum must have shifted degree 0, got {degree}")
    if filtration_weight(space, pi) < 1:
        raise InputError("twist datum must sit in positive filtration")
    return pi


def weighted_powers(space, pi):
    """Yield (l, pi^l / l!) as coalgebra elements until the power dies."""
    power = {(): ONE}
    ell = 0
    while power:
        yield ell, power
        ell += 1
        power = sym_mul(space, power, co_from_element(pi))
        power = el_scale(power, Fraction(1, ell))


def exp_element(space, pi):
    """exp(pi) in the truncated coalgebra; a finite sum by weight."""
    pi = validate_twist_datum(space, pi)
    total = {}
    for _, power in weighted_powers(space, pi):
        total = el_add(total, power)
    return total


def twist_table(table, pi, arities=None):
    """Twisted components C^pi_k(w) = sum (1/l!) C_{k+l}(pi^l v w).

    table is any component table (structure, morphism, module or module
    morphism); pi lives on its word space.  Returns raw components for the
    given arities (default: every arity of the table), ready to be wired to
    twisted endpoints by the caller.
    """
    space = table.word_space
    pi = validate_twist_datum(space, pi)
    powers = list(islice(weighted_powers(space, pi), table.max_arity + 1))
    if arities is None:
        arities = range(table.max_arity + 1)
    comps = {}
    for k in arities:
        row = {}
        for word, mgen in table.keys_over(space.enumerate_words(k, min_arity=k)):
            total = {}
            for ell, power in powers:
                if k + ell > table.max_arity:
                    break
                for pword, pcoeff in power.items():
                    for g, q in table.value(pword + word, mgen).items():
                        _accumulate(total, g, q * pcoeff)
            if total:
                row[word if mgen is None else (word, mgen)] = total
        if row:
            comps[k] = row
    return comps


def _unit_value(table, pi):
    """The k = 0 twisted value sum (1/l!) C_l(pi^l) on the unit word."""
    return twist_table(table, pi, (0,)).get(0, {}).get((), {})


def twist_structure(structure, pi):
    """Structure with components Q^pi_k(w) = sum (1/l!) Q_{k+l}(pi^l v w)."""
    return LInftyStructure(structure.space, twist_table(structure, pi),
                           label=structure.label)


def maurer_cartan_series(structure, pi):
    """Curvature of the twisted structure: sum (1/n!) Q_n(pi^n)."""
    return _unit_value(structure, pi)


def mc_check(structure, pi, route="both"):
    """Is pi Maurer-Cartan?  Routes: "series", "full", or "both".

    The series route tests the twisted curvature; the full route applies the
    whole coderivation to exp(pi).  When both run, disagreement is an
    internal inconsistency and raises instead of answering.
    """
    if route not in ("series", "full", "both"):
        raise InputError(f"unknown Maurer-Cartan route {route!r}")
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
    """Morphism F^pi between the twisted source and the pi_F-twisted target."""
    comps = twist_table(morphism, pi, range(1, morphism.max_arity + 1))
    return LInftyMorphism(
        twist_structure(morphism.source, pi),
        twist_structure(morphism.target, push_mc(morphism, pi)),
        comps, label=morphism.label)


def mc_preservation(morphism, pi):
    """Pushforward with both ends certified Maurer-Cartan.

    Raises when pi is not Maurer-Cartan for the source (a precondition) or
    when pi_F fails for the target (which convicts the morphism).
    """
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
