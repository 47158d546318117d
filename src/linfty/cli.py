"""Command line front end over fixture documents.

Usage: linfty <command> <fixture> [flags]

Commands:
  validate            run every declared object's own validator
  mc                  test a named element for the Maurer-Cartan equation
  twist               print the fixture with the selected structure twisted
  cohomology          Betti numbers of a flat structure
  twist-identities    iterated-twist and pushforward identities
  module-consistency  twisting commutes with the module constructor
  resolution-check    constituents, complex conditions, untwisted exactness
  adapted-mc          exactness of the whole diagram after twisting
  prop-key            full criterion on a ladder: hypotheses, then the
                      induced map computed by two independent routes

Exit codes: 0 every check passed, 1 a mathematical check failed,
2 malformed input (bad file, bad reference, bad arguments).

Machine-readable reports (--report PATH, and stdout for twist) carry no
timestamps and are byte-identical across repeated runs with the same
arguments.  --seed adds a reproducible randomized suite to
twist-identities, module-consistency and prop-key.  Each command takes only
the flags it reads, spelled as --help lists them; any other flag or prefix
exits 2.

main() can be called again and again in one process: the parser is built
on the first call and reused, and no state is kept between calls.
"""

import argparse
import functools
import os.path
import sys

from .graded import InputError, MathCheckError, _check_arity, el_scale
from .structures import (
    chain_complex,
    check_morphism,
    check_square_zero,
    invert,
    spaces_equal,
)
from .twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    maurer_cartan_series,
    mc_check,
    twist_structure,
)
from .modules import (
    check_module_morphism,
    check_module_square_zero,
    check_module_twist_consistency,
)
from .resolutions import check_adapted_mc, check_resolution, prop_key_pipeline
from .io import (
    FixtureWriter,
    canonical_dumps,
    element_json,
    load_document,
    plain,
    serialize_document,
)


def _read_document(path):
    if not os.path.exists(path) and os.path.exists(path + ".json"):
        path = path + ".json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read fixture {path}: {e}") from None
    return load_document(text)


def _pick(table, chosen, kind):
    """Named selection, or the unique entry when the section has exactly one."""
    if chosen is not None:
        if chosen not in table:
            raise InputError(
                f"no {kind} named {chosen!r} (have {sorted(table)})")
        return chosen, table[chosen]
    if len(table) == 1:
        name, = table
        return name, table[name]
    if not table:
        raise InputError(f"fixture declares no {kind}")
    raise InputError(
        f"fixture declares several {kind}s {sorted(table)}; pick one with "
        f"--{kind.replace(' ', '-')}")


def _named_element(doc, name, flag):
    """(space, value) of the element named by a flag."""
    if name is None:
        raise InputError(f"this command needs {flag} <name>")
    if name not in doc.elements:
        raise InputError(
            f"no element named {name!r} (have {sorted(doc.elements)})")
    return doc.elements[name]


def _element_on(doc, name, space, flag):
    espace, value = _named_element(doc, name, flag)
    if not spaces_equal(espace, space):
        raise InputError(
            f"element {name!r} lives on a different space than the "
            f"selected object")
    return value


def _collect(results, failures, key, check):
    try:
        check()
        results[key] = "ok"
    except MathCheckError as e:
        results[key] = f"failed: {e}"
        failures.append(key)


def cmd_validate(doc, args):
    results = {}
    failures = []
    for name, s in doc.structures.items():
        _collect(results, failures, f"structures.{name}",
                 lambda s=s: check_square_zero(s, max_arity=args.max_arity))
    for name, f in doc.morphisms.items():
        _collect(results, failures, f"morphisms.{name}",
                 lambda f=f: check_morphism(f, max_arity=args.max_arity))
    for name, m in doc.modules.items():
        _collect(results, failures, f"modules.{name}",
                 lambda m=m: check_module_square_zero(m, max_arity=args.max_arity))
    for name, mm in doc.module_morphisms.items():
        _collect(results, failures, f"module_morphisms.{name}",
                 lambda mm=mm: check_module_morphism(mm, max_arity=args.max_arity))
    report = {"objects": results, "ok": not failures, "failures": failures}
    lines = [f"{key}: {value}" for key, value in sorted(results.items())]
    lines.append(f"validate: {'pass' if not failures else 'FAIL'}")
    return not failures, report, lines


def cmd_mc(doc, args):
    name, structure = _pick(doc.structures, args.structure, "structure")
    check_square_zero(structure, max_arity=args.max_arity)
    pi = _element_on(doc, args.element, structure.space, "--element")
    residual = maurer_cartan_series(structure, pi)
    ok = mc_check(structure, pi)
    report = {
        "structure": name,
        "element": args.element,
        "maurer_cartan": ok,
        "residual": element_json(residual),
    }
    lines = [f"mc: structure {name}, element {args.element}: "
             f"{'Maurer-Cartan' if ok else 'NOT Maurer-Cartan'}"]
    if residual:
        shown = ", ".join(f"{g}: {q}" for g, q in
                          sorted(element_json(residual).items()))
        lines.append(f"residual: {shown}")
    else:
        lines.append("residual: 0")
    return ok, report, lines


def cmd_twist(doc, args):
    name, structure = _pick(doc.structures, args.structure, "structure")
    check_square_zero(structure, max_arity=args.max_arity)
    pi = _element_on(doc, args.element, structure.space, "--element")
    twisted = twist_structure(structure, pi)
    writer = FixtureWriter()
    writer.add(twisted, name)
    writer.add_element(twisted.space, pi, args.element)
    report = writer.raw
    return True, report, None


def cmd_cohomology(doc, args):
    name, structure = _pick(doc.structures, args.structure, "structure")
    check_square_zero(structure, max_arity=args.max_arity)
    cc = chain_complex(structure)
    betti = {d: cc.cohomology(d)[0] for d in cc.degrees()}
    report = {"structure": name, "betti": betti}
    lines = [f"cohomology of {name}:"]
    lines += [f"  degree {d}: {betti[d]}" for d in sorted(betti)]
    return True, report, lines


def _random_identity_suite(seed):
    from .instances import random_instance
    inst = random_instance(seed)
    pi = inst["pi"]
    second = el_scale(pi, 2)
    checks = {}
    checks["structure_iterated_twists"] = check_structure_twist_identities(
        inst["base"], pi, second)
    checks["morphism_iterated_twists"] = check_morphism_twist_identities(
        inst["morphism"], pi, second)
    checks["pushforward_functoriality"] = check_pushforward_functoriality(
        invert(inst["morphism"]), inst["morphism"], pi)
    return {"seed": seed, "checks": checks}


def cmd_twist_identities(doc, args):
    name, structure = _pick(doc.structures, args.structure, "structure")
    check_square_zero(structure, max_arity=args.max_arity)
    pi = _element_on(doc, args.element, structure.space, "--element")
    second = _element_on(doc, args.second_element, structure.space,
                         "--second-element")
    checks = {"structure_iterated_twists":
              check_structure_twist_identities(structure, pi, second)}
    for fname, f in sorted(doc.morphisms.items()):
        if f.source == structure:
            checks[f"morphism_iterated_twists.{fname}"] = \
                check_morphism_twist_identities(f, pi, second)
            for gname, g in sorted(doc.morphisms.items()):
                if g.source == f.target:
                    checks[f"pushforward_functoriality.{gname}.{fname}"] = \
                        check_pushforward_functoriality(g, f, pi)
    report = {"structure": name, "element": args.element,
              "second_element": args.second_element, "checks": checks}
    lines = [f"{key}: pass" for key in sorted(checks)]
    if args.seed is not None:
        report["random"] = _random_identity_suite(args.seed)
        lines.append(f"random suite (seed {args.seed}): pass")
    lines.append("twist-identities: pass")
    return True, report, lines


def cmd_module_consistency(doc, args):
    if not doc.morphisms:
        raise InputError("fixture declares no morphisms to check")
    pi_name = args.element
    espace, pi = _named_element(doc, pi_name, "--element")
    checks = {fname: check_module_twist_consistency(
                  f, pi, max_arity=args.max_arity)
              for fname, f in sorted(doc.morphisms.items())
              if spaces_equal(espace, f.source.space)}
    if not checks:
        raise InputError(
            f"element {pi_name!r} matches no morphism source in the fixture")
    report = {"element": pi_name, "morphisms": checks}
    lines = [f"module-consistency {fname}: pass" for fname in sorted(checks)]
    if args.seed is not None:
        from .instances import random_instance
        inst = random_instance(args.seed)
        check_module_twist_consistency(inst["morphism"], inst["pi"])
        report["random"] = {"seed": args.seed, "checks": {"module_consistency": True}}
        lines.append(f"random suite (seed {args.seed}): pass")
    lines.append("module-consistency: pass")
    return True, report, lines


def cmd_resolution_check(doc, args):
    name, diagram = _pick(doc.resolutions, args.resolution, "resolution")
    result = check_resolution(diagram, max_arity=args.max_arity)
    report = {"resolution": name, "ok": result["ok"],
              "failures": result["failures"], "sequence": result["sequence"]}
    lines = [f"resolution-check {name}: {'pass' if result['ok'] else 'FAIL'}"]
    lines += [f"  {msg}" for msg in result["failures"]]
    return result["ok"], report, lines


def cmd_adapted_mc(doc, args):
    name, diagram = _pick(doc.resolutions, args.resolution, "resolution")
    pi = _element_on(doc, args.element, diagram.base.space, "--element")
    adapted, sequence = check_adapted_mc(diagram, pi)
    report = {"resolution": name, "element": args.element,
              "adapted": adapted, "sequence": sequence}
    lines = [f"adapted-mc {name}, element {args.element}: "
             f"{'adapted' if adapted else 'NOT adapted'}"]
    if not adapted:
        bad = sorted(k for k, v in sequence["exact_at"].items() if not v)
        lines.append(f"  twisted sequence fails exactness at {bad}")
    return adapted, report, lines


def cmd_prop_key(doc, args):
    name, ladder = _pick(doc.ladders, args.ladder, "ladder")
    pi = _element_on(doc, args.element, ladder.source.base.space, "--element")
    result = prop_key_pipeline(ladder, pi, max_arity=args.max_arity)
    report = dict(result)
    report["ladder_name"] = name
    report["element"] = args.element
    ok = result["verdict"] == "quasi-isomorphism"
    lines = [f"prop-key {name}, element {args.element}: {result['verdict']}"]
    if not ok:
        lines.append(f"  failing clause: {result['failing_clause']}")
    if args.seed is not None:
        from .instances import random_ladder
        rladder, xi = random_ladder(args.seed)
        rresult = prop_key_pipeline(rladder, xi, max_arity=args.max_arity)
        rok = rresult["verdict"] == "quasi-isomorphism"
        report["random"] = {"seed": args.seed, "verdict": rresult["verdict"]}
        lines.append(f"random ladder (seed {args.seed}): {rresult['verdict']}")
        ok = ok and rok
    return ok, report, lines


# Each command's function and the flags it reads, in --help order; every
# command also takes --report.  A flag a command does not read is an error.
_COMMANDS = {
    "validate": (cmd_validate, ("--max-arity",)),
    "mc": (cmd_mc, ("--structure", "--element", "--max-arity")),
    "twist": (cmd_twist, ("--structure", "--element", "--max-arity")),
    "cohomology": (cmd_cohomology, ("--structure", "--max-arity")),
    "twist-identities": (cmd_twist_identities, (
        "--structure", "--element", "--second-element", "--max-arity", "--seed")),
    "module-consistency": (cmd_module_consistency, ("--element", "--max-arity", "--seed")),
    "resolution-check": (cmd_resolution_check, ("--resolution", "--max-arity")),
    "adapted-mc": (cmd_adapted_mc, ("--resolution", "--element")),
    "prop-key": (cmd_prop_key, ("--ladder", "--element", "--mc", "--max-arity", "--seed")),
}

_FLAGS = {
    "--element": dict(help="named element used as twist datum"),
    "--mc": dict(dest="element", help="alias for --element"),
    "--second-element": dict(help="second named element for iterated identities"),
    "--max-arity": dict(type=int, help="cap the arity examined by the checks"),
    "--seed": dict(type=int, help="also run the reproducible randomized suite"),
    "--structure": dict(help="structure name when several exist"),
    "--resolution": dict(help="resolution name when several exist"),
    "--ladder": dict(help="ladder name when several exist"),
    "--report": dict(help="write the machine-readable report here"),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports an unknown flag under its own usage,
    named with its value (every flag takes one) wherever the flag stands."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras, i = list(args), [], 0
        while i < len(args) and args[i] != "--":
            flag = args[i].partition("=")[0]
            if not flag.startswith("--") or flag in self._option_string_actions:
                i += 1
                continue
            # the value is the next argument, unless that is a flag
            end = i + 1 + (flag == args[i] and i + 1 < len(args)
                           and not args[i + 1].startswith("--"))
            extras += args[i:end]
            del args[i:end]
        args, more = super().parse_known_args(args, namespace)
        if extras or more:
            self.error(f"unrecognized arguments: {' '.join(extras + more)}")
        return args, []


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linfty", allow_abbrev=False,
        description="exact checks on curved homotopy structures, their "
                    "twists, modules and resolutions")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for command, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("fixture", help="path to a fixture document")
        for flag in (*flags, "--report"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


# Built on the first main() call, not at import; parse_args keeps no state.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    run, flags = _COMMANDS[args.command]
    try:
        if "--max-arity" in flags and args.max_arity is not None:
            _check_arity(args.max_arity)
        doc = _read_document(args.fixture)
        ok, report, lines = run(doc, args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MathCheckError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    full = {"command": args.command, "fixture": args.fixture}
    full.update(plain(report))
    text = canonical_dumps(full)
    if lines is None:
        # twist: the fixture itself is the machine output
        text = serialize_document(report)
        sys.stdout.write(text)
    else:
        for line in lines:
            print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
