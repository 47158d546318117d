"""Fixture file format: restricted JSON, exact scalars, named cross-references.

A fixture document is a JSON object with a format_version and named
sections; every object is declared under a name and referenced by it:

  spaces            {"generators": [[name, degree, filtration], ...],
                     "order": N}           degrees are the stored (shifted) ones
  structures        {"space": ref, "components": {arity: {word: element}}}
  morphisms         {"source": ref, "target": ref, "components": ...}
  modules           {"base": ref, "space": ref, "components":
                     {arity: {"word@generator": element}}}
  module_morphisms  {"source": ref, "target": ref, "components": ...}
  elements          {"space": ref, "value": element}
  covers            {"opens": [...], "nerve": [[...], ...],
                     "locals": {tuple: ref}, "restrictions": {"a->b": ref}}
  resolutions       explicit {"base", "augmented", "levels", "augmentation",
                     "connecting"} or {"cech_of": cover, "global": ref,
                     "restrictions": {open: ref}}
  ladders           {"source", "target", "augmented_map", "level_maps"}

A ref is a name string; list fields are JSON arrays of refs.  The
reference fields of structures, morphisms, modules, module_morphisms,
explicit resolutions and ladders are in one table, SCHEMA, which both
FixtureDocument and FixtureWriter.add read.

Words are pipe-joined generator names with "" for the unit word; module
keys append "@generator".  Scalars are JSON integers or "p/q" strings;
floats are rejected at parse time.  Serialization is canonical: sorted
keys, two-space indent, trailing newline, scalars always strings.
"""

from fractions import Fraction
import json

from .graded import (
    GradedSpace,
    InputError,
    format_scalar,
    parse_scalar,
)
from .structures import LInftyMorphism, LInftyStructure, spaces_equal
from .modules import LInftyModule, ModuleMorphism
from .products import CoverDescription, build_cech_complex, tuple_slot
from .resolutions import ResolutionDiagram, ResolutionMorphism
from .homology import Matrix

FORMAT_VERSION = "1"

_SECTIONS = ("spaces", "structures", "morphisms", "modules",
             "module_morphisms", "elements", "covers", "resolutions",
             "ladders")


def _reject_float(value):
    raise InputError(f"exact scalars required: float literal {value!r} rejected")


def parse_fixture_text(text):
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         parse_constant=_reject_float)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise InputError(f"not valid fixture JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("fixture document must be a JSON object")
    return doc


def scalar_from_json(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"{where}: scalar must be an integer or 'p/q' string")
    try:
        return parse_scalar(value)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def element_from_json(obj, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: element must be an object")
    return {g: scalar_from_json(q, f"{where}.{g}") for g, q in obj.items()}


def element_json(element):
    return {g: format_scalar(q) for g, q in sorted(element.items())}


def word_key(word):
    return "|".join(word)


def word_from_key(key, where):
    if not isinstance(key, str):
        raise InputError(f"{where}: word key must be a string")
    return () if key == "" else tuple(key.split("|"))


def tensor_key(key):
    word, mgen = key
    return f"{word_key(word)}@{mgen}"


def tensor_from_key(key, where):
    if not isinstance(key, str) or key.count("@") != 1:
        raise InputError(f"{where}: module key must look like 'word@generator'")
    wkey, mgen = key.split("@")
    return word_from_key(wkey, where), mgen


def components_from_json(obj, where, key_from=word_from_key):
    """Component tables from JSON; key_from decodes one word or tensor key."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: components must be an object")
    out = {}
    for arity, table in obj.items():
        try:
            k = int(arity)
        except (TypeError, ValueError):
            raise InputError(f"{where}: arity key {arity!r} is not an integer") from None
        if not isinstance(table, dict):
            raise InputError(f"{where}[{arity}]: expected an object")
        out[k] = {key_from(key, f"{where}[{arity}]"):
                  element_from_json(value, f"{where}[{arity}].{key}")
                  for key, value in table.items()}
    return out


def components_json(components, key_json=word_key):
    """JSON form of component tables; key_json encodes one key."""
    return {str(k): {key_json(key): element_json(value)
                     for key, value in sorted(table.items())}
            for k, table in sorted(components.items()) if table}


def _check_fields(obj, allowed, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InputError(f"{where}: unknown field {sorted(unknown)}")


# The reference structure of the format, read by FixtureDocument and
# FixtureWriter alike: section -> (class, key codec, reference fields).  The
# key codec (decode, encode) of a component table section is None for
# resolutions and ladders.  A reference field is (field, section it names an
# object of, writer name suffix, holds a list); fields are the class's
# attribute names, in constructor order, and a list entry's name suffix ends
# in its index.
SCHEMA = {
    "structures": (LInftyStructure, (word_from_key, word_key), (
        ("space", "spaces", "space", False),)),
    "morphisms": (LInftyMorphism, (word_from_key, word_key), (
        ("source", "structures", "source", False),
        ("target", "structures", "target", False))),
    "modules": (LInftyModule, (tensor_from_key, tensor_key), (
        ("base", "structures", "base", False),
        ("space", "spaces", "mspace", False))),
    "module_morphisms": (ModuleMorphism, (tensor_from_key, tensor_key), (
        ("source", "modules", "source", False),
        ("target", "modules", "target", False))),
    "resolutions": (ResolutionDiagram, None, (
        ("base", "structures", "base", False),
        ("augmented", "modules", "aug", False),
        ("levels", "modules", "level", True),
        ("augmentation", "module_morphisms", "F", False),
        ("connecting", "module_morphisms", "d", True))),
    "ladders": (ResolutionMorphism, None, (
        ("source", "resolutions", "src", False),
        ("target", "resolutions", "tgt", False),
        ("augmented_map", "module_morphisms", "u", False),
        ("level_maps", "module_morphisms", "u", True))),
}
_SECTION_OF = {cls: section for section, (cls, _, _) in SCHEMA.items()}
# The fields each section allows, worked out once rather than per object.
_FIELDS = {section: [ref[0] for ref in refs] + (["components"] if codec else [])
           for section, (_, codec, refs) in SCHEMA.items()}


def _kind(section):
    """Singular noun of a section for messages: module_morphisms -> module morphism."""
    return section[:-1].replace("_", " ")


class FixtureDocument:
    """Parsed and constructed fixture objects, plus the normalized raw form."""

    def __init__(self, raw):
        _check_fields(raw, ("format_version",) + _SECTIONS, "document")
        if raw.get("format_version") != FORMAT_VERSION:
            raise InputError(
                f"unsupported format_version {raw.get('format_version')!r}, "
                f"expected {FORMAT_VERSION!r}")
        self.raw = raw
        for section in _SECTIONS:
            setattr(self, section, {})  # name -> object, one table per section
        for section in _SECTIONS:
            part = raw.get(section, {})
            if not isinstance(part, dict):
                raise InputError(f"section {section} must be an object")
            build = getattr(self, f"_build_{section}", self._build)
            for name, obj in part.items():
                where = f"{section}.{name}"
                try:
                    build(section, name, obj)
                except InputError as exc:  # a library text names no object
                    if not str(exc).startswith(
                            (f"{where}:", f"{where}.", f"{where}[")):
                        raise InputError(f"{where}: {exc}") from exc
                    raise

    def _ref(self, section, name, where):
        try:
            return getattr(self, section)[name]
        except (KeyError, TypeError):  # TypeError: a list or object as a name
            raise InputError(f"{where}: no {_kind(section)} named {name!r}") from None

    def _build(self, section, name, obj):
        """Build one object of a SCHEMA section: references, then components."""
        cls, codec, refs = SCHEMA[section]
        where = f"{section}.{name}"
        _check_fields(obj, _FIELDS[section], where)
        args = []
        for field, target, _, many in refs:
            if not many:
                args.append(self._ref(target, obj.get(field), where))
                continue
            names = obj.get(field, [])
            if not isinstance(names, list):
                raise InputError(f"{where}: {field} must be a list")
            args.append([self._ref(target, ref, where) for ref in names])
        if codec:
            args.append(components_from_json(obj.get("components", {}), where,
                                             codec[0]))
        getattr(self, section)[name] = cls(*args, label=name)

    def _build_spaces(self, section, name, obj):
        where = f"{section}.{name}"
        _check_fields(obj, ("generators", "order"), where)
        gens = obj.get("generators")
        if not isinstance(gens, list):
            raise InputError(f"{where}: generators must be a list")
        triples = []
        for row in gens:
            if not (isinstance(row, list) and len(row) == 3
                    and isinstance(row[0], str)
                    and isinstance(row[1], int) and not isinstance(row[1], bool)
                    and isinstance(row[2], int) and not isinstance(row[2], bool)):
                raise InputError(
                    f"{where}: each generator is [name, degree, filtration]")
            triples.append((row[0], row[1], row[2]))
        order = obj.get("order")
        if not isinstance(order, int) or isinstance(order, bool):
            raise InputError(f"{where}: order must be an integer")
        self.spaces[name] = GradedSpace(triples, order, label=name)

    def _build_elements(self, section, name, obj):
        where = f"{section}.{name}"
        _check_fields(obj, ("space", "value"), where)
        space = self._ref("spaces", obj.get("space"), where)
        value = element_from_json(obj.get("value", {}), where)
        for g in value:
            space.index(g)
        self.elements[name] = (space, value)

    def _build_covers(self, section, name, obj):
        where = f"{section}.{name}"
        _check_fields(obj, ("opens", "nerve", "locals", "restrictions"), where)
        opens = obj.get("opens")
        nerve_raw = obj.get("nerve")
        if not isinstance(opens, list) or not isinstance(nerve_raw, list):
            raise InputError(f"{where}: opens and nerve must be lists")
        if not all(isinstance(o, str) for o in opens):
            raise InputError(f"{where}: every open must be a name string")
        if not all(isinstance(a, list) and all(isinstance(o, str) for o in a)
                   for a in nerve_raw):
            raise InputError(
                f"{where}: every nerve entry must be a list of open names")
        nerve = [tuple(a) for a in nerve_raw]
        locals_raw = obj.get("locals", {})
        if not isinstance(locals_raw, dict):
            raise InputError(f"{where}: locals must be an object")
        locals_ = {}
        for key, ref in locals_raw.items():
            locals_[tuple(key.split(","))] = self._ref(
                "structures", ref, f"{where}.locals.{key}")
        restrictions_raw = obj.get("restrictions", {})
        if not isinstance(restrictions_raw, dict):
            raise InputError(f"{where}: restrictions must be an object")
        restrictions = {}
        for key, ref in restrictions_raw.items():
            if key.count("->") != 1:
                raise InputError(
                    f"{where}.restrictions: key {key!r} must look like 'a->b'")
            a, b = key.split("->")
            restrictions[(tuple(a.split(",")), tuple(b.split(",")))] = self._ref(
                "morphisms", ref, f"{where}.restrictions.{key}")
        self.covers[name] = CoverDescription(opens, nerve, locals_,
                                             restrictions, label=name)

    def _build_resolutions(self, section, name, obj):
        if not (isinstance(obj, dict) and "cech_of" in obj):
            self._build(section, name, obj)
            return
        where = f"{section}.{name}"
        _check_fields(obj, ("cech_of", "global", "restrictions"), where)
        cover = self._ref("covers", obj.get("cech_of"), where)
        base = self._ref("structures", obj.get("global"), where)
        restrictions_raw = obj.get("restrictions", {})
        if not isinstance(restrictions_raw, dict):
            raise InputError(f"{where}: restrictions must be an object")
        restrictions = {
            open_: self._ref("morphisms", ref, f"{where}.restrictions.{open_}")
            for open_, ref in restrictions_raw.items()}
        self.resolutions[name] = build_cech_complex(
            cover, base, restrictions, label=name)


def load_document(text):
    return FixtureDocument(parse_fixture_text(text))


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def serialize_document(raw):
    return canonical_dumps(raw)


# -- serializers ---------------------------------------------------------------------

def space_json(space):
    return {
        "generators": [[g, space.degree(g), space.filtration(g)]
                       for g in space.basis],
        "order": space.nilpotency_order,
    }


class FixtureWriter:
    """Accumulates named objects into a raw document, deduplicating by value."""

    def __init__(self):
        self.raw = {"format_version": FORMAT_VERSION}
        self._registries = {}  # section -> name -> object, for deduplication

    def _section(self, name):
        return self.raw.setdefault(name, {})

    def _fresh_name(self, section, hint):
        name = hint
        suffix = 1
        while name in self._section(section):
            suffix += 1
            name = f"{hint}.{suffix}"
        return name

    def _find_or_add(self, section, obj, payload_fn, hint, same=None):
        registry = self._registries.setdefault(section, {})
        for name, known in registry.items():
            if (same(known, obj) if same else known == obj):
                return name
        name = self._fresh_name(section, hint)
        registry[name] = obj
        self._section(section)[name] = payload_fn()
        return name

    def add(self, obj, hint):
        """Name obj in the SCHEMA section of its class (or in spaces), after
        what it refers to.  Spaces and component tables are deduplicated by
        value; a resolution or ladder name is used once.  Returns the name
        the object is written under.
        """
        if isinstance(obj, GradedSpace):
            return self._find_or_add("spaces", obj, lambda: space_json(obj),
                                     hint, same=spaces_equal)
        section = _SECTION_OF.get(type(obj))
        if section is None:
            raise TypeError(f"no fixture section for {type(obj).__name__}")
        _, codec, refs = SCHEMA[section]
        payload = {}
        for field, _, suffix, many in refs:
            value = getattr(obj, field)
            payload[field] = ([self.add(v, f"{hint}.{suffix}{i}")
                               for i, v in enumerate(value)] if many
                              else self.add(value, f"{hint}.{suffix}"))
        if codec:
            return self._find_or_add(section, obj, lambda: {
                **payload,
                "components": components_json(obj.components, codec[1])}, hint)
        part = self._section(section)
        if hint in part:
            raise InputError(f"{_kind(section)} name {hint!r} already used")
        part[hint] = payload
        return hint

    def add_element(self, space, value, hint):
        space_name = self.add(space, f"{hint}.space")
        name = self._fresh_name("elements", hint)
        self._section("elements")[name] = {"space": space_name,
                                           "value": element_json(value)}
        return name

    def add_cover(self, cover, hint):
        locals_ = {tuple_slot(a): self.add(
            cover.local_structures[a], f"{hint}.{tuple_slot(a)}")
            for a in cover.nerve}
        restrictions = {
            f"{tuple_slot(a)}->{tuple_slot(b)}": self.add(
                r, f"{hint}.r.{tuple_slot(a)}.{tuple_slot(b)}")
            for (a, b), r in sorted(cover.restrictions.items())}
        section = self._section("covers")
        if hint in section:
            raise InputError(f"cover name {hint!r} already used")
        section[hint] = {
            "opens": list(cover.opens),
            "nerve": [list(a) for a in cover.nerve],
            "locals": locals_,
            "restrictions": restrictions,
        }
        return hint


# -- report plumbing ------------------------------------------------------------------

def plain(value):
    """Recursively convert report values into canonical JSON-ready data."""
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, Matrix):
        return [[format_scalar(q) for q in row] for row in value.rows]
    if isinstance(value, dict):
        return {_plain_key(k): plain(v) for k, v in sorted(
            value.items(), key=lambda kv: _plain_key(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    raise InputError(f"cannot serialize report value of type {type(value).__name__}")


def _plain_key(key):
    if isinstance(key, tuple):
        return ",".join(str(k) for k in key)
    return str(key)
