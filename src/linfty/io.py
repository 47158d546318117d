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
    except json.JSONDecodeError as e:
        raise InputError(f"not valid fixture JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("fixture document must be a JSON object")
    return doc


def scalar_from_json(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"{where}: scalar must be an integer or 'p/q' string")
    return parse_scalar(value)


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


class FixtureDocument:
    """Parsed and constructed fixture objects, plus the normalized raw form."""

    def __init__(self, raw):
        _check_fields(raw, ("format_version",) + _SECTIONS, "document")
        if raw.get("format_version") != FORMAT_VERSION:
            raise InputError(
                f"unsupported format_version {raw.get('format_version')!r}, "
                f"expected {FORMAT_VERSION!r}")
        self.raw = raw
        self.spaces = {}
        self.structures = {}
        self.morphisms = {}
        self.modules = {}
        self.module_morphisms = {}
        self.elements = {}
        self.covers = {}
        self.resolutions = {}
        self.ladders = {}
        for section in _SECTIONS:
            part = raw.get(section, {})
            if not isinstance(part, dict):
                raise InputError(f"section {section} must be an object")
            builder = getattr(self, f"_build_{section}")
            for name in part:
                builder(name, part[name])

    def _ref(self, table, name, where, kind):
        if name not in table:
            raise InputError(f"{where}: no {kind} named {name!r}")
        return table[name]

    def _build_spaces(self, name, obj):
        where = f"spaces.{name}"
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

    def _build_structures(self, name, obj):
        where = f"structures.{name}"
        _check_fields(obj, ("space", "components"), where)
        space = self._ref(self.spaces, obj.get("space"), where, "space")
        comps = components_from_json(obj.get("components", {}), where)
        self.structures[name] = LInftyStructure(space, comps, label=name)

    def _build_morphisms(self, name, obj):
        where = f"morphisms.{name}"
        _check_fields(obj, ("source", "target", "components"), where)
        source = self._ref(self.structures, obj.get("source"), where, "structure")
        target = self._ref(self.structures, obj.get("target"), where, "structure")
        comps = components_from_json(obj.get("components", {}), where)
        self.morphisms[name] = LInftyMorphism(source, target, comps, label=name)

    def _build_modules(self, name, obj):
        where = f"modules.{name}"
        _check_fields(obj, ("base", "space", "components"), where)
        base = self._ref(self.structures, obj.get("base"), where, "structure")
        space = self._ref(self.spaces, obj.get("space"), where, "space")
        comps = components_from_json(obj.get("components", {}), where,
                                     tensor_from_key)
        self.modules[name] = LInftyModule(base, space, comps, label=name)

    def _build_module_morphisms(self, name, obj):
        where = f"module_morphisms.{name}"
        _check_fields(obj, ("source", "target", "components"), where)
        source = self._ref(self.modules, obj.get("source"), where, "module")
        target = self._ref(self.modules, obj.get("target"), where, "module")
        comps = components_from_json(obj.get("components", {}), where,
                                     tensor_from_key)
        self.module_morphisms[name] = ModuleMorphism(source, target, comps,
                                                     label=name)

    def _build_elements(self, name, obj):
        where = f"elements.{name}"
        _check_fields(obj, ("space", "value"), where)
        space = self._ref(self.spaces, obj.get("space"), where, "space")
        value = element_from_json(obj.get("value", {}), where)
        for g in value:
            space.index(g)
        self.elements[name] = (space, value)

    def _build_covers(self, name, obj):
        where = f"covers.{name}"
        _check_fields(obj, ("opens", "nerve", "locals", "restrictions"), where)
        opens = obj.get("opens")
        nerve_raw = obj.get("nerve")
        if not isinstance(opens, list) or not isinstance(nerve_raw, list):
            raise InputError(f"{where}: opens and nerve must be lists")
        nerve = [tuple(a) for a in nerve_raw]
        locals_raw = obj.get("locals", {})
        if not isinstance(locals_raw, dict):
            raise InputError(f"{where}: locals must be an object")
        locals_ = {}
        for key, ref in locals_raw.items():
            locals_[tuple(key.split(","))] = self._ref(
                self.structures, ref, f"{where}.locals.{key}", "structure")
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
                self.morphisms, ref, f"{where}.restrictions.{key}", "morphism")
        self.covers[name] = CoverDescription(opens, nerve, locals_,
                                             restrictions, label=name)

    def _build_resolutions(self, name, obj):
        where = f"resolutions.{name}"
        if "cech_of" in obj:
            _check_fields(obj, ("cech_of", "global", "restrictions"), where)
            cover = self._ref(self.covers, obj.get("cech_of"), where, "cover")
            base = self._ref(self.structures, obj.get("global"), where,
                             "structure")
            restrictions_raw = obj.get("restrictions", {})
            if not isinstance(restrictions_raw, dict):
                raise InputError(f"{where}: restrictions must be an object")
            restrictions = {
                open_: self._ref(self.morphisms, ref,
                                 f"{where}.restrictions.{open_}", "morphism")
                for open_, ref in restrictions_raw.items()}
            self.resolutions[name] = build_cech_complex(
                cover, base, restrictions, label=name)
            return
        _check_fields(obj, ("base", "augmented", "levels", "augmentation",
                            "connecting"), where)
        base = self._ref(self.structures, obj.get("base"), where, "structure")
        augmented = self._ref(self.modules, obj.get("augmented"), where, "module")
        levels = [self._ref(self.modules, ref, where, "module")
                  for ref in obj.get("levels", [])]
        augmentation = self._ref(self.module_morphisms, obj.get("augmentation"),
                                 where, "module morphism")
        connecting = [self._ref(self.module_morphisms, ref, where,
                                "module morphism")
                      for ref in obj.get("connecting", [])]
        self.resolutions[name] = ResolutionDiagram(
            base, augmented, levels, augmentation, connecting, label=name)

    def _build_ladders(self, name, obj):
        where = f"ladders.{name}"
        _check_fields(obj, ("source", "target", "augmented_map", "level_maps"),
                      where)
        source = self._ref(self.resolutions, obj.get("source"), where,
                           "resolution")
        target = self._ref(self.resolutions, obj.get("target"), where,
                           "resolution")
        augmented_map = self._ref(self.module_morphisms,
                                  obj.get("augmented_map"), where,
                                  "module morphism")
        level_maps = [self._ref(self.module_morphisms, ref, where,
                                "module morphism")
                      for ref in obj.get("level_maps", [])]
        self.ladders[name] = ResolutionMorphism(
            source, target, augmented_map, level_maps, label=name)


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

    def add_space(self, space, hint):
        return self._find_or_add("spaces", space, lambda: space_json(space),
                                 hint, same=spaces_equal)

    def add_structure(self, structure, hint):
        space_name = self.add_space(structure.space, f"{hint}.space")
        return self._find_or_add("structures", structure, lambda: {
            "space": space_name,
            "components": components_json(structure.components)}, hint)

    def add_morphism(self, morphism, hint):
        src = self.add_structure(morphism.source, f"{hint}.source")
        tgt = self.add_structure(morphism.target, f"{hint}.target")
        return self._find_or_add("morphisms", morphism, lambda: {
            "source": src, "target": tgt,
            "components": components_json(morphism.components)}, hint)

    def add_module(self, module, hint):
        base = self.add_structure(module.base, f"{hint}.base")
        space = self.add_space(module.space, f"{hint}.mspace")
        return self._find_or_add("modules", module, lambda: {
            "base": base, "space": space,
            "components": components_json(module.components, tensor_key)}, hint)

    def add_module_morphism(self, mm, hint):
        src = self.add_module(mm.source, f"{hint}.source")
        tgt = self.add_module(mm.target, f"{hint}.target")
        return self._find_or_add("module_morphisms", mm, lambda: {
            "source": src, "target": tgt,
            "components": components_json(mm.components, tensor_key)}, hint)

    def add_element(self, space, value, hint):
        space_name = self.add_space(space, f"{hint}.space")
        name = self._fresh_name("elements", hint)
        self._section("elements")[name] = {"space": space_name,
                                           "value": element_json(value)}
        return name

    def add_cover(self, cover, hint):
        locals_ = {tuple_slot(a): self.add_structure(
            cover.local_structures[a], f"{hint}.{tuple_slot(a)}")
            for a in cover.nerve}
        restrictions = {
            f"{tuple_slot(a)}->{tuple_slot(b)}": self.add_morphism(
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

    def add_resolution(self, diagram, hint):
        base = self.add_structure(diagram.base, f"{hint}.base")
        augmented = self.add_module(diagram.augmented, f"{hint}.aug")
        levels = [self.add_module(m, f"{hint}.level{i}")
                  for i, m in enumerate(diagram.levels)]
        augmentation = self.add_module_morphism(diagram.augmentation,
                                                f"{hint}.F")
        connecting = [self.add_module_morphism(d, f"{hint}.d{i}")
                      for i, d in enumerate(diagram.connecting)]
        section = self._section("resolutions")
        if hint in section:
            raise InputError(f"resolution name {hint!r} already used")
        section[hint] = {
            "base": base,
            "augmented": augmented,
            "levels": levels,
            "augmentation": augmentation,
            "connecting": connecting,
        }
        return hint

    def add_ladder(self, ladder, hint):
        source = self.add_resolution(ladder.source, f"{hint}.src")
        target = self.add_resolution(ladder.target, f"{hint}.tgt")
        augmented_map = self.add_module_morphism(ladder.augmented_map,
                                                 f"{hint}.u")
        level_maps = [self.add_module_morphism(u, f"{hint}.u{i}")
                      for i, u in enumerate(ladder.level_maps)]
        section = self._section("ladders")
        if hint in section:
            raise InputError(f"ladder name {hint!r} already used")
        section[hint] = {
            "source": source,
            "target": target,
            "augmented_map": augmented_map,
            "level_maps": level_maps,
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
