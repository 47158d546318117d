#!/usr/bin/env python3
"""Regenerate the shipped fixture corpus from the in-package builders.

Writes one document per registry entry into fixtures/ (or a directory given
as the first argument).  Elements needed by the CLI examples are attached
alongside the objects that use them.
"""

import sys
from pathlib import Path

from linfty.fixtures import REGISTRY, morphism_t
from linfty.io import FixtureWriter, serialize_document
from linfty.resolutions import ResolutionDiagram, ResolutionMorphism
from linfty.graded import ONE


def document_for(name, obj):
    writer = FixtureWriter()
    writer.add(obj, name)
    # the twist data live on the space of the structure everything sits over
    base = obj.source if isinstance(obj, ResolutionMorphism) else obj
    base = base.base if isinstance(base, ResolutionDiagram) else base
    _attach_elements(writer, name, base.space)
    return writer.raw


def _attach_elements(writer, name, space):
    # every degree-0 generator is a candidate twist datum worth naming
    writer.add_element(space, {}, "zero")
    for g in space.basis:
        if space.degree(g) == 0 and space.filtration(g) >= 1:
            writer.add_element(space, {g: ONE}, g)
    if name in ("fix_b", "fix_b2"):
        writer.add_element(space, {"x": 2}, "2x")


def pair_document():
    """fix_b, fix_b2 and the doubling morphism between them, in one file."""
    writer = FixtureWriter()
    t = morphism_t()
    writer.add(t.source, "fix_b")
    writer.add(t.target, "fix_b2")
    writer.add(t, "t")
    _attach_elements(writer, "fix_b", t.source.space)
    return writer.raw


def documents():
    """File name -> serialized text of every shipped fixture document."""
    raws = {name: document_for(name, builder())
            for name, builder in REGISTRY.items()}
    raws["fix_b_pair"] = pair_document()
    return {f"{name}.json": serialize_document(raw)
            for name, raw in sorted(raws.items())}


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in documents().items():
        path = out_dir / filename
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
