"""The library's layering: the decoders read only the 4x4 matrices they are
given, and the one-instance layer that perfbench/tracer.py binds stays in
one block at the end of ``decoders`` and one at the end of ``codes``, so
that deleting it (ROADMAP item 16) touches nothing else."""

import ast
import re
from pathlib import Path

import stcsim
from stcsim import decoders

# The start of each one-instance block; the block runs to the end of its module.
BLOCK = "# The one-instance layer"
LAYER = {
    "decoders.py": ("decode_exhaustive", "decode_fast_golden", "decode_sphere_conventional",
                    "decode_alamouti_fast"),
    "codes.py": ("EffectiveChannel", "effective_channel"),
}
NAMES = tuple(name for names in LAYER.values() for name in names)
SOURCES = sorted(Path(stcsim.__file__).parent.glob("*.py"))


def test_decoders_import_nothing_of_codes():
    assert not hasattr(decoders, "EffectiveChannel") and not hasattr(decoders, "codes")
    imported = [node.module for node in ast.walk(ast.parse(Path(decoders.__file__).read_text()))
                if isinstance(node, ast.ImportFrom)]
    assert "codes" not in imported


def test_one_instance_names_stay_in_their_blocks():
    """Outside its two blocks no module of the library names the one-instance
    layer, not even in a docstring or a comment, and the package does not
    export it; each block defines its names."""
    assert not [name for name in NAMES if hasattr(stcsim, name)]
    assert {path.name for path in SOURCES} >= set(LAYER)
    pattern = re.compile(r"\b(" + "|".join(NAMES) + r")\b")
    for path in SOURCES:
        text = path.read_text()
        start = text.find(BLOCK) if BLOCK in text else len(text)
        outside, block = text[:start], text[start:]
        assert bool(block) == (path.name in LAYER), path.name
        assert pattern.findall(outside) == [], path.name
        defined = {node.name for node in ast.parse(block).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert defined >= set(LAYER.get(path.name, ())), path.name
