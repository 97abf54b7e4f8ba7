"""The repository's tools, checked without running them in full."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edit_matches_its_source_once():
    # ``tools/mutants.py`` refuses an edit that does not match exactly once,
    # but only when its full run reaches it.
    counts = {
        mutant.label: (ROOT / mutant.path).read_text().count(mutant.old)
        for mutant in load_tool("mutants").MUTANTS
    }
    assert counts == dict.fromkeys(counts, 1)
