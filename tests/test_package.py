import ast
import json
from pathlib import Path

import ancover
from oracles import run_python

SRC = Path(ancover.__file__).resolve().parents[1]


def _exported_names() -> list[str]:
    """Every name the package exports: those its __init__ imports, and
    those it resolves from ancover.bounds on first access."""
    tree = ast.parse((SRC / "ancover" / "__init__.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and node.targets[0].id == "_BOUNDS_NAMES":
            names += sorted(ast.literal_eval(node.value.args[0]))
    return names


def test_import_loads_no_bounds_suites_or_cli():
    names = _exported_names()
    assert "hook_bound" in names and "construct_witnesses" in names
    code = (
        "import json, sys\n"
        "import ancover\n"
        "loaded = [m for m in ('ancover.bounds', 'ancover.suites', 'ancover.cli') if m in sys.modules]\n"
        f"names = {names!r}\n"
        "missing = [n for n in names if not hasattr(ancover, n)]\n"
        "gone = [n for n in ('greedy_pack', 'packing_cycle', 'rebuild',\n"
        "        'find_opposite_valid_sequences', 'an_degree', 'abs_value_le_surd',\n"
        "        'is_covered_by', 'is_real_in_an', 'class_size') if hasattr(ancover, n)]\n"
        "import ancover.bounds, ancover.characters, ancover.oracle\n"
        "gone += [n for m, n in ((ancover.oracle, 'brute_an_conjugate'),\n"
        "        (ancover.characters, 'parse_irreducible_label'),\n"
        "        (ancover.Permutation, 'is_even'), (ancover.bounds.EProfile, 'E_fraction'),\n"
        "        (ancover.bounds, '_log_n_exact')) if hasattr(m, n)]\n"
        "print(json.dumps([loaded, missing, gone]))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded, missing, gone = json.loads(proc.stdout)
    assert loaded == []
    assert missing == []
    assert gone == []
