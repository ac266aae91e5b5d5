import ast
import copy
import dataclasses
import json
import pickle
from pathlib import Path

import pytest

import ancover
from ancover import bounds, characters, classalgebra, combinatorics, constructor, permutations
from ancover.classalgebra import CoverageReport
from ancover.combinatorics import Record, SubpartitionKind, TypedSubpartition, frobenius_symbol
from ancover.constructor import Interval, PackingPlan, ValidSequence, construct_witnesses
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
        "        'is_covered_by', 'is_real_in_an', 'class_size', 'an_character_value',\n"
        "        'mn_value', 'kappa', 'amgm_report', 'min_split_degree_report', 'degree',\n"
        "        'EProfile', 'e_profile')\n"
        "        if hasattr(ancover, n)]\n"
        "import ancover.bounds, ancover.characters, ancover.oracle, ancover.permutations\n"
        "gone += [n for m, n in ((ancover.oracle, 'brute_an_conjugate'),\n"
        "        (ancover.characters, 'parse_irreducible_label'),\n"
        "        (ancover.Permutation, 'is_even')) if hasattr(m, n)]\n"
        "gone += [n for n in ('an_character_value', 'mn_value') if hasattr(ancover.characters, n)]\n"
        "gone += [n for n in ('conjugate', 'kappa', 'random_permutation',\n"
        "        'random_even_permutation') if hasattr(ancover.permutations, n)]\n"
        "gone += [n for n in ('rational', '__add__', '__sub__', '__neg__', '__mul__',\n"
        "        'conjugate', 'galois_conjugate', 'norm_squared') if hasattr(ancover.AlgebraicValue, n)]\n"
        "gone += [n for m, n in ((ancover.CharacterTable, 'verify_split_pair_sums'),\n"
        "        (ancover.Permutation, 'support'), (ancover.ValidSequence, 'cycle')) if hasattr(m, n)]\n"
        "gone += [n for n in ('load', 'from_json_dict', 'value') if hasattr(ancover.CharacterTable, n)]\n"
        "gone += [n for m, n in ((ancover.characters, '_listed_class_labels'),\n"
        "        (ancover.characters, '_add_rim_hooks'),\n"
        "        (ancover.permutations, 'iter_an_class_labels'), (ancover.Interval, 'points'),\n"
        "        (ancover.Interval, 'length'),\n"
        "        (ancover.combinatorics.FrobeniusSymbol, 'm'),\n"
        "        (ancover.combinatorics.TypedSubpartition, 'size'),\n"
        "        (ancover.Permutation, 'identity')) if hasattr(m, n)]\n"
        "gone += [n for n in ('amgm_report', 'AmGmReport', 'min_split_degree_report',\n"
        "        'SplitDegreeEntry', 'SplitDegreeReport', 'REPORT_LIMIT', 'EProfile', 'e_profile',\n"
        "        'E_fraction', '_log_n_exact', 'e_float', 'E_float') if hasattr(ancover.bounds, n)]\n"
        "gone += [n for n in ('enumerate_distinct_partitions', 'self_conjugate_partitions',\n"
        "        'partition_from_diagonal_hooks') if hasattr(ancover.combinatorics, n)]\n"
        "gone += [n for n in ('to_json_dict', 'asserted') if hasattr(ancover.bounds.Prop24Report, n)]\n"
        "print(json.dumps([loaded, missing, gone]))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded, missing, gone = json.loads(proc.stdout)
    assert loaded == []
    assert missing == []
    assert gone == []


def test_every_definition_in_src_has_a_user():
    """Every function, class and method of ``src/ancover`` (dunders aside)
    is named somewhere in the package's other modules, the demos or
    perfbench, so ``src/`` holds only what commands, demos and perfbench
    use.  Code only tests run belongs in ``tests/oracles.py``.

    A module-level function or class counts as used when it is named in
    its own module, imported by name, or reached as an attribute
    (``module.name``); a bare name in another module is some other thing
    of the same spelling, say a local variable.  A method counts only
    through an attribute (``x.name``), the one way it can be reached.
    ``__init__.py`` does not count, as its imports are re-exports, and
    neither do strings or comments.  Blind spot: a definition whose name
    is also used for something else in its own module, or as an
    attribute anywhere, say a method of the same name on another class
    (``json.load`` for a ``load`` method), counts as used.  The names this
    has missed are pinned in ``test_import_loads_no_bounds_suites_or_cli``.
    """
    root = SRC.parent
    users = [p for p in sorted((SRC / "ancover").glob("*.py")) if p.name != "__init__.py"]
    users += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    assert len(users) > 10
    named: dict[Path, set[str]] = {path: set() for path in users}
    imported, attributes = set(), set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named[path].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                imported.add(node.name)
    unused = []

    def visit(body, prefix, mentioned):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in mentioned:
                    unused.append(prefix + name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{name}.", attributes)

    for path in sorted((SRC / "ancover").glob("*.py")):
        own = named.get(path, set())
        visit(ast.parse(path.read_text()).body, f"{path.stem}.", own | imported | attributes)
    assert unused == []


# dataclasses loads inspect (and ast, dis, tokenize), and every command
# pays for the imports of the package before any arithmetic.
SLOW_IMPORTS = ("dataclasses", "inspect")


def test_no_module_imports_dataclasses_or_inspect():
    found = []
    for path in sorted((SRC / "ancover").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in SLOW_IMPORTS]
    assert found == []


def test_commands_and_workers_load_neither_dataclasses_nor_inspect():
    # The package, then the modules a perfbench worker imports, then the
    # CLI, each step checked in the same interpreter.
    code = (
        "import json, sys\n"
        f"slow = {SLOW_IMPORTS!r}\n"
        "steps = []\n"
        "import ancover\n"
        "steps.append([m for m in slow if m in sys.modules])\n"
        "import ancover.characters, ancover.classalgebra, ancover.combinatorics\n"
        "import ancover.constructor, ancover.oracle, ancover.permutations\n"
        "steps.append([m for m in slow if m in sys.modules])\n"
        "import ancover.cli\n"
        "steps.append([m for m in slow if m in sys.modules])\n"
        "print(json.dumps(steps))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], []]


def _value_samples() -> list:
    """One instance of every value class, and two of different classes
    with equal fields."""
    p = ancover.Partition((2, 2, 1))
    label = ancover.ClassLabel(ancover.Partition((5,)), "+")
    return [
        p,
        frobenius_symbol(ancover.Partition((3, 1, 1))),
        TypedSubpartition(SubpartitionKind.ODD_PART, ancover.Partition((7,))),
        ancover.Permutation([2, 3, 1]),
        ancover.ClassLabel(p),
        label,
        ancover.AlgebraicValue(1, 2, 5),
        ancover.IrreducibleLabel(p),
        CoverageReport(5, label, label, [ancover.ClassLabel(p)]),
        Interval(3, 5),
        PackingPlan(0, 5, (Interval(3, 5),), (0,)),
        ValidSequence((5, 1, 2, 3, 4)),
        construct_witnesses(ancover.Partition((13,)), ancover.Partition((7, 5, 1)), strict=False),
        bounds.prop24_certificate(7),
    ]


def test_value_classes_keep_the_dataclass_contract():
    samples = _value_samples()
    modules = (bounds, characters, classalgebra, combinatorics, constructor, permutations)
    value_classes = {
        c
        for m in modules
        for c in vars(m).values()
        if isinstance(c, type) and issubclass(c, Record) and c is not Record
    }
    assert {type(x) for x in samples} == value_classes
    assert len(value_classes) == 13
    # A ClassLabel and an IrreducibleLabel with equal fields: equal hashes,
    # unequal values (checked with every other pair below).
    assert samples[4]._fields() == samples[7]._fields()
    # Every value class is frozen, and no class keyword makes one mutable.
    assert samples[8].uncovered == (samples[4],)
    with pytest.raises(TypeError):
        type("Mutable", (Record,), {"__slots__": ()}, frozen=False)
    for x in samples:
        cls = type(x)
        names = cls.__slots__
        values = tuple(getattr(x, name) for name in names)
        reference = dataclasses.make_dataclass(cls.__name__, names, frozen=True)(*values)
        assert repr(x) == repr(reference)
        assert hash(x) == hash(values) == hash(reference)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        for y in samples:
            assert (x == y) == (cls is type(y) and values == y._fields())
        assert x != values and x != reference and reference != x
        twin = copy.copy(x)
        assert type(twin) is cls and twin == x and twin._fields() == values
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(x, protocol))
            assert type(back) is cls and back == x

