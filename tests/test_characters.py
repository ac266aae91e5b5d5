import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ancover.characters import (
    AlgebraicValue,
    CharacterTable,
    IrreducibleLabel,
    LimitExceeded,
    TableCheckFailed,
    an_character_table,
    hook_size,
    mn_values,
)
from ancover.combinatorics import Partition, enumerate_partitions, transpose
from ancover.permutations import ClassLabel, an_class_labels, an_class_size, parse_class_label

from oracles import (
    an_degree,
    broken_orthogonality,
    cell,
    degree,
    mn_cellwise,
    reference_column_sums,
    row_max_scan,
    run_python,
    sn_character_table_oracle,
    verify_split_pair_sums,
)


# -- AlgebraicValue -----------------------------------------------------------


def test_algebraic_value_normalization():
    assert AlgebraicValue(1, 1, 8) == AlgebraicValue(1, 2, 2)
    assert AlgebraicValue(3, 0, 5).d == 1
    assert AlgebraicValue(1, 2, 0) == AlgebraicValue(1)
    assert AlgebraicValue(1, 2, 1) == AlgebraicValue(3)
    v = AlgebraicValue(Fraction(1, 2), Fraction(1, 2), -27)
    assert v.d == -3 and v.b == Fraction(3, 2)


# -- Murnaghan-Nakayama values ------------------------------------------------


def test_mn_matches_independent_oracle():
    # Permutation-module peeling never touches the rim-hook recursion.
    for n in range(1, 7):
        oracle = sn_character_table_oracle(n)
        parts = list(enumerate_partitions(n))
        for mu in parts:
            expected = [oracle[(lam.parts, mu.parts)] for lam in parts]
            assert mn_values(parts, mu) == expected, mu


def test_mn_matches_cellwise_recursion():
    # Every cell up to n = 14, odd cycle types included: one whole column
    # per call against the per-cell beta-set recursion.
    for n in range(1, 15):
        parts = list(enumerate_partitions(n))
        for mu in parts:
            expected = [mn_cellwise(lam.parts, mu.parts) for lam in parts]
            assert mn_values(parts, mu) == expected, mu


def test_mn_frozen_values():
    assert mn_values([Partition((2, 2))], Partition((2, 1, 1))) == [0]
    assert mn_values([Partition((5,))], Partition((3, 1, 1))) == [1]
    assert mn_values([Partition((3, 1, 1))], Partition((5,))) == [1]


def test_mn_on_ncycle_hooks_only():
    for n in (5, 6, 7, 9):
        lams = list(enumerate_partitions(n))
        for lam, v in zip(lams, mn_values(lams, Partition((n,)))):
            if hook_size(lam) is not None:
                assert v in (1, -1)
            else:
                assert v == 0


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_values([Partition((3,))], Partition((2,)))
    with pytest.raises(ValueError):
        mn_values([Partition((2,)), Partition((3,))], Partition((2,)))


def test_mn_transpose_sign_twist():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(2, 13)
        lams = list(enumerate_partitions(n))
        lam = rng.choice(lams)
        mu = rng.choice(lams)
        sign = -1 if (n - len(mu.parts)) % 2 else 1
        twisted, value = mn_values([transpose(lam), lam], mu)
        assert twisted == sign * value


def test_mn_matches_cellwise_past_n_14():
    # A table build evaluates only the larger lam of each transpose pair;
    # mn_values is checked on sampled cells past the exhaustive range, each
    # lam with its transpose, on even and odd types alike.
    rng = random.Random(22)
    parities = set()
    for n in range(15, 19):
        lams = list(enumerate_partitions(n))
        for mu in rng.sample(lams, 8):
            parities.add(mu.is_even_type())
            sample = [lam for lam in rng.sample(lams, 5) if transpose(lam) != lam]
            pairs = [x for lam in sample for x in (lam, transpose(lam))]
            expected = [mn_cellwise(lam.parts, mu.parts) for lam in pairs]
            assert mn_values(pairs, mu) == expected, mu
    assert parities == {True, False}


def test_degree():
    assert degree(Partition((7,))) == 1
    assert degree(Partition((3, 1, 1))) == 6
    for n in range(1, 9):
        lams = list(enumerate_partitions(n))
        assert list(map(degree, lams)) == mn_values(lams, Partition([1] * n))


def test_hook_size():
    assert hook_size(Partition((6,))) == 1
    assert hook_size(Partition([1] * 6)) == 1
    assert hook_size(Partition((4, 1, 1, 1))) == 4
    assert hook_size(Partition((4, 2))) is None
    # size (n+1)/2 hook for odd n: both sides equal
    assert hook_size(Partition((7,) + (1,) * 6)) == 7


# -- A_n character values -----------------------------------------------------


def test_trivial_character_is_one():
    table = an_character_table(6)
    triv = IrreducibleLabel(Partition((6,)))
    for cls in table.classes:
        assert cell(table, triv, cls) == AlgebraicValue(1)


def test_a5_split_values():
    table = an_character_table(5)
    chi = IrreducibleLabel(Partition((3, 1, 1)), "+")
    plus = ClassLabel(Partition((5,)), "+")
    minus = ClassLabel(Partition((5,)), "-")
    assert cell(table, chi, plus) == AlgebraicValue(Fraction(1, 2), Fraction(1, 2), 5)
    assert cell(table, chi, minus) == AlgebraicValue(Fraction(1, 2), Fraction(-1, 2), 5)
    other = ClassLabel(Partition((3, 1, 1)))
    (parent,) = mn_values([Partition((3, 1, 1))], Partition((3, 1, 1)))
    assert cell(table, chi, other) == AlgebraicValue(Fraction(parent, 2))


def test_complex_split_values_at_n7():
    # (4,1,1,1) is self-conjugate with hook 7; eps = -1 gives complex values.
    chi = IrreducibleLabel(Partition((4, 1, 1, 1)), "+")
    plus = ClassLabel(Partition((7,)), "+")
    v = cell(an_character_table(7), chi, plus)
    assert v.d == -7 and v.a == Fraction(-1, 2)


def test_degrees_and_counts():
    t5 = an_character_table(5)
    assert sorted(t5.degrees()) == [1, 3, 3, 4, 5]
    t4 = an_character_table(4)
    assert sorted(t4.degrees()) == [1, 1, 1, 3]
    for n in range(2, 10):
        t = an_character_table(n)
        assert len(t.classes) == len(t.irreducibles)
        assert sum(d * d for d in t.degrees()) == t.group_order


def test_orthogonality_and_split_sums_small():
    for n in range(2, 9):
        t = an_character_table(n)
        t.verify_orthogonality()
        verify_split_pair_sums(t)


@pytest.mark.parametrize("n", range(14, 23))
def test_exact_checks_past_the_default_limit(n):
    t = an_character_table(n)
    t.verify_orthogonality()
    verify_split_pair_sums(t)


# sha256 of json.dumps(an_character_table(n).to_json_dict(), sort_keys=True),
# as built by the per-cell recursion before the column-wise rule replaced it
# (A_10..A_16), by the column-wise rule before the build took hook
# removals at the irreducibles only (A_17..A_20), and by the hook-removal
# build before the table limit rose from 16 to 24 (A_21..A_24).
TABLE_DIGESTS = {
    10: "eec523bb0ed61a869a88e95093cb9194c11af53e7b6621f19eae9de4dd4839c0",
    11: "37acf215f45bb24c26bff803ea0752c101ef975e5cf5cc16eb15fcd91354c563",
    12: "b4e84c546b718ffc08822470f8a03949f2a0ec3123c9be0b398b3ba3f0bb0a6c",
    13: "f449a30c2c5cdeee93f7a89293141f40abc4047833dbcf6befe933f887f2569a",
    14: "ec671fa09555b3fb9c407b8425b9099ee998f05431d6e703f53823f0fcb78d20",
    15: "c7ed599d76b8c156d2679e33ccb6702913068d32d3e9bdaa00d9da2f97eb1231",
    16: "ba681d7b153b4438b52d8b041caaacbe37c746cde2ed02c00f46b43f9f8fbefc",
    17: "5a095f156e5818a6c83389b5f3e16ac6259926af03c5633a4f4f83d87be630e6",
    18: "ce732fe876358d82c170b38d247313ac5a69d8fae273797e7bcac67274272c75",
    19: "60777f44823cf80f9fe4b3915cb6ac4e736494476580c9f6e03ec58c01a8c54d",
    20: "78103b15bb44d44efeb131f091e629f91eaa3ee257dd838ac42ed511f2c3ac27",
    21: "8853b1769e19f259f50a00ef8c166d33d4cadd7a72e116183d3c3d1160c39ca4",
    22: "98e806bca2cfa49ebc3e4e709fac4ba190491df7bb08e1609841248a414f88f8",
    23: "5bf256fd2e33efb489134c4c1ca90dfbb34105690fda912e4ea0997ea194c34a",
    24: "c2cc876ed9e09199afbc8498c49c0b5d9851b88268c85ea922bc6896602bb190",
}


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_table_digests_are_pinned(n):
    text = json.dumps(an_character_table(n).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[n]


# The hook lists of the MN step are module-level and shared by every
# build and mn_values call of a process, so these run in fresh processes.


def _fresh_run(code: str):
    proc = run_python("-c", "import json\nfrom ancover import characters as C\n" + code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tables_built_out_of_order_in_one_process_keep_their_digests():
    # A_16 lists sizes up to 15, which A_11 and A_13 then read; A_20 adds
    # sizes 16..19 on top of lists it did not make.
    digests = _fresh_run(
        "import hashlib\nout = {}\n"
        "for n in (16, 11, 20, 13):\n"
        "    text = json.dumps(C.an_character_table(n).to_json_dict(), sort_keys=True)\n"
        "    out[n] = hashlib.sha256(text.encode()).hexdigest()\n"
        "print(json.dumps(out))\n"
    )
    assert digests == {str(n): TABLE_DIGESTS[n] for n in (16, 11, 20, 13)}


def test_import_keeps_no_hook_lists():
    assert _fresh_run(
        "import ancover\nprint(json.dumps([len(C._PARTITION_INDEX), len(C._RIM_HOOKS)]))\n"
    ) == [0, 0]


def test_a_build_keeps_hook_lists_only_below_its_degree():
    # The lists at the table's own irreducibles are not kept; the partition
    # index of n itself is the labelling walk's.
    sizes, indexed = _fresh_run(
        "C.an_character_table(12)\n"
        "print(json.dumps([sorted({m for m, _ in C._RIM_HOOKS}), sorted(C._PARTITION_INDEX)]))\n"
    )
    assert sizes and max(sizes) < 12
    assert indexed == list(range(13))


def test_mn_values_past_the_table_limit_keeps_nothing_new():
    rng = random.Random(28)
    mu = (12, 7, 4, 3)  # its suffix sizes 3, 7 and 14, and 14 at the top
    lams = rng.sample(list(enumerate_partitions(26)), 6)
    kept, values, after = _fresh_run(
        "from ancover.combinatorics import Partition\n"
        "C.an_character_table(10)\n"
        "def keys():\n"
        "    return [sorted(C._PARTITION_INDEX), sorted(C._RIM_HOOKS)]\n"
        "kept = keys()\n"
        f"values = C.mn_values([Partition(p) for p in {[lam.parts for lam in lams]!r}], Partition({mu!r}))\n"
        "print(json.dumps([kept, values, keys()]))\n"
    )
    assert after == kept and max(kept[0]) == 10
    assert values == [mn_cellwise(lam.parts, mu) for lam in lams]


@pytest.mark.parametrize("n", range(2, 25))
def test_built_labels_pass_their_public_constructors(n):
    # A build makes its labels without their constructors' checks, from
    # what its partition walk worked out; the checking paths agree.
    t = an_character_table(n)
    assert t.classes == an_class_labels(n)
    assert t.class_sizes == [an_class_size(c) for c in t.classes]
    for c in t.classes:
        assert c == ClassLabel(Partition(c.cycle_type.parts), c.sign)
    for chi in t.irreducibles:
        assert chi == IrreducibleLabel(Partition(chi.partition.parts), chi.sign)


@pytest.mark.parametrize("n", range(2, 25))
def test_row_bound_of_a_build_is_its_row_maxima(n):
    # A build sets the packed width's row bound from the degrees, without
    # a scan; on every table it is the largest |cell| of each row.
    t = an_character_table(n)
    assert "_row_max" in vars(t)
    assert t._row_max == [2 * d for d in t.degrees()] == row_max_scan(t)


def test_split_degree_halves():
    for n in (4, 5, 8, 9):
        for chi in an_character_table(n).irreducibles:
            if chi.is_split():
                assert an_degree(chi) * 2 == degree(chi.partition)


def test_table_limit():
    with pytest.raises(LimitExceeded):
        an_character_table(25)


def test_export_import_round_trip(tmp_path):
    # Read the A_7 export back by hand: labels through their parsers, cells
    # [2a, 1, 2b, 1, d] as a + b*sqrt(d). Everything the table holds comes back.
    t = an_character_table(7)
    path = tmp_path / "a7.json"
    with open(path, "w") as fh:
        t.dump(fh)
    data = json.loads(path.read_text())
    assert data["n"] == t.n
    assert [parse_class_label(s) for s in data["classes"]] == t.classes
    assert [x.text() for x in t.irreducibles] == data["irreducibles"]
    assert tuple(data["class_sizes"]) == tuple(t.class_sizes)
    loaded = [
        [AlgebraicValue(Fraction(a2, a2d) / 2, Fraction(b2, b2d) / 2, d) for a2, a2d, b2, b2d, d in row]
        for row in data["values"]
    ]
    assert loaded == [list(row) for row in t.values]
    # byte-exact round trip through a second dump
    path2 = tmp_path / "a7b.json"
    with open(path2, "w") as fh:
        t.dump(fh)
    assert path.read_bytes() == path2.read_bytes()


def test_irreducible_label_parsing():
    assert IrreducibleLabel(Partition.from_text("3,1,1"), "+").text() == "3,1,1:+"
    assert IrreducibleLabel(Partition.from_text("4,1")).text() == "4,1"
    with pytest.raises(ValueError):
        IrreducibleLabel(Partition((3, 1, 1)), None)  # self-conjugate needs sign
    with pytest.raises(ValueError):
        IrreducibleLabel(Partition((4, 1)), "+")


def test_all_labels_have_values():
    t = an_character_table(8)
    for row in t.values:
        for cls, v in zip(t.classes, row):
            assert v.b == 0 or cls.is_split()


def test_table_checks_fail_loudly_under_python_O():
    # A copy of the A_6 table with one cell changed, in a split row and a
    # split class column, checked by an interpreter that strips asserts.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from ancover.characters import CharacterTable, TableCheckFailed, an_character_table\n"
        "from oracles import verify_split_pair_sums\n"
        "t = an_character_table(6)\n"
        "i = next(r for r, x in enumerate(t.irreducibles) if x.is_split())\n"
        "j = next(c for c, x in enumerate(t.classes) if x.sign == '+')\n"
        "rows = [list(row) for row in t.rows]\n"
        "rows[i][j] += 2\n"
        "bad = CharacterTable(6, t.classes, t.class_sizes, t.irreducibles, rows, t.surds)\n"
        "# a plain row negated: only the degree bound of each row rejects it\n"
        "p = next(r for r in range(len(t.rows)) if r not in t.surds)\n"
        "negated = [[-x for x in row] if r == p else row for r, row in enumerate(t.rows)]\n"
        "flipped = CharacterTable(6, t.classes, t.class_sizes, t.irreducibles, negated, t.surds)\n"
        "checks = {\n"
        "    'verify_orthogonality': bad.verify_orthogonality,\n"
        "    'verify_split_pair_sums': lambda: verify_split_pair_sums(bad),\n"
        "    '_quick_checks': bad._quick_checks,\n"
        "    'verify_orthogonality on a negated row': flipped.verify_orthogonality,\n"
        "}\n"
        "for name, check in checks.items():\n"
        "    try:\n"
        "        check()\n"
        "    except TableCheckFailed:\n"
        "        continue\n"
        "    raise SystemExit(name + ' passed a corrupted table')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cells_beyond_the_degree_fail_orthogonality():
    # Negating a row keeps every column relation, so only the premise of
    # the built row bound, |chi(g)| <= chi(1), rejects it; a cell past
    # 2chi(1) is rejected by the same check, before the column sums.
    t = an_character_table(7)
    j = t.classes.index(ClassLabel(Partition([1] * 7)))
    plain = [i for i in range(len(t.rows)) if i not in t.surds]
    for i in (plain[0], plain[-1]):
        negated = [list(r) for r in t.rows]
        negated[i] = [-x for x in negated[i]]
        assert broken_orthogonality(_copy(t, negated)) == set()
        past = [list(r) for r in t.rows]
        past[i][j - 1] = -past[i][j] - 2
        for rows in (negated, past):
            with pytest.raises(TableCheckFailed, match="exceeds 2chi"):
                _copy(t, rows).verify_orthogonality()


def test_non_square_tables_fail_loudly_under_python_O():
    # Column orthogonality implies row orthogonality only for a square
    # table: a zero row appended to a genuine one leaves every column sum
    # unchanged, so the shape is checked first.
    code = (
        "from ancover.characters import CharacterTable, TableCheckFailed, an_character_table\n"
        "t = an_character_table(6)\n"
        "zero = [[0] * len(t.classes)]\n"
        "cases = {\n"
        "    'zero row': (t.irreducibles, t.rows + zero),\n"
        "    'zero row and duplicated label': (t.irreducibles + t.irreducibles[:1], t.rows + zero),\n"
        "    'short row': (t.irreducibles, t.rows[:-1] + [t.rows[-1][:-1]]),\n"
        "}\n"
        "for name, (irreducibles, rows) in cases.items():\n"
        "    bad = CharacterTable(6, t.classes, t.class_sizes, irreducibles, rows, t.surds)\n"
        "    for check in (bad.verify_orthogonality, bad._quick_checks):\n"
        "        try:\n"
        "            check()\n"
        "        except TableCheckFailed:\n"
        "            continue\n"
        "        raise SystemExit(f'{check.__name__} passed a table with a {name}')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_genuine_tables_satisfy_both_orthogonality_relations():
    for n in range(2, 10):
        assert broken_orthogonality(an_character_table(n)) == set()


def _edited_tables(t):
    """Every single-cell edit of t.rows by +1 and +2, and every surd
    coefficient incremented, negated and zeroed."""
    for i, row in enumerate(t.rows):
        for j in range(len(row)):
            for delta in (1, 2):
                rows = [list(r) for r in t.rows]
                rows[i][j] += delta
                yield CharacterTable(t.n, t.classes, t.class_sizes, t.irreducibles, rows, t.surds)
    for i, (d, coefs) in t.surds.items():
        for j, b in coefs.items():
            for edited in (b + 1, -b, 0):
                surds = {**t.surds, i: (d, {**coefs, j: edited})}
                yield CharacterTable(t.n, t.classes, t.class_sizes, t.irreducibles, t.rows, surds)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_orthogonality_check_agrees_with_the_reference_on_edited_tables(n):
    # verify_orthogonality checks columns only; the reference checks the
    # row relation too, so a corruption only the rows show would fail here.
    caught = 0
    for table in _edited_tables(an_character_table(n)):
        broken = broken_orthogonality(table)
        try:
            table.verify_orthogonality()
        except TableCheckFailed:
            caught += 1
            assert broken, "a table the reference accepts was rejected"
        else:
            assert not broken, f"broken {sorted(broken)} relation accepted"
    assert caught > 0


# -- packed column sums -------------------------------------------------------


def _copy(t, rows=None, surds=None):
    return CharacterTable(
        t.n, t.classes, t.class_sizes, t.irreducibles,
        t.rows if rows is None else rows, t.surds if surds is None else surds,
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_column_sums_match_the_dot_product_reference(n):
    # Weights of one to four factor columns, hook classes drawn often,
    # times (|G|/chi(1))^0..3, some conjugated: on the table, and on a copy
    # whose sqrt(d) coefficients sit on other columns, so that irrational
    # parts fail to cancel.
    t = an_character_table(n)
    k = len(t.classes)
    rng = random.Random(1800 + n)
    moved = {i: (d, {j: rng.randint(-9, 9) for j in rng.sample(range(k), 2)}) for i, (d, _) in t.surds.items()}
    for table in (t, _copy(t, surds=moved)):
        hooks = sorted({j for _, coefs in table.surds.values() for j in coefs})
        for _ in range(12):
            factors = [
                rng.choice(hooks) if hooks and rng.random() < 0.4 else rng.randrange(k)
                for _ in range(rng.randint(1, 4))
            ]
            power, conjugate = rng.randint(0, 3), rng.random() < 0.5
            start = rng.randrange(k)
            subset = rng.sample(range(k), rng.randint(1, k))
            for targets in (t.inverse_index, range(start, k), subset, [rng.randrange(k)]):
                got = table.column_sums(factors, power, targets, conjugate)
                want = reference_column_sums(table, factors, power, targets, conjugate)
                assert got == want, (factors, power, conjugate, targets)


@pytest.mark.parametrize("words", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_packed_slots_are_exact_at_the_width_bound(words, offset):
    # sum|w| * max|cell| = 2^(64 words - 1) + offset, with max|cell| = 1.
    # Columns 0 and k-1 sum to +bound and columns 1 and k-2 to -bound, so
    # the extreme slots sit next to each other and at both ends.  The
    # weight of row i is sign_i + sign_i * sqrt(5), its cell in factor
    # column 2, times |G|/chi_i(1), which this copy sets to the magnitudes;
    # so the surd accumulator meets the same bound.  Only column 2 carries
    # sqrt(5) parts, so only its sums differ from the packed slots.
    bound = 2 ** (64 * words - 1) + offset
    t = an_character_table(8)
    k = len(t.classes)
    rng = random.Random(words * 10 + offset)
    magnitudes = [rng.randrange(1, bound // k) for _ in range(k - 1)]
    magnitudes.append(bound - sum(magnitudes))
    signs = [rng.choice((-1, 1)) for _ in magnitudes]
    rows = []
    for sign in signs:
        row = [rng.randint(-1, 1) for _ in range(k)]
        row[0], row[1], row[2], row[-2], row[-1] = sign, -sign, sign, -sign, sign
        rows.append(row)
    table = _copy(t, rows, {i: (5, {2: sign}) for i, sign in enumerate(signs)})
    table.order_over_degree = magnitudes
    sums, residues = table.column_sums((2,), 1, range(k))
    assert (sums[0], sums[1], sums[-2], sums[-1]) == (bound, -bound, -bound, bound)
    assert (sums[2], residues[5][2]) == (6 * bound, 2 * bound)
    assert residues[5][:2] + residues[5][3:] == sums[:2] + sums[3:]
    assert (sums, residues) == reference_column_sums(table, (2,), 1, range(k))


def test_cells_past_64_bits_are_summed_exactly():
    t = an_character_table(7)
    rows = [list(r) for r in t.rows]
    rows[3][4] += 2**70
    table = _copy(t, rows)
    targets = range(len(rows))
    assert table.column_sums((4,), 1, targets) == reference_column_sums(table, (4,), 1, targets)
    with pytest.raises(TableCheckFailed):
        table.verify_orthogonality()


@pytest.mark.parametrize("n", [7, 12])
def test_every_flipped_cell_fails_orthogonality(n):
    # One nonzero cell of rows negated, on a fresh copy, so that the
    # packed rows are built from the corrupted cells.
    t = an_character_table(n)
    flips = 0
    for i, row in enumerate(t.rows):
        for j, value in enumerate(row):
            if value:
                rows = [list(r) for r in t.rows]
                rows[i][j] = -value
                with pytest.raises(TableCheckFailed):
                    _copy(t, rows).verify_orthogonality()
                flips += 1
    assert flips > 50


def test_table_build_and_quick_checks_pack_nothing():
    for n in range(2, 17):
        t = an_character_table(n)
        fresh = _copy(t)
        fresh._quick_checks()
        assert fresh._packed == {}, n
