import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from ancover import permutations
from ancover.combinatorics import Infeasible, Partition
from ancover.constructor import (
    HypothesisViolated,
    Interval,
    NotCoverable,
    OnlyTrivialKinds,
    PackingPlan,
    ValidSequence,
    VerificationFailed,
    _d_lift_flips_sign,
    _product_labels,
    construct_witnesses,
    cover_with_ncycles,
    find_opposite_valid_sequences,
    greedy_pack,
    orbit_of,
    rebuild,
)
from ancover.permutations import (
    ClassLabel,
    Permutation,
    an_class_of,
    cycle_type,
    parse_class_label,
    parse_permutation,
    random_even_permutation,
)
from ancover.suites import random_construction_instance
from oracles import is_even, lift_sign_maps, packing_cycle, run_python, two_twos_deltas


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


# -- packing ------------------------------------------------------------------


def test_greedy_pack_paper_example():
    plan = greedy_pack((15,), (8, 4))[0]
    assert plan.subintervals == (Interval(8, 15), Interval(4, 7))
    assert plan.free == Interval(1, 3)
    assert plan.demands == (0, 1)


def test_greedy_pack_exact_fit_and_empty():
    plans = greedy_pack((9, 7), (9, 7))
    assert plans[0].free is None and plans[1].free is None
    assert greedy_pack((9,), ())[0].free == Interval(1, 9)


def test_greedy_pack_infeasible():
    with pytest.raises(Infeasible):
        greedy_pack((6,), (4, 4))


def test_packing_plan_validates_shape():
    with pytest.raises(ValueError):
        PackingPlan(0, 10, (Interval(5, 9),), (0,))  # not flush right


# -- sequences ----------------------------------------------------------------


def test_tabulated_sequences_are_paper_values():
    s, sbar = find_opposite_valid_sequences(4, Partition((2, 2)))
    assert s.terms == (4, 1, 2, 3) and sbar is None
    s, sbar = find_opposite_valid_sequences(6, Partition((4, 2)))
    assert s.terms == (6, 1, 2, 4, 5, 3)
    assert sbar.terms == (6, 1, 3, 4, 5, 2)
    s, sbar = find_opposite_valid_sequences(8, Partition((4, 4)))
    assert s.terms == (8, 1, 2, 4, 7, 5, 3, 6)
    assert sbar.terms == (8, 1, 2, 5, 7, 3, 6, 4)
    s, sbar = find_opposite_valid_sequences(8, Partition((2, 2, 2, 2)))
    assert s.terms == (8, 1, 2, 7, 4, 5, 6, 3)
    assert sbar.terms == (8, 1, 3, 5, 6, 2, 7, 4)


@pytest.mark.parametrize(
    "length,shape",
    [
        (4, (2, 2)),
        (5, (5,)),
        (6, (4, 2)),
        (7, (3, 1, 1, 1, 1)),
        (8, (2, 2, 2, 2)),
        (8, (4, 4)),
        (9, (3, 3, 3)),
    ],
)
def test_sequences_have_contracted_shape(length, shape):
    s, sbar = find_opposite_valid_sequences(length, Partition(shape))
    host = cyc(length, tuple(range(1, length + 1)))
    for seq in (s, sbar):
        if seq is None:
            continue
        assert seq.terms[0] == length
        prod = host * cyc(length, seq.terms)
        assert cycle_type(prod).parts == shape


@pytest.mark.parametrize(
    "length,shape",
    [(5, (5,)), (6, (4, 2)), (7, (3, 1, 1, 1, 1)), (8, (2, 2, 2, 2)), (8, (4, 4)), (9, (3, 3, 3))],
)
def test_opposite_pairs_are_odd_intertwined(length, shape):
    s, sbar = find_opposite_valid_sequences(length, Partition(shape))
    images = [0] * length
    for a, b in zip(s.terms, sbar.terms):
        images[a - 1] = b
    assert Permutation(images).parity() == 1


def test_unsupported_shape_rejected():
    with pytest.raises(ValueError):
        find_opposite_valid_sequences(6, Partition((6,)))


@pytest.mark.parametrize(
    "length,shape", [(5, (5,)), (7, (3, 1, 1, 1, 1)), (9, (3, 3, 3))]
)
def test_odd_sequence_pairs_rederived_by_search(length, shape):
    # Exhaustive search: the first valid sequence of the shape, then the
    # first later one that an odd resequencing map intertwines with it.
    host = cyc(length, tuple(range(1, length + 1)))
    first = found = None
    for tail in itertools.permutations(range(1, length)):
        word = (length,) + tail
        if cycle_type(host * cyc(length, word)).parts != shape:
            continue
        if first is None:
            first = word
            continue
        images = [0] * length
        for a, b in zip(first, word):
            images[a - 1] = b
        if Permutation(images).parity() == 1:
            found = word
            break
    s, sbar = find_opposite_valid_sequences(length, Partition(shape))
    assert (s.terms, sbar.terms) == (first, found)


def test_valid_sequence_validation():
    with pytest.raises(ValueError):
        ValidSequence((3, 1, 2, 5))  # not contiguous
    with pytest.raises(ValueError):
        ValidSequence((1, 2, 3))  # must start at the right endpoint


# -- packing cycle ------------------------------------------------------------


def test_packing_cycle_paper_example():
    plan = greedy_pack((15,), (8, 4))[0]
    _, s6bar = find_opposite_valid_sequences(8, Partition((2, 2, 2, 2)))
    s5, _ = find_opposite_valid_sequences(4, Partition((2, 2)))
    delta = packing_cycle(plan, [s6bar.shifted(7), s5.shifted(3)])
    assert delta == parse_permutation("(15,8,10,12,13,9,14,11,7,4,5,6,3,2,1)")
    assert cycle_type(delta).parts == (15,)


def test_packing_cycle_lemma_product():
    # (1..b) * delta equals the product of the per-interval factors.
    rng = random.Random(9)
    shapes = {7: (3, 1, 1, 1, 1), 9: (3, 3, 3), 5: (5,), 4: (2, 2), 8: (4, 4), 6: (4, 2)}
    for _ in range(40):
        host = rng.randint(12, 30)
        demands = []
        room = host
        while room >= 4 and len(demands) < 3:
            d = rng.choice([4, 5, 6, 7, 8, 9])
            if d <= room:
                demands.append(d)
                room -= d
        plan = greedy_pack((host,), tuple(demands))[0]
        seqs = []
        for iv, di in zip(plan.subintervals, plan.demands):
            s, sbar = find_opposite_valid_sequences(
                demands[di], Partition(shapes[demands[di]])
            )
            chosen = rng.choice([x for x in (s, sbar) if x is not None])
            seqs.append(chosen.shifted(iv.a - 1))
        delta = packing_cycle(plan, seqs)
        host_cycle = cyc(host, tuple(range(1, host + 1)))
        lhs = host_cycle * delta
        rhs = Permutation.identity(host)
        for iv, seq in zip(plan.subintervals, seqs):
            beta = cyc(host, tuple(range(iv.a, iv.b + 1))) * cyc(host, seq.terms)
            rhs = rhs * beta
        assert lhs == rhs


# -- rebuild ------------------------------------------------------------------


def _rebuild_fixture():
    gamma = cyc(12, tuple(range(1, 13)))
    plan = greedy_pack((12,), (6,))[0]
    s, _ = find_opposite_valid_sequences(6, Partition((4, 2)))
    delta = packing_cycle(plan, [s.shifted(6)])
    prod = gamma * delta
    four = max((orbit_of(prod, p) for p in range(7, 13)), key=len)
    x = min(p for p in four if gamma(p) in four and delta(p) != p)
    return gamma, delta, prod, four, x


def test_rebuild_postconditions():
    gamma, delta, prod, four, x = _rebuild_fixture()
    d2 = rebuild(gamma, delta, x, 2)
    assert cycle_type(d2) == cycle_type(delta)
    p2 = gamma * d2
    merged = orbit_of(p2, x)
    assert merged == four | {2, gamma(2)}
    for z in set(range(1, 13)) - merged:
        assert p2(z) == prod(z)


def test_rebuild_hypothesis_errors():
    gamma, delta, prod, four, x = _rebuild_fixture()
    with pytest.raises(HypothesisViolated) as exc:
        rebuild(gamma, delta, x, 7)  # product moves 7
    assert exc.value.clause == "c"
    fixed_by_delta = gamma  # any permutation fixing nothing won't trigger (a)
    ident = Permutation.identity(12)
    with pytest.raises(HypothesisViolated) as exc:
        rebuild(gamma, ident, 1, 2)
    assert exc.value.clause == "a"
    # gamma(x) outside the product orbit of x: pick x in the 2-orbit
    prod_orbits = sorted((orbit_of(prod, p) for p in range(7, 13)), key=len)
    two = prod_orbits[0]
    xbad = min(two)
    if gamma(xbad) not in two:
        with pytest.raises(HypothesisViolated) as exc:
            rebuild(gamma, delta, xbad, 2)
        assert exc.value.clause == "b"


# -- full construction --------------------------------------------------------


def test_construct_witnesses_end_to_end():
    lam = Partition((25, 11, 7))
    for mu_text in ("3,3,2,2,1x33", "9,1x34", "6,4,1x33", "8,2,1x33"):
        mu = Partition.from_text(mu_text)
        pair = construct_witnesses(lam, mu)
        pair.verify()
        assert cycle_type(pair.gamma * pair.delta) == mu
        assert an_class_of(pair.delta) != an_class_of(pair.delta_bar)


def test_construct_witnesses_rebuild_count():
    pair = construct_witnesses(Partition((31, 9)), Partition.from_text("11,1x29"))
    assert len(pair.rebuild_log) == 11 // 2 - 2
    assert len(pair.rebuild_log_bar) == len(pair.rebuild_log)


def test_construct_witnesses_strict_gate():
    with pytest.raises(Infeasible):
        construct_witnesses(Partition((15, 9)), Partition.from_text("7,5,3,1x9"))
    with pytest.raises(ValueError):
        construct_witnesses(Partition((9, 7)), Partition.from_text("7,5,3,1x9"))  # size mismatch
    with pytest.raises(ValueError):
        construct_witnesses(Partition((21,)), Partition.from_text("1x21"))  # identity target


def test_construct_witnesses_two_twos_fallback():
    pair = construct_witnesses(Partition((21,)), Partition.from_text("2,2,1x17"))
    pair.verify()
    assert an_class_of(pair.delta) != an_class_of(pair.delta_bar)
    # non-split lam (odd cycle type is fine: only the products live in A_n):
    # the pair collapses, conjugate by an odd element of its own centralizer
    pair = construct_witnesses(Partition((21, 8)), Partition.from_text("2,2,1x25"))
    pair.verify()
    assert pair.delta == pair.delta_bar


@pytest.mark.parametrize("lam,mu", [("21", "2,2,1x17"), ("21,8", "2,2,1x25")])
def test_two_twos_search_matches_permutation_trials(lam, mu):
    # The split case, then the non-split one: the image-list trials pick
    # the same witnesses as a Permutation built for every trial.
    lam, mu = Partition.from_text(lam), Partition.from_text(mu)
    for seed in range(20):
        pair = construct_witnesses(lam, mu, seed=seed)
        assert (pair.delta, pair.delta_bar) == two_twos_deltas(lam, seed)


def test_two_twos_fallback_needs_room():
    with pytest.raises(OnlyTrivialKinds):
        construct_witnesses(Partition((5, 4)), Partition.from_text("2,2,1x5"), strict=False)


def test_construct_witnesses_best_effort():
    # Below the fixed-point bound but still feasible in practice.
    lam = Partition((9, 5))
    mu = Partition.from_text("5,1x9")
    with pytest.raises(Infeasible):
        construct_witnesses(lam, mu)
    pair = construct_witnesses(lam, mu, strict=False)
    pair.verify()


# sha256 of the sorted-key JSON list of witness records below; any change
# to a witness (permutations, logs, labels) changes it.
WITNESS_DIGEST = "e25e50e14637729e19fa728b72c68afa602893c46877eb9808d101b32e4fc429"


def test_witnesses_match_pinned_digest():
    rng = random.Random(5)
    records = [
        construct_witnesses(*random_construction_instance(rng)).to_json_dict()
        for _ in range(200)
    ]
    for lam, mu, strict in [
        ("25,11,7", "9,1x34", True),  # the README example
        ("21", "2,2,1x17", True),  # 2,2 fallback, split lam
        ("21,8", "2,2,1x25", True),  # 2,2 fallback, non-split lam
        ("9,5", "5,1x9", False),  # below the strict fixed-point bound
    ]:
        pair = construct_witnesses(
            Partition.from_text(lam), Partition.from_text(mu), strict=strict
        )
        records.append(pair.to_json_dict())
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == WITNESS_DIGEST


def test_witness_json_record():
    pair = construct_witnesses(Partition((25, 11, 7)), Partition.from_text("9,1x34"))
    data = pair.to_json_dict()
    assert data["schema"] == 1
    assert data["lambda"] == "25,11,7"
    assert parse_permutation(data["gamma"], n=43) == pair.gamma
    assert len(data["rebuild_log"]) == 2


def test_bogus_witness_fails_verification_under_optimize():
    # Identity permutations pass no invariant; the check must not vanish
    # under python -O the way an assert would.
    code = (
        "from ancover.combinatorics import Partition\n"
        "from ancover.constructor import VerificationFailed, WitnessPair\n"
        "from ancover.permutations import ClassLabel, Permutation\n"
        "e = Permutation.identity(9)\n"
        "label = ClassLabel(Partition([1] * 9))\n"
        "pair = WitnessPair(Partition((5, 3, 1)), Partition((3, 3, 1, 1, 1)),\n"
        "                   e, e, e, label, label, (), (), ())\n"
        "try:\n"
        "    pair.verify()\n"
        "except VerificationFailed:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('verify() passed a bogus witness pair')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _mislabelled_pairs():
    """Verified pairs with one stored product label replaced by the
    opposite split class or by a class of another type."""
    split = construct_witnesses(Partition((13,)), Partition((7, 5, 1)), strict=False)
    plain = construct_witnesses(Partition((25, 11, 7)), Partition.from_text("9,1x34"))
    for pair, other_type in [
        (split, ClassLabel(Partition((3, 3, 3, 3, 1)))),
        (plain, ClassLabel(Partition.from_text("3,3,2,2,1x33"))),
    ]:
        pair.verify()
        for field in ("product_label", "product_label_bar"):
            label = getattr(pair, field)
            wrong = [other_type]
            if label.is_split():
                wrong.append(ClassLabel(label.cycle_type, "-" if label.sign == "+" else "+"))
            for w in wrong:
                yield dataclasses.replace(pair, **{field: w})


@pytest.mark.parametrize(
    "lam, mu, strict",
    [("13", "7,5,1", False), ("25,11,7", "9,1x34", True), ("21,21", "9,1x33", True)],
)
def test_product_labels_walk_each_permutation_once(monkeypatch, lam, mu, strict):
    # gamma, delta, delta_bar and the two products: five walks, whether
    # lam splits (13 and 25,11,7) or not (21,21).  When it splits, the
    # labels of delta and delta_bar come from the walks that check their
    # types, not from two more.
    lam, mu = Partition.from_text(lam), Partition.from_text(mu)
    pair = construct_witnesses(lam, mu, strict=strict)
    real = permutations._walk
    walks = []

    def counted(images):
        walks.append(len(images))
        return real(images)

    monkeypatch.setattr(permutations, "_walk", counted)
    labels = _product_labels(
        lam, mu, pair.gamma, pair.delta, pair.delta_bar,
        pair.rebuild_log, pair.rebuild_log_bar,
    )
    assert labels == (pair.product_label, pair.product_label_bar)
    assert len(walks) == 5


def test_odd_delta_of_a_split_type_fails_as_a_type_check():
    pair = construct_witnesses(Partition((13,)), Partition((7, 5, 1)), strict=False)
    odd = Permutation.from_cycles(13, [(1, 2)])
    for field in ("delta", "delta_bar"):
        with pytest.raises(VerificationFailed, match=f"^{field} type$"):
            dataclasses.replace(pair, **{field: odd}).verify()


def test_verify_checks_stored_product_labels():
    tampered = list(_mislabelled_pairs())
    assert len(tampered) == 6
    for pair in tampered:
        with pytest.raises(VerificationFailed, match="product label"):
            pair.verify()


def test_mislabelled_witness_fails_verification_under_optimize():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_constructor import _mislabelled_pairs\n"
        "from ancover.constructor import VerificationFailed\n"
        "missed = 0\n"
        "for pair in _mislabelled_pairs():\n"
        "    try:\n"
        "        pair.verify()\n"
        "        missed += 1\n"
        "    except VerificationFailed:\n"
        "        pass\n"
        "raise SystemExit(f'verify() passed {missed} mislabelled pairs' if missed else 0)\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- n-cycle coverage ---------------------------------------------------------


def test_cover_with_ncycles_n7_all_pairs():
    g = cyc(7, (1, 2, 3))
    for sc in "+-":
        for sd in "+-":
            C = ClassLabel(Partition((7,)), sc)
            D = ClassLabel(Partition((7,)), sd)
            c, d = cover_with_ncycles(g, C, D, seed=3)
            assert c * d == g
            assert an_class_of(c) == C and an_class_of(d) == D


def test_cover_with_ncycles_residual_cases():
    cases = [
        (cyc(9, (1, 2), (3, 4)), "9:+", "9:-"),
        (cyc(9, (2, 5, 9)), "9:-", "9:+"),
        (cyc(11, (3, 7), (2, 9)), "11:+", "11:-"),
        (cyc(11, (1, 4, 6, 8, 10)), "11:-", "11:-"),
    ]
    for g, sc, sd in cases:
        C, D = parse_class_label(sc), parse_class_label(sd)
        c, d = cover_with_ncycles(g, C, D, seed=5)
        assert c * d == g
        assert an_class_of(c) == C and an_class_of(d) == D


def test_cover_with_ncycles_a5_exception():
    g = cyc(5, (1, 2), (3, 4))
    with pytest.raises(NotCoverable):
        cover_with_ncycles(g, parse_class_label("5:+"), parse_class_label("5:+"), seed=1)
    c, d = cover_with_ncycles(g, parse_class_label("5:+"), parse_class_label("5:-"), seed=1)
    assert c * d == g


def test_cover_with_ncycles_beyond_table_limit():
    rng = random.Random(11)
    g = random_even_permutation(21, rng)
    C = parse_class_label("21:+")
    c, d = cover_with_ncycles(g, C, C, seed=8)
    assert c * d == g
    assert an_class_of(c) == C and an_class_of(d) == C


def test_cover_with_ncycles_rejects_bad_input():
    with pytest.raises(ValueError):
        cover_with_ncycles(cyc(6, (1, 2, 3)), parse_class_label("5:+"), parse_class_label("5:-"))
    with pytest.raises(ValueError):
        cover_with_ncycles(Permutation.identity(7), parse_class_label("7:+"), parse_class_label("7:+"))


def test_lift_sign_rule_matches_explicit_lifts():
    for m in range(5, 40, 2):
        for r in range(2, 39, 2):
            map_c, map_d = lift_sign_maps(m, m + r)
            assert map_c == {"+": "+", "-": "-"}, (m, r)
            flips = map_d == {"+": "-", "-": "+"}
            assert flips or map_d == {"+": "+", "-": "-"}, (m, r)
            assert flips == _d_lift_flips_sign(r), (m, r)


def test_sparse_call_builds_a_fixed_number_of_full_degree_permutations(monkeypatch):
    """Outside the search a call makes a fixed number of O(n) passes: the
    degree-n Permutations it builds do not grow with n.  Both entry points
    of Permutation pass the one bijection check, so counting there counts
    every Permutation built; c*d is compared with g as an image list, so
    only c and d are built."""
    counts = []
    for n in (501, 1001):
        g = cyc(n, (3, n - 40, 77), (5, 11), (n, 200))
        C, D = parse_class_label(f"{n}:+"), parse_class_label(f"{n}:-")
        built = []
        check = permutations._bijection

        def counting_check(images, check=check, built=built):
            built.append(len(images))
            return check(images)

        monkeypatch.setattr(permutations, "_bijection", counting_check)
        c, d = cover_with_ncycles(g, C, D, seed=4)
        monkeypatch.undo()
        assert c * d == g
        counts.append(built.count(n))
    assert counts == [2, 2]


def test_cover_with_ncycles_deterministic():
    g = cyc(9, (1, 2), (3, 4))
    C, D = parse_class_label("9:+"), parse_class_label("9:-")
    a = cover_with_ncycles(g, C, D, seed=17)
    b = cover_with_ncycles(g, C, D, seed=17)
    assert a == b


def _random_even_on(points, n, rng):
    """A nontrivial even permutation of degree n moving only these points."""
    while True:
        images = list(range(1, n + 1))
        shuffled = rng.sample(points, len(points))
        for x, y in zip(points, shuffled):
            images[x - 1] = y
        g = Permutation(images)
        if not is_even(g):
            a, b = points[0], points[1]
            images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
            g = Permutation(images)
        if g != Permutation.identity(n):
            return g


def _ncycle_records():
    """cover_with_ncycles on dense g (a random even permutation of all n
    points) and on sparse g (moving 3..9 points), every sign pair, two
    seeds each; one dense call only at n = 1001, whose search is O(n^2)."""
    rng = random.Random(8)
    records = []
    for n in (5, 7, 9, 11, 21, 51, 101, 1001):
        for dense in (True, False):
            pairs = list(itertools.product("+-", repeat=2))
            repeats = 2
            if dense and n == 1001:
                pairs, repeats = pairs[1:2], 1
            for sc, sd in pairs:
                for _ in range(repeats):
                    points = (
                        list(range(1, n + 1))
                        if dense
                        else rng.sample(range(1, n + 1), rng.randint(3, min(9, n)))
                    )
                    g = _random_even_on(points, n, rng)
                    C = ClassLabel(Partition((n,)), sc)
                    D = ClassLabel(Partition((n,)), sd)
                    seed = rng.randrange(1000)
                    try:
                        c, d = cover_with_ncycles(g, C, D, seed=seed)
                    except NotCoverable:
                        records.append([g.images, sc, sd, seed, "NotCoverable"])
                        continue
                    records.append([g.images, sc, sd, seed, c.images, d.images])
    g = cyc(5, (1, 2), (3, 4))
    try:
        cover_with_ncycles(g, parse_class_label("5:+"), parse_class_label("5:+"), seed=1)
    except NotCoverable:
        records.append([g.images, "+", "+", 1, "NotCoverable"])
    return records


# sha256 of the JSON of _ncycle_records(); any change to a factor changes it.
NCYCLE_DIGEST = "bc7e8e5dc51fa28ce088591e067f50872e763cfb23920aca9194c0b014b03693"


def test_cover_with_ncycles_matches_pinned_digest():
    records = _ncycle_records()
    assert records[-1][-1] == "NotCoverable"
    blob = json.dumps(records).encode()
    assert hashlib.sha256(blob).hexdigest() == NCYCLE_DIGEST
