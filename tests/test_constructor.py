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
    SearchBudgetExceeded,
    VerificationFailed,
    _d_lift_flips_sign,
    _even_shuffles,
    _product_labels,
    construct_witnesses,
    cover_with_ncycles,
    find_opposite_valid_sequences,
    greedy_pack,
)
from ancover.permutations import (
    ClassLabel,
    Permutation,
    an_class_of,
    cycle_type,
    parse_class_label,
    parse_permutation,
)
from ancover.suites import random_construction_instance
from oracles import (
    identity,
    is_even,
    lift_sign_maps,
    ncycle_relabelling,
    orbit_of,
    packing_cycle,
    random_even_permutation,
    rebuild,
    reference_ncycle_cover,
    reference_witnesses,
    replaced,
    replay_ncycle_search,
    run_python,
    two_twos_deltas,
)


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
    s, sbar = find_opposite_valid_sequences(Partition((2, 2)))
    assert s.terms == (4, 1, 2, 3) and sbar is None
    s, sbar = find_opposite_valid_sequences(Partition((4, 2)))
    assert s.terms == (6, 1, 2, 4, 5, 3)
    assert sbar.terms == (6, 1, 3, 4, 5, 2)
    s, sbar = find_opposite_valid_sequences(Partition((4, 4)))
    assert s.terms == (8, 1, 2, 4, 7, 5, 3, 6)
    assert sbar.terms == (8, 1, 2, 5, 7, 3, 6, 4)
    s, sbar = find_opposite_valid_sequences(Partition((2, 2, 2, 2)))
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
    s, sbar = find_opposite_valid_sequences(Partition(shape))
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
    s, sbar = find_opposite_valid_sequences(Partition(shape))
    images = [0] * length
    for a, b in zip(s.terms, sbar.terms):
        images[a - 1] = b
    assert Permutation(images).parity() == 1


def test_unsupported_shape_rejected():
    with pytest.raises(ValueError):
        find_opposite_valid_sequences(Partition((6,)))


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
    s, sbar = find_opposite_valid_sequences(Partition(shape))
    assert (s.terms, sbar.terms) == (first, found)


def test_valid_sequence_validation():
    with pytest.raises(ValueError):
        ValidSequence((3, 1, 2, 5))  # not contiguous
    with pytest.raises(ValueError):
        ValidSequence((1, 2, 3))  # must start at the right endpoint


# -- packing cycle ------------------------------------------------------------


def test_packing_cycle_paper_example():
    plan = greedy_pack((15,), (8, 4))[0]
    _, s6bar = find_opposite_valid_sequences(Partition((2, 2, 2, 2)))
    s5, _ = find_opposite_valid_sequences(Partition((2, 2)))
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
            s, sbar = find_opposite_valid_sequences(Partition(shapes[demands[di]]))
            chosen = rng.choice([x for x in (s, sbar) if x is not None])
            seqs.append(chosen.shifted(iv.a - 1))
        delta = packing_cycle(plan, seqs)
        host_cycle = cyc(host, tuple(range(1, host + 1)))
        lhs = host_cycle * delta
        rhs = identity(host)
        for iv, seq in zip(plan.subintervals, seqs):
            beta = cyc(host, tuple(range(iv.a, iv.b + 1))) * cyc(host, seq.terms)
            rhs = rhs * beta
        assert lhs == rhs


# -- rebuild ------------------------------------------------------------------


def _rebuild_fixture():
    gamma = cyc(12, tuple(range(1, 13)))
    plan = greedy_pack((12,), (6,))[0]
    s, _ = find_opposite_valid_sequences(Partition((4, 2)))
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
    ident = identity(12)
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


@pytest.mark.parametrize("strict", [True, False])
def test_witnesses_match_the_permutation_route(strict):
    # Seeded instances as drawn, then with their moved parts doubled,
    # which often leaves fewer fixed points than strict mode asks for or
    # too little free space: every witness, rebuild log and error of the
    # package equals the reference's.
    def outcome(build, lam, mu, seed):
        try:
            out = build(lam, mu, strict=strict, seed=seed)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)
        if isinstance(out, tuple):
            return out
        return out.gamma, out.delta, out.delta_bar, out.rebuild_log, out.rebuild_log_bar

    rng = random.Random(30)
    kinds = set()
    for seed in range(400):
        lam, mu = random_construction_instance(rng)
        moved = [p for p in mu.parts if p > 1]
        doubled = sorted(moved * 2 + [1] * (lam.n - 2 * sum(moved)), reverse=True)
        for m in [mu] + ([Partition(doubled)] if 2 * sum(moved) <= lam.n else []):
            got = outcome(construct_witnesses, lam, m, seed)
            assert got == outcome(reference_witnesses, lam, m, seed), (lam, m)
            kinds.add(got[0] if len(got) == 2 else bool(got[3]))
    assert kinds == {True, False, Infeasible}


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
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from ancover.combinatorics import Partition\n"
        "from ancover.constructor import VerificationFailed, WitnessPair\n"
        "from ancover.permutations import ClassLabel\n"
        "from oracles import identity\n"
        "e = identity(9)\n"
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
                yield replaced(pair, **{field: w})


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
            replaced(pair, **{field: odd}).verify()


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


def test_dense_call_asks_the_kernel_once(monkeypatch):
    # With no fixed point the residue is g itself (r = 0), so one exact
    # count decides whether C * D reaches g.
    import ancover.classalgebra

    calls = []
    count = ancover.classalgebra.frobenius_count

    def counting(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(ancover.classalgebra, "frobenius_count", counting)
    g = cyc(9, (1, 2, 3), (4, 5, 6), (7, 8, 9))
    c, d = cover_with_ncycles(g, parse_class_label("9:+"), parse_class_label("9:-"), seed=2)
    assert c * d == g and len(calls) == 1


def test_dense_call_past_a_16_builds_no_table(monkeypatch):
    import ancover.classalgebra

    def no_table(*args, **kwargs):
        raise AssertionError("asked for a table")

    monkeypatch.setattr(ancover.classalgebra, "an_character_table", no_table)
    for n in (17, 19, 21, 23):
        g = cyc(n, tuple(range(1, n + 1)))
        C, D = parse_class_label(f"{n}:+"), parse_class_label(f"{n}:-")
        c, d = cover_with_ncycles(g, C, D, seed=n)
        assert c * d == g and an_class_of(c) == C and an_class_of(d) == D


def test_cover_with_ncycles_rejects_bad_input():
    with pytest.raises(ValueError):
        cover_with_ncycles(cyc(6, (1, 2, 3)), parse_class_label("5:+"), parse_class_label("5:-"))
    with pytest.raises(ValueError):
        cover_with_ncycles(identity(7), parse_class_label("7:+"), parse_class_label("7:+"))


def test_bad_classes_are_refused_before_reading_g():
    # The class check is O(1) and comes before the first pass over g; an
    # odd g with bad classes is refused for its classes, not its parity.
    class Unread:
        n = 1001

        @property
        def images(self):
            raise AssertionError("read the images of g")

    message = "^C and D must be n-cycle classes of matching degree$"
    nine, three = parse_class_label("9:+"), parse_class_label("3,3,3")
    for C, D in [(nine, nine), (parse_class_label("1001:+"), three)]:
        with pytest.raises(ValueError, match=message):
            cover_with_ncycles(Unread(), C, D)
    odd = cyc(9, (1, 2))
    for C, D in [(nine, three), (parse_class_label("11:+"), nine)]:
        with pytest.raises(ValueError, match=message):
            cover_with_ncycles(odd, C, D)
    with pytest.raises(ValueError, match="^g must be even$"):
        cover_with_ncycles(odd, nine, nine)


def _dense_21():
    """A random even g of degree 21 fixing at most one point: the residue
    is g itself (m = n = 21, past the pre-check)."""
    rng = random.Random(2)
    g = random_even_permutation(21, rng)
    while sum(g(x) == x for x in range(1, 22)) > 1:
        g = random_even_permutation(21, rng)
    return g


def test_search_labels_only_full_cycle_cofactors(monkeypatch):
    """A trial walks the orbit of 1 under its cofactor c^-1 h and forms
    and labels the cofactor only when that orbit is all of 1..m.  With the
    residue g itself, _full_cycle runs once per full-cycle trial, replayed
    on Permutations by the oracle, and once for each lifted factor, and
    an_class_of not at all."""
    import ancover.constructor

    n, seed = 21, 6
    g = _dense_21()
    C, D = parse_class_label(f"{n}:+"), parse_class_label(f"{n}:-")
    c, d, trials, full = replay_ncycle_search(g, C, D, seed)

    calls, labels = [], []
    walk, label = ancover.constructor._full_cycle, ancover.constructor.an_class_of

    def counting_walk(images):
        calls.append(len(images))
        return walk(images)

    def counting_label(h):
        labels.append(h.n)
        return label(h)

    monkeypatch.setattr(ancover.constructor, "_full_cycle", counting_walk)
    monkeypatch.setattr(ancover.constructor, "an_class_of", counting_label)
    assert cover_with_ncycles(g, C, D, seed=seed) == (c, d)
    assert trials > full > 1
    assert len(calls) == full + 2 and labels == []


@pytest.mark.parametrize("signs", ["+-", "-+", "--"])
def test_search_spends_exactly_the_replayed_trials(signs):
    """The budget counts trials: the oracle's replay needs `trials` of
    them, so one fewer raises SearchBudgetExceeded and `trials` succeed."""
    n, seed = 21, 6
    g = _dense_21()
    C, D = (parse_class_label(f"{n}:{s}") for s in signs)
    c, d, trials, _ = replay_ncycle_search(g, C, D, seed)
    assert trials > 1
    with pytest.raises(SearchBudgetExceeded) as info:
        cover_with_ncycles(g, C, D, seed=seed, budget=trials - 1)
    assert (info.value.seed, info.value.trials) == (seed, trials - 1)
    assert cover_with_ncycles(g, C, D, seed=seed, budget=trials) == (c, d)


def test_trial_permutations_are_the_stdlib_shuffles():
    """_even_shuffles makes the draws of random.shuffle itself: on every
    odd m in 5..101 and 20 seeds, its first trials are the stdlib shuffles
    of 1..m, each with its first two entries swapped when odd."""
    for m in range(5, 102, 2):
        for seed in range(20):
            rng = random.Random(seed)
            for w in itertools.islice(_even_shuffles(seed, m), 3):
                want = list(range(1, m + 1))
                rng.shuffle(want)
                if not is_even(Permutation(want)):
                    want[0], want[1] = want[1], want[0]
                assert w == want, (m, seed)


def test_mislifted_labels_fail_verification_under_optimize():
    """With the d-lift's sign rule negated the search looks for d in the
    wrong base class, and the final label check refuses the lifted d, also
    under python -O."""
    code = (
        "import ancover.constructor as k\n"
        "from ancover.permutations import Permutation, parse_class_label\n"
        "rule = k._d_lift_flips_sign\n"
        "k._d_lift_flips_sign = lambda r: not rule(r)\n"
        "g = Permutation.from_cycles(23, [range(1, 22)])\n"
        "C, D = parse_class_label('23:+'), parse_class_label('23:-')\n"
        "try:\n"
        "    k.cover_with_ncycles(g, C, D, seed=1)\n"
        "except k.VerificationFailed as e:\n"
        "    raise SystemExit(0 if str(e) == 'lifted labels must match' else repr(e))\n"
        "raise SystemExit('a mislifted factorization passed')\n"
    )
    proc = run_python("-O", "-c", code, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_full_cycle_refuses_other_image_lists_under_optimize():
    """_full_cycle is the bijection check of the n-cycles it builds: two
    cycles, a point outside 1..n or a walk that never returns to 1 raise
    ValueError, never an IndexError, also under python -O."""
    code = (
        "from ancover.permutations import _full_cycle, an_class_of, Permutation\n"
        "good = [3, 7, 5, 1, 2, 4, 6]\n"
        "p, sign = _full_cycle(good)\n"
        "if p != Permutation(good) or sign != an_class_of(p).sign:\n"
        "    raise SystemExit(f'{p} {sign}')\n"
        "bad = [[2, 3, 1, 5, 6, 7, 4], [3, 7, 0, 1, 2, 4, 6], [3, 7, 8, 1, 2, 4, 6],\n"
        "       [2, 3, -4, 5, 6, 7, 1], [2, 3, 4, 5, 6, 7, 2], [1, 3, 4, 5, 6, 7, 2]]\n"
        "for images in bad:\n"
        "    try:\n"
        "        _full_cycle(images)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {images}')\n"
    )
    proc = run_python("-O", "-c", code, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "lam, mu, strict",
    [
        ("13", "7,5,1", False),  # split lam, no growth
        ("25,11,7", "9,1x34", True),  # split lam, two growth steps each
        ("31,9", "11,1x29", True),  # split lam, three steps each
        ("21,21", "9,1x33", True),  # lam does not split
        ("21", "2,2,1x17", True),  # the 2,2 fallback, split lam
    ],
)
def test_construction_builds_a_fixed_number_of_full_degree_permutations(
    monkeypatch, lam, mu, strict
):
    """One construct_witnesses call builds gamma, delta, delta_bar and
    the two products that _product_labels checks: 5 Permutations of
    degree n, each through the one bijection check, however many growth
    steps it takes.  The packed deltas stay image lists until grown."""
    lam, mu = Partition.from_text(lam), Partition.from_text(mu)
    built = []
    check = permutations._bijection

    def counting_check(images):
        built.append(len(images))
        return check(images)

    monkeypatch.setattr(permutations, "_bijection", counting_check)
    pair = construct_witnesses(lam, mu, strict=strict)
    monkeypatch.undo()
    pair.verify()
    assert built == [lam.n] * 5


def test_lift_sign_rule_matches_explicit_lifts():
    for m in range(5, 40, 2):
        for r in range(2, 39, 2):
            map_c, map_d = lift_sign_maps(m, m + r)
            assert map_c == {"+": "+", "-": "-"}, (m, r)
            flips = map_d == {"+": "-", "-": "+"}
            assert flips or map_d == {"+": "+", "-": "-"}, (m, r)
            assert flips == _d_lift_flips_sign(r), (m, r)


def test_sparse_call_builds_a_fixed_number_of_full_degree_permutations(monkeypatch):
    """Outside the search a call's interpreted work is O(moved points),
    wherever they sit: the degree-n Permutations it builds are c and d,
    each built and walked once by _full_cycle, whose walk is also their
    bijection check; no other degree-n list is checked or walked, and c*d
    is compared with g as an image list.  The counts are the same at
    n = 501 and n = 1001."""
    import ancover.constructor

    check, walk = permutations._bijection, permutations._walk
    full_cycle = ancover.constructor._full_cycle
    for n in (501, 1001):
        C, D = parse_class_label(f"{n}:+"), parse_class_label(f"{n}:-")
        for cycles in [
            [(3, n - 40, 77), (5, 11), (n, 200)],
            [(1, 2, 3)],  # moved points at 1, adjacent
            [(n - 2, n - 1, n)],  # moved points at n
            [(1, n), (250, 251)],
        ]:
            g = cyc(n, *cycles)
            built, walked, lifted = [], [], []

            def counting_check(images, built=built):
                built.append(len(images))
                return check(images)

            def counting_walk(images, walked=walked):
                walked.append(len(images))
                return walk(images)

            def counting_full_cycle(images, lifted=lifted):
                lifted.append(len(images))
                return full_cycle(images)

            monkeypatch.setattr(permutations, "_bijection", counting_check)
            monkeypatch.setattr(permutations, "_walk", counting_walk)
            monkeypatch.setattr(ancover.constructor, "_full_cycle", counting_full_cycle)
            c, d = cover_with_ncycles(g, C, D, seed=4)
            monkeypatch.undo()
            assert c * d == g
            assert lifted.count(n) == 2, (n, cycles)
            assert built.count(n) == walked.count(n) == 0, (n, cycles)


# (n, cycles of g, r, swap): one case per branch of the lift.
LIFT_CASES = [
    (11, [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10)], 0, False),  # r = 0
    (1001, [(1, 500, 1001)], 996, False),  # degree 5; moved points at 1 and n
    (1001, [(2, 3, 4)], 996, True),  # degree 5, swapped; adjacent moved points
    (1001, [(2, 3), (4, 5)], 994, False),  # degree 7 from k = n - 4
    (1001, [(1, 1001), (3, 4)], 994, True),
    (1001, [(10, 20, 30, 40, 50)], 994, True),  # degree 7 from k = n - 5
    (1001, [(999, 1000, 1001)], 996, False),
    (1001, [(1, 2, 3), (1000, 1001), (4, 6)], 994, True),
    (21, [tuple(range(1, 20))], 2, False),  # r = 2
    (21, [tuple(range(2, 21))], 2, True),
    (7, [(1, 2, 3)], 2, False),
]


@pytest.mark.parametrize("n, cycles, r, swap", LIFT_CASES)
def test_run_sliced_lift_matches_per_point_lift(n, cycles, r, swap):
    g = cyc(n, *cycles)
    _, m, swapped = ncycle_relabelling(g)
    assert (n - m, swapped) == (r, swap)
    for sc, sd in itertools.product("+-", repeat=2):
        C, D = parse_class_label(f"{n}:{sc}"), parse_class_label(f"{n}:{sd}")
        assert cover_with_ncycles(g, C, D, seed=n) == reference_ncycle_cover(g, C, D, seed=n)


def test_run_sliced_lift_matches_per_point_lift_on_seeded_sparse_g():
    rng = random.Random(29)
    branches = set()
    for n in (9, 21, 101, 1001):
        for _ in range(10):
            points = rng.sample(range(1, n + 1), rng.randint(3, min(9, n - 2)))
            g = _random_even_on(points, n, rng)
            C = parse_class_label(f"{n}:{rng.choice('+-')}")
            D = parse_class_label(f"{n}:{rng.choice('+-')}")
            seed = rng.randrange(1000)
            try:
                c, d = cover_with_ncycles(g, C, D, seed=seed)
            except NotCoverable:
                continue
            assert (c, d) == reference_ncycle_cover(g, C, D, seed)
            _, m, swapped = ncycle_relabelling(g)
            branches.add((n - m > 2, swapped))
    assert branches == {(False, False), (False, True), (True, False), (True, True)}


def test_sparse_call_shares_the_stripped_points_with_g():
    # c and d hold each stripped fixed point of g as the int object in
    # g.images, not as a new int of equal value, so a sparse call at
    # n = 1001 keeps no second set of about n ints alive.
    n = 1001
    g = cyc(n, (3, n - 40, 77), (5, 11), (n, 200))
    c, d = cover_with_ncycles(g, parse_class_label(f"{n}:+"), parse_class_label(f"{n}:-"), seed=4)
    stripped = [y for x, y in enumerate(g.images, 1) if x == y]
    assert len(stripped) == n - 7
    for images in (c.images, d.images):
        held = [y for y in images if g(y) == y]
        assert sorted(held) == stripped
        assert all(y is g.images[y - 1] for y in held)


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
        if g != identity(n):
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
