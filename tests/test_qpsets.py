import itertools

import pytest

import oracle_qpsets as oracle
from oracle_group import bruhat_leq, table_reflections
from oracle_qpsets import payloads
from qpcox.coxeter import Element, ExtElement, KeyTwist, build_system, twisted_conjugate
from qpcox import coxeter, qpsets
from qpcox.errors import ConsistencyError, GroupTooLarge, InfiniteParabolic, NotQuasiparabolic, TruncationRequired
from qpcox.classify import twisted_classes
from qpcox.qpsets import (
    ScaledWSet,
    bruhat_order,
    check_qp1_only,
    check_quasiparabolic,
    conjugacy_set,
    coset_set,
    even_double_cover,
    regular_set,
    revalidate_witness,
    rht_witness,
)


def ext(system, word, theta=None):
    theta = theta or system.identity_aut()
    return ExtElement(system.element_from_word(word), theta)


def maximal_elements(X):
    """Points whose height does not rise under any generator; a
    truncated-away image counts as an ascent."""
    return [
        x for x in range(len(X))
        if all(y is not None and X.height2[y] <= X.height2[x] for y in (row[x] for row in X.action))
    ]


def carrier_to_json(X, verdict=None):
    """A JSON dump of a carrier: points, action rows, extremal points."""
    out = {
        "schema_version": 1,
        "system": X.system.name,
        "kind": X.kind,
        "truncated_at": X.truncated_at,
        "points": [
            {"id": i, "payload": X.describe_point(i), "height2": X.height2[i]} for i in range(len(X))
        ],
        "action": [list(row) for row in X.action],
        "minimal": X.minimal_elements(),
        "maximal": maximal_elements(X),
    }
    if verdict is not None:
        out["quasiparabolic"] = verdict.is_qp
        out["witness"] = verdict.witness()
    return out


def fpf_class(system):
    # seed s1 s3 s5 ... inside a type A system of odd rank
    seed = ext(system, tuple(range(0, system.rank, 2)))
    return conjugacy_set(system, seed)


def test_coset_set_a2():
    a2 = build_system("A2")
    X = coset_set(a2, [1])
    assert len(X) == 3
    assert X.height2 == [0, 2, 4]
    words = [tuple(w.word()) for w in payloads(X)]
    assert words == [(), (0,), (1, 0)]
    assert X.minimal_elements() == [0]


def test_coset_set_full_and_empty():
    a3 = build_system("A3")
    assert len(coset_set(a3, [0, 1, 2])) == 1
    X = coset_set(a3, [])
    assert X.kind == "regular" and len(X) == 24
    assert regular_set(a3).kind == "regular"
    with pytest.raises(InfiniteParabolic):
        coset_set(build_system("U2"), [0])


def test_conjugacy_set_a3_fpf():
    a3 = build_system("A3")
    X = fpf_class(a3)
    assert len(X) == 3
    assert X.height2 == [2, 4, 6]
    assert X.keys[-1] == a3.longest_element().key
    assert X.minimal_elements() == [0]
    assert maximal_elements(X) == [2]


def test_conjugacy_set_a2_class_of_s1():
    a2 = build_system("A2")
    X = conjugacy_set(a2, ext(a2, (0,)))
    assert len(X) == 3
    assert sorted(X.height2) == [1, 1, 3]
    # two W-minimal points of equal height means not quasiparabolic
    assert len(X.minimal_elements()) == 2


def test_conjugacy_seed_of_automorphism_contains_height_zero():
    a2 = build_system("A2")
    swap = next(a for a in a2.diagram_automorphisms() if not a.is_identity())
    X = conjugacy_set(a2, ExtElement(a2.identity, swap))
    assert 0 in X.height2


def test_universal_conjugacy_needs_cutoff():
    u3 = build_system("U3")
    theta = u3.identity_aut()
    with pytest.raises(TruncationRequired):
        conjugacy_set(u3, ExtElement(u3.identity, theta))
    X = conjugacy_set(u3, ext(u3, (0,)), cutoff=5)
    assert X.truncated_at == 5
    assert all(h <= 5 for h in X.height2)


def test_check_quasiparabolic_verdicts():
    a3 = build_system("A3")
    assert check_quasiparabolic(fpf_class(a3)).is_qp
    for J in ([], [0], [1], [0, 2], [0, 1, 2]):
        assert check_quasiparabolic(coset_set(a3, J)).is_qp

    a2 = build_system("A2")
    X = conjugacy_set(a2, ext(a2, (0,)))
    verdict = check_quasiparabolic(X)
    assert not verdict.is_qp and verdict.axiom == "QP1"
    # expected witness: r = s1 s2 s1 against the point s1 (equal lengths, rx != x)
    assert verdict.r_word == (0, 1, 0)
    assert X.keys[verdict.x] == a2.generator(0).key
    assert revalidate_witness(X, verdict.witness())


def test_qp_failure_a4_half_fpf():
    # class of s1 s3 in A4: several minimal-length elements (s1 s3, s1 s4,
    # s2 s4), so it fails QP
    a4 = build_system("A4")
    X = conjugacy_set(a4, ext(a4, (0, 2)))
    assert len(X) == 15
    assert len(X.minimal_elements()) == 3
    verdict = check_quasiparabolic(X)
    assert not verdict.is_qp
    assert revalidate_witness(X, verdict.witness())


def test_bruhat_order_on_fpf_chain():
    a3 = build_system("A3")
    X = fpf_class(a3)
    order = bruhat_order(X)
    for x in range(3):
        for y in range(3):
            assert order.leq(x, y) == (x <= y)  # a 3-chain


def test_bruhat_order_coset_agrees_with_group_order():
    a3 = build_system("A3")
    for J in ([1], [0, 2]):
        X = coset_set(a3, J)
        order = bruhat_order(X)
        points = payloads(X)
        for x in range(len(X)):
            for y in range(len(X)):
                assert order.leq(x, y) == bruhat_leq(points[x], points[y])


def test_bruhat_order_requires_qp():
    a2 = build_system("A2")
    X = conjugacy_set(a2, ext(a2, (0,)))
    with pytest.raises(NotQuasiparabolic):
        bruhat_order(X)


def test_bruhat_lemma_on_instances():
    # x <= y implies: sy <= y => sx <= y, and x <= sx => x <= sy
    a3 = build_system("A3")
    for X in (fpf_class(a3), coset_set(a3, [1]), coset_set(a3, [0])):
        order = bruhat_order(X)
        n = len(X)
        for x in range(n):
            for y in range(n):
                if not order.leq(x, y):
                    continue
                assert X.height2[x] <= X.height2[y]
                if x != y:
                    assert X.height2[x] < X.height2[y]
                for s in range(X.n_gens):
                    sx, sy = X.action[s][x], X.action[s][y]
                    if X.height2[sy] <= X.height2[y]:
                        assert order.leq(sx, y)
                    if X.height2[x] <= X.height2[sx]:
                        assert order.leq(x, sy)


def test_rht_witness():
    a3 = build_system("A3")
    X = fpf_class(a3)
    assert rht_witness(X, 0).is_identity()
    w = rht_witness(X, 2)
    assert w.length == 2
    assert w.word() == (0, 1)  # lowest-index tie-breaking from the top point
    # witness moves the minimal point to the given point
    points = payloads(X)
    assert twisted_conjugate(w, points[0]) == points[2]

    Xj = coset_set(a3, [2])
    for pid, w in enumerate(payloads(Xj)):
        assert rht_witness(Xj, pid) == w  # R_ht(x) = {x} on coset sets


def test_even_double_cover_heights_and_size():
    a2 = build_system("A2")
    X = coset_set(a2, [1])  # heights 0, 1, 2
    cover = even_double_cover(X)
    assert len(cover) == 6
    by_key = {cover.keys[i]: cover.height2[i] for i in range(6)}
    pid1 = X.height2.index(2)  # the ht = 1 point
    assert by_key[(pid1, 1)] == 2  # doubled ht 1
    assert by_key[(pid1, 0)] == 4  # doubled ht 2
    # W-minimal base point lifts to the W x A1-minimal cover point
    x0 = X.minimal_elements()[0]
    lift = cover.index[(x0, (X.height2[x0] // 2) % 2)]
    assert lift in cover.minimal_elements()


def test_even_double_cover_preserves_qp_verdict():
    a3 = build_system("A3")
    X = fpf_class(a3)
    assert check_quasiparabolic(even_double_cover(X)).is_qp

    a4 = build_system("A4")
    Y = conjugacy_set(a4, ext(a4, (0, 2)))
    assert not check_quasiparabolic(Y).is_qp
    assert not check_quasiparabolic(even_double_cover(Y)).is_qp


def test_scaled_axiom_validated_everywhere():
    # constructors self-check |delta height2| in {0, 2} and involutivity
    b2 = build_system("B2")
    for J in ([], [0], [1]):
        coset_set(b2, J)
    swap = next(a for a in b2.diagram_automorphisms() if not a.is_identity())
    conjugacy_set(b2, ExtElement(b2.identity, swap))


def test_json_dump():
    a2 = build_system("A2")
    X = coset_set(a2, [1])
    d = carrier_to_json(X, check_quasiparabolic(X))
    assert d["quasiparabolic"] is True
    assert d["points"][0]["height2"] == 0
    assert len(d["action"]) == 2


def qp1_oracle(X):
    """The direct (QP1) scan over R x X that check_qp1_only used to run."""
    for ra in X.reflection_actions():
        for x in range(len(X)):
            if ra.img_h2[x] == X.height2[x] and ra.img[x] != x:
                return False
    return True


def test_check_qp1_only_matches_direct_scan_on_b3():
    b3 = build_system("B3")
    seen = {True: 0, False: 0}
    for theta in b3.diagram_automorphisms():
        for K in twisted_classes(b3, theta):
            expect = qp1_oracle(K)
            assert check_qp1_only(K) == expect
            seen[expect] += 1
    assert seen[True] and seen[False]  # both verdicts occur


def generated(mult, ident, gens):
    """The subgroup generated by the element ids gens."""
    H, queue = {ident}, [ident]
    for h in queue:  # iterating the growing list closes the set
        for g in gens:
            k = mult(h, g)
            if k not in H:
                H.add(k)
                queue.append(k)
    return frozenset(H)


def quotient_carriers(system):
    """(W/H, its reflection rows by group arithmetic, r . wH = (r w)H) for
    every cyclic subgroup H != 1 of a finite W and every subgroup generated
    by two involutions; W acts on the left, and for each base coset the
    heights are twice the Schreier-graph distance from it."""
    table = system._ensure_table()
    mult, ident, n = table.mult_ids, system.identity_key, len(table.perms)
    involutions = [w for w in range(n) if w != ident and mult(w, w) == ident]
    gens = [(w,) for w in range(n) if w != ident] + [(a, b) for a in involutions for b in involutions]
    out = []
    for H in dict.fromkeys(generated(mult, ident, g) for g in gens):
        coset = [frozenset(mult(w, h) for h in H) for w in range(n)]
        cosets = list(dict.fromkeys(coset))
        cid = {c: i for i, c in enumerate(cosets)}
        reps = [min(c) for c in cosets]
        rows = [[cid[coset[mult(g, w)]] for w in reps] for g in table.gen_ids]
        refl = [[cid[coset[mult(r.key, w)]] for w in reps] for r in system.reflections()]
        for base in range(len(cosets)):
            dist = {base: 0}
            queue = [base]
            for c in queue:
                for row in rows:
                    if row[c] not in dist:
                        dist[row[c]] = dist[c] + 1
                        queue.append(row[c])
            order = sorted(range(len(cosets)), key=lambda c: (dist[c], c))
            pos = {c: i for i, c in enumerate(order)}
            X = ScaledWSet(system, "quotient", order, [2 * dist[c] for c in order],
                           [[pos[row[c]] for c in order] for row in rows])
            out.append((X, [[pos[row[c]] for c in order] for row in refl]))
    return out


def test_qp2_prune_matches_the_unpruned_scan_on_quotients():
    # check_quasiparabolic reads (QP2) only where the image rises by less than
    # two heights; the oracle scans every rising pair.  These quotients are
    # the tier-1 carriers that fail (QP2)
    verdicts = []
    for type_string in ("A3", "B3"):
        for X, refl in quotient_carriers(build_system(type_string)):
            assert [ra.img for ra in X.reflection_actions()] == refl
            verdict = check_quasiparabolic(X)
            assert verdict == oracle.qp_verdict(X)
            verdicts.append(verdict.axiom)
    assert len(verdicts) == 1283 and verdicts.count("QP2") == 338 and verdicts.count(None)


def refl_rows(X):
    return [(ra.word, ra.img, ra.img_h2) for ra in X.reflection_actions()]


def assert_same_carrier(X, Y, keys=False):
    assert (X.kind, X.truncated_at) == (Y.kind, Y.truncated_at)
    assert X.keys == Y.keys
    assert X.height2 == Y.height2
    assert X.action == Y.action
    assert refl_rows(X) == refl_rows(Y)
    if keys:  # a truncated X keeps an image's word exactly where a check can read it
        for ra, rb in zip(X.reflection_actions(), Y.reflection_actions()):
            for x, h in enumerate(ra.img_h2):
                dropped = h > X.truncated_at and h >= X.height2[x] + 4
                assert ra.img_keys[x] == (None if dropped else rb.img_keys[x])
    assert check_quasiparabolic(X) == check_quasiparabolic(Y)


@pytest.mark.parametrize("type_string", ["A3", "B3", "D4", "H3", "F4", "I2(5)"])
def test_carriers_and_reflections_match_element_oracle(type_string):
    # one orbit search on keys and rows composed along reflection words
    # against two searches and reflection images from group arithmetic on
    # elements, on every coset set and every class under every theta
    system = build_system(type_string)
    pairs = [(regular_set(system), oracle.coset_set(system, ()))]
    for r in range(1, system.rank + 1):
        for J in itertools.combinations(range(system.rank), r):
            pairs.append((coset_set(system, J), oracle.coset_set(system, J)))
    for theta in system.diagram_automorphisms():  # D4: both swaps and triality
        for K in twisted_classes(system, theta):
            pairs.append((K, oracle.conjugacy_set(system, payloads(K)[0])))
    pairs += [
        (even_double_cover(X), oracle.even_double_cover(Y))
        for X, Y in pairs
        if not any(h % 2 for h in X.height2)
    ]
    for X, Y in pairs:
        assert_same_carrier(X, Y)
    assert {X.kind for X, _ in pairs} == {"regular", "coset", "conjugacy", "double-cover"}


ROOT_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3", "H4", "I2(5)", "I2(7)"]
SAMPLE_J = {
    "A5": [(), (0,), (1, 3), (0, 1, 2, 3, 4)],
    "B5": [(), (4,), (0, 1, 2, 3), (1, 2, 3, 4)],
    "D5": [(), (0, 2, 4), (1, 2, 3, 4), (0, 1, 2, 3)],
    "E6": [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (0, 2, 3, 4, 5), (0, 1, 2, 3)],
}


def assert_root_carriers_match_table(system, Js):
    # coset and regular carriers searched on the roots against the search on
    # element ids: the word keys are the table's words of the old id keys
    table = system._ensure_table()
    for J in Js:
        X, Y = coset_set(system, J), oracle.table_coset_set(system, J)
        assert X.keys == [table.word(w) for w in Y.keys]
        assert (X.kind, X.J, X.height2, X.action) == (Y.kind, Y.J, Y.height2, Y.action)
        assert [(ra.word, ra.img) for ra in X.reflection_actions()] == oracle.table_reflection_rows(Y)
        assert all(ra.img_h2 == [X.height2[y] for y in ra.img] for ra in X.reflection_actions())


@pytest.mark.parametrize("type_string", ROOT_TYPES + list(SAMPLE_J))
def test_root_carriers_and_reflections_match_the_table_search(type_string):
    system = build_system(type_string)
    Js = SAMPLE_J.get(type_string) or [
        J for k in range(system.rank + 1) for J in itertools.combinations(range(system.rank), k)
    ]
    assert_root_carriers_match_table(system, Js)
    refl = table_reflections(system)
    assert [r.key for r in system.reflections()] == refl
    assert [w for w, _ in system.reflection_roots()] == [system._table.word(r) for r in refl]


def test_coset_search_builds_no_group_table():
    e6 = build_system("E6")
    X = coset_set(e6, (0, 1, 2, 3, 4))
    assert check_quasiparabolic(X).is_qp
    bruhat_order(X)
    assert len(X) == 27 and X.height2[-1] == 2 * len(X.keys[-1]) == 32
    assert e6._table is None


def test_orbit_search_is_bounded_by_the_carrier(monkeypatch):
    # MAX_ORDER bounds the points of a carrier, not |W|: the search refuses
    # the 28th point of an orbit before any row is built
    e6 = build_system("E6")
    monkeypatch.setattr(coxeter, "MAX_ORDER", 27)
    assert len(coset_set(e6, (0, 1, 2, 3, 4))) == 27
    monkeypatch.setattr(coxeter, "MAX_ORDER", 26)
    monkeypatch.setattr(qpsets, "ScaledWSet", None)  # building a carrier would fail
    with pytest.raises(GroupTooLarge, match="MAX_ORDER = 26"):
        coset_set(e6, (0, 1, 2, 3, 4))
    assert e6._table is None


def assert_truncated_classes_match_element_oracle(system, words, cutoff):
    """Words stepped and twisted-conjugated on keys against Element
    arithmetic, and the O(1) out-of-carrier heights against the oracle's QP
    scan, on the classes of (w, theta) for every theta; returns the verdicts."""
    verdicts = set()
    for theta in system.diagram_automorphisms():
        for word in words:
            seed = ext(system, word, theta)
            X = conjugacy_set(system, seed, cutoff=cutoff)
            Y = oracle.conjugacy_set(system, seed, cutoff=cutoff)
            assert_same_carrier(X, Y, keys=True)
            verdict = check_quasiparabolic(X)
            assert verdict == oracle.qp_verdict(Y)
            assert verdict.is_qp or revalidate_witness(X, verdict.witness())
            verdicts.add((verdict.is_qp, verdict.axiom))
    return verdicts


def test_truncated_u3_classes_match_element_oracle():
    u3 = build_system("U3")
    for cutoff in (5, 6, 7):  # reflections have odd length: 6 checks the cutoff + 1 bound
        verdicts = assert_truncated_classes_match_element_oracle(u3, [(), (0,), (0, 1)], cutoff)
        assert verdicts == {(True, None), (False, "QP1")}  # no class here fails QP2 alone


@pytest.mark.parametrize("cutoff", [5, 6, 7])
def test_truncated_u4_twisted_identities_match_element_oracle(cutoff):
    # one seed word: the Element oracle takes seconds per cutoff
    verdicts = assert_truncated_classes_match_element_oracle(build_system("U4"), [()], cutoff)
    assert verdicts == {(True, None)}


def test_kernel_that_drops_the_twist_is_caught(monkeypatch):
    # the oracle comparisons above must fail on a KeyTwist that conjugates by
    # (1, id) whatever theta is: in a class search and in truncated reflection rows
    a3, u3 = build_system("A3"), build_system("U3")
    swap = next(a for a in a3.diagram_automorphisms() if not a.is_identity())
    rot = next(a for a in u3.diagram_automorphisms() if a.order() == 3)
    truncated = conjugacy_set(u3, ext(u3, (), rot), cutoff=5)  # built with the twist
    init = KeyTwist.__init__
    monkeypatch.setattr(KeyTwist, "__init__", lambda self, theta: init(self, theta.system.identity_aut()))
    with pytest.raises(AssertionError):
        assert_same_carrier(conjugacy_set(a3, ext(a3, (), swap)), oracle.conjugacy_set(a3, ext(a3, (), swap)))
    with pytest.raises(AssertionError):
        assert_same_carrier(truncated, oracle.conjugacy_set(u3, ext(u3, (), rot), cutoff=5), keys=True)


def test_cutoff_below_the_seed_is_refused():
    # a class whose seed lies above its own cutoff would have a point the
    # truncation cannot see
    u3 = build_system("U3")
    seed = ext(u3, (0, 1))
    with pytest.raises(TruncationRequired):
        conjugacy_set(u3, seed, cutoff=1)
    assert conjugacy_set(u3, seed, cutoff=2).keys == [(0, 1), (1, 0)]
    assert conjugacy_set(u3, ext(u3, ()), cutoff=0).keys == [()]


def count_elements(monkeypatch):
    """Count Element objects built from now on."""
    count = [0]
    init = Element.__init__

    def counted(self, system, key):
        count[0] += 1
        init(self, system, key)

    monkeypatch.setattr(Element, "__init__", counted)
    return count


def test_truncated_reflections_and_qp_check_build_no_elements(monkeypatch):
    u3 = build_system("U3")
    rot = next(a for a in u3.diagram_automorphisms() if a.order() == 3)
    carriers = [conjugacy_set(u3, ext(u3, word, theta), cutoff=7)
                for word, theta in [((), rot), ((0, 1), None)]]
    count = count_elements(monkeypatch)
    verdicts = []
    for X in carriers:
        X.reflection_actions()
        verdicts.append(check_quasiparabolic(X).is_qp)
    assert count[0] == 0 and verdicts == [True, False]


def test_class_search_builds_no_elements(monkeypatch):
    # classes are searched and stored on keys, and a point is described by
    # the word of its key, so no element is built
    b3 = build_system("B3")
    b3.order()
    count = count_elements(monkeypatch)
    classes = twisted_classes(b3, b3.identity_aut())
    assert count[0] == 0 and sum(len(K) for K in classes) == 48
    assert classes[-1].describe_point(0) == {"x": list(b3.word_of(classes[-1].keys[0])), "theta": [0, 1, 2]}
    assert count[0] == 0


def test_revalidate_witness_rejects_malformed_witnesses():
    a4 = build_system("A4")
    Y = conjugacy_set(a4, ext(a4, (0, 2)))
    for X in (Y, even_double_cover(Y)):
        good = check_quasiparabolic(X).witness()
        assert revalidate_witness(X, good)
        bad = [
            {k: v for k, v in good.items() if k != "r_word"},
            {**good, "x": len(X)},
            {**good, "x": -1},
            {**good, "x": "0"},
            {**good, "r_word": [X.n_gens]},
            {**good, "r_word": [0, 0, 0]},
            {**good, "axiom": "QP2", "s": X.n_gens},
            {**good, "axiom": "QP3"},
        ]
        for witness in bad:
            assert not revalidate_witness(X, witness), witness
    # a reduced word that names no reflection: s1 s2 . s1 = s2 has the height
    # of s1, so it passed as a (QP1) witness when only reducedness was checked
    a3 = build_system("A3")
    X = conjugacy_set(a3, ext(a3, (0,)))
    x = X.index[a3.generator(0).key]
    assert revalidate_witness(X, {"axiom": "QP1", "r_word": [0, 1, 0], "x": x, "s": None})
    assert not revalidate_witness(X, {"axiom": "QP1", "r_word": [0, 1], "x": x, "s": None})


@pytest.mark.parametrize("height2, row", [
    ([0, 4], [1, 0]),  # a move that jumps two heights
    ([0, 2, 2], [1, 2, 0]),  # s sends 0 to 1 but 1 to 2
], ids=["two-heights", "not-involutive"])
def test_scaled_set_refuses_bad_action_rows(height2, row):
    # a typed gate, so the CLI exits 2 with "consistency check failed"
    with pytest.raises(ConsistencyError):
        ScaledWSet(build_system("A1"), "regular", list(range(len(row))), height2, [row])


def _cover_bases():
    """(carrier, its element oracle): A2 and B2 with J = {s1}, and the fpf
    class of A3, whose heights are all integers."""
    a2, b2, a3 = build_system("A2"), build_system("B2"), build_system("A3")
    K = fpf_class(a3)
    return [
        (coset_set(a2, [0]), oracle.coset_set(a2, [0])),
        (coset_set(b2, [0]), oracle.coset_set(b2, [0])),
        (K, oracle.conjugacy_set(a3, payloads(K)[0])),
    ]


@pytest.mark.parametrize("i", range(3), ids=["A2-coset", "B2-coset", "A3-fpf"])
def test_cover_of_a_cover_is_a_carrier_of_its_system(i):
    # a cover of a cover is a set for W x A1 x A1: the reflection closure
    # meets both bit flips, and the rows and the QP verdict are the oracle's
    X, Y = _cover_bases()[i]
    C, D = even_double_cover(even_double_cover(X)), oracle.even_double_cover(oracle.even_double_cover(Y))
    words = {ra.word for ra in C.reflection_actions()}
    assert all((s,) in words for s in range(X.n_gens + 2))
    assert C.system.rank == C.n_gens == X.n_gens + 2
    assert_same_carrier(C, D)
    assert check_quasiparabolic(C).is_qp == check_quasiparabolic(X).is_qp


def test_rht_witness_on_covers():
    # an element of W x A1 (x A1) whose length is the height gained, and
    # which carries the orbit minimum to the point along the action rows
    for X, _ in _cover_bases():
        for C in (even_double_cover(X), even_double_cover(even_double_cover(X))):
            [x0] = C.minimal_elements()
            for x in range(len(C)):
                w = rht_witness(C, x)
                assert 2 * w.length == C.height2[x] - C.height2[x0]
                y = x0
                for s in reversed(w.word()):
                    y = C.action[s][y]
                assert y == x


def test_scaled_set_refuses_rows_beyond_its_rank():
    a1 = build_system("A1")
    with pytest.raises(ConsistencyError):
        ScaledWSet(a1, "regular", [0, 1], [0, 2], [[1, 0], [1, 0]])


def test_double_cover_needs_one_orbit():
    a1 = build_system("A1")
    two_fixed_points = ScaledWSet(a1, "regular", [0, 1], [0, 0], [[0, 1]])
    with pytest.raises(ValueError):
        even_double_cover(two_fixed_points)


def disjoint_union(X, Y, lift2):
    """X and Y, its heights raised by lift2, as one set of X's system with
    two orbits (or more), ids in (height2, id) order."""
    points = sorted([(h, 0, x) for x, h in enumerate(X.height2)] + [(h + lift2, 1, y) for y, h in enumerate(Y.height2)])
    index = {(part, p): i for i, (_, part, p) in enumerate(points)}
    action = [[index[part, (X if part == 0 else Y).action[s][p]] for _, part, p in points] for s in range(X.n_gens)]
    return ScaledWSet(X.system, "regular", list(range(len(points))), [h for h, _, _ in points], action)


def _hand_built_sets():
    """Sets with several orbits, built by hand: two fixed points of A1, two
    A1 edges and a fixed point, the later orbits starting above height 0,
    and unions of A2 and B2 carriers, one raised by one or two heights."""
    a1, a2, b2 = build_system("A1"), build_system("A2"), build_system("B2")
    return [
        ScaledWSet(a1, "regular", [0, 1], [0, 0], [[0, 1]]),
        ScaledWSet(a1, "regular", [0, 1, 2, 3, 4], [0, 2, 4, 6, 6], [[1, 0, 3, 2, 4]]),
        disjoint_union(regular_set(a2), coset_set(a2, [0]), 2),
        disjoint_union(coset_set(a2, [1]), regular_set(a2), 4),
        disjoint_union(coset_set(b2, [0]), coset_set(b2, [1]), 2),
    ]


def _orbit_oracle_carriers():
    """Coset, regular and finite-class carriers, truncated U3 classes,
    double covers (a cover of a cover too) and hand-built sets with several
    orbits."""
    a3, b3, u3 = build_system("A3"), build_system("B3"), build_system("U3")
    out = [coset_set(a3, [1]), coset_set(b3, [0, 2]), regular_set(a3), regular_set(build_system("H3"))]
    for system in (a3, b3):
        for theta in system.diagram_automorphisms():
            out += twisted_classes(system, theta)
    for theta in u3.diagram_automorphisms():
        out += [conjugacy_set(u3, ext(u3, word, theta), cutoff=6) for word in [(), (0,), (0, 1)]]
    for X, _ in _cover_bases():
        out += [even_double_cover(X), even_double_cover(even_double_cover(X))]
    return out + _hand_built_sets()


def test_parity_and_bruhat_order_match_orbit_oracles():
    # the one-pass parity against orbit labels and a second scan for the
    # orbit minima, and the cover closure with its gate against the two
    # closures compared, wherever the carrier is quasiparabolic
    carriers = _orbit_oracle_carriers()
    qp = 0
    for X in carriers:
        assert X.parity == oracle.orbit_parity(X), X
        if check_quasiparabolic(X).is_qp:
            qp += 1
            assert bruhat_order(X).downsets == oracle.two_closure_downsets(X), X
    assert qp > len(carriers) // 2
    hand_built = _hand_built_sets()
    assert all(max(oracle.orbit_min2(X)) > 0 for X in hand_built[1:])  # an orbit starts above height 0
    assert hand_built[1].parity == [0, 1, 0, 1, 0]


def test_bruhat_order_refuses_an_ungraded_order():
    # a planted fault: A2 regular with its QP verdict kept, and its stored
    # reflection rows edited to drop the cover edges into w0, keeping the
    # edge e -> w0 three heights up
    a2 = build_system("A2")
    X = regular_set(a2)
    assert check_quasiparabolic(X).is_qp
    w0, rows = len(X) - 1, X._refl[None]
    dropped = 0
    for ra in rows:
        for x, y in enumerate(ra.img):
            if y == w0 and X.height2[x] == X.height2[w0] - 2:
                ra.img[x], ra.img_h2[x] = x, X.height2[x]
                dropped += 1
    assert dropped == 2 and any(ra.img[0] == w0 for ra in rows)
    with pytest.raises(ConsistencyError, match="not graded"):
        bruhat_order(X)
    with pytest.raises(ConsistencyError, match="not graded"):
        oracle.two_closure_downsets(X)
