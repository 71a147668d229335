import gc
import random

import pytest

from qpcox import barcanon
from qpcox.barcanon import ModuleVector, bar_columns, bar_vector, canonical_basis, verify_recurrences
from qpcox.coxeter import build_system
from qpcox.hecke import HeckeElt, kl_basis
from qpcox.laurent import (
    LaurentPoly,
    ONE,
    PolyMemo,
    V,
    VINV,
    ZERO,
    canonical_columns,
    combine,
    lincomb,
)
from qpcox.qpsets import coset_set, regular_set

from oracle_canonical import (
    ShiftMemo, SkewViolation, add_scaled, count_lincomb, fold_combine, generic_canonical_columns, shift, solve_skew,
    v_power,
)
from oracle_hecke import from_pairs


# ---------------------------------------------------------------------------
# Dense-array oracle: coefficients on the fixed window [-60, 60], written
# independently of the sparse implementation.

LO, HI = -60, 60


def dense(p: LaurentPoly) -> list[int]:
    a = [0] * (HI - LO + 1)
    for e, c in p.terms.items():
        a[e - LO] = c
    return a


def dense_add(a, b):
    return [x + y for x, y in zip(a, b)]


def dense_mul(a, b):
    out = [0] * (HI - LO + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            k = (i + LO) + (j + LO)  # exponent of the product term
            if LO <= k <= HI:
                out[k - LO] += x * y
    return out


def dense_bar(a):
    out = [0] * (HI - LO + 1)
    for i, x in enumerate(a):
        out[(HI - LO) - i] = x  # exponent e -> -e on a symmetric window
    return out


def random_poly(rng, span=20, nterms=6, cmax=9):
    t = {}
    for _ in range(rng.randrange(nterms + 1)):
        t[rng.randrange(-span, span + 1)] = rng.randrange(-cmax, cmax + 1)
    return LaurentPoly(t)


def test_arith_matches_dense_oracle():
    rng = random.Random(20240901)
    for _ in range(300):
        p = random_poly(rng)
        q = random_poly(rng)
        assert dense(p + q) == dense_add(dense(p), dense(q))
        assert dense(p - q) == dense_add(dense(p), [-y for y in dense(q)])
        assert dense(p * q) == dense_mul(dense(p), dense(q))
        assert dense(p.bar()) == dense_bar(dense(p))


def test_examples():
    assert (V - VINV) * (V + VINV) == v_power(2) - v_power(-2)
    p = LaurentPoly({3: 2, 0: -1})
    assert p + ZERO == p
    assert VINV * V == ONE
    assert V + 2 * v_power(-3) == LaurentPoly({1: 1, -3: 2})
    assert (V + 2 * v_power(-3)).bar() == VINV + 2 * v_power(3)
    assert LaurentPoly.const(7).bar() == LaurentPoly.const(7)
    q = 3 * v_power(2) - V
    assert q.bar().bar() == q


def test_bar_is_ring_automorphism():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        assert (p * q).bar() == p.bar() * q.bar()
        assert (p + q).bar() == p.bar() + q.bar()


def test_int_coercion_and_pow():
    assert 1 + V - 1 == V
    assert (V + VINV) ** 2 == v_power(2) + 2 + v_power(-2)
    assert (-V) ** -3 == -v_power(-3)
    assert V ** -4 == v_power(-4)
    with pytest.raises(ValueError):
        (V + ONE) ** -1


def test_solve_skew_examples():
    assert solve_skew(V - VINV) == -VINV
    assert solve_skew(ZERO) == ZERO
    assert solve_skew(2 * v_power(3) - 2 * v_power(-3)) == -2 * v_power(-3)


def test_solve_skew_roundtrip():
    rng = random.Random(99)
    for _ in range(200):
        m = LaurentPoly(
            {-rng.randrange(1, 15): rng.randrange(-9, 10) for _ in range(rng.randrange(5))}
        )
        assert solve_skew(m - m.bar()) == m


def test_solve_skew_rejects_bad_input():
    with pytest.raises(SkewViolation):
        solve_skew(ONE)  # nonzero constant term
    with pytest.raises(SkewViolation):
        solve_skew(V + VINV)  # symmetric, not skew


def test_serialization_pairs():
    p = LaurentPoly({2: 5, -1: -3})
    assert p.to_pairs() == [[-1, -3], [2, 5]]
    assert from_pairs(p.to_pairs()) == p
    assert from_pairs([]) == ZERO


def test_str():
    assert str(ZERO) == "0"
    assert str(V - 2 * VINV) == "-2v^-1 + v"
    assert str(LaurentPoly.const(-1)) == "-1"


def test_canonical_columns_smallest_cases():
    # two positions with bar(M1) = M1 + (v^-1 - v) M0, the rank-one parabolic
    # picture: the unique correction in v^-1.Z[v^-1] is p[0,1] = v^-1
    bar_col = [{0: ONE}, {0: VINV - V, 1: ONE}]
    p, mu = generic_canonical_columns(bar_col)
    assert p[(0, 0)] == ONE and p[(1, 1)] == ONE
    assert p[(0, 1)] == VINV
    assert mu == {(0, 1): 1}
    # the same carrier for the multiplication-theorem solve: one generator
    # swapping heights 0 and 1, so C_1 = (H_s + v^-1) M_0
    for kind in ("M", "N"):
        assert canonical_columns(kind, [[1, 0]], [0, 2]) == (p, mu)


def test_canonical_columns_rejects_inconsistent_bar():
    # a "bar" fixing nothing cannot be corrected: g fails skewness
    bar_col = [{0: ONE}, {0: V, 1: ONE}]
    with pytest.raises(SkewViolation):
        generic_canonical_columns(bar_col)


# ---------------------------------------------------------------------------
# the sparse-vector kernel, against the LaurentPoly operators as the oracle


def random_vector(rng, keys=8, nonzero=True):
    vec = {}
    for _ in range(rng.randrange(keys)):
        p = random_poly(rng, span=6, nterms=4, cmax=3)
        if p or not nonzero:
            vec[rng.randrange(keys)] = p
    return vec


def oracle_add_scaled(acc, vec, c):
    out = dict(acc)
    for k, q in vec.items():
        out[k] = out.get(k, ZERO) + c * q
    return {k: q for k, q in out.items() if q}


def test_add_scaled_matches_polynomial_operators():
    rng = random.Random(20261017)
    for _ in range(500):
        acc = random_vector(rng)
        vec = random_vector(rng, nonzero=rng.random() < 0.8)
        c = random_poly(rng, span=3, nterms=3, cmax=4) if rng.random() < 0.7 else rng.randrange(-3, 4)
        expect = oracle_add_scaled(acc, vec, c)
        held = [(q, dict(q.terms)) for q in [*acc.values(), *vec.values(), c] if isinstance(q, LaurentPoly)]
        out = add_scaled(acc, vec, c)
        assert out is acc
        assert acc == expect
        assert all(acc.values())  # no zero polynomial is kept
        assert all(q.terms == t for q, t in held)  # no input polynomial was mutated


def test_add_scaled_cancellation_and_scalars():
    rng = random.Random(5)
    for _ in range(100):
        vec = random_vector(rng)
        acc = dict(vec)
        assert add_scaled(acc, vec, -1) == {}
        acc = {k: q * V for k, q in vec.items()}
        assert add_scaled(acc, vec, -V) == {}
        assert add_scaled(dict(vec), vec, 0) == vec
        assert add_scaled(dict(vec), vec, ZERO) == vec
        assert add_scaled({}, vec) == vec
        assert add_scaled({}, vec, -v_power(3)) == {k: -shift(q, 3) for k, q in vec.items()}
    # shared constants are never mutated
    acc = {0: ONE, 1: V}
    add_scaled(acc, {0: ONE, 1: ONE}, VINV)
    assert ONE.terms == {0: 1} and V.terms == {1: 1} and VINV.terms == {-1: 1}
    assert acc == {0: ONE + VINV, 1: V + VINV}
    h = LaurentPoly({2: 1})
    hash(h)
    acc = {0: h}
    add_scaled(acc, {0: h})
    assert h == v_power(2) and hash(h) == hash(v_power(2))


def test_vector_minus_itself_is_zero():
    a2 = build_system("A2")
    X = regular_set(a2)
    rng = random.Random(11)
    for _ in range(20):
        coords = {k % len(X): q for k, q in random_vector(rng).items()}
        m = ModuleVector("M", X, coords)
        assert not (m - m).coords and (m - m) == ModuleVector("M", X, {})
        assert (m + m) == m.scale(2) and (m + m - m) == m
        h = HeckeElt(a2, {k % 6: q for k, q in coords.items()})
        assert (h - h).coords == {} and (h - h) == HeckeElt(a2, {})
        assert (h + h) == h.scale(2) and (h + h - h) == h


# ---------------------------------------------------------------------------
# hashing, the pooled sum kernel and the per-call memo


def test_constant_hashes_like_its_int():
    for c in (0, 1, -1, 2, -7, 10**30):
        p = LaurentPoly.const(c)
        assert p == c and hash(p) == hash(c)
    assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)
    assert len({ONE, 1}) == 1 and len({ZERO, 0}) == 1 and len({ONE, 1, V}) == 2
    assert {1: "x"}.get(ONE) == "x" and {ONE: "x"}.get(1) == "x" and {0: "z"}.get(ZERO) == "z"
    rng = random.Random(31)
    for _ in range(200):
        p = random_poly(rng, span=3, nterms=3, cmax=3)
        q = LaurentPoly(dict(p.terms))
        assert p == q and hash(p) == hash(q)


def copied(vec):
    """vec with every entry replaced by an equal polynomial held by a new object."""
    return {k: LaurentPoly(dict(q.terms)) for k, q in vec.items()}


def random_terms(rng, pool):
    """(vec, c) pairs over few distinct entry values, as in a bar matrix, with
    int, zero and negative scalars, and entries copied to distinct objects."""
    terms = []
    for _ in range(rng.randrange(7)):
        vec = {rng.randrange(10): rng.choice(pool) for _ in range(rng.randrange(8))}
        if rng.random() < 0.3:
            vec = copied(vec)
        r = rng.random()
        if r < 0.4:
            c = rng.choice([0, 1, -1, 2, -3, ZERO, ONE, -ONE, LaurentPoly.const(2)])
        elif r < 0.8:
            c = LaurentPoly(dict(rng.choice(pool).terms))
        else:
            c = -random_poly(rng, span=3, nterms=3, cmax=3)
        terms.append((vec, c))
        if rng.random() < 0.2:  # a sum that cancels, through equal copies
            terms.append((copied(vec), -c))
    return terms


def lincomb_cases():
    """Sums at the edges of the integer packing: coefficients at the bound
    on the result, big integers, far exponents, cancelling powers, int
    scalars and ZERO entries."""
    big = LaurentPoly({0: 2**61})
    for sign in (1, -1):
        # one coefficient exactly at the bound: max entry L1 times the scalars' L1
        yield [({0: sign * big}, 1)]
        yield [({0: big}, sign)]
        yield [({0: LaurentPoly({3: 5 * sign})}, LaurentPoly({-2: 7})), ({0: LaurentPoly({1: 5})}, 7 * sign)]
        yield [({0: 3 * sign * V, 1: -V}, 1), ({0: 3 * V, 1: -V}, sign), ({0: 3 * sign * V}, ONE)]
        yield [({k: sign * v_power(k) for k in range(4)}, LaurentPoly({-k: 2 for k in range(4)}))]  # spread out
    huge = LaurentPoly({-2: 3**50, 1: -(2**70) - 1})
    yield [({0: huge, 1: ONE}, 10**25 * V), ({0: -huge}, -(2**64) + 1), ({1: huge}, huge)]
    far = LaurentPoly({500: 3, -500: -2})
    yield [({0: far, 1: V}, LaurentPoly({-500: 1, 500: 4})), ({1: far}, v_power(-500)), ({0: ONE}, v_power(500))]
    p = (V - VINV) ** 12
    vec = {0: V + 2 * VINV, 1: p, 2: ONE}
    yield [(vec, p), (copied(vec), -p)]
    yield [(vec, p), ({0: ONE}, p), (copied(vec), -p), ({0: -ONE}, p)]
    for c in (0, 1, -1, 10**40):
        yield [(vec, c), ({0: V, 3: -VINV}, c), ({3: VINV}, V)]
    yield [({0: ZERO, 1: V}, 2)]
    yield [({0: ZERO}, V), ({1: ZERO, 2: ONE}, 1)]
    yield [({0: ZERO}, V)]


def test_lincomb_matches_the_add_scaled_fold():
    rng = random.Random(20261019)
    pool = [p for p in (random_poly(rng, span=4, nterms=3, cmax=3) for _ in range(8)) if p] + [ONE, V, -VINV]
    cancelled = 0
    for _ in range(600):
        terms = random_terms(rng, pool)
        held = [(q, dict(q.terms)) for vec, c in terms for q in [*vec.values(), c] if isinstance(q, LaurentPoly)]
        expect = fold_combine(terms)
        out = lincomb(iter(terms))
        assert out == expect == count_lincomb(terms)
        assert all(out.values())  # a sum that cancels leaves its key absent
        assert all(q.terms == t for q, t in held)  # no input polynomial was mutated
        cancelled += any(k not in out for vec, _ in terms for k in vec)
    assert cancelled > 50
    vec = {0: V, 1: ONE + VINV}
    assert lincomb([(vec, VINV), (copied(vec), -VINV)]) == {}
    assert lincomb([(vec, 1), (vec, ONE), (copied(vec), -2)]) == {}
    assert lincomb([]) == {} and lincomb([(vec, 0), ({}, V)]) == {}
    for terms in lincomb_cases():
        out = lincomb(terms)
        assert out == count_lincomb(terms) == fold_combine(terms), terms
        assert all(out.values())
    assert lincomb([({0: LaurentPoly({0: 2**61})}, 1)]) == {0: LaurentPoly({0: 2**61})}
    assert lincomb([({0: ZERO, 1: V}, 2)]) == {1: 2 * V} and lincomb([({0: ZERO}, V)]) == {}
    # one term with a unit scalar is its vector's own nonzero entries
    vec = {0: V + 2 * VINV, 1: ZERO, 2: -v_power(3), 3: LaurentPoly({7: 2**70})}
    for c in (1, ONE):
        out = lincomb([(vec, c)])
        assert out == count_lincomb([(vec, c)]) and out is not vec
        assert list(out) == [0, 2, 3] and all(out[k] is vec[k] for k in out)


def test_lincomb_and_bar_vector_do_no_polynomial_arithmetic(monkeypatch):
    # lincomb sums by Kronecker substitution, and bar_vector only bars the
    # coefficients of the vector: with LaurentPoly's + and * made to fail,
    # both still give the sums of the counting kernel
    a3, b3 = build_system("A3"), build_system("B3")
    vectors = []
    for X in (regular_set(a3), regular_set(b3), coset_set(b3, [0, 2])):
        for kind in ("M", "N"):
            vectors += bar_columns(kind, X)
            vectors += [ModuleVector(kind, X, col) for col in canonical_basis(kind, X).cols]
    bars = [count_lincomb((bar_columns(u.kind, u.X)[p].coords, c.bar()) for p, c in u.coords.items())
            for u in vectors]
    saved = []  # the terms of act_hecke in the Hecke products below

    def record(terms):
        saved.append(list(terms))
        return lincomb(saved[-1])

    monkeypatch.setattr(barcanon, "lincomb", record)
    kl = kl_basis(a3)
    elements = [kl.underline(y) for y in (5, 11, 23)] + [HeckeElt(a3, {0: V - VINV, 3: 2 * VINV, 7: ONE})]
    for h in elements:
        for g in elements:
            h * g
    monkeypatch.undo()
    sums = [count_lincomb(terms) for terms in saved]
    assert len(saved) == len(elements) ** 2 and any(len(terms) > 1 for terms in saved)

    def fail(*args):
        pytest.fail("polynomial arithmetic ran")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, op, fail)
    assert [bar_vector(u).coords for u in vectors] == bars
    assert [lincomb(terms) for terms in saved] == sums


def test_combine_matches_the_add_scaled_fold():
    rng = random.Random(20261020)
    pool = [p for p in (random_poly(rng, span=4, nterms=3, cmax=3) for _ in range(8)) if p] + [ONE, V, -VINV]
    for _ in range(600):
        terms = random_terms(rng, pool)
        held = [(q, dict(q.terms)) for vec, c in terms for q in [*vec.values(), c] if isinstance(q, LaurentPoly)]
        start = {k: rng.choice(pool) for k in range(rng.randrange(4))}
        ar = PolyMemo()
        out = combine(iter(terms), ar, dict(start))
        assert out == fold_combine([(start, ONE), *terms])
        assert all(out.values())  # a sum that cancels leaves its key absent
        assert all(q.terms == t for q, t in held)  # no input polynomial was mutated
        assert all(type(k) is LaurentPoly for k in ar._values)  # an int scalar is interned as a polynomial
    vec = {0: V, 1: ONE + VINV}
    got = combine([(vec, 1), ({}, V), (vec, 0), (vec, ZERO)], PolyMemo())
    assert got == vec and all(got[k] is vec[k] for k in vec)  # a unit scalar adds the entries themselves
    assert combine([(vec, VINV), (copied(vec), -VINV)], PolyMemo()) == {}


def freed_vectors(n):
    """Vectors made and dropped one at a time: an entry's id is free for the
    next vector's entries as soon as the consumer lets go of it."""
    for i in range(n):
        yield {k: LaurentPoly({k: i % 5 + 1, -1: i % 3 - 1}) for k in range(4)}, (ONE, VINV, 2)[i % 3]


def test_lincomb_holds_the_entries_it_keys_by_id():
    seen, reused = set(), False
    for vec, _ in freed_vectors(200):
        ids = {id(q) for q in vec.values()}
        reused |= bool(ids & seen)
        seen |= ids
    assert reused  # the generator does hand out reused ids
    assert lincomb(freed_vectors(200)) == fold_combine(freed_vectors(200))


def test_poly_memo_interns_and_matches_the_operators():
    ar = ShiftMemo()
    a = LaurentPoly({1: 2, -1: 1})
    assert ar.intern(a) is a and ar.intern(LaurentPoly(dict(a.terms))) is a
    assert ar.intern(LaurentPoly()) is ZERO and ar.intern(a - a) is ZERO
    # a memo starts with ZERO and ONE: an interned constant 1 is ONE itself
    assert PolyMemo().intern(LaurentPoly.const(1)) is ONE and PolyMemo().intern(LaurentPoly()) is ZERO
    assert PolyMemo().add(V - V, ONE) is ONE
    rng = random.Random(19)
    polys = [random_poly(rng, span=3, nterms=3, cmax=2) for _ in range(12)]
    results = []
    for _ in range(400):
        p, q = rng.choice(polys), LaurentPoly(dict(rng.choice(polys).terms))
        k = rng.randrange(-3, 4)
        got = [ar.shift(p, k), ar.add(p, q), ar.mul(p, q)]
        assert got == [shift(p, k), p + q, p * q]
        results += got
    # interned: two results are equal exactly when they are one object
    for r, s in zip(results, results[1:] + results[:1]):
        assert (r == s) == (r is s)


def test_poly_memo_holds_the_operands_it_keys_by_id():
    # each operand is dropped after its call, so without the hold its id
    # would come back with another value and hit a stale entry
    ar = ShiftMemo()
    for i in range(300):
        assert ar.shift(LaurentPoly({0: i, 2: 1}), 1) == LaurentPoly({1: i, 3: 1})
        assert ar.add(LaurentPoly.const(i), LaurentPoly({1: i})) == LaurentPoly({0: i, 1: i})


def test_recurrence_memo_dies_with_its_call():
    X = regular_set(build_system("A3"))
    table = canonical_basis("M", X)
    assert verify_recurrences(table).ok
    gc.collect()
    assert [o for o in gc.get_objects() if isinstance(o, PolyMemo)] == []
