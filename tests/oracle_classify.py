"""Class searches, perfectness and minimal-element structure on Element objects.

This is how qpcox.classify worked before its hot paths ran on ids and words:
the class partition walks every Element and searches each class with the
Element oracle of qpsets, perfectness multiplies ExtElements, the structure
check collects the centralizer {z : z . w = w} and the twisted normalizer
{z : z W_J = W_J theta(z)} by Element arithmetic over all of W, and the
universal criterion follows length-reducing twisted conjugations of
ExtElements.  It is kept as an independent oracle for those paths.

rows_structure_check is the structure check on ids as it ran before it
followed z^-1 x theta(z) down the search tree: it builds the rows x z and
x^-1 z and labels each right coset W_J z by a descent search at every id.
"""

from __future__ import annotations

import oracle_qpsets
from oracle_group import bruhat_leq, is_twisted_involution, left_descents
from oracle_qpsets import payloads, twisted
from qpcox.classify import StructureFlags, UniversalQpVerdict
from qpcox.coxeter import ExtElement, KeyTwist
from qpcox.errors import NoUniqueMinimal, NotInvolutionClass


def twisted_classes(system, theta, involutions_only=False):
    seen = set()
    out = []
    for x in system.elements():
        if x.key in seen:
            continue
        p = ExtElement(x, theta)
        if involutions_only and not is_twisted_involution(p):
            continue
        K = oracle_qpsets.conjugacy_set(system, p)
        seen.update(K.keys)
        out.append(K)
    return out


def is_perfect(K):
    if not all(map(is_twisted_involution, payloads(K))):
        raise NotInvolutionClass("perfectness is defined for twisted involution classes")
    system = K.system
    ident = system.identity_aut()
    w = payloads(K)[0]
    for r in system.reflections():
        q = ExtElement(r, ident) * w
        q2 = q * q
        if not (q2 * q2).is_identity():
            return False
    return True


def _parabolic_ids(system, J):
    ids = {system.identity.key}
    frontier = [system.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for j in J:
                z = w * system.generator(j)
                if z.key not in ids:
                    ids.add(z.key)
                    nxt.append(z)
        frontier = nxt
    return ids


def structure_check(K):
    system = K.system
    theta = K.theta
    minima = [p for p in payloads(K) if p.length == K.height2[0]]
    if len(minima) != 1:
        raise NoUniqueMinimal(f"{len(minima)} elements of minimal length")
    w = minima[0]
    x = w.x
    J = tuple(sorted(left_descents(x)))
    fixed = all(twisted(system.generator(s), w) == w for s in J)
    stable = tuple(sorted(theta.gen(j) for j in J)) == J
    x_is_longest = x == system.longest_element(J)

    wj_ids = _parabolic_ids(system, J)
    centralizer = {z.key for z in system.elements() if twisted(z, w) == w}
    normalizer = set()
    for z in system.elements():
        # z W_J = W_J theta(z) iff z theta(z)^-1 in W_J and z normalizes W_J
        if (z * theta(z).inverse()).key not in wj_ids:
            continue
        if all((z * system.generator(j) * z.inverse()).key in wj_ids for j in J):
            normalizer.add(z.key)
    centralizer_ok = centralizer == normalizer

    one = ExtElement(system.identity, theta * theta)
    target = set(payloads(oracle_qpsets.conjugacy_set(system, one)))
    squares = {p * p for p in payloads(K)}
    return StructureFlags(J, fixed, stable, x_is_longest, centralizer_ok, squares == target)


def rows_structure_check(K):
    system = K.system
    theta = K.theta
    n_min = K.height2.count(K.height2[0])
    if n_min != 1:
        raise NoUniqueMinimal(f"{n_min} elements of minimal length")
    x = K.keys[0]
    table = system._ensure_table()
    images, inverse, rmult, lmult, length = (
        theta._images(), table.inverse, table.rmult, table.lmult, table.length)
    J = tuple(s for s in range(system.rank) if length[lmult[x][s]] < length[x])
    step = KeyTwist(theta).step
    fixed = all(step(s, x) == x for s in J)
    stable = tuple(sorted(theta.gen(j) for j in J)) == J
    x_is_longest = x == system.longest_element(J).key

    left_x, left_xinv = [x], [inverse[x]]  # x z and x^-1 z, along the search tree
    coset = [0]  # the minimal element of W_J z; ids are in length order
    for z in range(1, len(rmult)):
        u, t = table.parent[z], table.last[z]
        left_x.append(rmult[left_x[u]][t])
        left_xinv.append(rmult[left_xinv[u]][t])
        down = next((lmult[z][j] for j in J if length[lmult[z][j]] < length[z]), None)
        coset.append(z if down is None else coset[down])
    # z x = (x^-1 z^-1)^-1; z theta(z)^-1 is in W_J iff W_J z = W_J theta(z),
    # and z normalizes W_J iff z s_j is in W_J z for every j in J
    centralizer_ok = all(
        (inverse[left_xinv[inverse[z]]] == left_x[images[z]])
        == (coset[images[z]] == c and all(coset[rmult[z][j]] == c for j in J))
        for z, c in enumerate(coset)
    )

    target = set(oracle_qpsets.conjugacy_set(system, ExtElement(system.identity, theta * theta)).keys)
    squares = {table.mult_ids(y, images[y]) for y in K.keys}
    return StructureFlags(J, fixed, stable, x_is_longest, centralizer_ok, squares == target)


def strong_exchange(K):
    system = K.system
    for p in payloads(K):
        for r in system.reflections():
            q = twisted(r, p)
            if q.length < p.length and not bruhat_leq(q.x, p.x):
                return False
    return True


def universal_qp_check(system, seed):
    w = seed
    while True:
        for s in range(system.rank):
            c = twisted(system.generator(s), w)
            if c.length < w.length:
                w = c
                break
        else:
            break
    qp = w.x.length <= 1 and w.theta(w.x) == w.x
    return UniversalQpVerdict(
        is_qp=qp,
        in_iplus=is_twisted_involution(seed),
        stuck_word=w.x.word(),
        stuck_length=w.x.length,
    )
