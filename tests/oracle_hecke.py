"""Hecke products, the bar involution and the Kazhdan-Lusztig table by group
arithmetic on Element-keyed coordinates, and bar columns by witness-word replay.

This is how hecke computed before H became the module M on the regular
carrier: H_s H_w multiplies group elements, bar(H_w) is built as
H_s^-1 bar(H_{sw}) for the lowest left descent s, and the Kazhdan-Lusztig
table solves over those columns.  Before bar_columns used its recurrence,
every generic column replayed the whole greedy height-witness word of its
point.  Both are kept as independent oracles.  hecke keys coordinates by
element id; by_element reads them as the {Element: coefficient} maps the
oracle works on.  The T-basis of the older literature (T_w = v^len(w) H_w)
is here as a conversion: to_t_pairs and from_t_pairs (which reads each
polynomial's [exponent, coefficient] pairs with from_pairs).
"""

from __future__ import annotations

from qpcox.barcanon import ModuleVector
from qpcox.coxeter import Element
from qpcox.hecke import HeckeElt
from qpcox.laurent import ONE, V, VINV, LaurentPoly
from qpcox.qpsets import rht_witness_word

from oracle_canonical import act_bar_word, add_scaled, generic_canonical_columns, v_power
from oracle_group import left_descents


def gen_mult(system, coords: dict, s: int) -> dict:
    """Left multiplication of {Element: LaurentPoly} coordinates by H_s."""
    gen = system.generator(s)
    out = {}  # H_w -> H_sw; left multiplication permutes W
    down = {}  # + (v - v^-1) H_w where s lowers w
    for w, c in coords.items():
        sw = gen * w
        out[sw] = c
        if sw.length < w.length:
            down[w] = c
    return add_scaled(out, down, V - VINV)


def mult(system, a: dict, b: dict) -> dict:
    """The product of two Element-keyed Hecke elements."""
    out = {}
    for w, c in a.items():
        prod = b
        for s in reversed(w.word()):
            prod = gen_mult(system, prod, s)
        add_scaled(out, prod, c)
    return out


class OracleHecke:
    """bar(H_w) for every w of a finite system, by Element multiplication."""

    def __init__(self, system):
        self.system = system
        self._bar = {}

    def bar_of_basis(self, w: Element) -> dict:
        """bar(H_w) = H_{s_1}^-1 ... H_{s_k}^-1 along a reduced word w = s_1 ... s_k."""
        cache, system = self._bar, self.system
        stack = [w]
        while stack:
            x = stack[-1]
            if x.key in cache:
                stack.pop()
            elif x.is_identity():
                cache[x.key] = {x: ONE}
            else:
                s = min(left_descents(x))
                rest = system.generator(s) * x
                prev = cache.get(rest.key)
                if prev is None:
                    stack.append(rest)
                    continue
                bar_s = gen_mult(system, prev, s)
                cache[x.key] = add_scaled(bar_s, prev, VINV - V)  # H_s^-1 = H_s + (v^-1 - v)
        return cache[w.key]

    def bar(self, coords: dict) -> dict:
        out = {}
        for w, c in coords.items():
            add_scaled(out, self.bar_of_basis(w), c.bar())
        return out

    def theta(self, coords: dict) -> dict:
        out = {}
        for w, c in coords.items():
            add_scaled(out, self.bar_of_basis(w), -c if w.length % 2 else c)
        return out

    def kl(self):
        """(h, mu) keyed by (x id, y id), solved over the bar columns in id order."""
        system = self.system
        cols = []
        for y in range(system.order()):
            col = self.bar_of_basis(Element(system, y))
            cols.append({w.key: c for w, c in col.items()})
        return generic_canonical_columns(cols)


def replay_bar_columns(kind: str, X) -> list[ModuleVector]:
    """Generic bar columns: bar(H_w) applied to M_x0 along the greedy witness
    word w of each point x = w . x0."""
    cols = []
    for pid in range(len(X)):
        word = rht_witness_word(X, pid)
        x0 = pid  # endpoint of the descent path is the orbit minimum
        for s in word:
            x0 = X.action[s][x0]
        cols.append(act_bar_word(ModuleVector.standard(kind, X, x0), word))
    return cols


def by_element(A: HeckeElt) -> dict:
    """The coordinates of A, keyed by Element instead of element id."""
    return {Element(A.system, w): c for w, c in A.coords.items()}


def to_t_pairs(A: HeckeElt) -> list:
    """Coordinates of A over the T-basis (T_w = v^len(w) H_w), for import/export."""
    return [
        [list(w.word()), (c * v_power(-w.length)).to_pairs()]
        for w, c in sorted(by_element(A).items(), key=lambda it: (it[0].length, it[0].key))
    ]


def from_pairs(pairs) -> LaurentPoly:
    """The polynomial with the [exponent, coefficient] pairs given, summed
    where an exponent repeats (the inverse of LaurentPoly.to_pairs)."""
    t: dict[int, int] = {}
    for e, c in pairs:
        t[e] = t.get(e, 0) + c
    return LaurentPoly(t)


def from_t_pairs(system, pairs) -> HeckeElt:
    out = {}
    for word, poly_pairs in pairs:
        w = system.element_from_word(word)
        add_scaled(out, {w.key: from_pairs(poly_pairs)}, v_power(w.length))
    return HeckeElt(system, out)
