"""Group backends, automorphisms, and the grading-group structure."""

import itertools

import pytest

from mhag import (AutPair, GroupError, IntGroup, TableGroup, aut_pair_identity,
                  aut_pair_inv, aut_pair_mul, group_from_json, identity_aut,
                  inner_aut)
from mhag import linear
from mhag.groups import (Automorphism, PermGroup, aut_from_json, map_aut,
                         negation_aut)

from conftest import inner, make_session, perm, session_spec


def _check_group_laws(g):
    els = g.elements()
    e = g.identity
    for x in els:
        assert g.op(x, e) == x == g.op(e, x)
        assert g.op(x, g.inv(x)) == e
    for x, y, z in itertools.product(els, els, els):
        assert g.op(g.op(x, y), z) == g.op(x, g.op(y, z))


def test_cyclic_table_group():
    g = TableGroup.cyclic(4)
    assert g.is_finite and len(g.elements()) == 4
    _check_group_laws(g)
    assert g.op(3, 2) == 1
    assert g.inv(3) == 1


def test_symmetric_group():
    g = PermGroup.symmetric(3)
    assert g.is_finite and len(g.elements()) == 6
    _check_group_laws(g)
    a, b = perm((1, 0, 2), g), perm((0, 2, 1), g)
    assert g.op(a, b) != g.op(b, a)  # non-abelian


def test_int_group():
    g = IntGroup()
    assert not g.is_finite
    assert g.op(3, -5) == -2
    assert g.inv(7) == -7
    assert g.identity == 0
    with pytest.raises(GroupError):
        g.elements()


def test_table_group_validates():
    # a "table" with a broken inverse row must be rejected at load
    bad = {"kind": "table", "elements": ["e", "a"],
           "table": [["e", "a"], ["a", "a"]], "identity": "e"}
    with pytest.raises(GroupError):
        group_from_json(bad)


def test_group_from_json_kinds():
    assert isinstance(group_from_json("Z"), IntGroup)
    assert len(group_from_json({"kind": "cyclic", "n": 5}).elements()) == 5
    s3 = group_from_json({"kind": "symmetric", "n": 3})
    assert len(s3.elements()) == 6
    perm = group_from_json({"kind": "perm", "n": 3,
                            "generators": [[1, 2, 0]]})
    assert len(perm.elements()) == 3
    with pytest.raises(GroupError):
        group_from_json({"kind": "icosahedral"})


def test_table_mul_row_repeated_pair_is_refused():
    # Five rows over two elements: (1, 1) twice.  The last row once won
    # silently and the table read as Z/2.
    spec = {"kind": "table", "elements": [0, 1],
            "mul": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 0]]}
    with pytest.raises(GroupError, match=r"table-mul-row: pair \(1, 1\)"):
        group_from_json(spec)
    spec["mul"].pop(3)
    assert group_from_json(spec).op(1, 1) == 0


def test_perm_product_table_stops_at_the_cap(monkeypatch):
    # Products fill a table on first use, bounded like every basis table.
    monkeypatch.setattr(linear, "MEMO_CAP", 5)
    s4 = PermGroup.symmetric(4)
    els = s4.elements()
    img = s4.element_to_json
    for x, y in itertools.product(els[:4], repeat=2):
        assert img(s4.op(x, y)) == [img(x)[img(y)[i]] for i in range(4)]
    assert len(s4._mul) == 5


def test_parse_element_refuses_booleans():
    # False == 0 and True == 1, so a set lookup alone would accept them.
    z2, s3 = TableGroup.cyclic(2), PermGroup.symmetric(3)
    for group, data in [(z2, False), (z2, True), (s3, [1, True, 2]),
                        (s3, [False, 1, 2]), (s3, [True, False, 2]),
                        (s3, True)]:
        with pytest.raises(GroupError, match="element-unknown"):
            group.parse_element(data)
    assert z2.parse_element(1) == 1 and s3.parse_element([1, 0, 2]) == 2


def test_parse_element_refuses_floats_and_bare_indices():
    # 1.0 == 1, so a lookup alone would accept a float; an element of a
    # permutation group is an image list, never its index.
    z2, s3 = TableGroup.cyclic(2), PermGroup.symmetric(3)
    for group, data in [(z2, 1.0), (z2, [1]), (s3, [1.0, 0, 2]),
                        (s3, 3), (s3, 0.0), (s3, [[1], 0, 2]), (s3, [0, 1]),
                        (s3, "012")]:
        with pytest.raises(GroupError, match="element-unknown"):
            group.parse_element(data)


@pytest.mark.parametrize("n", [3, 4])
def test_perm_elements_are_sorted_image_indices(n):
    """Element i is the i-th image tuple in sorted order; JSON carries
    image lists both ways."""
    g = PermGroup.symmetric(n)
    images = sorted(itertools.permutations(range(n)))
    assert g.elements() == list(range(len(images)))
    assert g.identity == 0 and images[0] == tuple(range(n))
    for i, p in enumerate(images):
        assert g.parse_element(list(p)) == i
        assert g.element_to_json(g.parse_element(list(p))) == list(p)
        assert g.contains(i)
    assert not any(g.contains(x) for x in (-1, len(images), True, 0.0))


def test_table_group_refuses_float_elements():
    with pytest.raises(GroupError, match="table-element"):
        group_from_json({"kind": "table", "elements": [0, 1.0],
                         "mul": [[0, 0, 0], [0, 1, 1], [1, 0, 1],
                                 [1, 1, 0]]})


def test_automorphism_repr_names_image_tuples():
    s3 = PermGroup.symmetric(3)
    phi = inner_aut(s3, perm((0, 2, 1), s3))
    assert repr(phi) == ("Aut({(1, 0, 2): (2, 1, 0), (1, 2, 0): (2, 0, 1), "
                         "(2, 0, 1): (1, 2, 0), (2, 1, 0): (1, 0, 2)})")
    assert repr(identity_aut(s3)) == "Aut(id)"


class TestAutomorphisms:
    s3 = PermGroup.symmetric(3)

    def test_identity(self):
        i = identity_aut(self.s3)
        assert i.is_identity()
        for x in self.s3.elements():
            assert i.apply(x) == x

    def test_inner_is_homomorphism(self):
        g = perm((1, 2, 0), self.s3)
        phi = inner_aut(self.s3, g)
        for x, y in itertools.product(self.s3.elements(), repeat=2):
            assert phi.apply(self.s3.op(x, y)) == self.s3.op(
                phi.apply(x), phi.apply(y))

    def test_compose_order(self):
        # compose(self, other) applies other first
        a = inner_aut(self.s3, perm((1, 0, 2), self.s3))
        b = inner_aut(self.s3, perm((0, 2, 1), self.s3))
        x = perm((1, 2, 0), self.s3)
        assert a.compose(b).apply(x) == a.apply(b.apply(x))

    def test_inverse(self):
        phi = inner_aut(self.s3, perm((2, 0, 1), self.s3))
        psi = phi.inverse()
        for x in self.s3.elements():
            assert psi.apply(phi.apply(x)) == x

    def test_equality_and_hash(self):
        e, t = perm((0, 1, 2), self.s3), perm((1, 0, 2), self.s3)
        assert inner_aut(self.s3, e) == identity_aut(self.s3)
        assert hash(inner_aut(self.s3, t)) == hash(inner_aut(self.s3, t))

    def test_map_aut_validated(self):
        z4 = TableGroup.cyclic(4)
        neg = map_aut(z4, {i: (-i) % 4 for i in range(4)})
        assert neg.apply(1) == 3
        with pytest.raises(GroupError):
            # x -> 2x is not injective on Z/4
            map_aut(z4, {i: (2 * i) % 4 for i in range(4)})

    def test_negation_aut(self):
        z = IntGroup()
        neg = negation_aut(z)
        assert neg.apply(5) == -5
        assert neg.compose(neg).apply(5) == 5


class TestIdentityAndHashSlots:
    """is_identity and the hash are decided once, when an automorphism is
    built; they must agree with the image map and with equality."""

    s3 = PermGroup.symmetric(3)

    def test_is_identity(self):
        z = IntGroup()
        g = perm((1, 2, 0), self.s3)
        assert identity_aut(self.s3).is_identity()
        assert identity_aut(z).is_identity()
        assert Automorphism(z, sign=1).is_identity()
        roundtrip = inner_aut(self.s3, g).compose(
            inner_aut(self.s3, self.s3.inv(g)))
        assert roundtrip.is_identity()
        assert all(roundtrip(x) == x for x in self.s3.elements())
        assert inner_aut(self.s3, perm((0, 1, 2), self.s3)).is_identity()
        assert not inner_aut(self.s3, g).is_identity()
        assert not inner_aut(self.s3, perm((1, 0, 2), self.s3)).is_identity()
        assert not Automorphism(z, sign=-1).is_identity()
        assert not negation_aut(z).is_identity()
        z4 = TableGroup.cyclic(4)
        assert not map_aut(z4, {i: (-i) % 4 for i in range(4)}).is_identity()
        assert map_aut(z4, {i: i for i in range(4)}).is_identity()

    def test_equal_automorphisms_hash_equal(self):
        els = self.s3.elements()
        auts = [inner_aut(self.s3, g) for g in els]
        # Each automorphism again, built from its own image map, and every
        # composite, which is made along a different path.
        fresh = [Automorphism(self.s3, {x: f(x) for x in els}) for f in auts]
        composites = [f.compose(g) for f in auts for g in auts]
        built = auts + fresh + composites + [identity_aut(self.s3)]
        for a, b in itertools.product(built, repeat=2):
            if a == b:
                assert hash(a) == hash(b)
                assert a.is_identity() == b.is_identity()
        z = IntGroup()
        signs = [identity_aut(z), negation_aut(z), Automorphism(z, sign=1),
                 Automorphism(z, sign=-1), negation_aut(z).compose(
                     negation_aut(z))]
        for a, b in itertools.product(signs, repeat=2):
            if a == b:
                assert hash(a) == hash(b)
        assert signs[0] == signs[2] == signs[4] and signs[1] == signs[3]


class TestInterning:
    """Each group interns its automorphisms: one map of one group is one
    object, however it is built, so equality is identity."""

    s3 = PermGroup.symmetric(3)

    def test_equality_is_identity(self):
        assert "__eq__" not in vars(Automorphism)
        assert "__hash__" not in vars(Automorphism)

    def test_every_path_gives_the_same_object(self):
        els = self.s3.elements()
        g, h = perm((1, 2, 0), self.s3), perm((1, 0, 2), self.s3)
        phi = inner_aut(self.s3, g)
        assert Automorphism(self.s3, {x: phi(x) for x in els}) is phi
        assert map_aut(self.s3, {x: phi(x) for x in els}) is phi
        assert aut_from_json(self.s3, {"kind": "inner", "by": [1, 2, 0]}) is phi
        assert phi.inverse() is inner_aut(self.s3, self.s3.inv(g))
        assert phi.inverse().inverse() is phi
        psi = inner_aut(self.s3, h)
        assert psi.compose(phi) is inner_aut(self.s3, self.s3.op(h, g))
        assert phi.compose(phi.inverse()) is identity_aut(self.s3)
        assert Automorphism(self.s3) is identity_aut(self.s3)
        z = IntGroup()
        assert negation_aut(z).compose(negation_aut(z)) is identity_aut(z)
        assert Automorphism(z, sign=-1) is negation_aut(z)

    def test_decoded_gradings_share_objects(self):
        g = (2, 1, 0)
        s3 = self.s3
        images = {"kind": "map", "images": [
            s3.element_to_json(s3.conj(perm(g, s3), x))
            for x in s3.elements()]}
        S = make_session(session_spec(
            {"kind": "group", "group": {"kind": "symmetric", "n": 3}},
            gradings=[[inner(g), images], [images, "identity"]]))
        (a, b), (c, d) = S.gradings
        assert a is b is c and a is not d
        assert d is identity_aut(a.group)

    def test_two_groups_share_nothing(self):
        one, two = PermGroup.symmetric(3), PermGroup.symmetric(3)
        g = perm((1, 2, 0), one)
        f1, f2 = inner_aut(one, g), inner_aut(two, g)
        assert f1 is not f2 and f1 != f2
        assert not set(one._auts.values()) & set(two._auts.values())
        with pytest.raises(GroupError, match="automorphism-group-mismatch"):
            f1.compose(f2)
        with pytest.raises(GroupError, match="automorphism-group-mismatch"):
            identity_aut(IntGroup()).compose(identity_aut(IntGroup()))

    def test_refused_maps_stay_out_of_the_registry(self):
        z4 = TableGroup.cyclic(4)
        known = {identity_aut(z4), negation_aut(z4)}
        assert set(z4._auts.values()) == known
        for images in ({i: (2 * i) % 4 for i in range(4)},     # not onto
                       {0: 0, 1: 2, 2: 1, 3: 3}):              # not additive
            with pytest.raises(GroupError):
                map_aut(z4, images)
        assert set(z4._auts.values()) == known


class TestDerivationCache:
    """compose and inverse keep their results per automorphism; a cached
    result must equal the automorphism built afresh from the image maps."""

    s3 = PermGroup.symmetric(3)

    def test_finite_compose_and_inverse_match_fresh_maps(self):
        els = self.s3.elements()
        auts = [inner_aut(self.s3, g) for g in els]
        for f, g in itertools.product(auts, repeat=2):
            fresh = Automorphism(self.s3, {x: f(g(x)) for x in els})
            first = f.compose(g)
            assert first == fresh and f.compose(g) is first
            for x in els:
                assert first(x) == fresh(x)
        for f in auts:
            fresh = Automorphism(self.s3, {f(x): x for x in els})
            assert f.inverse() == fresh and f.inverse() is f.inverse()
            assert f.compose(f.inverse()).is_identity()

    def test_integer_signs(self):
        z = IntGroup()
        i, neg = identity_aut(z), negation_aut(z)
        for f, g in itertools.product((i, neg), repeat=2):
            for _ in range(2):
                assert f.compose(g)(7) == f(g(7))
        assert neg.inverse()(3) == -3 and i.inverse().is_identity()

    def test_compose_across_groups_still_raises(self):
        c4, other_c4 = TableGroup.cyclic(4), TableGroup.cyclic(4)
        f = identity_aut(c4)
        f.compose(identity_aut(c4))     # caches the key (0, 1, 2, 3)
        with pytest.raises(GroupError):
            f.compose(identity_aut(other_c4))
        with pytest.raises(GroupError):
            f.compose(identity_aut(self.s3))


def test_aut_from_json_kinds():
    z = IntGroup()
    assert aut_from_json(z, "identity").is_identity()
    assert aut_from_json(z, "negation").apply(2) == -2
    s3 = PermGroup.symmetric(3)
    phi = aut_from_json(s3, {"kind": "inner", "by": [1, 0, 2]})
    x = perm((0, 2, 1), s3)
    assert phi.apply(x) == s3.conj(perm((1, 0, 2), s3), x)
    z3 = TableGroup.cyclic(3)
    psi = aut_from_json(z3, {"kind": "map", "images": [0, 2, 1]})
    assert psi.apply(1) == 2
    with pytest.raises(GroupError):
        aut_from_json(z3, {"kind": "outer"})


def test_aut_element_names_only_unhashable_values(monkeypatch):
    """A nested list names no element; a TypeError raised by a group's own
    parser on a hashable value is not taken for bad input."""
    z3 = TableGroup.cyclic(3)
    with pytest.raises(GroupError, match=r"element-unknown: \[\[1\]\]"):
        aut_from_json(z3, {"kind": "inner", "by": [[1]]})

    def broken(data):
        raise TypeError("parser fault")
    monkeypatch.setattr(z3, "parse_element", broken)
    with pytest.raises(TypeError, match="parser fault"):
        aut_from_json(z3, {"kind": "inner", "by": 1})


@pytest.mark.parametrize("images", [{"1": -1}, {"1": 7}, {"1": 1}])
def test_map_aut_on_the_integers_is_refused(images):
    # An image map on Z was once dropped, so negation and a non-automorphism
    # alike decoded as the identity.
    z = IntGroup()
    with pytest.raises(GroupError, match="'identity' or 'negation'"):
        aut_from_json(z, {"kind": "map", "images": images})
    with pytest.raises(GroupError, match="'identity' or 'negation'"):
        map_aut(z, {1: -1})


class TestAutPairStructure:
    """The grading set: ordered automorphism pairs with the twisted product."""

    s3 = PermGroup.symmetric(3)

    def pairs(self):
        els = self.s3.elements()
        return [AutPair(inner_aut(self.s3, g), inner_aut(self.s3, h))
                for g, h in itertools.product(els, els)]

    def test_group_laws_exhaustive(self):
        pairs = self.pairs()
        e = aut_pair_identity(self.s3)
        for p in pairs:
            assert aut_pair_mul(p, e) == p
            assert aut_pair_mul(e, p) == p
            assert aut_pair_mul(p, aut_pair_inv(p)) == e
            assert aut_pair_mul(aut_pair_inv(p), p) == e
        sub = pairs[::7]  # associativity on a spread subset, cubes are large
        for p, q, r in itertools.product(sub, sub, sub):
            assert aut_pair_mul(aut_pair_mul(p, q), r) == aut_pair_mul(
                p, aut_pair_mul(q, r))

    def test_product_second_leg_is_twisted(self):
        """The second leg of a product is conjugated through the right
        factor's first leg, not just composed; a non-abelian instance
        distinguishes the two."""
        b, c, d = (inner_aut(self.s3, perm(g, self.s3))
                   for g in ((1, 0, 2), (1, 2, 0), (2, 1, 0)))
        p, q = AutPair(identity_aut(self.s3), b), AutPair(c, d)
        twisted = aut_pair_mul(p, q).beta
        assert twisted != d.compose(b)
        for x in self.s3.elements():
            assert twisted.apply(x) == d.apply(
                c.inverse().apply(b.apply(c.apply(x))))
