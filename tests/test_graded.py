import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from quadralab import graded, linalg
from quadralab.errors import DegreeCapExceeded, PreconditionViolated
from quadralab.freealg import FreeElement, from_vector, generators, index_word
from quadralab.graded import GradedQuotient, QuotientTower, degree_cap, verify_certificate
from quadralab.linalg import SparseEchelon, settled, unsettled
from quadralab.presentations import chl_relations, sklyanin_relations
from quadralab.scalars import GaussianRational, QQi, gaussian

from slice_oracle import ExactSlices


@pytest.fixture(scope="module")
def generic():
    return GradedQuotient(sklyanin_relations(2, 3, 5))


@pytest.fixture(scope="module")
def sklyanin():
    return GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5)))


class TestSliceRanks:
    def test_degree_two_is_the_relations(self, generic):
        assert ExactSlices(generic.space).rank(2) == 6

    def test_degree_three_generic(self, generic):
        assert ExactSlices(generic.space).rank(3) == 48  # dim A_3 = 64 - 48 = 16

    def test_degree_three_polynomial_ring(self):
        assert ExactSlices(chl_relations(1, -1, 0, 0)).rank(3) == 44  # dim 20 = C(6,3)


class TestHilbert:
    def test_sklyanin_matches_polynomial_ring(self, sklyanin):
        assert sklyanin.hilbert_function(4, backend="exact").dims == [1, 4, 10, 20, 35]

    def test_generic_prefix(self, generic):
        prof = generic.hilbert_function(6, backend="modular")
        assert prof.dims == [1, 4, 10, 16, 19, 20, 20]
        assert prof.sqrt_minus_one == 256

    def test_large_prime_does_not_overflow(self):
        # p = 2147483713 > 2^31: a fixed-width kernel reported 1,4,10,16,4,4,4
        quotient = GradedQuotient(sklyanin_relations(2, 3, 5), p=2147483713)
        prof = quotient.hilbert_function(6, backend="modular")
        assert prof.dims == [1, 4, 10, 16, 19, 20, 20]

    def test_backends_agree_to_degree_four(self, generic, sklyanin):
        for quotient in (generic, sklyanin,
                         GradedQuotient(chl_relations(1, 2, -4, 2))):
            exact = quotient.hilbert_function(4, backend="exact").dims
            modular = quotient.hilbert_function(4, backend="modular").dims
            assert exact == modular

    def test_degree_two_dimension_is_always_ten(self):
        import random
        rng = random.Random(53)
        for _ in range(10):
            params = [gaussian(rng.randint(-5, 5), rng.randint(-2, 2))
                      for _ in range(3)]
            quotient = GradedQuotient(sklyanin_relations(*params))
            assert quotient.dimension(2, backend="exact") == 10

    def test_always_one_four_ten(self):
        quotient = GradedQuotient(chl_relations(1, 2, -4, 2))
        assert quotient.hilbert_function(2, backend="exact").dims == [1, 4, 10]

    @pytest.mark.parametrize("params", [(0, 0, 0), (0, 3, -3)])
    def test_degenerate_parameter_sum_zero_points_grow_like_polynomials(self, params):
        # both have vanishing parameter sum, so polynomial-type growth
        quotient = GradedQuotient(sklyanin_relations(*params))
        assert quotient.hilbert_function(4, backend="exact").dims == [1, 4, 10, 20, 35]

    def test_exact_confirms_the_sequence_through_degree_six(self, generic):
        # upgrades the modular evidence to an exact computation: the
        # recursive slice construction keeps degree 6 cheap
        prof = generic.hilbert_function(6, backend="exact")
        assert prof.dims == [1, 4, 10, 16, 19, 20, 20]
        assert prof.all_exact()


class TestBackendGuards:
    def test_modular_refuses_function_field_relations(self):
        from quadralab.errors import PreconditionViolated
        from quadralab.poly import FunctionField, PolyRing

        from quadralab.presentations import chl_z_relations

        F = FunctionField(PolyRing(("a", "b", "c", "d")))
        a, b, c, d = F.gens()
        quotient = GradedQuotient(chl_z_relations(a, b, c, d, field=F, verify=False))
        with pytest.raises(PreconditionViolated):
            quotient.dimension(3, backend="modular")

    def test_degree_zero_and_one_profiles(self, generic):
        prof = generic.hilbert_function(1, backend="exact")
        assert prof.dims == [1, 4]
        assert prof.backend == "exact"


class TestDegreeCap:
    def test_cap_enforced(self, generic):
        cap = degree_cap()
        with pytest.raises(DegreeCapExceeded):
            generic.hilbert_function(cap + 1)

    def test_env_override(self, generic, monkeypatch):
        monkeypatch.setenv("QUADRALAB_DEGREE_CAP", "3")
        with pytest.raises(DegreeCapExceeded):
            generic.dimension(4)
        monkeypatch.delenv("QUADRALAB_DEGREE_CAP")


class TestNormalForm:
    def test_relation_reduces_to_zero(self, generic):
        for e in generic.space.elements:
            assert generic.normal_form(e).is_zero()

    def test_idempotent_and_difference_in_ideal(self, generic):
        x = generators()
        f = x[1] * x[0]
        nf = generic.normal_form(f)
        assert generic.normal_form(nf) == nf
        assert generic.contains(f - nf)

    def test_linear(self, generic):
        x = generators()
        f, g = x[1] * x[0], x[2] * x[3]
        lhs = generic.normal_form(f + g)
        rhs = generic.normal_form(f) + generic.normal_form(g)
        assert lhs == rhs

    def test_power_of_first_generator_is_reduced(self, generic):
        x = generators()
        f = x[0] * x[0] * x[0]
        assert generic.normal_form(f) == f


class TestCentrality:
    def test_squares_central_generic(self, generic):
        x = generators()
        for g in range(4):
            ok, failing = generic.is_central(x[g] * x[g])
            assert ok and failing is None

    def test_square_not_central_at_sklyanin_point(self, sklyanin):
        x = generators()
        ok, failing = sklyanin.is_central(x[0] * x[0])
        assert not ok and failing is not None

    def test_central_pair_at_sklyanin_point(self, sklyanin):
        x = generators()
        sq = [g * g for g in x]
        omega0 = -sq[0] + sq[1] + sq[2] + sq[3]
        omega1 = (sq[0] + sq[1].scale(gaussian(Fraction(3, 5)))
                  - sq[2].scale(gaussian(Fraction(-1, 5)))
                  + sq[3].scale(gaussian(-3)))
        assert sklyanin.is_central(omega0)[0]
        assert sklyanin.is_central(omega1)[0]


class TestCertificates:
    def test_roundtrip(self, generic):
        x = generators()
        f = x[1] * x[0]
        diff = f - generic.normal_form(f)
        cert = generic.membership_certificate(diff)
        assert cert is not None
        assert verify_certificate(generic.space, cert, diff)

    @pytest.mark.parametrize("point", ["generic", "sklyanin"])
    def test_tampered_certificates_are_refused(self, request, point):
        quotient = request.getfixturevalue(point)
        h = _seeded_member(quotient.space, 4, random.Random(31))
        cert = quotient.membership_certificate(h)
        assert verify_certificate(quotient.space, cert, h)
        for wrong in tampered(cert):
            assert not verify_certificate(quotient.space, wrong, h)

    def test_non_member(self, generic):
        x = generators()
        assert generic.membership_certificate(x[0] * x[0]) is None

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("point", ["generic", "sklyanin"])
    def test_seeded_members_by_degree(self, request, point, n):
        quotient = request.getfixturevalue(point)
        rng = random.Random(n)
        one = gaussian(1)
        h = FreeElement()
        for _ in range(3):
            left = tuple(rng.randrange(4) for _ in range(rng.randrange(n - 1)))
            right = tuple(rng.randrange(4) for _ in range(n - 2 - len(left)))
            rel = quotient.space.elements[rng.randrange(6)]
            piece = FreeElement.from_word(left, one) * rel * FreeElement.from_word(right, one)
            h = h + piece.scale(gaussian(rng.randint(1, 5), rng.randint(-2, 2)))
        cert = quotient.membership_certificate(h)
        assert cert is not None and verify_certificate(quotient.space, cert, h)
        # a pure power is never in the ideal when alpha*beta*gamma != 0
        assert quotient.membership_certificate(h + FreeElement.from_word((0,) * n, one)) is None

    #: the first 16 hex digits of the sha256 of repr of the degree 3-6
    #: certificates below, as a tower that eliminated the given relations in
    #: every degree made them
    GIVEN_RELATION_DIGESTS = {
        "A(2,3,5)": (lambda: sklyanin_relations(2, 3, 5), "9adadef9c2c0c558"),
        "A(2,-3,-1/5)": (lambda: sklyanin_relations(2, -3, Fraction(-1, 5)), "27cd07585abdf42e"),
        "CHL(1,2,-4,2)": (lambda: chl_relations(1, 2, -4, 2), "a64dd0fc63fb1234"),
    }

    @pytest.mark.parametrize("label", list(GIVEN_RELATION_DIGESTS))
    def test_certificates_name_the_given_relations(self, label):
        # the tower's higher degrees eliminate the reduced relations; its
        # certificates still name and re-expand the six given ones
        make, digest = self.GIVEN_RELATION_DIGESTS[label]
        space = make()
        quotient = GradedQuotient(space)
        certs = []
        for n in range(3, 7):
            h = _seeded_member(space, n, random.Random(n))
            cert = quotient.membership_certificate(h)
            assert {k for _, k, _, _ in cert} <= set(range(6))
            assert verify_certificate(space, cert, h)
            certs.append(cert)
        assert hashlib.sha256(repr(certs).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("backend", ["exact", "modular"])
    def test_certificates_are_read_on_the_kernel_values(self, sklyanin, backend, monkeypatch):
        # a count, not a timing: reading the combos as GaussianRationals,
        # negating them and settling each letter step through settled made
        # 951 negations and 85 settled calls in this warm 951-term
        # degree-5 certificate
        f = _words(random.Random(5), 5)
        h = f - sklyanin.normal_form(f)
        tower = sklyanin.tower(backend)
        tower.certificate(h, 5)
        calls = []
        original_neg = GaussianRational.__neg__
        monkeypatch.setattr(GaussianRational, "__neg__",
                            lambda z: calls.append("__neg__") or original_neg(z))
        for module in (linalg, graded):
            monkeypatch.setattr(module, "settled",
                                lambda *args: calls.append("settled") or settled(*args))
        cert = tower.certificate(h, 5)
        monkeypatch.undo()
        assert calls == []
        assert len(cert) > 100
        if backend == "exact":
            assert all(type(lam) is GaussianRational and lam and lam.d > 0
                       and gcd(lam.x, lam.y, lam.d) == 1 for *_, lam in cert)
        else:
            p = tower.field.p
            assert all(type(lam) is int and 0 < lam < p for *_, lam in cert)
        assert _re_expands(sklyanin, backend, cert, h)


def tampered(cert):
    """Three wrong copies of a certificate of degree 3 or more: a changed
    coefficient, a swapped relation index and a word shifted by a letter."""
    left, k, right, coeff = cert[0]
    if left:
        shifted = (left[:-1], k, (left[-1],) + right, coeff)
    else:
        shifted = (left + right[:1], k, right[1:], coeff)
    for first in [(left, k, right, coeff + coeff), (left, (k + 1) % 6, right, coeff), shifted]:
        yield [first] + cert[1:]


def _words(rng, n, count=30):
    """A seeded sum of count degree-n words, coefficients (1..9)/(1..7) + (-2..2)i."""
    f = FreeElement()
    for _ in range(count):
        word = tuple(rng.randrange(4) for _ in range(n))
        f = f + FreeElement.from_word(word, gaussian(Fraction(rng.randint(1, 9), rng.randint(1, 7)),
                                                     rng.randint(-2, 2)))
    return f


def _seeded_member(space, n, rng):
    """A seeded sum of w * r * w' in degree n."""
    one = gaussian(1)
    h = FreeElement()
    for _ in range(3):
        left = tuple(rng.randrange(4) for _ in range(rng.randrange(n - 1)))
        right = tuple(rng.randrange(4) for _ in range(n - 2 - len(left)))
        piece = (FreeElement.from_word(left, one) * space.elements[rng.randrange(6)]
                 * FreeElement.from_word(right, one))
        h = h + piece.scale(gaussian(rng.randint(1, 5), rng.randint(-2, 2)))
    return h


def _re_expands(quotient, backend, cert, h):
    """cert re-expands to h; on the modular tower, mod p."""
    if backend == "exact":
        return verify_certificate(quotient.space, cert, h)
    tower = quotient.tower(backend)
    p = tower.field.p
    expanded = {}
    for left, r, right, lam in cert:
        for c, v in tower.rows[r].items():
            w = left + divmod(c, 4) + right
            expanded[w] = (expanded.get(w, 0) + lam * v) % p
    return {w: v for w, v in expanded.items() if v} == unsettled(tower.field, h.terms)


class TestReadSide:
    """Classes are read on unsettled values, settled once per coordinate."""

    @pytest.mark.parametrize("backend", ["exact", "modular"])
    def test_coordinates_return_a_fresh_dict(self, sklyanin, backend):
        # the class of e_i * x_j is the row mu_j(e_i), settled; mutating
        # what coordinates returns must reach neither mu nor a repeated call
        n = 4
        tower = sklyanin.tower(backend)
        before = [[dict(row) for row in mu_j] for mu_j in tower.mu(n)]
        one = gaussian(1)
        for i, rank in enumerate(tower.words[n - 1]):
            for j in range(4):
                f = FreeElement.from_word(index_word(rank, n - 1) + (j,), one)
                expected = settled(tower.field, before[j][i])
                got = tower.coordinates(f, n)
                assert got == expected
                got.clear()
                got[0] = 7
                assert tower.coordinates(f, n) == expected
        assert tower.mu(n) == before

    @pytest.mark.parametrize("backend", ["exact", "modular"])
    @pytest.mark.parametrize("params", [(2, 3, 5), (2, -3, Fraction(-1, 5)), (1, 2, -1)])
    def test_classes_match_a_word_by_word_reference(self, params, backend):
        # the breadth-first contraction against mu composed along each word
        # on its own, in the field's arithmetic, the settled classes summed;
        # (1, 2, -1) is a degenerate point, alpha + beta + gamma + alpha*beta*gamma = 0
        space = sklyanin_relations(*params)
        tower = GradedQuotient(space).tower(backend)
        field = tower.field
        rng = random.Random(73)

        def reference(f, n):
            mu = [None] + [[[settled(field, row) for row in mu_j] for mu_j in tower.mu(d)]
                           for d in range(1, n + 1)]
            total = {}
            for word, value in f.terms.items():
                cls = {word[0]: field.coerce(value)}
                for d, letter in enumerate(word[1:], start=2):
                    step = {}
                    for k, c in cls.items():
                        for i, v in mu[d][letter][k].items():
                            step[i] = step[i] + c * v if i in step else c * v
                    cls = {i: r for i, v in step.items() if (r := field.coerce(v))}
                for i, v in cls.items():
                    total[i] = total[i] + v if i in total else v
            return {i: r for i, v in total.items() if (r := field.coerce(v))}

        for n in range(1, 7):
            words = [_words(rng, n, 1) for _ in range(4)] + [_words(rng, n)]
            members = [_seeded_member(space, n, rng) for _ in range(3)] if n >= 2 else []
            for f in words + members:
                assert tower.coordinates(f, n) == reference(f, n)
            for h in members:
                assert tower.coordinates(h, n) == {}

    def test_normal_form_makes_no_scalar_products_or_sums(self, monkeypatch):
        # a count, not a timing: reading the class with GaussianRational
        # arithmetic would make 833 products and 454 sums here
        quotient = GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5)))
        quotient.tower().mu(5)
        f = _words(random.Random(101), 5)
        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            original = getattr(GaussianRational, name)
            monkeypatch.setattr(GaussianRational, name,
                                lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        form = quotient.normal_form(f)
        monkeypatch.undo()
        assert calls == []
        assert form and quotient.contains(f - form)

    def test_normal_form_makes_one_row_update_per_coordinate_carried(self, monkeypatch):
        # a count, not a timing: reading this class letter by letter,
        # recursing on the last letter, made 234 row updates over 715
        # entries; the breadth-first read makes the same ones
        quotient = GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5)))
        tower = quotient.tower()
        tower.mu(5)
        f = _words(random.Random(101), 5)
        updates = []
        add = tower._add
        monkeypatch.setattr(tower, "_add", lambda acc, heap, coeff, row:
                            updates.append(len(row)) or add(acc, heap, coeff, row))
        quotient.normal_form(f)
        assert (len(updates), sum(updates)) == (234, 715)


class TestWriteSide:
    """The tower is built on (x, y, d) triples: relations, rows, mu."""

    def test_building_the_tower_makes_no_scalar_arithmetic(self, monkeypatch):
        # a count, not a timing: with GaussianRational relations, mu and
        # stored rows, building these two towers made 3,316 products and
        # 286 inverses
        spaces = [sklyanin_relations(2, -3, Fraction(-1, 5)), sklyanin_relations(2, 3, 5)]
        names = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "inverse")
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(GaussianRational, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(GaussianRational, name, counted)
        towers = [GradedQuotient(space).tower() for space in spaces]
        for tower in towers:
            tower.mu(5)
        monkeypatch.undo()
        assert calls == dict.fromkeys(names, 0)
        assert [tower.dimension(5) for tower in towers] == [56, 20]


class TestLazyMaps:
    """Degree n is back-substituted only when its multiplication maps are read."""

    N = 4

    @pytest.fixture
    def calls(self, monkeypatch):
        ranks = []
        back_substitute = SparseEchelon.back_substitute

        def counted(ech):
            ranks.append(ech.rank)
            back_substitute(ech)

        monkeypatch.setattr(SparseEchelon, "back_substitute", counted)
        return ranks

    QUERIES = {
        ("exact", "normal_form"): lambda q, f: q.normal_form(f),
        ("exact", "contains"): lambda q, f: q.contains(f),
        ("exact", "certificate"): lambda q, f: q.membership_certificate(f),
        ("modular", "coordinates"): lambda q, f: q.tower("modular").coordinates(f, f.degree()),
        ("modular", "certificate"): lambda q, f: q.tower("modular").certificate(f, f.degree()),
    }

    @pytest.mark.parametrize("backend, query", list(QUERIES))
    def test_back_substitutions_follow_the_reads(self, calls, backend, query):
        n = self.N
        quotient = GradedQuotient(sklyanin_relations(2, 3, 5))
        dims = quotient.hilbert_function(n, backend).dims
        # degrees 2 .. n-1, each at its rank 4 * d_{m-1} - d_m
        assert calls == [4 * dims[m - 1] - dims[m] for m in range(2, n)]
        quotient.hilbert_function(n, backend)
        assert len(calls) == n - 2
        h = _seeded_member(quotient.space, n, random.Random(5))
        self.QUERIES[backend, query](quotient, h)
        # a certificate reads the maps of degrees below n only
        assert len(calls) == n - 2 + (query != "certificate")
        self.QUERIES[backend, "certificate"](quotient, h)
        quotient.hilbert_function(n, backend)
        assert len(calls) == n - 2 + (query != "certificate")
        quotient.tower(backend).mu(n)
        quotient.tower(backend).mu(n)
        assert len(calls) == n - 1
        quotient.hilbert_function(n + 1, backend)
        assert len(calls) == n - 1

    @pytest.mark.parametrize("backend", ["exact", "modular"])
    @pytest.mark.parametrize("params, seed", [((2, 3, 5), 61), ((2, -3, Fraction(-1, 5)), 67)])
    def test_query_order_changes_no_answer(self, params, seed, backend):
        n = self.N
        rng = random.Random(seed)
        space = sklyanin_relations(*params)
        elements = []
        for _ in range(4):
            f = FreeElement()
            for _ in range(rng.randint(1, 5)):
                word = tuple(rng.randrange(4) for _ in range(n))
                f = f + FreeElement.from_word(word, gaussian(rng.randint(-5, 5), rng.randint(-2, 2)))
            elements.append(f)
        members = [_seeded_member(space, n, rng) for _ in range(4)]

        def ask(order):
            quotient = GradedQuotient(space)
            tower = quotient.tower(backend)
            answers = {}
            for kind in order:
                if kind == "dims":
                    answers[kind] = quotient.hilbert_function(n, backend).dims
                elif kind == "forms":
                    answers[kind] = [{tower.words[n][k]: v
                                      for k, v in tower.coordinates(f, n).items()}
                                     for f in elements]
                else:
                    answers[kind] = [tower.certificate(h, n) for h in members]
            for cert, h in zip(answers["certs"], members):
                assert cert is not None and _re_expands(quotient, backend, cert, h)
            answers["words"] = tower.words[:n + 1]
            answers["mu"] = [tower.mu(m) for m in range(1, n + 1)]
            return answers

        assert ask(["dims", "forms", "certs"]) == ask(["certs", "forms", "dims"])


def _seeded_point(kind, seed):
    """Seeded (alpha, beta, gamma): on the Sklyanin locus, or a generic Q(i) point."""
    rng = random.Random(seed)
    while True:
        alpha, beta = (Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 7))
                       for _ in range(2))
        if kind == "sklyanin" and 1 + alpha * beta:
            gamma = -(alpha + beta) / (1 + alpha * beta)
            if gamma not in (0, 1, -1):
                return alpha, beta, gamma
        if kind == "generic":
            return alpha, beta, gaussian(rng.randint(-5, 5), rng.randint(1, 3))


def _dense_relations(seed):
    """A(2,3,5) under a seeded unipotent substitution of the generators:
    relations of 6 to 11 terms, several of them ending in one letter."""
    rng = random.Random(seed)
    matrix = [[gaussian(int(k == j) if k >= j else rng.randint(-1, 1)) for j in range(4)]
              for k in range(4)]
    return sklyanin_relations(2, 3, 5).transformed(matrix, "dense")


def _space(kind, seed):
    if kind == "chl":
        return chl_relations(1, 2, -4, 2)
    if kind == "dense":
        return _dense_relations(seed)
    return sklyanin_relations(*_seeded_point(kind, seed))


class TestInsertionOrder:
    """``_extend`` sorts degree n's rows and builds them from the reduced
    relations; ``words`` and mu can depend on neither."""

    TOP = 6

    @staticmethod
    def _reference(tower, n):
        """words[n] and mu(n), settled, from the given relations' rows in
        generation order, back-substituted.

        Row (i, r) is e_i * r: the sum of v * mu_a(e_i) (x) x_b over the
        terms v x_a x_b of the given relation r, summed with the field's own
        arithmetic (``GaussianRational`` over Q(i)) from the settled rows.
        """
        field = tower.field
        below = [[settled(field, e) for e in mu_a] for mu_a in tower.mu(n - 1)]
        ech = SparseEchelon(field)
        for i in range(len(tower.words[n - 2])):
            for rel in tower.rows:
                row = {}
                for c, v in settled(field, rel).items():
                    a, b = divmod(c, 4)
                    for k, w in below[a][i].items():
                        row[k * 4 + b] = row.get(k * 4 + b, 0) + v * w
                ech.insert(row)
        ech.back_substitute()
        prev = tower.words[n - 1]
        free = [c for c in range(4 * len(prev)) if c not in ech.pivot_of]
        index = {c: k for k, c in enumerate(free)}
        mu = [[{index[col]: field.one()} if col in index else
               {index[c]: v for c, v in settled(field, ech.pivot_residual(col)).items()}
               for col in range(j, 4 * len(prev), 4)] for j in range(4)]
        return [prev[c // 4] * 4 + c % 4 for c in free], mu

    @pytest.mark.parametrize("backend", ["exact", "modular"])
    @pytest.mark.parametrize("kind, seed", [("sklyanin", 71), ("sklyanin", 73),
                                            ("generic", 79), ("generic", 83),
                                            ("chl", None), ("dense", 89)])
    def test_words_and_maps_match_generation_order(self, kind, seed, backend):
        quotient = GradedQuotient(_space(kind, seed), p=65537)
        tower = quotient.tower(backend)
        for n in range(2, self.TOP + 1):
            words, mu = self._reference(tower, n)
            assert tower.dimension(n) == len(words)
            assert tower.words[n] == words
            settled_mu = [[settled(tower.field, e) for e in mu_j] for mu_j in tower.mu(n)]
            assert settled_mu == mu
            # mu holds each value as the kernel stores it, so settling
            # changed only its form
            assert [[unsettled(tower.field, e) for e in mu_j]
                    for mu_j in settled_mu] == tower.mu(n)

    def test_dense_relations_reach_the_summing_branch(self):
        # some row sums two products into one column, which Sklyanin
        # relations, whose terms all end in different letters, never do
        tower = GradedQuotient(_dense_relations(89)).tower()
        below = tower.mu(3)
        products = [sum(len(below[c // 4][i]) for c in rel)
                    for i in range(len(tower.words[2])) for rel in tower._reduced]
        rows = [row for _, row in tower._image_rows(4, tower._reduced)]
        assert any(len(row) < k for row, k in zip(rows, products))

    @pytest.mark.parametrize("params, bound", [((2, -3, Fraction(-1, 5)), 2000),
                                               ((2, 3, 5), 350)])
    def test_open_echelon_stays_sparse(self, params, bound):
        # a count, not a timing: 1,270 and 181 entries, against 3,606 and
        # 498 when the rows go in as they are generated
        tower = GradedQuotient(sklyanin_relations(*params)).tower()
        tower.dimension(6)
        assert sum(len(row) for row in tower._open.rows) <= bound

    def test_reduced_relations_make_fewer_entries(self, monkeypatch):
        # a count, not a timing: degree 6's image rows hold 2,994 entries,
        # against 3,840 from the given relations, and eliminating them
        # makes 1,619 row updates of 12,284 entries, against 2,203 of 16,910
        tower = GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5))).tower()
        tower.mu(5)
        updates = []
        add = linalg.add_multiple_qi
        monkeypatch.setattr(linalg, "add_multiple_qi",
                            lambda acc, heap, coeff, row:
                            updates.append(len(row)) or add(acc, heap, coeff, row))

        def counts(relations):
            rows = [row for _, row in tower._image_rows(6, relations)]
            rows.sort(key=lambda row: min(row, default=-1), reverse=True)
            updates.clear()
            ech = SparseEchelon(tower.field)
            for row in rows:
                ech.insert(row)
            return sum(map(len, rows)), len(updates), sum(updates)

        reduced, given = counts(tower._reduced), counts(tower.rows)
        assert 5 * reduced[0] <= 4 * given[0]
        assert 4 * reduced[1] <= 3 * given[1] and 4 * reduced[2] <= 3 * given[2]

    def test_empty_rows(self):
        # six monomial relations: from degree 3 on, e_i * r is often zero
        columns = [0, 1, 2, 5, 6, 10]   # x0x0, x0x1, x0x2, x1x1, x1x2, x2x2
        tower = QuotientTower(QQi, [{c: QQi.one()} for c in columns])
        allowed = [[int(a * 4 + b not in columns) for b in range(4)] for a in range(4)]
        counts, ends = [1], [1] * 4   # ends[b]: allowed words ending in x_b
        for _ in range(5):
            counts.append(sum(ends))
            ends = [sum(ends[a] * allowed[a][b] for a in range(4)) for b in range(4)]
        assert counts == [1, 4, 10, 26, 69, 181]
        assert [tower.dimension(n) for n in range(6)] == counts


class TestFunctionField:
    @pytest.fixture(scope="class")
    def symbolic(self):
        from quadralab.poly import FunctionField, PolyRing
        from quadralab.presentations import chl_z_relations

        F = FunctionField(PolyRing(("a", "b", "c", "d")))
        a, b, c, d = F.gens()
        return GradedQuotient(chl_z_relations(a, b, c, d, field=F, verify=False))

    def test_normal_form_differs_from_its_argument_by_a_member(self, symbolic):
        one = symbolic.space.field.one()
        for col in symbolic.space.echelon.pivot_of:
            f = from_vector({col: one}, 2)
            assert symbolic.contains(f - symbolic.normal_form(f))

    def test_reduce_returns_the_true_residual(self, symbolic):
        field = symbolic.space.field
        ech = symbolic.space.echelon
        for col in range(16):
            residual = ech.reduce({col: field.one()})
            assert not set(residual) & set(ech.pivot_of)
            difference = {c: -v for c, v in residual.items()}
            difference[col] = difference.get(col, field.zero()) + field.one()
            assert ech.contains({c: v for c, v in difference.items() if v})
            assert ech.reduce(residual) == residual

    def test_tower_refuses(self, symbolic):
        with pytest.raises(PreconditionViolated):
            symbolic.tower()
        with pytest.raises(PreconditionViolated):
            symbolic.hilbert_function(2, backend="modular")
