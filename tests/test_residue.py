"""Residue-field tables and the successor kernel against coefficient-tuple oracles."""

import random
import time

import pytest

from arithdyn import fppoly, residue
from arithdyn.dynamics import functional_graph
from arithdyn.errors import BudgetExceededError, DomainError
from arithdyn.ratmap import ReducedMap, _successor_step, _value_table
from arithdyn.residue import ResidueField, field_of_size
from reference import PolyResidueField, ResidueFieldOps, _horner

# u is not primitive modulo these: it has order 5 in F_16 and 4 in F_9
NON_PRIMITIVE = [(2, (1, 1, 1, 1, 1)), (3, (1, 0, 1))]
EXTENSIONS = NON_PRIMITIVE + [
    (2, (1, 1, 0, 1)),
    (2, (1, 0, 1, 0, 0, 1)),
    (3, (1, 2, 0, 1)),
    (5, (2, 0, 1)),
    (7, (1, 0, 1)),
]
PRIMES = [2, 3, 5, 7, 13, 101]


def oracle_for(rf):
    return PolyResidueField(rf.p, rf.modulus or (0, 1))


class TestTables:
    @pytest.mark.parametrize("p, modulus", EXTENSIONS)
    def test_exp_log_inverse(self, p, modulus):
        rf = ResidueField(p, modulus)
        t = rf.tables()
        assert t.n == rf.q - 1
        assert t.log[0] == -1
        assert all(t.exp[t.log[a]] == a for a in range(1, rf.q))
        assert sorted(t.log[1:]) == list(range(t.n))
        assert list(t.exp[t.n:]) == list(t.exp[: t.n])

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 64, 128, 256, 9, 27, 81, 243, 25, 125, 49, 343])
    def test_exp_is_powers_of_a_generator(self, q):
        rf = field_of_size(q)
        t = rf.tables()
        orc = oracle_for(rf)
        g = t.exp[1]
        assert orc.order(g) == rf.q - 1
        assert all(t.exp[i + 1] == orc.mul(t.exp[i], g) for i in range(t.n))

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 64, 128, 256, 512, 1024, 9, 27, 81, 25, 125, 49])
    def test_zech_is_the_log_of_one_plus_a_power(self, q):
        rf = field_of_size(q)
        t = rf.tables()
        orc = oracle_for(rf)
        assert len(t.zech) == t.n
        for i in range(t.n):
            want = orc.add(1, t.exp[i])
            if want:
                assert 0 <= t.zech[i] < t.n and t.exp[t.zech[i]] == want
            else:
                assert t.zech[i] == -1

    @pytest.mark.parametrize("p, modulus", NON_PRIMITIVE)
    def test_non_primitive_modulus(self, p, modulus):
        rf = ResidueField(p, modulus)
        assert oracle_for(rf).order(p) < rf.q - 1  # the code p is u
        assert rf.tables().exp[1] != p

    @pytest.mark.parametrize(
        "p, modulus",
        [(2, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)), (3, (1, 0, 2) + (0,) * 7 + (1,)), (17, (3, 0, 0, 0, 1))],
    )
    def test_largest_fields_build_quickly(self, p, modulus):
        rf = ResidueField(p, modulus)
        start = time.perf_counter()
        t = residue._field_tables(rf)
        assert time.perf_counter() - start < 5.0
        assert all(t.exp[t.log[a]] == a for a in range(1, rf.q, 97))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
    def test_field_of_size_takes_the_first_irreducible(self, p):
        k = 2
        while p**k <= 3**7:
            first = next(f for f in fppoly.enumerate_monic_irreducibles(p, k) if len(f) == k + 1)
            assert field_of_size(p**k) == ResidueField(p, first)
            k += 1

    @pytest.mark.parametrize(
        "q, modulus",
        [
            (2**8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
            (2**16, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)),
            (2**17, (1, 0, 0, 1) + (0,) * 13 + (1,)),
            (2**24, (1, 1, 0, 1, 1) + (0,) * 19 + (1,)),
            (3**9, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)),
            (3**12, (2, 0, 1) + (0,) * 9 + (1,)),
            (5**7, (1, 1, 0, 0, 0, 0, 0, 1)),
            (7**6, (2, 0, 0, 0, 0, 0, 1)),
            (101**3, (1, 1, 0, 1)),
            (1009**2, (11, 0, 1)),
        ],
    )
    def test_field_of_size_moduli_frozen(self, q, modulus):
        # the first irreducible in code order, frozen from the trial-division
        # irreducibility test
        assert field_of_size(q).modulus == modulus

    def test_field_of_size_without_the_sieve(self):
        start = time.perf_counter()
        rf = field_of_size(2**20)
        assert time.perf_counter() - start < 1.0
        assert rf.q == 2**20 and fppoly.is_irreducible(2, rf.modulus)

    @pytest.mark.parametrize(
        "q, p, k", [(10**9 + 7, 10**9 + 7, 1), (2**61 - 1, 2**61 - 1, 1),
                    (1000003**2, 1000003, 2), (3**20, 3, 20)]
    )
    def test_field_of_size_at_a_large_prime_power(self, q, p, k):
        # p comes from an exact k-th root of q, not from a scan of the divisors
        start = time.perf_counter()
        rf = field_of_size(q)
        assert time.perf_counter() - start < 0.5
        assert (rf.p, rf.deg, rf.q) == (p, k, q)

    @pytest.mark.parametrize("q", [6, 10**12, 2**10 * 3, 1, 0, -8])
    def test_field_of_size_refuses_other_sizes(self, q):
        with pytest.raises(ValueError):
            field_of_size(q)

    def test_only_extension_fields_within_the_node_budget(self):
        assert ResidueField(101).tables() is None
        assert ResidueField(2, (1, 0, 0, 1) + (0,) * 13 + (1,)).tables() is None  # q = 2^17

    def test_reducible_modulus(self):
        rf = ResidueField(2, (1, 0, 1))  # (u + 1)^2
        assert rf.tables() is None
        with pytest.raises(DomainError):
            rf.inv(3)  # u + 1


class TestArithmetic:
    @pytest.mark.parametrize("p, modulus", EXTENSIONS + [(p, None) for p in (2, 7)])
    def test_all_pairs(self, arithmetic, p, modulus):
        rf = ResidueField(p, modulus)
        orc = oracle_for(rf)
        for a in range(rf.q):
            for b in range(rf.q):
                assert rf.mul(a, b) == orc.mul(a, b)
                assert rf.add(a, b) == orc.add(a, b)
                if b:
                    assert rf.div(a, b) == orc.mul(a, orc.inv(b))
            if a:
                assert rf.inv(a) == orc.inv(a)
        with pytest.raises(ZeroDivisionError):
            rf.inv(0)

    @pytest.mark.parametrize(
        "p, modulus", EXTENSIONS + [(2, (1, 1, 0, 0, 0, 0, 1)), (3, (2, 1, 0, 0, 1))]
        + [(p, None) for p in PRIMES]
    )
    def test_multiplicative_order_brute_force(self, arithmetic, p, modulus):
        rf = ResidueField(p, modulus)
        orc = oracle_for(rf)
        for a in range(1, rf.q):
            assert rf.multiplicative_order(a) == orc.order(a)

    @pytest.mark.parametrize("q", [2, 5, 4, 9, 101])
    def test_pair_and_node_invert_each_other(self, arithmetic, q):
        rf = field_of_size(q)
        assert (rf.tables() is None) == (arithmetic == "polynomial" or rf.modulus is None)
        scales = range(1, q) if q < 10 else (1, 2, q - 1)
        for code in range(q + 1):
            x, y = rf.pair(code)
            assert rf.pair(rf.node(x, y)) == (x, y)
            # every representative [s*x : s*y] of the node
            assert {rf.node(rf.mul(s, x), rf.mul(s, y)) for s in scales} == {code}
        with pytest.raises(DomainError):
            rf.node(0, 0)

    def test_order_refused_when_q_minus_1_resists_factoring(self):
        # x^61 + x^5 + x^2 + x + 1 is irreducible (Rabin: 61 is prime) and
        # 2^61 - 1 is prime, certified by Miller-Rabin: every unit other
        # than 1 has order 2^61 - 1
        p, pi = 2, (1, 1, 1, 0, 0, 1) + (0,) * 55 + (1,)
        x = (0, 1)
        assert fppoly.ppow_mod(p, x, 2**61, pi) == x
        assert fppoly.pgcd(p, fppoly.psub(p, fppoly.ppow_mod(p, x, 2, pi), x), pi) == fppoly.ONE
        start = time.perf_counter()
        assert ResidueField(p, pi).multiplicative_order(2) == 2**61 - 1
        # x^89 + x^38 + 1 is irreducible, and 2^89 - 1 is a prime at or
        # above MR_EXACT_BOUND, which factor_int cannot certify
        pi = (1,) + (0,) * 37 + (1,) + (0,) * 50 + (1,)
        assert fppoly.is_irreducible(p, pi)
        with pytest.raises(BudgetExceededError):
            ResidueField(p, pi).multiplicative_order(2)
        assert time.perf_counter() - start < 5.0


def brute_tail_depth(succ):
    """For each node, the steps its walk takes to reach a node on a cycle
    (a node whose walk returns to it)."""
    n = len(succ)

    def on_cycle(x):
        y = succ[x]
        for _ in range(n):
            if y == x:
                return True
            y = succ[y]
        return False

    cyclic = [on_cycle(x) for x in range(n)]
    depths = []
    for x in range(n):
        k = 0
        while not cyclic[x]:
            x, k = succ[x], k + 1
        depths.append(k)
    return depths


def kernel_maps(rf, rng, degrees=range(1, 6)):
    """Maps of the given degrees of four shapes, as (fco, gco) over rf's codes."""
    q = rf.q

    def rand(d, lead_nonzero=False):
        co = [rng.randrange(q) for _ in range(d + 1)]
        if lead_nonzero:
            co[d] = rng.randrange(1, q)
        return tuple(co)

    for d in degrees:
        # infinity goes to a finite point
        yield rand(d), rand(d, lead_nonzero=True)
        # a polynomial map: G = Y^d
        yield rand(d, lead_nonzero=True), (1,) + (0,) * d
        # G(x, 1) vanishes at a nonzero x and at 0
        a = rng.randrange(1, q)
        h = rand(d - 1, lead_nonzero=True)
        g = [0] * (d + 1)
        for i, c in enumerate(h):  # G = (X - a*Y) * h
            g[i + 1] = rf.add(g[i + 1], c)
            g[i] = rf.add(g[i], rf.mul(rf.neg(a), c))
        yield rand(d), tuple(g)
        yield rand(d), (0,) + rand(d - 1, lead_nonzero=True)
        # anything
        yield rand(d), rand(d)


class TestSuccessorKernel:
    @pytest.mark.parametrize(
        "p, modulus", EXTENSIONS + [(p, None) for p in PRIMES] + [(2, (1, 1, 0, 0, 0, 0, 1))]
    )
    def test_graph_and_apply_against_oracle(self, arithmetic, p, modulus):
        rf = ResidueField(p, modulus)
        orc = oracle_for(rf)
        rng = random.Random(p * 1000 + rf.q)
        valid = tail_at_zero = 0
        for fco, gco in kernel_maps(rf, rng):
            psi = ReducedMap(rf, fco, gco)
            want = orc.successors(fco, gco)
            # the one-node step at every node, a (0, 0) image refused
            for code in range(rf.q + 1):
                if want[code] is None:
                    with pytest.raises(DomainError):
                        psi.apply(code)
                else:
                    assert psi.apply(code) == want[code]
            if None in want:
                with pytest.raises(DomainError):
                    functional_graph(psi)
                continue
            valid += 1
            assert psi.successors() == want
            graph = functional_graph(psi)
            assert list(graph.successors) == want
            assert list(graph.tail_depth) == brute_tail_depth(want)
            tail_at_zero += graph.tail_depth[0] > 0
        assert valid >= 10
        assert tail_at_zero >= 1

    # A prime field builds its table for all nodes at once.  The one-node
    # step that `ReducedMap.apply` takes is its reference on every node; the
    # oracle, about 0.2 ms a node at p = 10007, checks a sample that holds
    # the nodes where F and G both vanish, some poles of G, and infinity.
    # The largest prime here is the largest within DEFAULT_NODE_BUDGET.
    @pytest.mark.parametrize(
        "p, degrees", [(2, range(1, 6)), (3, range(1, 6)), (10007, (2, 5)), (99991, (1,))]
    )
    def test_prime_table_against_step_and_oracle(self, p, degrees):
        rf = ResidueField(p)
        orc = oracle_for(rf)
        rng = random.Random(p)
        maps = list(kernel_maps(rf, rng, degrees))
        for d in degrees:
            f = tuple(rng.randrange(p) for _ in range(d))
            # G = c*Y^d with a constant c != 1, and G = 0 while F(0, 1) = 0
            maps.append((f + (1,), (rng.randrange(2, p) if p > 2 else 1,) + (0,) * d))
            maps.append(((0,) + f, (0,) * (d + 1)))
        # a directly built map may hold coefficients not reduced mod p, a
        # leading one of G among them that is a nonzero multiple of p
        maps.append(tuple(tuple(c + p * rng.randrange(1, 4) for c in co) for co in maps[0]))
        f, g = maps[0]
        maps.append((f[:-1] + (1,), g[:-1] + (p,)))
        for fco, gco in maps:
            psi = ReducedMap(rf, fco, gco)
            step = _successor_step(psi)
            want = []
            for x in range(p + 1):
                try:
                    want.append(step(x))
                except DomainError:
                    want.append(None)
            poles = [x for x, y in enumerate(want[:p]) if y is None or y == p]
            nodes = sorted({*rng.sample(range(p), min(p, 64)), *poles[:8], p})
            nodes += [x for x in poles[8:] if want[x] is None]
            reduced = [tuple(c % p for c in co) for co in (fco, gco)]
            assert orc.successors(*reduced, nodes) == [want[x] for x in nodes]
            if None in want:
                with pytest.raises(DomainError):
                    psi.successors()
                continue
            assert psi.successors() == want
            assert [psi.apply(x) for x in nodes] == [want[x] for x in nodes]

    def test_apply_checks_the_field(self):
        # the nodes of P^1(F_5) are 0..5: -1 and 6 are none, and 7 is not
        # [7 : 1] = [2 : 1], whose image is node 0
        psi = ReducedMap(ResidueField(5), (1, 0, 1), (1, 0, 0))
        assert [psi.apply(x) for x in range(6)] == [1, 2, 0, 0, 2, 5]
        for node in (-1, 6, 7):
            with pytest.raises(DomainError):
                psi.apply(node)


def horner_values(co, p, xs):
    """C(x, 1) mod p at each x by the oracle's Horner, coefficients reduced first."""
    ops, co = ResidueFieldOps(ResidueField(p)), [c % p for c in co]
    return [_horner(ops, co, x) for x in xs]


class TestValueTable:
    """The prime-field value table against Horner at each x."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
    def test_every_degree_against_horner(self, p):
        # degrees past p too, with coefficients negative or not reduced,
        # and a leading one that p divides
        rng = random.Random(p)
        for d in range(1, 13):
            for co in (
                tuple(rng.randrange(p) for _ in range(d + 1)),
                tuple(rng.randrange(-5 * p, 5 * p) for _ in range(d + 1)),
                tuple(rng.randrange(-5 * p, 5 * p) for _ in range(d)) + (p * rng.randrange(-3, 4),),
            ):
                assert _value_table(co, p) == horner_values(co, p, range(p))

    @pytest.mark.parametrize("p", [2, 7, 10007])
    def test_constant_g_folds_into_f(self, p):
        # G = c*Y^d with c != 1, c = 1 + p (1 mod p) and c < 0
        rng = random.Random(p + 1)
        for c in (rng.randrange(2, p) if p > 2 else 3, 1 + p, -3 * p - 1):
            for d in (1, 2, 5):
                fco = tuple(rng.randrange(-p, 2 * p) for _ in range(d)) + (rng.randrange(1, p) - p,)
                u = pow(c, -1, p)
                # infinity maps to [c_d : 0], node p
                want = [v * u % p for v in horner_values(fco, p, range(p))] + [p]
                assert ReducedMap(ResidueField(p), fco, (c,) + (0,) * d).successors() == want

    def test_degree_256_on_a_sample(self):
        p, rng = 99991, random.Random(256)
        co = tuple(rng.randrange(p) for _ in range(256)) + (rng.randrange(1, p),)
        table = _value_table(co, p)
        assert len(table) == p
        xs = rng.sample(range(p), 256) + [0, 1, p - 1]
        assert [table[x] for x in xs] == horner_values(co, p, xs)
