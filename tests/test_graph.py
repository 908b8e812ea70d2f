import itertools
import time

import pytest

from causet.errors import (
    CycleError,
    NotIdentifiableError,
    ParseError,
    RoleError,
    UnknownNodeError,
)
from causet.graph import CausalGraph, backdoor_sets, d_separated, parse_graph, serialize_graph
from causet.rng import make_rng

from oracles import backdoor_bruteforce, dsep_bruteforce, enumerate_dags, reach_bruteforce


def search_or_none(g, t, y):
    try:
        return backdoor_sets(g, t, y)
    except NotIdentifiableError:
        return None


def expected_or_none(g, t, y):
    return backdoor_bruteforce(g, t, y) or None


def triangle():
    return parse_graph("Z -> T; Z -> Y; T -> Y\n@treatment T\n@outcome Y")


class TestParse:
    def test_minimal_confounded_triangle(self):
        g = triangle()
        assert set(g.nodes) == {"T", "Y", "Z"}
        assert len(g.edges) == 3
        assert g.treatment == "T" and g.outcome == "Y"
        assert g.role("Z") == "covariate"

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_graph("A -> B; B -> A")

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            parse_graph("A -> A")

    def test_unobserved_roles_parse(self):
        # Shape of an openable-windows -> electricity query with hidden
        # occupant-behavior confounders.
        text = """
        # hidden common causes marked @unobserved
        U1 -> windows; U1 -> electricity
        U2 -> electricity
        size -> windows; size -> electricity
        windows -> electricity
        @treatment windows
        @outcome electricity
        @unobserved U1
        @unobserved U2
        """
        g = parse_graph(text)
        assert g.unobserved == {"U1", "U2"}
        assert g.role("windows") == "treatment"

    def test_comments_semicolons_whitespace(self):
        g = parse_graph("  A->B ;B ->C  # trailing\n\n# full line\nC->D")
        assert ("A", "B") in g.edges and ("C", "D") in g.edges

    def test_bad_statements(self):
        with pytest.raises(ParseError):
            parse_graph("A -> ")
        with pytest.raises(ParseError):
            parse_graph("A => B")
        with pytest.raises(ParseError):
            parse_graph("@treatment")
        with pytest.raises(ParseError):
            parse_graph("9lives -> B")

    def test_duplicate_treatment_rejected(self):
        with pytest.raises(RoleError):
            parse_graph("@treatment A\n@treatment B")
        with pytest.raises(RoleError):
            parse_graph("@treatment A\n@outcome A")

    def test_bare_identifier_declares_node(self):
        g = parse_graph("lonely")
        assert g.nodes == ("lonely",)

    def test_roundtrip(self):
        rng = make_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            names = [f"v{i}" for i in range(n)]
            edges = [
                (names[i], names[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.uniform() < 0.4
            ]
            roles = {m: "covariate" for m in names}
            if n >= 2 and rng.uniform() < 0.7:
                roles[names[0]] = "treatment"
                roles[names[-1]] = "outcome"
            if n >= 3 and rng.uniform() < 0.5:
                roles[names[1]] = "unobserved"
            g = CausalGraph(roles, edges)
            assert parse_graph(serialize_graph(g)) == g


class TestReachability:
    def test_matches_transitive_closure_on_every_5node_dag(self):
        for names, edges in enumerate_dags(5):
            g = CausalGraph({n: "covariate" for n in names}, edges)
            reach = reach_bruteforce(names, edges)
            for a in names:
                assert g.descendants(a) == reach[a]
            for k in range(len(names) + 1):
                for picked in itertools.combinations(names, k):
                    expected = set(picked) | {a for a in names if reach[a] & set(picked)}
                    assert g.ancestral_closure(picked) == expected

    def test_descendants_exclude_the_start(self):
        g = parse_graph("A -> B; B -> C")
        assert g.descendants("A") == {"B", "C"}
        assert g.descendants("C") == frozenset()

    def test_unknown_names_raise(self):
        g = parse_graph("A -> B")
        with pytest.raises(UnknownNodeError):
            g.descendants("missing")
        with pytest.raises(UnknownNodeError):
            g.ancestral_closure(["A", "missing"])
        with pytest.raises(UnknownNodeError):
            g.ancestral_closure(iter(["missing"]))


class TestDSeparation:
    def test_chain_blocking(self):
        g = parse_graph("A -> B; B -> C")
        assert d_separated(g, "A", "C", {"B"}) is True
        assert d_separated(g, "A", "C", set()) is False

    def test_collider_opening(self):
        g = parse_graph("A -> C; B -> C")
        assert d_separated(g, "A", "B", set()) is True
        assert d_separated(g, "A", "B", {"C"}) is False

    def test_collider_descendant_opens(self):
        g = parse_graph("A -> C; B -> C; C -> D")
        assert d_separated(g, "A", "B", {"D"}) is False

    def test_unknown_node(self):
        g = parse_graph("A -> B")
        with pytest.raises(UnknownNodeError):
            d_separated(g, "A", "missing", set())

    def test_endpoint_in_conditioning_set(self):
        g = parse_graph("A -> B; B -> C")
        with pytest.raises(ValueError):
            d_separated(g, "A", "C", {"A"})

    def test_random_5node_dags_match_path_enumeration(self):
        rng = make_rng(11)
        names = [f"v{i}" for i in range(5)]
        for _ in range(120):
            edges = [
                (names[i], names[j])
                for i in range(5)
                for j in range(i + 1, 5)
                if rng.uniform() < 0.45
            ]
            g = CausalGraph({m: "covariate" for m in names}, edges)
            for a, b in itertools.combinations(names, 2):
                rest = [m for m in names if m not in (a, b)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        assert d_separated(g, a, b, z) == dsep_bruteforce(g, a, b, z)

    def test_symmetry(self):
        rng = make_rng(13)
        names = [f"v{i}" for i in range(5)]
        for _ in range(40):
            edges = [
                (names[i], names[j])
                for i in range(5)
                for j in range(i + 1, 5)
                if rng.uniform() < 0.4
            ]
            g = CausalGraph({m: "covariate" for m in names}, edges)
            for a, b in itertools.combinations(names, 2):
                z = tuple(m for m in names if m not in (a, b) and rng.uniform() < 0.3)
                assert d_separated(g, a, b, z) == d_separated(g, b, a, z)


class TestBackdoor:
    def test_single_confounder(self):
        assert backdoor_sets(triangle(), "T", "Y") == [("Z",)]

    def test_randomized_case_empty_set(self):
        g = parse_graph("T -> Y\n@treatment T\n@outcome Y")
        assert backdoor_sets(g, "T", "Y") == [()]

    def test_unblockable_backdoor(self):
        g = parse_graph("U -> T; U -> Y; T -> Y\n@treatment T\n@outcome Y\n@unobserved U")
        with pytest.raises(NotIdentifiableError) as err:
            backdoor_sets(g, "T", "Y")
        assert "U" in str(err.value)

    def test_descendants_excluded(self):
        # M sits on the causal path; conditioning sets may not contain it.
        g = parse_graph("Z -> T; Z -> Y; T -> M; M -> Y\n@treatment T\n@outcome Y")
        for s in backdoor_sets(g, "T", "Y"):
            assert "M" not in s

    def test_role_required(self):
        g = parse_graph("Z -> T; Z -> Y; T -> Y")
        with pytest.raises(RoleError):
            backdoor_sets(g, "T", "Y")

    def test_returned_sets_block_in_trimmed_graph(self):
        rng = make_rng(17)
        names = [f"v{i}" for i in range(6)]
        for _ in range(40):
            edges = [
                (names[i], names[j])
                for i in range(6)
                for j in range(i + 1, 6)
                if rng.uniform() < 0.4
            ]
            roles = {m: "covariate" for m in names}
            roles[names[0]] = "treatment"
            roles[names[-1]] = "outcome"
            g = CausalGraph(roles, edges)
            try:
                sets = backdoor_sets(g, names[0], names[-1])
            except NotIdentifiableError:
                continue
            trimmed = g.without_outgoing(names[0])
            sizes = [len(s) for s in sets]
            assert sizes == sorted(sizes)
            for s in sets:
                assert d_separated(trimmed, names[0], names[-1], s)

    def test_matches_bruteforce_on_canonical_4node_dags(self):
        # Every pair, with no unobserved node and with each other node unobserved.
        for names, edges in enumerate_dags(4):
            for t, y in itertools.permutations(names, 2):
                for u in [None, *(m for m in names if m not in (t, y))]:
                    roles = {m: "covariate" for m in names}
                    roles.update({t: "treatment", y: "outcome"})
                    if u is not None:
                        roles[u] = "unobserved"
                    g = CausalGraph(roles, edges)
                    assert search_or_none(g, t, y) == expected_or_none(g, t, y), (edges, t, y, u)

    def test_matches_bruteforce_on_random_dags_with_unobserved_nodes(self):
        rng = make_rng(23)
        for _ in range(300):
            n = int(rng.integers(6, 9))
            names = [f"v{i}" for i in range(n)]
            order = rng.permutation(n)
            edges = [
                (names[order[i]], names[order[j]])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.uniform() < 0.4
            ]
            ti, yi = (int(i) for i in rng.choice(n, 2, replace=False))
            roles = {m: "covariate" for m in names}
            for i in range(n):
                if rng.uniform() < 0.2:
                    roles[names[i]] = "unobserved"
            roles[names[ti]] = "treatment"
            roles[names[yi]] = "outcome"
            g = CausalGraph(roles, edges)
            t, y = names[ti], names[yi]
            assert search_or_none(g, t, y) == expected_or_none(g, t, y), (edges, roles)

    def test_nine_confounders_need_all_nine(self):
        xs = [f"x{i}" for i in range(9)]
        g = parse_graph(
            "\n".join(f"{x} -> w; {x} -> y" for x in xs) + "\nw -> y\n@treatment w\n@outcome y"
        )
        assert backdoor_sets(g, "w", "y") == [tuple(xs)]

    def test_many_outcome_parents_stay_fast(self):
        # 6 confounders and 14 outcome-only parents: 20 candidate nodes.
        edges = [f"x{i} -> w" for i in range(6)] + [f"x{i} -> y" for i in range(20)]
        g = parse_graph("\n".join(edges) + "\nw -> y\n@treatment w\n@outcome y")
        t0 = time.perf_counter()
        sets = backdoor_sets(g, "w", "y")
        assert time.perf_counter() - t0 < 1.0
        assert sets == [tuple(f"x{i}" for i in range(6))]

    def test_disjoint_two_node_paths_give_every_combination(self):
        # Path i is w <- a_i -> b_i -> y; either node blocks it.
        k = 10
        g = parse_graph(
            "\n".join(f"a{i} -> w; a{i} -> b{i}; b{i} -> y" for i in range(k))
            + "\nw -> y\n@treatment w\n@outcome y"
        )
        sets = backdoor_sets(g, "w", "y")
        assert len(sets) == 2**k
        assert sets == sorted(
            tuple(sorted(c)) for c in itertools.product(*([f"a{i}", f"b{i}"] for i in range(k)))
        )
