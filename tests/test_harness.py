import json
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from threshold_lab.constructions import TemplateGraph, blow_up, make_template
from threshold_lab.errors import Budget, BudgetExceededError, DomainError, as_budget
from threshold_lab.graphs import Graph
from threshold_lab.harness import (
    ExperimentReport,
    GnpParams,
    RNG_NAME,
    SplitMix64,
    _edge_threshold,
    _find_clique,
    bad_pair_count,
    check_ambient_properties,
    count_completable,
    derive_trial_seed,
    embed_template,
    evaluate_candidate,
    lower_regular_check,
    parse_probability,
    robust_second_neighbourhood,
    run_template_experiment,
    sample_gnp,
)


# -- sampling ------------------------------------------------------------------


def test_probability_parsing():
    assert parse_probability("0.3") == Fraction(3, 10)
    assert parse_probability("1/3") == Fraction(1, 3)
    assert parse_probability(1) == 1
    with pytest.raises(DomainError):
        parse_probability("1.5")


def test_sample_determinism():
    params = GnpParams(50, "0.3", 99)
    assert sample_gnp(params) == sample_gnp(params)
    other = sample_gnp(GnpParams(50, "0.3", 100))
    assert other != sample_gnp(params)


def test_sample_extremes():
    assert sample_gnp(GnpParams(0, "0.5", 1)).n == 0
    assert sample_gnp(GnpParams(10, 0, 1)).edge_count() == 0
    assert sample_gnp(GnpParams(10, 1, 1)).edge_count() == 45


def test_sample_edge_count_calibration():
    n, p = 300, Fraction(3, 10)
    mean = float(p) * math.comb(n, 2)
    sd = math.sqrt(mean * (1 - float(p)))
    for seed in range(20):
        g = sample_gnp(GnpParams(n, p, seed))
        assert abs(g.edge_count() - mean) < 5 * sd


def oracle_sample_gnp(params):
    """The definition of the sampler: one stream draw per pair, pairs in
    lexicographic order."""
    rng = SplitMix64(params.seed)
    threshold = _edge_threshold(params.p)
    rows = [0] * params.n
    for u in range(params.n):
        for v in range(u + 1, params.n):
            if rng.next_u64() < threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(params.n, tuple(rows))


MAX_SEED = (1 << 64) - 1  # the stream state wraps on the first draw
probabilities = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
                          st.fractions(min_value=0, max_value=1))
seeds = st.one_of(st.sampled_from([0, MAX_SEED]), st.integers(0, MAX_SEED))


@given(st.integers(0, 40), probabilities, seeds)
def test_sample_matches_pairwise_oracle(n, p, seed):
    params = GnpParams(n, p, seed)
    assert sample_gnp(params) == oracle_sample_gnp(params)


def test_trial_seed_derivation_distinct():
    seeds = {derive_trial_seed(42, i) for i in range(100)}
    assert len(seeds) == 100


# -- robust second neighbourhood -----------------------------------------------------


def test_robust_second_neighbourhood_complete():
    g = Graph.complete(6)
    # cutoff d p^2 n = 4 <= n-2
    assert robust_second_neighbourhood(g, 0, Fraction(2, 3), 1) == [1, 2, 3, 4, 5]


def test_robust_second_neighbourhood_star_and_empty():
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    d = Fraction(1, 6)  # cutoff = 1 with p = 1, n = 6
    assert robust_second_neighbourhood(star, 1, d, 1) == [2, 3, 4, 5]
    assert robust_second_neighbourhood(star, 0, d, 1) == []
    assert robust_second_neighbourhood(Graph.empty(5), 0, Fraction(1, 5), 1) == []


def test_robust_second_neighbourhood_symmetry():
    g = sample_gnp(GnpParams(12, "0.5", 3))
    sets = {v: set(robust_second_neighbourhood(g, v, Fraction(1, 4), "0.5"))
            for v in range(12)}
    for v in range(12):
        for w in sets[v]:
            assert v in sets[w]


# -- completable sets ------------------------------------------------------------------


def test_count_completable_complete():
    g = Graph.complete(9)
    out = count_completable(g, 0, 1, 2, range(2, 9))
    assert out["mode"] == "exhaustive" and out["count"] == math.comb(7, 2)


def test_count_completable_edgeless_and_oracle():
    assert count_completable(Graph.empty(6), 0, 1, 2, range(2, 6))["count"] == 0
    g = Graph.complete_multipartite([6, 6, 6])
    out = count_completable(g, 0, 1, 2, range(6, 12))
    brute = 0
    for z in combinations(range(6, 12), 2):
        common = g.common_neighbourhood(z)
        if (common & g.adj[0]).bit_count() >= 2 and \
                (common & g.adj[1]).bit_count() >= 2:
            brute += 1
    assert out["count"] == brute


def test_count_completable_sampling_mode():
    g = Graph.complete(30)
    out = count_completable(g, 0, 1, 4, range(2, 30), exhaustive_limit=100,
                            sample_count=500, seed=5)
    assert out["mode"] == "sampled"
    exact = math.comb(28, 4)
    lo, hi = out["ci95"]
    assert lo <= exact <= hi  # every subset completable: rate is exactly 1


# -- bad pairs -------------------------------------------------------------------------


def test_bad_pair_count_extremes():
    assert bad_pair_count(Graph.empty(6), [0, 1, 2], [3, 4, 5],
                          Fraction(1, 10), "0.5") == 3
    assert bad_pair_count(Graph.complete(8), [0, 1, 2], [3, 4, 5, 6, 7],
                          Fraction(1, 2), 1) == 0
    with pytest.raises(DomainError):
        bad_pair_count(Graph.empty(4), [0, 1], [1, 2], Fraction(1, 2), 1)


def test_bad_pair_count_monotone_in_gamma():
    g = sample_gnp(GnpParams(20, "0.4", 8))
    u, w = list(range(8)), list(range(8, 20))
    counts = [bad_pair_count(g, u, w, Fraction(k, 10), "0.4") for k in range(11)]
    assert counts == sorted(counts)


# -- lower regularity --------------------------------------------------------------------


def oracle_lower_regular(g, aa, bb, eps, d, p):
    """Brute force over all qualifying subset pairs."""
    need = (Fraction(d) - Fraction(eps)) * parse_probability(p)
    min_x = math.ceil(Fraction(eps) * len(aa))
    min_y = math.ceil(Fraction(eps) * len(bb))
    for xs in range(max(min_x, 1), len(aa) + 1):
        for x in combinations(aa, xs):
            for ys in range(max(min_y, 1), len(bb) + 1):
                for y in combinations(bb, ys):
                    e = sum(1 for a in x for b in y if g.has_edge(a, b))
                    if e < need * len(x) * len(y):
                        return False
    return True


def test_lower_regular_extremes():
    kbip = Graph.complete_multipartite([4, 4])
    assert lower_regular_check(kbip, range(4), range(4, 8),
                               Fraction(1, 4), 1, 1)["regular"]
    out = lower_regular_check(Graph.empty(8), range(4), range(4, 8),
                              Fraction(1, 4), Fraction(1, 2), 1)
    assert not out["regular"]
    assert out["violating_x"] and out["violating_y"]


def test_lower_regular_against_oracle():
    for seed in range(12):
        g = sample_gnp(GnpParams(10, "0.5", seed))
        aa, bb = list(range(5)), list(range(5, 10))
        got = lower_regular_check(g, aa, bb, Fraction(1, 5), Fraction(1, 2), "0.5")
        assert got["regular"] == oracle_lower_regular(
            g, aa, bb, Fraction(1, 5), Fraction(1, 2), "0.5")
        if not got["regular"]:
            x, y = got["violating_x"], got["violating_y"]
            e = sum(1 for a in x for b in y if g.has_edge(a, b))
            need = (Fraction(1, 2) - Fraction(1, 5)) * Fraction(1, 2)
            assert e < need * len(x) * len(y)


def test_lower_regular_monotone_under_edge_addition():
    rng = SplitMix64(31)
    for seed in range(8):
        g = sample_gnp(GnpParams(8, "0.35", seed))
        aa, bb = list(range(4)), list(range(4, 8))
        before = lower_regular_check(g, aa, bb, Fraction(1, 4),
                                     Fraction(1, 2), "0.5")["regular"]
        if before:
            continue
        rows = list(g.adj)
        for a in aa:  # add all cross edges: must become regular
            for b in bb:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        full = Graph(8, tuple(rows))
        assert lower_regular_check(full, aa, bb, Fraction(1, 4),
                                   Fraction(1, 2), "0.5")["regular"]


def test_lower_regular_cap_and_sampling():
    big = Graph.empty(40)
    with pytest.raises(BudgetExceededError, match="size cap of 16 vertices per side"):
        lower_regular_check(big, range(20), range(20, 40),
                            Fraction(1, 4), Fraction(1, 2), "0.5")
    out = lower_regular_check(big, range(20), range(20, 40), Fraction(1, 4),
                              Fraction(1, 2), "0.5", sample_count=50, seed=1)
    assert out["mode"] == "sampled" and not out["regular"]


# -- ambient audit ------------------------------------------------------------------------


def test_audit_complete_graph():
    g = Graph.complete(30)
    rep = check_ambient_properties(g, 1, set_size_cap=1, sample_count=50)
    assert rep["A1"][0]["relative_deviation"] == pytest.approx(1 / 30)


def test_audit_mismatch_flagged():
    rep = check_ambient_properties(Graph.empty(40), "0.3",
                                   set_size_cap=1, sample_count=50)
    assert rep["A3"]["mean_relative_deviation"] == pytest.approx(1.0)


def test_audit_rejects_no_samples():
    with pytest.raises(DomainError, match="sample count must be positive"):
        check_ambient_properties(Graph.cycle(5), "0.5", sample_count=0)


def test_audit_sampled_graph_close():
    g = sample_gnp(GnpParams(400, "0.3", 4))
    rep = check_ambient_properties(g, "0.3", set_size_cap=2, sample_count=200,
                                   seed=2)
    for entry in rep["A1"]:
        assert entry["relative_deviation"] < 0.15
    assert rep["A3"]["mean_relative_deviation"] < 0.15


# -- template embedding ---------------------------------------------------------------------


def test_embed_template_p1_exact():
    tpl = make_template(Graph.complete(3), 30, 3)
    rec = embed_template(tpl, GnpParams(30, 1, 0), Fraction(1, 10))
    assert rec["clique_found"]
    assert rec["min_degree"] == tpl.graph.min_degree()
    assert rec["x_edges_preserved"]


def test_embed_template_k1_always_passes_round1():
    g = Graph.from_edges(10, [(u, v) for u in range(3, 10)
                              for v in range(u + 1, 10)])
    tpl = TemplateGraph(g, (0,), (1, 2))
    for seed in range(5):
        rec = embed_template(tpl, GnpParams(10, "0.5", seed), Fraction(1, 10))
        assert rec["clique_found"]


def test_embed_template_p0_has_no_degree_ratio():
    # k = 1 passes round 1 at any p, so p = 0 reaches the ratio
    g = Graph.from_edges(10, [(u, v) for u in range(3, 10)
                              for v in range(u + 1, 10)])
    rec = embed_template(TemplateGraph(g, (0,), (1, 2)), GnpParams(10, 0, 1),
                         Fraction(1, 10))
    assert rec["clique_found"] and rec["min_degree"] == 0
    assert rec["min_degree_ratio"] is None


def test_embed_template_p0_no_clique():
    tpl = make_template(Graph.complete(3), 12, 3)
    rec = embed_template(tpl, GnpParams(12, 0, 1), Fraction(1, 10))
    assert not rec["clique_found"] and rec["min_degree"] is None


def test_find_clique_stops_where_too_few_vertices_remain():
    # trial 0 of `experiment --n 60 --p 9/10 --k 30`: no 30-clique among the
    # 32 initial vertices, which a level-by-level bound shows in 45 nodes
    sample = sample_gnp(GnpParams(60, Fraction(9, 10), derive_trial_seed(0, 0)))
    assert _find_clique(sample, range(32), 30, Budget(10_000)) is None


def test_find_clique_carries_the_common_neighbourhood():
    # the instance above: 45 nodes when each level only counts the vertices
    # left, 10 when it counts those adjacent to every chosen vertex
    sample = sample_gnp(GnpParams(60, Fraction(9, 10), derive_trial_seed(0, 0)))
    budget = Budget()
    assert _find_clique(sample, range(32), 30, budget) is None
    assert budget.used == 10


@given(st.integers(0, 12), st.integers(0, 5), st.integers(0, 2**64 - 1))
def test_find_clique_is_the_lex_first_clique(n, k, seed):
    g = sample_gnp(GnpParams(n, Fraction(3, 4), seed))
    first = next((c for c in combinations(range(n), k)
                  if all(g.has_edge(u, v) for u, v in combinations(c, 2))), None)
    assert _find_clique(g, range(n), k, Budget()) == first


def oracle_embed_template(template, params, gamma, budget):
    """The embedding edge by edge: map each template edge through phi and
    keep it when the sample has it."""
    g = template.graph
    k = len(template.set_x)
    initial = k + len(template.set_y)
    sample = oracle_sample_gnp(params)
    budget = as_budget(budget, "embed_template")
    clique = _find_clique(sample, range(initial), k, budget) if k else ()
    record = {"seed": params.seed, "rng": RNG_NAME, "clique_found": clique is not None}
    if clique is None:
        record.update({"min_degree": None, "min_degree_ratio": None,
                       "x_edges_preserved": None})
        return record
    phi = dict(zip(template.set_x, clique))
    others = iter([v for v in range(params.n) if v not in clique])
    for v in range(params.n):
        if v not in phi:
            phi[v] = next(others)
    rows = [0] * params.n
    for u, v in g.edges():
        a, b = phi[u], phi[v]
        if sample.has_edge(a, b):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    result = Graph(params.n, tuple(rows))
    x_edges = [(phi[u], phi[v]) for u, v in g.edges()
               if u in template.set_x and v in template.set_x]
    min_deg = result.min_degree()
    record.update({
        "min_degree": min_deg,
        "min_degree_ratio": min_deg / (float(params.p) * params.n),
        "x_edges_preserved": all(result.has_edge(a, b) for a, b in x_edges),
    })
    return record


@st.composite
def templates(draw):
    """make_template at any accepted n <= 60 and k, with a complete or a
    random core, its vertices relabelled or not."""
    n = draw(st.integers(3, 60))
    k = draw(st.sampled_from([k for k in range(1, n + 1) if k + n // k <= n]))
    core = draw(st.one_of(
        st.just(Graph.complete(k)),
        seeds.map(lambda seed: oracle_sample_gnp(GnpParams(k, Fraction(1, 2), seed)))))
    tpl = make_template(core, n, k)
    perm = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    pos = {v: i for i, v in enumerate(perm)}
    return TemplateGraph(tpl.graph.relabel(perm), tuple(pos[v] for v in tpl.set_x),
                         tuple(sorted(pos[v] for v in tpl.set_y)))


@given(templates(), probabilities, seeds)
def test_embedding_matches_edgewise_oracle(template, p, seed):
    # Both share the round-1 clique search, which is exponential in k on a
    # dense sample; the budget bounds it, and both must then run out alike.
    params = GnpParams(template.graph.n, p, seed)
    records = []
    for embed in (embed_template, oracle_embed_template):
        try:
            records.append(embed(template, params, Fraction(1, 10), 20_000))
        except BudgetExceededError as exc:
            records.append(str(exc))
    assert records[0] == records[1]


def test_experiment_report_shape_and_determinism():
    tpl = make_template(Graph.complete(3), 40, 3)
    rep1 = run_template_experiment(tpl, 40, "0.5", 7, 5, Fraction(1, 10),
                                   Fraction(3, 5))
    rep2 = run_template_experiment(tpl, 40, "0.5", 7, 5, Fraction(1, 10),
                                   Fraction(3, 5))
    assert rep1.to_json_lines() == rep2.to_json_lines()
    assert rep1.trials == 5 and len(rep1.per_trial) == 5
    lines = rep1.to_json_lines().strip().split("\n")
    assert len(lines) == 6
    summary = json.loads(lines[-1])
    assert summary["rng"] == RNG_NAME and summary["trials"] == 5
    with pytest.raises(DomainError):
        ExperimentReport(1, 2, ({},))


# -- candidate evaluation ----------------------------------------------------------------------


def test_evaluate_candidate():
    g = blow_up(Graph.cycle(5), 3)
    rec = evaluate_candidate(g, Graph.cycle(5), Fraction(1, 2), 1)
    assert rec["h_free"] is False
    rec2 = evaluate_candidate(Graph.complete_multipartite([4, 4]),
                              Graph.complete(3), Fraction(1, 4), 1)
    assert rec2["h_free"] is True
    assert rec2["chromatic_number"] == 2
    assert rec2["degree_ok"] == (4 >= Fraction(1, 4) * 8)
