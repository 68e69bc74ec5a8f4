#include <algorithm>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "match/bfs_executor.h"
#include "match/candidates.h"
#include "match/executor.h"
#include "match/online.h"
#include "match/pattern.h"
#include "match/plan.h"
#include "tlag/algos/triangles.h"

namespace gal {
namespace {

// --- patterns / automorphisms -------------------------------------------------

TEST(PatternTest, AutomorphismCounts) {
  EXPECT_EQ(Automorphisms(TrianglePattern()).size(), 6u);     // S3
  EXPECT_EQ(Automorphisms(CliquePattern(4)).size(), 24u);     // S4
  EXPECT_EQ(Automorphisms(PathPattern(3)).size(), 2u);        // flip
  EXPECT_EQ(Automorphisms(CyclePattern(4)).size(), 8u);       // dihedral
  EXPECT_EQ(Automorphisms(StarPattern(3)).size(), 6u);        // leaves
  EXPECT_EQ(Automorphisms(TailedTrianglePattern()).size(), 2u);
  EXPECT_EQ(Automorphisms(DiamondPattern()).size(), 4u);
}

TEST(PatternTest, LabelsRestrictAutomorphisms) {
  Graph tri = TrianglePattern();
  ASSERT_TRUE(tri.SetLabels({0, 0, 1}).ok());
  EXPECT_EQ(Automorphisms(tri).size(), 2u);  // only 0<->1 swap remains
}

TEST(PatternTest, SymmetryRestrictionsOfClique) {
  // For K3: total order over all three positions.
  auto r = SymmetryBreakingRestrictions(TrianglePattern());
  EXPECT_EQ(r.size(), 3u);
}

// --- candidate filtering --------------------------------------------------------

TEST(CandidatesTest, LdfRespectsDegreeAndLabel) {
  Graph data = WithRandomLabels(Rmat(8, 6, 3), 3, 5);
  Graph query = TrianglePattern();
  ASSERT_TRUE(query.SetLabels({0, 1, 2}).ok());
  CandidateSets sets = LdfFilter(data, query);
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v : sets.candidates[u]) {
      EXPECT_EQ(data.LabelOf(v), query.LabelOf(u));
      EXPECT_GE(data.Degree(v), query.Degree(u));
    }
  }
}

TEST(CandidatesTest, NlfIsSubsetOfLdf) {
  Graph data = WithRandomLabels(Rmat(8, 6, 7), 3, 9);
  Graph query = CyclePattern(4);
  ASSERT_TRUE(query.SetLabels({0, 1, 0, 2}).ok());
  CandidateSets ldf = LdfFilter(data, query);
  CandidateSets nlf = NlfFilter(data, query);
  for (VertexId u = 0; u < 4; ++u) {
    EXPECT_LE(nlf.candidates[u].size(), ldf.candidates[u].size());
    for (VertexId v : nlf.candidates[u]) {
      EXPECT_TRUE(std::binary_search(ldf.candidates[u].begin(),
                                     ldf.candidates[u].end(), v));
    }
  }
}

TEST(CandidatesTest, UnlabeledNlfFallsBackToLdf) {
  Graph data = Rmat(7, 4, 1);
  Graph query = TrianglePattern();
  EXPECT_EQ(NlfFilter(data, query).TotalSize(),
            LdfFilter(data, query).TotalSize());
}

// --- plans -----------------------------------------------------------------------

TEST(PlanTest, OrdersAreConnectedPermutations) {
  Graph data = Rmat(7, 6, 2);
  for (const Graph& q : {TrianglePattern(), CyclePattern(5), DiamondPattern(),
                         TailedTrianglePattern(), StarPattern(4)}) {
    CandidateSets cand = LdfFilter(data, q);
    for (OrderStrategy s : {OrderStrategy::kById, OrderStrategy::kGreedyCost,
                            OrderStrategy::kWorst}) {
      MatchPlan plan = BuildPlan(q, cand, s, false);
      ASSERT_EQ(plan.order.size(), q.NumVertices());
      std::set<VertexId> seen(plan.order.begin(), plan.order.end());
      EXPECT_EQ(seen.size(), q.NumVertices());
      for (uint32_t i = 1; i < plan.order.size(); ++i) {
        EXPECT_FALSE(plan.backward_neighbors[i].empty())
            << "position " << i << " must join the prefix";
      }
    }
  }
}

// --- DFS matching ------------------------------------------------------------------

TEST(MatchTest, TriangleEmbeddingsEqualSixTimesTriangles) {
  Graph data = ErdosRenyi(150, 0.06, 11);
  const uint64_t triangles = SerialTriangleCount(data).triangles;
  MatchResult r = SubgraphMatch(data, TrianglePattern());
  EXPECT_EQ(r.stats.matches, 6 * triangles);  // |Aut(K3)| images each
}

TEST(MatchTest, SymmetryBreakingYieldsDistinctCount) {
  Graph data = ErdosRenyi(150, 0.06, 11);
  const uint64_t triangles = SerialTriangleCount(data).triangles;
  MatchOptions opt;
  opt.symmetry_breaking = true;
  MatchResult r = SubgraphMatch(data, TrianglePattern(), opt);
  EXPECT_EQ(r.stats.matches, triangles);
}

TEST(MatchTest, SymmetryBreakingConsistentAcrossPatterns) {
  Graph data = ErdosRenyi(80, 0.1, 23);
  for (const Graph& q : {CliquePattern(4), CyclePattern(4), PathPattern(4),
                         DiamondPattern(), StarPattern(3),
                         TailedTrianglePattern()}) {
    MatchResult all = SubgraphMatch(data, q);
    MatchOptions opt;
    opt.symmetry_breaking = true;
    MatchResult distinct = SubgraphMatch(data, q, opt);
    EXPECT_EQ(all.stats.matches,
              distinct.stats.matches * Automorphisms(q).size())
        << "pattern with " << q.NumVertices() << " vertices";
  }
}

TEST(MatchTest, OrderStrategiesAgreeOnCounts) {
  Graph data = Rmat(8, 6, 9);
  for (const Graph& q : {TrianglePattern(), DiamondPattern(),
                         TailedTrianglePattern(), CyclePattern(5)}) {
    MatchOptions by_id;
    by_id.order = OrderStrategy::kById;
    MatchOptions greedy;
    greedy.order = OrderStrategy::kGreedyCost;
    MatchOptions worst;
    worst.order = OrderStrategy::kWorst;
    const uint64_t a = SubgraphMatch(data, q, by_id).stats.matches;
    const uint64_t b = SubgraphMatch(data, q, greedy).stats.matches;
    const uint64_t c = SubgraphMatch(data, q, worst).stats.matches;
    EXPECT_EQ(a, b);
    EXPECT_EQ(b, c);
  }
}

TEST(MatchTest, GreedyOrderCostsNoMoreThanWorst) {
  // Tailed triangle on a skewed graph: starting from the hub-heavy,
  // low-selectivity end explodes intermediate results.
  Graph data = BarabasiAlbert(800, 3, 5);
  MatchOptions greedy;
  greedy.order = OrderStrategy::kGreedyCost;
  MatchOptions worst;
  worst.order = OrderStrategy::kWorst;
  Graph q = TailedTrianglePattern();
  MatchResult g = SubgraphMatch(data, q, greedy);
  MatchResult w = SubgraphMatch(data, q, worst);
  EXPECT_EQ(g.stats.matches, w.stats.matches);
  EXPECT_LE(g.stats.search_nodes, w.stats.search_nodes);
}

TEST(MatchTest, LabeledMatchRespectsLabels) {
  // Path data 0-1-2 labeled A-B-C; query edge A-B matches once each way
  // of which only (0,1) is label-consistent.
  Graph data = Path(3);
  ASSERT_TRUE(data.SetLabels({0, 1, 2}).ok());
  Graph query = PathPattern(2);
  ASSERT_TRUE(query.SetLabels({0, 1}).ok());
  MatchResult r = SubgraphMatch(data, query);
  EXPECT_EQ(r.stats.matches, 1u);
}

TEST(MatchTest, LimitShortCircuits) {
  Graph data = Complete(30);
  MatchOptions opt;
  opt.limit = 10;
  MatchResult r = SubgraphMatch(data, TrianglePattern(), opt);
  EXPECT_EQ(r.stats.matches, 10u);
  // Unlimited would be 6*C(30,3) = 24360 matches.
  EXPECT_LT(r.stats.search_nodes, 24360u);
}

TEST(MatchTest, CollectedMatchesAreValidEmbeddings) {
  Graph data = ErdosRenyi(60, 0.12, 3);
  Graph q = DiamondPattern();
  MatchResult r = SubgraphMatch(data, q, {}, /*collect=*/true);
  ASSERT_EQ(r.matches.size(), r.stats.matches);
  for (const auto& m : r.matches) {
    std::set<VertexId> distinct(m.begin(), m.end());
    ASSERT_EQ(distinct.size(), m.size());  // injective
    for (uint32_t i = 0; i < q.NumVertices(); ++i) {
      for (uint32_t j : r.plan.backward_neighbors[i]) {
        ASSERT_TRUE(data.HasEdge(m[i], m[j]));
      }
    }
  }
}

TEST(MatchTest, ThreadCountInvariant) {
  Graph data = Rmat(9, 5, 21);
  MatchOptions one;
  one.engine.num_threads = 1;
  MatchOptions eight;
  eight.engine.num_threads = 8;
  Graph q = CyclePattern(4);
  EXPECT_EQ(SubgraphMatch(data, q, one).stats.matches,
            SubgraphMatch(data, q, eight).stats.matches);
}

// --- adaptive splitting determinism -----------------------------------------

// The acceptance bar for task splitting: the DFS search visits the
// bit-identical tree no matter how many threads run it or where prefix
// tasks are cut, so the match count, the search-node count, and the
// collected match *set* never move.
TEST(MatchDeterminismTest, CountAndCollectedSetInvariantAcrossSplits) {
  Graph data = BarabasiAlbert(300, 6, 13);
  Graph q = CliquePattern(4);

  MatchOptions ref_opt;
  ref_opt.engine.num_threads = 1;
  ref_opt.split_depth = 0;
  MatchResult ref = SubgraphMatch(data, q, ref_opt, /*collect=*/true);
  std::vector<std::vector<VertexId>> ref_set = ref.matches;
  std::sort(ref_set.begin(), ref_set.end());

  for (uint32_t threads : {1u, 2u, 8u}) {
    for (uint32_t split : {0u, 2u}) {
      MatchOptions opt;
      opt.engine.num_threads = threads;
      // Block distribution clusters the hub roots on one worker, so
      // thieves park early and splitting genuinely kicks in.
      opt.engine.distribution = InitialDistribution::kBlock;
      opt.split_depth = split;
      MatchResult r = SubgraphMatch(data, q, opt, /*collect=*/true);
      EXPECT_EQ(r.stats.matches, ref.stats.matches)
          << threads << " threads, split depth " << split;
      EXPECT_EQ(r.stats.search_nodes, ref.stats.search_nodes)
          << threads << " threads, split depth " << split;
      std::vector<std::vector<VertexId>> got = r.matches;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, ref_set)
          << threads << " threads, split depth " << split;
    }
  }
}

TEST(MatchDeterminismTest, SymmetryBreakingSurvivesSplitting) {
  Graph data = BarabasiAlbert(300, 6, 29);
  MatchOptions opt;
  opt.symmetry_breaking = true;
  opt.engine.num_threads = 8;
  opt.split_depth = 2;
  MatchOptions serial = opt;
  serial.engine.num_threads = 1;
  serial.split_depth = 0;
  for (const Graph& q : {TrianglePattern(), DiamondPattern()}) {
    EXPECT_EQ(SubgraphMatch(data, q, opt).stats.matches,
              SubgraphMatch(data, q, serial).stats.matches);
  }
}

// Wall-clock scaling check behind the acceptance criterion: adaptive
// splitting at 4 threads beats the 1-thread run by >= 1.5x on a
// hub-heavy BA graph. Tagged `timing` in ctest; skipped (not failed) on
// hosts without 4 cores.
TEST(MatchScalingTest, SplittingSpeedsUpHubHeavyMatchAt4Threads) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  Graph data = BarabasiAlbert(3000, 25, 7);
  Graph q = CliquePattern(4);
  auto best_of = [&](uint32_t threads, uint32_t split) {
    MatchOptions opt;
    opt.engine.num_threads = threads;
    opt.split_depth = split;
    SubgraphMatch(data, q, opt);  // warm caches
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      MatchResult r = SubgraphMatch(data, q, opt);
      best = std::min(best, r.stats.task_stats.wall_seconds);
    }
    return best;
  };
  const double serial = best_of(1, 0);
  const double adaptive = best_of(4, 2);
  EXPECT_GT(serial / adaptive, 1.5)
      << "serial=" << serial << "s adaptive4=" << adaptive << "s";
}

TEST(MatchTest, HasSubgraphMatchFindsAndRejects) {
  Graph tri_free = Grid(5, 5);
  EXPECT_FALSE(HasSubgraphMatch(tri_free, TrianglePattern()));
  EXPECT_TRUE(HasSubgraphMatch(tri_free, CyclePattern(4)));
  EXPECT_TRUE(HasSubgraphMatch(Complete(5), CliquePattern(5)));
  EXPECT_FALSE(HasSubgraphMatch(Complete(4), CliquePattern(5)));
}

// --- candidate refinement -------------------------------------------------------

TEST(RefineTest, NeverChangesMatchCounts) {
  Graph data = WithRandomLabels(Rmat(8, 6, 11), 3, 17);
  for (const Graph& base : {TrianglePattern(), CyclePattern(4),
                            TailedTrianglePattern()}) {
    Graph q = base;
    std::vector<Label> qlabels(q.NumVertices());
    for (uint32_t i = 0; i < qlabels.size(); ++i) qlabels[i] = i % 3;
    ASSERT_TRUE(q.SetLabels(std::move(qlabels)).ok());
    MatchOptions plain;
    MatchOptions refined;
    refined.refine_candidates = true;
    EXPECT_EQ(SubgraphMatch(data, q, plain).stats.matches,
              SubgraphMatch(data, q, refined).stats.matches);
  }
}

TEST(RefineTest, ShrinksCandidatesAndSearchOnLabeledData) {
  Graph data = WithRandomLabels(Rmat(9, 6, 3), 4, 21);
  Graph q = CyclePattern(4);
  ASSERT_TRUE(q.SetLabels({0, 1, 2, 3}).ok());
  MatchOptions plain;
  MatchOptions refined;
  refined.refine_candidates = true;
  MatchResult rp = SubgraphMatch(data, q, plain);
  MatchResult rr = SubgraphMatch(data, q, refined);
  EXPECT_EQ(rp.stats.matches, rr.stats.matches);
  EXPECT_LT(rr.stats.candidate_total, rp.stats.candidate_total);
  EXPECT_LE(rr.stats.search_nodes, rp.stats.search_nodes);
}

TEST(RefineTest, ReachesFixpointAndIsSound) {
  // A path query on a star data graph: the center is the only vertex
  // that can host the middle, and refinement must figure out that
  // leaves cannot host *both* path ends of a 3-path going through a
  // leaf (no second neighbor).
  Graph data = Star(6);
  Graph q = PathPattern(3);
  CandidateSets sets = LdfFilter(data, q);
  RefineStats stats = RefineCandidates(data, q, &sets);
  EXPECT_GE(stats.rounds, 1u);
  // Middle vertex (degree 2) can only be the hub.
  EXPECT_EQ(sets.candidates[1], (std::vector<VertexId>{0}));
  // Fixpoint: running again removes nothing.
  RefineStats again = RefineCandidates(data, q, &sets);
  EXPECT_EQ(again.removed, 0u);
}

// --- BFS / hybrid matching ------------------------------------------------------

TEST(BfsMatchTest, AgreesWithDfsExecutor) {
  Graph data = ErdosRenyi(100, 0.08, 17);
  for (const Graph& q :
       {TrianglePattern(), CyclePattern(4), DiamondPattern()}) {
    MatchResult dfs = SubgraphMatch(data, q);
    BfsMatchResult bfs = BfsSubgraphMatch(data, q);
    EXPECT_EQ(bfs.stats.matches, dfs.stats.matches);
  }
}

TEST(BfsMatchTest, HonorsInducedAndRefinement) {
  Graph data = ErdosRenyi(80, 0.12, 3);
  for (const Graph& q : {CyclePattern(4), DiamondPattern()}) {
    MatchOptions opt;
    opt.induced = true;
    opt.refine_candidates = true;
    MatchResult dfs = SubgraphMatch(data, q, opt);
    BfsMatchOptions bfs_opt;
    bfs_opt.match = opt;
    BfsMatchResult bfs = BfsSubgraphMatch(data, q, bfs_opt);
    EXPECT_EQ(bfs.stats.matches, dfs.stats.matches);
  }
}

TEST(BfsMatchTest, PeakMemoryTracked) {
  Graph data = Complete(20);
  BfsMatchResult r = BfsSubgraphMatch(data, CliquePattern(4));
  EXPECT_GT(r.bfs.peak_materialized, 1000u);  // K20 partials explode
  EXPECT_GT(r.bfs.peak_bytes, 0u);
}

TEST(BfsMatchTest, StrictBudgetAborts) {
  Graph data = Complete(20);
  BfsMatchOptions opt;
  opt.bfs.memory_budget_bytes = 1024;
  opt.bfs.policy = MemoryPolicy::kStrict;
  BfsMatchResult r = BfsSubgraphMatch(data, CliquePattern(4), opt);
  EXPECT_TRUE(r.bfs.budget_exceeded);
}

TEST(BfsMatchTest, HybridMatchesFullCountUnderBudget) {
  Graph data = ErdosRenyi(100, 0.1, 29);
  BfsMatchResult full = BfsSubgraphMatch(data, DiamondPattern());
  BfsMatchOptions opt;
  opt.bfs.memory_budget_bytes = 8192;
  opt.bfs.policy = MemoryPolicy::kHybridDfs;
  BfsMatchResult hybrid = BfsSubgraphMatch(data, DiamondPattern(), opt);
  EXPECT_EQ(hybrid.stats.matches, full.stats.matches);
  EXPECT_GT(hybrid.bfs.dfs_fallback_embeddings, 0u);
  EXPECT_LT(hybrid.bfs.peak_bytes, full.bfs.peak_bytes);
}

TEST(BfsMatchTest, SpillCompletesWithAccounting) {
  Graph data = ErdosRenyi(100, 0.1, 31);
  BfsMatchResult full = BfsSubgraphMatch(data, CyclePattern(4));
  BfsMatchOptions opt;
  opt.bfs.memory_budget_bytes = 4096;
  opt.bfs.policy = MemoryPolicy::kSpill;
  BfsMatchResult spill = BfsSubgraphMatch(data, CyclePattern(4), opt);
  EXPECT_EQ(spill.stats.matches, full.stats.matches);
  EXPECT_GT(spill.bfs.spilled_bytes, 0u);
  // Spilled partials live in host memory, so resident bytes stay within
  // the budget, with the engine test's slack of one 4-vertex partial.
  const uint64_t slack = 4 * sizeof(VertexId) + sizeof(Embedding);
  EXPECT_LE(spill.bfs.peak_bytes, opt.bfs.memory_budget_bytes + slack);
}

// --- online server -----------------------------------------------------------------

TEST(OnlineServerTest, ConcurrentQueriesAllComplete) {
  Graph data = Rmat(9, 6, 13);
  OnlineQueryServer server(&data, 4);
  std::vector<std::future<OnlineQueryServer::QueryOutcome>> futures;
  futures.push_back(server.Submit(TrianglePattern()));
  futures.push_back(server.Submit(CyclePattern(4)));
  futures.push_back(server.Submit(PathPattern(3)));
  futures.push_back(server.Submit(StarPattern(3)));
  server.Drain();
  EXPECT_EQ(server.queries_completed(), 4u);
  MatchResult tri_ref = SubgraphMatch(data, TrianglePattern());
  EXPECT_EQ(futures[0].get().stats.matches, tri_ref.stats.matches);
  for (size_t i = 1; i < futures.size(); ++i) {
    OnlineQueryServer::QueryOutcome outcome = futures[i].get();
    EXPECT_GT(outcome.latency_seconds, 0.0);
  }
}

TEST(OnlineServerTest, ManySmallQueriesThroughput) {
  Graph data = ErdosRenyi(200, 0.05, 7);
  OnlineQueryServer server(&data, 8);
  std::vector<std::future<OnlineQueryServer::QueryOutcome>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.Submit(TrianglePattern()));
  }
  server.Drain();
  EXPECT_EQ(server.queries_completed(), 32u);
  const uint64_t expect = futures[0].get().stats.matches;
  for (size_t i = 1; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().stats.matches, expect);
  }
}

}  // namespace
}  // namespace gal
