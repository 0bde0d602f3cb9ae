#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "gen/generators.h"
#include "gen/paper_tables.h"
#include "metric/metric.h"
#include "quality/dedup.h"
#include "quality/similarity_facets.h"

namespace famtree {
namespace {

TEST(MdMatcherTest, ClustersExactDuplicates) {
  HeterogeneousConfig config;
  config.num_entities = 40;
  config.max_duplicates = 3;
  config.variation_rate = 0.0;
  config.typo_rate = 0.0;
  config.seed = 2;
  GeneratedData data = GenerateHeterogeneous(config);
  // name~0 and street~0 identify entities exactly.
  Md md({SimilarityPredicate{1, GetEditDistanceMetric(), 0},
         SimilarityPredicate{2, GetEditDistanceMetric(), 0}},
        AttrSet::Single(4));
  MdMatcher matcher({md});
  auto match = matcher.Match(data.relation);
  ASSERT_TRUE(match.ok());
  ClusterScore score = ScoreClusters(match->cluster_ids, data.entity_ids);
  EXPECT_DOUBLE_EQ(score.pairwise_recall, 1.0);
  EXPECT_GT(score.pairwise_precision, 0.95);
}

TEST(MdMatcherTest, SimilarityToleratesFormatVariation) {
  HeterogeneousConfig config;
  config.num_entities = 40;
  config.max_duplicates = 3;
  config.variation_rate = 0.8;  // heavy reformatting
  config.typo_rate = 0.0;
  config.seed = 3;
  GeneratedData data = GenerateHeterogeneous(config);
  // Exact matching misses variants; similarity matching recovers them.
  Md exact({SimilarityPredicate{2, GetEditDistanceMetric(), 0},
            SimilarityPredicate{3, GetEditDistanceMetric(), 0}},
           AttrSet::Single(4));
  // Thresholds sized to the generator's format variants: " Hotel" drop
  // costs 6, " Street" -> " St." costs 4, ", ST" suffix costs 4.
  Md fuzzy({SimilarityPredicate{1, GetEditDistanceMetric(), 6},
            SimilarityPredicate{2, GetEditDistanceMetric(), 4},
            SimilarityPredicate{3, GetEditDistanceMetric(), 4}},
           AttrSet::Single(4));
  auto exact_match = MdMatcher({exact}).Match(data.relation);
  auto fuzzy_match = MdMatcher({fuzzy}).Match(data.relation);
  ASSERT_TRUE(exact_match.ok());
  ASSERT_TRUE(fuzzy_match.ok());
  ClusterScore es = ScoreClusters(exact_match->cluster_ids, data.entity_ids);
  ClusterScore fs = ScoreClusters(fuzzy_match->cluster_ids, data.entity_ids);
  EXPECT_GT(fs.pairwise_recall, es.pairwise_recall);
  EXPECT_GT(fs.f1, es.f1);
}

TEST(MdMatcherTest, ApplyNormalizesRhs) {
  Relation r6 = paper::R6();
  // t2/t5/t6 share street-similar San Jose rows with equal zips already;
  // corrupt one zip and let Apply restore the plurality.
  r6.Set(5, paper::R6Attrs::kZip, Value(99999));
  Md md({SimilarityPredicate{paper::R6Attrs::kStreet,
                             GetEditDistanceMetric(), 5},
         SimilarityPredicate{paper::R6Attrs::kRegion,
                             GetEditDistanceMetric(), 2}},
        AttrSet::Single(paper::R6Attrs::kZip));
  MdMatcher matcher({md});
  auto match = matcher.Match(r6);
  ASSERT_TRUE(match.ok());
  auto applied = matcher.Apply(r6, *match);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->Get(5, paper::R6Attrs::kZip), Value(95102));
}

TEST(MdMatcherTest, ApplyRejectsMismatchedResult) {
  Relation r6 = paper::R6();
  Md md({SimilarityPredicate{1, GetEditDistanceMetric(), 0}},
        AttrSet::Single(5));
  MdMatcher matcher({md});
  MatchResult wrong;
  wrong.cluster_ids = {0, 1};  // wrong size
  EXPECT_FALSE(matcher.Apply(r6, wrong).ok());
}

TEST(ClusterScoreTest, PerfectAndDegenerate) {
  ClusterScore perfect = ScoreClusters({0, 0, 1, 1}, {5, 5, 9, 9});
  EXPECT_DOUBLE_EQ(perfect.pairwise_precision, 1.0);
  EXPECT_DOUBLE_EQ(perfect.pairwise_recall, 1.0);
  EXPECT_DOUBLE_EQ(perfect.f1, 1.0);
  ClusterScore lumped = ScoreClusters({0, 0, 0, 0}, {5, 5, 9, 9});
  EXPECT_DOUBLE_EQ(lumped.pairwise_recall, 1.0);
  EXPECT_LT(lumped.pairwise_precision, 1.0);
  ClusterScore shattered = ScoreClusters({0, 1, 2, 3}, {5, 5, 9, 9});
  EXPECT_DOUBLE_EQ(shattered.pairwise_precision, 1.0);  // no predictions
  EXPECT_DOUBLE_EQ(shattered.pairwise_recall, 0.0);
}

TEST(MdMatcherTest, TransitiveClosure) {
  // a ~ b and b ~ c but a !~ c: union-find still puts all three together.
  RelationBuilder b({"s", "id"});
  b.AddRow({Value("aaaa"), Value(1)});
  b.AddRow({Value("aaab"), Value(2)});
  b.AddRow({Value("aabb"), Value(3)});
  Relation r = std::move(b.Build()).value();
  Md md({SimilarityPredicate{0, GetEditDistanceMetric(), 1}},
        AttrSet::Single(1));
  auto match = MdMatcher({md}).Match(r);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->num_clusters, 1);
}

TEST(MdMatcherTest, NanThresholdRulesMatchNothing) {
  // `d <= NaN` never holds, so a matcher whose every rule has a NaN
  // threshold leaves each row in its own cluster on both overloads.
  RelationBuilder b({"s", "id"});
  b.AddRow({Value("aaaa"), Value(1)});
  b.AddRow({Value("aaaa"), Value(2)});
  b.AddRow({Value("aaab"), Value(3)});
  Relation r = std::move(b.Build()).value();
  MdMatcher matcher({Md({SimilarityPredicate{0, GetEditDistanceMetric(),
                                             std::nan("")}},
                        AttrSet::Single(1))});
  auto plain = matcher.Match(r);
  auto kernel = matcher.Match(r, QualityOptions{});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(kernel.ok());
  EXPECT_EQ(plain->num_clusters, 3);
  EXPECT_EQ(kernel->cluster_ids, plain->cluster_ids);
  EXPECT_EQ(kernel->matched_pairs, 0);
}

TEST(SimilarityFacetsTest, OneFacetPerAttrAndMetricWithSortedThresholds) {
  MetricPtr edit = GetEditDistanceMetric();
  MetricPtr own = std::make_shared<EditDistanceMetric>();
  SimilarityFacets facets;
  facets.Add({{0, edit, 3}, {1, edit, 0}});
  facets.Add({{0, edit, 1}, {0, own, 2}});
  facets.Add({{0, edit, 3}, {1, edit, -0.0}});
  ASSERT_EQ(facets.columns().size(), 3u);
  EXPECT_EQ(facets.columns()[0].thresholds, (std::vector<double>{1, 3}));
  EXPECT_EQ(facets.columns()[1].thresholds, (std::vector<double>{0}));
  EXPECT_EQ(facets.columns()[2].thresholds, (std::vector<double>{2}));
  EXPECT_EQ(facets.FacetOf({0, own, 9}), 2);
  EXPECT_EQ(facets.FacetOf({2, edit, 0}), -1);
  // Past the byte-wide bucket memo's 254 thresholds a facet still takes
  // every threshold, once.
  for (int t = 0; t <= 254; ++t) {
    facets.Add({{1, edit, static_cast<double>(t)}});
  }
  EXPECT_EQ(facets.columns()[1].thresholds.size(), 255u);
}

}  // namespace
}  // namespace famtree
