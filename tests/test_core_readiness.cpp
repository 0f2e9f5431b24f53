// Tests for the readiness framework: Table 2's maturity matrix and the
// rule-based assessor.
#include <gtest/gtest.h>

#include "core/readiness.hpp"

namespace drai::core {
namespace {

/// A state that satisfies everything up to and including `level`.
DatasetState StateAtLevel(ReadinessLevel level) {
  DatasetState s;
  const auto at_least = [&](ReadinessLevel l) {
    return static_cast<int>(level) >= static_cast<int>(l);
  };
  s.acquired = at_least(ReadinessLevel::kRaw);
  s.validated_standard_format = at_least(ReadinessLevel::kCleaned);
  s.initial_alignment = at_least(ReadinessLevel::kCleaned);
  s.metadata_enriched = at_least(ReadinessLevel::kLabeled);
  s.grids_standardized = at_least(ReadinessLevel::kLabeled);
  s.basic_normalization = at_least(ReadinessLevel::kLabeled);
  s.basic_labels = at_least(ReadinessLevel::kLabeled);
  s.label_fraction = at_least(ReadinessLevel::kLabeled) ? 1.0 : 0.0;
  s.high_throughput_ingest = at_least(ReadinessLevel::kFeatureEngineered);
  s.alignment_fully_standardized =
      at_least(ReadinessLevel::kFeatureEngineered);
  s.normalization_finalized = at_least(ReadinessLevel::kFeatureEngineered);
  s.comprehensive_labels = at_least(ReadinessLevel::kFeatureEngineered);
  s.features_extracted = at_least(ReadinessLevel::kFeatureEngineered);
  s.ingest_automated = at_least(ReadinessLevel::kAiReady);
  s.alignment_automated = at_least(ReadinessLevel::kAiReady);
  s.transform_automated_audited = at_least(ReadinessLevel::kAiReady);
  s.features_validated = at_least(ReadinessLevel::kAiReady);
  s.split_and_sharded = at_least(ReadinessLevel::kAiReady);
  return s;
}

// ---- matrix cells -------------------------------------------------------

TEST(MaturityMatrix, GreyCellsMatchTable2) {
  // Table 2's N/A pattern: at level L, stages with index > L-1 are grey.
  EXPECT_TRUE(MatrixCell(ReadinessLevel::kRaw, StageKind::kIngest).has_value());
  EXPECT_FALSE(
      MatrixCell(ReadinessLevel::kRaw, StageKind::kPreprocess).has_value());
  EXPECT_FALSE(MatrixCell(ReadinessLevel::kRaw, StageKind::kShard).has_value());
  EXPECT_TRUE(
      MatrixCell(ReadinessLevel::kCleaned, StageKind::kPreprocess).has_value());
  EXPECT_FALSE(
      MatrixCell(ReadinessLevel::kCleaned, StageKind::kTransform).has_value());
  EXPECT_TRUE(
      MatrixCell(ReadinessLevel::kLabeled, StageKind::kTransform).has_value());
  EXPECT_FALSE(
      MatrixCell(ReadinessLevel::kLabeled, StageKind::kStructure).has_value());
  EXPECT_TRUE(MatrixCell(ReadinessLevel::kFeatureEngineered,
                         StageKind::kStructure)
                  .has_value());
  EXPECT_FALSE(
      MatrixCell(ReadinessLevel::kFeatureEngineered, StageKind::kShard)
          .has_value());
  // Level 5 populates every column.
  for (StageKind stage : kAllStageKinds) {
    EXPECT_TRUE(MatrixCell(ReadinessLevel::kAiReady, stage).has_value());
  }
}

TEST(MaturityMatrix, GreyCellsAlwaysSatisfied) {
  const DatasetState empty;
  EXPECT_TRUE(CellSatisfied(empty, ReadinessLevel::kRaw, StageKind::kShard));
  EXPECT_FALSE(CellSatisfied(empty, ReadinessLevel::kRaw, StageKind::kIngest));
}

// ---- assessor ladder ------------------------------------------------------

class ReadinessLadder : public ::testing::TestWithParam<ReadinessLevel> {};

TEST_P(ReadinessLadder, StateAtLevelAssessesToThatLevel) {
  const ReadinessLevel level = GetParam();
  const ReadinessAssessment a = Assess(StateAtLevel(level));
  EXPECT_EQ(a.overall, level);
  if (level != ReadinessLevel::kAiReady) {
    EXPECT_FALSE(a.blocking.empty());
  } else {
    EXPECT_TRUE(a.blocking.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, ReadinessLadder,
                         ::testing::ValuesIn(kAllReadinessLevels));

TEST(Assess, QualityGateDemotesCleaned) {
  // All the level-2 work ran, but 40% of samples are missing: not cleaned.
  DatasetState s = StateAtLevel(ReadinessLevel::kCleaned);
  s.missing_fraction = 0.4;
  EXPECT_EQ(Assess(s).overall, ReadinessLevel::kRaw);
  s.missing_fraction = 0.1;
  EXPECT_EQ(Assess(s).overall, ReadinessLevel::kCleaned);
}

TEST(Assess, LabelFractionGates) {
  DatasetState s = StateAtLevel(ReadinessLevel::kFeatureEngineered);
  s.label_fraction = 0.5;  // comprehensive labeling requires >= 0.95
  EXPECT_EQ(Assess(s).overall, ReadinessLevel::kLabeled);
  s.label_fraction = 0.0;  // basic labels require > 0
  EXPECT_EQ(Assess(s).overall, ReadinessLevel::kCleaned);
}

TEST(Assess, MissingAnonymizationBlocksLabeledForPhiData) {
  DatasetState s = StateAtLevel(ReadinessLevel::kLabeled);
  s.anonymization_done = false;  // PHI present, not de-identified
  EXPECT_EQ(Assess(s).overall, ReadinessLevel::kCleaned);
}

TEST(Assess, PerStageLevelsIndependent) {
  // Shard done early; transform lagging.
  DatasetState s = StateAtLevel(ReadinessLevel::kLabeled);
  s.split_and_sharded = true;
  const ReadinessAssessment a = Assess(s);
  // shard column: its only cell (L5) is satisfied -> per-stage 5.
  EXPECT_EQ(a.per_stage[4], ReadinessLevel::kAiReady);
  // transform column: satisfied through L3 only.
  EXPECT_EQ(a.per_stage[2], ReadinessLevel::kLabeled);
  // Overall remains gated by the weakest cells.
  EXPECT_EQ(a.overall, ReadinessLevel::kLabeled);
}

TEST(Assess, BlockingListsNameTheGaps) {
  DatasetState s = StateAtLevel(ReadinessLevel::kFeatureEngineered);
  const ReadinessAssessment a = Assess(s);
  ASSERT_FALSE(a.blocking.empty());
  // Every blocker is a level-5 cell.
  for (const std::string& b : a.blocking) {
    EXPECT_NE(b.find("5-fully-AI-ready"), std::string::npos) << b;
  }
}

// ---- rendering ----------------------------------------------------------------

TEST(RenderMatrix, ShowsChecksAndGaps) {
  const std::string rendered =
      RenderMaturityMatrix(StateAtLevel(ReadinessLevel::kLabeled));
  EXPECT_NE(rendered.find("[x]"), std::string::npos);
  EXPECT_NE(rendered.find("[ ]"), std::string::npos);
  EXPECT_NE(rendered.find("(n/a)"), std::string::npos);
  EXPECT_NE(rendered.find("3-labeled"), std::string::npos);
  const std::string plain = RenderMaturityMatrix();
  EXPECT_NE(plain.find("req"), std::string::npos);
}

TEST(ReadinessLevelName, Names) {
  EXPECT_EQ(ReadinessLevelName(ReadinessLevel::kRaw), "1-raw");
  EXPECT_EQ(ReadinessLevelName(ReadinessLevel::kAiReady), "5-fully-AI-ready");
  EXPECT_EQ(StageKindName(StageKind::kShard), "shard");
}

// ---- the full 5x5 grid --------------------------------------------------------

TEST(MaturityMatrix, FullGridGreyPatternIsLowerTriangular) {
  // Table 2's exact shape: cell (L, stage) carries a requirement iff the
  // stage's column index does not exceed L-1 (level L unlocks one more
  // stage of the canonical pipeline).
  for (ReadinessLevel level : kAllReadinessLevels) {
    const int l = static_cast<int>(level);
    for (StageKind stage : kAllStageKinds) {
      const int s = static_cast<int>(stage);
      EXPECT_EQ(MatrixCell(level, stage).has_value(), s <= l - 1)
          << ReadinessLevelName(level) << "/" << StageKindName(stage);
    }
  }
}

TEST(MaturityMatrix, FullGridSatisfiedExactlyAboveStateLevel) {
  // For every ladder state, sweep all 25 cells: a cell is satisfied iff it
  // is grey or its row is at or below the state's level. This pins the
  // assessor's cell predicate to the matrix, cell by cell.
  for (ReadinessLevel at : kAllReadinessLevels) {
    const DatasetState state = StateAtLevel(at);
    for (ReadinessLevel level : kAllReadinessLevels) {
      for (StageKind stage : kAllStageKinds) {
        const bool grey = !MatrixCell(level, stage).has_value();
        const bool expect =
            grey || static_cast<int>(level) <= static_cast<int>(at);
        EXPECT_EQ(CellSatisfied(state, level, stage), expect)
            << "state@" << ReadinessLevelName(at) << " cell "
            << ReadinessLevelName(level) << "/" << StageKindName(stage);
      }
    }
  }
}

TEST(MaturityMatrix, EveryRequirementCellHasNonEmptyText) {
  for (ReadinessLevel level : kAllReadinessLevels) {
    for (StageKind stage : kAllStageKinds) {
      const auto cell = MatrixCell(level, stage);
      if (cell.has_value()) {
        EXPECT_FALSE(cell->empty());
      }
    }
  }
}

// ---- edge cases ---------------------------------------------------------------

TEST(Assess, EmptyStateIsNotEvenRaw) {
  // Nothing acquired: the L1 ingest cell is unsatisfied, so the assessor
  // reports level 1 as the floor with the acquisition gap blocking.
  const DatasetState empty;
  const ReadinessAssessment a = Assess(empty);
  EXPECT_EQ(a.overall, ReadinessLevel::kRaw);
  ASSERT_FALSE(a.blocking.empty());
  bool names_ingest = false;
  for (const std::string& b : a.blocking) {
    names_ingest = names_ingest || b.find("ingest") != std::string::npos;
  }
  EXPECT_TRUE(names_ingest);
}

TEST(Assess, FullySatisfiedStateHasNoBlockers) {
  const ReadinessAssessment a = Assess(StateAtLevel(ReadinessLevel::kAiReady));
  EXPECT_EQ(a.overall, ReadinessLevel::kAiReady);
  EXPECT_TRUE(a.blocking.empty());
  for (const ReadinessLevel per_stage : a.per_stage) {
    EXPECT_EQ(per_stage, ReadinessLevel::kAiReady);
  }
}

TEST(Assess, SingleStageProgressNeverLiftsOverall) {
  // Only ingest work done, through L5: overall is still gated at L1 by the
  // other columns, while the ingest column reports its own level.
  DatasetState s;
  s.acquired = true;
  s.validated_standard_format = true;
  s.metadata_enriched = true;
  s.high_throughput_ingest = true;
  s.ingest_automated = true;
  const ReadinessAssessment a = Assess(s);
  EXPECT_EQ(a.overall, ReadinessLevel::kRaw);
  EXPECT_EQ(a.per_stage[0], ReadinessLevel::kAiReady);
}

TEST(Assess, BoundaryQualityGatesAreInclusive) {
  DatasetState s = StateAtLevel(ReadinessLevel::kCleaned);
  s.missing_fraction = 0.25;  // exactly at the documented floor
  EXPECT_EQ(Assess(s).overall, ReadinessLevel::kCleaned);
  DatasetState l4 = StateAtLevel(ReadinessLevel::kFeatureEngineered);
  l4.label_fraction = 0.95;  // exactly "comprehensive"
  EXPECT_EQ(Assess(l4).overall, ReadinessLevel::kFeatureEngineered);
}

}  // namespace
}  // namespace drai::core
