// Tests for drai/stats: Welford accumulators, quantile estimators,
// normalizers, and imbalance metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "ndarray/kernels.hpp"
#include "stats/imbalance.hpp"
#include "stats/normalizer.hpp"
#include "stats/quantile.hpp"
#include "stats/running.hpp"

#include "largest_new.hpp"

namespace drai::stats {
namespace {

double NaiveMean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double NaiveVariance(const std::vector<double>& v) {
  const double m = NaiveMean(v);
  double s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

// ---- RunningStats -----------------------------------------------------------

TEST(RunningStats, MatchesNaiveTwoPass) {
  Rng rng(1);
  std::vector<double> data;
  RunningStats rs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Normal(10, 3);
    data.push_back(x);
    rs.Add(x);
  }
  EXPECT_NEAR(rs.mean(), NaiveMean(data), 1e-9);
  EXPECT_NEAR(rs.variance(), NaiveVariance(data), 1e-6);
  EXPECT_EQ(rs.count(), 5000u);
  EXPECT_EQ(rs.min(), *std::min_element(data.begin(), data.end()));
  EXPECT_EQ(rs.max(), *std::max_element(data.begin(), data.end()));
}

TEST(RunningStats, NaNsExcludedButCounted) {
  RunningStats rs;
  rs.Add(1.0);
  rs.Add(std::numeric_limits<double>::quiet_NaN());
  rs.Add(3.0);
  EXPECT_EQ(rs.count(), 2u);
  EXPECT_EQ(rs.nan_count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.0);
}

class WelfordMergeProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(WelfordMergeProperty, MergeEqualsSerial) {
  // Split a stream at an arbitrary point, accumulate separately, merge —
  // must match single-stream accumulation (the MPI reduction property).
  Rng rng(GetParam());
  std::vector<double> data;
  for (int i = 0; i < 2000; ++i) data.push_back(rng.Uniform(-5, 50));
  const size_t cut = GetParam() % data.size();

  RunningStats serial, a, b;
  for (double x : data) serial.Add(x);
  for (size_t i = 0; i < cut; ++i) a.Add(data[i]);
  for (size_t i = cut; i < data.size(); ++i) b.Add(data[i]);
  a.Merge(b);
  EXPECT_EQ(a.count(), serial.count());
  EXPECT_NEAR(a.mean(), serial.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), serial.variance(), 1e-8);
  EXPECT_EQ(a.min(), serial.min());
  EXPECT_EQ(a.max(), serial.max());
}

INSTANTIATE_TEST_SUITE_P(Cuts, WelfordMergeProperty,
                         ::testing::Values(0, 1, 2, 17, 500, 1000, 1999));

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(5.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(RunningStats, SerializeRoundTrip) {
  RunningStats rs;
  for (int i = 0; i < 100; ++i) rs.Add(i * 0.5);
  ByteWriter w;
  rs.Serialize(w);
  const Bytes buf = w.Take();
  ByteReader r(buf);
  const auto back = RunningStats::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->count(), rs.count());
  EXPECT_DOUBLE_EQ(back->mean(), rs.mean());
  EXPECT_DOUBLE_EQ(back->variance(), rs.variance());
}

Bytes SerializedStats(const RunningStats& rs) {
  ByteWriter w;
  rs.Serialize(w);
  return w.Take();
}

TEST(RunningStats, AddInterleavedMatchesAddPerValue) {
  // 1-17 accumulators (past two groups of eight lanes) over streams of
  // unequal length (some empty), strided or not, with NaN cells, starting
  // from non-empty states: every accumulator ends bit-identical to Add
  // over its own stream.
  Rng rng(5);
  std::vector<double> pool(4000);
  for (double& x : pool) {
    x = rng.Bernoulli(0.05) ? std::numeric_limits<double>::quiet_NaN()
                            : rng.Normal(20, 7);
  }
  for (size_t lanes = 1; lanes <= 17; ++lanes) {
    std::vector<RunningStats> got(lanes), want(lanes);
    std::vector<RunningStats*> ptrs;
    std::vector<ValueStream> streams;
    for (size_t k = 0; k < lanes; ++k) {
      const double seed_value = static_cast<double>(k) - 3.5;
      got[k].Add(seed_value);
      want[k].Add(seed_value);
      // Empty lanes (k = 1, 5) and equal lengths (k = 2, 3 and 6, 7).
      const size_t n = k % 4 == 1 ? 0 : (k / 2 * 37 + lanes * 11) % 300;
      const size_t stride = 1 + k % 3;
      streams.push_back({pool.data() + k * 7, n, stride});
      ptrs.push_back(&got[k]);
      for (size_t i = 0; i < n; ++i) want[k].Add(pool[k * 7 + i * stride]);
    }
    RunningStats::AddInterleaved(ptrs, streams);
    for (size_t k = 0; k < lanes; ++k) {
      EXPECT_EQ(SerializedStats(got[k]), SerializedStats(want[k]))
          << lanes << " lanes, lane " << k;
    }
  }
  RunningStats one;
  RunningStats* ptrs[] = {&one};
  const ValueStream streams[2] = {};
  EXPECT_THROW(RunningStats::AddInterleaved(ptrs, streams),
               std::invalid_argument);
}

// ---- quantiles ----------------------------------------------------------------

class P2Property : public ::testing::TestWithParam<double> {};

TEST_P(P2Property, TracksExactQuantileOnNormalData) {
  const double q = GetParam();
  Rng rng(42);
  P2Quantile est(q);
  std::vector<double> data;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Normal(0, 1);
    est.Add(x);
    data.push_back(x);
  }
  const double exact = ExactQuantile(data, q);
  EXPECT_NEAR(est.Value(), exact, 0.05) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2Property,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.99));

TEST(P2Quantile, ExactForTinySamples) {
  P2Quantile med(0.5);
  med.Add(3);
  med.Add(1);
  med.Add(2);
  EXPECT_DOUBLE_EQ(med.Value(), 2.0);
}

TEST(P2Quantile, RejectsBadQ) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(ExactQuantile, Interpolates) {
  EXPECT_DOUBLE_EQ(ExactQuantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(ExactQuantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({1, 2, 3, 4}, 1.0), 4.0);
}

TEST(Histogram, CountsAndQuantile) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 100; ++i) h.Add(i % 10 + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.counts()[3], 10u);
  EXPECT_NEAR(h.Quantile(0.5), 5.0, 1.0);
  h.Add(-5);
  h.Add(100);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, BinCenter) {
  Histogram h(0, 1, 4);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 0.125);
  EXPECT_THROW((void)h.BinCenter(4), std::out_of_range);
}

// ---- normalizer -------------------------------------------------------------

class NormKindParam : public ::testing::TestWithParam<NormKind> {};

TEST_P(NormKindParam, InvertsApply) {
  Rng rng(9);
  Normalizer norm(GetParam(), 2);
  std::vector<double> data0, data1;
  for (int i = 0; i < 3000; ++i) {
    const double a = std::fabs(rng.Normal(100, 20)) + 1;
    const double b = rng.Uniform(-3, 7);
    norm.Observe(0, a);
    norm.Observe(1, b);
    data0.push_back(a);
    data1.push_back(b);
  }
  norm.Fit();
  for (int i = 0; i < 50; ++i) {
    const double x = data0[static_cast<size_t>(i * 17)];
    EXPECT_NEAR(norm.Invert(0, norm.Apply(0, x)), x,
                1e-6 * std::max(1.0, std::fabs(x)));
  }
}

TEST_P(NormKindParam, NormalizedDataIsCentered) {
  Rng rng(10);
  Normalizer norm(GetParam(), 1);
  std::vector<double> data;
  for (int i = 0; i < 5000; ++i) {
    const double x = std::fabs(rng.Normal(50, 10)) + 1;
    norm.Observe(0, x);
    data.push_back(x);
  }
  norm.Fit();
  double sum = 0, mn = 1e300, mx = -1e300;
  for (double x : data) {
    const double y = norm.Apply(0, x);
    sum += y;
    mn = std::min(mn, y);
    mx = std::max(mx, y);
  }
  const double mean = sum / static_cast<double>(data.size());
  switch (GetParam()) {
    case NormKind::kZScore:
    case NormKind::kLog1pZ:
      EXPECT_NEAR(mean, 0.0, 0.05);
      break;
    case NormKind::kMinMax:
      EXPECT_GE(mn, -1e-12);
      EXPECT_LE(mx, 1.0 + 1e-12);
      break;
    case NormKind::kRobust:
      EXPECT_NEAR(mean, 0.0, 0.3);  // robust centering is approximate
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, NormKindParam,
                         ::testing::Values(NormKind::kZScore, NormKind::kMinMax,
                                           NormKind::kRobust,
                                           NormKind::kLog1pZ));

TEST(Normalizer, ZScoreExactStatistics) {
  Normalizer norm(NormKind::kZScore, 1);
  for (double x : {2.0, 4.0, 6.0}) norm.Observe(0, x);
  norm.Fit();
  EXPECT_DOUBLE_EQ(norm.Center(0), 4.0);
  EXPECT_NEAR(norm.Scale(0), std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_NEAR(norm.Apply(0, 4.0), 0.0, 1e-12);
}

TEST(Normalizer, ConstantFeatureDoesNotDivideByZero) {
  Normalizer norm(NormKind::kZScore, 1);
  for (int i = 0; i < 10; ++i) norm.Observe(0, 7.0);
  norm.Fit();
  EXPECT_DOUBLE_EQ(norm.Apply(0, 7.0), 0.0);
  EXPECT_TRUE(std::isfinite(norm.Apply(0, 8.0)));
}

TEST(Normalizer, MergePartialFitsEqualsSerial) {
  Rng rng(11);
  std::vector<double> data;
  for (int i = 0; i < 4000; ++i) data.push_back(rng.Uniform(0, 9));

  Normalizer serial(NormKind::kZScore, 1);
  for (double x : data) serial.Observe(0, x);
  serial.Fit();

  Normalizer a(NormKind::kZScore, 1), b(NormKind::kZScore, 1);
  for (size_t i = 0; i < data.size() / 2; ++i) a.Observe(0, data[i]);
  for (size_t i = data.size() / 2; i < data.size(); ++i) b.Observe(0, data[i]);
  a.Merge(b);
  a.Fit();
  EXPECT_NEAR(a.Center(0), serial.Center(0), 1e-10);
  EXPECT_NEAR(a.Scale(0), serial.Scale(0), 1e-10);
}

TEST(Normalizer, RobustMergeRejected) {
  Normalizer a(NormKind::kRobust, 1), b(NormKind::kRobust, 1);
  EXPECT_THROW(a.Merge(b), std::logic_error);
}

TEST(Normalizer, ApplyMatrixNormalizesColumns) {
  NDArray m = NDArray::FromVector<double>({3, 2}, {0, 10, 1, 20, 2, 30});
  Normalizer norm(NormKind::kMinMax, 2);
  norm.ObserveMatrix(m);
  norm.Fit();
  norm.ApplyMatrix(m);
  EXPECT_DOUBLE_EQ(m.GetAsDouble(0), 0.0);   // col0 min
  EXPECT_DOUBLE_EQ(m.GetAsDouble(4), 1.0);   // col0 max
  EXPECT_DOUBLE_EQ(m.GetAsDouble(3), 0.5);   // col1 middle
}

TEST(Normalizer, SerializeRoundTrip) {
  Normalizer norm(NormKind::kZScore, 3);
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    for (size_t f = 0; f < 3; ++f) norm.Observe(f, rng.Normal(f * 10.0, 2));
  }
  norm.Fit();
  ByteWriter w;
  norm.Serialize(w);
  const Bytes buf = w.Take();
  ByteReader r(buf);
  const auto back = Normalizer::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->n_features(), 3u);
  for (size_t f = 0; f < 3; ++f) {
    EXPECT_DOUBLE_EQ(back->Center(f), norm.Center(f));
    EXPECT_DOUBLE_EQ(back->Scale(f), norm.Scale(f));
  }
}

TEST(Normalizer, FeatureCountBeyondThePayloadIsDataLoss) {
  // Both parsers, claiming 2^20 or 2^32 features over no real ones, or
  // 2^20 over 1024 real features that end early.
  struct Case {
    uint64_t claim;
    size_t real;
  };
  for (const bool fitted : {false, true}) {
    for (const Case c : {Case{uint64_t{1} << 20, 0}, Case{uint64_t{1} << 32, 0},
                         Case{uint64_t{1} << 20, 1024}}) {
      ByteWriter w;
      w.PutU8(static_cast<uint8_t>(NormKind::kZScore));
      w.PutVarU64(c.claim);
      for (size_t i = 0; i < c.real; ++i) {
        if (fitted) {
          w.PutF64(0.0);  // center
          w.PutF64(1.0);  // scale
        }
        RunningStats{}.Serialize(w);
      }
      const Bytes bytes = w.Take();

      g_largest_new = 0;
      StatusCode code = StatusCode::kOk;
      EXPECT_NO_THROW({
        ByteReader r(bytes);
        code = (fitted ? Normalizer::Deserialize(r)
                       : Normalizer::DeserializeObservations(r))
                   .status()
                   .code();
      }) << fitted << " " << c.claim << " " << c.real;
      EXPECT_EQ(code, StatusCode::kDataLoss)
          << fitted << " " << c.claim << " " << c.real;
      EXPECT_LE(g_largest_new.load(), 32 * bytes.size() + (size_t{64} << 10))
          << fitted << " " << c.claim << " " << c.real;
    }
  }
}

TEST(Normalizer, LifecycleErrors) {
  Normalizer norm(NormKind::kZScore, 1);
  NDArray one = NDArray::FromVector<double>({1, 1}, {1.0});
  const Normalizer::FeatureArray bad_index[] = {{0, &one}, {1, &one}};
  const Normalizer::FeatureArray good[] = {{0, &one}};
  EXPECT_THROW((void)norm.Apply(0, 1.0), std::logic_error);  // apply before fit
  EXPECT_THROW(norm.ApplyAll(one), std::logic_error);
  EXPECT_THROW(norm.ApplyMatrix(one), std::logic_error);
  EXPECT_THROW(norm.ObserveBatch(bad_index), std::out_of_range);
  norm.Observe(0, 1.0);
  norm.Fit();
  EXPECT_THROW(norm.Observe(0, 2.0), std::logic_error);  // observe after fit
  EXPECT_THROW(norm.ObserveBatch(good), std::logic_error);
  EXPECT_THROW(norm.ObserveMatrix(one), std::logic_error);
  EXPECT_THROW((void)norm.Apply(1, 1.0), std::out_of_range);
  EXPECT_THROW(norm.ApplyAll(one, 1), std::out_of_range);
}

// ---- batch observe and hoisted apply: bit-exact against per-element ------

constexpr NormKind kAllKinds[] = {NormKind::kZScore, NormKind::kMinMax,
                                  NormKind::kRobust, NormKind::kLog1pZ};

/// `rows` x `cols` of positive values (log1p-friendly) with ~5% NaN.
NDArray RandomValues(size_t rows, size_t cols, DType dtype, uint64_t seed) {
  Rng rng(seed);
  NDArray a = NDArray::Zeros({rows, cols}, dtype);
  for (size_t i = 0; i < a.numel(); ++i) {
    a.SetFromDouble(i, rng.Bernoulli(0.05)
                           ? std::numeric_limits<double>::quiet_NaN()
                           : std::fabs(rng.Normal(30, 12)));
  }
  return a;
}

/// The normalizer's bytes: its observations (mergeable kinds) and, after
/// Fit, its fitted statistics, which for kRobust carry the P2 estimates.
std::vector<Bytes> StateBytes(Normalizer norm) {
  std::vector<Bytes> out;
  if (norm.kind() != NormKind::kRobust) {
    ByteWriter w;
    EXPECT_TRUE(norm.SerializeObservations(w).ok());
    out.push_back(w.Take());
  }
  norm.Fit();
  ByteWriter w;
  norm.Serialize(w);
  out.push_back(w.Take());
  return out;
}

void ObservePerElement(Normalizer& norm, size_t feature, const NDArray& a) {
  for (size_t i = 0; i < a.numel(); ++i) {
    norm.Observe(feature, a.GetAsDouble(i));
  }
}

/// The elements' bytes in row-major order (views are gathered first).
std::vector<std::byte> BytesOf(const NDArray& a) {
  const NDArray dense = a.AsContiguous();
  const auto b = dense.raw_bytes();
  return {b.begin(), b.end()};
}

TEST(Normalizer, ObserveBatchMatchesObservePerElement) {
  // 2nf + 1 arrays for nf = 1-9 features, array i naming feature 5i mod nf,
  // so features repeat within a call (at nf = 5 all eleven name feature
  // 0) and at nf = 9 one round holds more features than a lane group.
  // Unequal lengths (some empty), f64, f32 and transposed views, NaN
  // cells.
  for (const NormKind kind : kAllKinds) {
    for (size_t nf = 1; nf <= 9; ++nf) {
      std::vector<NDArray> arrays;
      std::vector<size_t> features;
      for (size_t i = 0; i < 2 * nf + 1; ++i) {
        const size_t f = (i * 5) % nf;
        const size_t rows = i % 7 == 3 ? 0 : 10 + (i * 13) % 40;
        const DType dt = i % 3 == 1 ? DType::kF32 : DType::kF64;
        NDArray a = RandomValues(rows, 3, dt, 100 * nf + i);
        if (i % 4 == 2) a = a.Transpose();
        arrays.push_back(std::move(a));
        features.push_back(f);
      }
      Normalizer batch(kind, nf), serial(kind, nf);
      std::vector<Normalizer::FeatureArray> calls;
      for (size_t i = 0; i < arrays.size(); ++i) {
        calls.push_back({features[i], &arrays[i]});
        ObservePerElement(serial, features[i], arrays[i]);
      }
      batch.ObserveBatch(calls);
      EXPECT_EQ(StateBytes(batch), StateBytes(serial))
          << NormKindName(kind) << " " << nf << " features";
    }
  }
}

TEST(Normalizer, ObserveMatrixMatchesObservePerElement) {
  // Strided column streams (1-9 columns, past one lane group) over dense
  // f64, f32 and a transposed view.
  for (const NormKind kind : kAllKinds) {
    for (size_t cols = 1; cols <= 9; ++cols) {
      const NDArray dense = RandomValues(57, cols, DType::kF64, 200 + cols);
      const NDArray narrow = RandomValues(31, cols, DType::kF32, 300 + cols);
      const NDArray view = RandomValues(cols, 23, DType::kF64, 400 + cols)
                               .Transpose();  // [23, cols]
      for (const NDArray& m : {dense, narrow, view}) {
        Normalizer matrix(kind, cols), serial(kind, cols);
        matrix.ObserveMatrix(m);
        for (size_t i = 0; i < m.numel(); ++i) {
          serial.Observe(i % cols, m.GetAsDouble(i));
        }
        EXPECT_EQ(StateBytes(matrix), StateBytes(serial))
            << NormKindName(kind) << " " << cols << " columns";
      }
    }
  }
}

TEST(Normalizer, HoistedApplyMatchesApplyPerElement) {
  for (const NormKind kind : kAllKinds) {
    for (const size_t cols : {size_t{1}, size_t{4}, size_t{9}}) {
      Normalizer norm(kind, cols);
      norm.ObserveMatrix(RandomValues(80, cols, DType::kF64, 500 + cols));
      norm.Fit();
      for (const DType dt : {DType::kF64, DType::kF32}) {
        // A dense [40, cols] input and a transposed view of [cols, 40].
        const NDArray dense = RandomValues(40, cols, dt, 600 + cols);
        const NDArray storage = RandomValues(cols, 40, dt, 800 + cols);
        for (const bool view : {false, true}) {
          const NDArray in = view ? storage.Transpose() : dense;
          const auto fresh = [&] {
            return view ? storage.AsContiguous().Transpose()
                        : dense.AsContiguous();
          };
          NDArray want = in.AsContiguous();
          for (size_t i = 0; i < want.numel(); ++i) {
            want.SetFromDouble(i, norm.Apply(i % cols, in.GetAsDouble(i)));
          }
          NDArray matrix = fresh();
          norm.ApplyMatrix(matrix);
          EXPECT_EQ(BytesOf(matrix), BytesOf(want))
              << NormKindName(kind) << " ApplyMatrix " << cols << " " << view;

          const size_t f = cols - 1;
          for (size_t i = 0; i < want.numel(); ++i) {
            want.SetFromDouble(i, norm.Apply(f, in.GetAsDouble(i)));
          }
          NDArray all = fresh();
          norm.ApplyAll(all, f);
          EXPECT_EQ(BytesOf(all), BytesOf(want))
              << NormKindName(kind) << " ApplyAll " << cols << " " << view;
        }
      }
    }
  }
}

TEST(Normalizer, MeanFillZScoreIsApplyOfTheFilledValue) {
  // The climate normalize stage's hoisted loop: with center and scale read
  // once, ((isnan(x) ? c : x) - c) / s is Apply(f, isnan(x) ? c : x).
  Normalizer norm(NormKind::kZScore, 2);
  norm.ObserveMatrix(RandomValues(64, 2, DType::kF64, 700));
  norm.Fit();
  const NDArray cells = RandomValues(200, 1, DType::kF64, 701);
  for (size_t f = 0; f < 2; ++f) {
    const double c = norm.Center(f);
    const double s = norm.Scale(f);
    for (size_t i = 0; i < cells.numel(); ++i) {
      const double x = cells.GetAsDouble(i);
      EXPECT_EQ(std::bit_cast<uint64_t>(((std::isnan(x) ? c : x) - c) / s),
                std::bit_cast<uint64_t>(norm.Apply(f, std::isnan(x) ? c : x)));
    }
  }
}

// ---- imbalance -----------------------------------------------------------------

TEST(Imbalance, BalancedLabels) {
  const std::vector<int64_t> labels = {0, 1, 2, 0, 1, 2};
  const auto counts = CountClasses(labels);
  EXPECT_NEAR(BalanceScore(counts), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(ImbalanceRatio(counts), 1.0);
  EXPECT_NEAR(EffectiveClassCount(counts), 3.0, 1e-9);
  EXPECT_NEAR(GiniImpurity(counts), 2.0 / 3.0, 1e-12);
}

TEST(Imbalance, SkewedLabels) {
  std::vector<int64_t> labels(90, 0);
  labels.insert(labels.end(), 10, 1);
  const auto counts = CountClasses(labels);
  EXPECT_DOUBLE_EQ(ImbalanceRatio(counts), 9.0);
  EXPECT_LT(BalanceScore(counts), 0.5);
  EXPECT_LT(EffectiveClassCount(counts), 2.0);
}

TEST(Imbalance, SingleClassAndEmpty) {
  EXPECT_DOUBLE_EQ(BalanceScore(CountClasses(std::vector<int64_t>{5, 5})), 0.0);
  EXPECT_DOUBLE_EQ(ImbalanceRatio({}), 0.0);
  EXPECT_DOUBLE_EQ(LabelEntropy({}), 0.0);
}

TEST(Imbalance, InverseFrequencyWeightsMeanOne) {
  std::vector<int64_t> labels(75, 0);
  labels.insert(labels.end(), 25, 1);
  const auto weights = InverseFrequencyWeights(CountClasses(labels));
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_GT(weights.at(1), weights.at(0));  // minority upweighted
  EXPECT_NEAR((weights.at(0) + weights.at(1)) / 2.0, 1.0, 1e-12);
}

}  // namespace
}  // namespace drai::stats
