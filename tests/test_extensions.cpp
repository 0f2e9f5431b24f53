// Tests for the extension features: lag estimation / lag-corrected
// alignment, streaming softmax, the shard classifier trainer, mixup, and
// window jitter.
#include <gtest/gtest.h>

#include <cmath>

#include "augment/augment.hpp"
#include "common/rng.hpp"
#include "ml/trainer.hpp"
#include "shard/shard_writer.hpp"
#include "container/netcdf_lite.hpp"
#include "domains/climate.hpp"
#include "domains/fusion.hpp"
#include "parallel/distributed_stats.hpp"
#include "workloads/climate.hpp"
#include "timeseries/lag.hpp"
#include "workloads/fusion.hpp"

namespace drai {
namespace {

timeseries::Signal MakeChirp(double t0, double duration, double rate,
                             double delay, uint64_t seed) {
  // A non-periodic waveform (chirp + noise) so cross-correlation has a
  // unique peak.
  Rng rng(seed);
  timeseries::Signal s;
  s.name = "chirp";
  for (double t = t0; t < t0 + duration; t += 1.0 / rate) {
    const double u = t - delay;
    s.t.push_back(t);
    s.v.push_back(std::sin(2 * M_PI * (3.0 * u + 8.0 * u * u)) +
                  rng.Normal(0, 0.02));
  }
  return s;
}

// ---- lag ----------------------------------------------------------------

TEST(Lag, RecoversKnownDelay) {
  const double delay = 0.037;
  const auto a = MakeChirp(0.0, 1.0, 500, 0.0, 1);
  // b records the same physical waveform but its clock runs `delay` late:
  // b(t) = waveform(t - delay).
  const auto b = MakeChirp(0.0, 1.0, 430, delay, 2);
  const auto est = timeseries::EstimateLag(a, b, 1e-3, 0.1);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_NEAR(est->lag_seconds, -delay, 2e-3);
  EXPECT_GT(est->correlation, 0.95);
}

TEST(Lag, ZeroForAlignedSignals) {
  const auto a = MakeChirp(0.0, 1.0, 500, 0.0, 3);
  const auto b = MakeChirp(0.0, 1.0, 390, 0.0, 4);
  const auto est = timeseries::EstimateLag(a, b, 1e-3, 0.05);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->lag_seconds, 0.0, 2e-3);
}

TEST(Lag, AlignChannelsWithLagCorrectsSkew) {
  const double delay = 0.02;
  std::vector<timeseries::Signal> channels;
  channels.push_back(MakeChirp(0.0, 1.0, 500, 0.0, 5));
  channels.push_back(MakeChirp(0.0, 1.0, 470, delay, 6));
  const auto corrected =
      timeseries::AlignChannelsWithLag(channels, 1e-3, 0.05);
  ASSERT_TRUE(corrected.ok()) << corrected.status().ToString();
  EXPECT_NEAR(corrected->lags[1].lag_seconds, -delay, 2e-3);
  EXPECT_DOUBLE_EQ(corrected->lags[0].lag_seconds, 0.0);

  // After correction the two rows are near-identical; without it they are
  // visibly displaced.
  const auto raw = timeseries::AlignChannels(channels, 1e-3).value();
  auto row_rms = [](const timeseries::AlignedFrame& f) {
    const double* d = f.data.data<double>();
    const size_t n = f.n_samples();
    double acc = 0;
    size_t m = 0;
    for (size_t k = 0; k < n; ++k) {
      if (std::isnan(d[k]) || std::isnan(d[n + k])) continue;
      const double e = d[k] - d[n + k];
      acc += e * e;
      ++m;
    }
    return m ? std::sqrt(acc / double(m)) : 0.0;
  };
  EXPECT_LT(row_rms(corrected->frame), row_rms(raw) * 0.5);
}

TEST(Lag, ValidatesArguments) {
  const auto a = MakeChirp(0, 0.5, 200, 0, 7);
  EXPECT_FALSE(timeseries::EstimateLag(a, a, 0.0, 0.1).ok());
  EXPECT_FALSE(timeseries::EstimateLag(a, a, 1e-3, -1).ok());
  std::vector<timeseries::Signal> one = {a};
  EXPECT_FALSE(
      timeseries::AlignChannelsWithLag(one, 1e-3, 0.1, /*reference=*/5).ok());
}

// ---- streaming softmax ------------------------------------------------------

TEST(SoftmaxPartialFit, ConvergesAcrossBatches) {
  Rng rng(11);
  ml::SoftmaxClassifier model(2);
  ml::SgdOptions step;
  step.learning_rate = 0.4;
  double last_loss = 1e9;
  for (int pass = 0; pass < 40; ++pass) {
    NDArray x = NDArray::Zeros({64, 2}, DType::kF64);
    std::vector<int64_t> y(64);
    for (size_t i = 0; i < 64; ++i) {
      const int64_t cls = rng.Bernoulli(0.5) ? 1 : 0;
      x.SetFromDouble(i * 2, rng.Normal(cls ? 3.0 : -3.0, 1.0));
      x.SetFromDouble(i * 2 + 1, rng.Normal(0, 1));
      y[i] = cls;
    }
    step.seed = static_cast<uint64_t>(pass);
    last_loss = model.PartialFit(x, y, step).value();
  }
  EXPECT_LT(last_loss, 0.1);
  EXPECT_EQ(model.Predict(std::vector<double>{4.0, 0.0}), 1);
  EXPECT_EQ(model.Predict(std::vector<double>{-4.0, 0.0}), 0);
}

TEST(SoftmaxPartialFit, RejectsFeatureDrift) {
  ml::SoftmaxClassifier model(2);
  NDArray a = NDArray::Zeros({4, 3}, DType::kF64);
  model.PartialFit(a, std::vector<int64_t>{0, 1, 0, 1}).value();
  NDArray b = NDArray::Zeros({4, 5}, DType::kF64);
  EXPECT_FALSE(model.PartialFit(b, std::vector<int64_t>{0, 1, 0, 1}).ok());
}

TEST(TrainClassifierFromShards, LearnsBlobsEndToEnd) {
  par::StripedStore store;
  shard::ShardWriterConfig config;
  config.directory = "/ds/cls";
  config.target_shard_bytes = 1500;
  shard::ShardWriter writer(store, config);
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    const int64_t cls = rng.Bernoulli(0.5) ? 1 : 0;
    shard::Example ex;
    ex.key = std::string("s") + std::to_string(i);
    ex.features["x"] = NDArray::FromVector<float>(
        {2}, {static_cast<float>(rng.Normal(cls ? 2.5 : -2.5, 1.0)),
              static_cast<float>(rng.Normal(0, 1))});
    ex.SetLabel(cls);
    writer.Add(ex).value();
  }
  writer.Finalize().value();
  const auto reader = shard::ShardReader::Open(store, "/ds/cls").value();
  ml::SoftmaxClassifier model(2);
  ml::SgdOptions sgd;
  sgd.learning_rate = 0.4;
  sgd.batch_size = 32;
  const auto report =
      ml::TrainClassifierFromShards(reader, "x", sgd, 10, model);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LT(report->epoch_train_loss.back(), report->epoch_train_loss.front());
  EXPECT_GT(report->val_accuracy, 0.9);
  EXPECT_GT(report->val_macro_f1, 0.9);
}

// ---- mixup ---------------------------------------------------------------

TEST(Mixup, SamplesLieOnSegments) {
  // All inputs on the line y = 3x: every mixup sample must stay on it.
  Rng rng(17);
  NDArray x = NDArray::Zeros({10, 2}, DType::kF64);
  std::vector<int64_t> labels(10);
  for (size_t i = 0; i < 10; ++i) {
    x.SetFromDouble(i * 2, double(i));
    x.SetFromDouble(i * 2 + 1, 3.0 * double(i));
    labels[i] = i % 2;
  }
  const auto mix = augment::Mixup(x, labels, 100, 0.4, rng);
  ASSERT_TRUE(mix.ok());
  EXPECT_EQ(mix->features.shape(), (Shape{100, 2}));
  for (size_t s = 0; s < 100; ++s) {
    const double a = mix->features.GetAsDouble(s * 2);
    const double b = mix->features.GetAsDouble(s * 2 + 1);
    EXPECT_NEAR(b, 3.0 * a, 1e-9);
    EXPECT_GE(mix->weight_a[s], 0.5);  // dominant weight convention
    EXPECT_LE(mix->weight_a[s], 1.0);
  }
}

TEST(Mixup, ValidatesInput) {
  Rng rng(1);
  NDArray x = NDArray::Zeros({1, 2}, DType::kF64);
  EXPECT_FALSE(augment::Mixup(x, std::vector<int64_t>{0}, 5, 0.4, rng).ok());
  NDArray x2 = NDArray::Zeros({4, 2}, DType::kF64);
  EXPECT_FALSE(
      augment::Mixup(x2, std::vector<int64_t>{0, 1}, 5, 0.4, rng).ok());
  EXPECT_FALSE(augment::Mixup(x2, std::vector<int64_t>{0, 1, 0, 1}, 5, 0.0,
                              rng)
                   .ok());
}

// ---- window jitter -------------------------------------------------------

TEST(JitterWindows, PreservesShapeAndScalesAmplitude) {
  Rng gen(19);
  NDArray windows = NDArray::Zeros({4, 2, 32}, DType::kF64);
  for (size_t i = 0; i < windows.numel(); ++i) {
    windows.SetFromDouble(i, gen.Normal(0, 1));
  }
  Rng rng(23);
  const auto jittered =
      augment::JitterWindows(windows, 20, 0.2, 4, rng);
  ASSERT_TRUE(jittered.ok());
  EXPECT_EQ(jittered->shape(), (Shape{20, 2, 32}));
  // Amplitude stays within the scale envelope of some source window.
  double max_out = 0, max_in = 0;
  for (size_t i = 0; i < windows.numel(); ++i) {
    max_in = std::max(max_in, std::fabs(windows.GetAsDouble(i)));
  }
  for (size_t i = 0; i < jittered->numel(); ++i) {
    max_out = std::max(max_out, std::fabs(jittered->GetAsDouble(i)));
  }
  EXPECT_LE(max_out, max_in * 1.2 + 1e-9);
}

TEST(JitterWindows, ZeroJitterReproducesSourceWindows) {
  NDArray windows = NDArray::Zeros({2, 1, 8}, DType::kF64);
  for (size_t i = 0; i < windows.numel(); ++i) {
    windows.SetFromDouble(i, double(i));
  }
  Rng rng(29);
  const auto out = augment::JitterWindows(windows, 6, 0.0, 0, rng);
  ASSERT_TRUE(out.ok());
  for (size_t s = 0; s < 6; ++s) {
    // Each output equals one of the two inputs exactly.
    bool matches_any = false;
    for (size_t src = 0; src < 2; ++src) {
      bool same = true;
      for (size_t k = 0; k < 8; ++k) {
        if (out->GetAsDouble(s * 8 + k) !=
            windows.GetAsDouble(src * 8 + k)) {
          same = false;
          break;
        }
      }
      matches_any |= same;
    }
    EXPECT_TRUE(matches_any) << s;
  }
}

TEST(JitterWindows, ValidatesInput) {
  Rng rng(1);
  NDArray bad = NDArray::Zeros({4, 8}, DType::kF64);
  EXPECT_FALSE(augment::JitterWindows(bad, 5, 0.1, 2, rng).ok());
  NDArray windows = NDArray::Zeros({2, 1, 8}, DType::kF64);
  EXPECT_FALSE(augment::JitterWindows(windows, 5, 1.5, 2, rng).ok());
  EXPECT_FALSE(augment::JitterWindows(windows, 5, 0.1, 8, rng).ok());
}


// ---- fusion archetype options ----------------------------------------------

namespace fusion_options {

TEST(FusionOptions, SkewedWorkloadStillReachesLevel5WithLagCorrection) {
  par::StripedStore store;
  domains::FusionArchetypeConfig config;
  config.workload.n_shots = 10;
  config.workload.trigger_skew_max = 0.01;
  config.lag_correct_max = 0.02;
  config.dataset_dir = "/datasets/fusion-lag";
  const auto result = domains::RunFusionArchetype(store, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->readiness.overall, core::ReadinessLevel::kAiReady);
  EXPECT_GT(result->manifest.TotalRecords(), 0u);
}

TEST(FusionOptions, JitterAugmentationAddsWindows) {
  auto records_with_jitter = [](size_t jitter) {
    par::StripedStore store;
    domains::FusionArchetypeConfig config;
    config.workload.n_shots = 6;
    config.jitter_windows_per_shot = jitter;
    config.dataset_dir = "/datasets/fusion-jitter";
    return domains::RunFusionArchetype(store, config)
        .value()
        .manifest.TotalRecords();
  };
  const uint64_t base = records_with_jitter(0);
  const uint64_t augmented = records_with_jitter(8);
  EXPECT_EQ(augmented, base + 6 * 8);  // 8 extra windows per shot
}

TEST(FusionOptions, SkewedWorkloadIsActuallySkewed) {
  workloads::FusionConfig config;
  config.n_shots = 1;
  config.n_channels = 2;
  config.trigger_skew_max = 0.05;
  config.dropout_prob = 0;
  config.spike_prob = 0;
  config.seed = 5;
  const auto shots = workloads::GenerateFusionShots(config);
  // Channel 1 (coil-voltage-like channel 1 is mode_amp — deterministic
  // sinusoid component) should show a measurable positive delay vs a
  // zero-skew generation of the same seed.
  workloads::FusionConfig clean = config;
  clean.trigger_skew_max = 0;
  const auto reference = workloads::GenerateFusionShots(clean);
  const auto est = timeseries::EstimateLag(reference[0].channels[1],
                                           shots[0].channels[1], 1e-3, 0.08);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  // The skewed channel lags the clean one; correcting means shifting its
  // clock earlier (negative lag), bounded by the configured max.
  EXPECT_LT(est->lag_seconds, 0.0);
  EXPECT_GE(est->lag_seconds, -0.05 - 2e-3);
}

}  // namespace fusion_options

// ---- distributed stats -----------------------------------------------------

namespace distributed_stats {

TEST(DistributedStats, AllMergeStatsMatchesSerial) {
  const int ranks = 4;
  const size_t per_rank = 500;
  Rng gen(101);
  std::vector<double> all;
  for (size_t i = 0; i < per_rank * ranks; ++i) {
    all.push_back(gen.Uniform(-3, 9));
  }
  stats::RunningStats serial;
  for (double x : all) serial.Add(x);

  par::RunSpmd(ranks, [&](par::Communicator& comm) {
    stats::RunningStats local;
    for (size_t i = 0; i < per_rank; ++i) {
      local.Add(all[comm.rank() * per_rank + i]);
    }
    const stats::RunningStats merged = par::AllMergeStats(comm, local);
    EXPECT_EQ(merged.count(), serial.count());
    EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12);
    EXPECT_NEAR(merged.variance(), serial.variance(), 1e-10);
    EXPECT_EQ(merged.min(), serial.min());
    EXPECT_EQ(merged.max(), serial.max());
  });
}

TEST(DistributedStats, AllMergeFitNormalizerMatchesSerial) {
  const int ranks = 3;
  const size_t per_rank = 400;
  Rng gen(103);
  std::vector<double> col0, col1;
  for (size_t i = 0; i < per_rank * ranks; ++i) {
    col0.push_back(gen.Normal(10, 2));
    col1.push_back(gen.Uniform(0, 100));
  }
  stats::Normalizer serial(stats::NormKind::kZScore, 2);
  for (size_t i = 0; i < col0.size(); ++i) {
    serial.Observe(0, col0[i]);
    serial.Observe(1, col1[i]);
  }
  serial.Fit();

  par::RunSpmd(ranks, [&](par::Communicator& comm) {
    stats::Normalizer local(stats::NormKind::kZScore, 2);
    for (size_t i = 0; i < per_rank; ++i) {
      const size_t idx = comm.rank() * per_rank + i;
      local.Observe(0, col0[idx]);
      local.Observe(1, col1[idx]);
    }
    const auto fitted = par::AllMergeFit(comm, std::move(local));
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    for (size_t f = 0; f < 2; ++f) {
      EXPECT_NEAR(fitted->Center(f), serial.Center(f), 1e-10);
      EXPECT_NEAR(fitted->Scale(f), serial.Scale(f), 1e-10);
    }
  });
}

TEST(DistributedStats, RobustRejected) {
  par::RunSpmd(2, [&](par::Communicator& comm) {
    stats::Normalizer local(stats::NormKind::kRobust, 1);
    local.Observe(0, 1.0);
    EXPECT_FALSE(par::AllMergeFit(comm, std::move(local)).ok());
  });
}

}  // namespace distributed_stats

// ---- climate netcdf ingest ---------------------------------------------------

namespace climate_formats {

TEST(ClimateFormats, NetcdfWorkloadRoundTrips) {
  workloads::ClimateConfig config;
  config.n_times = 2;
  config.n_lat = 12;
  config.n_lon = 24;
  const Bytes blob = workloads::GenerateClimateNetcdf(config);
  const auto nc = container::NcFile::Parse(blob);
  ASSERT_TRUE(nc.ok()) << nc.status().ToString();
  const auto* t2m = nc->FindVariable("t2m");
  ASSERT_NE(t2m, nullptr);
  EXPECT_EQ(t2m->data.shape(), (Shape{2, 12, 24}));
  EXPECT_EQ(t2m->Units().value(), "K");
  // The fields equal the direct generator output exactly (no packing).
  const auto fields = workloads::GenerateClimateFields(config);
  EXPECT_EQ(t2m->data.GetAsDouble(5), fields[0].field.GetAsDouble(5));
}

TEST(ClimateFormats, ArchetypeIngestsBothFormats) {
  for (const auto format : {domains::ClimateSourceFormat::kGrib,
                            domains::ClimateSourceFormat::kNetcdf}) {
    par::StripedStore store;
    domains::ClimateArchetypeConfig config;
    config.source_format = format;
    config.workload.n_times = 2;
    config.workload.n_lat = 16;
    config.workload.n_lon = 32;
    config.target_lat = 8;
    config.target_lon = 16;
    config.patch = 4;
    const auto result = domains::RunClimateArchetype(store, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->readiness.overall, core::ReadinessLevel::kAiReady);
    EXPECT_EQ(result->manifest.TotalRecords(), 2u * 2 * 4);
  }
}

TEST(ClimateFormats, NetcdfPathIsLosslessVsGribPacked) {
  // The NetCDF path carries f64 exactly; GRIB packs to 16-bit. Same
  // workload, both ingests: shard bytes must differ (packing error) while
  // both normalize to the same shapes.
  auto run = [](domains::ClimateSourceFormat format) {
    par::StripedStore store;
    domains::ClimateArchetypeConfig config;
    config.source_format = format;
    config.workload.n_times = 2;
    config.workload.n_lat = 16;
    config.workload.n_lon = 32;
    config.target_lat = 8;
    config.target_lon = 16;
    config.patch = 4;
    domains::RunClimateArchetype(store, config).value();
    Bytes all;
    for (const std::string& path : store.List("/datasets/climate")) {
      const Bytes file = store.ReadAll(path).value();
      all.insert(all.end(), file.begin(), file.end());
    }
    return all;
  };
  EXPECT_NE(run(domains::ClimateSourceFormat::kGrib),
            run(domains::ClimateSourceFormat::kNetcdf));
}

}  // namespace climate_formats


}  // namespace
}  // namespace drai
