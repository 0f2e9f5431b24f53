// Tests for drai/ml: models learn what they should, metrics are correct,
// and the shard-fed trainer closes the readiness loop.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"
#include "shard/shard_writer.hpp"

namespace drai::ml {
namespace {

// ---- LinearRegressor -----------------------------------------------------

TEST(LinearRegressor, RecoversPlane) {
  // y = 2*x0 - 3*x1 + 1
  Rng rng(1);
  const size_t n = 400;
  NDArray x = NDArray::Zeros({n, 2}, DType::kF64);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-2, 2), b = rng.Uniform(-2, 2);
    x.SetFromDouble(i * 2, a);
    x.SetFromDouble(i * 2 + 1, b);
    y[i] = 2 * a - 3 * b + 1;
  }
  LinearRegressor model;
  SgdOptions options;
  options.learning_rate = 0.1;
  options.epochs = 200;
  const auto history = model.Fit(x, y, options);
  ASSERT_TRUE(history.ok());
  EXPECT_LT(history->back(), 1e-4);
  EXPECT_LT(history->back(), history->front());  // loss decreased
  EXPECT_NEAR(model.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -3.0, 0.05);
  EXPECT_NEAR(model.bias(), 1.0, 0.05);
  EXPECT_NEAR(model.Predict(std::vector<double>{1.0, 1.0}), 0.0, 0.1);
}

TEST(LinearRegressor, PartialFitWarmStarts) {
  Rng rng(2);
  const size_t n = 200;
  NDArray x = NDArray::Zeros({n, 1}, DType::kF64);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-1, 1);
    x.SetFromDouble(i, a);
    y[i] = 5 * a;
  }
  LinearRegressor model;
  SgdOptions step;
  step.learning_rate = 0.2;
  double prev = 1e300;
  for (int pass = 0; pass < 30; ++pass) {
    step.seed = static_cast<uint64_t>(pass);
    const auto loss = model.PartialFit(x, y, step);
    ASSERT_TRUE(loss.ok());
    prev = *loss;
  }
  EXPECT_LT(prev, 1e-3);  // converged across partial fits (no resets)
}

TEST(LinearRegressor, RejectsBadShapes) {
  LinearRegressor model;
  EXPECT_FALSE(model.Fit(NDArray::Zeros({4}), std::vector<double>(4)).ok());
  EXPECT_FALSE(
      model.Fit(NDArray::Zeros({4, 2}), std::vector<double>(3)).ok());
}

// ---- SoftmaxClassifier -------------------------------------------------------

TEST(SoftmaxClassifier, SeparatesGaussianBlobs) {
  Rng rng(3);
  const size_t per = 150;
  NDArray x = NDArray::Zeros({3 * per, 2}, DType::kF64);
  std::vector<int64_t> y(3 * per);
  const double centers[3][2] = {{0, 0}, {6, 0}, {0, 6}};
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per; ++i) {
      const size_t row = c * per + i;
      x.SetFromDouble(row * 2, centers[c][0] + rng.Normal(0, 0.7));
      x.SetFromDouble(row * 2 + 1, centers[c][1] + rng.Normal(0, 0.7));
      y[row] = static_cast<int64_t>(c);
    }
  }
  SoftmaxClassifier model(3);
  SgdOptions options;
  options.learning_rate = 0.3;
  options.epochs = 60;
  const auto history = model.Fit(x, y, options);
  ASSERT_TRUE(history.ok());
  EXPECT_GT(model.Evaluate(x, y).value(), 0.97);
  // Probabilities are a distribution.
  const auto p = model.PredictProba(std::vector<double>{6.0, 0.0});
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(model.Predict(std::vector<double>{6.0, 0.0}), 1);
}

TEST(SoftmaxClassifier, ClassWeightsShiftMinorityRecall) {
  // 95/5 imbalance: weighting the minority class must raise its recall.
  Rng rng(4);
  const size_t n0 = 380, n1 = 20;
  NDArray x = NDArray::Zeros({n0 + n1, 1}, DType::kF64);
  std::vector<int64_t> y(n0 + n1);
  for (size_t i = 0; i < n0; ++i) {
    x.SetFromDouble(i, rng.Normal(0, 1));
    y[i] = 0;
  }
  for (size_t i = n0; i < n0 + n1; ++i) {
    x.SetFromDouble(i, rng.Normal(1.5, 1));  // overlapping minority
    y[i] = 1;
  }
  auto minority_recall = [&](std::span<const double> weights) {
    SoftmaxClassifier model(2);
    SgdOptions options;
    options.learning_rate = 0.5;
    options.epochs = 80;
    options.seed = 9;
    model.Fit(x, y, options, weights).value();
    size_t hit = 0;
    for (size_t i = n0; i < n0 + n1; ++i) {
      if (model.Predict(std::vector<double>{x.GetAsDouble(i)}) == 1) ++hit;
    }
    return static_cast<double>(hit) / static_cast<double>(n1);
  };
  const double unweighted = minority_recall({});
  const std::vector<double> w = {0.2, 1.8};
  const double weighted = minority_recall(w);
  EXPECT_GT(weighted, unweighted);
}

TEST(SoftmaxClassifier, ValidatesLabels) {
  SoftmaxClassifier model(2);
  NDArray x = NDArray::Zeros({2, 1}, DType::kF64);
  EXPECT_FALSE(model.Fit(x, std::vector<int64_t>{0, 5}).ok());
  EXPECT_FALSE(model.Fit(x, std::vector<int64_t>{0, -1}).ok());
  EXPECT_THROW(SoftmaxClassifier(1), std::invalid_argument);
}

// ---- MlpRegressor -----------------------------------------------------------

TEST(MlpRegressor, FitsNonlinearFunction) {
  // y = sin(2x): a linear model cannot do better than ~0.5 MSE on [-pi, pi].
  Rng rng(5);
  const size_t n = 400;
  NDArray x = NDArray::Zeros({n, 1}, DType::kF64);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-M_PI, M_PI);
    x.SetFromDouble(i, a);
    y[i] = std::sin(2 * a);
  }
  MlpRegressor mlp(16);
  SgdOptions options;
  options.learning_rate = 0.02;
  options.epochs = 120;
  const auto history = mlp.Fit(x, y, options);
  ASSERT_TRUE(history.ok());
  const double mlp_mse = mlp.Evaluate(x, y).value();

  LinearRegressor linear;
  SgdOptions lin_options;
  lin_options.learning_rate = 0.05;
  lin_options.epochs = 100;
  linear.Fit(x, y, lin_options).value();
  const double linear_mse = linear.Evaluate(x, y).value();

  EXPECT_LT(mlp_mse, 0.1);
  EXPECT_LT(mlp_mse * 2, linear_mse);  // clearly beats the linear baseline
}

// ---- KnnClassifier ------------------------------------------------------------

TEST(KnnClassifier, MajorityVoteWithConfidence) {
  NDArray x = NDArray::FromVector<double>({5, 1}, {0, 0.1, 0.2, 10, 10.1});
  const std::vector<int64_t> y = {0, 0, 0, 1, 1};
  KnnClassifier knn(3);
  ASSERT_TRUE(knn.Fit(x, y).ok());
  const auto [label0, conf0] = knn.Predict(std::vector<double>{0.05});
  EXPECT_EQ(label0, 0);
  EXPECT_DOUBLE_EQ(conf0, 1.0);
  const auto [label1, conf1] = knn.Predict(std::vector<double>{9.5});
  EXPECT_EQ(label1, 1);
  EXPECT_NEAR(conf1, 2.0 / 3.0, 1e-12);
}

TEST(KnnClassifier, SkipsUnlabeledRows) {
  NDArray x = NDArray::FromVector<double>({3, 1}, {0, 5, 10});
  const std::vector<int64_t> y = {0, -1, 1};
  KnnClassifier knn(1);
  EXPECT_EQ(knn.Fit(x, y).value(), 2u);  // only labeled rows stored
  EXPECT_EQ(knn.Predict(std::vector<double>{6.0}).first, 1);
}

TEST(KnnClassifier, AllUnlabeledFails) {
  NDArray x = NDArray::Zeros({2, 1}, DType::kF64);
  EXPECT_EQ(KnnClassifier(1).Fit(x, std::vector<int64_t>{-1, -1})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// ---- metrics ---------------------------------------------------------------------

TEST(Metrics, RegressionBasics) {
  const std::vector<double> pred = {1, 2, 3};
  const std::vector<double> truth = {1, 2, 5};
  EXPECT_NEAR(MeanSquaredError(pred, truth), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(MeanAbsoluteError(pred, truth), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(R2Score(truth, truth), 1.0);
  EXPECT_LT(R2Score(pred, truth), 1.0);
}

TEST(Metrics, ClassificationBasics) {
  const std::vector<int64_t> pred = {0, 1, 1, 0};
  const std::vector<int64_t> truth = {0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Accuracy(pred, truth), 0.75);
  const auto cm = ConfusionMatrix(pred, truth, 2);
  ASSERT_TRUE(cm.ok());
  EXPECT_EQ((*cm)[0][0], 2);  // truth 0, pred 0
  EXPECT_EQ((*cm)[0][1], 1);  // truth 0, pred 1
  EXPECT_EQ((*cm)[1][1], 1);
  const auto f1 = MacroF1(pred, truth, 2);
  ASSERT_TRUE(f1.ok());
  EXPECT_GT(*f1, 0.5);
  EXPECT_LT(*f1, 1.0);
  EXPECT_DOUBLE_EQ(MacroF1(truth, truth, 2).value(), 1.0);
}

TEST(Metrics, ValidatesInput) {
  EXPECT_THROW(Accuracy(std::vector<int64_t>{1}, std::vector<int64_t>{1, 2}),
               std::invalid_argument);
  EXPECT_FALSE(ConfusionMatrix(std::vector<int64_t>{5},
                               std::vector<int64_t>{0}, 2)
                   .ok());
}

// ---- shard-fed trainer ---------------------------------------------------------

TEST(Trainer, LearnsFromShardsEndToEnd) {
  // Build a sharded linear dataset, then train *only* through the loader.
  par::StripedStore store;
  shard::ShardWriterConfig config;
  config.directory = "/ds/train";
  config.target_shard_bytes = 2000;
  config.split_seed = 3;
  shard::ShardWriter writer(store, config);
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    shard::Example ex;
    ex.key = std::string("s") + std::to_string(i);
    const float a = static_cast<float>(rng.Uniform(-1, 1));
    const float b = static_cast<float>(rng.Uniform(-1, 1));
    ex.features["x"] = NDArray::FromVector<float>({2}, {a, b});
    ex.features["y"] =
        NDArray::FromVector<float>({1}, {3.0f * a - 2.0f * b + 0.5f});
    writer.Add(ex).value();
  }
  writer.Finalize().value();

  const auto reader = shard::ShardReader::Open(store, "/ds/train");
  ASSERT_TRUE(reader.ok());
  LinearRegressor model;
  TrainFromShardsOptions options;
  options.feature_name = "x";
  options.target_name = "y";
  options.epochs = 30;
  options.sgd.learning_rate = 0.1;
  options.sgd.batch_size = 16;
  const auto report = TrainRegressorFromShards(*reader, options, model);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->samples_seen, 0u);
  EXPECT_LT(report->epoch_train_loss.back(),
            report->epoch_train_loss.front());
  EXPECT_LT(report->val_mse, 0.05);
  EXPECT_GT(report->val_r2, 0.95);
  EXPECT_NEAR(model.weights()[0], 3.0, 0.2);
  EXPECT_NEAR(model.weights()[1], -2.0, 0.2);
}

}  // namespace
}  // namespace drai::ml
