#include "src/access/ml.h"

#include <gtest/gtest.h>

#include "src/format/serde.h"
#include "src/ir/interp.h"

namespace skadi {
namespace {

// --- Gradient/loss IR correctness against analytic values ---

TEST(GradientIrTest, LinearGradientMatchesAnalytic) {
  // X = [[1, 2], [3, 4]], y = [[1], [2]], W = [[0.5], [0.5]].
  // pred = XW = [[1.5], [3.5]]; err = [[0.5], [1.5]];
  // grad = X^T err = [[1*0.5 + 3*1.5], [2*0.5 + 4*1.5]] = [[5], [7]].
  auto fn = BuildGradientIr(/*logistic=*/false);
  auto x = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  auto y = Tensor::FromData({2, 1}, {1, 2});
  auto w = Tensor::FromData({2, 1}, {0.5, 0.5});
  auto out = EvalIrFunction(*fn, {*x, *y, *w});
  ASSERT_TRUE(out.ok());
  const Tensor& grad = std::get<Tensor>((*out)[0]);
  EXPECT_NEAR(grad.At(0, 0), 5.0, 1e-12);
  EXPECT_NEAR(grad.At(1, 0), 7.0, 1e-12);
}

TEST(GradientIrTest, LogisticGradientUsesSigmoid) {
  // With W = 0: sigmoid(0) = 0.5 regardless of X.
  auto fn = BuildGradientIr(/*logistic=*/true);
  auto x = Tensor::FromData({2, 2}, {1, 0, 0, 1});
  auto y = Tensor::FromData({2, 1}, {1, 0});
  Tensor w = Tensor::Zeros({2, 1});
  auto out = EvalIrFunction(*fn, {*x, *y, w});
  ASSERT_TRUE(out.ok());
  const Tensor& grad = std::get<Tensor>((*out)[0]);
  // err = [0.5-1, 0.5-0] = [-0.5, 0.5]; grad = X^T err = [-0.5, 0.5].
  EXPECT_NEAR(grad.At(0, 0), -0.5, 1e-12);
  EXPECT_NEAR(grad.At(1, 0), 0.5, 1e-12);
}

TEST(LossIrTest, MseMatchesAnalytic) {
  auto fn = BuildLossIr(/*logistic=*/false);
  auto x = Tensor::FromData({2, 1}, {1, 2});
  auto y = Tensor::FromData({2, 1}, {2, 2});
  auto w = Tensor::FromData({1, 1}, {1.0});
  // pred = [1, 2]; err = [-1, 0]; mse = (1 + 0)/2 = 0.5.
  auto out = EvalIrFunction(*fn, {*x, *y, *w});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(std::get<double>((*out)[0]), 0.5, 1e-12);
}

// --- Distributed training ---

class MlTrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 2;
    cluster_ = Cluster::Create(config);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_);
  }

  // Shards with y = 2x + 1 (x is the single feature; second column is bias).
  std::vector<std::pair<ObjectRef, ObjectRef>> MakeShards(int num_shards,
                                                          int rows_per_shard) {
    Rng rng(13);
    std::vector<std::pair<ObjectRef, ObjectRef>> shards;
    for (int s = 0; s < num_shards; ++s) {
      Tensor x = Tensor::Zeros({rows_per_shard, 2});
      Tensor y = Tensor::Zeros({rows_per_shard, 1});
      for (int r = 0; r < rows_per_shard; ++r) {
        double v = rng.NextDouble() * 2 - 1;
        x.Set(r, 0, v);
        x.Set(r, 1, 1.0);
        y.Set(r, 0, 2 * v + 1);
      }
      auto x_ref = runtime_->Put(SerializeTensor(x));
      auto y_ref = runtime_->Put(SerializeTensor(y));
      shards.emplace_back(*x_ref, *y_ref);
    }
    return shards;
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(MlTrainTest, ConvergesToTrueWeights) {
  MlTrainOptions options;
  options.epochs = 150;
  options.learning_rate = 0.5;
  auto model = TrainModel(runtime_.get(), MakeShards(4, 64), 2, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_NEAR(model->weights.At(0, 0), 2.0, 0.05);
  EXPECT_NEAR(model->weights.At(1, 0), 1.0, 0.05);
  EXPECT_LT(model->loss_curve.back(), 0.01);
}

TEST_F(MlTrainTest, LossCurveMonotoneUnderSmallLr) {
  MlTrainOptions options;
  options.epochs = 30;
  options.learning_rate = 0.1;
  auto model = TrainModel(runtime_.get(), MakeShards(2, 64), 2, options);
  ASSERT_TRUE(model.ok());
  for (size_t i = 1; i < model->loss_curve.size(); ++i) {
    EXPECT_LE(model->loss_curve[i], model->loss_curve[i - 1] + 1e-9) << "epoch " << i;
  }
}

TEST_F(MlTrainTest, GangPerEpochStillConverges) {
  MlTrainOptions options;
  options.epochs = 60;
  options.learning_rate = 0.5;
  options.gang_per_epoch = true;
  auto model = TrainModel(runtime_.get(), MakeShards(3, 32), 2, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_NEAR(model->weights.At(0, 0), 2.0, 0.2);
  EXPECT_GT(runtime_->metrics().GetCounter("scheduler.gangs_dispatched").value(), 0);
}

TEST_F(MlTrainTest, SingleShardEqualsMultiShard) {
  // Data-parallel gradient averaging must equal single-shard training on
  // the concatenated data (weights identical per epoch, deterministic).
  MlTrainOptions options;
  options.epochs = 10;
  options.learning_rate = 0.3;

  // Build identical data once, as 1 shard and as 2 shards.
  Rng rng(21);
  std::vector<double> xs, ys;
  for (int r = 0; r < 64; ++r) {
    double v = rng.NextDouble();
    xs.push_back(v);
    ys.push_back(2 * v + 1);
  }
  auto make_shard = [&](int from, int to) {
    Tensor x = Tensor::Zeros({to - from, 2});
    Tensor y = Tensor::Zeros({to - from, 1});
    for (int r = from; r < to; ++r) {
      x.Set(r - from, 0, xs[static_cast<size_t>(r)]);
      x.Set(r - from, 1, 1.0);
      y.Set(r - from, 0, ys[static_cast<size_t>(r)]);
    }
    return std::make_pair(*runtime_->Put(SerializeTensor(x)),
                          *runtime_->Put(SerializeTensor(y)));
  };

  std::vector<std::pair<ObjectRef, ObjectRef>> one = {make_shard(0, 64)};
  std::vector<std::pair<ObjectRef, ObjectRef>> two = {make_shard(0, 32),
                                                      make_shard(32, 64)};
  auto model1 = TrainModel(runtime_.get(), one, 2, options);
  auto model2 = TrainModel(runtime_.get(), two, 2, options);
  ASSERT_TRUE(model1.ok());
  ASSERT_TRUE(model2.ok());
  EXPECT_NEAR(model1->weights.At(0, 0), model2->weights.At(0, 0), 1e-9);
  EXPECT_NEAR(model1->weights.At(1, 0), model2->weights.At(1, 0), 1e-9);
}

TEST_F(MlTrainTest, ParameterServerMatchesDriverAveraging) {
  // Gradients in one epoch are all computed from the same weight snapshot,
  // so serial actor application sums to the same update as driver-side
  // averaging (up to float reassociation).
  MlTrainOptions driver_opts;
  driver_opts.epochs = 20;
  driver_opts.learning_rate = 0.4;
  MlTrainOptions ps_opts = driver_opts;
  ps_opts.parameter_server = true;

  auto shards = MakeShards(3, 32);
  auto driver_model = TrainModel(runtime_.get(), shards, 2, driver_opts);
  auto ps_model = TrainModel(runtime_.get(), shards, 2, ps_opts);
  ASSERT_TRUE(driver_model.ok());
  ASSERT_TRUE(ps_model.ok()) << ps_model.status().ToString();
  EXPECT_NEAR(driver_model->weights.At(0, 0), ps_model->weights.At(0, 0), 1e-9);
  EXPECT_NEAR(driver_model->weights.At(1, 0), ps_model->weights.At(1, 0), 1e-9);
}

TEST_F(MlTrainTest, ParameterServerConverges) {
  MlTrainOptions options;
  options.epochs = 120;
  options.learning_rate = 0.5;
  options.parameter_server = true;
  auto model = TrainModel(runtime_.get(), MakeShards(4, 32), 2, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_NEAR(model->weights.At(0, 0), 2.0, 0.1);
  EXPECT_NEAR(model->weights.At(1, 0), 1.0, 0.1);
}

TEST_F(MlTrainTest, InvalidOptionsRejected) {
  MlTrainOptions bad;
  bad.epochs = 0;
  EXPECT_FALSE(TrainModel(runtime_.get(), MakeShards(1, 8), 2, bad).ok());
  EXPECT_FALSE(TrainModel(runtime_.get(), {}, 2, {}).ok());
}

TEST_F(MlTrainTest, LogisticSeparatesClasses) {
  // Points with x > 0 labelled 1, x < 0 labelled 0: logistic regression
  // must learn a positive weight.
  Rng rng(31);
  Tensor x = Tensor::Zeros({128, 2});
  Tensor y = Tensor::Zeros({128, 1});
  for (int r = 0; r < 128; ++r) {
    double v = rng.NextDouble() * 2 - 1;
    x.Set(r, 0, v);
    x.Set(r, 1, 1.0);
    y.Set(r, 0, v > 0 ? 1.0 : 0.0);
  }
  std::vector<std::pair<ObjectRef, ObjectRef>> shards = {
      {*runtime_->Put(SerializeTensor(x)), *runtime_->Put(SerializeTensor(y))}};
  MlTrainOptions options;
  options.epochs = 200;
  options.learning_rate = 2.0;
  options.logistic = true;
  auto model = TrainModel(runtime_.get(), shards, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->weights.At(0, 0), 1.0);
  EXPECT_LT(model->loss_curve.back(), model->loss_curve.front());
}

}  // namespace
}  // namespace skadi
