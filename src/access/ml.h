// ML frontend: data-parallel linear / logistic regression by mini-batch
// gradient descent on the tensor dialect.
//
// The per-shard gradient is a hardware-agnostic IrFunction
// (grad = scale(matmul(transpose(X), err), 1/n) with err = XW - y or
// sigmoid(XW) - y), lowered and executed as runtime tasks; the driver
// averages shard gradients and updates W — the SPMD-per-step pattern giant
// model training motivates (§1), at toy scale.
#ifndef SRC_ACCESS_ML_H_
#define SRC_ACCESS_ML_H_

#include <memory>
#include <vector>

#include "src/format/tensor.h"
#include "src/ir/ir.h"
#include "src/runtime/runtime.h"

namespace skadi {

struct MlTrainOptions {
  int epochs = 20;
  double learning_rate = 0.1;
  bool logistic = false;  // false: linear regression; true: logistic
  // Place gradient tasks on this device kind when present in the cluster.
  std::optional<DeviceKind> device;
  // Dispatch each epoch's gradient tasks as one gang (SPMD step).
  bool gang_per_epoch = false;
  // Keep the weights in a parameter-server actor: gradient tasks read the
  // actor's weight snapshot by reference and ship their (unscaled) gradients
  // to actor "apply" tasks that fold them in serially — the actor-based
  // query/serving pattern (DPA) on the same runtime. Off: the driver averages
  // gradients itself.
  bool parameter_server = false;
};

struct MlModel {
  Tensor weights;                  // [d, 1]
  std::vector<double> loss_curve;  // mean squared / logistic loss per epoch
};

// Builds the hardware-agnostic gradient IrFunction:
//   params: X [n,d], y [n,1], W [d,1]  ->  returns grad [d,1]
std::shared_ptr<IrFunction> BuildGradientIr(bool logistic);

// Builds the loss IrFunction: params X, y, W -> scalar mean squared error
// (or logistic MSE proxy when `logistic`).
std::shared_ptr<IrFunction> BuildLossIr(bool logistic);

// Trains on data sharded as (X_i, y_i) tensor pairs already resident in the
// caching layer. Its task bodies travel in their specs, and it releases
// every object it creates; the shards stay the caller's.
Result<MlModel> TrainModel(SkadiRuntime* runtime,
                           const std::vector<std::pair<ObjectRef, ObjectRef>>& shards,
                           int64_t feature_dim, const MlTrainOptions& options);

}  // namespace skadi

#endif  // SRC_ACCESS_ML_H_
