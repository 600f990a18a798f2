// nn::Lstm and nn::Dense against their step-by-step oracle
// (lstm_reference.h), bit for bit: the recorded forward's output, the
// input gradient and every parameter gradient, over two accumulated
// backward passes. The cases cross what could move a bit: batch sizes
// around the 16-row panel threshold (the rows of the per-step products
// and of dgates W^T), input and hidden sizes on both sides of it (the
// rows of the weight-gradient products), both output kinds, pool sizes 1
// and 4, and a layer run inside a pool task, where every kernel runs
// inline.

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lstm_reference.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apots::nn {
namespace {

using apots::tensor::Tensor;

constexpr size_t kTime = 5;

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

void ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  size_t differ = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    differ += std::memcmp(expected.data() + i, actual.data() + i,
                          sizeof(float)) != 0;
  }
  EXPECT_EQ(differ, 0u) << what << ": " << differ << " of " << expected.size()
                        << " elements differ bitwise";
}

/// Runs `check` on pools of 1 and 4 threads, then inside a pool task.
template <typename Check>
void OnEveryPool(const Check& check) {
  for (size_t threads : {1u, 4u}) {
    ResetGlobalPool(threads);
    check("pool " + std::to_string(threads));
  }
  GlobalPool().ParallelFor(0, 1, 1, [&](size_t, size_t, size_t) {
    check("pool task");
  });
  ResetGlobalPool(1);
}

/// (batch, input size, hidden size, return_sequences).
using LstmCase = std::tuple<size_t, size_t, size_t, bool>;

class LstmOracleTest : public ::testing::TestWithParam<LstmCase> {};

TEST_P(LstmOracleTest, MatchesStepByStepLstmBitwise) {
  const auto [batch, in, hidden, sequences] = GetParam();
  apots::Rng rng(17 + in + hidden);
  Lstm lstm(in, hidden, sequences, &rng);
  const auto params = lstm.Parameters();
  // A random bias, so every gate sits at a different point of its curve.
  params[2]->value = Random(params[2]->value.shape(), 21);
  const Tensor input = Random({batch, kTime, in}, 22 + batch);
  const Tensor grad_output =
      Random(sequences ? std::vector<size_t>{batch, kTime, hidden}
                       : std::vector<size_t>{batch, hidden},
             23 + batch);

  // Two accumulated passes of the oracle, from zero gradients.
  std::vector<Tensor> want;
  for (const Parameter* p : params) want.push_back(Tensor(p->value.shape()));
  const lstm_reference::LstmWeights weights = {
      &params[0]->value, &params[1]->value, &params[2]->value};
  lstm_reference::LstmResult expected;
  for (int pass = 0; pass < 2; ++pass) {
    expected = lstm_reference::RunLstm(weights, sequences, input, grad_output,
                                       &want[0], &want[1], &want[2]);
  }

  OnEveryPool([&](const std::string& where) {
    ZeroAllGrads(params);
    tensor::Workspace ws;
    ExpectBitIdentical(expected.output, *lstm.RecordForward(input, &ws),
                       where + " output");
    ExpectBitIdentical(expected.grad_input, lstm.Backward(grad_output),
                       where + " input gradient");
    ExpectBitIdentical(expected.grad_input, lstm.Backward(grad_output),
                       where + " second input gradient");
    const char* names[] = {"W_x", "W_h", "bias"};
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectBitIdentical(want[i], params[i]->grad,
                         where + " " + names[i] + " gradient");
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layers, LstmOracleTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 15, 16, 17, 64, 192),
                       ::testing::Values<size_t>(13, 104),
                       ::testing::Values<size_t>(13, 64), ::testing::Bool()),
    [](const auto& info) {
      return "batch" + std::to_string(std::get<0>(info.param)) + "_in" +
             std::to_string(std::get<1>(info.param)) + "_hidden" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_seq" : "_last");
    });

/// (batch, in features, out features).
using DenseCase = std::tuple<size_t, size_t, size_t>;

class DenseOracleTest : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseOracleTest, MatchesReferenceProductsBitwise) {
  const auto [batch, in, out] = GetParam();
  apots::Rng rng(31 + in + out);
  Dense dense(in, out, &rng);
  const auto params = dense.Parameters();
  params[1]->value = Random(params[1]->value.shape(), 32);
  const Tensor input = Random({batch, in}, 33 + batch);
  const Tensor grad_output = Random({batch, out}, 34 + batch);

  Tensor want_w(params[0]->value.shape()), want_b(params[1]->value.shape());
  std::vector<Tensor> expected;
  for (int pass = 0; pass < 2; ++pass) {
    expected = lstm_reference::RunDense(params[0]->value, params[1]->value,
                                        input, grad_output, &want_w, &want_b);
  }

  OnEveryPool([&](const std::string& where) {
    ZeroAllGrads(params);
    tensor::Workspace ws;
    ExpectBitIdentical(expected[0], *dense.RecordForward(input, &ws),
                       where + " output");
    ExpectBitIdentical(expected[1], dense.Backward(grad_output),
                       where + " input gradient");
    ExpectBitIdentical(expected[1], dense.Backward(grad_output),
                       where + " second input gradient");
    ExpectBitIdentical(want_w, params[0]->grad, where + " weight gradient");
    ExpectBitIdentical(want_b, params[1]->grad, where + " bias gradient");
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layers, DenseOracleTest,
    ::testing::Combine(::testing::Values<size_t>(1, 16, 17, 64),
                       ::testing::Values<size_t>(13, 64),
                       ::testing::Values<size_t>(1, 17)),
    [](const auto& info) {
      return "batch" + std::to_string(std::get<0>(info.param)) + "_in" +
             std::to_string(std::get<1>(info.param)) + "_out" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace apots::nn
