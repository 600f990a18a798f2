#include "nn/module.h"

#include <cmath>

#include "util/logging.h"

namespace apots::nn {

tensor::Workspace* RecordStamp::Check(const std::string& layer) const {
  APOTS_CHECK(ws_ != nullptr)
      << layer << ": Backward before a recorded forward";
  APOTS_CHECK_EQ(ws_->generation(), generation_)
      << layer << ": Backward after its workspace was reset";
  return ws_;
}

void ZeroAllGrads(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->ZeroGrad();
}

size_t CountWeights(const std::vector<Parameter*>& params) {
  size_t n = 0;
  for (const Parameter* p : params) n += p->value.size();
  return n;
}

double GradNorm(const std::vector<Parameter*>& params) {
  double sum_sq = 0.0;
  for (const Parameter* p : params) {
    const float* g = p->grad.data();
    for (size_t i = 0; i < p->grad.size(); ++i) {
      sum_sq += static_cast<double>(g[i]) * g[i];
    }
  }
  return std::sqrt(sum_sq);
}

void ClipGradNorm(const std::vector<Parameter*>& params, double max_norm) {
  const double norm = GradNorm(params);
  if (norm <= max_norm || norm == 0.0) return;
  const float scale = static_cast<float>(max_norm / norm);
  for (Parameter* p : params) {
    float* g = p->grad.data();
    for (size_t i = 0; i < p->grad.size(); ++i) g[i] *= scale;
  }
}

}  // namespace apots::nn
