#ifndef APOTS_DATA_WINDOWING_H_
#define APOTS_DATA_WINDOWING_H_

#include <cstdint>
#include <vector>

#include "traffic/traffic_dataset.h"

namespace apots::data {

/// How test anchors are chosen from the timeline.
enum class SplitStrategy {
  /// Whole days are assigned to test; train anchors whose input or target
  /// window touches a test day are discarded (the paper's "discard the
  /// overlapped samples from the training set").
  kBlockedByDay,
  /// Anchors are sampled i.i.d.; train anchors overlapping any test
  /// window are discarded. Faithful to a literal reading of the paper but
  /// discards most of the training set — kept for ablation.
  kRandomAnchors,
};

/// The anchors (value of "present time t") of the train/test samples. An
/// anchor t uses inputs over [t - alpha, t - 1] and target t + beta; both
/// ends must be inside the dataset.
struct SampleSplit {
  std::vector<long> train;
  std::vector<long> test;
};

/// Sliding-window sample extraction + train/test split.
///
/// `test_fraction` is the share of anchors (or days) assigned to test;
/// the split is deterministic in `seed`.
SampleSplit MakeSplit(const apots::traffic::TrafficDataset& dataset,
                      int alpha, int beta, double test_fraction,
                      SplitStrategy strategy, uint64_t seed);

/// Removes from `anchors` every anchor whose [t-alpha, t+beta] window
/// intersects a window of `reference` (helper exposed for tests).
std::vector<long> DiscardOverlapping(const std::vector<long>& anchors,
                                     const std::vector<long>& reference,
                                     int alpha, int beta);

}  // namespace apots::data

#endif  // APOTS_DATA_WINDOWING_H_
