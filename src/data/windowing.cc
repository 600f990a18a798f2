#include "data/windowing.h"

#include <algorithm>
#include <unordered_set>

#include "util/logging.h"
#include "util/rng.h"

namespace apots::data {

using apots::traffic::TrafficDataset;

SampleSplit MakeSplit(const TrafficDataset& dataset, int alpha, int beta,
                      double test_fraction, SplitStrategy strategy,
                      uint64_t seed) {
  APOTS_CHECK_GT(alpha, 0);
  APOTS_CHECK_GE(beta, 0);
  APOTS_CHECK_GT(test_fraction, 0.0);
  APOTS_CHECK_LT(test_fraction, 1.0);
  const long total = dataset.num_intervals();
  const long first_anchor = alpha;           // inputs reach t - alpha
  const long last_anchor = total - beta - 1;  // target reaches t + beta
  APOTS_CHECK_LT(first_anchor, last_anchor);

  apots::Rng rng(seed);
  SampleSplit split;

  if (strategy == SplitStrategy::kBlockedByDay) {
    const int days = dataset.num_days();
    const int ipd = dataset.intervals_per_day();
    std::vector<size_t> day_order(days);
    for (int d = 0; d < days; ++d) day_order[d] = static_cast<size_t>(d);
    rng.Shuffle(&day_order);
    const int num_test_days =
        std::max(1, static_cast<int>(days * test_fraction + 0.5));
    std::unordered_set<int> test_days(day_order.begin(),
                                      day_order.begin() + num_test_days);
    for (long t = first_anchor; t <= last_anchor; ++t) {
      // A sample belongs to the day of its anchor; it goes to train only
      // when its full [t-alpha, t+beta] window avoids every test day.
      const int anchor_day = static_cast<int>(t / ipd);
      if (test_days.count(anchor_day) > 0) {
        split.test.push_back(t);
        continue;
      }
      const int first_day = static_cast<int>((t - alpha) / ipd);
      const int last_day = static_cast<int>((t + beta) / ipd);
      bool touches_test = false;
      for (int d = first_day; d <= last_day; ++d) {
        if (test_days.count(d) > 0) {
          touches_test = true;
          break;
        }
      }
      if (!touches_test) split.train.push_back(t);
    }
    return split;
  }

  // kRandomAnchors.
  std::vector<long> anchors;
  anchors.reserve(static_cast<size_t>(last_anchor - first_anchor + 1));
  for (long t = first_anchor; t <= last_anchor; ++t) anchors.push_back(t);
  std::vector<size_t> order(anchors.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  const size_t num_test = static_cast<size_t>(anchors.size() * test_fraction);
  std::vector<long> test;
  test.reserve(num_test);
  for (size_t i = 0; i < num_test; ++i) test.push_back(anchors[order[i]]);
  std::vector<long> train_candidates;
  train_candidates.reserve(anchors.size() - num_test);
  for (size_t i = num_test; i < order.size(); ++i) {
    train_candidates.push_back(anchors[order[i]]);
  }
  split.test = test;
  split.train = DiscardOverlapping(train_candidates, test, alpha, beta);
  std::sort(split.test.begin(), split.test.end());
  std::sort(split.train.begin(), split.train.end());
  return split;
}

std::vector<long> DiscardOverlapping(const std::vector<long>& anchors,
                                     const std::vector<long>& reference,
                                     int alpha, int beta) {
  // Two windows [a-alpha, a+beta] and [b-alpha, b+beta] intersect iff
  // |a - b| <= alpha + beta. Sort the reference and binary-search.
  std::vector<long> sorted_ref = reference;
  std::sort(sorted_ref.begin(), sorted_ref.end());
  const long radius = alpha + beta;
  std::vector<long> kept;
  kept.reserve(anchors.size());
  for (long a : anchors) {
    auto it = std::lower_bound(sorted_ref.begin(), sorted_ref.end(),
                               a - radius);
    if (it != sorted_ref.end() && *it <= a + radius) continue;
    kept.push_back(a);
  }
  return kept;
}

}  // namespace apots::data
