#ifndef APOTS_ATTACK_ATTACKER_H_
#define APOTS_ATTACK_ATTACKER_H_

#include <cstdint>
#include <vector>

#include "attack/budget.h"
#include "core/apots_model.h"
#include "util/status.h"

namespace apots::attack {

/// Knobs shared by both perturbation generators.
struct AttackConfig {
  PlausibilityBudget budget;
  /// Ascent iterations (PGD steps / SPSA rounds).
  int steps = 8;
  /// Per-iteration step size in km/h; 0 selects 2.5 * epsilon / steps,
  /// the usual PGD schedule that can traverse the ball and come back.
  float step_kmh = 0.0f;
  /// SPSA only: gradient estimates averaged per round.
  int spsa_samples = 8;
  /// SPSA only: probe magnitude c in km/h.
  float spsa_c_kmh = 2.0f;
  /// SPSA only: seeds the Rademacher probe directions. PGD draws no
  /// randomness at all (deterministic ascent from a zero start), which is
  /// what makes its plans bitwise-reproducible.
  uint64_t seed = 7;

  Status Validate() const;
};

/// Accounting of one plan construction.
struct AttackStats {
  double clean_loss = 0.0;     ///< scaled-space MSE before the attack
  double attacked_loss = 0.0;  ///< scaled-space MSE under the final plan
  uint64_t queries = 0;        ///< anchors evaluated through the runtime
  uint64_t grad_passes = 0;    ///< forward+backward passes (PGD only)
};

/// Builds adversarial perturbation plans against a trained model. Both
/// generators attack the *speed matrix* — the cells feeding the anchors'
/// input windows — under the sensor-plausibility budget, and evaluate
/// candidate perturbations through the zero-alloc InferenceRuntime (the
/// same batched path and precision serving uses, so loss numbers are the
/// serving numbers). The model and its dataset binding are read-only: attackers
/// work on an internal dataset copy and return a PerturbationPlan the
/// caller can apply wherever it wants (poisoned feed, corrupted copy).
///
/// White-box PGD: iterated sign-of-gradient ascent on the prediction MSE,
/// gradients obtained by backpropagating through the predictor to its
/// input batch and scattering window-cell gradients onto dataset cells
/// (windows overlap, so cell gradients accumulate across anchors).
/// Deterministic: zero start, fixed batch grid, serial accumulation — two
/// runs from equal inputs produce bitwise-identical plans on the
/// reference kernel path.
///
/// Black-box SPSA: simultaneous-perturbation gradient estimates from
/// paired loss queries (delta +- c * Rademacher), the query-only threat
/// model of Poudel & Li — no gradients, no weights, just predictions.
class Attacker {
 public:
  explicit Attacker(AttackConfig config) : config_(config) {}

  /// Perturbation plan maximizing prediction error over `anchors`.
  /// Attackable cells are the speed-window cells of the anchors, clipped
  /// to intervals >= `attack_from` (use the stream start so warmup ground
  /// truth stays honest; 0 attacks everything). The returned plan is
  /// already projected onto the budget.
  Result<PerturbationPlan> BuildPgdPlan(apots::core::ApotsModel* model,
                                        const std::vector<long>& anchors,
                                        long attack_from,
                                        AttackStats* stats = nullptr);

  Result<PerturbationPlan> BuildSpsaPlan(apots::core::ApotsModel* model,
                                         const std::vector<long>& anchors,
                                         long attack_from,
                                         AttackStats* stats = nullptr);

  const AttackConfig& config() const { return config_; }

 private:
  AttackConfig config_;
};

}  // namespace apots::attack

#endif  // APOTS_ATTACK_ATTACKER_H_
