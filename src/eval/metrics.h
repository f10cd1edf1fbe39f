#ifndef FVAE_EVAL_METRICS_H_
#define FVAE_EVAL_METRICS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace fvae::eval {

/// Area under the ROC curve for binary labels, computed by the rank-sum
/// (Mann-Whitney U) formulation with midrank tie handling. Returns 0.5 when
/// either class is empty.
double Auc(std::span<const float> scores, std::span<const uint8_t> labels);

/// Average precision: mean of precision@rank over positive positions, with
/// ties broken pessimistically by sorting on (score desc, label asc).
/// Returns 0 when there are no positives.
double AveragePrecision(std::span<const float> scores,
                        std::span<const uint8_t> labels);

/// Per-query mean of AveragePrecision; queries with no positives are
/// skipped. This is the paper's mAP.
double MeanAveragePrecision(
    const std::vector<std::vector<float>>& scores_per_query,
    const std::vector<std::vector<uint8_t>>& labels_per_query);

/// Per-query mean of AUC; queries with a single class are skipped.
double MeanAuc(const std::vector<std::vector<float>>& scores_per_query,
               const std::vector<std::vector<uint8_t>>& labels_per_query);

}  // namespace fvae::eval

#endif  // FVAE_EVAL_METRICS_H_
