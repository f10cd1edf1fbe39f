#include "eval/metrics.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/check.h"

namespace fvae::eval {

double Auc(std::span<const float> scores, std::span<const uint8_t> labels) {
  FVAE_CHECK(scores.size() == labels.size()) << "AUC size mismatch";
  const size_t n = scores.size();
  size_t num_pos = 0;
  for (uint8_t label : labels) num_pos += label != 0;
  const size_t num_neg = n - num_pos;
  if (num_pos == 0 || num_neg == 0) return 0.5;

  // Midrank assignment: sort ascending by score, average ranks over ties.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double pos_rank_sum = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * double(i + j) + 1.0;  // 1-based
    for (size_t t = i; t <= j; ++t) {
      if (labels[order[t]] != 0) pos_rank_sum += midrank;
    }
    i = j + 1;
  }
  const double u =
      pos_rank_sum - double(num_pos) * double(num_pos + 1) / 2.0;
  return u / (double(num_pos) * double(num_neg));
}

double AveragePrecision(std::span<const float> scores,
                        std::span<const uint8_t> labels) {
  FVAE_CHECK(scores.size() == labels.size()) << "AP size mismatch";
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return labels[a] < labels[b];  // ties: negatives first (pessimistic)
  });
  size_t hits = 0;
  double precision_sum = 0.0;
  for (size_t rank = 0; rank < n; ++rank) {
    if (labels[order[rank]] != 0) {
      ++hits;
      precision_sum += double(hits) / double(rank + 1);
    }
  }
  return hits == 0 ? 0.0 : precision_sum / double(hits);
}

double MeanAveragePrecision(
    const std::vector<std::vector<float>>& scores_per_query,
    const std::vector<std::vector<uint8_t>>& labels_per_query) {
  FVAE_CHECK(scores_per_query.size() == labels_per_query.size());
  double total = 0.0;
  size_t used = 0;
  for (size_t q = 0; q < scores_per_query.size(); ++q) {
    bool has_pos = false;
    for (uint8_t label : labels_per_query[q]) has_pos |= (label != 0);
    if (!has_pos) continue;
    total += AveragePrecision(scores_per_query[q], labels_per_query[q]);
    ++used;
  }
  return used == 0 ? 0.0 : total / double(used);
}

double MeanAuc(const std::vector<std::vector<float>>& scores_per_query,
               const std::vector<std::vector<uint8_t>>& labels_per_query) {
  FVAE_CHECK(scores_per_query.size() == labels_per_query.size());
  double total = 0.0;
  size_t used = 0;
  for (size_t q = 0; q < scores_per_query.size(); ++q) {
    size_t pos = 0;
    for (uint8_t label : labels_per_query[q]) pos += label != 0;
    if (pos == 0 || pos == labels_per_query[q].size()) continue;
    total += Auc(scores_per_query[q], labels_per_query[q]);
    ++used;
  }
  return used == 0 ? 0.5 : total / double(used);
}

}  // namespace fvae::eval
