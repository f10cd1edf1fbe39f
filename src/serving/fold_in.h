#ifndef FVAE_SERVING_FOLD_IN_H_
#define FVAE_SERVING_FOLD_IN_H_

#include <span>
#include <vector>

#include "common/hot_path.h"
#include "core/fvae_model.h"
#include "math/matrix.h"

namespace fvae::serving {

/// Fold-in encoder for cold users over a frozen FieldVae: turns raw sparse
/// field vectors into embeddings when a user's embedding was never
/// materialized offline.
///
/// Lock-free and safe for any number of concurrent callers: the model's
/// fold-in pass is const (the layers' Infer), and each calling thread keeps
/// its own FieldVae::FoldInScratch, so the RPC workers encode in parallel.
class FvaeFoldInEncoder {
 public:
  /// `model` must outlive the encoder and must not be trained concurrently.
  explicit FvaeFoldInEncoder(const core::FieldVae* model) : model_(model) {}

  /// Encodes `users` in one forward pass into a caller-owned matrix
  /// (users.size() x the model's latent_dim()).
  /// Zero-allocation once warm: the calling thread's scratch and `out` grow
  /// to the high-water batch shape and are reused ever after (FVAE_NOALLOC
  /// is checked transitively by fvae_lint and witnessed by serving_test's
  /// operator-new interposer).
  void EncodeBatchInto(std::span<const core::RawUserFeatures* const> users,
                       Matrix* out) const FVAE_HOT FVAE_NOALLOC {
    model_->EncodeFoldInInto(users, &ThisThread().layers, out);
  }

  /// Width of every embedding this encoder produces.
  size_t dim() const { return model_->latent_dim(); }

  /// One user's embedding, encoded on the calling thread. Allocates only
  /// the returned row.
  std::vector<float> Encode(const core::RawUserFeatures& user) const {
    const core::RawUserFeatures* users[] = {&user};
    Matrix& mu = ThisThread().mu;
    EncodeBatchInto(users, &mu);
    return std::vector<float>(mu.Row(0), mu.Row(0) + mu.cols());
  }

 private:
  struct ThreadScratch {
    core::FieldVae::FoldInScratch layers;
    Matrix mu;
  };

  /// The calling thread's scratch, shared by every encoder the thread
  /// runs: buffers only ever grow, so a differently shaped model just
  /// raises the high-water mark.
  static ThreadScratch& ThisThread() {
    thread_local ThreadScratch scratch;
    return scratch;
  }

  const core::FieldVae* model_;
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_FOLD_IN_H_
