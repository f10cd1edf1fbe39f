#include "baselines/mult_vae.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "common/stopwatch.h"
#include "data/batching.h"
#include "math/kernels/kernel_table.h"
#include "math/vector_ops.h"

namespace fvae::baselines {

namespace {
constexpr float kLogVarClamp = 10.0f;
constexpr double kLog2Pi = 1.8378770664093453;  // log(2*pi)

/// Sum over dims of log N(z; mu, exp(logvar)) for one row.
double LogGaussian(const float* z, const float* mu, const float* logvar,
                   size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double var = std::exp(double(logvar[d]));
    const double diff = double(z[d]) - mu[d];
    acc += -0.5 * (kLog2Pi + logvar[d] + diff * diff / var);
  }
  return acc;
}
}  // namespace

MultVaeModel::MultVaeModel(Options options)
    : options_(options), rng_(options.seed) {
  FVAE_CHECK(options_.hidden_dim > 0 && options_.latent_dim > 0);
  FVAE_CHECK(options_.batch_size > 0 && options_.epochs > 0);
}

std::string MultVaeModel::Name() const {
  switch (options_.variant) {
    case Variant::kDae:
      return "Mult-DAE";
    case Variant::kVae:
      return "Mult-VAE";
    case Variant::kRecVae:
      return "RecVAE";
  }
  return "?";
}

MultVaeModel::SparseRow MultVaeModel::MakeRow(const MultiFieldDataset& data,
                                              uint32_t user) const {
  SparseRow row;
  double sq_sum = 0.0;
  for (size_t k = 0; k < data.num_fields(); ++k) {
    for (const FeatureEntry& e : data.UserField(user, k)) {
      auto col = indexer_.Column(static_cast<uint32_t>(k), e.id);
      if (!col.has_value()) continue;
      row.cols.push_back(*col);
      row.raw_counts.push_back(e.value);
      row.total_count += e.value;
      sq_sum += double(e.value) * e.value;
    }
  }
  // L2-normalized input (Liang et al.'s preprocessing).
  const float inv_norm =
      sq_sum > 0.0 ? static_cast<float>(1.0 / std::sqrt(sq_sum)) : 0.0f;
  row.values.resize(row.raw_counts.size());
  for (size_t i = 0; i < row.raw_counts.size(); ++i) {
    row.values[i] = row.raw_counts[i] * inv_norm;
  }
  return row;
}

void MultVaeModel::EncodeRows(const std::vector<SparseRow>& rows, Matrix* mu,
                              Matrix* logvar, Matrix* h1, Rng* dropout_rng,
                              std::vector<SparseRow>* dropped) const {
  const size_t batch = rows.size();
  const size_t hidden = options_.hidden_dim;
  h1->Resize(batch, hidden);
  if (dropped != nullptr) dropped->assign(batch, {});

  const float keep_scale =
      options_.dropout > 0.0f ? 1.0f / (1.0f - options_.dropout) : 1.0f;
  for (size_t i = 0; i < batch; ++i) {
    float* out = h1->Row(i);
    const float* bias = b1_.Row(0);
    for (size_t d = 0; d < hidden; ++d) out[d] = bias[d];
    const SparseRow& row = rows[i];
    for (size_t j = 0; j < row.cols.size(); ++j) {
      float value = row.values[j];
      if (dropout_rng != nullptr && options_.dropout > 0.0f) {
        if (dropout_rng->Bernoulli(options_.dropout)) continue;
        value *= keep_scale;
      }
      const float* e_row = embed_.Row(row.cols[j]);
      for (size_t d = 0; d < hidden; ++d) out[d] += value * e_row[d];
      if (dropped != nullptr) {
        (*dropped)[i].cols.push_back(row.cols[j]);
        (*dropped)[i].values.push_back(value);
      }
    }
    Kernels().tanh_inplace(out, hidden);
  }

  mu_head_->Infer(*h1, mu);
  if (options_.variant != Variant::kDae) {
    logvar_head_->Infer(*h1, logvar);
    for (size_t i = 0; i < logvar->size(); ++i) {
      logvar->data()[i] =
          std::clamp(logvar->data()[i], -kLogVarClamp, kLogVarClamp);
    }
  }
}

void MultVaeModel::EncodeRowsOld(const std::vector<SparseRow>& rows,
                                 Matrix* mu, Matrix* logvar) const {
  const size_t batch = rows.size();
  const size_t hidden = options_.hidden_dim;
  const size_t latent = options_.latent_dim;
  Matrix h1(batch, hidden);
  for (size_t i = 0; i < batch; ++i) {
    float* out = h1.Row(i);
    const float* bias = old_b1_.Row(0);
    for (size_t d = 0; d < hidden; ++d) out[d] = bias[d];
    for (size_t j = 0; j < rows[i].cols.size(); ++j) {
      const float* e_row = old_embed_.Row(rows[i].cols[j]);
      const float value = rows[i].values[j];
      for (size_t d = 0; d < hidden; ++d) out[d] += value * e_row[d];
    }
    Kernels().tanh_inplace(out, hidden);
  }
  Gemm(h1, old_mu_w_, mu);
  Gemm(h1, old_lv_w_, logvar);
  for (size_t i = 0; i < batch; ++i) {
    for (size_t d = 0; d < latent; ++d) {
      (*mu)(i, d) += old_mu_b_(0, d);
      (*logvar)(i, d) = std::clamp(
          (*logvar)(i, d) + old_lv_b_(0, d), -kLogVarClamp, kLogVarClamp);
    }
  }
}

void MultVaeModel::SnapshotEncoder() {
  old_embed_ = embed_;
  old_b1_ = b1_;
  old_mu_w_ = mu_head_->weight();
  old_mu_b_ = mu_head_->bias();
  old_lv_w_ = logvar_head_->weight();
  old_lv_b_ = logvar_head_->bias();
  has_snapshot_ = true;
}

void MultVaeModel::Fit(const MultiFieldDataset& train) {
  if (options_.hash_bits > 0) {
    indexer_ = FeatureIndexer::BuildHashed(train.num_fields(),
                                           options_.hash_bits);
  } else {
    indexer_ = FeatureIndexer::BuildExact(train);
  }
  const size_t J = indexer_.num_columns();
  const size_t hidden = options_.hidden_dim;
  const size_t latent = options_.latent_dim;
  FVAE_CHECK(J > 0) << "empty feature space";

  // Parameter init.
  const float embed_scale = std::sqrt(6.0f / float(hidden + 64));
  embed_.Resize(J, hidden);
  for (size_t i = 0; i < embed_.size(); ++i) {
    embed_.data()[i] = static_cast<float>(rng_.Uniform(-embed_scale,
                                                       embed_scale));
  }
  embed_grad_.Resize(J, hidden);
  b1_.Resize(1, hidden);
  b1_grad_.Resize(1, hidden);
  mu_head_ = std::make_unique<nn::DenseLayer>(hidden, latent, rng_);
  if (options_.variant != Variant::kDae) {
    logvar_head_ = std::make_unique<nn::DenseLayer>(hidden, latent, rng_);
  }
  dec_ = std::make_unique<nn::Mlp>(std::vector<size_t>{latent, hidden}, rng_);
  out_weight_.Resize(J, hidden);
  for (size_t i = 0; i < out_weight_.size(); ++i) {
    out_weight_.data()[i] =
        static_cast<float>(rng_.Uniform(-embed_scale, embed_scale));
  }
  out_weight_grad_.Resize(J, hidden);
  out_bias_.Resize(1, J);
  out_bias_grad_.Resize(1, J);

  std::vector<nn::ParamRef> params;
  params.push_back({&embed_, &embed_grad_});
  params.push_back({&b1_, &b1_grad_});
  mu_head_->CollectParams(&params);
  if (logvar_head_) logvar_head_->CollectParams(&params);
  dec_->CollectParams(&params);
  params.push_back({&out_weight_, &out_weight_grad_});
  params.push_back({&out_bias_, &out_bias_grad_});
  optimizer_ = std::make_unique<nn::AdamOptimizer>(std::move(params),
                                                   options_.learning_rate);

  // Pre-extract sparse rows once.
  std::vector<SparseRow> all_rows(train.num_users());
  for (size_t u = 0; u < train.num_users(); ++u) {
    all_rows[u] = MakeRow(train, static_cast<uint32_t>(u));
  }

  fit_stats_ = FitStats{};
  Stopwatch watch;
  BatchIterator batches(train.num_users(), options_.batch_size,
                        options_.seed ^ 0xB00F);
  std::vector<uint32_t> batch;
  std::vector<SparseRow> rows;
  bool stop = false;
  for (size_t epoch = 0; epoch < options_.epochs && !stop; ++epoch) {
    if (options_.variant == Variant::kRecVae) SnapshotEncoder();
    while (batches.Next(&batch)) {
      rows.clear();
      rows.reserve(batch.size());
      for (uint32_t u : batch) rows.push_back(all_rows[u]);
      const float anneal =
          std::min(1.0f, float(fit_stats_.steps + 1) /
                             float(std::max<size_t>(1,
                                                    options_.anneal_steps)));
      TrainStep(rows, anneal);
      ++fit_stats_.steps;
      fit_stats_.users_processed += batch.size();
      if (options_.time_budget_seconds > 0.0 &&
          watch.ElapsedSeconds() >= options_.time_budget_seconds) {
        stop = true;
        break;
      }
    }
    batches.NewEpoch();
  }
  fit_stats_.seconds = watch.ElapsedSeconds();
}

double MultVaeModel::TrainStep(const std::vector<SparseRow>& rows,
                               float anneal) {
  const size_t batch = rows.size();
  const size_t hidden = options_.hidden_dim;
  const size_t latent = options_.latent_dim;
  const size_t J = indexer_.num_columns();
  const bool variational = options_.variant != Variant::kDae;

  // ---- Encoder forward (with input dropout) ----
  Matrix mu, logvar, h1;
  std::vector<SparseRow> dropped;
  EncodeRows(rows, &mu, &logvar, &h1, &rng_, &dropped);

  // ---- Latent ----
  Matrix z = mu;
  Matrix eps;
  if (variational) {
    eps.Resize(batch, latent);
    for (size_t i = 0; i < eps.size(); ++i) {
      eps.data()[i] = static_cast<float>(rng_.Normal());
      z.data()[i] = mu.data()[i] +
                    std::exp(0.5f * logvar.data()[i]) * eps.data()[i];
    }
  }

  // ---- Decoder forward: full softmax over all J columns ----
  const Matrix& hdec = dec_->Forward(z);
  Matrix logits;
  GemmNT(hdec, out_weight_, &logits);  // batch x J
  for (size_t i = 0; i < batch; ++i) {
    float* row = logits.Row(i);
    const float* ob = out_bias_.Row(0);
    for (size_t j = 0; j < J; ++j) row[j] += ob[j];
  }

  // ---- Multinomial NLL + gradient over the full vocabulary ----
  double loss = 0.0;
  Matrix logits_grad(batch, J);
  const float inv_batch = 1.0f / float(batch);
  std::vector<float> log_probs(J);
  for (size_t i = 0; i < batch; ++i) {
    const float* row = logits.Row(i);
    std::copy(row, row + J, log_probs.begin());
    LogSoftmaxInPlace(log_probs);
    const SparseRow& target = rows[i];
    for (size_t j = 0; j < target.cols.size(); ++j) {
      loss -= double(target.raw_counts[j]) * log_probs[target.cols[j]];
    }
    float* grad = logits_grad.Row(i);
    const float n = target.total_count;
    for (size_t j = 0; j < J; ++j) {
      grad[j] = n * std::exp(log_probs[j]) * inv_batch;
    }
    for (size_t j = 0; j < target.cols.size(); ++j) {
      grad[target.cols[j]] -= target.raw_counts[j] * inv_batch;
    }
  }
  loss /= double(batch);

  // ---- Backward through the decoder ----
  Matrix hdec_grad;
  Gemm(logits_grad, out_weight_, &hdec_grad);  // batch x hidden
  GemmTN(logits_grad, hdec, &out_weight_grad_);  // J x hidden
  nn::ColumnSums(logits_grad, &out_bias_grad_);
  Matrix z_grad;
  dec_->Backward(z, &hdec_grad, &z_grad);

  // ---- KL / prior terms ----
  Matrix mu_grad(batch, latent);
  Matrix logvar_grad(batch, latent);
  if (variational) {
    if (options_.variant == Variant::kVae) {
      const float beta_eff = options_.beta * anneal * inv_batch;
      for (size_t i = 0; i < mu.size(); ++i) {
        mu_grad.data()[i] = beta_eff * mu.data()[i];
        logvar_grad.data()[i] =
            beta_eff * 0.5f * (std::exp(logvar.data()[i]) - 1.0f);
      }
    } else {
      // RecVAE composite prior, single-sample KL estimate.
      Matrix old_mu, old_lv;
      if (has_snapshot_) {
        EncodeRowsOld(rows, &old_mu, &old_lv);
      }
      const float* w = options_.prior_weights;
      const double log_w[3] = {std::log(std::max(1e-12f, w[0])),
                               std::log(std::max(1e-12f, w[1])),
                               std::log(std::max(1e-12f, w[2]))};
      for (size_t i = 0; i < batch; ++i) {
        const float beta_u =
            options_.gamma * std::max(1.0f, rows[i].total_count) * anneal *
            inv_batch;
        const float* z_row = z.Row(i);
        const float* mu_row = mu.Row(i);
        const float* lv_row = logvar.Row(i);
        // Component parameters: {standard, old posterior, wide}.
        std::vector<float> zeros(latent, 0.0f);
        std::vector<float> wide_lv(latent, options_.wide_logvar);
        const float* c_mu[3] = {zeros.data(),
                                has_snapshot_ ? old_mu.Row(i) : zeros.data(),
                                zeros.data()};
        std::vector<float> old_lv_fallback(latent, 0.0f);
        const float* c_lv[3] = {
            zeros.data(),
            has_snapshot_ ? old_lv.Row(i) : old_lv_fallback.data(),
            wide_lv.data()};
        double comp_log[3];
        for (int c = 0; c < 3; ++c) {
          comp_log[c] =
              log_w[c] + LogGaussian(z_row, c_mu[c], c_lv[c], latent);
        }
        const double max_log =
            std::max({comp_log[0], comp_log[1], comp_log[2]});
        double denom = 0.0;
        double resp[3];
        for (int c = 0; c < 3; ++c) {
          resp[c] = std::exp(comp_log[c] - max_log);
          denom += resp[c];
        }
        for (int c = 0; c < 3; ++c) resp[c] /= denom;

        for (size_t d = 0; d < latent; ++d) {
          const double var = std::exp(double(lv_row[d]));
          const double diff = double(z_row[d]) - mu_row[d];
          // d log q / dz and d log p / dz.
          const double dlogq_dz = -diff / var;
          double dlogp_dz = 0.0;
          for (int c = 0; c < 3; ++c) {
            const double cvar = std::exp(double(c_lv[c][d]));
            dlogp_dz += resp[c] * (-(double(z_row[d]) - c_mu[c][d]) / cvar);
          }
          const float dz_kl =
              beta_u * static_cast<float>(dlogq_dz - dlogp_dz);
          z_grad(i, d) += dz_kl;
          // Direct (non-reparam) derivatives of log q.
          mu_grad(i, d) += beta_u * static_cast<float>(diff / var);
          logvar_grad(i, d) +=
              beta_u *
              static_cast<float>(-0.5 + 0.5 * diff * diff / var);
        }
      }
    }
    // Reparameterization chain into mu / logvar.
    for (size_t i = 0; i < z_grad.size(); ++i) {
      mu_grad.data()[i] += z_grad.data()[i];
      logvar_grad.data()[i] += z_grad.data()[i] * eps.data()[i] * 0.5f *
                               std::exp(0.5f * logvar.data()[i]);
    }
  } else {
    mu_grad = z_grad;
  }

  // ---- Heads -> h1 -> embedding scatter ----
  Matrix h1_grad_mu, h1_grad_lv;
  mu_head_->Backward(h1, mu_grad, &h1_grad_mu);
  if (variational) {
    logvar_head_->Backward(h1, logvar_grad, &h1_grad_lv);
    h1_grad_mu.Add(h1_grad_lv);
  }
  nn::TanhBackward(h1, &h1_grad_mu);
  nn::ColumnSums(h1_grad_mu, &b1_grad_);
  for (size_t i = 0; i < batch; ++i) {
    const float* g = h1_grad_mu.Row(i);
    const SparseRow& row = dropped[i];
    for (size_t j = 0; j < row.cols.size(); ++j) {
      float* eg = embed_grad_.Row(row.cols[j]);
      const float value = row.values[j];
      for (size_t d = 0; d < hidden; ++d) eg[d] += value * g[d];
    }
  }

  optimizer_->Step();
  return loss;
}

Matrix MultVaeModel::Embed(const MultiFieldDataset& data,
                           std::span<const uint32_t> users) const {
  FVAE_CHECK(optimizer_ != nullptr) << "Fit must be called before Embed";
  std::vector<SparseRow> rows;
  rows.reserve(users.size());
  for (uint32_t u : users) rows.push_back(MakeRow(data, u));
  Matrix mu, logvar, h1;
  EncodeRows(rows, &mu, &logvar, &h1, nullptr, nullptr);
  return mu;
}

Matrix MultVaeModel::Score(const MultiFieldDataset& input,
                           std::span<const uint32_t> users, size_t field,
                           std::span<const uint64_t> candidates) const {
  const Matrix z = Embed(input, users);
  std::vector<Matrix> blocks;
  const Matrix& hdec = dec_->Infer(z, &blocks);
  Matrix scores(users.size(), candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    auto col = indexer_.Column(static_cast<uint32_t>(field), candidates[c]);
    if (!col.has_value()) continue;
    const float* w = out_weight_.Row(*col);
    const float b = out_bias_(0, *col);
    for (size_t i = 0; i < users.size(); ++i) {
      const float* h = hdec.Row(i);
      double acc = b;
      for (size_t d = 0; d < options_.hidden_dim; ++d) {
        acc += double(h[d]) * w[d];
      }
      scores(i, c) = static_cast<float>(acc);
    }
  }
  return scores;
}

}  // namespace fvae::baselines
