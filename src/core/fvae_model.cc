#include "core/fvae_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "math/kernels/kernel_table.h"
#include "nn/losses.h"
#include "obs/trace.h"

namespace fvae::core {

namespace {

/// Normalized per-field reconstruction weights alpha_k / |alpha| (Eq. 7).
std::vector<float> NormalizedAlpha(const std::vector<float>& alpha,
                                   size_t num_fields) {
  std::vector<float> weights =
      alpha.empty() ? std::vector<float>(num_fields, 1.0f) : alpha;
  FVAE_CHECK(weights.size() == num_fields)
      << "alpha size " << weights.size() << " != fields " << num_fields;
  float total = 0.0f;
  for (float a : weights) {
    FVAE_CHECK(a >= 0.0f) << "negative alpha";
    total += std::fabs(a);
  }
  FVAE_CHECK(total > 0.0f) << "all-zero alpha";
  for (float& a : weights) a /= total;
  return weights;
}

/// One user's first encoder layer, out = tanh(bias + sum value * row) over
/// `dim` floats, where `user_rows(add)` calls add(value, row) per input-table
/// row of the user. Training and inference share it: same rows, same bits.
template <typename UserRows>
void FirstLayerRow(const float* bias, size_t dim, const UserRows& user_rows,
                   float* out) {
  std::copy(bias, bias + dim, out);
  user_rows([&](float value, const float* row) {
    Kernels().axpy(value, row, out, dim);
  });
  Kernels().tanh_inplace(out, dim);
}

}  // namespace

struct FieldVae::StepScratch {
  // Encoder inputs of the batch, CSR per field like the dataset: user i's
  // refs into input table k are field_refs[k][field_begin[k][i],
  // field_begin[k][i + 1]), in the order the dataset lists the features.
  std::vector<std::vector<nn::EmbeddingTable::SparseRef>> field_refs;
  std::vector<std::vector<uint32_t>> field_begin;  // batch + 1 offsets each
  Matrix h1;  // tanh output of the embedding-sum first layer (B x H1)

  // One field's softmax candidates, written by the step's prep task.
  struct FieldCandidates {
    std::vector<Candidate> candidates;  // the batch union
    std::vector<uint64_t> chosen_ids;   // empty: the field has no candidate
    std::unordered_map<uint64_t, uint32_t> position;  // candidate -> column
    std::vector<uint32_t> rows;  // output-table row of each candidate
  };
  std::vector<FieldCandidates> fields;
  // Set once the prep task has filled every field's candidates.
  Mutex prep_mutex;
  CondVar prep_done_cv;
  bool prep_done FVAE_GUARDED_BY(prep_mutex) = false;

  // Candidate weight rows as strip panels: Wc^T (logits), Wc (hidden grad).
  std::vector<float> wc_t_panel;
  std::vector<float> wc_panel;
  std::vector<float> bc;       // candidate biases
  // batch x candidates: logits, then their gradients. One field's are done
  // with before the next field's start, so the fields share it.
  Matrix logits_grad;
  std::vector<double> row_nll;  // per-user NLL, summed serially in row order
};

FieldVae::FieldVae(const FvaeConfig& config,
                   std::vector<FieldSchema> field_schemas)
    : config_(config),
      field_schemas_(std::move(field_schemas)),
      rng_(config.seed),
      step_scratch_(std::make_unique<StepScratch>()) {
  FVAE_CHECK(!field_schemas_.empty()) << "FVAE needs at least one field";
  FVAE_CHECK(config_.latent_dim > 0);
  FVAE_CHECK(!config_.encoder_hidden.empty());
  FVAE_CHECK(!config_.decoder_hidden.empty());
  FVAE_CHECK(config_.sampling_rate > 0.0 && config_.sampling_rate <= 1.0);

  const size_t h1 = config_.encoder_hidden.front();
  const size_t enc_out = config_.encoder_hidden.back();
  const size_t dec_out = config_.decoder_hidden.back();

  for (size_t k = 0; k < field_schemas_.size(); ++k) {
    input_tables_.push_back(std::make_unique<nn::EmbeddingTable>(
        h1, /*with_bias=*/false, config_.embedding_init_stddev,
        config_.seed * 31 + k));
    output_tables_.push_back(std::make_unique<nn::EmbeddingTable>(
        dec_out, /*with_bias=*/true, config_.embedding_init_stddev,
        config_.seed * 37 + k));
  }

  first_bias_.Resize(1, h1);
  first_bias_grad_.Resize(1, h1);

  if (config_.encoder_hidden.size() > 1) {
    encoder_trunk_ = std::make_unique<nn::Mlp>(config_.encoder_hidden, rng_);
  }
  mu_head_ = std::make_unique<nn::DenseLayer>(enc_out, config_.latent_dim,
                                              rng_);
  logvar_head_ = std::make_unique<nn::DenseLayer>(enc_out,
                                                  config_.latent_dim, rng_);

  std::vector<size_t> dec_dims;
  dec_dims.push_back(config_.latent_dim);
  for (size_t d : config_.decoder_hidden) dec_dims.push_back(d);
  decoder_trunk_ = std::make_unique<nn::Mlp>(dec_dims, rng_);

  std::vector<nn::ParamRef> dense_params;
  dense_params.push_back({&first_bias_, &first_bias_grad_});
  if (encoder_trunk_) encoder_trunk_->CollectParams(&dense_params);
  mu_head_->CollectParams(&dense_params);
  logvar_head_->CollectParams(&dense_params);
  decoder_trunk_->CollectParams(&dense_params);
  dense_optimizer_ = std::make_unique<nn::AdamOptimizer>(
      std::move(dense_params), config_.dense_learning_rate);
}

FieldVae::~FieldVae() = default;

const Matrix& FieldVae::EncodeForTraining(const MultiFieldDataset& dataset,
                                          std::span<const uint32_t> users,
                                          ThreadPool* pool, Matrix* mu,
                                          Matrix* logvar) {
  FVAE_CHECK(dataset.num_fields() == field_schemas_.size())
      << "dataset field count mismatch";
  const size_t batch = users.size();
  const size_t h1_dim = config_.encoder_hidden.front();
  StepScratch& scratch = *step_scratch_;

  // Hash inserts stay on this thread; new rows are created deferred and
  // filled with their keys' draws on the pool below.
  obs::TraceSpan resolve_span("train.embed.resolve");
  const size_t num_fields = field_schemas_.size();
  scratch.field_refs.resize(num_fields);
  scratch.field_begin.resize(num_fields);
  for (size_t k = 0; k < num_fields; ++k) {
    scratch.field_refs[k].clear();
    scratch.field_begin[k].assign(1, 0);
  }
  for (size_t i = 0; i < batch; ++i) {
    for (size_t k = 0; k < num_fields; ++k) {
      nn::EmbeddingTable& table = *input_tables_[k];
      std::vector<nn::EmbeddingTable::SparseRef>& refs = scratch.field_refs[k];
      for (const FeatureEntry& e : dataset.UserField(users[i], k)) {
        refs.push_back({static_cast<uint32_t>(i),
                        table.GetOrCreateRowDeferred(e.id), e.value});
      }
      scratch.field_begin[k].push_back(static_cast<uint32_t>(refs.size()));
    }
  }
  resolve_span.End();

  obs::TraceSpan init_span("train.embed.init");
  for (auto& table : input_tables_) table->InitPendingRows(pool);
  init_span.End();

  obs::TraceSpan gather_span("train.embed.gather");
  Matrix& h1 = scratch.h1;
  h1.Resize(batch, h1_dim);
  ParallelForRange(pool, 0, batch, /*align=*/1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      FirstLayerRow(first_bias_.Row(0), h1_dim, [&](const auto& add) {
        for (size_t k = 0; k < num_fields; ++k) {
          const std::vector<uint32_t>& begin = scratch.field_begin[k];
          for (uint32_t j = begin[i]; j < begin[i + 1]; ++j) {
            const nn::EmbeddingTable::SparseRef& ref = scratch.field_refs[k][j];
            add(ref.value, input_tables_[k]->Row(ref.row).data());
          }
        }
      }, h1.Row(i));
    }
  });
  gather_span.End();

  const Matrix& enc_out =
      encoder_trunk_ ? encoder_trunk_->Forward(h1, pool) : h1;
  mu_head_->Forward(enc_out, mu, pool);
  logvar_head_->Forward(enc_out, logvar, pool);
  // Clamped for numeric safety: exp() in the KL term and reparameterization.
  for (size_t i = 0; i < logvar->size(); ++i) {
    logvar->data()[i] = std::clamp(logvar->data()[i], -10.0f, 10.0f);
  }
  return enc_out;
}

template <typename UserFieldFeatures>
void FieldVae::EncodeMu(size_t batch, const UserFieldFeatures& features,
                        FoldInScratch* scratch, Matrix* mu) const {
  // h1 over the features the input tables know; cold feature IDs are
  // skipped.
  const size_t h1_dim = config_.encoder_hidden.front();
  Matrix& h1 = scratch->h1;
  h1.Resize(batch, h1_dim);
  for (size_t i = 0; i < batch; ++i) {
    FirstLayerRow(first_bias_.Row(0), h1_dim, [&](const auto& add) {
      for (size_t k = 0; k < input_tables_.size(); ++k) {
        const nn::EmbeddingTable& table = *input_tables_[k];
        for (const FeatureEntry& e : features(i, k)) {
          const auto found = table.FindRow(e.id);
          if (!found.has_value()) continue;  // cold feature at inference
          add(e.value, table.Row(*found).data());
        }
      }
    }, h1.Row(i));
  }
  // The const inference pass writes only into the caller's scratch.
  const Matrix& enc_out =
      encoder_trunk_ ? encoder_trunk_->Infer(h1, &scratch->trunk) : h1;
  mu_head_->Infer(enc_out, mu);
}

Matrix FieldVae::Encode(const MultiFieldDataset& dataset,
                        std::span<const uint32_t> users) const {
  FVAE_CHECK(dataset.num_fields() == field_schemas_.size())
      << "dataset field count mismatch";
  FoldInScratch scratch;
  Matrix mu;
  EncodeMu(
      users.size(),
      [&](size_t i, size_t k) { return dataset.UserField(users[i], k); },
      &scratch, &mu);
  return mu;
}

Matrix FieldVae::EncodeFoldIn(
    std::span<const RawUserFeatures* const> users) const {
  FoldInScratch scratch;
  Matrix mu;
  EncodeFoldInInto(users, &scratch, &mu);
  return mu;
}

void FieldVae::EncodeFoldInInto(std::span<const RawUserFeatures* const> users,
                                FoldInScratch* scratch, Matrix* mu) const {
  for (const RawUserFeatures* user : users) {
    FVAE_CHECK(user != nullptr);
    FVAE_CHECK(user->size() == field_schemas_.size())
        << "fold-in user has " << user->size() << " fields, model expects "
        << field_schemas_.size();
  }
  EncodeMu(
      users.size(),
      [users](size_t i, size_t k) {
        return std::span<const FeatureEntry>((*users[i])[k]);
      },
      scratch, mu);
}

Matrix FieldVae::DecoderHidden(const Matrix& z) const {
  std::vector<Matrix> blocks;
  decoder_trunk_->Infer(z, &blocks);
  return std::move(blocks.back());
}

Matrix FieldVae::ScoreField(const Matrix& z, size_t k,
                            std::span<const uint64_t> candidate_ids) const {
  FVAE_CHECK(k < field_schemas_.size()) << "field out of range";
  const Matrix hdec = DecoderHidden(z);

  const nn::EmbeddingTable& table = *output_tables_[k];
  const size_t num_candidates = candidate_ids.size();
  Matrix logits(z.rows(), num_candidates);
  for (size_t c = 0; c < num_candidates; ++c) {
    auto row = table.FindRow(candidate_ids[c]);
    if (!row.has_value()) continue;  // unseen candidate: logit 0
    std::span<const float> w = table.Row(*row);
    const float b = table.bias(*row);
    for (size_t i = 0; i < z.rows(); ++i) {
      const float* h = hdec.Row(i);
      double acc = b;
      for (size_t d = 0; d < w.size(); ++d) acc += double(h[d]) * w[d];
      logits(i, c) = static_cast<float>(acc);
    }
  }
  return logits;
}

Matrix FieldVae::EncodeAndScore(const MultiFieldDataset& dataset,
                                std::span<const uint32_t> users, size_t k,
                                std::span<const uint64_t> candidate_ids)
    const {
  const Matrix z = Encode(dataset, users);
  return ScoreField(z, k, candidate_ids);
}

size_t FieldVae::KnownFeatures(size_t k) const {
  FVAE_CHECK(k < input_tables_.size());
  return input_tables_[k]->num_rows();
}

size_t FieldVae::ParameterCount() const {
  size_t total = 0;
  for (const nn::ParamRef& p : dense_optimizer_->params()) {
    total += p.value->size();
  }
  for (size_t k = 0; k < field_schemas_.size(); ++k) {
    total += input_tables_[k]->num_rows() * input_tables_[k]->dim();
    total += output_tables_[k]->num_rows() * (output_tables_[k]->dim() + 1);
  }
  return total;
}

std::vector<const Matrix*> FieldVae::DenseParams() const {
  std::vector<const Matrix*> params;
  for (const nn::ParamRef& p : dense_optimizer_->params()) {
    params.push_back(p.value);
  }
  return params;
}

std::vector<Matrix*> FieldVae::DenseParams() {
  std::vector<Matrix*> params;
  for (const nn::ParamRef& p : dense_optimizer_->params()) {
    params.push_back(p.value);
  }
  return params;
}

void FieldVae::PrepareCandidates(const MultiFieldDataset& dataset,
                                 std::span<const uint32_t> users) {
  obs::TraceSpan prep_span("train.fields.prep");
  std::vector<StepScratch::FieldCandidates>& fields = step_scratch_->fields;
  fields.resize(field_schemas_.size());
  // The batch union stays per step: its iteration order fixes the order
  // sampling draws candidates in, and a map reused across steps would tie
  // that order to earlier steps' bucket counts (a resumed run would then
  // sample differently from the uninterrupted one).
  std::unordered_map<uint64_t, uint32_t> freq;
  for (size_t k = 0; k < fields.size(); ++k) {
    nn::EmbeddingTable& out_table = *output_tables_[k];
    StepScratch::FieldCandidates& field = fields[k];
    // Batch union of observed features with in-batch frequencies.
    freq.clear();
    for (uint32_t u : users) {
      for (const FeatureEntry& e : dataset.UserField(u, k)) ++freq[e.id];
    }
    field.candidates.clear();
    if (config_.batched_softmax) {
      field.candidates.reserve(freq.size());
      for (const auto& [id, f] : freq) field.candidates.push_back({id, f});
    } else {
      // Legacy full softmax: every feature the model has ever seen, plus
      // this batch's new ones.
      for (const auto& [id, f] : freq) out_table.GetOrCreateRowDeferred(id);
      for (const auto& [id, row] : out_table.Items()) {
        auto it = freq.find(id);
        field.candidates.push_back({id, it == freq.end() ? 0u : it->second});
      }
    }
    // Dense fields and the full softmax keep every candidate (kNone draws
    // nothing); no candidate at all leaves the field empty.
    const bool sample_field =
        field_schemas_[k].is_sparse && config_.batched_softmax;
    field.chosen_ids = SampleCandidates(
        field.candidates, config_.sampling_rate,
        sample_field ? config_.sampling_strategy : SamplingStrategy::kNone,
        rng_);
    const size_t num_cand = field.chosen_ids.size();
    field.position.clear();
    field.rows.resize(num_cand);
    for (size_t c = 0; c < num_cand; ++c) {
      field.position[field.chosen_ids[c]] = static_cast<uint32_t>(c);
      field.rows[c] = out_table.GetOrCreateRowDeferred(field.chosen_ids[c]);
    }
  }
  prep_span.End();
  MutexLock lock(step_scratch_->prep_mutex);
  step_scratch_->prep_done = true;
  step_scratch_->prep_done_cv.NotifyAll();
}

StepStats FieldVae::TrainStep(const MultiFieldDataset& dataset,
                              std::span<const uint32_t> users, float beta,
                              ThreadPool* pool) {
  StepStats stats = ComputeGradients(dataset, users, beta, pool);
  ApplyUpdates(pool);
  return stats;
}

StepStats FieldVae::ComputeGradients(const MultiFieldDataset& dataset,
                                     std::span<const uint32_t> users,
                                     float beta, ThreadPool* pool) {
  FVAE_CHECK(!users.empty()) << "empty batch";
  const size_t batch = users.size();
  const size_t num_fields = field_schemas_.size();
  const std::vector<float> alpha_w =
      NormalizedAlpha(config_.alpha, num_fields);

  StepStats stats;
  stats.field_nll.assign(num_fields, 0.0);
  stats.candidates_per_field.assign(num_fields, 0);

  // ---- Forward, beside the candidate prep ----
  // eps is drawn first, so the sampling draws that follow in the prep task
  // see the rng_ stream of a fully serial step. The encoder and decoder
  // touch neither rng_ nor any output table, so the prep task runs beside
  // them: on one pool worker, or inline without a pool.
  obs::TraceSpan forward_span("train.forward");
  const size_t latent = config_.latent_dim;
  Matrix eps(batch, latent);
  for (size_t i = 0; i < eps.size(); ++i) {
    eps.data()[i] = static_cast<float>(rng_.Normal());
  }
  if (pool == nullptr) {
    PrepareCandidates(dataset, users);
  } else {
    pool->Submit(
        [this, &dataset, users] { PrepareCandidates(dataset, users); });
  }

  Matrix mu, logvar;
  const Matrix& enc_out =
      EncodeForTraining(dataset, users, pool, &mu, &logvar);

  // ---- Reparameterization ----
  // std_dev = exp(0.5 * logvar), computed once through the vectorized exp
  // kernel and reused by the logvar gradient in the backward pass below.
  Matrix z(batch, latent);
  Matrix std_dev(batch, latent);
  for (size_t i = 0; i < std_dev.size(); ++i) {
    std_dev.data()[i] = 0.5f * logvar.data()[i];
  }
  Kernels().exp_inplace(std_dev.data(), std_dev.size());
  for (size_t i = 0; i < z.size(); ++i) {
    z.data()[i] = mu.data()[i] + std_dev.data()[i] * eps.data()[i];
  }

  // ---- Decoder trunk forward ----
  const Matrix& hdec = decoder_trunk_->Forward(z, pool);
  const size_t dec_dim = hdec.cols();
  Matrix hdec_grad(batch, dec_dim);
  forward_span.End();

  // ---- Per-field batched softmax + likelihood ----
  // Row init, the candidate copies, the fused per-user pass (logits GEMM,
  // NLL and gradient, hidden-gradient GEMM) and the per-candidate gradient
  // accumulation go to the pool, each writing disjoint rows.
  obs::TraceSpan fields_span("train.fields");
  StepScratch& scratch = *step_scratch_;
  {
    obs::TraceSpan wait_span("train.fields.prep_wait");
    MutexLock lock(scratch.prep_mutex);
    while (!scratch.prep_done) scratch.prep_done_cv.Wait(scratch.prep_mutex);
    scratch.prep_done = false;  // armed for the next step
  }

  for (size_t k = 0; k < num_fields; ++k) {
    nn::EmbeddingTable& out_table = *output_tables_[k];
    StepScratch::FieldCandidates& field = scratch.fields[k];
    const size_t num_cand = field.chosen_ids.size();
    if (num_cand == 0) continue;
    stats.candidates_per_field[k] = num_cand;

    obs::TraceSpan init_span("train.embed.init");
    out_table.InitPendingRows(pool);
    init_span.End();
    // Both strip panels in one pass over the rows; chunks are whole strips.
    obs::TraceSpan gather_span("train.fields.gather");
    ResizeStripPanel(dec_dim, num_cand, &scratch.wc_t_panel);
    ResizeStripPanel(num_cand, dec_dim, &scratch.wc_panel);
    scratch.bc.resize(num_cand);
    ParallelForRange(pool, 0, num_cand, kGemmStripCols,
                     [&](size_t lo, size_t hi) {
      for (size_t c = lo; c < hi; ++c) {
        const float* w = out_table.Row(field.rows[c]).data();
        PackStripColumn(w, dec_dim, c, scratch.wc_t_panel.data());
        PackStripRow(w, num_cand, dec_dim, c, scratch.wc_panel.data());
        scratch.bc[c] = out_table.bias(field.rows[c]);
      }
    });
    gather_span.End();

    // One pass over row tiles of users: logits = hdec * Wc^T + bc, the
    // multinomial NLL and its gradient in place, then the tile's share of
    // hdec_grad += grad * Wc while the tile is still in cache. Each row's
    // loss lands in row_nll and is summed serially below, so the field loss
    // does not depend on how rows were split.
    obs::TraceSpan rows_span("train.fields.rows");
    Matrix& logits_grad = scratch.logits_grad;
    logits_grad.Reshape(batch, num_cand);
    scratch.row_nll.assign(batch, 0.0);
    const float weight = alpha_w[k] / static_cast<float>(batch);
    ParallelForRange(pool, 0, batch, kGemmRowTile, [&](size_t lo, size_t hi) {
      std::fill(logits_grad.Row(lo), logits_grad.Row(hi), 0.0f);
      GemmStripsRows(hdec, scratch.wc_t_panel.data(), &logits_grad, lo, hi);
      std::vector<float> counts(num_cand, 0.0f);
      std::vector<uint32_t> touched;
      for (size_t i = lo; i < hi; ++i) {
        float* row = logits_grad.Row(i);
        // row += 1 * bc: the product is exact, so this is the plain sum.
        Kernels().axpy(1.0f, scratch.bc.data(), row, num_cand);
        touched.clear();
        for (const FeatureEntry& e : dataset.UserField(users[i], k)) {
          auto it = field.position.find(e.id);
          if (it == field.position.end()) continue;  // sampled out this step
          counts[it->second] += e.value;
          touched.push_back(it->second);
        }
        if (touched.empty()) {
          std::fill(row, row + num_cand, 0.0f);
          continue;
        }
        scratch.row_nll[i] = nn::MultinomialNllInPlace({row, num_cand}, counts,
                                                       touched, weight);
        for (uint32_t p : touched) counts[p] = 0.0f;
      }
      GemmStripsRows(logits_grad, scratch.wc_panel.data(), &hdec_grad, lo,
                     hi);
    });
    double field_loss = 0.0;
    for (double nll : scratch.row_nll) field_loss += nll;
    stats.field_nll[k] = field_loss / double(batch);
    rows_span.End();

    // Backprop into the candidate rows, straight into their gradient
    // slots: the candidates are distinct and the first rows this table
    // touches in the step, so candidate c gets slot c. The bias
    // gradient is the column sum of logits_grad, taken in row order while
    // the GEMM packs it.
    obs::TraceSpan row_grad_span("train.fields.gemm_row_grad");
    const nn::EmbeddingTable::GradSlots slots =
        out_table.TouchNewRows(field.rows);
    GemmTNPooled(logits_grad, hdec, slots.grads, pool, slots.bias_grads);
  }
  fields_span.End();

  // ---- KL term ----
  obs::TraceSpan backward_span("train.backward");
  stats.kl = nn::GaussianKl(mu, logvar);
  stats.loss = beta * stats.kl;
  for (size_t k = 0; k < num_fields; ++k) {
    stats.loss += alpha_w[k] * stats.field_nll[k];
  }

  // ---- Backward: decoder trunk -> z -> (mu, logvar) ----
  Matrix z_grad;
  decoder_trunk_->Backward(z, &hdec_grad, &z_grad, pool);

  Matrix mu_grad = z_grad;
  Matrix logvar_grad(batch, latent);
  for (size_t i = 0; i < z_grad.size(); ++i) {
    logvar_grad.data()[i] =
        z_grad.data()[i] * eps.data()[i] * 0.5f * std_dev.data()[i];
  }
  nn::GaussianKlBackward(mu, logvar, beta / static_cast<float>(batch),
                         &mu_grad, &logvar_grad);

  // ---- Heads -> encoder trunk -> first layer ----
  Matrix henc_grad_mu, henc_grad_logvar;
  mu_head_->Backward(enc_out, mu_grad, &henc_grad_mu, pool);
  logvar_head_->Backward(enc_out, logvar_grad, &henc_grad_logvar, pool);
  henc_grad_mu.Add(henc_grad_logvar);

  Matrix h1_grad;
  if (encoder_trunk_) {
    encoder_trunk_->Backward(scratch.h1, &henc_grad_mu, &h1_grad, pool);
  } else {
    h1_grad = std::move(henc_grad_mu);
  }

  // The first layer's tanh and bias.
  nn::TanhBackward(scratch.h1, &h1_grad);
  nn::ColumnSums(h1_grad, &first_bias_grad_);

  obs::TraceSpan scatter_span("train.embed.scatter");
  for (size_t k = 0; k < num_fields; ++k) {
    input_tables_[k]->ScatterGrad(scratch.field_refs[k], h1_grad, pool);
  }
  return stats;
}

void FieldVae::ApplyUpdates(ThreadPool* pool) {
  obs::TraceSpan update_span("train.update");
  dense_optimizer_->Step();
  obs::TraceSpan sparse_span("train.update.sparse");
  for (size_t k = 0; k < field_schemas_.size(); ++k) {
    input_tables_[k]->ApplyGradients(config_.sparse_learning_rate, pool);
    output_tables_[k]->ApplyGradients(config_.sparse_learning_rate, pool);
  }
}

}  // namespace fvae::core
