#include "core/model_io.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "common/crc32.h"

namespace fvae::core {

namespace {

constexpr char kMagic[4] = {'F', 'V', 'M', 'D'};
constexpr uint32_t kVersion = 3;

/// Section tags, written in strictly increasing order. kEnd terminates the
/// file; any other tag is rejected.
enum SectionTag : uint32_t {
  kEnd = 0,
  kConfig = 1,
  kSchemas = 2,
  kDense = 3,
  kTables = 4,
  kOptimizer = 5,
  kCursor = 6,
  /// The model RNG stream for cursor-less exports (SaveFieldVae): without
  /// it a "warm start" would draw different reparameterization noise than
  /// the saved run and diverge on the first step. Trainer checkpoints carry
  /// the same state inside kCursor instead.
  kRng = 7,
};

constexpr std::string_view SectionName(uint32_t tag) {
  switch (tag) {
    case kConfig: return "config";
    case kSchemas: return "schemas";
    case kDense: return "dense";
    case kTables: return "tables";
    case kOptimizer: return "optimizer";
    case kCursor: return "cursor";
    case kRng: return "rng";
    default: return "unknown";
  }
}

// ---------------------------------------------------------------------------
// Writing primitives on top of common/binary_io.h (any std::ostream: the
// per-section std::ostringstream payload builders).

void WriteString(std::ostream& out, const std::string& s) {
  WritePod(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void WriteMatrix(std::ostream& out, const Matrix& m) {
  WritePod(out, static_cast<uint64_t>(m.rows()));
  WritePod(out, static_cast<uint64_t>(m.cols()));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
}

void WriteTable(std::ostream& out, const nn::EmbeddingTable& table) {
  WritePod(out, static_cast<uint64_t>(table.dim()));
  WritePod(out, static_cast<uint8_t>(table.with_bias() ? 1 : 0));
  const auto items = table.Items();
  WritePod(out, static_cast<uint64_t>(items.size()));
  for (const auto& [key, row] : items) {
    WritePod(out, key);
    std::span<const float> weights = table.Row(row);
    out.write(reinterpret_cast<const char*>(weights.data()),
              static_cast<std::streamsize>(weights.size() * sizeof(float)));
    const float bias = table.with_bias() ? table.bias(row) : 0.0f;
    WritePod(out, bias);
  }
}

void WriteSizeVector(std::ostream& out, const std::vector<size_t>& v) {
  WritePod(out, static_cast<uint32_t>(v.size()));
  for (size_t x : v) WritePod(out, static_cast<uint64_t>(x));
}

void WriteDoubleVector(std::ostream& out, const std::vector<double>& v) {
  WritePod(out, static_cast<uint32_t>(v.size()));
  for (double x : v) WritePod(out, x);
}

void WriteRngState(std::ostream& out, const RngState& state) {
  for (uint64_t lane : state.s) WritePod(out, lane);
  WritePod(out, static_cast<uint8_t>(state.has_cached_normal ? 1 : 0));
  WritePod(out, state.cached_normal);
}

/// Frames one section: tag, payload size, payload, payload CRC.
void WriteSection(std::ostream& out, uint32_t tag, std::string_view payload) {
  WritePod(out, tag);
  WritePod(out, static_cast<uint64_t>(payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  WritePod(out, Crc32(payload));
}

// ---------------------------------------------------------------------------
// Reading primitives. The loader reads the whole file into memory first
// (checksums need the raw bytes anyway), then parses via a BufferReader.

bool ReadString(BufferReader& in, std::string* s) {
  uint32_t len = 0;
  if (!in.ReadPod(&len) || len > (1u << 20)) return false;
  s->resize(len);
  return in.ReadBytes(s->data(), len);
}

bool ReadMatrixInto(BufferReader& in, Matrix* m) {
  uint64_t rows = 0, cols = 0;
  if (!in.ReadPod(&rows) || !in.ReadPod(&cols)) return false;
  if (rows != m->rows() || cols != m->cols()) return false;
  return in.ReadBytes(m->data(), m->size() * sizeof(float));
}

bool ReadTableInto(BufferReader& in, nn::EmbeddingTable* table) {
  uint64_t dim = 0;
  uint8_t with_bias = 0;
  uint64_t count = 0;
  if (!in.ReadPod(&dim) || !in.ReadPod(&with_bias) || !in.ReadPod(&count)) {
    return false;
  }
  if (dim != table->dim() || (with_bias != 0) != table->with_bias()) {
    return false;
  }
  // Every entry is a key, dim weights and a bias.
  const uint64_t entry_bytes = sizeof(uint64_t) + (dim + 1) * sizeof(float);
  if (count > in.remaining() / entry_bytes) return false;
  // Keys first, in file order: the table rebuilds the slot layout that
  // listed them, so a model saved right after this load is the same file.
  std::vector<uint64_t> keys(count);
  std::vector<float> weights(dim);
  float bias = 0.0f;
  BufferReader keys_pass = in;
  for (uint64_t& key : keys) {
    if (!keys_pass.ReadPod(&key) ||
        !keys_pass.ReadBytes(weights.data(), dim * sizeof(float)) ||
        !keys_pass.ReadPod(&bias)) {
      return false;
    }
  }
  table->RestoreKeys(keys);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    if (!in.ReadPod(&key) ||
        !in.ReadBytes(weights.data(), dim * sizeof(float)) ||
        !in.ReadPod(&bias)) {
      return false;
    }
    table->RestoreRow(key, weights, bias);
  }
  return true;
}

bool ReadSizeVector(BufferReader& in, std::vector<size_t>* v) {
  uint32_t n = 0;
  if (!in.ReadPod(&n) || n > 64) return false;
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    if (!in.ReadPod(&x)) return false;
    (*v)[i] = static_cast<size_t>(x);
  }
  return true;
}

bool ReadDoubleVector(BufferReader& in, std::vector<double>* v) {
  uint32_t n = 0;
  if (!in.ReadPod(&n) || n > (1u << 24)) return false;
  v->resize(n);
  for (double& x : *v) {
    if (!in.ReadPod(&x)) return false;
  }
  return true;
}

bool ReadRngState(BufferReader& in, RngState* state) {
  for (uint64_t& lane : state->s) {
    if (!in.ReadPod(&lane)) return false;
  }
  uint8_t has_cached = 0;
  if (!in.ReadPod(&has_cached) || !in.ReadPod(&state->cached_normal)) {
    return false;
  }
  state->has_cached_normal = has_cached != 0;
  return true;
}

// ---------------------------------------------------------------------------
// Section payloads.

void BuildConfigPayload(std::ostream& out, const FvaeConfig& config) {
  WritePod(out, static_cast<uint64_t>(config.latent_dim));
  WriteSizeVector(out, config.encoder_hidden);
  WriteSizeVector(out, config.decoder_hidden);
  WritePod(out, static_cast<uint32_t>(config.alpha.size()));
  for (float a : config.alpha) WritePod(out, a);
  WritePod(out, config.beta);
  WritePod(out, static_cast<uint64_t>(config.anneal_steps));
  WritePod(out, uint32_t{0});  // reserved; ParseConfig requires 0
  WritePod(out, static_cast<uint32_t>(config.sampling_strategy));
  WritePod(out, config.sampling_rate);
  WritePod(out, static_cast<uint8_t>(config.batched_softmax ? 1 : 0));
  WritePod(out, config.dense_learning_rate);
  WritePod(out, config.sparse_learning_rate);
  WritePod(out, config.embedding_init_stddev);
  WritePod(out, config.seed);
}

void BuildSchemaPayload(std::ostream& out, const FieldVae& model) {
  WritePod(out, static_cast<uint32_t>(model.num_fields()));
  for (const FieldSchema& schema : model.field_schemas()) {
    WriteString(out, schema.name);
    WritePod(out, static_cast<uint8_t>(schema.is_sparse ? 1 : 0));
  }
}

void BuildDensePayload(std::ostream& out, const FieldVae& model) {
  const auto params = model.DenseParams();
  WritePod(out, static_cast<uint32_t>(params.size()));
  for (const Matrix* param : params) WriteMatrix(out, *param);
}

void BuildTablesPayload(std::ostream& out, const FieldVae& model) {
  for (size_t k = 0; k < model.num_fields(); ++k) {
    WriteTable(out, model.input_table(k));
    WriteTable(out, model.output_table(k));
  }
}

/// AdaGrad accumulators are stored keyed by feature ID, not by row index:
/// DynamicHashTable assigns row indices in insertion order, and a loader
/// re-inserts in Items() (slot) order, so row numbering is not stable
/// across a save/load cycle but keys are.
void BuildOptimizerPayload(std::ostream& out, const FieldVae& model) {
  const nn::AdamOptimizer& adam = model.dense_optimizer();
  WritePod(out, adam.step_count());
  WritePod(out, static_cast<uint32_t>(adam.first_moments().size()));
  for (const Matrix& m : adam.first_moments()) WriteMatrix(out, m);
  for (const Matrix& v : adam.second_moments()) WriteMatrix(out, v);
  for (size_t k = 0; k < model.num_fields(); ++k) {
    for (const nn::EmbeddingTable* table :
         {&model.input_table(k), &model.output_table(k)}) {
      const auto items = table->Items();
      WritePod(out, static_cast<uint64_t>(items.size()));
      for (const auto& [key, row] : items) {
        WritePod(out, key);
        std::span<const float> accum = table->AdagradRow(row);
        out.write(reinterpret_cast<const char*>(accum.data()),
                  static_cast<std::streamsize>(accum.size() * sizeof(float)));
        const float bias_accum =
            table->with_bias() ? table->adagrad_bias(row) : 0.0f;
        WritePod(out, bias_accum);
      }
    }
  }
}

void BuildCursorPayload(std::ostream& out, const TrainingCursor& cursor) {
  WritePod(out, cursor.epoch);
  WritePod(out, cursor.batch_in_epoch);
  WritePod(out, cursor.step);
  WritePod(out, cursor.users_processed);
  WritePod(out, cursor.epoch_loss_accum);
  WritePod(out, cursor.shuffle_seed);
  WritePod(out, cursor.prior_seconds);
  WriteDoubleVector(out, cursor.epoch_loss);
  WriteDoubleVector(out, cursor.candidate_accum);
  WriteRngState(out, cursor.model_rng);
}

// ---------------------------------------------------------------------------
// Section parsers.

Status ParseConfig(BufferReader& in, FvaeConfig* config) {
  uint64_t latent = 0;
  if (!in.ReadPod(&latent)) return Status::IoError("truncated config");
  config->latent_dim = static_cast<size_t>(latent);
  if (!ReadSizeVector(in, &config->encoder_hidden) ||
      !ReadSizeVector(in, &config->decoder_hidden)) {
    return Status::InvalidArgument("bad hidden dims");
  }
  uint32_t alpha_count = 0;
  if (!in.ReadPod(&alpha_count) || alpha_count > 1024) {
    return Status::InvalidArgument("bad alpha count");
  }
  config->alpha.resize(alpha_count);
  for (float& a : config->alpha) {
    if (!in.ReadPod(&a)) return Status::IoError("truncated alpha");
  }
  uint64_t anneal = 0;
  uint32_t reserved = 0;
  uint32_t strategy = 0;
  uint8_t batched = 1;
  if (!in.ReadPod(&config->beta) || !in.ReadPod(&anneal) ||
      !in.ReadPod(&reserved) || !in.ReadPod(&strategy) ||
      !in.ReadPod(&config->sampling_rate) || !in.ReadPod(&batched) ||
      !in.ReadPod(&config->dense_learning_rate) ||
      !in.ReadPod(&config->sparse_learning_rate) ||
      !in.ReadPod(&config->embedding_init_stddev) ||
      !in.ReadPod(&config->seed)) {
    return Status::IoError("truncated config");
  }
  // The word after anneal_steps once named an anneal schedule; only linear
  // (0) ever shipped, so any other value is a corrupt or foreign file.
  if (reserved != 0) {
    return Status::InvalidArgument("reserved config word is not zero");
  }
  config->anneal_steps = static_cast<size_t>(anneal);
  config->sampling_strategy = static_cast<SamplingStrategy>(strategy);
  config->batched_softmax = batched != 0;
  return Status::Ok();
}

Status ParseSchemas(BufferReader& in, std::vector<FieldSchema>* schemas) {
  uint32_t num_fields = 0;
  if (!in.ReadPod(&num_fields) || num_fields == 0 || num_fields > 1024) {
    return Status::InvalidArgument("bad field count");
  }
  schemas->resize(num_fields);
  for (FieldSchema& schema : *schemas) {
    uint8_t sparse = 0;
    if (!ReadString(in, &schema.name) || !in.ReadPod(&sparse)) {
      return Status::IoError("truncated schema");
    }
    schema.is_sparse = sparse != 0;
  }
  return Status::Ok();
}

Status ParseDense(BufferReader& in, FieldVae* model) {
  uint32_t param_count = 0;
  if (!in.ReadPod(&param_count)) return Status::IoError("truncated params");
  auto params = model->DenseParams();
  if (param_count != params.size()) {
    return Status::InvalidArgument("dense parameter count mismatch");
  }
  for (Matrix* param : params) {
    if (!ReadMatrixInto(in, param)) {
      return Status::InvalidArgument("dense parameter shape mismatch");
    }
  }
  return Status::Ok();
}

Status ParseTables(BufferReader& in, FieldVae* model) {
  for (size_t k = 0; k < model->num_fields(); ++k) {
    if (!ReadTableInto(in, &model->input_table(k)) ||
        !ReadTableInto(in, &model->output_table(k))) {
      return Status::InvalidArgument("embedding table mismatch");
    }
  }
  return Status::Ok();
}

Status ParseOptimizer(BufferReader& in, FieldVae* model) {
  int64_t step_count = 0;
  uint32_t param_count = 0;
  if (!in.ReadPod(&step_count) || !in.ReadPod(&param_count)) {
    return Status::IoError("truncated optimizer state");
  }
  auto params = model->DenseParams();
  if (step_count < 0 || param_count != params.size()) {
    return Status::InvalidArgument("optimizer moment count mismatch");
  }
  std::vector<Matrix> first, second;
  first.reserve(param_count);
  second.reserve(param_count);
  for (std::vector<Matrix>* moments : {&first, &second}) {
    for (uint32_t i = 0; i < param_count; ++i) {
      Matrix m(params[i]->rows(), params[i]->cols());
      if (!ReadMatrixInto(in, &m)) {
        return Status::InvalidArgument("optimizer moment shape mismatch");
      }
      moments->push_back(std::move(m));
    }
  }
  model->dense_optimizer().RestoreState(step_count, std::move(first),
                                        std::move(second));
  for (size_t k = 0; k < model->num_fields(); ++k) {
    for (nn::EmbeddingTable* table :
         {&model->input_table(k), &model->output_table(k)}) {
      uint64_t count = 0;
      if (!in.ReadPod(&count)) {
        return Status::IoError("truncated optimizer state");
      }
      std::vector<float> accum(table->dim());
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t key = 0;
        float bias_accum = 0.0f;
        if (!in.ReadPod(&key) ||
            !in.ReadBytes(accum.data(), accum.size() * sizeof(float)) ||
            !in.ReadPod(&bias_accum)) {
          return Status::IoError("truncated optimizer state");
        }
        const auto row = table->FindRow(key);
        if (!row.has_value()) {
          return Status::InvalidArgument(
              "optimizer accumulator for unknown feature key");
        }
        table->RestoreAdagradRow(*row, accum, bias_accum);
      }
    }
  }
  return Status::Ok();
}

Status ParseCursor(BufferReader& in, FieldVae* model, TrainingCursor* cursor) {
  if (!in.ReadPod(&cursor->epoch) || !in.ReadPod(&cursor->batch_in_epoch) ||
      !in.ReadPod(&cursor->step) || !in.ReadPod(&cursor->users_processed) ||
      !in.ReadPod(&cursor->epoch_loss_accum) ||
      !in.ReadPod(&cursor->shuffle_seed) ||
      !in.ReadPod(&cursor->prior_seconds) ||
      !ReadDoubleVector(in, &cursor->epoch_loss) ||
      !ReadDoubleVector(in, &cursor->candidate_accum) ||
      !ReadRngState(in, &cursor->model_rng)) {
    return Status::IoError("truncated cursor");
  }
  model->set_rng_state(cursor->model_rng);
  return Status::Ok();
}

Status ParseRng(BufferReader& in, FieldVae* model) {
  RngState model_rng;
  if (!ReadRngState(in, &model_rng)) return Status::IoError("truncated rng");
  model->set_rng_state(model_rng);
  return Status::Ok();
}

Status SaveImpl(const FieldVae& model, const TrainingCursor* cursor,
                const std::string& path) {
  AtomicFileWriter writer;
  FVAE_RETURN_IF_ERROR(writer.Open(path, "model_io.save"));
  std::ostream& out = writer.stream();
  out.write(kMagic, 4);
  WritePod(out, kVersion);

  const auto write_section = [&out](uint32_t tag, const auto& build) {
    std::ostringstream payload;
    build(payload);
    WriteSection(out, tag, payload.view());
  };
  write_section(kConfig, [&](std::ostream& p) {
    BuildConfigPayload(p, model.config());
  });
  write_section(kSchemas,
                [&](std::ostream& p) { BuildSchemaPayload(p, model); });
  write_section(kDense, [&](std::ostream& p) { BuildDensePayload(p, model); });
  write_section(kTables,
                [&](std::ostream& p) { BuildTablesPayload(p, model); });
  write_section(kOptimizer,
                [&](std::ostream& p) { BuildOptimizerPayload(p, model); });
  if (cursor != nullptr) {
    write_section(kCursor,
                  [&](std::ostream& p) { BuildCursorPayload(p, *cursor); });
  } else {
    write_section(kRng, [&](std::ostream& p) {
      WriteRngState(p, model.rng_state());
    });
  }
  WriteSection(out, kEnd, std::string_view());
  return writer.Commit();
}

Result<LoadedCheckpoint> LoadBody(BufferReader& in, const std::string& path) {
  LoadedCheckpoint loaded;
  FvaeConfig config;
  uint32_t last_tag = 0;
  bool saw_config = false, saw_schemas = false, saw_dense = false,
       saw_tables = false, saw_rng = false, saw_end = false;
  while (!saw_end) {
    uint32_t tag = 0;
    uint64_t size = 0;
    if (!in.ReadPod(&tag) || !in.ReadPod(&size)) {
      return Status::IoError("truncated section header in " + path);
    }
    if (tag != kEnd && tag <= last_tag) {
      return Status::InvalidArgument("out-of-order section in " + path);
    }
    last_tag = tag;
    if (size > in.remaining()) {
      return Status::IoError("truncated section " +
                             std::string(SectionName(tag)) + " in " + path);
    }
    std::string payload(size, '\0');
    uint32_t stored_crc = 0;
    // remaining() was checked above, so the payload read cannot fail; the
    // CRC that follows it still can.
    (void)in.ReadBytes(payload.data(), size);
    if (!in.ReadPod(&stored_crc)) {
      return Status::IoError("truncated section " +
                             std::string(SectionName(tag)) + " in " + path);
    }
    const uint32_t computed_crc = Crc32(payload);
    if (stored_crc != computed_crc) {
      return Status::IoError(
          "checksum mismatch in section " + std::string(SectionName(tag)) +
          " of " + path + ": stored " + std::to_string(stored_crc) +
          ", computed " + std::to_string(computed_crc));
    }
    BufferReader section(payload);
    switch (tag) {
      case kEnd:
        saw_end = true;
        break;
      case kConfig:
        FVAE_RETURN_IF_ERROR(ParseConfig(section, &config));
        saw_config = true;
        break;
      case kSchemas: {
        if (!saw_config) {
          return Status::InvalidArgument("schemas before config in " + path);
        }
        std::vector<FieldSchema> schemas;
        FVAE_RETURN_IF_ERROR(ParseSchemas(section, &schemas));
        loaded.model = std::make_unique<FieldVae>(config, schemas);
        saw_schemas = true;
        break;
      }
      case kDense:
        if (!saw_schemas) {
          return Status::InvalidArgument("dense before schemas in " + path);
        }
        FVAE_RETURN_IF_ERROR(ParseDense(section, loaded.model.get()));
        saw_dense = true;
        break;
      case kTables:
        if (!saw_dense) {
          return Status::InvalidArgument("tables before dense in " + path);
        }
        FVAE_RETURN_IF_ERROR(ParseTables(section, loaded.model.get()));
        saw_tables = true;
        break;
      case kOptimizer:
        if (!saw_tables) {
          return Status::InvalidArgument("optimizer before tables in " +
                                         path);
        }
        FVAE_RETURN_IF_ERROR(ParseOptimizer(section, loaded.model.get()));
        break;
      case kCursor:
        if (!saw_tables) {
          return Status::InvalidArgument("cursor before tables in " + path);
        }
        FVAE_RETURN_IF_ERROR(
            ParseCursor(section, loaded.model.get(), &loaded.cursor));
        loaded.has_cursor = true;
        break;
      case kRng:
        if (!saw_tables) {
          return Status::InvalidArgument("rng before tables in " + path);
        }
        FVAE_RETURN_IF_ERROR(ParseRng(section, loaded.model.get()));
        saw_rng = true;
        break;
      default:
        return Status::InvalidArgument("unknown section tag " +
                                       std::to_string(tag) + " in " + path);
    }
  }
  if (!saw_tables) {
    return Status::InvalidArgument("missing sections in " + path);
  }
  // Without the saved model generator, a resumed or warm-started run would
  // draw other eps and candidate samples than the saved run.
  if (!loaded.has_cursor && !saw_rng) {
    return Status::InvalidArgument("neither cursor nor rng section in " +
                                   path);
  }
  return loaded;
}

}  // namespace

Status SaveFieldVae(const FieldVae& model, const std::string& path) {
  return SaveImpl(model, nullptr, path);
}

Status SaveCheckpoint(const FieldVae& model, const TrainingCursor& cursor,
                      const std::string& path) {
  return SaveImpl(model, &cursor, path);
}

Result<std::unique_ptr<FieldVae>> LoadFieldVae(const std::string& path) {
  FVAE_ASSIGN_OR_RETURN(LoadedCheckpoint loaded, LoadCheckpoint(path));
  return std::move(loaded.model);
}

Result<LoadedCheckpoint> LoadCheckpoint(const std::string& path) {
  FVAE_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  FVAE_ASSIGN_OR_RETURN(const std::string_view body,
                        CheckFileHeader(data, kMagic, kVersion, path));
  BufferReader in(body);
  return LoadBody(in, path);
}

}  // namespace fvae::core
