#ifndef FVAE_DATA_IO_H_
#define FVAE_DATA_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"

namespace fvae {

/// Binary dataset serialization.
///
/// Format (little-endian):
///   magic "FVDS", uint32 version 2,
///   uint32 num_fields, per field: uint32 name_len, name bytes, uint8 sparse,
///   uint64 num_users,
///   per field: uint64 nnz, (num_users + 1) x uint64 offsets,
///              then nnz x (uint64 id, float value),
///   uint32 CRC-32 of everything after the 8-byte header.
/// Saves publish via atomic rename. A load rejects any other version, and
/// any count the remaining bytes cannot hold, as InvalidArgument; a
/// truncated or corrupt file is IoError.
Status SaveDatasetBinary(const MultiFieldDataset& dataset,
                         const std::string& path);

Result<MultiFieldDataset> LoadDatasetBinary(const std::string& path);

/// Text serialization, one user per line:
///   field entries separated by '|', entries "id:value" separated by ','.
/// First line is a header: "#fields name[:sparse],name,...".
/// Intended for small fixtures and interchange with scripts.
Status SaveDatasetText(const MultiFieldDataset& dataset,
                       const std::string& path);

Result<MultiFieldDataset> LoadDatasetText(const std::string& path);

}  // namespace fvae

#endif  // FVAE_DATA_IO_H_
