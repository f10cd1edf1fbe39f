#ifndef FVAE_COMMON_BINARY_IO_H_
#define FVAE_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/result.h"
#include "common/status.h"

namespace fvae {

/// Little shared vocabulary of the binary persistence formats (FVMD
/// checkpoints, FVDS datasets, FVEB embedding stores): raw little-endian
/// PODs written to any std::ostream, read back through a bounds-checked
/// cursor over an in-memory buffer, plus the one header and footer check
/// the three loaders share.
///
/// The loaders deliberately go through memory rather than streaming from
/// an ifstream: they verify CRC-32 checksums over raw payload bytes
/// (common/crc32.h) — per section in FVMD, one footer over the body in
/// FVDS and FVEB — which need the bytes anyway, and a cursor makes the
/// "every read is bounds-checked" property trivial to audit.

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked forward cursor over a borrowed byte buffer. Any
/// out-of-bounds read returns false and pins the cursor at the end, so a
/// chain of reads after a truncation keeps failing instead of reading
/// stale values.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  bool ReadBytes(void* out, size_t n) {
    if (data_.size() - pos_ < n) {
      pos_ = data_.size();
      return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Result<std::string> ReadFileToString(const std::string& path);

/// Checks the 8-byte header that opens an FVMD, FVDS or FVEB file — the
/// 4-byte `magic`, then a u32 version that must equal `version`, the one
/// version each format reads — and returns the bytes after it. A wrong
/// magic is InvalidArgument naming the bytes found, a file too short for
/// the version is IoError, and any other version is InvalidArgument naming
/// it. Every message names `path`.
Result<std::string_view> CheckFileHeader(std::string_view data,
                                         const char (&magic)[4],
                                         uint32_t version,
                                         const std::string& path);

/// Verifies and strips the u32 CRC-32 footer that closes an FVDS or FVEB
/// body, returning the body without it. A missing footer or a checksum
/// mismatch is IoError naming `path`.
Result<std::string_view> CheckCrcFooter(std::string_view body,
                                        const std::string& path);

}  // namespace fvae

#endif  // FVAE_COMMON_BINARY_IO_H_
