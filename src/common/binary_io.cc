#include "common/binary_io.h"

#include <fstream>
#include <sstream>

#include "common/crc32.h"

namespace fvae {

namespace {

std::string HexBytes(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (i > 0) out.push_back(' ');
    const auto b = static_cast<unsigned char>(bytes[i]);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return std::move(buffer).str();
}

Result<std::string_view> CheckFileHeader(std::string_view data,
                                         const char (&magic)[4],
                                         uint32_t version,
                                         const std::string& path) {
  const std::string_view want(magic, 4);
  if (!data.starts_with(want)) {
    return Status::InvalidArgument(
        "bad magic in " + path + ": found [" +
        HexBytes(data.substr(0, 4)) + "] (" + std::to_string(data.size()) +
        " bytes), want \"" + std::string(want) + "\"");
  }
  BufferReader in(data.substr(4));
  uint32_t found = 0;
  if (!in.ReadPod(&found)) {
    return Status::IoError("truncated header in " + path);
  }
  if (found != version) {
    return Status::InvalidArgument(
        "unsupported " + std::string(want) + " version " +
        std::to_string(found) + " in " + path + " (supported: " +
        std::to_string(version) + ")");
  }
  return data.substr(4 + sizeof(uint32_t));
}

Result<std::string_view> CheckCrcFooter(std::string_view body,
                                        const std::string& path) {
  if (body.size() < sizeof(uint32_t)) {
    return Status::IoError("truncated checksum footer in " + path);
  }
  body.remove_suffix(sizeof(uint32_t));
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, body.data() + body.size(), sizeof(uint32_t));
  const uint32_t computed_crc = Crc32(body);
  if (stored_crc != computed_crc) {
    return Status::IoError("checksum mismatch in " + path + ": stored " +
                           std::to_string(stored_crc) + ", computed " +
                           std::to_string(computed_crc));
  }
  return body;
}

}  // namespace fvae
