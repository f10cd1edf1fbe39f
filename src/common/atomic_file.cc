#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

#include "common/failpoint.h"

namespace fvae {

namespace {

/// fsync(2)s `path`. `O_RDONLY` is enough for fsync on both files and
/// directories on the platforms we target.
Status FsyncPath(const std::string& path) {
  const int fd =  // fd < 0: nothing opened. fvae-lint: allow(resource-escape)
      ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open for fsync failed: " + path);
  }
  const int rc = ::fsync(fd);
  // Transient fsync handle, open and closed within six lines — wrapping it
  // in net::Fd would invert the layering (common must not depend on net).
  const int close_rc = ::close(fd);  // fvae-lint: allow(raw-socket)
  if (rc != 0 || close_rc != 0) {
    return Status::IoError("fsync failed: " + path);
  }
  return Status::Ok();
}

/// Parent directory of `path`, for the post-rename directory fsync.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status AtomicFileWriter::Open(const std::string& path,
                              const std::string& failpoint_prefix) {
  if (open_) {
    return Status::InvalidArgument("AtomicFileWriter already open: " + path_);
  }
  path_ = path;
  tmp_path_ = path + ".tmp";
  failpoint_prefix_ = failpoint_prefix;
  FVAE_RETURN_IF_ERROR(FailpointCheck(failpoint_prefix_ + ".before_tmp_write"));
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    return Status::IoError("cannot open temp file for writing: " + tmp_path_);
  }
  open_ = true;
  return Status::Ok();
}

Status AtomicFileWriter::Commit() {
  if (!open_) {
    return Status::InvalidArgument("AtomicFileWriter not open");
  }
  out_.flush();
  const int64_t bytes = out_.good() ? int64_t(out_.tellp()) : -1;
  // close() performs the final flush, so stream health must be sampled
  // again afterwards — a deferred write error (e.g. ENOSPC) surfaces only
  // there.
  out_.close();
  const bool stream_ok = bytes >= 0 && out_.good();
  open_ = false;
  if (!stream_ok) {
    Abort();
    return Status::IoError("write to temp file failed: " + tmp_path_);
  }
  Status status = FailpointCheck(failpoint_prefix_ + ".after_tmp_write");
  if (status.ok()) status = FsyncPath(tmp_path_);
  if (status.ok()) status = FailpointCheck(failpoint_prefix_ + ".before_rename");
  if (!status.ok()) {
    Abort();
    return status;
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    Abort();
    return Status::IoError("rename failed: " + tmp_path_ + " -> " + path_);
  }
  FVAE_RETURN_IF_ERROR(FailpointCheck(failpoint_prefix_ + ".after_rename"));
  // The rename already published the file; syncing the directory entry is
  // durability hardening, not a correctness requirement, so its failure is
  // not worth failing the commit over.
  (void)FsyncPath(ParentDir(path_));  // best-effort directory durability
  bytes_committed_ = uint64_t(bytes);
  return Status::Ok();
}

void AtomicFileWriter::Abort() {
  if (out_.is_open()) out_.close();
  if (!tmp_path_.empty()) {
    // The temp file may already be gone (renamed or never created);
    // removal is best-effort cleanup either way.
    (void)std::remove(tmp_path_.c_str());
  }
  open_ = false;
}

}  // namespace fvae
