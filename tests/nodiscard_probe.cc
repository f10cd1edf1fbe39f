// Compile-fail probe for the project-wide -Werror=unused-result flag: both
// discards below must break the build. Never part of `all`; the
// nodiscard_discard_is_an_error ctest builds it and expects the error.

#include "common/result.h"
#include "common/status.h"

namespace fvae {

Status Save();
Result<int> Load();

void DropBoth() {
  Save();
  Load();
}

}  // namespace fvae
