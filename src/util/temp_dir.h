// Per-run scratch directories. Two processes sharing a fixed artifact path
// overwrite each other's inputs, and one can truncate a file the other has
// mmapped (the mapping then dies with SIGBUS) — gtest_discover_tests runs
// every TEST in its own process and `ctest -j` runs those concurrently.
// Every test, bench and demo that needs scratch files takes a fresh mkdtemp
// directory instead.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace pim::util {

/// Create a new, uniquely named directory under the system temp directory
/// and return its path. The caller owns it (see TempDir for cleanup).
inline std::string make_temp_dir(const std::string& prefix = "pim") {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / (prefix + "_XXXXXX")).string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + tmpl);
  }
  return tmpl;
}

/// RAII scratch directory: created on construction, removed with its
/// contents on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "pim")
      : path_(make_temp_dir(prefix)) {}
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

}  // namespace pim::util
