// Shared helpers for the persistence/recovery suites: scratch directories
// under the test's working directory, plus the shared brute-force
// reference (test_util.hpp).
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>

#include "test_util.hpp"

namespace wecc::testutil {

/// mkdtemp under the current working directory (the build tree), removed
/// recursively on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    char buf[] = "wecc-persist-XXXXXX";
    const char* p = ::mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    path_ = p ? p : "wecc-persist-failed";
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace wecc::testutil
