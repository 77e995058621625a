#pragma once
// Per-test scratch directory. gtest_discover_tests runs every test case as
// its own process and `ctest -j` runs those processes concurrently, so a
// fixed path under ::testing::TempDir() is shared by every case that names
// it: one case's cleanup can delete another's files mid-run. A TestDir is
// unique to the running test (suite, test name and process id), starts
// empty, and is removed again when it goes out of scope.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace iprune::test {

class TestDir {
 public:
  TestDir() {
    const ::testing::TestInfo& info =
        *::testing::UnitTest::GetInstance()->current_test_info();
    const std::string name = std::string("iprune-") + info.test_suite_name() +
                       "." + info.name() + "-" + std::to_string(::getpid());
    path_ = (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace iprune::test
