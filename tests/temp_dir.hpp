// A unique scratch directory per test, removed on destruction (also when an
// ASSERT returns early), so tests leave nothing in the working directory.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace specdag {

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("specdag-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  const std::filesystem::path& path() const { return path_; }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace specdag
