// A private scratch directory that removes itself.
//
// Code that writes temporary files into a caller-supplied directory must not
// pick fixed names there: concurrent processes sharing the directory (ctest
// -j, two chronocheck runs in one work dir) would overwrite each other's
// files.  ScratchDir creates a fresh, uniquely named directory under the
// parent with mkdtemp and deletes it, with everything in it, when it goes out
// of scope.
#pragma once

#include <string>

namespace chronosync {

class ScratchDir {
 public:
  /// Creates `<parent>/chronosync-XXXXXX`; throws std::system_error when the
  /// directory cannot be created.
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// Path of `name` inside the scratch directory.
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace chronosync
