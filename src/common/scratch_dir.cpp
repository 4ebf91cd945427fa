#include "common/scratch_dir.hpp"

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <system_error>
#include <vector>

namespace chronosync {

ScratchDir::ScratchDir(const std::string& parent) {
  std::string templ = (parent.empty() ? std::string(".") : parent) + "/chronosync-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::system_error(errno, std::generic_category(),
                            "cannot create a scratch directory under " + parent);
  }
  path_ = buf.data();
}

ScratchDir::~ScratchDir() {
  std::error_code ec;  // best effort: a destructor must not throw
  std::filesystem::remove_all(path_, ec);
}

}  // namespace chronosync
