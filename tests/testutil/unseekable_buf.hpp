// A streambuf over a string that refuses to seek, standing in for a pipe: a
// trace reader on it cannot learn the stream size and must fall back to
// incremental, allocation-bounded reads.
#pragma once

#include <algorithm>
#include <cstring>
#include <streambuf>
#include <string>

namespace chronosync::testutil {

class UnseekableStringBuf : public std::streambuf {
 public:
  explicit UnseekableStringBuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= data_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(sizeof buf_, data_.size() - pos_);
    std::memcpy(buf_, data_.data() + pos_, n);
    setg(buf_, buf_, buf_ + n);
    pos_ += n;
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  std::string data_;
  std::size_t pos_ = 0;
  char buf_[64];
};

}  // namespace chronosync::testutil
