#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>
#include <vector>

#include "util/atomic_write.hpp"

namespace iprune::nn {

namespace {

constexpr std::uint32_t kMagic = 0x49505231;  // "IPR1"

template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_tensor(std::string& out, const Tensor& t) {
  put(out, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t d = 0; d < t.rank(); ++d) {
    put(out, static_cast<std::uint64_t>(t.dim(d)));
  }
  out.append(reinterpret_cast<const char*>(t.data()),
             t.numel() * sizeof(float));
}

/// Bounds-checked cursor over a whole parameter file image.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool read(void* dst, std::size_t bytes) {
    if (bytes_.size() - pos_ < bytes) {
      return false;
    }
    std::memcpy(dst, bytes_.data() + pos_, bytes);
    pos_ += bytes;
    return true;
  }
  template <typename T>
  bool read(T& value) {
    return read(&value, sizeof(value));
  }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Read one tensor shaped like `like` into `staged`; the graph's own
/// tensors are not touched here.
bool read_tensor(Reader& in, const Tensor& like, std::vector<float>& staged) {
  std::uint32_t rank = 0;
  if (!in.read(rank) || rank != like.rank()) {
    return false;
  }
  for (std::size_t d = 0; d < like.rank(); ++d) {
    std::uint64_t dim = 0;
    if (!in.read(dim) || dim != like.dim(d)) {
      return false;
    }
  }
  staged.resize(like.numel());
  return in.read(staged.data(), staged.size() * sizeof(float));
}

}  // namespace

bool save_parameters(Graph& graph, const std::string& path) {
  std::string bytes;
  put(bytes, kMagic);
  const auto params = graph.params();
  put(bytes, static_cast<std::uint32_t>(params.size()));
  for (const ParamRef& p : params) {
    put_tensor(bytes, *p.value);
    const std::uint8_t has_mask = p.mask != nullptr ? 1 : 0;
    put(bytes, has_mask);
    if (has_mask != 0) {
      put_tensor(bytes, *p.mask);
    }
  }
  return util::atomic_write(path, bytes);
}

bool load_parameters(Graph& graph, const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  if (file.bad()) {
    return false;
  }
  Reader in(bytes);
  std::uint32_t magic = 0;
  if (!in.read(magic) || magic != kMagic) {
    return false;
  }
  const auto params = graph.params();
  std::uint32_t count = 0;
  if (!in.read(count) || count != params.size()) {
    return false;
  }
  // Stage every tensor first: a truncated or malformed file must leave
  // the graph exactly as it was.
  std::vector<std::vector<float>> values(params.size());
  std::vector<std::vector<float>> masks(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ParamRef& p = params[i];
    if (!read_tensor(in, *p.value, values[i])) {
      return false;
    }
    std::uint8_t has_mask = 0;
    if (!in.read(has_mask) || has_mask > 1 ||
        (has_mask != 0) != (p.mask != nullptr)) {
      return false;
    }
    if (p.mask != nullptr && !read_tensor(in, *p.mask, masks[i])) {
      return false;
    }
  }
  if (!in.at_end()) {
    return false;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(values[i].begin(), values[i].end(), params[i].value->data());
    if (params[i].mask != nullptr) {
      std::copy(masks[i].begin(), masks[i].end(), params[i].mask->data());
    }
  }
  return true;
}

}  // namespace iprune::nn
