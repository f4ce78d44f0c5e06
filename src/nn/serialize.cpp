#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>

namespace icoil::nn {

namespace {
constexpr std::uint32_t kMagic = 0x1C011A11u;
}

bool save_params(Sequential& net, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const auto params = net.params();
  const std::uint32_t count = static_cast<std::uint32_t>(params.size());
  f.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (Param* p : params) {
    const auto& shape = p->value.shape();
    const std::uint32_t ndim = static_cast<std::uint32_t>(shape.size());
    f.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    for (int d : shape) {
      const std::int32_t v = d;
      f.write(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    f.write(reinterpret_cast<const char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  return static_cast<bool>(f);
}

bool load_params(Sequential& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::uint32_t magic = 0, count = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  f.read(reinterpret_cast<char*>(&count), sizeof(count));
  const auto params = net.params();
  if (magic != kMagic || count != params.size()) return false;
  for (Param* p : params) {
    std::uint32_t ndim = 0;
    f.read(reinterpret_cast<char*>(&ndim), sizeof(ndim));
    std::vector<int> shape(ndim);
    for (std::uint32_t i = 0; i < ndim; ++i) {
      std::int32_t v = 0;
      f.read(reinterpret_cast<char*>(&v), sizeof(v));
      shape[i] = v;
    }
    if (shape != p->value.shape()) return false;
    f.read(reinterpret_cast<char*>(p->value.data()),
           static_cast<std::streamsize>(p->value.size() * sizeof(float)));
    ++p->version;
    if (!f) return false;
  }
  return true;
}

}  // namespace icoil::nn
