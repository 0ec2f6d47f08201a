#include "data/ah5.hpp"

#include <cstdio>
#include <cstring>

#include "common/checksum.hpp"

namespace alsflow::data {

namespace {

constexpr char kMagic[4] = {'A', 'H', '5', '\1'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}
void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, std::uint32_t(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

struct Reader {
  const std::vector<std::uint8_t>& buf;
  std::size_t pos = 0;
  bool fail = false;

  bool take(void* dst, std::size_t n) {
    if (pos + n > buf.size()) {
      fail = true;
      return false;
    }
    std::memcpy(dst, buf.data() + pos, n);
    pos += n;
    return true;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      std::uint8_t b = 0;
      if (!take(&b, 1)) return 0;
      v |= std::uint32_t(b) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint8_t b = 0;
      if (!take(&b, 1)) return 0;
      v |= std::uint64_t(b) << (8 * i);
    }
    return v;
  }
  std::string str() {
    std::uint32_t len = u32();
    if (fail || pos + len > buf.size()) {
      fail = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(buf.data() + pos), len);
    pos += len;
    return s;
  }
};

}  // namespace

Result<std::string> Ah5File::attr(const std::string& key) const {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) {
    return Error::make("not_found", "attribute " + key);
  }
  return it->second;
}

Status Ah5File::add_dataset(Ah5Dataset ds) {
  if (ds.element_count() != ds.values.size()) {
    return Error::make("shape_mismatch",
                       "dims product != value count for " + ds.name);
  }
  for (auto& existing : datasets_) {
    if (existing.name == ds.name) {
      existing = std::move(ds);
      return Status::success();
    }
  }
  datasets_.push_back(std::move(ds));
  return Status::success();
}

const Ah5Dataset* Ah5File::dataset(const std::string& name) const {
  for (const auto& ds : datasets_) {
    if (ds.name == name) return &ds;
  }
  return nullptr;
}

std::vector<std::string> Ah5File::dataset_names() const {
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& ds : datasets_) names.push_back(ds.name);
  return names;
}

std::uint64_t Ah5File::byte_size() const {
  std::uint64_t size = 4 + 4;  // magic + attr count
  for (const auto& [k, v] : attrs_) size += 8 + k.size() + v.size();
  size += 4;  // dataset count
  for (const auto& ds : datasets_) {
    size += 4 + ds.name.size() + 4 + 8 * ds.dims.size() + 4 * ds.values.size();
  }
  return size + 8;  // checksum footer
}

std::vector<std::uint8_t> Ah5File::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(byte_size());
  for (const char c : kMagic) out.push_back(std::uint8_t(c));
  put_u32(out, std::uint32_t(attrs_.size()));
  for (const auto& [k, v] : attrs_) {
    put_string(out, k);
    put_string(out, v);
  }
  put_u32(out, std::uint32_t(datasets_.size()));
  for (const auto& ds : datasets_) {
    put_string(out, ds.name);
    put_u32(out, std::uint32_t(ds.dims.size()));
    for (auto d : ds.dims) put_u64(out, d);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(ds.values.data());
    out.insert(out.end(), bytes, bytes + 4 * ds.values.size());
  }
  put_u64(out, fnv1a64(out.data(), out.size()));
  return out;
}

Result<Ah5File> Ah5File::deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 16 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Error::make("bad_format", "missing AH5 magic");
  }
  const std::uint64_t stored =
      [&] {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
          v |= std::uint64_t(bytes[bytes.size() - 8 + std::size_t(i)])
               << (8 * i);
        }
        return v;
      }();
  if (fnv1a64(bytes.data(), bytes.size() - 8) != stored) {
    return Error::make("checksum_mismatch", "AH5 payload corrupted");
  }

  Reader r{bytes};
  r.pos = 4;
  Ah5File file;
  const std::uint32_t n_attrs = r.u32();
  for (std::uint32_t i = 0; i < n_attrs && !r.fail; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    file.attrs_[k] = v;
  }
  const std::uint32_t n_datasets = r.u32();
  for (std::uint32_t i = 0; i < n_datasets && !r.fail; ++i) {
    Ah5Dataset ds;
    ds.name = r.str();
    const std::uint32_t rank = r.u32();
    for (std::uint32_t d = 0; d < rank && !r.fail; ++d) {
      ds.dims.push_back(r.u64());
    }
    const std::uint64_t count = ds.element_count();
    ds.values.resize(count);
    if (!r.take(ds.values.data(), 4 * count)) break;
    file.datasets_.push_back(std::move(ds));
  }
  if (r.fail) return Error::make("bad_format", "truncated AH5 stream");
  return file;
}

Status Ah5File::write_file(const std::string& path) const {
  auto bytes = serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Error::make("io_error", "cannot open " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return Error::make("io_error", "short write to " + path);
  }
  return Status::success();
}

Result<Ah5File> Ah5File::read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Error::make("not_found", "cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size), 0);
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) return Error::make("io_error", "short read");
  return deserialize(bytes);
}

}  // namespace alsflow::data
