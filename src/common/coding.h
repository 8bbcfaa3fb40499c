#ifndef TEMPORADB_COMMON_CODING_H_
#define TEMPORADB_COMMON_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace temporadb {

/// Little-endian fixed-width primitives and length-prefixed strings, in the
/// RocksDB coding.h tradition.  The Get* functions consume from a
/// string_view cursor and return false on underflow (treated as corruption
/// by callers).

static_assert(std::endian::native == std::endian::little,
              "the on-disk formats are little-endian");

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);  // Little-endian hosts only (asserted above).
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline bool GetFixed32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  std::memcpy(v, in->data(), 4);
  in->remove_prefix(4);
  return true;
}

inline bool GetFixed64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  std::memcpy(v, in->data(), 8);
  in->remove_prefix(8);
  return true;
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

inline bool GetLengthPrefixed(std::string_view* in, std::string_view* out) {
  uint32_t len;
  if (!GetFixed32(in, &len)) return false;
  if (in->size() < len) return false;
  *out = in->substr(0, len);
  in->remove_prefix(len);
  return true;
}

/// The FNV-1a offset basis: the checksum of no bytes.
constexpr uint64_t kChecksum64Seed = 1469598103934665603ULL;

/// FNV-1a over a byte range; used as the checkpoint-file and WAL-record
/// checksum.  `seed` continues a running checksum, so
/// `Checksum64(b, nb, Checksum64(a, na))` is the checksum of `a` then `b`.
inline uint64_t Checksum64(const char* data, size_t n,
                           uint64_t seed = kChecksum64Seed) {
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace temporadb

#endif  // TEMPORADB_COMMON_CODING_H_
