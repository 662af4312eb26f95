#ifndef OLTAP_TXN_CODEC_H_
#define OLTAP_TXN_CODEC_H_

// Little-endian byte codec shared by the durable formats: WAL frames,
// checkpoint images and the checkpoint manifest. Internal to txn/.

#include <cstddef>
#include <cstdint>
#include <string>

namespace oltap {
namespace codec {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
}
inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
// u32 length, then the bytes.
inline void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Reader with bounds checking; any failure flips ok to false and later
// reads return zero values.
struct Reader {
  const char* p;
  const char* end;
  bool ok = true;

  bool Need(size_t n) {
    if (static_cast<size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(*p++);
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = static_cast<uint8_t>(p[0]) |
                 (static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8);
    p += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    p += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    p += 8;
    return v;
  }
  std::string Bytes() {
    uint32_t n = U32();
    if (!Need(n)) return std::string();
    std::string s(p, n);
    p += n;
    return s;
  }
};

}  // namespace codec
}  // namespace oltap

#endif  // OLTAP_TXN_CODEC_H_
