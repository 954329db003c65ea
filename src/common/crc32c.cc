#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace mainline::common {

namespace {

constexpr std::array<uint32_t, 256> MakeTable() {
  constexpr uint32_t kReflectedPolynomial = 0x82F63B78;
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? kReflectedPolynomial : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32cTable(const void *data, size_t size) {
  const auto *bytes = static_cast<const uint8_t *>(data);
  uint32_t crc = ~uint32_t{0};
  for (size_t i = 0; i < size; i++) crc = kTable[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  return ~crc;
}

#if defined(__x86_64__)

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void *data, size_t size) {
  const auto *bytes = static_cast<const uint8_t *>(data);
  uint64_t crc = ~uint32_t{0};
  for (; size >= sizeof(uint64_t); bytes += sizeof(uint64_t), size -= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; bytes++, size--) crc32 = _mm_crc32_u8(crc32, *bytes);
  return ~crc32;
}

#else

bool Crc32cHardwareAvailable() { return false; }

uint32_t Crc32cHardware(const void *data, size_t size) { return Crc32cTable(data, size); }

#endif

uint32_t Crc32c(const void *data, size_t size) {
  static const bool hardware = Crc32cHardwareAvailable();
  return hardware ? Crc32cHardware(data, size) : Crc32cTable(data, size);
}

}  // namespace mainline::common
