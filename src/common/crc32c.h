#pragma once

#include <cstddef>
#include <cstdint>

namespace mainline::common {

/// CRC32C: the Castagnoli polynomial (0x1EDC6F41, bit-reflected 0x82F63B78)
/// with an all-ones initial value and final complement, as in iSCSI, ext4 and
/// RocksDB. Write-ahead log frames carry it. Both implementations compute the
/// same function; the standard check value is Crc32c("123456789", 9) ==
/// 0xE3069283.
///
/// Uses the SSE4.2 `crc32` instruction when the CPU has it, else the table.
uint32_t Crc32c(const void *data, size_t size);

/// Byte-at-a-time table implementation; runs on any CPU.
uint32_t Crc32cTable(const void *data, size_t size);

/// Whether the CPU has SSE4.2. Only then may Crc32cHardware be called.
bool Crc32cHardwareAvailable();

/// SSE4.2 implementation, eight bytes per instruction.
uint32_t Crc32cHardware(const void *data, size_t size);

}  // namespace mainline::common
