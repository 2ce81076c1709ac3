#include "trace/event.h"

#include <atomic>

namespace btrace {

namespace {

// Blocks are written by producers while consumers read them
// speculatively (§4.3). All word accesses go through relaxed atomics
// so the seqlock-style validation is race-free; torn *logical* content
// is caught by the post-copy metadata/header re-check.

void
storeWord(uint8_t *dst, uint64_t word)
{
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t *>(dst))
        .store(word, std::memory_order_relaxed);
}

uint64_t
loadWord(const uint8_t *src)
{
    return std::atomic_ref<const uint64_t>(
               *reinterpret_cast<const uint64_t *>(src))
        .load(std::memory_order_relaxed);
}

} // namespace

void
writeNormal(uint8_t *dst, uint64_t stamp, uint16_t core, uint32_t thread,
            uint16_t category, std::size_t payload_len)
{
    const auto size = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));
    storeWord(dst, Descriptor::pack(EntryType::Normal, category, size));
    storeWord(dst + 8, stamp);
    storeWord(dst + 16, Origin::pack(core, thread));
    uint8_t *payload = dst + EntryLayout::normalHeaderBytes;
    const std::size_t padded = size - EntryLayout::normalHeaderBytes;
    // payloadByte(stamp, i) grows by 7 per byte, so byte lane b of
    // word k holds payloadByte(stamp, 8k + b) and the next word is
    // every lane plus 56, mod 256: a carry-free per-lane add (the low
    // seven bits of each lane add, the top bit is xored back in; 56
    // has no top bit).
    constexpr uint64_t low7 = 0x7f7f7f7f7f7f7f7full;
    constexpr uint64_t step = 0x3838383838383838ull;
    uint64_t word = 0;
    for (std::size_t b = 0; b < 8; ++b)
        word |= uint64_t(payloadByte(stamp, b)) << (8 * b);
    for (std::size_t w = 0; w < padded; w += 8) {
        const std::size_t left = payload_len - w;  // < 8 only at the tail
        storeWord(payload + w,
                  left >= 8 ? word : word & ~(~0ull << (8 * left)));
        word = ((word & low7) + step) ^ (word & ~low7);
    }
}

void
writeDummy(uint8_t *dst, std::size_t len)
{
    BTRACE_DASSERT(len >= EntryLayout::dummyMinBytes &&
                   len % EntryLayout::align == 0, "bad dummy length");
    storeWord(dst, Descriptor::pack(EntryType::Dummy, 0,
                                    static_cast<uint32_t>(len)));
}

void
writeBlockHeader(uint8_t *dst, uint64_t pos)
{
    storeWord(dst, Descriptor::pack(EntryType::BlockHeader, 0,
                                    EntryLayout::blockHeaderBytes));
    storeWord(dst + 8, pos);
}

void
writeSkipMarker(uint8_t *dst, uint64_t pos)
{
    storeWord(dst, Descriptor::pack(EntryType::Skip, 0,
                                    EntryLayout::skipBytes));
    storeWord(dst + 8, pos);
}

bool
EntryCursor::next(EntryView &out)
{
    if (cur >= end || damaged)
        return false;
    if (std::size_t(end - cur) < 8) {
        damaged = true;
        return false;
    }

    const uint64_t word0 = loadWord(cur);
    if (!Descriptor::validMagic(word0)) {
        damaged = true;
        return false;
    }
    const Descriptor desc = Descriptor::unpack(word0);
    if (desc.size < 8 || desc.size % EntryLayout::align != 0 ||
        desc.size > std::size_t(end - cur)) {
        damaged = true;
        return false;
    }

    out = EntryView{};
    out.type = desc.type;
    out.category = desc.category;
    out.size = desc.size;

    switch (desc.type) {
      case EntryType::Normal: {
        if (desc.size < EntryLayout::normalHeaderBytes) {
            damaged = true;
            return false;
        }
        out.stamp = loadWord(cur + 8);
        const Origin origin = Origin::unpack(loadWord(cur + 16));
        out.core = origin.core;
        out.thread = origin.thread;
        out.payloadOk = true;
        const uint8_t *payload = cur + EntryLayout::normalHeaderBytes;
        const std::size_t padded =
            desc.size - EntryLayout::normalHeaderBytes;
        // Verify up to the first 16 payload bytes; enough to catch torn
        // or stale data without a full re-hash on every dump.
        const std::size_t check = padded < 16 ? padded : 16;
        for (std::size_t i = 0; i < check; ++i) {
            if (payload[i] != payloadByte(out.stamp, i) && payload[i] != 0) {
                out.payloadOk = false;
                break;
            }
        }
        break;
      }
      case EntryType::Dummy:
        break;
      case EntryType::BlockHeader:
      case EntryType::Skip:
        if (desc.size < 16) {
            damaged = true;
            return false;
        }
        out.stamp = loadWord(cur + 8);
        break;
      default:
        damaged = true;
        return false;
    }

    cur += desc.size;
    return true;
}

} // namespace btrace
