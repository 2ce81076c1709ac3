/** @file Unit tests for the trace entry wire format. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/event.h"

namespace btrace {
namespace {

TEST(Descriptor, RoundTrips)
{
    const uint64_t w = Descriptor::pack(EntryType::Normal, 42, 128);
    EXPECT_TRUE(Descriptor::validMagic(w));
    const Descriptor d = Descriptor::unpack(w);
    EXPECT_EQ(d.type, EntryType::Normal);
    EXPECT_EQ(d.category, 42u);
    EXPECT_EQ(d.size, 128u);
}

TEST(Descriptor, RejectsGarbageMagic)
{
    EXPECT_FALSE(Descriptor::validMagic(0));
    EXPECT_FALSE(Descriptor::validMagic(0xdeadbeefcafebabeull));
}

TEST(Origin, RoundTrips)
{
    const Origin o = Origin::unpack(Origin::pack(11, 1234567));
    EXPECT_EQ(o.core, 11u);
    EXPECT_EQ(o.thread, 1234567u);
}

TEST(EntryLayout, NormalSizeAligned)
{
    EXPECT_EQ(EntryLayout::normalSize(0), 24u);
    EXPECT_EQ(EntryLayout::normalSize(1), 32u);
    EXPECT_EQ(EntryLayout::normalSize(8), 32u);
    EXPECT_EQ(EntryLayout::normalSize(9), 40u);
}

TEST(WriteNormal, ParsesBack)
{
    std::vector<uint8_t> buf(EntryLayout::normalSize(20));
    writeNormal(buf.data(), 777, 3, 9001, 5, 20);

    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::Normal);
    EXPECT_EQ(v.stamp, 777u);
    EXPECT_EQ(v.core, 3u);
    EXPECT_EQ(v.thread, 9001u);
    EXPECT_EQ(v.category, 5u);
    EXPECT_EQ(v.size, EntryLayout::normalSize(20));
    EXPECT_TRUE(v.payloadOk);
    EXPECT_FALSE(cur.next(v));
    EXPECT_FALSE(cur.malformed());
}

TEST(WriteNormal, PayloadCorruptionDetected)
{
    std::vector<uint8_t> buf(EntryLayout::normalSize(32));
    writeNormal(buf.data(), 12, 0, 0, 0, 32);
    buf[EntryLayout::normalHeaderBytes + 2] ^= 0x55;  // flip a byte

    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_FALSE(v.payloadOk);
}

TEST(WriteDummy, ParsesBackAndSpansGap)
{
    std::vector<uint8_t> buf(64, 0xFF);
    writeDummy(buf.data(), 64);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::Dummy);
    EXPECT_EQ(v.size, 64u);
    EXPECT_FALSE(cur.next(v));
}

TEST(WriteBlockHeaderAndSkip, CarryPositions)
{
    std::vector<uint8_t> buf(32);
    writeBlockHeader(buf.data(), 0x123456789abull);
    writeSkipMarker(buf.data() + 16, 42);

    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::BlockHeader);
    EXPECT_EQ(v.stamp, 0x123456789abull);
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::Skip);
    EXPECT_EQ(v.stamp, 42u);
}

TEST(EntryCursor, SequenceOfMixedEntries)
{
    std::vector<uint8_t> buf(256);
    std::size_t off = 0;
    writeBlockHeader(buf.data() + off, 9);
    off += 16;
    writeNormal(buf.data() + off, 1, 0, 0, 0, 10);
    off += EntryLayout::normalSize(10);
    writeDummy(buf.data() + off, 24);
    off += 24;
    writeNormal(buf.data() + off, 2, 1, 1, 1, 0);
    off += EntryLayout::normalSize(0);

    EntryCursor cur(buf.data(), off);
    EntryView v;
    int normals = 0, dummies = 0, headers = 0;
    while (cur.next(v)) {
        normals += v.type == EntryType::Normal;
        dummies += v.type == EntryType::Dummy;
        headers += v.type == EntryType::BlockHeader;
    }
    EXPECT_FALSE(cur.malformed());
    EXPECT_EQ(normals, 2);
    EXPECT_EQ(dummies, 1);
    EXPECT_EQ(headers, 1);
}

TEST(EntryCursor, MalformedOnBadMagic)
{
    std::vector<uint8_t> buf(32, 0x11);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());
}

TEST(EntryCursor, MalformedOnOversizedEntry)
{
    std::vector<uint8_t> buf(32);
    // Claim a 64-byte entry inside a 32-byte range.
    const uint64_t w = Descriptor::pack(EntryType::Dummy, 0, 64);
    std::memcpy(buf.data(), &w, 8);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());
}

TEST(EntryCursor, MalformedOnMisalignedSize)
{
    std::vector<uint8_t> buf(32);
    const uint64_t w = Descriptor::pack(EntryType::Dummy, 0, 12);
    std::memcpy(buf.data(), &w, 8);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());
}

TEST(EntryCursor, EmptyRangeIsCleanEnd)
{
    EntryCursor cur(nullptr, 0);
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_FALSE(cur.malformed());
}

TEST(EntryCursor, ZeroBytesTreatedAsUnused)
{
    std::vector<uint8_t> buf(64, 0);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());  // zeros are not valid entries
}

TEST(WriteNormal, MatchesBytewiseReference)
{
    // The word-at-a-time fill must equal the byte definition exactly:
    // every length, stamps whose lanes wrap past 0xff, zero padding,
    // and nothing written past normalSize(len).
    const uint64_t stamps[] = {0, 1, 7, 8, 255, 0x1234567,
                               0xffffffffffffffffull, 0x8000000000000005ull};
    constexpr uint8_t guard = 0xcc;
    std::vector<uint8_t> buf(EntryLayout::normalSize(600) + 64);
    for (const uint64_t stamp : stamps) {
        for (std::size_t len = 0; len <= 600; ++len) {
            std::fill(buf.begin(), buf.end(), guard);
            writeNormal(buf.data(), stamp, 3, 77, 9, len);
            const std::size_t size = EntryLayout::normalSize(len);
            const uint8_t *payload =
                buf.data() + EntryLayout::normalHeaderBytes;
            for (std::size_t i = 0;
                 i < size - EntryLayout::normalHeaderBytes; ++i) {
                const uint8_t want = i < len ? payloadByte(stamp, i) : 0;
                ASSERT_EQ(payload[i], want)
                    << "stamp " << stamp << " len " << len << " i " << i;
            }
            for (std::size_t i = size; i < buf.size(); ++i)
                ASSERT_EQ(buf[i], guard) << "len " << len << " i " << i;
            EntryCursor cur(buf.data(), size);
            EntryView v;
            ASSERT_TRUE(cur.next(v));
            EXPECT_EQ(v.stamp, stamp);
            EXPECT_EQ(v.size, size);
            EXPECT_EQ(v.core, 3u);
            EXPECT_EQ(v.thread, 77u);
            EXPECT_EQ(v.category, 9u);
            EXPECT_TRUE(v.payloadOk);
        }
    }
}

TEST(PayloadByte, DeterministicPerStamp)
{
    EXPECT_EQ(payloadByte(5, 0), payloadByte(5, 0));
    EXPECT_NE(payloadByte(5, 0), payloadByte(6, 0));
}

} // namespace
} // namespace btrace
