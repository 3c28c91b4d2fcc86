// Tests for src/compress: codec round trips (pattern + randomized,
// parameterized over all codecs), the frame format, and corruption handling.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "trace/event.h"

namespace sword {
namespace {

class CodecTest : public testing::TestWithParam<std::string> {
 protected:
  const Compressor& codec() const { return *FindCompressor(GetParam()); }

  void RoundTrip(const Bytes& input) {
    Bytes compressed;
    ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
    Bytes output;
    ASSERT_TRUE(
        codec().Decompress(compressed.data(), compressed.size(), input.size(), &output)
            .ok());
    EXPECT_EQ(output, input);
  }
};

TEST_P(CodecTest, EmptyInput) { RoundTrip({}); }

TEST_P(CodecTest, SingleByte) { RoundTrip({42}); }

TEST_P(CodecTest, AllZeros) { RoundTrip(Bytes(10000, 0)); }

TEST_P(CodecTest, AllDistinct) {
  Bytes input(256);
  for (size_t i = 0; i < input.size(); i++) input[i] = static_cast<uint8_t>(i);
  RoundTrip(input);
}

TEST_P(CodecTest, RepetitiveTraceLikeData) {
  // Trace buffers look like this: a strided access stream, whose delta
  // encoding repeats one short record; compressible codecs should shrink it
  // substantially.
  ByteWriter w;
  trace::EventCodecState state;
  for (uint64_t i = 0; i < 5000; i++) {
    trace::EncodeEventV3(
        trace::RawEvent::Access(0x7f0000000000ULL + i * 8, 8, 1, 77), state, w);
  }
  const Bytes& input = w.buffer();
  Bytes compressed;
  ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
  Bytes output;
  ASSERT_TRUE(
      codec().Decompress(compressed.data(), compressed.size(), input.size(), &output)
          .ok());
  EXPECT_EQ(output, input);
  if (GetParam() == "lzs" || GetParam() == "lzf") {
    // The LZ codecs must exploit the record periodicity.
    EXPECT_LT(compressed.size(), input.size() / 2);
  } else if (GetParam() == "rle") {
    // Striding addresses leave few byte runs; RLE only has to stay near
    // break-even (its worst case adds 1/128 overhead).
    EXPECT_LT(compressed.size(), input.size() + input.size() / 64);
  }
}

TEST_P(CodecTest, RandomFuzzRoundTrip) {
  Rng rng(Fnv1a64(GetParam().data(), GetParam().size()));
  for (int trial = 0; trial < 50; trial++) {
    const size_t n = rng.Below(4096);
    Bytes input(n);
    // Mix random bytes with runs to hit both literal and run/match paths.
    size_t i = 0;
    while (i < n) {
      if (rng.Chance(0.3)) {
        const size_t run = std::min(n - i, static_cast<size_t>(rng.Below(200) + 1));
        const uint8_t v = static_cast<uint8_t>(rng.Next());
        for (size_t k = 0; k < run; k++) input[i++] = v;
      } else {
        input[i++] = static_cast<uint8_t>(rng.Next());
      }
    }
    RoundTrip(input);
  }
}

TEST_P(CodecTest, DecompressRejectsWrongSize) {
  const Bytes input = {1, 1, 1, 1, 2, 3, 4, 5, 5, 5, 5, 5};
  Bytes compressed;
  ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
  Bytes output;
  EXPECT_FALSE(codec()
                   .Decompress(compressed.data(), compressed.size(),
                               input.size() + 1, &output)
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest, testing::ValuesIn(CompressorNames()),
                         [](const auto& info) { return info.param; });

TEST(CompressorRegistry, KnowsAllCodecs) {
  EXPECT_NE(FindCompressor("raw"), nullptr);
  EXPECT_NE(FindCompressor("rle"), nullptr);
  EXPECT_NE(FindCompressor("lzs"), nullptr);
  EXPECT_NE(FindCompressor("lzf"), nullptr);
  EXPECT_EQ(FindCompressor("zstd"), nullptr);
  EXPECT_EQ(DefaultCompressor()->Name(), std::string("lzf"));
}

TEST(Frame, RoundTripAllCodecs) {
  Bytes payload(3000);
  Rng rng(4);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.Below(7));

  for (const auto& name : CompressorNames()) {
    Bytes file;
    ASSERT_TRUE(WriteFrame(*FindCompressor(name), payload.data(), payload.size(), &file)
                    .ok());
    ByteReader r(file);
    FrameView view;
    ASSERT_TRUE(ReadFrame(r, &view).ok()) << name;
    EXPECT_EQ(view.data, payload);
    EXPECT_EQ(view.raw_size, payload.size());
    EXPECT_EQ(view.frame_size, file.size());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Frame, SequentialFramesStream) {
  Bytes file;
  for (int k = 0; k < 5; k++) {
    Bytes payload(100 + static_cast<size_t>(k) * 37, static_cast<uint8_t>(k));
    ASSERT_TRUE(
        WriteFrame(*DefaultCompressor(), payload.data(), payload.size(), &file).ok());
  }
  ByteReader r(file);
  for (int k = 0; k < 5; k++) {
    FrameView view;
    ASSERT_TRUE(ReadFrame(r, &view).ok());
    EXPECT_EQ(view.raw_size, 100u + static_cast<size_t>(k) * 37);
    EXPECT_EQ(view.data[0], static_cast<uint8_t>(k));
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Frame, SkipWithoutDecompressing) {
  Bytes file;
  Bytes payload(1000, 9);
  ASSERT_TRUE(
      WriteFrame(*DefaultCompressor(), payload.data(), payload.size(), &file).ok());
  ByteReader r(file);
  uint64_t raw_size = 0;
  ASSERT_TRUE(SkipFrame(r, &raw_size).ok());
  EXPECT_EQ(raw_size, 1000u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Frame, ChecksumCatchesCorruption) {
  Bytes file;
  Bytes payload(500, 3);
  ASSERT_TRUE(
      WriteFrame(*DefaultCompressor(), payload.data(), payload.size(), &file).ok());
  file[file.size() - 1] ^= 0xff;  // flip a payload byte
  ByteReader r(file);
  FrameView view;
  EXPECT_FALSE(ReadFrame(r, &view).ok());
}

TEST(Frame, BadMagicRejected) {
  Bytes file = {0, 1, 2, 3, 4, 5, 6, 7};
  ByteReader r(file);
  FrameView view;
  EXPECT_EQ(ReadFrame(r, &view).code(), ErrorCode::kCorruptData);
}

}  // namespace
}  // namespace sword
