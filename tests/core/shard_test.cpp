// Deterministic sharding logic (core/shard.h): partitioning, the chunk
// codec, and the merge — everything the multi-process harnesses rely on,
// exercised without spawning a process — plus the one routine that does
// spawn them (tools/shard_util.h), driven with shell-script workers.
#include "bgpcmp/core/shard.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>

#include "bgpcmp/netbase/check.h"
#include "../../tools/shard_util.h"
#include "../testutil.h"

namespace bgpcmp::core {
namespace {

TEST(ShardRange, TilesExactlyForAnyShardCount) {
  for (const std::size_t count : {0ul, 1ul, 7ul, 16ul, 103ul}) {
    for (const int shards : {1, 2, 3, 8, 64}) {
      std::size_t covered = 0;
      std::size_t max_size = 0;
      std::size_t min_size = count + 1;
      for (int i = 0; i < shards; ++i) {
        const auto range = shard_range(count, shards, i);
        EXPECT_EQ(range.begin, covered) << count << "/" << shards << "#" << i;
        covered = range.end;
        max_size = std::max(max_size, range.size());
        min_size = std::min(min_size, range.size());
      }
      EXPECT_EQ(covered, count);
      // Balanced: block sizes differ by at most one.
      EXPECT_LE(max_size - min_size, 1u) << count << "/" << shards;
    }
  }
}

TEST(ShardRange, RejectsBadIndices) {
  ScopedCheckThrows throws;
  EXPECT_THROW((void)shard_range(10, 0, 0), CheckError);
  EXPECT_THROW((void)shard_range(10, 4, 4), CheckError);
  EXPECT_THROW((void)shard_range(10, 4, -1), CheckError);
}

TEST(MergeFingerprint, DependsOnOrderAndContent) {
  const std::vector<std::string> a{"alpha 1", "beta 2"};
  const std::vector<std::string> b{"beta 2", "alpha 1"};
  const std::vector<std::string> c{"alpha 1", "beta 3"};
  EXPECT_NE(merge_fingerprint(a), merge_fingerprint(b));
  EXPECT_NE(merge_fingerprint(a), merge_fingerprint(c));
  EXPECT_EQ(merge_fingerprint(a), merge_fingerprint({a.begin(), a.end()}));
}

ScaleChunkResult sample_chunk(std::uint32_t id) {
  ScaleChunkResult chunk;
  chunk.chunk = id;
  chunk.pairs = 3;
  chunk.series_digest = 0xdeadbeefcafef00dULL + id;
  // Values a text codec gets wrong unless it round-trips exactly.
  chunk.fig1.push_back({0.1, 1.0e9});
  chunk.fig1.push_back({-3.0000000000000004, 7.25});
  chunk.fig1.push_back({1.0 / 3.0, 2.2250738585072014e-308});
  return chunk;
}

TEST(ChunkCodec, RoundTripsBitExactly) {
  const auto original = sample_chunk(5);
  const auto decoded = decode_scale_chunks(encode_scale_chunk(original));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].chunk, original.chunk);
  EXPECT_EQ(decoded[0].pairs, original.pairs);
  EXPECT_EQ(decoded[0].series_digest, original.series_digest);
  ASSERT_EQ(decoded[0].fig1.size(), original.fig1.size());
  for (std::size_t i = 0; i < original.fig1.size(); ++i) {
    EXPECT_EQ(decoded[0].fig1[i].value, original.fig1[i].value) << i;
    EXPECT_EQ(decoded[0].fig1[i].weight, original.fig1[i].weight) << i;
  }
  EXPECT_EQ(decoded[0].line(), original.line());
}

TEST(ChunkCodec, DecodesConcatenatedStreams) {
  const std::string text =
      encode_scale_chunk(sample_chunk(0)) + encode_scale_chunk(sample_chunk(1));
  const auto decoded = decode_scale_chunks(text);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].chunk, 0u);
  EXPECT_EQ(decoded[1].chunk, 1u);
}

TEST(ChunkCodec, RejectsTruncatedInput) {
  std::string text = encode_scale_chunk(sample_chunk(0));
  text.resize(text.size() / 2);                  // cut mid-points
  text.resize(text.rfind('\n') + 1);             // keep line-structure valid
  ScopedCheckThrows throws;
  EXPECT_THROW((void)decode_scale_chunks(text), CheckError);
}

TEST(MergeScaleChunks, ReordersAndValidates) {
  std::vector<ScaleChunkResult> chunks;
  chunks.push_back(sample_chunk(2));
  chunks.push_back(sample_chunk(0));
  chunks.push_back(sample_chunk(1));
  const auto merged = merge_scale_chunks(std::move(chunks), 3, {});
  ASSERT_EQ(merged.chunks.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(merged.chunks[c].chunk, c);
  EXPECT_NE(merged.fingerprint(), 0u);
}

TEST(MergeScaleChunks, RejectsMissingChunk) {
  std::vector<ScaleChunkResult> chunks;
  chunks.push_back(sample_chunk(0));
  chunks.push_back(sample_chunk(2));
  ScopedCheckThrows throws;
  EXPECT_THROW((void)merge_scale_chunks(std::move(chunks), 3, {}), CheckError);
}

TEST(ShardedStudy, BlocksMergeToTheSerialResult) {
  // The full multi-process contract, minus the processes: run the study's
  // chunks as N contiguous blocks (each one a worker's run_scale_block),
  // encode/decode across the "boundary", merge, and compare bytes.
  const auto cfg = test::small_scenario_config();
  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig scfg;
  scfg.study.days = 0.25;
  scfg.study.window_stride = 3;
  scfg.chunk_origins = 16;
  const auto serial = run_scale_study(*world, scfg);
  const auto windows = study_windows(scfg.study);
  const auto chunk_count = serial.chunks.size();

  // The last count exceeds the chunk count, so some blocks are empty.
  for (const int shards : {1, 2, 3, static_cast<int>(chunk_count) + 2}) {
    std::string wire;
    for (int w = 0; w < shards; ++w) {
      for (const auto& chunk : run_scale_block(*world, scfg, windows, shards, w)) {
        wire += encode_scale_chunk(chunk);
      }
    }
    const auto merged =
        merge_scale_chunks(decode_scale_chunks(wire), chunk_count, windows);
    EXPECT_EQ(merged.fingerprint(), serial.fingerprint()) << shards << " shards";
    EXPECT_EQ(merged.improvable_traffic_fraction(2.0),
              serial.improvable_traffic_fraction(2.0))
        << shards << " shards";
  }
}

// tools/shard_util.h's run_shards, with /bin/sh workers under a private
// TMPDIR: outputs come back in worker order, a failed worker is named with
// its cause, and no worker file outlives the run.
class RunShards : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("TMPDIR");
    if (old != nullptr) saved_ = old;
    had_tmpdir_ = old != nullptr;
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("run_shards_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ::setenv("TMPDIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    if (had_tmpdir_) {
      ::setenv("TMPDIR", saved_.c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::filesystem::remove_all(dir_);
  }

  /// Run three workers; worker `w` runs `script(w)` with its output path as $0.
  tools::ShardRun run(const std::function<std::string(int)>& script,
                      std::string* err) {
    ::testing::internal::CaptureStderr();
    auto result = tools::run_shards(3, "test", [&](int w, const std::string& out) {
      return std::vector<std::string>{"/bin/sh", "-c", script(w), out};
    });
    *err = ::testing::internal::GetCapturedStderr();
    return result;
  }

  std::size_t leftover_files() const {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().starts_with("bgpcmp_shard_")) ++n;
    }
    return n;
  }

 private:
  std::filesystem::path dir_;
  std::string saved_;
  bool had_tmpdir_ = false;
};

TEST_F(RunShards, ReturnsOutputsInWorkerOrder) {
  std::string err;
  const auto result = run(
      [](int w) { return "printf 'out %d\\n' " + std::to_string(w) + " > \"$0\""; }, &err);
  EXPECT_TRUE(result.failed.empty()) << err;
  EXPECT_EQ(result.outputs, (std::vector<std::string>{"out 0\n", "out 1\n", "out 2\n"}));
  EXPECT_EQ(leftover_files(), 0u);
}

TEST_F(RunShards, NamesAKilledWorkerAndItsSignal) {
  std::string err;
  const auto result = run(
      [](int w) {
        return w == 1 ? std::string{"echo partial > \"$0\"; kill -9 $$"}
                      : std::string{"echo done > \"$0\""};
      },
      &err);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(result.failed, std::vector<int>{1});
  EXPECT_NE(err.find("shard worker 1 of 3 failed: killed by signal 9 (SIGKILL)"),
            std::string::npos)
      << err;
  EXPECT_EQ(leftover_files(), 0u);
}

TEST_F(RunShards, NamesAWorkerThatExitsNonzero) {
  std::string err;
  const auto result = run(
      [](int w) {
        return w == 2 ? std::string{"exit 3"} : std::string{"echo done > \"$0\""};
      },
      &err);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(result.failed, std::vector<int>{2});
  EXPECT_NE(err.find("shard worker 2 of 3 failed: exit code 3"), std::string::npos)
      << err;
  EXPECT_EQ(leftover_files(), 0u);
}

}  // namespace
}  // namespace bgpcmp::core
