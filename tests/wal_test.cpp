// Tests for the write-ahead log: the walio frame codec (replay order, torn
// and corrupt tails, the CRC itself) and the fsync discipline the segment
// engine keeps around its WAL and manifest.
#include "logm/wal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "logm/storage_engine.hpp"

namespace dla::logm {
namespace {

namespace fs = std::filesystem;

struct WalFixture : ::testing::Test {
  WalFixture() {
    dir = fs::temp_directory_path() /
          ("dla_wal_test_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir);
    path = (dir / "fragments.wal").string();
  }
  ~WalFixture() override {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  Fragment frag(Glsn glsn, std::int64_t time) {
    Fragment f;
    f.glsn = glsn;
    f.attrs = {{"Time", Value(time)}, {"id", Value("U1")}};
    return f;
  }

  void append_put(const Fragment& f) {
    net::Writer w;
    f.encode(w);
    walio::append_frame(path, walio::kOpPut, w.bytes());
  }

  void append_erase(Glsn glsn) {
    net::Writer w;
    w.u64(glsn);
    walio::append_frame(path, walio::kOpErase, w.bytes());
  }

  // Replays the log into `store` the way a memtable recovers.
  walio::ReplayStats replay(FragmentStore& store) {
    return walio::replay_frames(path, [&](std::uint8_t op, net::Reader& r) {
      if (op == walio::kOpPut) {
        store.put(Fragment::decode(r));
      } else {
        ASSERT_EQ(op, walio::kOpErase);
        store.erase(r.u64());
      }
    });
  }

  fs::path dir;
  std::string path;
};

TEST_F(WalFixture, FreshStoreIsEmpty) {
  FragmentStore store;
  const walio::ReplayStats stats = replay(store);  // no log file yet
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
}

TEST_F(WalFixture, PutSurvivesReopen) {
  append_put(frag(1, 100));
  append_put(frag(2, 200));
  FragmentStore store;
  EXPECT_EQ(replay(store).replayed, 2u);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.get(2), nullptr);
  EXPECT_EQ(store.get(2)->attrs.at("Time").as_int(), 200);
}

TEST_F(WalFixture, EraseSurvivesReopen) {
  append_put(frag(1, 100));
  append_put(frag(2, 200));
  append_erase(1);
  FragmentStore store;
  EXPECT_EQ(replay(store).replayed, 3u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(1), nullptr);
  EXPECT_NE(store.get(2), nullptr);
}

TEST_F(WalFixture, OverwriteKeepsLatestValue) {
  append_put(frag(1, 100));
  append_put(frag(1, 999));
  FragmentStore store;
  replay(store);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(1)->attrs.at("Time").as_int(), 999);
}

TEST_F(WalFixture, TornTailIsDroppedCleanly) {
  append_put(frag(1, 100));
  append_put(frag(2, 200));
  // Simulate a crash mid-append: truncate the last 5 bytes.
  fs::resize_file(path, fs::file_size(path) - 5);
  FragmentStore store;
  const walio::ReplayStats stats = replay(store);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.get(1), nullptr);
  EXPECT_EQ(store.get(2), nullptr);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 1u);
}

TEST_F(WalFixture, BitFlipInvalidatesFrameAndTail) {
  append_put(frag(1, 100));
  append_put(frag(2, 200));
  const auto second_frame_end = fs::file_size(path);
  append_put(frag(3, 300));
  // Flip the last payload byte of the SECOND frame: its CRC no longer
  // matches, and the intact third frame behind it must not replay either.
  const auto offset = static_cast<std::streamoff>(second_frame_end - 1);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  char byte = 0;
  f.seekg(offset);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xFF);
  f.seekp(offset);
  f.write(&byte, 1);
  f.close();
  FragmentStore store;
  const walio::ReplayStats stats = replay(store);
  // Recovery keeps the prefix before the corruption and drops the rest.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.get(1), nullptr);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 1u);
}

// Sealing is the segment engine's log compaction: the sealed rows live on in
// the segment and the WAL restarts empty, so a reopen replays no frames.
TEST_F(WalFixture, CompactedLogReplaysFasterFrames) {
  SegmentEngine::Options opts;
  opts.memtable_max_records = 0;  // manual seal
  {
    SegmentEngine eng(dir.string(), opts);
    for (Glsn g = 1; g <= 10; ++g) eng.put(frag(g, 1));
    for (Glsn g = 1; g <= 10; ++g) eng.put(frag(g, 2));  // overwrites
    EXPECT_EQ(eng.seal(), 10u);
  }
  reset_storage_stats();
  SegmentEngine reopened(dir.string(), opts);
  EXPECT_EQ(storage_stats().wal_frames_replayed, 0u);
  EXPECT_EQ(reopened.size(), 10u);
  EXPECT_EQ(reopened.fetch(7)->attrs.at("Time").as_int(), 2);
}

TEST_F(WalFixture, AppendSyncsEveryAcknowledgedFrame) {
  SegmentEngine::Options opts;
  opts.memtable_max_records = 0;  // no seal in between
  SegmentEngine eng(dir.string(), opts);
  EXPECT_EQ(eng.file_sync_calls(), 0u);
  eng.put(frag(1, 100));
  eng.put(frag(2, 200));
  eng.erase(1);
  // One fsync per acknowledged frame (2 puts + 1 erase): flush() alone
  // leaves frames in the page cache, where a power cut can tear them.
  EXPECT_EQ(eng.file_sync_calls(), 3u);
}

TEST_F(WalFixture, CompactSyncsTmpAndParentDirectory) {
  SegmentEngine::Options opts;
  opts.memtable_max_records = 0;
  opts.auto_compact = false;
  opts.compaction_fanout = 2;
  SegmentEngine eng(dir.string(), opts);
  for (Glsn g = 1; g <= 10; ++g) {
    eng.put(frag(g, static_cast<std::int64_t>(g)));
    if (g % 5 == 0) eng.seal();
  }
  const std::size_t files_before = eng.file_sync_calls();
  const std::size_t dirs_before = eng.dir_sync_calls();
  EXPECT_EQ(eng.compact(), 1u);
  // The merged segment and the manifest tmp are synced before the rename
  // publishes them, and the parent directory after it.
  EXPECT_EQ(eng.file_sync_calls(), files_before + 2);
  EXPECT_EQ(eng.dir_sync_calls(), dirs_before + 1);
}

TEST(WalCrc, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

}  // namespace
}  // namespace dla::logm
