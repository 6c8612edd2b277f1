// Unit tests for the write-ahead journal (core/journal.h) and the
// crash-consistent broker facade (core/durable_broker.h): record framing,
// torn-tail vs. corruption classification, recovery, anchoring, and
// idempotent duplicate delivery. The fault-injection FaultyJournalFile
// comes from the fuzz harness library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/durable_broker.h"
#include "core/journal.h"
#include "net/server.h"
#include "tools/fuzz_harness.h"
#include "topo/fig8.h"

namespace qosbb {
namespace {

using fuzz::batch_execution_order;
using fuzz::digest_of;
using fuzz::FaultyJournalFile;
using fuzz::run_member;
using fuzz::StateDigest;

WireBuffer payload_bytes(std::initializer_list<std::uint8_t> bytes) {
  return WireBuffer(bytes);
}

/// A group-commit frame: the members framed back to back, in place, at
/// consecutive LSNs — how DurableBroker::execute_batch builds its frame.
WireBuffer group_frame(std::uint64_t first_lsn, JournalOpKind kind,
                       const std::vector<WireBuffer>& payloads) {
  JournalFrameWriter frame;
  for (const WireBuffer& payload : payloads) {
    frame.open_record(first_lsn++, kind).raw(payload);
    frame.close_record();
  }
  return frame.take();
}

// ---- Framing + scanning ----

TEST(JournalFraming, FrameAndScanRoundTrip) {
  WireBuffer image;
  const WireBuffer p1 = payload_bytes({1, 2, 3});
  const WireBuffer p2 = payload_bytes({});
  const WireBuffer p3 = payload_bytes({0xff});
  for (const auto& [lsn, kind, payload] :
       {std::tuple{std::uint64_t{1}, JournalOpKind::kAdmit, p1},
        std::tuple{std::uint64_t{2}, JournalOpKind::kRelease, p2},
        std::tuple{std::uint64_t{3}, JournalOpKind::kAnchor, p3}}) {
    const WireBuffer rec = frame_journal_record(lsn, kind, payload);
    image.insert(image.end(), rec.begin(), rec.end());
  }
  const JournalScan scan = scan_journal(image);
  ASSERT_TRUE(scan.error.is_ok()) << scan.error.to_string();
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.clean_bytes, image.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].lsn, 1u);
  EXPECT_EQ(scan.records[0].kind, JournalOpKind::kAdmit);
  EXPECT_EQ(scan.records[0].payload, p1);
  EXPECT_EQ(scan.records[1].payload, p2);
  EXPECT_EQ(scan.records[2].kind, JournalOpKind::kAnchor);
}

TEST(JournalFraming, EmptyImageScansClean) {
  const JournalScan scan = scan_journal({});
  EXPECT_TRUE(scan.error.is_ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_TRUE(scan.records.empty());
}

// A record cut off by end-of-file with a consistent header is a torn tail:
// the crash hit mid-append, nothing acknowledged was lost.
TEST(JournalFraming, TornTailIsCleanNotCorrupt) {
  const WireBuffer r1 =
      frame_journal_record(1, JournalOpKind::kAdmit, payload_bytes({7, 8}));
  const WireBuffer r2 =
      frame_journal_record(2, JournalOpKind::kRelease,
                           payload_bytes({9, 10, 11, 12}));
  // Cut inside the header and at several points inside the region.
  for (std::size_t cut = 1; cut < r2.size(); ++cut) {
    WireBuffer image = r1;
    image.insert(image.end(), r2.begin(),
                 r2.begin() + static_cast<std::ptrdiff_t>(cut));
    const JournalScan scan = scan_journal(image);
    ASSERT_TRUE(scan.error.is_ok()) << "cut " << cut;
    EXPECT_TRUE(scan.torn_tail) << "cut " << cut;
    EXPECT_EQ(scan.clean_bytes, r1.size()) << "cut " << cut;
    ASSERT_EQ(scan.records.size(), 1u) << "cut " << cut;
    EXPECT_EQ(scan.records[0].lsn, 1u);
  }
}

// A multi-record group frame cut at EVERY byte must
// scan as all-or-prefix: the complete member records before the cut, plus
// at most one torn member dropped as the usual torn tail — never an error,
// never a half-parsed member.
TEST(JournalFraming, GroupFrameEveryByteCutIsAllOrPrefix) {
  const WireBuffer head =
      frame_journal_record(1, JournalOpKind::kAdmit, payload_bytes({9}));
  const std::vector<WireBuffer> payloads = {payload_bytes({1, 2, 3}),
                                            payload_bytes({}),
                                            payload_bytes({4, 5})};
  const WireBuffer group =
      group_frame(2, JournalOpKind::kAdmit, payloads);
  WireBuffer image = head;
  image.insert(image.end(), group.begin(), group.end());

  // The intact frame: one head record plus three members, consecutive LSNs.
  const JournalScan full = scan_journal(image);
  ASSERT_TRUE(full.error.is_ok()) << full.error.to_string();
  EXPECT_FALSE(full.torn_tail);
  ASSERT_EQ(full.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(full.records[i].lsn, i + 1) << "record " << i;
  }
  EXPECT_EQ(full.records[1].payload, payloads[0]);
  EXPECT_EQ(full.records[3].payload, payloads[2]);

  // Member record boundaries inside the group portion of the image.
  std::vector<std::size_t> boundaries = {head.size()};
  for (std::size_t i = 1; i < full.records.size(); ++i) {
    boundaries.push_back(boundaries.back() + 12 +
                         9 /* lsn+kind */ + full.records[i].payload.size());
  }
  ASSERT_EQ(boundaries.back(), image.size());

  for (std::size_t cut = head.size(); cut < image.size(); ++cut) {
    const WireBuffer prefix(image.begin(),
                            image.begin() + static_cast<std::ptrdiff_t>(cut));
    const JournalScan scan = scan_journal(prefix);
    ASSERT_TRUE(scan.error.is_ok())
        << "cut " << cut << ": " << scan.error.to_string();
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_EQ(scan.records.size(), 1 + complete) << "cut " << cut;
    EXPECT_EQ(scan.clean_bytes, boundaries[complete]) << "cut " << cut;
    EXPECT_EQ(scan.torn_tail, cut != boundaries[complete]) << "cut " << cut;
  }
}

// A bit flip anywhere inside a group frame is CORRUPTION (kDataLoss), with
// the member prefix before the damage surviving — same classification as
// single-record framing.
TEST(JournalFraming, GroupFrameBitFlipIsDataLoss) {
  const std::vector<WireBuffer> payloads = {payload_bytes({1, 2}),
                                            payload_bytes({3})};
  const WireBuffer group =
      group_frame(1, JournalOpKind::kAdmit, payloads);
  for (std::size_t bit = 0; bit < group.size() * 8; ++bit) {
    WireBuffer bad = group;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const JournalScan scan = scan_journal(bad);
    EXPECT_EQ(scan.error.code(), StatusCode::kDataLoss) << "bit " << bit;
  }
}

// A bit flip in the length field must read as CORRUPTION (the ones-
// complement copy disagrees), never as a plausible torn tail.
TEST(JournalFraming, LengthBitFlipIsDataLoss) {
  WireBuffer image =
      frame_journal_record(1, JournalOpKind::kAdmit, payload_bytes({1}));
  image[0] ^= 0x40;  // low byte of len
  const JournalScan scan = scan_journal(image);
  EXPECT_EQ(scan.error.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_TRUE(scan.records.empty());
}

TEST(JournalFraming, RegionBitFlipIsDataLoss) {
  const WireBuffer r1 =
      frame_journal_record(1, JournalOpKind::kAdmit, payload_bytes({1, 2}));
  WireBuffer image = r1;
  const WireBuffer r2 =
      frame_journal_record(2, JournalOpKind::kRelease, payload_bytes({3}));
  image.insert(image.end(), r2.begin(), r2.end());
  // Flip every bit of the second record's region in turn: CRC must catch
  // each one, and the valid prefix must survive.
  for (std::size_t bit = 12 * 8; bit < r2.size() * 8; ++bit) {
    WireBuffer bad = image;
    bad[r1.size() + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const JournalScan scan = scan_journal(bad);
    EXPECT_EQ(scan.error.code(), StatusCode::kDataLoss) << "bit " << bit;
    EXPECT_EQ(scan.records.size(), 1u) << "bit " << bit;
  }
}

TEST(JournalFraming, LsnGapIsDataLoss) {
  WireBuffer image =
      frame_journal_record(1, JournalOpKind::kAdmit, payload_bytes({}));
  const WireBuffer r3 =
      frame_journal_record(3, JournalOpKind::kRelease, payload_bytes({}));
  image.insert(image.end(), r3.begin(), r3.end());
  const JournalScan scan = scan_journal(image);
  EXPECT_EQ(scan.error.code(), StatusCode::kDataLoss);
  EXPECT_NE(scan.error.to_string().find("LSN"), std::string::npos);
}

TEST(JournalFraming, UnknownKindIsDataLoss) {
  const WireBuffer image = frame_journal_record(
      1, static_cast<JournalOpKind>(0), payload_bytes({}));
  const JournalScan scan = scan_journal(image);
  EXPECT_EQ(scan.error.code(), StatusCode::kDataLoss);
}

// The sliced CRC is the plain zlib CRC-32 (check value of "123456789"),
// at every length and alignment, and extending it piece by piece gives the
// CRC of the concatenation.
TEST(JournalFraming, Crc32MatchesTheBytewiseDefinition) {
  const std::string check = "123456789";
  EXPECT_EQ(journal_crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                          check.size()),
            0xCBF43926u);
  auto bytewise = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  WireBuffer data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t from = 0; from < 9; ++from) {
    for (std::size_t n = 0; from + n <= data.size(); ++n) {
      const std::uint8_t* p = data.data() + from;
      const std::uint32_t want = bytewise(p, n);
      ASSERT_EQ(journal_crc32(p, n), want) << from << "+" << n;
      const std::size_t cut = n / 3;
      EXPECT_EQ(journal_crc32_extend(journal_crc32(p, cut), p + cut, n - cut),
                want);
    }
  }
}

TEST(JournalFile, FsBackingRoundTrips) {
  const std::string path = ::testing::TempDir() + "/qosbb_journal_wal.bin";
  std::remove(path.c_str());
  FsJournalFile file(path);
  EXPECT_TRUE(file.read_all().is_ok());  // absent file reads as empty
  EXPECT_TRUE(file.read_all().value().empty());
  const WireBuffer r1 =
      frame_journal_record(1, JournalOpKind::kAdmit, payload_bytes({1, 2}));
  ASSERT_TRUE(file.append(r1).is_ok());
  ASSERT_TRUE(file.append(r1).is_ok());
  auto all = file.read_all();
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value().size(), 2 * r1.size());
  ASSERT_TRUE(file.replace(r1).is_ok());
  all = file.read_all();
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value(), r1);
  std::remove(path.c_str());
}

// One descriptor per FsJournalFile: replace() renames a fresh file over
// the path and drops the descriptor, so the next append must land in the
// renamed file, not in the unlinked one the old descriptor still names.
TEST(JournalFile, FsAppendAfterReplaceLandsInRenamedFile) {
  const std::string path = ::testing::TempDir() + "/qosbb_journal_swap.bin";
  std::remove(path.c_str());
  FsJournalFile file(path);
  const WireBuffer r1 =
      frame_journal_record(1, JournalOpKind::kAdmit, payload_bytes({1}));
  const WireBuffer r2 =
      frame_journal_record(2, JournalOpKind::kAnchor, payload_bytes({2, 2}));
  const WireBuffer r3 =
      frame_journal_record(3, JournalOpKind::kRelease, payload_bytes({3}));
  ASSERT_TRUE(file.append(r1).is_ok());
  ASSERT_TRUE(file.replace(r2).is_ok());
  ASSERT_TRUE(file.append(r3).is_ok());

  WireBuffer expected = r2;
  expected.insert(expected.end(), r3.begin(), r3.end());
  auto all = file.read_all();
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value(), expected);
  // Another object reading the path sees the same bytes.
  auto other = FsJournalFile(path).read_all();
  ASSERT_TRUE(other.is_ok());
  EXPECT_EQ(other.value(), expected);
  const JournalScan scan = scan_journal(all.value());
  ASSERT_TRUE(scan.error.is_ok());
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].lsn, 2u);
  EXPECT_EQ(scan.records[1].kind, JournalOpKind::kRelease);
  std::remove(path.c_str());
}

class DurableFsJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/qosbb_durable_fs.bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<DurableBroker> open(FsJournalFile& file) {
    auto db = DurableBroker::open(spec_, opts_, file);
    EXPECT_TRUE(db.is_ok()) << db.status().to_string();
    return db.is_ok() ? std::move(db.value()) : nullptr;
  }
  std::uint32_t digest(const DurableBroker& db) {
    auto d = broker_state_digest(db.broker());
    EXPECT_TRUE(d.is_ok());
    return d.is_ok() ? d.value() : 0;
  }
  static FlowServiceRequest request() {
    return {TrafficProfile::make(60000, 50000, 100000, 12000), 2.19, "I2",
            "E2"};
  }
  /// Append bytes behind the broker's back: a crash mid-append.
  void append_raw(const WireBuffer& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  DomainSpec spec_ = fig8_topology(Fig8Setting::kMixed);
  BrokerOptions opts_;
  std::string path_;
};

// The broker's descriptor survives its own anchors (replace reopens on the
// next append), and the torn-tail truncate that open() performs through
// replace() is followed by a clean append, not one behind the torn bytes.
TEST_F(DurableFsJournalTest, ReopensAfterAnchorAndAfterTornTailTruncate) {
  std::uint32_t live = 0;
  std::uint64_t lsn = 0;
  {
    FsJournalFile file(path_);
    auto db = open(file);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
    ASSERT_TRUE(db->request_service(2, request(), 0.0).is_ok());
    ASSERT_TRUE(db->checkpoint().is_ok());
    ASSERT_TRUE(db->request_service(3, request(), 1.0).is_ok());
    live = digest(*db);
    lsn = db->next_lsn();
  }
  WireBuffer torn = frame_journal_record(lsn, JournalOpKind::kRelease,
                                         payload_bytes({1, 2, 3, 4}));
  torn.resize(torn.size() - 3);
  append_raw(torn);

  FlowId third = kInvalidFlowId;
  {
    FsJournalFile file(path_);
    auto db = open(file);
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->next_lsn(), lsn);
    EXPECT_EQ(digest(*db), live);
    auto r = db->request_service(4, request(), 2.0);
    ASSERT_TRUE(r.is_ok());
    third = r.value().flow;
    live = digest(*db);
    lsn = db->next_lsn();
  }
  auto image = FsJournalFile(path_).read_all();
  ASSERT_TRUE(image.is_ok());
  const JournalScan scan = scan_journal(image.value());
  ASSERT_TRUE(scan.error.is_ok()) << scan.error.to_string();
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);  // anchor + admit + the new admit
  EXPECT_EQ(scan.records.front().kind, JournalOpKind::kAnchor);

  FsJournalFile file(path_);
  auto db = open(file);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->next_lsn(), lsn);
  EXPECT_EQ(digest(*db), live);
  EXPECT_TRUE(db->broker().flows().get(third).is_ok());
}

// Recovery only reads (and at most truncates a torn tail once): two
// brokers opened back to back on the same path rebuild the same state.
TEST_F(DurableFsJournalTest, BackToBackOpensRecoverTheSameState) {
  std::uint32_t live = 0;
  std::uint64_t lsn = 0;
  {
    FsJournalFile file(path_);
    auto db = open(file);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
    auto a = db->request_service(2, request(), 0.0);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(db->request_service(3, request(), 1.0).is_ok());
    ASSERT_TRUE(db->release_service(4, a.value().flow).is_ok());
    live = digest(*db);
    lsn = db->next_lsn();
  }
  append_raw(payload_bytes({9, 9, 9}));  // torn header

  FsJournalFile first_file(path_);
  auto first = open(first_file);
  FsJournalFile second_file(path_);
  auto second = open(second_file);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->next_lsn(), lsn);
  EXPECT_EQ(second->next_lsn(), lsn);
  EXPECT_EQ(digest(*first), live);
  EXPECT_EQ(digest(*second), live);
  EXPECT_TRUE(second->remembers(4));
}

// ---- DurableBroker recovery + idempotency ----

class DurableBrokerTest : public ::testing::Test {
 protected:
  DomainSpec spec_ = fig8_topology(Fig8Setting::kMixed);
  BrokerOptions opts_;
  FaultyJournalFile file_;

  std::unique_ptr<DurableBroker> open(DurableBrokerOptions dopts = {}) {
    auto db = DurableBroker::open(spec_, opts_, file_, dopts);
    EXPECT_TRUE(db.is_ok()) << db.status().to_string();
    return std::move(db.value());
  }

  static FlowServiceRequest probe_request() {
    return {TrafficProfile::make(60000, 50000, 100000, 12000), 2.19, "I2",
            "E2"};
  }
};

TEST_F(DurableBrokerTest, RecoveryReproducesAcknowledgedState) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  auto r1 = db->request_service(2, probe_request(), 0.0);
  ASSERT_TRUE(r1.is_ok());
  auto r2 = db->request_service(3, probe_request(), 1.0);
  ASSERT_TRUE(r2.is_ok());
  ASSERT_TRUE(db->release_service(4, r1.value().flow).is_ok());
  const double reserved =
      db->broker().nodes().link("R3->R4").reserved();

  auto db2 = open();
  EXPECT_EQ(db2->stats().replayed, db->stats().appended);
  EXPECT_EQ(db2->next_lsn(), db->next_lsn());
  EXPECT_EQ(db2->broker().flows().count(), 1u);
  // Exact equality: deterministic redo from the identical base state.
  EXPECT_EQ(db2->broker().nodes().link("R3->R4").reserved(), reserved);
}

TEST_F(DurableBrokerTest, DuplicateDeliveryReplaysWithoutStateChange) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  auto first = db->request_service(2, probe_request(), 0.0);
  ASSERT_TRUE(first.is_ok());
  const std::uint64_t appended = db->stats().appended;
  const double reserved = db->broker().nodes().link("R3->R4").reserved();

  auto dup = db->request_service(2, probe_request(), 5.0);
  ASSERT_TRUE(dup.is_ok());
  EXPECT_EQ(dup.value().flow, first.value().flow);
  EXPECT_EQ(dup.value().params.rate, first.value().params.rate);
  EXPECT_EQ(db->stats().appended, appended);  // no new record
  EXPECT_EQ(db->stats().dedup_hits, 1u);
  EXPECT_EQ(db->broker().flows().count(), 1u);
  EXPECT_EQ(db->broker().nodes().link("R3->R4").reserved(), reserved);
}

// The acid test of the dedup window: a retry of an ADMIT that arrives after
// the flow was already RELEASED must replay the original accept — not
// re-admit a ghost flow.
TEST_F(DurableBrokerTest, DuplicateAfterReleaseDoesNotReadmit) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  auto first = db->request_service(2, probe_request(), 0.0);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(db->release_service(3, first.value().flow).is_ok());
  ASSERT_EQ(db->broker().flows().count(), 0u);

  auto dup = db->request_service(2, probe_request(), 9.0);
  ASSERT_TRUE(dup.is_ok());
  EXPECT_EQ(dup.value().flow, first.value().flow);
  EXPECT_EQ(db->broker().flows().count(), 0u);  // nothing re-admitted
  EXPECT_EQ(db->broker().nodes().link("R3->R4").reserved(), 0.0);
}

TEST_F(DurableBrokerTest, RequestIdReuseAcrossKindsIsRejected) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  auto first = db->request_service(2, probe_request(), 0.0);
  ASSERT_TRUE(first.is_ok());
  const Status s = db->release_service(2, first.value().flow);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db->broker().flows().count(), 1u);  // nothing released
}

TEST_F(DurableBrokerTest, DedupWindowEvictsFifo) {
  DurableBrokerOptions dopts;
  dopts.dedup_window = 2;
  auto db = open(dopts);
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  ASSERT_TRUE(db->request_service(2, probe_request(), 0.0).is_ok());
  ASSERT_TRUE(db->request_service(3, probe_request(), 1.0).is_ok());
  EXPECT_FALSE(db->remembers(1));  // evicted
  EXPECT_TRUE(db->remembers(2));
  EXPECT_TRUE(db->remembers(3));
}

// A crash can lose the acknowledgements of the last decisions it journaled,
// and their clients retry only after a backoff. The decisions a restart
// recovers therefore stay remembered however many new decisions follow.
TEST_F(DurableBrokerTest, RecoveredDecisionsOutliveTheFifoWindow) {
  DurableBrokerOptions dopts;
  dopts.dedup_window = 2;
  FlowId first = kInvalidFlowId;
  {
    auto db = open(dopts);
    ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
    auto r = db->request_service(2, probe_request(), 0.0);
    ASSERT_TRUE(r.is_ok());
    first = r.value().flow;
    ASSERT_TRUE(db->release_service(3, first).is_ok());
  }
  auto db = open(dopts);
  EXPECT_FALSE(db->remembers(1));  // evicted before the crash
  for (RequestId rid = 4; rid < 8; ++rid) {
    ASSERT_TRUE(db->request_service(rid, probe_request(), 1.0).is_ok());
  }
  EXPECT_FALSE(db->remembers(4));  // ordinary FIFO eviction
  EXPECT_TRUE(db->remembers(7));
  // The late retries of the recovered admit and release replay.
  const std::uint64_t lsn = db->next_lsn();
  auto retry = db->request_service(2, probe_request(), 9.0);
  ASSERT_TRUE(retry.is_ok());
  EXPECT_EQ(retry.value().flow, first);
  EXPECT_TRUE(db->release_service(3, first).is_ok());
  EXPECT_EQ(db->next_lsn(), lsn);

  // An anchor carries both sets, and loading it evicts none of them: the
  // recovered decisions still answer their late retries after a second
  // crash.
  ASSERT_TRUE(db->checkpoint().is_ok());
  auto again = open(dopts);
  EXPECT_TRUE(again->remembers(6));
  EXPECT_TRUE(again->remembers(7));
  EXPECT_TRUE(again->remembers(2));
  EXPECT_TRUE(again->remembers(3));
}

// Regression: crash, restart, anchor, crash again. The anchor lists the
// first crash's recovered decisions ahead of a full window; loading it
// used to FIFO-trim them away, so a retry from the first crash (still in
// its client's backoff) re-executed and admitted a second flow.
TEST_F(DurableBrokerTest, RecoveredDecisionsSurviveAnAnchorAndASecondCrash) {
  DurableBrokerOptions dopts;
  dopts.dedup_window = 4;
  FlowId first = kInvalidFlowId;
  {
    auto db = open(dopts);
    ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
    auto r = db->request_service(2, probe_request(), 0.0);
    ASSERT_TRUE(r.is_ok());
    first = r.value().flow;
    ASSERT_TRUE(db->release_service(3, first).is_ok());
    ASSERT_TRUE(db->request_service(4, probe_request(), 0.5).is_ok());
  }  // crash 1: the acks of rids 1..4 may be lost
  {
    auto db = open(dopts);
    ASSERT_TRUE(db->remembers(2));
    for (RequestId rid = 5; rid < 9; ++rid) {  // a full window of new work
      ASSERT_TRUE(db->request_service(rid, probe_request(), 1.0).is_ok());
    }
    ASSERT_TRUE(db->checkpoint().is_ok());
  }  // crash 2, shortly after the anchor
  auto db = open(dopts);
  EXPECT_TRUE(db->remembers(2));
  EXPECT_TRUE(db->remembers(3));
  const std::size_t flows = db->broker().flows().count();
  const std::uint64_t lsn = db->next_lsn();
  auto retry = db->request_service(2, probe_request(), 9.0);
  ASSERT_TRUE(retry.is_ok());
  EXPECT_EQ(retry.value().flow, first);
  EXPECT_TRUE(db->release_service(3, first).is_ok());
  EXPECT_EQ(db->broker().flows().count(), flows);
  EXPECT_EQ(db->next_lsn(), lsn);

  // Repeated crashes do not grow the recovered set without bound: an
  // anchor keeps the newest dedup_window of it, plus the window.
  for (int crash = 0; crash < 3; ++crash) {
    ASSERT_TRUE(db->checkpoint().is_ok());
    db = open(dopts);
    EXPECT_LE(db->dedup_window_size(), 2 * dopts.dedup_window);
  }
}

// Group commit: a batch of fresh admits is ONE durable append carrying one
// journal record per member with consecutive LSNs, and both whole-batch
// redelivery and in-batch duplicate rids dedup against recorded decisions.
TEST_F(DurableBrokerTest, BatchAdmitGroupCommitIsOneAppend) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  const std::uint64_t appends_before = file_.appends();
  const std::uint64_t lsn_before = db->next_lsn();

  const std::vector<RequestId> rids = {2, 3, 4};
  const std::vector<FlowServiceRequest> reqs(3, probe_request());
  const auto results = db->request_service_batch(rids, reqs, 0.0);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(results[j].is_ok()) << "member " << j << ": "
                                    << results[j].status().to_string();
  }
  EXPECT_EQ(file_.appends(), appends_before + 1);  // one flush for three
  EXPECT_EQ(db->next_lsn(), lsn_before + 3);
  const JournalScan scan = scan_journal(file_.contents());
  ASSERT_TRUE(scan.error.is_ok());
  ASSERT_EQ(scan.records.size(), 4u);  // provision + three admits
  EXPECT_EQ(scan.records[3].lsn, scan.records[1].lsn + 2);

  // Whole-batch redelivery: every member replays its recorded decision —
  // same flows, no execution, no new journal bytes.
  const auto dup = db->request_service_batch(rids, reqs, 9.0);
  EXPECT_EQ(db->stats().dedup_hits, 3u);
  EXPECT_EQ(file_.appends(), appends_before + 1);
  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(dup[j].is_ok());
    EXPECT_EQ(dup[j].value().flow, results[j].value().flow);
  }
  EXPECT_EQ(db->broker().flows().count(), 3u);

  // An rid repeated WITHIN a batch dedups against the earlier member: one
  // fresh record, identical results.
  const std::vector<RequestId> rids2 = {5, 5};
  const std::vector<FlowServiceRequest> reqs2(2, probe_request());
  const auto twice = db->request_service_batch(rids2, reqs2, 10.0);
  EXPECT_EQ(db->stats().dedup_hits, 4u);
  ASSERT_EQ(twice[0].is_ok(), twice[1].is_ok());
  if (twice[0].is_ok()) {
    EXPECT_EQ(twice[0].value().flow, twice[1].value().flow);
  }

  // Recovery replays the group frame like any tail records.
  auto db2 = open();
  EXPECT_EQ(db2->broker().flows().count(), db->broker().flows().count());
  EXPECT_EQ(db2->next_lsn(), db->next_lsn());
  EXPECT_TRUE(db2->remembers(3));
}

// Results are indexed by SUBMISSION position while execution happens in
// batch_grouped_order: members of the same path group run back to back, so
// flow ids hand out in grouped order, not submission order.
TEST_F(DurableBrokerTest, BatchResultsSubmissionIndexedGroupedExecution) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  ASSERT_TRUE(db->provision_path(2, "I1", "E1").is_ok());
  FlowServiceRequest a = probe_request();  // I2 -> E2
  FlowServiceRequest b = probe_request();
  b.ingress = "I1";
  b.egress = "E1";
  const std::vector<RequestId> rids = {3, 4, 5, 6};
  const std::vector<FlowServiceRequest> reqs = {a, b, a, b};
  const auto results = db->request_service_batch(rids, reqs, 0.0);
  for (std::size_t j = 0; j < 4; ++j) {
    ASSERT_TRUE(results[j].is_ok()) << "member " << j;
  }
  // Grouped order is [0, 2, 1, 3]; sequential flow ids expose it.
  EXPECT_LT(results[0].value().flow, results[2].value().flow);
  EXPECT_LT(results[2].value().flow, results[1].value().flow);
  EXPECT_LT(results[1].value().flow, results[3].value().flow);
}

// Crash anywhere inside the group frame: recovery must land on the
// all-or-prefix state — the complete member prefix applied and remembered,
// the torn member cleanly absent — at EVERY byte cut.
TEST_F(DurableBrokerTest, BatchFrameCutAtEveryByteRecoversAllOrPrefix) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  const WireBuffer before = file_.contents();

  const std::vector<RequestId> rids = {2, 3, 4};
  const std::vector<FlowServiceRequest> reqs(3, probe_request());
  const auto results = db->request_service_batch(rids, reqs, 0.0);
  for (std::size_t j = 0; j < 3; ++j) ASSERT_TRUE(results[j].is_ok());
  const WireBuffer after = file_.contents();
  ASSERT_GT(after.size(), before.size());

  // Member record boundaries inside the appended frame.
  const JournalScan scan = scan_journal(after);
  ASSERT_TRUE(scan.error.is_ok());
  std::vector<std::size_t> boundaries = {before.size()};
  for (std::size_t i = scan.records.size() - 3; i < scan.records.size();
       ++i) {
    boundaries.push_back(boundaries.back() + 12 + 9 +
                         scan.records[i].payload.size());
  }
  ASSERT_EQ(boundaries.back(), after.size());

  for (std::size_t cut = before.size(); cut <= after.size(); ++cut) {
    FaultyJournalFile partial;
    partial.set_contents(WireBuffer(
        after.begin(), after.begin() + static_cast<std::ptrdiff_t>(cut)));
    auto r = DurableBroker::open(spec_, opts_, partial);
    ASSERT_TRUE(r.is_ok()) << "cut " << cut << ": "
                           << r.status().to_string();
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_EQ(r.value()->broker().flows().count(), complete)
        << "cut " << cut;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(r.value()->remembers(rids[j]), j < complete)
          << "cut " << cut << " member " << j;
    }
  }
}

// A silently dropped GROUP append (the broker acks a batch that never
// reached the log) must be caught by recovery as an LSN discontinuity once
// the next real append lands — the same guarantee the single-record
// sabotage canary enforces, now spanning a whole batch of LSNs.
TEST_F(DurableBrokerTest, BatchDroppedAppendIsCaughtOnRecovery) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  // Swallow the NEXT append (index = appends so far): the group frame.
  file_.set_drop_append_index(file_.appends());
  const std::vector<RequestId> rids = {2, 3};
  const std::vector<FlowServiceRequest> reqs(2, probe_request());
  const auto results = db->request_service_batch(rids, reqs, 0.0);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(db->remembers(2));
  EXPECT_TRUE(db->remembers(3));
  ASSERT_TRUE(db->request_service(4, probe_request(), 1.0).is_ok());
  auto rec = DurableBroker::open(spec_, opts_, file_);
  EXPECT_FALSE(rec.is_ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss);
}

TEST_F(DurableBrokerTest, AnchorTruncatesJournalAndSurvivesRecovery) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  auto first = db->request_service(2, probe_request(), 0.0);
  ASSERT_TRUE(first.is_ok());
  const std::uint64_t lsn_before = db->next_lsn();
  ASSERT_TRUE(db->checkpoint().is_ok());
  // The journal is now a single anchor whose LSN continues the sequence.
  const JournalScan scan = scan_journal(file_.contents());
  ASSERT_TRUE(scan.error.is_ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].kind, JournalOpKind::kAnchor);
  EXPECT_EQ(scan.records[0].lsn, lsn_before);

  // Post-anchor ops append after the anchor; recovery = anchor + tail.
  auto second = db->request_service(3, probe_request(), 2.0);
  ASSERT_TRUE(second.is_ok());
  auto db2 = open();
  EXPECT_EQ(db2->broker().flows().count(), 2u);
  EXPECT_EQ(db2->next_lsn(), db->next_lsn());
  // The dedup window rode along in the anchor: a pre-anchor rid still
  // replays instead of re-executing.
  auto dup = db2->request_service(2, probe_request(), 9.0);
  ASSERT_TRUE(dup.is_ok());
  EXPECT_EQ(dup.value().flow, first.value().flow);
  EXPECT_EQ(db2->broker().flows().count(), 2u);
}

// The byte rule: with no anchor yet the threshold is the 1 MiB floor. The
// append that brings the tail to it is followed by an anchor, after which
// the tail starts from zero and a restart replays nothing.
TEST_F(DurableBrokerTest, AutoAnchorFiresAfterThreshold) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  auto kept = db->request_service(2, probe_request(), 0.0);
  ASSERT_TRUE(kept.is_ok());
  EXPECT_EQ(db->anchor_bytes(), 0u);
  RequestId rid = 3;
  std::uint64_t admit_record = 0;  // every admit here frames the same size
  for (;;) {
    const std::uint64_t tail = db->tail_bytes();
    ASSERT_LT(tail, DurableBroker::kAnchorFloorBytes);
    auto r = db->request_service(rid++, probe_request(), 1.0);
    ASSERT_TRUE(r.is_ok());
    if (db->stats().checkpoints != 0) {
      // Not a record early: this admit's record reached the floor.
      EXPECT_GE(tail + admit_record, DurableBroker::kAnchorFloorBytes);
      break;
    }
    admit_record = db->tail_bytes() - tail;
    ASSERT_TRUE(db->release_service(rid++, r.value().flow).is_ok());
  }
  EXPECT_EQ(db->tail_bytes(), 0u);
  EXPECT_EQ(file_.contents().size(), db->anchor_bytes());
  const JournalScan scan = scan_journal(file_.contents());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].kind, JournalOpKind::kAnchor);
  auto db2 = open();
  EXPECT_EQ(db2->stats().replayed, 0u);
  EXPECT_EQ(db2->broker().flows().count(), db->broker().flows().count());
  EXPECT_EQ(db2->anchor_bytes(), db->anchor_bytes());
}

TEST_F(DurableBrokerTest, TornFinalRecordIsDroppedAndTruncated) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  ASSERT_TRUE(db->request_service(2, probe_request(), 0.0).is_ok());
  const WireBuffer clean = file_.contents();
  // Simulate a crash mid-append of a record that was never acknowledged.
  WireBuffer torn = frame_journal_record(db->next_lsn(),
                                         JournalOpKind::kRelease,
                                         payload_bytes({1, 2, 3, 4}));
  WireBuffer image = clean;
  image.insert(image.end(), torn.begin(), torn.end() - 3);
  file_.set_contents(image);

  auto db2 = open();
  EXPECT_EQ(db2->broker().flows().count(), 1u);
  EXPECT_EQ(db2->next_lsn(), db->next_lsn());
  // Recovery truncated the torn bytes so the next append lands cleanly.
  EXPECT_EQ(file_.contents(), clean);
}

TEST_F(DurableBrokerTest, CorruptJournalIsRefused) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  ASSERT_TRUE(db->request_service(2, probe_request(), 0.0).is_ok());
  db.reset();
  file_.flip_bit(file_.contents().size() * 8 / 2);
  auto bad = DurableBroker::open(spec_, opts_, file_);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
}

TEST_F(DurableBrokerTest, DroppedAppendIsCaughtOnRecovery) {
  file_.set_drop_append_index(1);  // swallow the first admit's record
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  ASSERT_TRUE(db->request_service(2, probe_request(), 0.0).is_ok());
  ASSERT_TRUE(db->request_service(3, probe_request(), 1.0).is_ok());
  db.reset();
  auto bad = DurableBroker::open(spec_, opts_, file_);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.status().to_string().find("LSN"), std::string::npos);
}

// A syntactically valid record whose recorded decision the broker cannot
// reproduce (here: "release of a flow that does not exist succeeded") must
// fail recovery as a replay divergence — never rebuild a different state.
TEST_F(DurableBrokerTest, ReplayDivergenceIsRefused) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  const std::uint64_t lsn = db->next_lsn();
  db.reset();
  WireWriter payload;
  payload.u64(99);      // rid
  payload.i64(424242);  // nonexistent flow
  payload.u8(0);        // recorded outcome: OK
  WireBuffer image = file_.contents();
  const WireBuffer rec =
      frame_journal_record(lsn, JournalOpKind::kRelease, payload.take());
  image.insert(image.end(), rec.begin(), rec.end());
  file_.set_contents(image);

  auto bad = DurableBroker::open(spec_, opts_, file_);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.status().to_string().find("divergence"), std::string::npos);
}

// An admit record in the format before wire version 2 carried an i64
// holding priority after the delay requirement and a u32 evicted-flow
// count (always 0 without eviction) after the bound. A journal holding one
// must fail recovery with kDataLoss, never load as some other request.
TEST_F(DurableBrokerTest, ParentFormatAdmitRecordIsRefused) {
  auto db = open();
  ASSERT_TRUE(db->provision_path(1, "I2", "E2").is_ok());
  ASSERT_TRUE(db->request_service(2, probe_request(), 0.0).is_ok());
  db.reset();
  const WireBuffer current = file_.contents();
  ASSERT_TRUE(DurableBroker::open(spec_, opts_, file_).is_ok());

  // Rebuild the admit record in the parent layout from its current bytes:
  // rid (8) and profile (32) and d_req (8), then the priority.
  const JournalScan scan = scan_journal(current);
  ASSERT_TRUE(scan.error.is_ok());
  ASSERT_EQ(scan.records.size(), 2u);
  const JournalRecord& admit = scan.records.back();
  ASSERT_EQ(admit.kind, JournalOpKind::kAdmit);
  constexpr std::size_t kPriorityAt = 8 + 32 + 8;
  const std::span<const std::uint8_t> fields(admit.payload);
  WireWriter parent;
  parent.raw(fields.first(kPriorityAt));
  parent.i64(0);  // priority
  parent.raw(fields.subspan(kPriorityAt));
  parent.u32(0);  // evicted-flow count
  WireBuffer image = frame_journal_record(scan.records.front().lsn,
                                          scan.records.front().kind,
                                          scan.records.front().payload);
  const WireBuffer rec =
      frame_journal_record(admit.lsn, admit.kind, parent.take());
  image.insert(image.end(), rec.begin(), rec.end());
  file_.set_contents(image);

  auto bad = DurableBroker::open(spec_, opts_, file_);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.status().to_string().find("divergence"), std::string::npos);
}

// ---- Mixed batches: admits and releases under one group commit ----

/// A memory journal whose appends fail while `failing` is set.
class FailingJournalFile : public MemoryJournalFile {
 public:
  Status append(const WireBuffer& bytes) override {
    if (failing) return Status::internal("injected append failure");
    return MemoryJournalFile::append(bytes);
  }
  bool failing = false;
};

class MixedBatchTest : public DurableBrokerTest {
 protected:
  MixedBatchTest() {
    b_.ingress = "I1";
    b_.egress = "E1";
    tight_.e2e_delay_req = 0.01;
  }

  /// Provision both pairs and admit four live flows one at a time.
  void seed(DurableBroker& db) {
    ASSERT_TRUE(db.provision_path(1, "I1", "E1").is_ok());
    ASSERT_TRUE(db.provision_path(2, "I2", "E2").is_ok());
    live_.clear();
    for (RequestId rid = 3; rid < 7; ++rid) {
      auto r = db.request_service(rid, rid % 2 == 1 ? a_ : b_, 0.0);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      live_.push_back(r.value().flow);
    }
  }

  std::unique_ptr<DurableBroker> seeded_reference(FaultyJournalFile& file) {
    auto db = DurableBroker::open(spec_, opts_, file);
    EXPECT_TRUE(db.is_ok());
    const std::vector<FlowId> live = live_;
    seed(*db.value());
    EXPECT_EQ(live_, live);  // same history, same flow ids
    return std::move(db.value());
  }

  /// Admit runs over two pairs (grouped order reorders the first and last
  /// run), an admit too tight to pass, releases of live flows, and a
  /// release of an unknown flow, whose failure is recorded too.
  std::vector<SlabOp> mixed_ops() const {
    return {SlabOp::admit(10, a_),          SlabOp::admit(11, b_),
            SlabOp::admit(12, a_),          SlabOp::release(13, live_[0]),
            SlabOp::admit(14, tight_),      SlabOp::release(15, live_[1]),
            SlabOp::release(16, live_[2]),  SlabOp::admit(17, b_),
            SlabOp::admit(18, a_),          SlabOp::admit(19, b_),
            SlabOp::release(20, 424242)};
  }

  FlowServiceRequest a_ = probe_request();  // I2 -> E2
  FlowServiceRequest b_ = probe_request();  // I1 -> E1
  FlowServiceRequest tight_ = probe_request();
  std::vector<FlowId> live_;
};

TEST_F(MixedBatchTest, OneAppendAndTheSameVerdictsAsPerOpExecution) {
  auto db = open();
  seed(*db);
  FaultyJournalFile ref_file;
  auto ref = seeded_reference(ref_file);
  const std::vector<SlabOp> ops = mixed_ops();
  std::vector<Result<Reservation>> want(
      ops.size(), Result<Reservation>(Status::rejected("unset")));
  for (const std::size_t i : batch_execution_order(ops)) {
    want[i] = run_member(*ref, ops[i], 5.0);
  }

  const std::uint64_t appends = file_.appends();
  const std::vector<Result<Reservation>> got = db->execute_batch(ops, 5.0);
  EXPECT_EQ(file_.appends(), appends + 1);
  ASSERT_EQ(got.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(got[i].is_ok(), want[i].is_ok()) << "member " << i;
    if (got[i].is_ok()) {
      EXPECT_EQ(got[i].value().flow, want[i].value().flow) << "member " << i;
      EXPECT_EQ(got[i].value().params.rate, want[i].value().params.rate);
      EXPECT_EQ(got[i].value().params.delay, want[i].value().params.delay);
    } else {
      EXPECT_EQ(got[i].status().to_string(), want[i].status().to_string());
    }
  }
  // The mix really mixes: admits, a reject, releases, a failed release.
  EXPECT_TRUE(got[0].is_ok());
  EXPECT_FALSE(got[4].is_ok());
  EXPECT_TRUE(got[3].is_ok());
  EXPECT_EQ(got[10].status().code(), StatusCode::kNotFound);

  auto d_batch = broker_state_digest(db->broker());
  auto d_ref = broker_state_digest(ref->broker());
  ASSERT_TRUE(d_batch.is_ok());
  ASSERT_TRUE(d_ref.is_ok());
  EXPECT_EQ(d_batch.value(), d_ref.value());
  EXPECT_EQ(db->next_lsn(), ref->next_lsn());
  // Byte-identical records: the batch changes only how many appends
  // carried them.
  EXPECT_EQ(file_.contents(), ref_file.contents());

  auto recovered = open();
  auto d_rec = broker_state_digest(recovered->broker());
  ASSERT_TRUE(d_rec.is_ok());
  EXPECT_EQ(d_rec.value(), d_batch.value());
}

TEST_F(MixedBatchTest, RidReusedAcrossAdmitAndReleaseInOneBatchIsRejected) {
  auto db = open();
  seed(*db);
  const std::vector<SlabOp> ops = {SlabOp::admit(30, a_),
                                   SlabOp::release(30, live_[0])};
  const auto got = db->execute_batch(ops, 1.0);
  ASSERT_TRUE(got[0].is_ok());
  EXPECT_EQ(got[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db->broker().flows().get(live_[0]).is_ok());  // not released
  // The same reuse across two batches gets the same error.
  const Status across = db->release_service(30, live_[0]);
  EXPECT_EQ(across.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(across.message(), got[1].status().message());

  // And the other way round: a release first, then an admit on its rid.
  const std::vector<SlabOp> reversed = {SlabOp::release(31, live_[1]),
                                        SlabOp::admit(31, a_)};
  const auto got2 = db->execute_batch(reversed, 2.0);
  EXPECT_TRUE(got2[0].is_ok());
  EXPECT_EQ(got2[1].status().code(), StatusCode::kInvalidArgument);
  const auto across2 = db->request_service(31, a_, 3.0);
  EXPECT_EQ(across2.status().message(), got2[1].status().message());
}

TEST_F(MixedBatchTest, DuplicateReleaseRidWithinBatchReacks) {
  auto db = open();
  seed(*db);
  const std::uint64_t lsn = db->next_lsn();
  const std::uint64_t hits = db->stats().dedup_hits;
  const std::vector<SlabOp> ops = {SlabOp::release(40, live_[0]),
                                   SlabOp::admit(41, a_),
                                   SlabOp::release(40, live_[0])};
  const auto got = db->execute_batch(ops, 1.0);
  EXPECT_TRUE(got[0].is_ok());
  EXPECT_TRUE(got[2].is_ok()) << got[2].status().to_string();
  EXPECT_EQ(db->next_lsn(), lsn + 2);  // the release once, the admit
  EXPECT_EQ(db->stats().dedup_hits, hits + 1);
  EXPECT_FALSE(db->broker().flows().get(live_[0]).is_ok());
}

TEST_F(MixedBatchTest,
       FailedGroupAppendFailsEveryFreshMemberAndRemembersNothing) {
  FailingJournalFile file;
  auto opened = DurableBroker::open(spec_, opts_, file);
  ASSERT_TRUE(opened.is_ok());
  auto& db = opened.value();
  seed(*db);
  const WireBuffer image = file.contents();
  const std::uint64_t lsn = db->next_lsn();
  const std::uint64_t appended = db->stats().appended;

  file.failing = true;
  const std::vector<SlabOp> ops = {
      SlabOp::admit(50, a_), SlabOp::release(51, live_[0]),
      SlabOp::admit(6, b_),  // remembered: replays, never fails
      SlabOp::release(52, 424242)};
  const auto got = db->execute_batch(ops, 1.0);
  for (const std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(got[i].status().code(), StatusCode::kInternal) << "member " << i;
    EXPECT_FALSE(db->remembers(ops[i].rid)) << "member " << i;
  }
  ASSERT_TRUE(got[2].is_ok());
  EXPECT_EQ(got[2].value().flow, live_[3]);
  EXPECT_EQ(db->next_lsn(), lsn);
  EXPECT_EQ(db->stats().appended, appended);
  EXPECT_EQ(file.contents(), image);
}

// Crash anywhere inside a mixed frame: recovery lands exactly on the
// per-op state after the last whole record, at every byte cut.
TEST_F(MixedBatchTest, MixedFrameCutAtEveryByteRecoversARecordPrefix) {
  auto db = open();
  seed(*db);
  FaultyJournalFile ref_file;
  auto ref = seeded_reference(ref_file);
  const std::vector<SlabOp> ops = mixed_ops();

  // Reference state after each record (every member is fresh, so one
  // record per member, in documented order).
  std::vector<StateDigest> states = {
      digest_of(spec_, ref->broker(), ref->next_lsn())};
  std::vector<RequestId> executed;
  std::vector<Result<Reservation>> want;
  for (const std::size_t i : batch_execution_order(ops)) {
    want.push_back(run_member(*ref, ops[i], 5.0));
    states.push_back(digest_of(spec_, ref->broker(), ref->next_lsn()));
    executed.push_back(ops[i].rid);
  }

  const WireBuffer before = file_.contents();
  const auto got = db->execute_batch(ops, 5.0);
  const WireBuffer after = file_.contents();
  ASSERT_EQ(after, ref_file.contents());

  const JournalScan scan = scan_journal(after);
  ASSERT_TRUE(scan.error.is_ok());
  std::vector<std::size_t> boundaries = {before.size()};
  for (std::size_t i = scan.records.size() - ops.size();
       i < scan.records.size(); ++i) {
    boundaries.push_back(boundaries.back() + 12 + 9 +
                         scan.records[i].payload.size());
  }
  ASSERT_EQ(boundaries.back(), after.size());

  for (std::size_t cut = before.size(); cut <= after.size(); ++cut) {
    FaultyJournalFile partial;
    partial.set_contents(WireBuffer(
        after.begin(), after.begin() + static_cast<std::ptrdiff_t>(cut)));
    auto r = DurableBroker::open(spec_, opts_, partial);
    ASSERT_TRUE(r.is_ok()) << "cut " << cut << ": "
                           << r.status().to_string();
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_TRUE(digest_of(spec_, r.value()->broker(),
                          r.value()->next_lsn()) == states[complete])
        << "cut " << cut << " (" << complete << " whole records)";
    for (std::size_t j = 0; j < executed.size(); ++j) {
      EXPECT_EQ(r.value()->remembers(executed[j]), j < complete)
          << "cut " << cut << " record " << j;
    }
  }
}

// ---- Anchors: byte rule, in-place rebase, streamed record ----

/// Every link ledger, bit for bit: rate, buffer, flow count, the EDF
/// buckets and the knot prefixes the Figure-4 scan reads.
::testing::AssertionResult same_ledgers(const DomainSpec& spec,
                                        const BandwidthBroker& a,
                                        const BandwidthBroker& b) {
  for (const auto& l : spec.links) {
    const std::string name = l.from + "->" + l.to;
    const LinkQosState& x = a.nodes().link(name);
    const LinkQosState& y = b.nodes().link(name);
    if (x.reserved() != y.reserved() ||
        x.buffer_reserved() != y.buffer_reserved() ||
        x.flow_count() != y.flow_count()) {
      return ::testing::AssertionFailure()
             << name << ": reserved " << x.reserved() << " vs "
             << y.reserved() << ", buffer " << x.buffer_reserved() << " vs "
             << y.buffer_reserved() << ", flows " << x.flow_count() << " vs "
             << y.flow_count();
    }
    auto bx = x.edf_buckets().begin();
    auto by = y.edf_buckets().begin();
    if (x.edf_buckets().size() != y.edf_buckets().size()) {
      return ::testing::AssertionFailure() << name << ": EDF bucket count";
    }
    for (; bx != x.edf_buckets().end(); ++bx, ++by) {
      if (bx->first != by->first ||
          bx->second.sum_rate != by->second.sum_rate ||
          bx->second.sum_l != by->second.sum_l ||
          bx->second.count != by->second.count) {
        return ::testing::AssertionFailure()
               << name << ": EDF bucket at d=" << bx->first;
      }
    }
    const KnotArray& kx = x.knot_prefixes();
    const KnotArray& ky = y.knot_prefixes();
    if (kx.d != ky.d || kx.rate_sum != ky.rate_sum ||
        kx.fixed_sum != ky.fixed_sum || kx.s != ky.s) {
      return ::testing::AssertionFailure() << name << ": knot prefixes";
    }
  }
  return ::testing::AssertionSuccess();
}

std::uint32_t record_digest(const BandwidthBroker& bb) {
  auto d = broker_state_digest(bb);
  EXPECT_TRUE(d.is_ok()) << d.status().to_string();
  return d.is_ok() ? d.value() : 0;
}

/// Two hops of 1 Gb/s, rate-based then VT-EDF: room for thousands of
/// flows, so the live state (and the anchor) can outgrow the 1 MiB floor.
DomainSpec wide_spec() {
  DomainSpec spec;
  spec.nodes = {"I", "R", "E"};
  spec.l_max = 12000.0;
  spec.links.push_back({"I", "R", 1e9, 0.0, SchedPolicy::kCsvc});
  spec.links.push_back({"R", "E", 1e9, 0.0, SchedPolicy::kVtEdf});
  return spec;
}

FlowServiceRequest wide_request() {
  return {TrafficProfile::make(60000, 50000, 100000, 12000), 2.19, "I", "E"};
}

/// Admit `n` flows in slabs; their ids join `live`.
void populate(DurableBroker& db, RequestId* rid, std::size_t n,
              std::deque<FlowId>* live) {
  const std::vector<FlowServiceRequest> reqs(128, wide_request());
  while (n > 0) {
    const std::size_t k = std::min<std::size_t>(n, reqs.size());
    std::vector<SlabOp> ops;
    for (std::size_t i = 0; i < k; ++i) {
      ops.push_back(SlabOp::admit((*rid)++, reqs[i]));
    }
    for (const auto& r : db.execute_batch(ops, 0.0)) {
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      live->push_back(r.value().flow);
    }
    n -= k;
  }
}

// At least 20 thresholds of churn through the default rule: after every
// slab the journal holds the last anchor, plus at most the threshold
// max(4 × anchor, 1 MiB), plus the slab that crossed it. The live state
// here is large enough that 4 × anchor is the binding term, so that is
// 5 × anchor + one slab. A restart replays exactly the tail.
TEST(DurableAnchorRule, JournalStaysBoundedUnderChurn) {
  const DomainSpec spec = wide_spec();
  MemoryJournalFile file;
  auto opened = DurableBroker::open(spec, {}, file);
  ASSERT_TRUE(opened.is_ok());
  auto db = std::move(opened).value();
  RequestId rid = 1;
  ASSERT_TRUE(db->provision_path(rid++, "I", "E").is_ok());
  std::deque<FlowId> live;
  populate(*db, &rid, 2000, &live);

  auto threshold = [&] {
    return std::max(DurableBroker::kAnchorGrowth * db->anchor_bytes(),
                    DurableBroker::kAnchorFloorBytes);
  };
  const std::vector<FlowServiceRequest> reqs(64, wide_request());
  std::uint64_t churned = 0;
  std::uint64_t max_slab = 0;
  std::uint64_t checked_slabs = 0;
  Seconds now = 1.0;
  while (churned < 20 * threshold()) {
    std::vector<SlabOp> ops;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ops.push_back(SlabOp::release(rid++, live.front()));
      live.pop_front();
    }
    for (const FlowServiceRequest& r : reqs) {
      ops.push_back(SlabOp::admit(rid++, r));
    }
    const std::uint64_t anchors = db->stats().checkpoints;
    const std::uint64_t tail = db->tail_bytes();
    const auto results = db->execute_batch(ops, now);
    now += 0.01;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].is_ok()) << results[i].status().to_string();
      if (ops[i].is_admit()) live.push_back(results[i].value().flow);
    }
    if (db->stats().checkpoints == anchors) {
      const std::uint64_t slab = db->tail_bytes() - tail;
      max_slab = std::max(max_slab, slab);
      churned += slab;
    } else {
      EXPECT_EQ(db->tail_bytes(), 0u);  // the anchor followed the slab
      churned += max_slab;
    }
    EXPECT_EQ(file.contents().size(), db->anchor_bytes() + db->tail_bytes());
    ASSERT_LE(file.contents().size(),
              db->anchor_bytes() + threshold() + max_slab)
        << "after " << checked_slabs << " slabs";
    ++checked_slabs;
  }
  EXPECT_GE(db->stats().checkpoints, 19u);
  ASSERT_GT(DurableBroker::kAnchorGrowth * db->anchor_bytes(),
            DurableBroker::kAnchorFloorBytes);
  EXPECT_LE(file.contents().size(), 5 * db->anchor_bytes() + max_slab);

  const JournalScan scan = scan_journal(file.contents());
  ASSERT_TRUE(scan.error.is_ok());
  ASSERT_EQ(scan.records.front().kind, JournalOpKind::kAnchor);
  auto again = DurableBroker::open(spec, {}, file);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value()->stats().replayed, scan.records.size() - 1);
  EXPECT_EQ(again.value()->anchor_bytes(), db->anchor_bytes());
  EXPECT_EQ(again.value()->tail_bytes(), db->tail_bytes());
  EXPECT_TRUE(same_ledgers(spec, db->broker(), again.value()->broker()));
  EXPECT_EQ(record_digest(again.value()->broker()),
            record_digest(db->broker()));
}

// The guarantee the old swap-in image gave, now from the in-place rebase:
// right after checkpoint() the live broker equals a fresh open() of the
// journal bit for bit — on a churned broker with non-integer rates,
// VT-EDF hops, a settled macroflow and an external reservation — and both
// go on to make the same decisions with the same flow ids.
TEST(DurableAnchorRule, CheckpointLeavesLiveStateEqualToRecovery) {
  const DomainSpec spec = fig8_topology(Fig8Setting::kMixed);
  BrokerOptions opts{ContingencyMethod::kBounding};
  FaultyJournalFile file;
  auto opened = DurableBroker::open(spec, opts, file);
  ASSERT_TRUE(opened.is_ok());
  auto db = std::move(opened).value();
  RequestId rid = 1;
  ASSERT_TRUE(db->provision_path(rid++, "I1", "E1").is_ok());
  ASSERT_TRUE(db->provision_path(rid++, "I2", "E2").is_ok());
  const ClassId cls = db->define_class(rid++, 2.44, 0.11).value();
  for (int j = 0; j < 2; ++j) {
    const JoinResult join = db->request_class_service(
        rid++, cls, TrafficProfile::make(30517.3, 11234.7, 40123.9, 12000),
        "I1", "E1", 0.5 * j, 0.0);
    ASSERT_TRUE(join.admitted) << join.detail;
    if (join.grant != kInvalidGrantId) {
      ASSERT_TRUE(db->expire_contingency(join.grant,
                                         join.contingency_expires_at)
                      .is_ok());
    }
  }
  ASSERT_TRUE(db->reserve_link_external(rid++, "R3->R4", 12345.678).is_ok());
  // Churn with rates the §3.2 scan makes non-integer, on both paths.
  std::vector<FlowId> live;
  for (int i = 0; i < 60; ++i) {
    const double k = 1.0 + 0.013 * (i % 7);
    FlowServiceRequest req{
        TrafficProfile::make(20000.5 * k, 9876.54 * k, 30001.25 * k, 12000),
        1.9 + 0.07 * (i % 5), i % 2 ? "I1" : "I2", i % 2 ? "E1" : "E2"};
    auto r = db->request_service(rid++, req, 1.0 + i);
    if (r.is_ok()) live.push_back(r.value().flow);
    if (i % 3 == 2 && !live.empty()) {
      ASSERT_TRUE(db->release_service(rid++, live.front()).is_ok());
      live.erase(live.begin());
    }
  }
  ASSERT_GT(live.size(), 3u);
  bool fractional = false;
  for (const auto& [id, rec] : db->broker().flows().all()) {
    fractional |= rec.reservation.rate != std::floor(rec.reservation.rate);
  }
  ASSERT_TRUE(fractional);

  ASSERT_TRUE(db->checkpoint().is_ok());
  auto recovered = DurableBroker::open(spec, opts, file);
  ASSERT_TRUE(recovered.is_ok());
  auto& rec = *recovered.value();
  EXPECT_EQ(rec.stats().replayed, 0u);
  EXPECT_TRUE(same_ledgers(spec, db->broker(), rec.broker()));
  EXPECT_EQ(record_digest(db->broker()), record_digest(rec.broker()));
  EXPECT_TRUE(digest_of(spec, db->broker(), db->next_lsn()) ==
              digest_of(spec, rec.broker(), rec.next_lsn()));

  // Same next decision, same flow id, on both (recovery on a copy).
  FaultyJournalFile fork_a;
  fork_a.set_contents(file.contents());
  auto a = DurableBroker::open(spec, opts, fork_a);
  ASSERT_TRUE(a.is_ok());
  const FlowServiceRequest next{
      TrafficProfile::make(20100.5, 9900.25, 30011.75, 12000), 2.05, "I2",
      "E2"};
  auto from_live = db->request_service(rid, next, 99.0);
  auto from_rec = a.value()->request_service(rid, next, 99.0);
  ASSERT_EQ(from_live.is_ok(), from_rec.is_ok());
  if (from_live.is_ok()) {
    EXPECT_EQ(from_live.value().flow, from_rec.value().flow);
    EXPECT_EQ(from_live.value().params.rate, from_rec.value().params.rate);
    EXPECT_EQ(from_live.value().params.delay, from_rec.value().params.delay);
  }
  EXPECT_TRUE(same_ledgers(spec, db->broker(), a.value()->broker()));
}

/// Forwards to an FsJournalFile, but a streamed replace stops after
/// `cut_after` image writes — where a crash would have cut the temp file.
/// Keeps the bytes that got through, and the largest single write.
class CutAnchorFile : public JournalFile {
 public:
  explicit CutAnchorFile(FsJournalFile& inner) : inner_(inner) {}
  Status append(const WireBuffer& bytes) override {
    return inner_.append(bytes);
  }
  Result<WireBuffer> read_all() const override { return inner_.read_all(); }
  Status replace(const WireBuffer& bytes) override {
    return inner_.replace(bytes);
  }
  Status replace_streamed(const JournalImageProducer& produce) override {
    struct Cut final : JournalImageWriter {
      CutAnchorFile& f;
      JournalImageWriter& out;
      int writes = 0;
      Cut(CutAnchorFile& file, JournalImageWriter& o) : f(file), out(o) {}
      Status write_bytes(std::span<const std::uint8_t> bytes) override {
        if (writes++ == f.cut_after) return Status::internal("cut");
        f.largest_write = std::max(f.largest_write, bytes.size());
        f.written.insert(f.written.end(), bytes.begin(), bytes.end());
        return out.write_bytes(bytes);
      }
      Status patch(std::size_t offset,
                   std::span<const std::uint8_t> bytes) override {
        std::copy(bytes.begin(), bytes.end(),
                  f.written.begin() + static_cast<std::ptrdiff_t>(offset));
        return out.patch(offset, bytes);
      }
    };
    written.clear();
    return inner_.replace_streamed([&](JournalImageWriter& out) {
      Cut cut(*this, out);
      return produce(cut);
    });
  }

  int cut_after = -1;
  WireBuffer written;
  std::size_t largest_write = 0;

 private:
  FsJournalFile& inner_;
};

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

// Crash coverage inside the streamed anchor: cut the temp-file write at
// every chunk boundary. Each cut leaves the old journal byte-identical and
// recoverable to the live state; the stale temp file such a crash leaves
// is overwritten by the next anchor. No single write is much more than one
// WireStream chunk: the record is never framed whole in memory.
TEST(DurableAnchorRule, StreamedAnchorCutAtEveryChunkKeepsTheOldJournal) {
  const std::string path = ::testing::TempDir() + "/qosbb_anchor_cut.bin";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());
  const DomainSpec spec = wide_spec();
  FsJournalFile fs(path);
  CutAnchorFile file(fs);
  auto opened = DurableBroker::open(spec, {}, file);
  ASSERT_TRUE(opened.is_ok());
  auto db = std::move(opened).value();
  RequestId rid = 1;
  ASSERT_TRUE(db->provision_path(rid++, "I", "E").is_ok());
  std::deque<FlowId> live;
  populate(*db, &rid, 3000, &live);
  const WireBuffer before = fs.read_all().value();
  const std::uint32_t live_digest = record_digest(db->broker());
  const StateDigest live_state = digest_of(spec, db->broker(), db->next_lsn());

  int cuts = 0;
  for (file.cut_after = 0;; ++file.cut_after) {
    const Status s = db->checkpoint();
    if (s.is_ok()) break;
    ++cuts;
    EXPECT_EQ(fs.read_all().value(), before) << "cut " << file.cut_after;
    EXPECT_FALSE(file_exists(tmp));
    // What a SIGKILL at this point leaves behind.
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!file.written.empty()) {
      std::fwrite(file.written.data(), 1, file.written.size(), f);
    }
    std::fclose(f);
    FsJournalFile again(path);
    auto rec = DurableBroker::open(spec, {}, again);
    ASSERT_TRUE(rec.is_ok()) << rec.status().to_string();
    EXPECT_EQ(record_digest(rec.value()->broker()), live_digest);
    EXPECT_TRUE(digest_of(spec, rec.value()->broker(),
                          rec.value()->next_lsn()) == live_state);
  }
  // Header and LSN/kind, then at least a few chunks of payload.
  EXPECT_GE(cuts, 2 + 4);
  EXPECT_LE(file.largest_write, 2 * WireStream::kChunk);
  EXPECT_FALSE(file_exists(tmp));  // the stale temp file was overwritten
  const WireBuffer after = fs.read_all().value();
  EXPECT_EQ(after, file.written);
  const JournalScan scan = scan_journal(after);
  ASSERT_TRUE(scan.error.is_ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].kind, JournalOpKind::kAnchor);
  FsJournalFile again(path);
  auto rec = DurableBroker::open(spec, {}, again);
  ASSERT_TRUE(rec.is_ok());
  EXPECT_TRUE(same_ledgers(spec, db->broker(), rec.value()->broker()));
  EXPECT_EQ(record_digest(rec.value()->broker()), live_digest);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qosbb
