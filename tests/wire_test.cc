// Tests for the signaling wire format: round trips, header validation, and
// hardening against truncated / corrupted / hostile frames (every decode
// failure must be a Status, never UB or an exception).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "core/wire.h"
#include "traffic/profile.h"
#include "util/rng.h"

namespace qosbb {
namespace {

FlowServiceRequest sample_request() {
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(60000, 50000, 100000, 12000);
  req.e2e_delay_req = 2.44;
  req.ingress = "I1";
  req.egress = "E1";
  return req;
}

TEST(Wire, RequestRoundTrip) {
  const FlowServiceRequest in = sample_request();
  auto buf = encode(in);
  auto out = decode_flow_service_request(buf);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().profile, in.profile);
  EXPECT_DOUBLE_EQ(out.value().e2e_delay_req, 2.44);
  EXPECT_EQ(out.value().ingress, "I1");
  EXPECT_EQ(out.value().egress, "E1");
}

TEST(Wire, ReservationRoundTrip) {
  Reservation in;
  in.flow = 42;
  in.path = 7;
  in.params = RateDelayPair{54019.3, 0.115};
  in.e2e_bound = 2.19;
  auto out = decode_reservation(encode(in));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().flow, 42);
  EXPECT_EQ(out.value().path, 7);
  EXPECT_DOUBLE_EQ(out.value().params.rate, 54019.3);
  EXPECT_DOUBLE_EQ(out.value().params.delay, 0.115);
  EXPECT_DOUBLE_EQ(out.value().e2e_bound, 2.19);
}

TEST(Wire, RejectAndTeardownRoundTrip) {
  RejectReply rej{RejectReason::kInsufficientBandwidth, "link R2->R3 full"};
  auto r = decode_reject_reply(encode(rej));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().reason, RejectReason::kInsufficientBandwidth);
  EXPECT_EQ(r.value().detail, "link R2->R3 full");

  auto t = decode_teardown_request(encode(TeardownRequest{99}));
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(t.value().flow, 99);

  EdgeConditionerConfig cfg{5, 50000.0, 0.1};
  auto c = decode_edge_conditioner_config(encode(cfg));
  ASSERT_TRUE(c.is_ok());
  EXPECT_DOUBLE_EQ(c.value().rate, 50000.0);
}

TEST(Wire, PeekTypeIdentifiesFrames) {
  EXPECT_EQ(peek_type(encode(sample_request())).value(),
            MessageType::kFlowServiceRequest);
  EXPECT_EQ(peek_type(encode(TeardownRequest{1})).value(),
            MessageType::kTeardownRequest);
  EXPECT_FALSE(peek_type(WireBuffer{1, 2, 3}).is_ok());
}

TEST(Wire, EveryTruncationIsAGracefulError) {
  // Chop the frame at every possible length: each must fail cleanly.
  const auto full = encode(sample_request());
  for (std::size_t n = 0; n < full.size(); ++n) {
    WireBuffer cut(full.begin(), full.begin() + static_cast<long>(n));
    auto out = decode_flow_service_request(cut);
    EXPECT_FALSE(out.is_ok()) << "length " << n << " decoded successfully";
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Wire, SingleByteCorruptionNeverCrashes) {
  // Flip every byte (all 8 bits at once) — decode must return either a
  // clean error or a VALID request; it must never throw.
  const auto full = encode(sample_request());
  int survived = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    WireBuffer mutated = full;
    mutated[i] ^= 0xff;
    auto out = decode_flow_service_request(mutated);
    if (out.is_ok()) ++survived;
  }
  // Corrupting the magic/version/type/length must certainly fail.
  WireBuffer bad_magic = full;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(decode_flow_service_request(bad_magic).is_ok());
  // Most corruptions of float payloads fail validation; a few may survive
  // as different-but-valid profiles, which is fine for a checksum-free
  // format. The property under test is "no crash".
  SUCCEED() << survived << " mutations decoded as valid alternates";
}

TEST(Wire, WrongTypeRejected) {
  auto buf = encode(TeardownRequest{1});
  EXPECT_FALSE(decode_flow_service_request(buf).is_ok());
}

TEST(Wire, TrailingGarbageRejected) {
  auto buf = encode(sample_request());
  buf.push_back(0x00);
  // Header length no longer matches the frame size.
  EXPECT_FALSE(decode_flow_service_request(buf).is_ok());
}

TEST(Wire, HostileProfileRejected) {
  // σ < L and P < ρ must not reach TrafficProfile::make (which throws).
  FlowServiceRequest req = sample_request();
  auto buf = encode(req);
  // Patch sigma (first f64 of the body at offset 8) to 1.0.
  double tiny = 1.0;
  std::memcpy(buf.data() + 8, &tiny, sizeof(tiny));
  auto out = decode_flow_service_request(buf);
  EXPECT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, NonFiniteFloatsRejected) {
  auto buf = encode(sample_request());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(buf.data() + 8, &nan, sizeof(nan));
  EXPECT_FALSE(decode_flow_service_request(buf).is_ok());
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(buf.data() + 8, &inf, sizeof(inf));
  EXPECT_FALSE(decode_flow_service_request(buf).is_ok());
}

TEST(Wire, NegativeRateRejected) {
  Reservation res;
  res.flow = 1;
  res.path = 0;
  res.params = RateDelayPair{50000.0, 0.0};
  res.e2e_bound = 1.0;
  auto buf = encode(res);
  const double neg = -5.0;
  // rate is the third body field: 8 (header) + 16 (two i64).
  std::memcpy(buf.data() + 8 + 16, &neg, sizeof(neg));
  EXPECT_FALSE(decode_reservation(buf).is_ok());
}

TEST(Wire, LongStringsTruncatedNotOverflowed) {
  FlowServiceRequest req = sample_request();
  req.ingress = std::string(1000, 'x');
  auto buf = encode(req);
  auto out = decode_flow_service_request(buf);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().ingress.size(), 255u);
}

TEST(Wire, ReaderPrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  WireBuffer buf = w.take();
  WireReader r(buf);
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.u8().is_ok());  // reading past the end is a clean error
}

// Regression: an empty string that ends an exactly-sized buffer leaves the
// cursor at size() when str() builds its result. Indexing the buffer there
// (&buf_[size()]) is out of range and aborts under -D_GLIBCXX_ASSERTIONS;
// str() reads from data() + pos instead.
TEST(Wire, EmptyStringEndingAnExactlySizedBufferDecodes) {
  WireWriter w;
  w.u8(7);
  w.str("");
  const WireBuffer buf = w.take();
  ASSERT_EQ(buf.size(), 2u);
  WireReader r(buf);
  EXPECT_EQ(r.u8().value(), 7);
  auto s = r.str();
  ASSERT_TRUE(s.is_ok()) << s.status().to_string();
  EXPECT_TRUE(s.value().empty());
  EXPECT_TRUE(r.exhausted());

  // The message that hit it: a PrepareReply whose detail is empty.
  PrepareReply reply;
  reply.txn = 9;
  reply.prepared = true;
  reply.segment_flow = 3;
  auto out = decode_prepare_reply(encode(reply));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_TRUE(out.value().detail.empty());
}

TEST(Wire, ReaderTruncationHasDistinctCode) {
  // Every primitive read past the end of the buffer must report
  // kTruncated — journal recovery relies on this code to classify an
  // incomplete final record as a clean end of log.
  const WireBuffer empty;
  EXPECT_EQ(WireReader(empty).u8().status().code(), StatusCode::kTruncated);
  EXPECT_EQ(WireReader(empty).u16().status().code(), StatusCode::kTruncated);
  EXPECT_EQ(WireReader(empty).u32().status().code(), StatusCode::kTruncated);
  EXPECT_EQ(WireReader(empty).u64().status().code(), StatusCode::kTruncated);
  EXPECT_EQ(WireReader(empty).i64().status().code(), StatusCode::kTruncated);
  EXPECT_EQ(WireReader(empty).f64().status().code(), StatusCode::kTruncated);
  EXPECT_EQ(WireReader(empty).str().status().code(), StatusCode::kTruncated);
  // Partial fixed-width field: 4 bytes present, 8 wanted.
  WireWriter w;
  w.u32(7);
  const WireBuffer four = w.take();
  EXPECT_EQ(WireReader(four).u64().status().code(), StatusCode::kTruncated);
  // A string whose length prefix promises more bytes than remain is also a
  // truncation (the prefix may simply sit at the write frontier).
  WireWriter ws;
  ws.u8(10);
  ws.u8('x');
  const WireBuffer short_str = ws.take();
  EXPECT_EQ(WireReader(short_str).str().status().code(),
            StatusCode::kTruncated);
}

TEST(Wire, CorruptionIsNotReportedAsTruncation) {
  // Structurally invalid content inside a complete buffer must stay
  // kInvalidArgument — recovery treats it as corruption, not clean EOF.
  WireWriter w;
  std::uint64_t nan_bits = 0x7ff8000000000000ULL;
  w.u64(nan_bits);
  const WireBuffer buf = w.take();
  auto f = WireReader(buf).f64();
  EXPECT_FALSE(f.is_ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

// ---- Streaming mode (Mode::kStreaming): a reader over a growing stream
// prefix reports short reads as kNeedMoreData, never kTruncated, and a
// failed read never advances the cursor — so the caller can re-decode from
// the same position once more bytes arrive.

TEST(WireStreaming, ShortReadIsNeedMoreDataAtEverySplitPoint) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  w.bytes(WireBuffer{1, 2, 3, 4});
  const WireBuffer full = w.take();

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const WireBuffer prefix(full.begin(),
                            full.begin() + static_cast<long>(cut));
    WireReader r(prefix, WireReader::Mode::kStreaming);
    // Drive the exact field sequence; the first read past `cut` must be
    // kNeedMoreData with the cursor left where that field began.
    bool starved = false;
    auto note_starved = [&](const Status& s) {
      if (!s.is_ok()) {
        EXPECT_EQ(s.code(), StatusCode::kNeedMoreData)
            << "cut=" << cut << ": " << s.to_string();
        starved = true;
      }
    };
    const std::size_t pos_before_u8 = r.position();
    if (!starved) note_starved(r.u8().status());
    if (starved) {
      EXPECT_EQ(r.position(), pos_before_u8);
      continue;
    }
    if (!starved) note_starved(r.u16().status());
    if (!starved) note_starved(r.u32().status());
    if (!starved) note_starved(r.u64().status());
    const std::size_t pos_before_str = r.position();
    if (!starved) {
      auto s = r.str();
      note_starved(s.status());
      if (starved) {
        // The length prefix was un-read too: retrying later re-decodes the
        // whole field, not just its tail.
        EXPECT_EQ(r.position(), pos_before_str) << "cut=" << cut;
      }
    }
    const std::size_t pos_before_bytes = r.position();
    if (!starved) {
      auto b = r.bytes();
      note_starved(b.status());
      if (starved) {
        EXPECT_EQ(r.position(), pos_before_bytes) << "cut=" << cut;
      }
    }
    EXPECT_TRUE(starved) << "cut=" << cut << " should starve some field";
  }

  // The complete buffer decodes fully in streaming mode too.
  WireReader r(full, WireReader::Mode::kStreaming);
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0xBEEF);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_EQ(r.bytes().value(), (WireBuffer{1, 2, 3, 4}));
  EXPECT_TRUE(r.exhausted());
}

TEST(WireStreaming, CompleteModeStillReportsTruncated) {
  WireWriter w;
  w.u32(7);
  WireBuffer buf = w.take();
  buf.pop_back();
  EXPECT_EQ(WireReader(buf).u32().status().code(), StatusCode::kTruncated);
  EXPECT_EQ(WireReader(buf, WireReader::Mode::kStreaming).u32().status().code(),
            StatusCode::kNeedMoreData);
}

TEST(WireStreaming, RetryAfterGrowthSucceeds) {
  // Simulate a stream: decode fails with kNeedMoreData on the prefix, then
  // succeeds from the same position on the grown buffer.
  WireWriter w;
  w.str("bandwidth-broker");
  const WireBuffer full = w.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireBuffer grow(full.begin(), full.begin() + static_cast<long>(cut));
    WireReader r(grow, WireReader::Mode::kStreaming);
    auto first = r.str();
    ASSERT_FALSE(first.is_ok());
    ASSERT_EQ(first.status().code(), StatusCode::kNeedMoreData);
    ASSERT_EQ(r.position(), 0u);
    grow.insert(grow.end(), full.begin() + static_cast<long>(cut), full.end());
    WireReader r2(grow, WireReader::Mode::kStreaming);
    EXPECT_EQ(r2.str().value(), "bandwidth-broker");
  }
}

// ---- Overload-control and probe messages ----

TEST(Wire, RequestIdCarriedOnAdmitAndTeardown) {
  const FlowServiceRequest in = sample_request();
  const auto buf = encode(in, /*rid=*/0x123456789abcdefULL);
  RequestId rid = kNoRequestId;
  auto out = decode_flow_service_request(buf, &rid);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(rid, 0x123456789abcdefULL);
  EXPECT_EQ(out.value().profile, in.profile);
  // Omitting the rid encodes the no-rid sentinel, not garbage.
  rid = 77;
  ASSERT_TRUE(decode_flow_service_request(encode(in), &rid).is_ok());
  EXPECT_EQ(rid, kNoRequestId);

  auto tear = decode_teardown_request(encode(TeardownRequest{99, 4242}));
  ASSERT_TRUE(tear.is_ok());
  EXPECT_EQ(tear.value().flow, 99u);
  EXPECT_EQ(tear.value().rid, 4242u);
}

TEST(Wire, OverloadedReplyRoundTrip) {
  OverloadedReply in;
  in.reason = ShedReason::kDeadline;
  in.retry_after_ms = 125;
  in.detail = "queued 312ms > 100ms deadline";
  auto out = decode_overloaded_reply(encode(in));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().reason, ShedReason::kDeadline);
  EXPECT_EQ(out.value().retry_after_ms, 125u);
  EXPECT_EQ(out.value().detail, in.detail);
}

TEST(Wire, OverloadedReplyRejectsUnknownShedReason) {
  auto buf = encode(OverloadedReply{ShedReason::kBrownout, 10, "x"});
  // The reason byte sits right after the 8-byte header; forge a value past
  // the enum range and the decoder must refuse, not cast blindly.
  buf[8] = 0xEE;
  EXPECT_FALSE(decode_overloaded_reply(buf).is_ok());
}

TEST(Wire, HealthRoundTrip) {
  ASSERT_TRUE(decode_health_request(encode(HealthRequest{})).is_ok());
  HealthReply in;
  in.inflight = 12;
  in.connections = 3;
  in.admits = 1000;
  in.rejects = 17;
  in.shed_global = 1;
  in.shed_conn = 2;
  in.shed_deadline = 3;
  in.shed_brownout = 4;
  in.reaped_partial = 5;
  in.reaped_idle = 6;
  in.journal_lsn = 991;
  in.dedup_entries = 128;
  in.live_flows = 983;
  in.brownout_active = 1;
  auto out = decode_health_reply(encode(in));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().inflight, 12u);
  EXPECT_EQ(out.value().connections, 3u);
  EXPECT_EQ(out.value().admits, 1000u);
  EXPECT_EQ(out.value().rejects, 17u);
  EXPECT_EQ(out.value().shed_global, 1u);
  EXPECT_EQ(out.value().shed_conn, 2u);
  EXPECT_EQ(out.value().shed_deadline, 3u);
  EXPECT_EQ(out.value().shed_brownout, 4u);
  EXPECT_EQ(out.value().reaped_partial, 5u);
  EXPECT_EQ(out.value().reaped_idle, 6u);
  EXPECT_EQ(out.value().journal_lsn, 991u);
  EXPECT_EQ(out.value().dedup_entries, 128u);
  EXPECT_EQ(out.value().live_flows, 983u);
  EXPECT_EQ(out.value().brownout_active, 1u);
}

TEST(Wire, SnapshotDigestRoundTrip) {
  ASSERT_TRUE(
      decode_snapshot_digest_request(encode(SnapshotDigestRequest{})).is_ok());
  SnapshotDigestReply in;
  in.digest = 0xdeadbeef;
  in.journal_lsn = 321;
  auto out = decode_snapshot_digest_reply(encode(in));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().digest, 0xdeadbeefu);
  EXPECT_EQ(out.value().journal_lsn, 321u);
}

TEST(Wire, ShedReasonNamesAreStable) {
  EXPECT_STREQ(shed_reason_name(ShedReason::kGlobalBudget), "global-budget");
  EXPECT_STREQ(shed_reason_name(ShedReason::kConnBudget), "conn-budget");
  EXPECT_STREQ(shed_reason_name(ShedReason::kDeadline), "deadline");
  EXPECT_STREQ(shed_reason_name(ShedReason::kBrownout), "brownout");
}

TEST(Wire, FuzzRandomBuffersNeverCrash) {
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    WireBuffer buf(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    // Must not throw or crash on arbitrary input; whether a given random
    // buffer happens to decode is irrelevant, but consume every status.
    int decoded = 0;
    decoded += peek_type(buf).status().is_ok();
    decoded += decode_flow_service_request(buf).status().is_ok();
    decoded += decode_reservation(buf).status().is_ok();
    decoded += decode_reject_reply(buf).status().is_ok();
    decoded += decode_edge_conditioner_config(buf).status().is_ok();
    decoded += decode_teardown_request(buf).status().is_ok();
    decoded += decode_overloaded_reply(buf).status().is_ok();
    decoded += decode_health_request(buf).status().is_ok();
    decoded += decode_health_reply(buf).status().is_ok();
    decoded += decode_snapshot_digest_request(buf).status().is_ok();
    decoded += decode_snapshot_digest_reply(buf).status().is_ok();
    decoded += decode_prepare_segment(buf).status().is_ok();
    decoded += decode_prepare_reply(buf).status().is_ok();
    decoded += decode_commit_segment(buf).status().is_ok();
    decoded += decode_abort_segment(buf).status().is_ok();
    decoded += decode_segment_ack(buf).status().is_ok();
    decoded += decode_federated_digest_request(buf).status().is_ok();
    decoded += decode_federated_digest_reply(buf).status().is_ok();
    EXPECT_GE(decoded, 0);
  }
  SUCCEED();
}

// ---- Federation 2PC messages (ops 12..18) ----

PrepareSegment sample_prepare() {
  PrepareSegment prep;
  prep.txn = 77;
  prep.rid_segment = 101;
  prep.rid_contingency = 102;
  prep.ingress = "D0I1";
  prep.egress = "D1L";
  prep.rate = 123456.25;
  prep.l_max = 12000;
  prep.contingency_rate = 9876.5;
  prep.boundary_from = "D0R";
  prep.boundary_to = "D1L";
  return prep;
}

TEST(Wire, PrepareSegmentRoundTrip) {
  const PrepareSegment in = sample_prepare();
  auto out = decode_prepare_segment(encode(in));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().txn, in.txn);
  EXPECT_EQ(out.value().rid_segment, in.rid_segment);
  EXPECT_EQ(out.value().rid_contingency, in.rid_contingency);
  EXPECT_EQ(out.value().ingress, in.ingress);
  EXPECT_EQ(out.value().egress, in.egress);
  EXPECT_DOUBLE_EQ(out.value().rate, in.rate);
  EXPECT_DOUBLE_EQ(out.value().l_max, in.l_max);
  EXPECT_DOUBLE_EQ(out.value().contingency_rate, in.contingency_rate);
  EXPECT_EQ(out.value().boundary_from, in.boundary_from);
  EXPECT_EQ(out.value().boundary_to, in.boundary_to);
}

TEST(Wire, PrepareReplyRoundTripBothOutcomes) {
  PrepareReply held;
  held.txn = 77;
  held.prepared = true;
  held.segment_flow = 5;
  held.contingency_flow = 6;
  auto out = decode_prepare_reply(encode(held));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_TRUE(out.value().prepared);
  EXPECT_EQ(out.value().segment_flow, 5);
  EXPECT_EQ(out.value().contingency_flow, 6);

  PrepareReply refused;
  refused.txn = 78;
  refused.prepared = false;
  refused.reason = RejectReason::kInsufficientBandwidth;
  refused.detail = "bottleneck full";
  out = decode_prepare_reply(encode(refused));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_FALSE(out.value().prepared);
  EXPECT_EQ(out.value().reason, RejectReason::kInsufficientBandwidth);
  EXPECT_EQ(out.value().detail, "bottleneck full");
  EXPECT_EQ(out.value().segment_flow, kInvalidFlowId);
}

TEST(Wire, CommitAbortAckRoundTrip) {
  CommitSegment commit;
  commit.txn = 9;
  commit.rid = 200;
  commit.contingency_flow = 31;
  auto c = decode_commit_segment(encode(commit));
  ASSERT_TRUE(c.is_ok()) << c.status().to_string();
  EXPECT_EQ(c.value().txn, 9u);
  EXPECT_EQ(c.value().rid, 200u);
  EXPECT_EQ(c.value().contingency_flow, 31);

  AbortSegment abort;
  abort.txn = 9;
  abort.rid_segment = 201;
  abort.rid_contingency = 202;
  abort.segment_flow = 30;
  abort.contingency_flow = kInvalidFlowId;
  auto a = decode_abort_segment(encode(abort));
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  EXPECT_EQ(a.value().segment_flow, 30);
  EXPECT_EQ(a.value().contingency_flow, kInvalidFlowId);

  SegmentAck ack;
  ack.txn = 9;
  ack.ok = false;
  ack.detail = "contingency: not found";
  auto k = decode_segment_ack(encode(ack));
  ASSERT_TRUE(k.is_ok()) << k.status().to_string();
  EXPECT_EQ(k.value().txn, 9u);
  EXPECT_FALSE(k.value().ok);
  EXPECT_EQ(k.value().detail, "contingency: not found");
}

TEST(Wire, FederatedDigestRoundTrip) {
  auto req = decode_federated_digest_request(encode(FederatedDigestRequest{}));
  ASSERT_TRUE(req.is_ok()) << req.status().to_string();

  FederatedDigestReply reply;
  reply.digest = 0xdeadbeef;
  reply.live_flows = 12;
  reply.journal_lsn = 345;
  auto out = decode_federated_digest_reply(encode(reply));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().digest, 0xdeadbeefu);
  EXPECT_EQ(out.value().live_flows, 12u);
  EXPECT_EQ(out.value().journal_lsn, 345u);
}

TEST(Wire, FederationFramesSurviveTruncationAndTypeConfusion) {
  const auto full = encode(sample_prepare());
  EXPECT_EQ(peek_type(full).value(), MessageType::kPrepareSegment);
  for (std::size_t n = 0; n < full.size(); ++n) {
    WireBuffer cut(full.begin(), full.begin() + static_cast<long>(n));
    auto out = decode_prepare_segment(cut);
    EXPECT_FALSE(out.is_ok()) << "length " << n << " decoded successfully";
  }
  // A prepare frame must not decode as any other federation message.
  EXPECT_FALSE(decode_commit_segment(full).is_ok());
  EXPECT_FALSE(decode_abort_segment(full).is_ok());
  EXPECT_FALSE(decode_segment_ack(full).is_ok());
  EXPECT_FALSE(decode_federated_digest_reply(full).is_ok());
}

}  // namespace
}  // namespace qosbb
