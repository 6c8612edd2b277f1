// Tests for the network signaling front: stream framing (every split
// point, every corruption class), the epoll server end to end over
// loopback, hostile-input hardening (the broker state must be untouched by
// garbage bytes), and the server-vs-library differential digest check.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "core/journal.h"
#include "core/wire.h"
#include "net/client.h"
#include "net/framing.h"
#include "net/server.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace qosbb {
namespace {

FlowServiceRequest make_request(int pair = 0, double rho = 1e5) {
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(/*sigma=*/24000.0, rho,
                                     /*peak=*/2.0 * rho, /*l_max=*/12000.0);
  req.e2e_delay_req = 1.0;
  req.ingress = "I" + std::to_string(pair);
  req.egress = "E" + std::to_string(pair);
  return req;
}

// ---- Framing: the length|~length|crc32 stream codec ----

TEST(Framing, RoundTripSingleFrame) {
  const WireBuffer payload = encode(make_request());
  const WireBuffer framed = frame_net_message(payload);
  ASSERT_EQ(framed.size(), payload.size() + kNetFrameHeaderSize);

  FrameDecoder dec;
  dec.feed(framed.data(), framed.size());
  auto out = dec.next();
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value(), payload);
  EXPECT_EQ(dec.next().status().code(), StatusCode::kNeedMoreData);
  EXPECT_FALSE(dec.poisoned());
}

TEST(Framing, EverySplitPointNeedsMoreDataThenDecodes) {
  const WireBuffer payload = encode(make_request());
  const WireBuffer framed = frame_net_message(payload);
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(framed.data(), cut);
    auto partial = dec.next();
    ASSERT_FALSE(partial.is_ok()) << "cut=" << cut;
    ASSERT_EQ(partial.status().code(), StatusCode::kNeedMoreData)
        << "cut=" << cut << ": " << partial.status().to_string();
    ASSERT_FALSE(dec.poisoned()) << "cut=" << cut;
    dec.feed(framed.data() + cut, framed.size() - cut);
    auto whole = dec.next();
    ASSERT_TRUE(whole.is_ok())
        << "cut=" << cut << ": " << whole.status().to_string();
    EXPECT_EQ(whole.value(), payload);
  }
}

TEST(Framing, ByteByByteFeed) {
  const WireBuffer payload = encode(make_request());
  const WireBuffer framed = frame_net_message(payload);
  FrameDecoder dec;
  for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
    dec.feed(&framed[i], 1);
    ASSERT_EQ(dec.next().status().code(), StatusCode::kNeedMoreData)
        << "after byte " << i;
  }
  dec.feed(&framed[framed.size() - 1], 1);
  auto out = dec.next();
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), payload);
}

TEST(Framing, PipelinedFramesDecodeInOrder) {
  std::vector<WireBuffer> payloads;
  WireBuffer stream;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(encode(make_request(i % 2)));
    const WireBuffer framed = frame_net_message(payloads.back());
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  for (int i = 0; i < 5; ++i) {
    auto out = dec.next();
    ASSERT_TRUE(out.is_ok()) << "frame " << i;
    EXPECT_EQ(out.value(), payloads[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(dec.next().status().code(), StatusCode::kNeedMoreData);
}

TEST(Framing, LengthComplementMismatchIsDataLossAndPoisons) {
  WireBuffer framed = frame_net_message(encode(make_request()));
  framed[5] ^= 0x10;  // corrupt the ~len word
  FrameDecoder dec;
  dec.feed(framed.data(), framed.size());
  EXPECT_EQ(dec.next().status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(dec.poisoned());
  // Feeding good bytes later cannot resynchronize a corrupt stream.
  const WireBuffer good = frame_net_message(encode(make_request()));
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next().status().code(), StatusCode::kDataLoss);
}

TEST(Framing, PayloadCorruptionFailsCrc) {
  const WireBuffer payload = encode(make_request());
  for (std::size_t bit = 0; bit < 8; ++bit) {
    WireBuffer framed = frame_net_message(payload);
    framed[kNetFrameHeaderSize + 3] ^= static_cast<std::uint8_t>(1u << bit);
    FrameDecoder dec;
    dec.feed(framed.data(), framed.size());
    EXPECT_EQ(dec.next().status().code(), StatusCode::kDataLoss)
        << "bit " << bit;
  }
}

TEST(Framing, OversizeLengthIsDataLossNotAllocation) {
  // A hostile length must be rejected structurally (both words consistent,
  // so only the cap catches it) — before any payload-sized buffering.
  const std::uint32_t huge = kMaxNetFramePayload + 1;
  WireBuffer framed;
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      framed.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put_u32(huge);
  put_u32(~huge);
  put_u32(0);
  FrameDecoder dec;
  dec.feed(framed.data(), framed.size());
  EXPECT_EQ(dec.next().status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(dec.poisoned());
}

TEST(Framing, TornTailIsNeedMoreDataNotCorruption) {
  // A frame cut anywhere (header or payload) is indistinguishable from a
  // slow sender: kNeedMoreData, decoder stays healthy.
  const WireBuffer framed = frame_net_message(encode(make_request()));
  for (std::size_t keep = 0; keep < framed.size(); ++keep) {
    FrameDecoder dec;
    dec.feed(framed.data(), keep);
    EXPECT_EQ(dec.next().status().code(), StatusCode::kNeedMoreData);
    EXPECT_FALSE(dec.poisoned());
  }
}

TEST(Framing, CompactionPreservesStreamAcrossManyFrames) {
  // Push enough frames through a single decoder that the internal buffer
  // compaction path runs repeatedly.
  FrameDecoder dec;
  const WireBuffer payload = encode(make_request());
  const WireBuffer framed = frame_net_message(payload);
  for (int i = 0; i < 1000; ++i) {
    dec.feed(framed.data(), framed.size());
    auto out = dec.next();
    ASSERT_TRUE(out.is_ok()) << "frame " << i;
    ASSERT_EQ(out.value(), payload);
  }
  EXPECT_EQ(dec.buffered(), 0u);
}

// ---- The epoll server over loopback ----

class NetServerTest : public ::testing::Test {
 protected:
  void boot(ServerOptions opts = ServerOptions{}) {
    DumbbellOptions topo;
    topo.edge_pairs = 2;
    // Wide pipes: these tests admit thousands of 100 kb/s flows and only
    // the 1e12-rho "monster" requests should ever be rejected.
    topo.access_capacity = 10e9;
    topo.bottleneck_capacity = 4e9;
    spec_ = dumbbell_topology(topo);
    bb_ = std::make_unique<BandwidthBroker>(spec_, broker_options_);
    front_ = std::make_unique<ConcurrentBrokerFront>(*bb_, 1);
    server_ = std::make_unique<QosbbServer>(*front_, opts);
    ASSERT_TRUE(server_->start().is_ok());
    ASSERT_TRUE(server_->provision_pair("I0", "E0").is_ok());
    ASSERT_TRUE(server_->provision_pair("I1", "E1").is_ok());
    loop_ = std::thread([this] { server_->run(); });
  }

  void stop() {
    if (server_ != nullptr && loop_.joinable()) {
      server_->request_stop();
      loop_.join();
    }
  }

  void TearDown() override { stop(); }

  std::uint32_t digest() {
    auto d = broker_state_digest(server_->broker());
    EXPECT_TRUE(d.is_ok());
    return d.is_ok() ? d.value() : 0;
  }

  BrokerOptions broker_options_;
  DomainSpec spec_;
  std::unique_ptr<BandwidthBroker> bb_;
  std::unique_ptr<ConcurrentBrokerFront> front_;
  std::unique_ptr<QosbbServer> server_;
  std::thread loop_;
};

TEST_F(NetServerTest, AdmitTeardownRoundTrip) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());

  ASSERT_TRUE(client.send_message(encode(make_request())).is_ok());
  auto reply = client.read_message();
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  ASSERT_EQ(peek_type(reply.value()).value(), MessageType::kReservationReply);
  auto res = decode_reservation(reply.value());
  ASSERT_TRUE(res.is_ok());
  EXPECT_NE(res.value().flow, kInvalidFlowId);
  EXPECT_GE(res.value().params.rate, 1e5);

  ASSERT_TRUE(
      client.send_message(encode(TeardownRequest{res.value().flow})).is_ok());
  auto ack = client.read_message();
  ASSERT_TRUE(ack.is_ok());
  ASSERT_EQ(peek_type(ack.value()).value(), MessageType::kRejectReply);
  EXPECT_EQ(decode_reject_reply(ack.value()).value().reason,
            RejectReason::kNone);
}

TEST_F(NetServerTest, OverloadIsRejectedWithReason) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  // A flow wider than the whole bottleneck cannot be admitted.
  FlowServiceRequest req = make_request(0, /*rho=*/1e12);
  ASSERT_TRUE(client.send_message(encode(req)).is_ok());
  auto reply = client.read_message();
  ASSERT_TRUE(reply.is_ok());
  ASSERT_EQ(peek_type(reply.value()).value(), MessageType::kRejectReply);
  EXPECT_NE(decode_reject_reply(reply.value()).value().reason,
            RejectReason::kNone);
  // Stats are written by the loop thread: only read them after stop().
  stop();
  EXPECT_EQ(server_->stats().admit_requests, 1u);
  EXPECT_EQ(server_->stats().rejects, 1u);
  EXPECT_EQ(server_->stats().admits, 0u);
}

TEST_F(NetServerTest, TeardownOfUnknownFlowFailsButKeepsConnection) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(
      client.send_message(encode(TeardownRequest{987654321})).is_ok());
  auto ack = client.read_message();
  ASSERT_TRUE(ack.is_ok());
  ASSERT_EQ(peek_type(ack.value()).value(), MessageType::kRejectReply);
  EXPECT_NE(decode_reject_reply(ack.value()).value().reason,
            RejectReason::kNone);
  // The connection survives a failed teardown: a real admit still works.
  ASSERT_TRUE(client.send_message(encode(make_request())).is_ok());
  auto reply = client.read_message();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(peek_type(reply.value()).value(), MessageType::kReservationReply);
}

TEST_F(NetServerTest, PipelinedRepliesArriveInOrder) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  // Burst: admit, admit, teardown(unknown), admit — one write, then read
  // the four replies back positionally.
  WireBuffer burst;
  for (const WireBuffer& msg :
       {encode(make_request(0)), encode(make_request(1)),
        encode(TeardownRequest{424242}), encode(make_request(0))}) {
    const WireBuffer framed = frame_net_message(msg);
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  ASSERT_TRUE(client.send_raw(burst).is_ok());

  const MessageType expect[] = {
      MessageType::kReservationReply, MessageType::kReservationReply,
      MessageType::kRejectReply, MessageType::kReservationReply};
  for (int i = 0; i < 4; ++i) {
    auto reply = client.read_message();
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    EXPECT_EQ(peek_type(reply.value()).value(), expect[i]) << "reply " << i;
  }
  stop();
  // The two consecutive leading admits were dispatched as one batch.
  EXPECT_EQ(server_->stats().admit_requests, 3u);
  EXPECT_EQ(server_->stats().teardown_failures, 1u);
  EXPECT_LE(server_->stats().batches, server_->stats().batched_requests);
}

TEST_F(NetServerTest, ManyPipelinedAdmitsAllAnswered) {
  boot();
  const int kCount = 500;
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  WireBuffer burst;
  for (int i = 0; i < kCount; ++i) {
    const WireBuffer framed = frame_net_message(encode(make_request(i % 2)));
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  // Writer thread: a full-pipe sender must not deadlock against the reader.
  std::thread writer([&] { EXPECT_TRUE(client.send_raw(burst).is_ok()); });
  int admitted = 0;
  for (int i = 0; i < kCount; ++i) {
    auto reply = client.read_message(10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    if (peek_type(reply.value()).value() == MessageType::kReservationReply) {
      ++admitted;
    }
  }
  writer.join();
  stop();
  EXPECT_EQ(admitted, kCount);
  EXPECT_EQ(server_->stats().admit_requests,
            static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(server_->stats().admits + server_->stats().rejects,
            static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(server_->stats().decode_errors, 0u);
}

TEST_F(NetServerTest, SlowReaderHitsBackpressureButLosesNothing) {
  ServerOptions opts;
  opts.write_high_watermark = 4096;
  opts.write_low_watermark = 1024;
  boot(opts);
  const int kCount = 4000;
  BlockingClient client;
  // Tiny receive window: replies can't drain into the client's kernel
  // buffer, so the server's userspace reply buffer must back up.
  ASSERT_TRUE(
      client.connect("127.0.0.1", server_->port(), /*rcvbuf_bytes=*/4096)
          .is_ok());
  WireBuffer burst;
  for (int i = 0; i < kCount; ++i) {
    const WireBuffer framed = frame_net_message(encode(make_request(i % 2)));
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  // Send everything, and hold off reading while the server churns: its
  // write buffer crosses the (tiny) watermark and it must pause reading
  // instead of buffering without bound.
  std::thread writer([&] { EXPECT_TRUE(client.send_raw(burst).is_ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int answered = 0;
  for (int i = 0; i < kCount; ++i) {
    auto reply = client.read_message(10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    ++answered;
  }
  writer.join();
  stop();
  EXPECT_EQ(answered, kCount);
  EXPECT_EQ(server_->stats().admit_requests,
            static_cast<std::uint64_t>(kCount));
  EXPECT_GE(server_->stats().backpressure_pauses, 1u);
  EXPECT_EQ(server_->stats().decode_errors, 0u);
}

// ---- Hostile input: the broker must be untouchable by garbage ----

TEST_F(NetServerTest, RandomGarbageLeavesBrokerUntouched) {
  boot();
  // Seed real state so the digest is non-trivial.
  BlockingClient setup;
  ASSERT_TRUE(setup.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(setup.send_message(encode(make_request())).is_ok());
  ASSERT_TRUE(setup.read_message().is_ok());
  const std::uint32_t before = digest();

  Rng rng(77);
  for (int round = 0; round < 32; ++round) {
    BlockingClient hostile;
    ASSERT_TRUE(hostile.connect("127.0.0.1", server_->port()).is_ok());
    WireBuffer junk(static_cast<std::size_t>(rng.uniform_int(1, 512)));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    ASSERT_TRUE(hostile.send_raw(junk).is_ok());
    hostile.shutdown_send();
    // The server either answers with a reject or just closes; it must not
    // hang, and it must not admit anything.
    while (true) {
      auto reply = hostile.read_message(5000);
      if (!reply.is_ok()) {
        EXPECT_NE(reply.status().code(), StatusCode::kUnavailable)
            << "server hung on garbage round " << round;
        break;
      }
      EXPECT_EQ(peek_type(reply.value()).value(), MessageType::kRejectReply);
    }
  }
  EXPECT_EQ(digest(), before);
  // The server still serves real clients afterwards.
  BlockingClient after;
  ASSERT_TRUE(after.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(after.send_message(encode(make_request(1))).is_ok());
  auto reply = after.read_message();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(peek_type(reply.value()).value(), MessageType::kReservationReply);
}

TEST_F(NetServerTest, BitFlippedFrameIsRejectedAndConnectionClosed) {
  boot();
  const std::uint32_t before = digest();
  Rng rng(99);
  for (int round = 0; round < 64; ++round) {
    WireBuffer framed = frame_net_message(encode(make_request()));
    const std::size_t byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(framed.size()) - 1));
    framed[byte] ^=
        static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    BlockingClient hostile;
    ASSERT_TRUE(hostile.connect("127.0.0.1", server_->port()).is_ok());
    ASSERT_TRUE(hostile.send_raw(framed).is_ok());
    hostile.shutdown_send();
    // Whatever the flip hit (framing header, CRC, wire header, profile
    // floats) the flow must NOT be admitted: either a reject reply, a
    // close, or — if the flip left the frame undecodably short — nothing.
    while (true) {
      auto reply = hostile.read_message(5000);
      if (!reply.is_ok()) break;
      ASSERT_EQ(peek_type(reply.value()).value(), MessageType::kRejectReply)
          << "round " << round << " byte " << byte;
    }
  }
  EXPECT_EQ(digest(), before);
}

TEST_F(NetServerTest, TruncatedFrameOnCloseIsDroppedSilently) {
  boot();
  const std::uint32_t before = digest();
  const WireBuffer framed = frame_net_message(encode(make_request()));
  for (std::size_t keep : {std::size_t{1}, std::size_t{6},
                           std::size_t{kNetFrameHeaderSize},
                           framed.size() - 1}) {
    BlockingClient hostile;
    ASSERT_TRUE(hostile.connect("127.0.0.1", server_->port()).is_ok());
    WireBuffer torn(framed.begin(), framed.begin() + static_cast<long>(keep));
    ASSERT_TRUE(hostile.send_raw(torn).is_ok());
    hostile.shutdown_send();
    auto reply = hostile.read_message(5000);
    // A torn tail is a slow-sender artifact, not corruption: the server
    // closes without a reject and without admitting anything.
    EXPECT_FALSE(reply.is_ok());
    EXPECT_NE(reply.status().code(), StatusCode::kUnavailable);
  }
  stop();
  EXPECT_EQ(server_->stats().admit_requests, 0u);
  EXPECT_EQ(broker_state_digest(server_->broker()).value(), before);
}

TEST_F(NetServerTest, ServerBoundMessageTypeIsAProtocolError) {
  boot();
  // A syntactically valid frame carrying a reply-type message (the server
  // only ever SENDS these) must be refused without touching the broker.
  const std::uint32_t before = digest();
  Reservation res;
  res.flow = 1;
  res.path = 1;
  res.params = {1e6, 0.01};
  res.e2e_bound = 0.5;
  BlockingClient hostile;
  ASSERT_TRUE(hostile.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(hostile.send_message(encode(res)).is_ok());
  auto reply = hostile.read_message(5000);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(peek_type(reply.value()).value(), MessageType::kRejectReply);
  stop();
  EXPECT_EQ(server_->stats().decode_errors, 1u);
  EXPECT_EQ(broker_state_digest(server_->broker()).value(), before);
}

// ---- The differential check: network path == library path ----

TEST_F(NetServerTest, DifferentialDigestMatchesLibraryReplay) {
  ServerOptions opts;
  opts.record_ops = true;
  boot(opts);
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  std::vector<FlowId> admitted;
  for (int i = 0; i < 60; ++i) {
    // Mix: normal admits on both pairs, a rejected monster every 7th, a
    // teardown of an earlier flow every 5th.
    if (i % 5 == 4 && !admitted.empty()) {
      const FlowId victim = admitted.back();
      admitted.pop_back();
      ASSERT_TRUE(client.send_message(encode(TeardownRequest{victim})).is_ok());
      auto ack = client.read_message();
      ASSERT_TRUE(ack.is_ok());
      EXPECT_EQ(decode_reject_reply(ack.value()).value().reason,
                RejectReason::kNone);
      continue;
    }
    const double rho = (i % 7 == 6) ? 1e12 : 1e5 * (1 + i % 3);
    ASSERT_TRUE(client.send_message(encode(make_request(i % 2, rho))).is_ok());
    auto reply = client.read_message();
    ASSERT_TRUE(reply.is_ok());
    if (peek_type(reply.value()).value() == MessageType::kReservationReply) {
      admitted.push_back(decode_reservation(reply.value()).value().flow);
    } else {
      EXPECT_EQ(rho, 1e12) << "unexpected reject at op " << i;
    }
  }
  client.close();
  stop();

  const DifferentialReport rep = run_differential_check(
      spec_, broker_options_, server_->recorded_ops(), server_->broker());
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.live_digest, rep.replay_digest);
  EXPECT_GT(rep.ops_replayed, 60u);  // provisions + admits + releases
}

TEST_F(NetServerTest, DifferentialCatchesTamperedRecording) {
  // Sanity: the check is not vacuous — a forged admit decision must fail.
  ServerOptions opts;
  opts.record_ops = true;
  boot(opts);
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(client.send_message(encode(make_request())).is_ok());
  ASSERT_TRUE(client.read_message().is_ok());
  client.close();
  stop();

  std::vector<RecordedOp> tampered = server_->recorded_ops();
  ASSERT_FALSE(tampered.empty());
  RecordedOp forged = tampered.back();
  ASSERT_EQ(forged.kind, RecordedOp::Kind::kAdmit);
  forged.request.profile =
      TrafficProfile::make(24000.0, 2e5, 4e5, 12000.0);  // not what ran
  tampered.push_back(forged);
  const DifferentialReport rep = run_differential_check(
      spec_, broker_options_, tampered, server_->broker());
  EXPECT_FALSE(rep.ok);
}

// ---- Overload control: budgets, deadlines, brownout, reaping ----

TEST_F(NetServerTest, PerConnBudgetShedsExcessWithReason) {
  ServerOptions opts;
  opts.max_inflight_per_conn = 1;
  boot(opts);
  const int kCount = 64;
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  WireBuffer burst;
  for (int i = 0; i < kCount; ++i) {
    const WireBuffer framed = frame_net_message(encode(make_request(i % 2)));
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  ASSERT_TRUE(client.send_raw(burst).is_ok());
  int reserved = 0;
  int shed = 0;
  for (int i = 0; i < kCount; ++i) {
    auto reply = client.read_message(10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    const MessageType type = peek_type(reply.value()).value();
    if (type == MessageType::kReservationReply) {
      ++reserved;
    } else {
      ASSERT_EQ(type, MessageType::kOverloadedReply) << "reply " << i;
      auto over = decode_overloaded_reply(reply.value());
      ASSERT_TRUE(over.is_ok());
      EXPECT_EQ(over.value().reason, ShedReason::kConnBudget);
      EXPECT_GT(over.value().retry_after_ms, 0u);
      ++shed;
    }
  }
  stop();
  // Every request was answered — served or shed, never silently dropped —
  // and a 64-deep burst against a budget of 1 must shed most of it.
  EXPECT_EQ(reserved + shed, kCount);
  EXPECT_GE(shed, kCount / 2);
  EXPECT_EQ(server_->stats().shed_conn, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(server_->stats().admits, static_cast<std::uint64_t>(reserved));
  EXPECT_EQ(server_->stats().decode_errors, 0u);
}

TEST_F(NetServerTest, GlobalBudgetShedsAcrossConnections) {
  ServerOptions opts;
  opts.max_inflight_global = 2;
  opts.max_inflight_per_conn = 1024;  // isolate the global knob
  boot(opts);
  const int kCount = 32;
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  WireBuffer burst;
  for (int i = 0; i < kCount; ++i) {
    const WireBuffer framed = frame_net_message(encode(make_request(i % 2)));
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  ASSERT_TRUE(client.send_raw(burst).is_ok());
  int shed = 0;
  for (int i = 0; i < kCount; ++i) {
    auto reply = client.read_message(10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    if (peek_type(reply.value()).value() == MessageType::kOverloadedReply) {
      auto over = decode_overloaded_reply(reply.value());
      ASSERT_TRUE(over.is_ok());
      EXPECT_EQ(over.value().reason, ShedReason::kGlobalBudget);
      ++shed;
    }
  }
  stop();
  EXPECT_GE(shed, 1);
  EXPECT_EQ(server_->stats().shed_global, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(server_->stats().shed_conn, 0u);
}

TEST_F(NetServerTest, DeadlineShedsStaleQueuedWorkNotFreshWork) {
  ServerOptions opts;
  // Tiny watermark so a non-reading client wedges the reply path and work
  // piles up in the pending queue long enough to go stale.
  opts.write_high_watermark = 4096;
  opts.write_low_watermark = 1024;
  // ...and a tiny kernel send buffer, or the kernel silently absorbs every
  // reply and the userspace queue never backs up at this request count.
  opts.sndbuf_bytes = 4096;
  opts.request_deadline_ms = 100;
  opts.max_inflight_per_conn = 1u << 20;  // isolate the deadline knob
  opts.max_inflight_global = 1u << 20;
  boot(opts);
  const int kCount = 3000;
  BlockingClient client;
  ASSERT_TRUE(
      client.connect("127.0.0.1", server_->port(), /*rcvbuf_bytes=*/4096)
          .is_ok());
  WireBuffer burst;
  for (int i = 0; i < kCount; ++i) {
    const WireBuffer framed = frame_net_message(encode(make_request(i % 2)));
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  std::thread writer([&] { EXPECT_TRUE(client.send_raw(burst).is_ok()); });
  // Let queued ops age past the deadline before draining replies.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  int answered = 0;
  int shed = 0;
  for (int i = 0; i < kCount; ++i) {
    auto reply = client.read_message(10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    ++answered;
    if (peek_type(reply.value()).value() == MessageType::kOverloadedReply) {
      auto over = decode_overloaded_reply(reply.value());
      ASSERT_TRUE(over.is_ok());
      EXPECT_EQ(over.value().reason, ShedReason::kDeadline);
      ++shed;
    }
  }
  writer.join();
  stop();
  // Expired work is shed with an explicit reply — nothing vanishes — and
  // only the deadline knob fired.
  EXPECT_EQ(answered, kCount);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(server_->stats().shed_deadline, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(server_->stats().shed_conn, 0u);
  EXPECT_EQ(server_->stats().shed_global, 0u);
  EXPECT_EQ(server_->stats().decode_errors, 0u);
}

TEST_F(NetServerTest, SlowlorisPartialFrameIsReaped) {
  ServerOptions opts;
  opts.partial_frame_timeout_ms = 200;
  boot(opts);
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  const WireBuffer framed = frame_net_message(encode(make_request()));
  WireBuffer half(framed.begin(),
                  framed.begin() + static_cast<long>(framed.size() / 2));
  ASSERT_TRUE(client.send_raw(half).is_ok());
  // The server must close us, not wait forever for the rest of the frame.
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.read_message(5000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_LT(elapsed.count(), 3000);
  stop();
  EXPECT_EQ(server_->stats().reaped_partial, 1u);
  EXPECT_EQ(server_->stats().admit_requests, 0u);
}

TEST_F(NetServerTest, IdleConnectionIsReapedAfterTimeout) {
  ServerOptions opts;
  opts.idle_timeout_ms = 200;
  boot(opts);
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  // A completed round-trip, then silence: the idle reaper must fire.
  ASSERT_TRUE(client.send_message(encode(make_request())).is_ok());
  ASSERT_TRUE(client.read_message().is_ok());
  auto reply = client.read_message(5000);
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  stop();
  EXPECT_EQ(server_->stats().reaped_idle, 1u);
  EXPECT_EQ(server_->stats().admits, 1u);
}

TEST_F(NetServerTest, HealthProbeReportsLiveCounters) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(client.send_message(encode(make_request())).is_ok());
  ASSERT_TRUE(client.read_message().is_ok());
  ASSERT_TRUE(client.send_message(encode(HealthRequest{})).is_ok());
  auto reply = client.read_message();
  ASSERT_TRUE(reply.is_ok());
  ASSERT_EQ(peek_type(reply.value()).value(), MessageType::kHealthReply);
  auto health = decode_health_reply(reply.value());
  ASSERT_TRUE(health.is_ok());
  EXPECT_EQ(health.value().admits, 1u);
  EXPECT_EQ(health.value().live_flows, 1u);
  EXPECT_EQ(health.value().connections, 1u);
  EXPECT_EQ(health.value().brownout_active, 0u);
  EXPECT_EQ(health.value().journal_lsn, 0u);  // in-memory backend
  stop();
  EXPECT_EQ(server_->stats().health_requests, 1u);
}

TEST_F(NetServerTest, SnapshotDigestProbeMatchesLibraryDigest) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(client.send_message(encode(make_request())).is_ok());
  ASSERT_TRUE(client.read_message().is_ok());
  ASSERT_TRUE(client.send_message(encode(SnapshotDigestRequest{})).is_ok());
  auto reply = client.read_message();
  ASSERT_TRUE(reply.is_ok());
  ASSERT_EQ(peek_type(reply.value()).value(),
            MessageType::kSnapshotDigestReply);
  auto dig = decode_snapshot_digest_reply(reply.value());
  ASSERT_TRUE(dig.is_ok());
  client.close();
  stop();
  EXPECT_EQ(dig.value().digest, digest());
  EXPECT_EQ(dig.value().journal_lsn, 0u);
  EXPECT_EQ(server_->stats().digest_requests, 1u);
}

TEST_F(NetServerTest, BrownoutShedsDigestButKeepsAdmitting) {
  ServerOptions opts;
  opts.brownout_inflight = 1;  // any queued op puts digests in brownout
  boot(opts);
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  // One write so all three land in a single decode batch: admit (queues,
  // tripping the instantaneous brownout gate), digest (shed), admit
  // (still served — admits are the cheap work brownout protects).
  WireBuffer burst;
  for (const WireBuffer& msg :
       {encode(make_request(0)), encode(SnapshotDigestRequest{}),
        encode(make_request(1))}) {
    const WireBuffer framed = frame_net_message(msg);
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  ASSERT_TRUE(client.send_raw(burst).is_ok());
  const MessageType expect[] = {MessageType::kReservationReply,
                                MessageType::kOverloadedReply,
                                MessageType::kReservationReply};
  for (int i = 0; i < 3; ++i) {
    auto reply = client.read_message(10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    ASSERT_EQ(peek_type(reply.value()).value(), expect[i]) << "reply " << i;
    if (i == 1) {
      auto over = decode_overloaded_reply(reply.value());
      ASSERT_TRUE(over.is_ok());
      EXPECT_EQ(over.value().reason, ShedReason::kBrownout);
    }
  }
  // Quiet again (no queued ops, no budget sheds latched): a digest probe
  // must be served — brownout is a mode, not a permanent downgrade.
  ASSERT_TRUE(client.send_message(encode(SnapshotDigestRequest{})).is_ok());
  auto after = client.read_message(10000);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(peek_type(after.value()).value(),
            MessageType::kSnapshotDigestReply);
  stop();
  EXPECT_EQ(server_->stats().shed_brownout, 1u);
  EXPECT_EQ(server_->stats().digest_requests, 1u);
  EXPECT_EQ(server_->stats().admits, 2u);
}

TEST_F(NetServerTest, SigtermDrainAnswersPipelinedInflightBatches) {
  boot();
  const int kCount = 300;
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  // One round-trip first: the drain only serves connections the loop has
  // already ACCEPTED (it closes the listener immediately), so make sure
  // ours is registered before racing the stop signal.
  ASSERT_TRUE(client.send_message(encode(make_request())).is_ok());
  ASSERT_TRUE(client.read_message().is_ok());
  WireBuffer burst;
  for (int i = 0; i < kCount; ++i) {
    const WireBuffer framed = frame_net_message(encode(make_request(i % 2)));
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  ASSERT_TRUE(client.send_raw(burst).is_ok());
  // Stop while the burst is (at best) partially served: the drain must
  // finish answering every already-sent request before closing.
  server_->request_stop();
  int answered = 0;
  for (int i = 0; i < kCount; ++i) {
    auto reply = client.read_message(10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    EXPECT_EQ(peek_type(reply.value()).value(),
              MessageType::kReservationReply);
    ++answered;
  }
  // After the last reply the server closes the connection cleanly.
  auto eof = client.read_message(10000);
  ASSERT_FALSE(eof.is_ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  stop();
  EXPECT_EQ(answered, kCount);
  EXPECT_EQ(server_->stats().admits,
            static_cast<std::uint64_t>(kCount) + 1);  // + the setup admit
}

// ---- One overall read deadline (trickling peer regression) ----

TEST(BlockingClientDeadline, TricklingPeerCannotStretchReadMessage) {
  // A peer dripping one byte per poll interval used to reset the timeout
  // on every byte, stretching one logical read to frame_size * timeout.
  // The deadline must be for the WHOLE message.
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::atomic<bool> stop_trickle{false};
  std::thread trickler([&] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) return;
    const WireBuffer framed = frame_net_message(encode(make_request()));
    // ~76 bytes at 30 ms/byte = well over 2 s of trickle.
    for (std::size_t i = 0; i < framed.size() && !stop_trickle.load(); ++i) {
      (void)::send(cfd, framed.data() + i, 1, MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    ::close(cfd);
  });

  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port).is_ok());
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.read_message(/*timeout_ms=*/250);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed.count(), 200);
  EXPECT_LT(elapsed.count(), 1500);

  stop_trickle = true;
  trickler.join();
  ::close(lfd);
}

// ---- RetryingClient: typed helpers and give-up behavior ----

TEST_F(NetServerTest, RetryingClientTypedHelpersEndToEnd) {
  boot();
  RetryingClientOptions ropts;
  ropts.port = server_->port();
  RetryingClient rc(ropts);
  auto res = rc.admit(make_request(), /*rid=*/1001);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  auto health = rc.health();
  ASSERT_TRUE(health.is_ok());
  EXPECT_EQ(health.value().live_flows, 1u);
  auto dig = rc.snapshot_digest();
  ASSERT_TRUE(dig.is_ok());
  ASSERT_TRUE(rc.teardown(res.value().flow, /*rid=*/1002).is_ok());
  // A broker-level reject is an ANSWER, not an outage: no retry storm.
  auto rejected = rc.admit(make_request(0, /*rho=*/1e12), /*rid=*/1003);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kRejected);
  EXPECT_EQ(rc.stats().resends, 0u);
  EXPECT_EQ(rc.stats().timeouts, 0u);
}

TEST(RetryingClientGiveUp, ExhaustsAttemptsAgainstSilentServer) {
  // A listener that accepts and never replies: every attempt must time
  // out, be counted, and the call must fail kUnavailable after exactly
  // max_attempts tries.
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  constexpr std::uint32_t kAttempts = 3;
  std::vector<int> fds;  // closed only after call() returns: an early
                         // close would turn the final timeout into an EOF
  std::thread sink([&] {
    for (std::uint32_t i = 0; i < kAttempts; ++i) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd >= 0) fds.push_back(fd);  // hold open, never reply
    }
  });

  RetryingClientOptions ropts;
  ropts.port = port;
  ropts.reply_timeout_ms = 50;
  ropts.max_attempts = kAttempts;
  ropts.backoff.base = 0.001;
  ropts.backoff.cap = 0.005;
  RetryingClient rc(ropts);
  auto reply = rc.call(encode(HealthRequest{}));
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rc.stats().attempts, kAttempts);
  EXPECT_EQ(rc.stats().timeouts, kAttempts);
  EXPECT_EQ(rc.stats().resends, kAttempts - 1);
  EXPECT_EQ(rc.stats().reconnects, kAttempts - 1);

  sink.join();
  for (int fd : fds) ::close(fd);
  ::close(lfd);
}

// ---- Exactly-once over the wire: rid dedup through a DurableBroker ----

/// FsJournalFile that counts the appends reaching it (one per group
/// commit). Atomic: the server thread appends while the test thread reads.
class CountingFsJournalFile : public FsJournalFile {
 public:
  using FsJournalFile::FsJournalFile;
  Status append(const WireBuffer& bytes) override {
    ++appends;
    return FsJournalFile::append(bytes);
  }
  std::atomic<std::uint64_t> appends{0};
};

class DurableNetServerTest : public ::testing::Test {
 protected:
  void boot(ServerOptions opts = ServerOptions{}) {
    DumbbellOptions topo;
    topo.edge_pairs = 2;
    topo.access_capacity = 10e9;
    topo.bottleneck_capacity = 4e9;
    spec_ = dumbbell_topology(topo);
    path_ = ::testing::TempDir() + "/qosbb_net_dedup_wal.bin";
    std::remove(path_.c_str());
    file_ = std::make_unique<CountingFsJournalFile>(path_);
    auto opened = DurableBroker::open(spec_, BrokerOptions{}, *file_);
    ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
    durable_ = std::move(opened).value();
    server_ = std::make_unique<QosbbServer>(*durable_, opts);
    ASSERT_TRUE(server_->start().is_ok());
    ASSERT_TRUE(server_->provision_pair("I0", "E0").is_ok());
    ASSERT_TRUE(server_->provision_pair("I1", "E1").is_ok());
    loop_ = std::thread([this] { server_->run(); });
  }

  void stop() {
    if (server_ != nullptr && loop_.joinable()) {
      server_->request_stop();
      loop_.join();
    }
  }

  void TearDown() override {
    stop();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  /// Stop the server and recover a fresh one from the same journal.
  void restart() {
    stop();
    server_.reset();
    durable_.reset();
    file_ = std::make_unique<CountingFsJournalFile>(path_);
    auto opened = DurableBroker::open(spec_, BrokerOptions{}, *file_);
    ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
    durable_ = std::move(opened).value();
    server_ = std::make_unique<QosbbServer>(*durable_, ServerOptions{});
    ASSERT_TRUE(server_->start().is_ok());
    loop_ = std::thread([this] { server_->run(); });
  }

  Result<HealthReply> health(BlockingClient& client) {
    if (Status s = client.send_message(encode(HealthRequest{})); !s.is_ok()) {
      return s;
    }
    auto reply = client.read_message();
    if (!reply.is_ok()) return reply.status();
    return decode_health_reply(reply.value());
  }

  Result<SnapshotDigestReply> snapshot_digest(BlockingClient& client) {
    if (Status s = client.send_message(encode(SnapshotDigestRequest{}));
        !s.is_ok()) {
      return s;
    }
    auto reply = client.read_message();
    if (!reply.is_ok()) return reply.status();
    return decode_snapshot_digest_reply(reply.value());
  }

  DomainSpec spec_;
  std::string path_;
  std::unique_ptr<CountingFsJournalFile> file_;
  std::unique_ptr<DurableBroker> durable_;
  std::unique_ptr<QosbbServer> server_;
  std::thread loop_;
};

TEST_F(DurableNetServerTest, ResentRidReplaysSameDecisionAcrossConnections) {
  boot();
  const FlowServiceRequest req = make_request();
  constexpr RequestId kAdmitRid = 42;
  constexpr RequestId kTearRid = 43;

  BlockingClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(first.send_message(encode(req, kAdmitRid)).is_ok());
  auto reply = first.read_message();
  ASSERT_TRUE(reply.is_ok());
  auto res = decode_reservation(reply.value());
  ASSERT_TRUE(res.is_ok());
  const FlowId flow = res.value().flow;
  // Simulate "client saw nothing and retried after a crash": new
  // connection, same bytes, same rid.
  first.close();

  BlockingClient retry;
  ASSERT_TRUE(retry.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(retry.send_message(encode(req, kAdmitRid)).is_ok());
  auto replay = retry.read_message();
  ASSERT_TRUE(replay.is_ok());
  auto res2 = decode_reservation(replay.value());
  ASSERT_TRUE(res2.is_ok());
  // Exactly-once: the SAME reservation, not a second flow.
  EXPECT_EQ(res2.value().flow, flow);

  // Same contract for teardown: the duplicate acks from the recorded
  // decision instead of failing kNotFound on the already-gone flow.
  ASSERT_TRUE(
      retry.send_message(encode(TeardownRequest{flow, kTearRid})).is_ok());
  auto ack = retry.read_message();
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(decode_reject_reply(ack.value()).value().reason,
            RejectReason::kNone);
  ASSERT_TRUE(
      retry.send_message(encode(TeardownRequest{flow, kTearRid})).is_ok());
  auto dup = retry.read_message();
  ASSERT_TRUE(dup.is_ok());
  EXPECT_EQ(decode_reject_reply(dup.value()).value().reason,
            RejectReason::kNone);
  retry.close();
  stop();
  // One flow ever existed and it is gone; the duplicate admit is not
  // double-counted as an executed admission.
  EXPECT_EQ(server_->broker().flows().count(), 0u);
  auto health_lsn = durable_->stats().dedup_hits;
  EXPECT_GE(health_lsn, 2u);  // the resent admit + the resent teardown
}

TEST_F(DurableNetServerTest, HealthReportsJournalPosition) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  ASSERT_TRUE(client.send_message(encode(make_request(), 7)).is_ok());
  ASSERT_TRUE(client.read_message().is_ok());
  ASSERT_TRUE(client.send_message(encode(HealthRequest{})).is_ok());
  auto reply = client.read_message();
  ASSERT_TRUE(reply.is_ok());
  auto health = decode_health_reply(reply.value());
  ASSERT_TRUE(health.is_ok());
  // Durable backend: the probe exposes recovery-relevant positions.
  EXPECT_GT(health.value().journal_lsn, 0u);
  EXPECT_GE(health.value().dedup_entries, 1u);
  EXPECT_EQ(health.value().live_flows, 1u);
}

// Journaled dispatch runs admits and teardowns as one slab: one
// execute_batch call, one journal append. On the wire that stays
// invisible: replies come back in position order, every executed op is one
// journal record, and a restart on the journal rebuilds the same state.
TEST_F(DurableNetServerTest, PipelinedAdmitsAndTeardownsShareOneSlab) {
  boot();
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).is_ok());
  std::vector<FlowId> live;
  for (RequestId rid = 1; rid <= 3; ++rid) {
    ASSERT_TRUE(client
                    .send_message(encode(
                        make_request(static_cast<int>(rid % 2)), rid))
                    .is_ok());
    auto reply = client.read_message();
    ASSERT_TRUE(reply.is_ok());
    auto res = decode_reservation(reply.value());
    ASSERT_TRUE(res.is_ok());
    live.push_back(res.value().flow);
  }
  auto before = health(client);
  ASSERT_TRUE(before.is_ok());

  enum class Expect { kAdmitted, kRejected, kTornDown, kTeardownFailed };
  struct Step {
    WireBuffer message;
    Expect expect;
    bool journaled;  ///< false: a resent rid replays its decision
  };
  const std::vector<Step> steps = {
      {encode(make_request(0), 10), Expect::kAdmitted, true},
      {encode(TeardownRequest{live[0], 11}), Expect::kTornDown, true},
      {encode(make_request(1), 12), Expect::kAdmitted, true},
      {encode(make_request(0), 13), Expect::kAdmitted, true},
      // Too big to admit: the reject is journaled like an admit.
      {encode(make_request(0, 1e12), 14), Expect::kRejected, true},
      {encode(TeardownRequest{live[1], 15}), Expect::kTornDown, true},
      {encode(TeardownRequest{424242, 16}), Expect::kTeardownFailed, true},
      {encode(make_request(1), 12), Expect::kAdmitted, false},
      {encode(TeardownRequest{live[1], 15}), Expect::kTornDown, false},
      {encode(TeardownRequest{live[2], 17}), Expect::kTornDown, true},
      {encode(make_request(1), 18), Expect::kAdmitted, true},
  };
  WireBuffer burst;
  std::uint64_t journaled = 0;
  for (const Step& step : steps) {
    const WireBuffer framed = frame_net_message(step.message);
    burst.insert(burst.end(), framed.begin(), framed.end());
    journaled += step.journaled ? 1 : 0;
  }
  const std::uint64_t appends_before = file_->appends;
  ASSERT_TRUE(client.send_raw(burst).is_ok());

  std::vector<FlowId> admitted(steps.size(), kInvalidFlowId);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    auto reply = client.read_message();
    ASSERT_TRUE(reply.is_ok()) << "reply " << i;
    if (steps[i].expect == Expect::kAdmitted) {
      auto res = decode_reservation(reply.value());
      ASSERT_TRUE(res.is_ok()) << "reply " << i;
      admitted[i] = res.value().flow;
      continue;
    }
    auto reject = decode_reject_reply(reply.value());
    ASSERT_TRUE(reject.is_ok()) << "reply " << i;
    if (steps[i].expect == Expect::kTornDown) {
      EXPECT_EQ(reject.value().reason, RejectReason::kNone) << "reply " << i;
    } else if (steps[i].expect == Expect::kTeardownFailed) {
      EXPECT_EQ(reject.value().reason, RejectReason::kPolicy)
          << "reply " << i;
    }
  }
  EXPECT_EQ(admitted[7], admitted[2]);  // resent rid 12: the same flow
  // One write arrives as one read, so one slab and one group commit. Split
  // at teardowns, the same burst would take seven appends.
  EXPECT_LE(file_->appends - appends_before, 2u);

  auto after = health(client);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value().journal_lsn, before.value().journal_lsn + journaled);
  // Flows left: the three seeded, minus three torn down, plus the four
  // fresh admits that passed (steps 0, 2, 3, 10).
  EXPECT_EQ(after.value().live_flows, 4u);

  auto digest = snapshot_digest(client);
  ASSERT_TRUE(digest.is_ok());
  client.close();
  restart();
  BlockingClient again;
  ASSERT_TRUE(again.connect("127.0.0.1", server_->port()).is_ok());
  auto recovered = snapshot_digest(again);
  ASSERT_TRUE(recovered.is_ok());
  EXPECT_EQ(recovered.value().digest, digest.value().digest);
  EXPECT_EQ(recovered.value().journal_lsn, digest.value().journal_lsn);
}

TEST(NetDigest, DeterministicAcrossCalls) {
  DumbbellOptions topo;
  topo.edge_pairs = 2;
  const DomainSpec spec = dumbbell_topology(topo);
  BandwidthBroker bb(spec, BrokerOptions{});
  auto a = broker_state_digest(bb);
  auto b = broker_state_digest(bb);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace qosbb
