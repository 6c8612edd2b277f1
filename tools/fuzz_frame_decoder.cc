// Coverage-guided fuzz target for the net-frame decoder and the wire
// message decoders behind it (net/framing.h + core/wire.h).
//
// The input's first byte picks the fragmentation pattern; the rest is fed
// to a FrameDecoder as a socket byte stream. Invariants checked on every
// input (violations abort, which both libFuzzer and the ctest replay
// report as a crash):
//
//   * a yielded payload never exceeds kMaxNetFramePayload;
//   * kDataLoss is sticky: once poisoned, the decoder stays poisoned and
//     keeps returning an error;
//   * kNeedMoreData never co-occurs with a poisoned decoder;
//   * buffered() never exceeds the bytes fed so far;
//   * every yielded payload survives a frame_net_message round trip
//     bit-identically through a fresh decoder;
//   * the wire decoders accept or reject every yielded payload without
//     crashing, and peek_type stays within the declared message range.
//
// Build modes:
//   * -DQOSBB_FUZZER=ON (clang): links -fsanitize=fuzzer, libFuzzer main.
//   * default: a standalone main() that replays corpus files/directories,
//     so the same invariants gate the gcc rows under ctest.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/wire.h"
#include "net/framing.h"
#include "util/status.h"

namespace qosbb {
namespace {

void require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "fuzz_frame_decoder: invariant violated: %s\n",
                 what);
    std::abort();
  }
}

void check_payload(const WireBuffer& payload) {
  require(payload.size() <= kMaxNetFramePayload, "payload exceeds cap");

  // Round trip: re-framing the payload must decode to the same bytes.
  const WireBuffer reframed = frame_net_message(payload);
  FrameDecoder echo;
  echo.feed(reframed.data(), reframed.size());
  Result<WireBuffer> back = echo.next();
  require(back.status().is_ok(), "re-framed payload failed to decode");
  require(back.value() == payload, "round trip changed the payload");
  require(echo.buffered() == 0, "round trip left residue");

  // The hardened wire decoders must classify arbitrary payloads without
  // crashing; whether they accept is irrelevant here.
  Result<MessageType> type = peek_type(payload);
  if (type.status().is_ok()) {
    require(type.value() <= kMaxMessageType, "peek_type out of range");
  }
  int accepted = 0;
  accepted += decode_flow_service_request(payload).status().is_ok();
  accepted += decode_reservation(payload).status().is_ok();
  accepted += decode_reject_reply(payload).status().is_ok();
  accepted += decode_edge_conditioner_config(payload).status().is_ok();
  accepted += decode_teardown_request(payload).status().is_ok();
  accepted += decode_overloaded_reply(payload).status().is_ok();
  accepted += decode_health_request(payload).status().is_ok();
  accepted += decode_health_reply(payload).status().is_ok();
  accepted += decode_snapshot_digest_request(payload).status().is_ok();
  accepted += decode_snapshot_digest_reply(payload).status().is_ok();
  require(accepted <= 1, "one payload decoded as two message types");
  // A decoded shed reason must be one of the declared values, never a
  // blind cast of the wire byte.
  if (auto over = decode_overloaded_reply(payload); over.status().is_ok()) {
    const auto reason = over.value().reason;
    require(reason == ShedReason::kNone ||
                reason == ShedReason::kGlobalBudget ||
                reason == ShedReason::kConnBudget ||
                reason == ShedReason::kDeadline ||
                reason == ShedReason::kBrownout,
            "decoded ShedReason outside the enum");
  }
}

void drain(FrameDecoder& decoder, std::size_t fed) {
  for (;;) {
    require(decoder.buffered() <= fed, "buffered() exceeds bytes fed");
    Result<WireBuffer> r = decoder.next();
    if (r.status().is_ok()) {
      check_payload(r.value());
      continue;
    }
    if (decoder.poisoned()) {
      // Sticky corruption: the next call must fail the same way.
      Result<WireBuffer> again = decoder.next();
      require(!again.status().is_ok(), "poisoned decoder yielded a frame");
    }
    return;
  }
}

void drive(const std::uint8_t* data, std::size_t size) {
  FrameDecoder decoder;
  if (size == 0) {
    drain(decoder, 0);
    return;
  }
  // First byte selects the chunk size (1..32 bytes per feed, 0 = all at
  // once) so the corpus explores header/payload split points.
  const std::size_t chunk =
      (data[0] % 33 == 0) ? size : (data[0] % 33);
  const std::uint8_t* p = data + 1;
  std::size_t left = size - 1;
  std::size_t fed = 0;
  while (left > 0) {
    const std::size_t n = chunk < left ? chunk : left;
    decoder.feed(p, n);
    p += n;
    left -= n;
    fed += n;
    drain(decoder, fed);
  }
}

}  // namespace
}  // namespace qosbb

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  qosbb::drive(data, size);
  return 0;
}

#ifndef QOSBB_FUZZER_BUILD

#include <filesystem>
#include <fstream>
#include <string>

namespace {

int run_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz_frame_decoder: cannot read %s\n",
                 path.c_str());
    return 1;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  return 0;
}

int write_corpus(const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  using namespace qosbb;
  fs::create_directories(dir);
  auto put = [&](const char* name, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(dir / name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  auto seed = [&](const char* name, const WireBuffer& payload,
                  std::uint8_t chunk) {
    WireBuffer framed = frame_net_message(payload);
    std::vector<std::uint8_t> bytes;
    bytes.push_back(chunk);  // fragmentation selector
    bytes.insert(bytes.end(), framed.begin(), framed.end());
    put(name, bytes);
  };

  TeardownRequest teardown;
  teardown.flow = 7;
  seed("teardown_whole.bin", encode(teardown), 0);
  seed("teardown_bytewise.bin", encode(teardown), 1);

  RejectReply reject;
  reject.detail = "fuzz seed";
  seed("reject_chunked.bin", encode(reject), 5);

  // Overload-control and probe messages, mixed fragmentations.
  OverloadedReply overloaded;
  overloaded.reason = ShedReason::kConnBudget;
  overloaded.retry_after_ms = 50;
  overloaded.detail = "conn-budget";
  seed("overloaded.bin", encode(overloaded), 4);
  seed("health_request.bin", encode(HealthRequest{}), 0);
  HealthReply health;
  health.inflight = 3;
  health.admits = 1000;
  health.live_flows = 997;
  health.journal_lsn = 12345;
  health.brownout_active = 1;
  seed("health_reply.bin", encode(health), 6);
  seed("digest_request.bin", encode(SnapshotDigestRequest{}), 1);
  SnapshotDigestReply digest;
  digest.digest = 0xdeadbeef;
  digest.journal_lsn = 12345;
  seed("digest_reply.bin", encode(digest), 2);
  // Admits and teardowns carrying an explicit idempotency key.
  {
    FlowServiceRequest req;
    req.profile = TrafficProfile::make(24000.0, 1e5, 2e5, 12000.0);
    req.e2e_delay_req = 1.0;
    req.ingress = "I0";
    req.egress = "E0";
    seed("admit_rid.bin", encode(req, /*rid=*/0x0102030405060708ULL), 3);
  }
  seed("teardown_rid.bin", encode(TeardownRequest{7, 424242}), 1);

  // Two frames back to back in one stream.
  {
    WireBuffer a = frame_net_message(encode(teardown));
    WireBuffer b = frame_net_message(encode(reject));
    std::vector<std::uint8_t> bytes;
    bytes.push_back(7);
    bytes.insert(bytes.end(), a.begin(), a.end());
    bytes.insert(bytes.end(), b.begin(), b.end());
    put("two_frames.bin", bytes);
  }

  // A pipelined journaled slab: admits and teardowns with RequestIds
  // interleaved in one stream, as execute_batch receives them.
  {
    FlowServiceRequest req;
    req.profile = TrafficProfile::make(24000.0, 1e5, 2e5, 12000.0);
    req.e2e_delay_req = 1.0;
    req.ingress = "I1";
    req.egress = "E1";
    std::vector<std::uint8_t> bytes;
    bytes.push_back(2);
    for (const WireBuffer& msg :
         {encode(req, 11), encode(TeardownRequest{3, 12}), encode(req, 13),
          encode(req, 14), encode(TeardownRequest{4, 15}),
          encode(TeardownRequest{3, 12})}) {
      const WireBuffer framed = frame_net_message(msg);
      bytes.insert(bytes.end(), framed.begin(), framed.end());
    }
    put("mixed_slab.bin", bytes);
  }

  // A truncated header and a corrupted CRC, straight to the sad paths.
  {
    WireBuffer framed = frame_net_message(encode(teardown));
    std::vector<std::uint8_t> trunc(framed.begin(),
                                    framed.begin() + kNetFrameHeaderSize / 2);
    trunc.insert(trunc.begin(), 0);
    put("truncated_header.bin", trunc);

    framed[kNetFrameHeaderSize - 1] ^= 0xFF;  // flip a CRC byte
    std::vector<std::uint8_t> bad;
    bad.push_back(3);
    bad.insert(bad.end(), framed.begin(), framed.end());
    put("bad_crc.bin", bad);
  }
  put("empty.bin", {});
  std::printf("fuzz_frame_decoder: corpus written to %s\n",
              dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  if (argc >= 3 && std::string(argv[1]) == "--write-corpus") {
    return write_corpus(argv[2]);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fuzz_frame_decoder <corpus-file-or-dir>... |"
                 " --write-corpus <dir>\n");
    return 2;
  }
  int files = 0;
  for (int i = 1; i < argc; ++i) {
    fs::path p(argv[i]);
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::directory_iterator(p)) {
        if (entry.is_regular_file()) {
          if (run_file(entry.path()) != 0) return 1;
          ++files;
        }
      }
    } else {
      if (run_file(p) != 0) return 1;
      ++files;
    }
  }
  std::printf("fuzz_frame_decoder: %d corpus input(s) OK\n", files);
  return 0;
}

#endif  // QOSBB_FUZZER_BUILD
