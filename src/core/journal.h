// Write-ahead journal for the bandwidth broker's control plane.
//
// Footnote 2 of the paper argues that decoupling QoS control from the core
// routers lets broker reliability be solved entirely in the control plane;
// core/snapshot.cc covers the quiescent-checkpoint half of that argument
// and this module covers the other half: a redo log of every state-mutating
// operation between checkpoints, so that a broker crash loses NOTHING that
// was acknowledged to a signaling client.
//
// Record framing (on the wire.h primitives, little-endian):
//
//   record := u32 len | u32 ~len | u32 crc32(region) | region
//   region := u64 lsn | u8 kind | payload
//
// with len = |region|. The ones-complement length copy makes a bit flip in
// the length field detectable as CORRUPTION instead of masquerading as a
// torn tail (a plain too-large length would read exactly like a record cut
// off by a crash). The CRC covers the whole region, so every stored byte is
// protected by either the length check or the checksum.
//
// Scanning classifies the log tail precisely, which is the crux of
// recovery:
//   * a record cut off by end-of-file with a CONSISTENT length header is a
//     torn tail — the crash hit mid-append; the partial record was never
//     acknowledged and is dropped (clean end of log);
//   * anything else — length-check mismatch, CRC mismatch, bad kind, LSN
//     discontinuity — is kDataLoss: bytes that were acknowledged are gone
//     or mangled, and recovery must not silently proceed.
//
// LSNs are monotone (+1 per record, never reused). After an anchor
// checkpoint (core/durable_broker.cc) the journal is truncated to a single
// kAnchor record whose LSN continues the sequence, so a dropped append
// anywhere before another record is visible as an LSN gap.

#ifndef QOSBB_CORE_JOURNAL_H_
#define QOSBB_CORE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/wire.h"
#include "util/status.h"

namespace qosbb {

/// What a journal record describes: one state-mutating broker operation, or
/// an anchor (snapshot + idempotency window) that re-bases the log.
enum class JournalOpKind : std::uint8_t {
  kProvisionPath = 1,
  kAdmit = 2,
  kRelease = 3,
  kRenegotiate = 4,
  kClassDefine = 5,
  kClassJoin = 6,
  kClassLeave = 7,
  kContingencyExpire = 8,
  kBufferEmpty = 9,
  kLinkReserve = 10,
  kLinkRelease = 11,
  kAnchor = 12,
};
constexpr JournalOpKind kMaxJournalOpKind = JournalOpKind::kAnchor;
const char* journal_op_kind_name(JournalOpKind k);

struct JournalRecord {
  std::uint64_t lsn = 0;
  JournalOpKind kind = JournalOpKind::kAnchor;
  WireBuffer payload;
};

/// Receives a replacement journal image in pieces
/// (JournalFile::replace_streamed).
class JournalImageWriter {
 public:
  /// Append bytes to the image.
  virtual Status write_bytes(std::span<const std::uint8_t> bytes) = 0;
  /// Overwrite bytes already written, starting at `offset` (a header that
  /// is only known once the bytes after it are written).
  virtual Status patch(std::size_t offset,
                       std::span<const std::uint8_t> bytes) = 0;

 protected:
  ~JournalImageWriter() = default;
};

/// Writes a replacement image; a non-OK return abandons it.
using JournalImageProducer = std::function<Status(JournalImageWriter&)>;

/// Storage abstraction under the journal. Implementations must make
/// `append` durable before returning (the broker acknowledges a request
/// only after its record's append returns OK; FsJournalFile states what
/// "durable" means on a file) and `replace` atomic (an anchor must never
/// leave a half-truncated log behind).
class JournalFile {
 public:
  virtual ~JournalFile() = default;
  JournalFile() = default;
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  virtual Status append(const WireBuffer& bytes) = 0;
  virtual Result<WireBuffer> read_all() const = 0;
  virtual Status replace(const WireBuffer& bytes) = 0;
  /// `replace` with the new image written in pieces by `produce`: when it
  /// returns OK the image atomically replaces the journal; when it fails,
  /// the journal is untouched and its error is returned. This default
  /// collects the image in memory and calls `replace`; FsJournalFile
  /// streams it to disk instead.
  virtual Status replace_streamed(const JournalImageProducer& produce);
};

/// In-memory journal backing (tests, fuzzing, benches).
class MemoryJournalFile : public JournalFile {
 public:
  Status append(const WireBuffer& bytes) override;
  Result<WireBuffer> read_all() const override;
  Status replace(const WireBuffer& bytes) override;

  const WireBuffer& contents() const { return data_; }
  void set_contents(WireBuffer bytes) { data_ = std::move(bytes); }

 private:
  WireBuffer data_;
};

/// File-system journal backing. The first `append` opens one
/// O_WRONLY|O_APPEND|O_CLOEXEC descriptor and keeps it for the object's
/// lifetime, so a commit costs one write(2) loop, not an open and a close.
///
/// Durability contract: `append` returns once write(2) has taken every
/// byte. The bytes are then in the kernel's page cache and survive a crash
/// of this process (SIGKILL included) but not a kernel crash or a power
/// loss: there is no fsync, before or after, in `append` or `replace`.
/// `replace` and `replace_streamed` write `<path>.tmp` (truncating any
/// stale one a crash left behind) and rename it over the path, so an
/// anchor is atomic at the fs level: a crash before the rename leaves the
/// old journal whole. They then close the append descriptor, which still
/// names the old, unlinked file, and the next `append` opens the new one.
///
/// Single writer per path: at most one FsJournalFile may append to a path
/// at a time. A second writer's descriptor would outlive the first one's
/// `replace` on the unlinked file, and everything it appended would be
/// lost. `read_all` opens the path afresh and is safe from any object.
class FsJournalFile : public JournalFile {
 public:
  explicit FsJournalFile(std::string path) : path_(std::move(path)) {}
  ~FsJournalFile() override;

  Status append(const WireBuffer& bytes) override;
  Result<WireBuffer> read_all() const override;
  Status replace(const WireBuffer& bytes) override;
  Status replace_streamed(const JournalImageProducer& produce) override;

  const std::string& path() const { return path_; }

 private:
  void close_fd();

  std::string path_;
  int fd_ = -1;  ///< append descriptor, opened lazily
};

/// Builds journal records in place, back to back, in one reusable buffer.
/// `open_record` reserves the 12-byte header and writes the LSN and kind;
/// the caller writes the payload through the returned writer; and
/// `close_record` patches len, ~len and the CRC over the finished region.
/// `clear` keeps the capacity, so a long-lived frame (the durable broker's
/// group-commit frame) stops allocating once it has grown.
///
/// A multi-record frame needs no new recovery case: every member keeps its
/// own length/CRC framing, so a crash that cuts the frame anywhere yields
/// the clean member prefix plus at most one torn member (dropped as the
/// usual torn tail) — all-or-prefix at record granularity, never a
/// half-applied member.
class JournalFrameWriter {
 public:
  WireWriter& open_record(std::uint64_t lsn, JournalOpKind kind);
  void close_record();
  void clear() {
    w_.clear();
    open_ = false;
  }

  const WireBuffer& bytes() const { return w_.buffer(); }
  WireBuffer take() { return w_.take(); }

 private:
  WireWriter w_;
  std::size_t open_at_ = 0;
  bool open_ = false;
};

/// Streams ONE record, the first of a replacement image, whose payload is
/// produced in pieces (an anchor, which is never framed whole in memory).
/// The constructor writes the header with the final len/~len and a zero
/// CRC, plus the LSN and kind; `write_bytes` passes payload bytes through
/// and extends the CRC; `finish` checks that exactly `payload_len` bytes
/// came and patches the CRC into the header.
class JournalRecordStream {
 public:
  JournalRecordStream(JournalImageWriter& out, std::uint64_t lsn,
                      JournalOpKind kind, std::size_t payload_len);
  Status write_bytes(std::span<const std::uint8_t> payload);
  Status finish();

 private:
  JournalImageWriter& out_;
  std::size_t region_len_ = 0;
  std::size_t written_ = 0;  ///< region bytes so far (LSN and kind included)
  std::uint32_t crc_ = 0;
  Status status_ = Status::ok();
};

/// Bytes one framed record with a `payload_len`-byte payload takes.
std::size_t journal_record_size(std::size_t payload_len);

/// CRC-32 (ISO-HDLC polynomial, reflected — the zlib/PNG CRC).
std::uint32_t journal_crc32(const std::uint8_t* data, std::size_t n);
/// The CRC of `crc`'s input followed by `data`: extending 0 piece by piece
/// gives journal_crc32 of the concatenation.
std::uint32_t journal_crc32_extend(std::uint32_t crc, const std::uint8_t* data,
                                   std::size_t n);

/// Frame one record (see the layout above). Infallible.
WireBuffer frame_journal_record(std::uint64_t lsn, JournalOpKind kind,
                                const WireBuffer& payload);

struct JournalScan {
  std::vector<JournalRecord> records;  ///< the valid prefix, in LSN order
  std::size_t clean_bytes = 0;  ///< byte length of that valid prefix
  bool torn_tail = false;       ///< a partial trailing record was dropped
  Status error = Status::ok();  ///< kDataLoss on corruption mid-log
};

/// Parse a journal image into records. Never throws; a torn tail is NOT an
/// error (`torn_tail` + short `clean_bytes`), corruption is (kDataLoss in
/// `error`; `records` holds the valid prefix before the damage).
JournalScan scan_journal(const WireBuffer& bytes);

}  // namespace qosbb

#endif  // QOSBB_CORE_JOURNAL_H_
