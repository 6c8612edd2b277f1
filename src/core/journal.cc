#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace qosbb {
namespace {

/// Record header: u32 len, u32 ~len, u32 crc.
constexpr std::size_t kRecordHeaderSize = 12;
/// region = lsn(u64) + kind(u8) + payload.
constexpr std::size_t kRegionPrefixSize = 9;
/// Sanity cap on a single record's region (a snapshot of a realistic
/// domain is far below this; anything larger is corruption).
constexpr std::uint32_t kMaxRegionSize = 1u << 28;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t read_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

const char* journal_op_kind_name(JournalOpKind k) {
  switch (k) {
    case JournalOpKind::kProvisionPath: return "provision-path";
    case JournalOpKind::kAdmit: return "admit";
    case JournalOpKind::kRelease: return "release";
    case JournalOpKind::kRenegotiate: return "renegotiate";
    case JournalOpKind::kClassDefine: return "class-define";
    case JournalOpKind::kClassJoin: return "class-join";
    case JournalOpKind::kClassLeave: return "class-leave";
    case JournalOpKind::kContingencyExpire: return "contingency-expire";
    case JournalOpKind::kBufferEmpty: return "buffer-empty";
    case JournalOpKind::kLinkReserve: return "link-reserve";
    case JournalOpKind::kLinkRelease: return "link-release";
    case JournalOpKind::kAnchor: return "anchor";
  }
  return "?";
}

std::uint32_t journal_crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

WireWriter& JournalFrameWriter::open_record(std::uint64_t lsn,
                                            JournalOpKind kind) {
  QOSBB_REQUIRE(!open_, "JournalFrameWriter: record already open");
  open_ = true;
  open_at_ = w_.buffer().size();
  // len, ~len and crc are patched by close_record.
  w_.u32(0);
  w_.u32(0);
  w_.u32(0);
  w_.u64(lsn);
  w_.u8(static_cast<std::uint8_t>(kind));
  return w_;
}

void JournalFrameWriter::close_record() {
  QOSBB_REQUIRE(open_, "JournalFrameWriter: no open record");
  open_ = false;
  const std::size_t region_at = open_at_ + kRecordHeaderSize;
  const std::uint32_t len =
      static_cast<std::uint32_t>(w_.buffer().size() - region_at);
  w_.patch_u32(open_at_, len);
  w_.patch_u32(open_at_ + 4, ~len);
  // CRC spans the full region: lsn + kind + payload.
  w_.patch_u32(open_at_ + 8,
               journal_crc32(w_.buffer().data() + region_at, len));
}

WireBuffer frame_journal_record(std::uint64_t lsn, JournalOpKind kind,
                                const WireBuffer& payload) {
  JournalFrameWriter frame;
  frame.open_record(lsn, kind).raw(payload);
  frame.close_record();
  return frame.take();
}

JournalScan scan_journal(const WireBuffer& bytes) {
  JournalScan scan;
  std::size_t pos = 0;
  std::uint64_t prev_lsn = 0;
  bool have_prev = false;
  std::ostringstream os;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < kRecordHeaderSize) {
      // The crash hit inside a record header — nothing acknowledged here.
      scan.torn_tail = true;
      return scan;
    }
    const std::uint32_t len = read_u32le(&bytes[pos]);
    const std::uint32_t len_check = read_u32le(&bytes[pos + 4]);
    if ((len ^ len_check) != 0xFFFFFFFFu || len < kRegionPrefixSize ||
        len > kMaxRegionSize) {
      os << "journal: length check failed at byte " << pos << " (len " << len
         << ")";
      scan.error = Status::data_loss(os.str());
      return scan;
    }
    if (remaining < kRecordHeaderSize + len) {
      // Consistent header, missing body: append cut off mid-record.
      scan.torn_tail = true;
      return scan;
    }
    const std::uint32_t crc = read_u32le(&bytes[pos + 8]);
    const std::uint8_t* region = &bytes[pos + kRecordHeaderSize];
    if (journal_crc32(region, len) != crc) {
      os << "journal: CRC mismatch at byte " << pos << " (lsn "
         << read_u64le(region) << "?)";
      scan.error = Status::data_loss(os.str());
      return scan;
    }
    JournalRecord rec;
    rec.lsn = read_u64le(region);
    const std::uint8_t kind = region[8];
    if (kind < 1 || kind > static_cast<std::uint8_t>(kMaxJournalOpKind)) {
      os << "journal: unknown record kind " << static_cast<int>(kind)
         << " at lsn " << rec.lsn;
      scan.error = Status::data_loss(os.str());
      return scan;
    }
    rec.kind = static_cast<JournalOpKind>(kind);
    if (have_prev && rec.lsn != prev_lsn + 1) {
      os << "journal: LSN discontinuity " << prev_lsn << " -> " << rec.lsn
         << " (dropped or reordered append)";
      scan.error = Status::data_loss(os.str());
      return scan;
    }
    prev_lsn = rec.lsn;
    have_prev = true;
    rec.payload.assign(region + kRegionPrefixSize, region + len);
    scan.records.push_back(std::move(rec));
    pos += kRecordHeaderSize + len;
    scan.clean_bytes = pos;
  }
  return scan;
}

// ---- MemoryJournalFile ----

Status MemoryJournalFile::append(const WireBuffer& bytes) {
  data_.insert(data_.end(), bytes.begin(), bytes.end());
  return Status::ok();
}

Result<WireBuffer> MemoryJournalFile::read_all() const { return data_; }

Status MemoryJournalFile::replace(const WireBuffer& bytes) {
  data_ = bytes;
  return Status::ok();
}

// ---- FsJournalFile ----

FsJournalFile::~FsJournalFile() { close_fd(); }

void FsJournalFile::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status FsJournalFile::append(const WireBuffer& bytes) {
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0666);
    if (fd_ < 0) {
      return Status::internal("journal: cannot open " + path_ +
                              " for append: " + std::strerror(errno));
    }
  }
  const std::uint8_t* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::internal("journal: write to " + path_ + " failed: " +
                              std::strerror(errno));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<WireBuffer> FsJournalFile::read_all() const {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return WireBuffer{};  // no journal yet: empty log
  WireBuffer out;
  std::array<std::uint8_t, 65536> chunk;
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    out.insert(out.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::internal("journal: read error on " + path_);
  return out;
}

Status FsJournalFile::replace(const WireBuffer& bytes) {
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::internal("journal: cannot open " + tmp);
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::internal("journal: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::internal("journal: rename failed for " + path_);
  }
  // The descriptor names the replaced file; the next append opens the new
  // one.
  close_fd();
  return Status::ok();
}

}  // namespace qosbb
