#include "core/harness/run_ledger.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "core/harness/crc32c.hpp"
#include "core/harness/file_ops.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace locpriv::harness {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kLedgerName = "ledger.jsonl";

/// Cursor-based reader for the two line shapes the ledger writes. This is
/// not a general JSON parser (the library deliberately has none); it
/// understands exactly the documents json_escape/JsonWriter produce here.
class LineReader {
 public:
  explicit LineReader(std::string_view line) : line_(line) {}

  bool literal(std::string_view expected) {
    if (line_.substr(pos_, expected.size()) != expected) return false;
    pos_ += expected.size();
    return true;
  }

  /// Parses a quoted JSON string (cursor on the opening quote), undoing the
  /// escapes json_escape produces.
  bool quoted(std::string& out) {
    if (!literal("\"")) return false;
    out.clear();
    while (pos_ < line_.size()) {
      const char c = line_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= line_.size()) return false;
      const char escape = line_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > line_.size()) return false;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // json_escape only emits \u for control bytes < 0x20.
          out += static_cast<char>(value);
          break;
        }
        default: return false;
      }
    }
    return false;  // Unterminated string.
  }

  bool unsigned_number(std::uint64_t& out) {
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9') ++pos_;
    if (pos_ == start) return false;
    long long value = 0;
    if (!util::parse_int64(line_.substr(start, pos_ - start), value)) return false;
    out = static_cast<std::uint64_t>(value);
    return true;
  }

  bool at_end() const { return pos_ == line_.size(); }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

std::string header_line(const RunInfo& info) {
  util::JsonWriter json;
  json.begin_object();
  json.member("experiment", info.experiment);
  json.member("seed", info.seed);
  json.member("scale", info.scale);
  json.member("mode", info.mode);
  json.end_object();
  return json.str();
}

bool parse_header(std::string_view line, RunInfo& out) {
  LineReader reader(line);
  return reader.literal("{\"experiment\":") && reader.quoted(out.experiment) &&
         reader.literal(",\"seed\":") && reader.unsigned_number(out.seed) &&
         reader.literal(",\"scale\":") && reader.quoted(out.scale) &&
         reader.literal(",\"mode\":") && reader.quoted(out.mode) &&
         reader.literal("}") && reader.at_end();
}

/// Parses the cell-shaped body shared by completed and quarantine lines:
/// `"<key>","fields":[...]}` after the opening `{"cell":` / `{"quarantine":`.
bool parse_keyed_fields(LineReader& reader, std::string& cell,
                        std::vector<std::string>& fields) {
  if (!reader.quoted(cell) || !reader.literal(",\"fields\":[")) return false;
  fields.clear();
  if (!reader.literal("]")) {
    while (true) {
      std::string field;
      if (!reader.quoted(field)) return false;
      fields.push_back(std::move(field));
      if (reader.literal("]")) break;
      if (!reader.literal(",")) return false;
    }
  }
  return reader.literal("}") && reader.at_end();
}

bool parse_cell(std::string_view line, std::string& cell,
                std::vector<std::string>& fields) {
  LineReader reader(line);
  return reader.literal("{\"cell\":") && parse_keyed_fields(reader, cell, fields);
}

bool parse_quarantine(std::string_view line, std::string& cell,
                      std::vector<std::string>& fields) {
  LineReader reader(line);
  return reader.literal("{\"quarantine\":") &&
         parse_keyed_fields(reader, cell, fields);
}

std::string keyed_fields_line(std::string_view kind, const std::string& cell,
                              const std::vector<std::string>& fields) {
  util::JsonWriter json;
  json.begin_object();
  json.member(kind, cell);
  json.key("fields");
  json.begin_array();
  for (const std::string& field : fields) json.value(field);
  json.end_array();
  json.end_object();
  return json.str();
}

/// Appends the self-checksum member to a finished line:
/// `{...}` -> `{...,"crc":"xxxxxxxx"}`, CRC-32C computed over the original.
std::string with_crc(const std::string& line) {
  std::string out = line.substr(0, line.size() - 1);
  out += ",\"crc\":\"";
  out += crc32c_hex(line);
  out += "\"}";
  return out;
}

bool is_hex_digit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

/// Verifies the trailing `,"crc":"xxxxxxxx"}` member. On a match `base`
/// receives the line as it was checksummed (member stripped, `}` restored)
/// and the result is true; a missing, malformed or mismatched member is
/// false.
bool check_line_crc(std::string_view line, std::string& base) {
  constexpr std::string_view kKey = ",\"crc\":\"";
  constexpr std::size_t kSuffix = kKey.size() + 8 + 2;  // key + hex + `"}`.
  if (line.size() < kSuffix + 1 || line.substr(line.size() - 2) != "\"}")
    return false;
  const std::size_t key_pos = line.size() - kSuffix;
  if (line.substr(key_pos, kKey.size()) != kKey) return false;
  const std::string_view hex = line.substr(key_pos + kKey.size(), 8);
  for (const char c : hex)
    if (!is_hex_digit(c)) return false;
  base.assign(line.substr(0, key_pos));
  base += '}';
  return crc32c_hex(base) == hex;
}

}  // namespace

LedgerReplay replay_ledger(std::string_view content) {
  LedgerReplay out;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t newline = content.find('\n', pos);
    if (newline == std::string_view::npos) {
      // No terminator: the process died inside the final append. Everything
      // before this line is intact; the tail is truncated on reopen.
      out.status = LedgerScan::kTorn;
      return out;
    }
    const std::string_view raw(content.data() + pos, newline - pos);
    const std::size_t line_number = out.lines + 1;
    const auto corrupt_here = [&] {
      out.status = LedgerScan::kCorrupt;
      out.bad_line = line_number;
      return out;
    };
    // Appends are single-write, so a terminated line that fails its CRC or
    // does not parse is damage, not a crash artifact, wherever it sits.
    std::string base;
    if (!check_line_crc(raw, base)) return corrupt_here();
    std::string cell;
    std::vector<std::string> fields;
    if (line_number == 1) {
      // Line 1 must be the run header.
      if (!parse_header(base, out.header)) return corrupt_here();
      out.has_header = true;
    } else if (parse_cell(base, cell, fields)) {
      out.quarantine.erase(cell);
      out.cells[cell] = std::move(fields);
    } else if (parse_quarantine(base, cell, fields)) {
      out.quarantine[cell] = std::move(fields);
    } else {
      return corrupt_here();
    }
    ++out.lines;
    pos = newline + 1;
    out.valid_bytes = pos;
  }
  return out;
}

std::string ledger_without_cells(std::string_view content,
                                 const std::function<bool(const std::string&)>& drop) {
  std::string kept;
  for (std::size_t pos = 0, end = 0; pos < content.size(); pos = end) {
    end = std::min(content.find('\n', pos), content.size() - 1) + 1;
    const std::string_view line = content.substr(pos, end - pos);
    std::string base;
    std::string cell;
    std::vector<std::string> fields;
    if (!check_line_crc(line.substr(0, line.find('\n')), base) ||
        !parse_cell(base, cell, fields) || !drop(cell))
      kept.append(line);
  }
  return kept;
}

void refuse_reused_run_dir(const fs::path& run_dir, bool resume) {
  if (!resume && fs::exists(run_dir / kLedgerName))
    throw Error(ErrorCode::kResume,
                run_dir.string() +
                    " already holds a ledger; pass --resume to continue that "
                    "run or choose a fresh --run-dir");
}

std::unique_ptr<RunLedger> open_run_ledger(const fs::path& run_dir, bool resume,
                                           const RunInfo& info) {
  refuse_reused_run_dir(run_dir, resume);
  return std::make_unique<RunLedger>(run_dir, info);
}

RunLedger::RunLedger(fs::path run_dir, const RunInfo& info) {
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec)
    throw Error(ErrorCode::kIo,
                "cannot create run dir " + run_dir.string() + " (" + ec.message() + ")");
  path_ = run_dir / kLedgerName;
  FileOps& ops = file_ops();

  std::uint64_t valid_bytes = 0;
  bool fresh = true;
  if (fs::exists(path_)) {
    std::string content;
    errno = 0;
    if (!read_file_through_ops(path_.string(), content))
      throw Error(ErrorCode::kIo,
                  "cannot read ledger " + path_.string() + errno_detail());
    LedgerReplay replay = replay_ledger(content);
    if (replay.status == LedgerScan::kCorrupt)
      throw Error(ErrorCode::kLedgerCorrupt,
                  "ledger " + path_.string() + " is corrupt at line " +
                      std::to_string(replay.bad_line) +
                      "; run `locpriv scrub --repair` to truncate to the last "
                      "intact record");
    if (replay.has_header) {
      const RunInfo& header = replay.header;
      if (header.experiment != info.experiment || header.seed != info.seed ||
          header.scale != info.scale)
        throw Error(ErrorCode::kResume,
                    "ledger " + path_.string() + " belongs to " +
                        header.experiment + " seed " + std::to_string(header.seed) +
                        " scale " + header.scale + ", not " + info.experiment +
                        " seed " + std::to_string(info.seed) + " scale " + info.scale);
      if (header.mode != info.mode)
        throw Error(ErrorCode::kResume,
                    "ledger " + path_.string() + " was written by execution mode " +
                        header.mode + ", not " + info.mode +
                        "; rerun with the original --isolate/--workers settings "
                        "or start a fresh --run-dir");
    }
    cells_ = std::move(replay.cells);
    quarantine_ = std::move(replay.quarantine);
    valid_bytes = replay.valid_bytes;
    // A ledger whose very first append (the header) was torn truncates to
    // zero bytes and restarts as a fresh run.
    fresh = !replay.has_header;
  }

  errno = 0;
  fd_ = ops.open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0)
    throw Error(ErrorCode::kIo,
                "cannot open ledger " + path_.string() + errno_detail());
  // Drop any torn tail a crash left behind, then continue appending after
  // the last intact record.
  errno = 0;
  if (ops.ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    const Error error(ErrorCode::kIo,
                      "cannot truncate ledger " + path_.string() + errno_detail());
    ops.close(fd_);
    fd_ = -1;
    throw error;
  }
  if (fresh) append_line(header_line(info));
}

RunLedger::~RunLedger() {
  if (fd_ >= 0) file_ops().close(fd_);
}

bool RunLedger::completed(const std::string& cell) const {
  return cells_.count(cell) != 0;
}

const std::vector<std::string>* RunLedger::fields(const std::string& cell) const {
  const auto it = cells_.find(cell);
  return it == cells_.end() ? nullptr : &it->second;
}

void RunLedger::record(const std::string& cell,
                       const std::vector<std::string>& fields) {
  if (completed(cell))
    throw Error(ErrorCode::kResume, "cell recorded twice in ledger: " + cell);
  append_line(keyed_fields_line("cell", cell, fields));
  quarantine_.erase(cell);
  cells_[cell] = fields;
}

void RunLedger::record_quarantine(const std::string& cell,
                                  const std::vector<std::string>& details) {
  if (completed(cell))
    throw Error(ErrorCode::kResume,
                "cell quarantined after completion in ledger: " + cell);
  append_line(keyed_fields_line("quarantine", cell, details));
  quarantine_[cell] = details;
}

const std::vector<std::string>* RunLedger::quarantine_details(
    const std::string& cell) const {
  const auto it = quarantine_.find(cell);
  if (it == quarantine_.end() || cells_.count(cell) != 0) return nullptr;
  return &it->second;
}

void RunLedger::sync() {
  errno = 0;
  if (fd_ >= 0 && file_ops().fsync(fd_) != 0)
    throw Error(ErrorCode::kIo,
                "cannot fsync ledger " + path_.string() + errno_detail());
}

void RunLedger::append_line(const std::string& line) {
  if (fd_ < 0) return;  // Held in memory: nothing to journal.
  FileOps& ops = file_ops();
  std::string buffer = with_crc(line);
  buffer += '\n';
  // One write(2) per record: a SIGKILL cannot interleave two records, so
  // the only possible damage is a short tail, which replay truncates. The
  // CRC member rides inside the same write.
  const off_t start = ::lseek(fd_, 0, SEEK_CUR);
  std::size_t written = 0;
  while (written < buffer.size()) {
    errno = 0;
    const ::ssize_t n =
        ops.write(fd_, buffer.data() + written, buffer.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Error error(ErrorCode::kIo, "cannot append to ledger " +
                                            path_.string() + errno_detail());
      // Roll back to the record boundary so a caller that survives the
      // error (e.g. ENOSPC that later clears) cannot interleave a partial
      // record with the next append. Best effort on an already-failing fd.
      if (start >= 0) {
        // locpriv-lint: allow(unchecked-io) rollback on the failure path must not mask the original error
        ops.ftruncate(fd_, start);
        ::lseek(fd_, start, SEEK_SET);
      }
      throw error;
    }
    written += static_cast<std::size_t>(n);
  }
  errno = 0;
  if (ops.fsync(fd_) != 0)
    throw Error(ErrorCode::kIo,
                "cannot fsync ledger " + path_.string() + errno_detail());
}

}  // namespace locpriv::harness
