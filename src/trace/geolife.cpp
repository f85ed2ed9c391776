#include "trace/geolife.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/harness/atomic_file.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace locpriv::trace {

namespace fs = std::filesystem;

std::int64_t plt_days_to_unix_s(double days_since_1899) {
  return static_cast<std::int64_t>(
      std::llround((days_since_1899 - kPltEpochToUnixDays) * 86400.0));
}

double unix_s_to_plt_days(std::int64_t unix_s) {
  return static_cast<double>(unix_s) / 86400.0 + kPltEpochToUnixDays;
}

namespace {

[[noreturn]] void parse_error(std::size_t line_number, const std::string& detail) {
  std::ostringstream os;
  os << "PLT parse error at line " << line_number << ": " << detail;
  throw std::runtime_error(os.str());
}

// Formats Unix seconds as the "YYYY-MM-DD" and "HH:MM:SS" columns.
void format_date_time(std::int64_t unix_s, std::string& date, std::string& time) {
  const auto t = static_cast<std::time_t>(unix_s);
  std::tm tm_utc{};
  gmtime_r(&t, &tm_utc);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02d", tm_utc.tm_year + 1900,
                tm_utc.tm_mon + 1, tm_utc.tm_mday);
  date = buffer;
  std::snprintf(buffer, sizeof(buffer), "%02d:%02d:%02d", tm_utc.tm_hour, tm_utc.tm_min,
                tm_utc.tm_sec);
  time = buffer;
}

}  // namespace

std::vector<TracePoint> parse_plt(std::string_view text) {
  std::vector<TracePoint> points;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    // Accept LF, CRLF, and lone-CR terminators: real Geolife downloads mix
    // them, and a lone-CR file would otherwise parse as one giant "header"
    // line and silently yield an empty session.
    std::size_t end = text.find_first_of("\r\n", pos);
    std::size_t next;
    if (end == std::string_view::npos) {
      end = text.size();
      next = end;
    } else {
      next = end + 1;
      if (text[end] == '\r' && next < text.size() && text[next] == '\n') ++next;
    }
    std::string_view line = util::trim(text.substr(pos, end - pos));
    pos = next;
    ++line_number;
    if (line_number <= 6) continue;  // Fixed-size prose header.
    if (line.empty()) continue;
    const auto fields = util::split(line, ',');
    if (fields.size() < 5) parse_error(line_number, "expected >= 5 fields");
    double lat = 0.0;
    double lon = 0.0;
    double days = 0.0;
    if (!util::parse_double(fields[0], lat)) parse_error(line_number, "bad latitude");
    if (!util::parse_double(fields[1], lon)) parse_error(line_number, "bad longitude");
    if (!util::parse_double(fields[4], days)) parse_error(line_number, "bad timestamp");
    if (lat < -90.0 || lat > 90.0) parse_error(line_number, "latitude out of range");
    if (lon < -180.0 || lon > 180.0) parse_error(line_number, "longitude out of range");
    points.push_back(TracePoint{{lat, lon}, plt_days_to_unix_s(days)});
  }
  // Geolife files are chronological, but tolerate duplicated timestamps and
  // occasional clock jitter by stable-sorting.
  std::stable_sort(points.begin(), points.end(),
                   [](const TracePoint& a, const TracePoint& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  return points;
}

std::string write_plt(std::span<const TracePoint> session) {
  std::ostringstream os;
  os << "Geolife trajectory\n"
        "WGS 84\n"
        "Altitude is in Feet\n"
        "Reserved 3\n"
        "0,2,255,My Track,0,0,2,8421376\n"
     << session.size() << '\n';
  for (const auto& point : session) {
    std::string date;
    std::string time;
    format_date_time(point.timestamp_s, date, time);
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "%.6f,%.6f,0,0,%.10f,%s,%s\n",
                  point.position.lat_deg, point.position.lon_deg,
                  unix_s_to_plt_days(point.timestamp_s), date.c_str(), time.c_str());
    os << buffer;
  }
  return os.str();
}

std::vector<UserTrace> read_geolife_dataset(const fs::path& root,
                                            const ReadOptions& options,
                                            IngestReport* report) {
  if (!fs::exists(root))
    throw std::runtime_error("Geolife root does not exist: " + root.string());

  // Enumerate first (sorted, sequential) so the parse fan-out below writes
  // into index-keyed slots and the result is identical at any thread count.
  struct FileSlot {
    std::size_t user_index = 0;
    fs::path path;
    std::vector<TracePoint> fixes;
    std::string error;
    bool failed = false;
  };
  std::vector<fs::path> user_dirs;
  for (const auto& entry : fs::directory_iterator(root))
    if (entry.is_directory()) user_dirs.push_back(entry.path());
  std::sort(user_dirs.begin(), user_dirs.end());

  std::vector<FileSlot> slots;
  for (std::size_t u = 0; u < user_dirs.size(); ++u) {
    const fs::path trajectory_dir = user_dirs[u] / "Trajectory";
    if (!fs::exists(trajectory_dir)) continue;
    std::vector<fs::path> plt_files;
    for (const auto& entry : fs::directory_iterator(trajectory_dir))
      if (entry.is_regular_file() && entry.path().extension() == ".plt")
        plt_files.push_back(entry.path());
    std::sort(plt_files.begin(), plt_files.end());
    for (auto& file : plt_files) slots.push_back({u, std::move(file), {}, {}, false});
  }

  IngestReport ingest;
  ingest.files_scanned = slots.size();

  util::parallel_for(
      slots.size(),
      [&](std::size_t i) {
        FileSlot& slot = slots[i];
        try {
          std::ifstream in(slot.path, std::ios::binary);
          if (!in) throw std::runtime_error("cannot open " + slot.path.string());
          std::ostringstream buffer;
          buffer << in.rdbuf();
          slot.fixes = parse_plt(buffer.str());
        } catch (const std::exception& error) {
          if (!options.lenient)
            throw std::runtime_error(slot.path.string() + ": " + error.what());
          slot.failed = true;
          slot.error = error.what();
        }
      },
      options.max_threads);

  const auto quarantine = [&](FileSlot& slot) {
    ingest.quarantined.push_back({std::move(slot.path), std::move(slot.error)});
  };
  std::vector<UserTrace> users;
  auto next = slots.begin();
  for (std::size_t u = 0; u < user_dirs.size(); ++u) {
    std::vector<FileSlot*> sessions;
    for (; next != slots.end() && next->user_index == u; ++next) {
      if (next->failed) {
        quarantine(*next);
      } else if (next->fixes.empty()) {
        ++ingest.empty_files;
      } else {
        sessions.push_back(&*next);
      }
    }
    // Chronological session order; the last fix, then the path, break ties
    // so equal starts never land in an unspecified order.
    const auto order = [](const FileSlot* slot) {
      return std::tie(slot->fixes.front().timestamp_s, slot->fixes.back().timestamp_s,
                      slot->path);
    };
    std::sort(sessions.begin(), sessions.end(),
              [&](const FileSlot* a, const FileSlot* b) { return order(a) < order(b); });

    UserTrace user;
    user.user_id = user_dirs[u].filename().string();
    for (FileSlot* slot : sessions) {
      if (!user.points().empty() &&
          slot->fixes.front().timestamp_s < user.points().back().timestamp_s) {
        slot->error = "overlaps the previous session: starts at Unix " +
                      std::to_string(slot->fixes.front().timestamp_s) +
                      " s, before that session ends at " +
                      std::to_string(user.points().back().timestamp_s) + " s";
        if (!options.lenient)
          throw std::runtime_error(slot->path.string() + ": " + slot->error);
        quarantine(*slot);
        continue;
      }
      user.begin_session();
      for (const TracePoint& fix : slot->fixes) user.append(fix);
      ++ingest.files_loaded;
      ingest.points_loaded += slot->fixes.size();
      slot->fixes = std::vector<TracePoint>();  // The trace holds them now.
    }
    if (user.session_count() > 0) users.push_back(std::move(user));
  }
  ingest.users_loaded = users.size();
  if (report != nullptr) *report = std::move(ingest);
  return users;
}

std::vector<UserTrace> read_geolife_dataset(const fs::path& root) {
  return read_geolife_dataset(root, ReadOptions{});
}

void write_geolife_dataset(const fs::path& root, const std::vector<UserTrace>& users) {
  for (const auto& user : users) {
    const fs::path trajectory_dir = root / user.user_id / "Trajectory";
    fs::create_directories(trajectory_dir);
    for (std::size_t i = 0; i < user.session_count(); ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "%06zu.plt", i);
      // Atomic publish: a full disk or kill mid-write must not leave a
      // truncated .plt that a later ingest would parse as a short (but
      // plausible) session.
      harness::write_file_atomic(trajectory_dir / name, write_plt(user.session(i)));
    }
  }
}

}  // namespace locpriv::trace
