#include "io/storage.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "util/csv.h"
#include "util/logging.h"

namespace extscc::io {

namespace fs = std::filesystem;

// ---- PosixDevice -----------------------------------------------------

namespace {

class PosixFile : public StorageFile {
 public:
  PosixFile(int fd, std::string path, std::uint64_t size)
      : fd_(fd), path_(std::move(path)), size_bytes_(size) {}

  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  util::Status ReadAt(std::uint64_t offset, void* buf,
                      std::size_t bytes) override {
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t n = ::pread(fd_, static_cast<char*>(buf) + done,
                                bytes - done,
                                static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return util::Status::IoError(
            "pread(" + path_ + ") failed: " + std::strerror(errno), errno);
      }
      if (n == 0) {
        // Caller asked for bytes the size check promised exist: the
        // file was truncated underneath us. No errno — not retryable.
        return util::Status::IoError("pread(" + path_ +
                                     ") hit unexpected EOF (truncated file)");
      }
      done += static_cast<std::size_t>(n);
    }
    return util::Status::Ok();
  }

  util::Status WriteAt(std::uint64_t offset, const void* data,
                       std::size_t bytes) override {
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t n = ::pwrite(fd_, static_cast<const char*>(data) + done,
                                 bytes - done,
                                 static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return util::Status::IoError(
            "pwrite(" + path_ + ") failed: " + std::strerror(errno), errno);
      }
      if (n == 0) {
        return util::Status::IoError(
            "pwrite(" + path_ + ") made no progress", ENOSPC);
      }
      done += static_cast<std::size_t>(n);
    }
    return util::Status::Ok();
  }

  std::uint64_t size_bytes() const override { return size_bytes_; }

  util::Status Sync() override {
    // fdatasync: data plus the metadata needed to read it back (size),
    // skipping timestamp-only journal writes that fsync would force.
    while (::fdatasync(fd_) != 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(
          "fdatasync(" + path_ + ") failed: " + std::strerror(errno), errno);
    }
    return util::Status::Ok();
  }

 private:
  int fd_;
  std::string path_;
  std::uint64_t size_bytes_;
};

std::string ResolveParent(const std::string& parent_dir) {
  if (!parent_dir.empty()) return parent_dir;
  const char* env = std::getenv("TMPDIR");
  return (env != nullptr && env[0] != '\0') ? env : "/tmp";
}

}  // namespace

util::Status StorageDevice::Rename(const std::string& from,
                                   const std::string& to) {
  (void)from;
  (void)to;
  return util::Status::Unimplemented("rename not supported on device " +
                                     name());
}

util::Status StorageDevice::SyncDir(const std::string& dir) {
  (void)dir;
  return util::Status::Ok();
}

PosixDevice::PosixDevice(std::string name, std::string parent_dir)
    : StorageDevice(std::move(name)), parent_dir_(std::move(parent_dir)) {}

util::Status PosixDevice::Open(const std::string& path, OpenMode mode,
                               std::unique_ptr<StorageFile>* out) {
  int flags = 0;
  switch (mode) {
    case OpenMode::kRead:
      flags = O_RDONLY;
      break;
    case OpenMode::kTruncateWrite:
      flags = O_RDWR | O_CREAT | O_TRUNC;
      break;
    case OpenMode::kReadWrite:
      flags = O_RDWR | O_CREAT;
      break;
  }
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return util::Status::IoError(
        "open(" + path + ") failed: " + std::strerror(errno), errno);
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    const int saved = errno;
    ::close(fd);
    return util::Status::IoError(
        "lseek(" + path + ") failed: " + std::strerror(saved), saved);
  }
  *out = std::make_unique<PosixFile>(fd, path,
                                     static_cast<std::uint64_t>(end));
  return util::Status::Ok();
}

util::Status PosixDevice::Delete(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    return util::Status::IoError("remove(" + path +
                                 ") failed: " + ec.message());
  }
  return util::Status::Ok();
}

util::Status PosixDevice::Rename(const std::string& from,
                                 const std::string& to) {
  // POSIX rename(2): atomic replace of `to` on the same filesystem —
  // the property the artifact publish step relies on.
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return util::Status::IoError("rename(" + from + " -> " + to +
                                     ") failed: " + std::strerror(errno),
                                 errno);
  }
  return util::Status::Ok();
}

util::Status PosixDevice::SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return util::Status::IoError(
        "open(" + dir + ") for fsync failed: " + std::strerror(errno), errno);
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return util::Status::IoError(
        "fsync(" + dir + ") failed: " + std::strerror(saved), saved);
  }
  return util::Status::Ok();
}

std::string PosixDevice::CreateSessionRoot() {
  const std::string parent = ResolveParent(parent_dir_);
  // Reclaim roots left by SIGKILLed processes before adding our own —
  // once per (process, parent): liveness checks make reaping safe
  // against concurrent sessions, so repeating it would only cost scans.
  {
    static std::mutex reap_mu;
    static std::vector<std::string>* reaped_parents =
        new std::vector<std::string>();
    std::lock_guard<std::mutex> lock(reap_mu);
    if (std::find(reaped_parents->begin(), reaped_parents->end(), parent) ==
        reaped_parents->end()) {
      reaped_parents->push_back(parent);
      ReapOrphanScratchRoots(parent);
    }
  }
  // Unique directory name: pid + monotonically increasing suffix probe.
  // The counter is shared across devices so session roots never collide
  // even when several scratch parents alias the same directory.
  static std::uint64_t counter = 0;
  std::error_code ec;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string candidate = parent + "/extscc_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(counter++);
    if (fs::create_directories(candidate, ec) && !ec) {
      // Ownership marker for ReapOrphanScratchRoots: the reaper trusts
      // the pid in here over the one in the directory name, so a root
      // that was (improbably) renamed still resolves to its true owner.
      std::FILE* pid_file = std::fopen((candidate + "/.pid").c_str(), "w");
      if (pid_file != nullptr) {
        std::fprintf(pid_file, "%ld\n", static_cast<long>(::getpid()));
        std::fclose(pid_file);
      }
      return candidate;
    }
  }
  LOG_FATAL << "PosixDevice: cannot create scratch directory under "
            << parent;
  return {};
}

void PosixDevice::RemoveTree(const std::string& root) {
  std::error_code ec;
  fs::remove_all(root, ec);
  if (ec) {
    LOG_WARNING << "PosixDevice: failed to remove " << root << ": "
                << ec.message();
  }
}

std::vector<std::unique_ptr<StorageDevice>> MakePosixScratchDevices(
    const std::string& parent_dir,
    const std::vector<std::string>& scratch_parents) {
  std::vector<std::unique_ptr<StorageDevice>> devices;
  if (scratch_parents.empty()) {
    devices.push_back(std::make_unique<PosixDevice>("disk0", parent_dir));
    return devices;
  }
  devices.reserve(scratch_parents.size());
  for (std::size_t i = 0; i < scratch_parents.size(); ++i) {
    devices.push_back(std::make_unique<PosixDevice>(
        "disk" + std::to_string(i), scratch_parents[i]));
  }
  return devices;
}

namespace {

// Parses the pid out of a session-root name "extscc_<pid>_<seq>";
// returns 0 when the name does not match the scheme exactly.
long SessionRootPid(const std::string& name) {
  constexpr char kPrefix[] = "extscc_";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return 0;
  const std::size_t sep = name.find('_', kPrefixLen);
  if (sep == std::string::npos || sep == kPrefixLen ||
      sep + 1 >= name.size()) {
    return 0;
  }
  long pid = 0;
  for (std::size_t i = kPrefixLen; i < sep; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    pid = pid * 10 + (name[i] - '0');
  }
  for (std::size_t i = sep + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
  }
  return pid;
}

// True when `pid` definitely no longer exists. EPERM means a live
// process we cannot signal — not ours to reap.
bool PidIsDead(long pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

}  // namespace

std::size_t ReapOrphanScratchRoots(const std::string& parent) {
  std::error_code ec;
  fs::directory_iterator it(parent, ec);
  if (ec) return 0;
  std::size_t reaped = 0;
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_directory(entry_ec) || entry_ec) continue;
    long pid = SessionRootPid(entry.path().filename().string());
    if (pid == 0) continue;
    // The .pid ownership marker wins over the name when readable.
    std::FILE* pid_file =
        std::fopen((entry.path() / ".pid").string().c_str(), "r");
    if (pid_file != nullptr) {
      long file_pid = 0;
      if (std::fscanf(pid_file, "%ld", &file_pid) == 1 && file_pid > 0) {
        pid = file_pid;
      }
      std::fclose(pid_file);
    }
    if (pid == static_cast<long>(::getpid()) || !PidIsDead(pid)) continue;
    std::error_code rm_ec;
    fs::remove_all(entry.path(), rm_ec);
    if (!rm_ec) ++reaped;
  }
  return reaped;
}

// ---- MemDevice -------------------------------------------------------

namespace {

class MemFile : public StorageFile {
 public:
  MemFile(std::shared_ptr<void> keepalive, std::mutex* mu,
          std::vector<char>* bytes, std::string path, bool writable)
      : keepalive_(std::move(keepalive)),
        mu_(mu),
        bytes_(bytes),
        path_(std::move(path)),
        writable_(writable) {
    std::lock_guard<std::mutex> lock(*mu_);
    size_at_open_ = bytes_->size();
  }

  util::Status ReadAt(std::uint64_t offset, void* buf,
                      std::size_t bytes) override {
    std::lock_guard<std::mutex> lock(*mu_);
    if (offset + bytes > bytes_->size()) {
      // Behavioral parity with posix's unexpected-EOF read: the file
      // shrank underneath the size check. No errno — not retryable.
      return util::Status::IoError("read past end of mem file " + path_ +
                                   " (truncated file)");
    }
    std::memcpy(buf, bytes_->data() + offset, bytes);
    return util::Status::Ok();
  }

  util::Status WriteAt(std::uint64_t offset, const void* data,
                       std::size_t bytes) override {
    // Behavioral parity with posix: pwrite on an O_RDONLY fd fails, so
    // a write through a kRead handle must fail on mem scratch too —
    // otherwise a bug would only surface on the real filesystem.
    if (!writable_) {
      return util::Status::IoError(
          "write to read-only mem file " + path_, EBADF);
    }
    std::lock_guard<std::mutex> lock(*mu_);
    if (offset + bytes > bytes_->size()) bytes_->resize(offset + bytes);
    std::memcpy(bytes_->data() + offset, data, bytes);
    return util::Status::Ok();
  }

  std::uint64_t size_bytes() const override { return size_at_open_; }

 private:
  std::shared_ptr<void> keepalive_;  // the FileData, outliving Delete()
  std::mutex* mu_;
  std::vector<char>* bytes_;
  std::string path_;
  const bool writable_;
  std::uint64_t size_at_open_ = 0;
};

}  // namespace

MemDevice::MemDevice(std::string name) : StorageDevice(std::move(name)) {}

util::Status MemDevice::Open(const std::string& path, OpenMode mode,
                             std::unique_ptr<StorageFile>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (mode == OpenMode::kRead) {
    if (it == files_.end()) {
      return util::Status::IoError("open(" + path +
                                       ") failed: no such mem file on "
                                       "device " + name(),
                                   ENOENT);
    }
  } else {
    if (it == files_.end()) {
      it = files_.emplace(path, std::make_shared<FileData>()).first;
    } else if (mode == OpenMode::kTruncateWrite) {
      std::lock_guard<std::mutex> file_lock(it->second->mu);
      it->second->bytes.clear();
    }
  }
  const std::shared_ptr<FileData>& data = it->second;
  *out = std::make_unique<MemFile>(data, &data->mu, &data->bytes, path,
                                   mode != OpenMode::kRead);
  return util::Status::Ok();
}

util::Status MemDevice::Delete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
  return util::Status::Ok();
}

util::Status MemDevice::Rename(const std::string& from,
                               const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return util::Status::IoError("rename(" + from +
                                     ") failed: no such mem file on device " +
                                     name(),
                                 ENOENT);
  }
  // Like rename(2), a replaced `to` vanishes atomically; handles opened
  // on the old contents keep their FileData alive via shared_ptr.
  files_[to] = std::move(it->second);
  files_.erase(it);
  return util::Status::Ok();
}

std::string MemDevice::CreateSessionRoot() {
  std::lock_guard<std::mutex> lock(mu_);
  return "mem://" + name() + "/s" + std::to_string(next_session_++);
}

void MemDevice::RemoveTree(const std::string& root) {
  const std::string prefix = root + "/";
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---- configuration helpers -------------------------------------------

namespace {

// Strict probability parse for the fault rates: a plain non-negative
// double in [0, 1] ("1e-3", "0.25"). Rejects signs other than the
// exponent's, trailing junk, inf/nan.
bool ParseRate(const std::string& field, double* out) {
  if (field.empty() || field[0] == '-' || field[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;
  *out = value;
  return true;
}

std::string ParseFaultySpec(const std::string& text, FaultSpec* out) {
  FaultSpec fault;
  const std::string rest = text.substr(6);
  if (!rest.empty()) {
    if (rest[0] != ':') {
      return "unknown --device-model \"" + text +
             "\" (want faulty[:key=value,...])";
    }
    std::size_t start = 1;
    while (start <= rest.size()) {
      const std::size_t pos = rest.find(',', start);
      const std::string item =
          rest.substr(start, pos == std::string::npos ? pos : pos - start);
      start = pos == std::string::npos ? rest.size() + 1 : pos + 1;
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        return "bad --device-model faulty item \"" + item +
               "\" (want key=value)";
      }
      const std::string key = item.substr(0, eq);
      const std::string value = item.substr(eq + 1);
      bool ok = true;
      if (key == "seed") {
        ok = util::ParseDecimal(value, ~0ull, &fault.seed);
      } else if (key == "rate") {
        ok = ParseRate(value, &fault.read_fault_rate);
        fault.write_fault_rate = fault.read_fault_rate;
      } else if (key == "read_rate") {
        ok = ParseRate(value, &fault.read_fault_rate);
      } else if (key == "write_rate") {
        ok = ParseRate(value, &fault.write_fault_rate);
      } else if (key == "short") {
        ok = ParseRate(value, &fault.short_rate);
      } else if (key == "corrupt") {
        ok = ParseRate(value, &fault.corrupt_rate);
      } else if (key == "wfail_after") {
        ok = util::ParseDecimal(value, ~0ull, &fault.fail_writes_after);
      } else if (key == "rfail_after") {
        ok = util::ParseDecimal(value, ~0ull, &fault.fail_reads_after);
      } else if (key == "tag") {
        fault.path_tag = value;
      } else if (key == "device") {
        std::uint64_t index = 0;
        ok = util::ParseDecimal(value, 4096, &index);
        fault.device_index = static_cast<int>(index);
      } else if (key == "inner") {
        if (value == "posix") {
          fault.inner = DeviceModel::kPosix;
        } else if (value == "mem") {
          fault.inner = DeviceModel::kMem;
        } else {
          ok = false;
        }
      } else {
        return "unknown --device-model faulty key \"" + key +
               "\" (supported: seed, rate, read_rate, write_rate, short, "
               "corrupt, wfail_after, rfail_after, tag, device, inner)";
      }
      if (!ok) {
        return "bad --device-model faulty value \"" + item +
               "\" (rates in [0,1]; counts are non-negative integers; "
               "inner is posix|mem)";
      }
    }
  }
  *out = fault;
  return {};
}

}  // namespace

std::string ParseDeviceModelSpec(const std::string& text,
                                 DeviceModelSpec* out) {
  DeviceModelSpec spec;
  if (text == "posix" || text.empty()) {
    spec.model = DeviceModel::kPosix;
  } else if (text == "mem") {
    spec.model = DeviceModel::kMem;
  } else if (text.compare(0, 6, "faulty") == 0) {
    spec.model = DeviceModel::kFaulty;
    const std::string error = ParseFaultySpec(text, &spec.fault);
    if (!error.empty()) return error;
  } else {
    return "unknown --device-model \"" + text +
           "\" (supported: posix, mem, faulty[:key=value,...])";
  }
  *out = spec;
  return {};
}

bool IsRetryableIoError(const util::Status& status) {
  if (status.code() != util::StatusCode::kIoError) return false;
  switch (status.sys_errno()) {
    case EIO:
    case EINTR:
    case EAGAIN:
    case ETIMEDOUT:
      return true;
    default:
      return false;
  }
}

std::string ValidateScratchParents(const std::vector<std::string>& parents) {
  for (const auto& parent : parents) {
    std::error_code ec;
    if (!fs::exists(parent, ec) || ec) {
      return "scratch directory \"" + parent + "\" does not exist";
    }
    if (!fs::is_directory(parent, ec) || ec) {
      return "scratch path \"" + parent + "\" is not a directory";
    }
    if (::access(parent.c_str(), W_OK | X_OK) != 0) {
      return "scratch directory \"" + parent + "\" is not writable";
    }
  }
  return {};
}

}  // namespace extscc::io
