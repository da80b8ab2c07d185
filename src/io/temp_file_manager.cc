#include "io/temp_file_manager.h"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "util/logging.h"

namespace extscc::io {

// ---- live-root registry (signal cleanup) ----------------------------
//
// A fixed array of path slots claimed/released by TempFileManager
// construction/destruction, consumed by the SIGINT/SIGTERM handler.
// Fixed storage and atomic claim flags keep the handler free of
// allocation and locking on its read side; the removal itself uses
// std::filesystem, which is not strictly async-signal-safe — an
// accepted trade for a handler that only runs on the way to process
// death, where the alternative is leaking the scratch tree.
//
// SIGKILL (and --crash-at's _Exit) never reach this handler; those
// roots are collected by ReapOrphanScratchRoots (storage.h) the next
// time a process creates a session root under the same parent, using
// the per-root .pid liveness marker.

namespace {

constexpr int kMaxLiveRoots = 64;

struct LiveRootSlot {
  std::atomic<bool> used{false};
  // Set before `used` is published, cleared only after `used` is false.
  char path[4096];
};

LiveRootSlot g_live_roots[kMaxLiveRoots];

int ClaimLiveRootSlot(const std::string& root) {
  if (root.size() >= sizeof(LiveRootSlot::path)) return -1;
  for (int i = 0; i < kMaxLiveRoots; ++i) {
    bool expected = false;
    if (g_live_roots[i].used.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      std::memcpy(g_live_roots[i].path, root.c_str(), root.size() + 1);
      return i;
    }
  }
  return -1;  // registry full: that root just won't be signal-cleaned
}

void ReleaseLiveRootSlot(int slot) {
  if (slot < 0) return;
  g_live_roots[slot].used.store(false, std::memory_order_release);
}

extern "C" void ScratchCleanupSignalHandler(int signo) {
  for (int i = 0; i < kMaxLiveRoots; ++i) {
    if (!g_live_roots[i].used.load(std::memory_order_acquire)) continue;
    std::error_code ec;
    std::filesystem::remove_all(g_live_roots[i].path, ec);
  }
  std::_Exit(128 + signo);
}

// A root is registered only when it is a real filesystem directory:
// mem:// namespaces vanish with the process anyway.
bool IsFilesystemRoot(const std::string& root) {
  return !root.empty() && root[0] == '/';
}

}  // namespace

void InstallScratchSignalCleanup() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &ScratchCleanupSignalHandler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

// ---- TempFileManager -------------------------------------------------

TempFileManager::TempFileManager(
    std::vector<std::unique_ptr<StorageDevice>> devices) {
  CHECK(!devices.empty()) << "TempFileManager needs at least one device";
  roots_.reserve(devices.size());
  for (auto& device : devices) {
    Root root;
    root.root = device->CreateSessionRoot();
    root.device = std::move(device);
    if (IsFilesystemRoot(root.root)) {
      root.live_slot = ClaimLiveRootSlot(root.root);
    }
    roots_.push_back(std::move(root));
  }
}

TempFileManager::~TempFileManager() {
  for (const auto& root : roots_) {
    root.device->RemoveTree(root.root);
    ReleaseLiveRootSlot(root.live_slot);
  }
}

std::string TempFileManager::NewPath(const std::string& tag) {
  return NewFile(tag).path;
}

std::vector<std::size_t> TempFileManager::AvailableRootsLocked() const {
  std::vector<std::size_t> available;
  available.reserve(roots_.size());
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    if (!roots_[i].quarantined) available.push_back(i);
  }
  if (available.empty()) {
    // Everything quarantined: fall back to the full set so placement
    // still yields a path and the underlying I/O error (not a
    // placement failure) is what the caller reports.
    for (std::size_t i = 0; i < roots_.size(); ++i) available.push_back(i);
  }
  return available;
}

ScratchFile TempFileManager::NewFile(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  // Round-robin by sequence number: consecutive scratch files (and in
  // particular consecutive sort runs) land on distinct devices. It
  // indexes into the *available* (non-quarantined) roots; with no
  // quarantine that list is all roots in order, so placement — and
  // every scratch path — is byte-identical to the fault-oblivious
  // engine.
  const std::vector<std::size_t> available = AvailableRootsLocked();
  Root& root = roots_[available[id % available.size()]];
  return ScratchFile{root.root + "/" + std::to_string(id) + "_" + tag,
                     root.device.get()};
}

void TempFileManager::Remove(const std::string& path) {
  StorageDevice* device = DeviceForPath(path);
  if (device != nullptr) {
    const util::Status status = device->Delete(path);
    if (!status.ok()) {
      LOG_WARNING << "TempFileManager: failed to remove scratch file "
                  << path << ": " << status.ToString();
    }
    return;
  }
  // Not scratch — historical behavior is a best-effort filesystem
  // remove; kept for callers deleting user-side files.
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void TempFileManager::Quarantine(StorageDevice* device) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& root : roots_) {
    if (root.device.get() == device && !root.quarantined) {
      root.quarantined = true;
      LOG_WARNING << "TempFileManager: quarantined scratch device "
                  << device->name()
                  << "; new scratch files avoid it from now on";
    }
  }
}

bool TempFileManager::IsQuarantined(StorageDevice* device) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& root : roots_) {
    if (root.device.get() == device) return root.quarantined;
  }
  return false;
}

std::size_t TempFileManager::num_available_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return AvailableRootsLocked().size();
}

StorageDevice* TempFileManager::DeviceForPath(const std::string& path) const {
  for (const auto& root : roots_) {
    if (path.size() > root.root.size() + 1 &&
        path.compare(0, root.root.size(), root.root) == 0 &&
        path[root.root.size()] == '/') {
      return root.device.get();
    }
  }
  return nullptr;
}

std::vector<StorageDevice*> TempFileManager::devices() const {
  std::vector<StorageDevice*> out;
  out.reserve(roots_.size());
  for (const auto& root : roots_) out.push_back(root.device.get());
  return out;
}

std::vector<std::string> TempFileManager::dirs() const {
  std::vector<std::string> out;
  out.reserve(roots_.size());
  for (const auto& root : roots_) out.push_back(root.root);
  return out;
}

}  // namespace extscc::io
