// Scratch-file manager over a set of StorageDevices. Every intermediate
// of the external algorithms (edge lists E_in/E_out/E_del/E_pre, node
// lists V_i, SCC label files, sort runs) is a named scratch file inside
// one session root per device; session roots are removed when the
// manager is destroyed.
//
// Device assignment is the placement-aware half of the storage API:
// NewFile places whole files round-robin by sequence number across the
// devices that are not quarantined, and reports the device it chose.
//
// NewPath/NewFile/Remove are thread-safe: serve's query threads
// (serve::RunQueries) name and remove their sort runs concurrently.
#ifndef EXTSCC_IO_TEMP_FILE_MANAGER_H_
#define EXTSCC_IO_TEMP_FILE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/storage.h"

namespace extscc::io {

// Typed scratch handle: the path plus the device it was placed on.
struct ScratchFile {
  std::string path;
  StorageDevice* device = nullptr;
};

class TempFileManager {
 public:
  // Devices ctor: takes ownership of `devices` (at least one) and
  // creates one fresh session root on each.
  explicit TempFileManager(
      std::vector<std::unique_ptr<StorageDevice>> devices);
  ~TempFileManager();

  TempFileManager(const TempFileManager&) = delete;
  TempFileManager& operator=(const TempFileManager&) = delete;

  // NewFile's path alone. The file is not created.
  std::string NewPath(const std::string& tag);

  // Returns a unique scratch path plus the device it was placed on:
  // "<root>/<seq>_<tag>" on available device seq % num_available.
  ScratchFile NewFile(const std::string& tag);

  // Deletes the file if it exists (ignores missing files), on whichever
  // device owns it. A device that fails to delete an existing file is
  // warned about but not fatal: scratch cleanup must never mask the
  // error that triggered it.
  void Remove(const std::string& path);

  // Marks a device as failed: NewFile stops placing scratch files on it
  // (existing files stay readable — a write-dead disk can still serve
  // its surviving runs during failover). Quarantining every device is
  // legal; placement then falls back to the full set, and the next I/O
  // error propagates instead of failing placement itself.
  void Quarantine(StorageDevice* device);
  bool IsQuarantined(StorageDevice* device) const;

  // Devices currently accepting new placements (total minus
  // quarantined, or total when everything is quarantined — see
  // Quarantine).
  std::size_t num_available_devices() const;

  // The device whose session root contains `path`, or nullptr when the
  // path is not scratch (a user-supplied file).
  StorageDevice* DeviceForPath(const std::string& path) const;

  // The scratch devices, in configuration order.
  std::vector<StorageDevice*> devices() const;

  // First (primary) session root.
  const std::string& dir() const { return roots_.front().root; }
  // All session roots, one per device.
  std::vector<std::string> dirs() const;

 private:
  struct Root {
    std::unique_ptr<StorageDevice> device;
    std::string root;
    // Guarded by mu_ for writes; placement reads it under mu_ too.
    bool quarantined = false;
    // Slot in the process-global live-root registry (signal cleanup),
    // or -1 for roots that are not real filesystem directories.
    int live_slot = -1;
  };

  // Indices of roots accepting placements: all non-quarantined roots,
  // or every root when all are quarantined. Caller holds mu_.
  std::vector<std::size_t> AvailableRootsLocked() const;

  // Immutable after construction except the quarantined flags
  // (DeviceForPath reads paths/devices lock-free).
  std::vector<Root> roots_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
};

// Installs SIGINT/SIGTERM handlers that best-effort remove every live
// on-disk scratch session root (registered by TempFileManager
// construction, released on destruction), then terminate with the
// conventional 128+signo exit status. For interactive tools
// (extscc_tool): a ^C mid-solve should not leak gigabytes of scratch.
// Roots on non-filesystem devices (mem://) die with the process and are
// never registered. Idempotent; call once from main().
void InstallScratchSignalCleanup();

}  // namespace extscc::io

#endif  // EXTSCC_IO_TEMP_FILE_MANAGER_H_
