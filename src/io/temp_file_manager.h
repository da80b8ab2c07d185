// Scratch-file manager over a set of StorageDevices. Every intermediate
// of the external algorithms (edge lists E_in/E_out/E_del/E_pre, node
// lists V_i, SCC label files, sort runs) is a named scratch file inside
// one session root per device; session roots are removed when the
// manager is destroyed unless keep_files is set.
//
// Device assignment is the placement-aware half of the storage API:
// NewFile places each file per the manager's PlacementPolicy — whole
// files round-robin by sequence number (byte-identical to the
// pre-device engine), or every file's blocks striped across the
// devices — and reports the device it chose.
//
// NewPath/NewFile/Remove are thread-safe: with
// IoContextOptions::sort_threads the run-formation spill worker names
// run files concurrently with the producing thread.
#ifndef EXTSCC_IO_TEMP_FILE_MANAGER_H_
#define EXTSCC_IO_TEMP_FILE_MANAGER_H_

#include <atomic>
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
  // creates one fresh session root on each. `placement` selects the
  // device-assignment policy for NewPath/NewFile.
  explicit TempFileManager(
      std::vector<std::unique_ptr<StorageDevice>> devices,
      PlacementPolicy placement = PlacementPolicy::kRoundRobin);

  // Posix convenience ctor (the historical interface): one PosixDevice
  // per entry of `scratch_parents`, or a single one under `parent_dir`
  // (default: $TMPDIR or /tmp) when the list is empty. CHECK-fails if
  // any session directory cannot be created.
  explicit TempFileManager(const std::string& parent_dir = "",
                           const std::vector<std::string>& scratch_parents =
                               {});
  ~TempFileManager();

  TempFileManager(const TempFileManager&) = delete;
  TempFileManager& operator=(const TempFileManager&) = delete;

  // NewFile's path alone. The file is not created.
  std::string NewPath(const std::string& tag);

  // Returns a unique scratch path plus the device it was placed on.
  // Under kRoundRobin (the default policy) the path is
  // "<root>/<seq>_<tag>" on device seq % num_devices. Under kStriped the
  // file is a virtual path on the manager's StripedDevice whose blocks
  // round-robin across every available device (ConfigureStriping must
  // have run first); with fewer than two available devices the
  // placement falls back to round-robin on what is left, with a
  // once-per-manager stderr note — a 1-wide "stripe" is never built
  // silently.
  ScratchFile NewFile(const std::string& tag);

  // Hands the StripedDevice its physical stride geometry (block size
  // plus whether scratch blocks carry CRC32 trailers). IoContext calls
  // this right after construction; standalone managers using kStriped
  // must call it before the first NewFile. A no-op under other
  // policies.
  void ConfigureStriping(std::size_t block_size, bool checksum_blocks);

  // Deletes the file if it exists (ignores missing files), on whichever
  // device owns it. A device that fails to delete an existing file is
  // warned about but not fatal: scratch cleanup must never mask the
  // error that triggered it.
  void Remove(const std::string& path);

  // Marks a device as failed: NewFile stops placing scratch files on it
  // (existing files stay readable — a write-dead disk can still serve
  // its surviving runs during failover). Quarantining every device is
  // legal; placement then falls back to the full set, and the next I/O
  // error propagates instead of failing placement itself. Quarantining
  // the manager's StripedDevice redirects to the member device(s) whose
  // part I/O actually failed (StripedDevice::TakeFailedDevices), so a
  // striped file whose member dies costs that one member — new striped
  // placements then exclude it.
  void Quarantine(StorageDevice* device);
  bool IsQuarantined(StorageDevice* device) const;

  // Devices currently accepting new placements (total minus
  // quarantined, or total when everything is quarantined — see
  // Quarantine).
  std::size_t num_available_devices() const;

  // Stripe width a new striped placement would actually get right now:
  // the available device count under kStriped with >= 2 available,
  // else 0 (round-robin fallback, or a non-striped policy). The tools'
  // one-line placement report reads this instead of re-deriving the
  // NewFile fallback condition.
  std::size_t effective_stripe_width() const;

  // Emits the striped-fallback stderr note now (consuming the
  // once-per-manager ticket) when kStriped placement cannot stripe; a
  // no-op otherwise. The serve/update tools call this eagerly so the
  // note appears at startup instead of whenever the first scratch file
  // happens to be placed.
  void NoteStripedFallback();

  // The device whose session root contains `path`, or nullptr when the
  // path is not scratch (a user-supplied file).
  StorageDevice* DeviceForPath(const std::string& path) const;

  // The scratch devices, in configuration order.
  std::vector<StorageDevice*> devices() const;

  // First (primary) session root.
  const std::string& dir() const { return roots_.front().root; }
  // All session roots, one per device.
  std::vector<std::string> dirs() const;

  void set_keep_files(bool keep) { keep_files_ = keep; }

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
  PlacementPolicy placement_ = PlacementPolicy::kRoundRobin;
  // The composite striping device (kStriped with >= 2 devices only).
  // Not a Root: it is not listed in devices()/DeviceStats rows and its
  // own stats stay zero — block I/Os are charged to the member devices.
  std::unique_ptr<StripedDevice> striped_;
  std::string striped_root_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::atomic<bool> striped_fallback_noted_{false};
  bool keep_files_ = false;
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
