#include "io/io_context.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "io/fault_injection.h"
#include "util/csv.h"
#include "util/logging.h"

namespace extscc::io {

namespace {

// Builds the scratch device set from the options: one device per
// scratch_dirs entry (or a single one under temp_parent_dir), backed
// per the device model. Names are stable ("disk0".., "mem0"..,
// "flt0"..) so per-device stats rows are self-describing.
std::vector<std::unique_ptr<StorageDevice>> BuildScratchDevices(
    const IoContextOptions& options) {
  if (options.device_model.model == DeviceModel::kPosix) {
    return MakePosixScratchDevices(options.temp_parent_dir,
                                   options.scratch_dirs);
  }
  const std::size_t count = std::max<std::size_t>(
      1, options.scratch_dirs.size());
  std::vector<std::unique_ptr<StorageDevice>> devices;
  devices.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string parent = options.scratch_dirs.empty()
                                   ? options.temp_parent_dir
                                   : options.scratch_dirs[i];
    const std::string suffix = std::to_string(i);
    if (options.device_model.model == DeviceModel::kMem) {
      devices.push_back(std::make_unique<MemDevice>("mem" + suffix));
    } else {  // kFaulty
      const FaultSpec& spec = options.device_model.fault;
      const std::string name = "flt" + suffix;
      std::unique_ptr<StorageDevice> inner;
      if (spec.inner == DeviceModel::kMem) {
        inner = std::make_unique<MemDevice>(name + "_mem");
      } else {
        inner = std::make_unique<PosixDevice>(name + "_posix", parent);
      }
      if (spec.device_index >= 0 &&
          static_cast<std::size_t>(spec.device_index) != i) {
        // The spec targets one specific device; its siblings are built
        // clean (the inner device verbatim) — the single-bad-disk
        // failover scenario.
        devices.push_back(std::move(inner));
      } else {
        FaultSpec device_spec = spec;
        // Decorrelate the devices' schedules: with a shared seed every
        // device would fault at the same op ordinals.
        device_spec.seed = spec.seed + i;
        devices.push_back(std::make_unique<FaultInjectingDevice>(
            name, std::move(inner), std::move(device_spec)));
      }
    }
  }
  return devices;
}

// The model's one hard constraint, checked before any member is built:
// the TempFileManager creates session roots (and their .pid markers) in
// its constructor, which a rejected configuration must not leave behind.
const IoContextOptions& CheckedOptions(const IoContextOptions& options) {
  CHECK_GE(options.memory_bytes, 2 * options.block_size)
      << "external-memory model requires M >= 2B";
  return options;
}

// The machine-option table: each option's flag name (without "--") and
// its parser. The variable suffix is the name upper-cased with
// '-' -> '_'; ParseMachineEnv applies variables in table order.
struct MachineOption {
  const char* name;
  std::string (*parse)(const std::string& value, IoContextOptions* options);
};

constexpr MachineOption kMachineOptions[] = {
    {"sort-threads",
     [](const std::string& value, IoContextOptions* options) {
       std::uint64_t threads = 0;
       if (!util::ParseDecimal(value, 1, &threads)) {
         return "bad --sort-threads \"" + value + "\" (want 0 or 1)";
       }
       options->sort_threads = static_cast<std::size_t>(threads);
       return std::string();
     }},
    {"scratch-dirs",
     [](const std::string& value, IoContextOptions* options) {
       options->scratch_dirs = util::SplitCommaList(value);
       return std::string();
     }},
    {"device-model",
     [](const std::string& value, IoContextOptions* options) {
       return ParseDeviceModelSpec(value, &options->device_model);
     }},
};

}  // namespace

std::string ParseMachineFlag(const std::string& flag,
                             IoContextOptions* options) {
  if (flag.compare(0, 2, "--") != 0) {
    return "unexpected argument \"" + flag + "\"";
  }
  const std::size_t eq = flag.find('=');
  const std::string name =
      flag.substr(2, eq == std::string::npos ? eq : eq - 2);
  std::string known;
  for (const MachineOption& option : kMachineOptions) {
    if (name != option.name) {
      known += std::string(known.empty() ? "" : ", ") + "--" + option.name;
    } else if (eq == std::string::npos) {
      return "missing value for --" + name + " (want --" + name + "=VALUE)";
    } else {
      return option.parse(flag.substr(eq + 1), options);
    }
  }
  return "unknown flag --" + name + " (machine options: " + known + ")";
}

std::string ParseMachineEnv(const std::string& prefix,
                            IoContextOptions* options) {
  for (const MachineOption& option : kMachineOptions) {
    std::string variable = prefix;
    for (const char* c = option.name; *c != '\0'; ++c) {
      variable += *c == '-' ? '_' : static_cast<char>(std::toupper(*c));
    }
    const char* value = std::getenv(variable.c_str());
    if (value == nullptr || value[0] == '\0') continue;
    const std::string error = option.parse(value, options);
    if (!error.empty()) return variable + ": " + error;
  }
  return {};
}

std::string ValidateMachineOptions(const IoContextOptions& options) {
  const DeviceModelSpec& model = options.device_model;
  if (model.model == DeviceModel::kMem ||
      (model.model == DeviceModel::kFaulty &&
       model.fault.inner == DeviceModel::kMem)) {
    return {};
  }
  const std::string error = ValidateScratchParents(options.scratch_dirs);
  return error.empty() ? error : "--scratch-dirs: " + error;
}

IoContext::IoContext(const IoContextOptions& options)
    : options_(CheckedOptions(options)),
      memory_(options.memory_bytes),
      temp_files_(BuildScratchDevices(options)) {}

std::vector<IoContext::DeviceStatsRow> IoContext::DeviceStats() const {
  std::vector<DeviceStatsRow> rows;
  const auto scratch = temp_files_.devices();
  rows.reserve(scratch.size() + 1);
  rows.push_back({base_device_.name(), base_device_.stats()});
  for (const StorageDevice* device : scratch) {
    rows.push_back({device->name(), device->stats()});
  }
  return rows;
}

std::uint64_t IoContext::max_per_device_ios() const {
  std::uint64_t max_ios = base_device_.stats().total_ios();
  for (const StorageDevice* device : temp_files_.devices()) {
    max_ios = std::max(max_ios, device->stats().total_ios());
  }
  return max_ios;
}

void IoContext::OnIo() {
  if (options_.io_budget > 0 && stats_.total_ios() > options_.io_budget) {
    io_budget_exceeded_.store(true, std::memory_order_relaxed);
  }
}

void IoContext::RecordIoError(const util::Status& status) {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(io_error_mu_);
  if (!io_error_.ok()) return;  // first error wins
  io_error_ = status;
  has_io_error_.store(true, std::memory_order_release);
}

util::Status IoContext::io_error() const {
  std::lock_guard<std::mutex> lock(io_error_mu_);
  return io_error_;
}

bool IoContext::AbsorbIoError(const util::Status& recovered) {
  std::lock_guard<std::mutex> lock(io_error_mu_);
  if (io_error_.ok()) return false;
  if (io_error_.code() != recovered.code() ||
      io_error_.message() != recovered.message()) {
    return false;
  }
  io_error_ = util::Status::Ok();
  has_io_error_.store(false, std::memory_order_release);
  return true;
}

void IoContext::reset_io_error() {
  std::lock_guard<std::mutex> lock(io_error_mu_);
  io_error_ = util::Status::Ok();
  has_io_error_.store(false, std::memory_order_release);
}

}  // namespace extscc::io
