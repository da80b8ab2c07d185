#include "serve/artifact_stage.h"

#include <vector>

#include "io/block_file.h"
#include "io/temp_file_manager.h"

namespace extscc::serve {

util::Result<StagedArtifact> StageArtifactForServing(
    io::IoContext* context, const std::string& source) {
  io::TempFileManager& temp_files = context->temp_files();
  if (temp_files.effective_stripe_width() == 0) {
    return StagedArtifact{source, /*staged=*/false};
  }

  io::BlockFile in(context, source, io::OpenMode::kRead);
  RETURN_IF_ERROR(in.status());
  const std::size_t bs = in.block_size();
  if (in.size_bytes() == 0 || in.size_bytes() % bs != 0) {
    return util::Status::Corruption(
        "artifact " + source + ": size " + std::to_string(in.size_bytes()) +
        " is not a whole number of blocks (truncated?)");
  }
  const std::string staged = temp_files.NewPath("artifact_stage");
  io::BlockFile out(context, staged, io::OpenMode::kTruncateWrite);
  RETURN_IF_ERROR(out.status());

  in.StartSequentialPrefetch();
  std::vector<unsigned char> block(bs);
  const std::uint64_t blocks = in.size_bytes() / bs;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (in.ReadBlock(b, block.data()) != bs) {
      if (!in.status().ok()) return in.status();
      return util::Status::Corruption("artifact " + source +
                                      ": short read while staging");
    }
    out.WriteBlock(b, block.data(), bs);
  }
  RETURN_IF_ERROR(in.Close());
  RETURN_IF_ERROR(out.Close());
  return StagedArtifact{staged, /*staged=*/true};
}

}  // namespace extscc::serve
