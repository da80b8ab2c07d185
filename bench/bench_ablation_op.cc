// Ablation of the §VII optimizations (not a paper figure): starts from
// Ext-SCC-Basic and enables one optimization at a time on the Large-SCC
// default workload, reporting time, I/Os, levels and the final
// contracted-edge behaviour. Shows where the ~20% Fig. 8
// gap comes from.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "gen/synthetic_generator.h"
#include "util/csv.h"

namespace bench = extscc::bench;

namespace {

struct Variant {
  std::string name;
  extscc::core::ExtSccOptions options;
};

std::vector<Variant> Variants() {
  using Options = extscc::core::ExtSccOptions;
  std::vector<Variant> variants;
  variants.push_back({"basic", Options::Basic()});
  {
    Options o = Options::Basic();
    o.type1_reduction = true;
    variants.push_back({"+type1", o});
  }
  {
    Options o = Options::Basic();
    o.type2_reduction = true;
    variants.push_back({"+type2", o});
  }
  {
    Options o = Options::Basic();
    o.refined_order = true;
    variants.push_back({"+order7.1", o});
  }
  {
    Options o = Options::Basic();
    o.dedup_parallel_edges = true;
    variants.push_back({"+edge-red", o});
  }
  variants.push_back({"op(all)", Options::Optimized()});
  return variants;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  std::printf("Ablation — §VII optimizations on Large-SCC; |V|=%llu, "
              "D=%.0f, M=%llu KB\n",
              static_cast<unsigned long long>(bench::DefaultNodes()),
              bench::kDefaultDegree,
              static_cast<unsigned long long>(bench::DefaultMemory() / 1024));
  auto workload = [](extscc::io::IoContext* ctx) {
    extscc::gen::SyntheticParams params;
    params.num_nodes = bench::DefaultNodes();
    params.avg_degree = bench::kDefaultDegree;
    params.sccs = {{bench::kLargeSccCount, bench::LargeSccSize(params.num_nodes)}};
    params.seed = 13;
    return extscc::gen::GenerateSynthetic(ctx, params);
  };

  extscc::util::Table table(
      {"variant", "time_s", "ios", "levels", "sccs"});
  for (const auto& variant : Variants()) {
    std::fprintf(stderr, "  [ablation] %s...\n", variant.name.c_str());
    auto ctx = bench::MakeMachine(bench::DefaultMemory());
    const auto g = workload(ctx.get());
    const std::string out = ctx->NewTempPath("scc");
    const auto before = ctx->stats().total_ios();
    extscc::util::Timer timer;
    auto result = extscc::core::RunExtScc(ctx.get(), g, out,
                                          variant.options);
    const double seconds = timer.ElapsedSeconds();
    const auto ios = ctx->stats().total_ios() - before;
    if (!result.ok()) {
      table.AddRow({variant.name, "FAIL", "-", "-", "-"});
      continue;
    }
    table.AddRow({variant.name, extscc::util::FormatDouble(seconds, 2),
                  extscc::util::FormatCount(ios),
                  std::to_string(result.value().num_levels()),
                  std::to_string(result.value().num_sccs)});
  }
  std::printf("\n=== ablation_op ===\n%s", table.ToAligned().c_str());
  if (!table.WriteCsvFile("ablation_op.csv")) {
    std::fprintf(stderr, "cannot write ablation_op.csv\n");
    return 1;
  }
  return 0;
}
