// Synthetic graphs per the paper's §VIII recipe: "randomly select all
// nodes in SCCs first, add edges among the nodes in an SCC until all
// nodes form an SCC, finally add additional random nodes and edges" —
// parameterized exactly like Table I (Massive-/Large-/Small-SCC presets).
//
// The generator may use real RAM freely (it is workload setup, not a
// measured algorithm); its disk output streams through a GraphBuilder.
#ifndef EXTSCC_GEN_SYNTHETIC_GENERATOR_H_
#define EXTSCC_GEN_SYNTHETIC_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/disk_graph.h"
#include "io/io_context.h"

namespace extscc::gen {

struct PlantedSccSpec {
  std::uint32_t count = 0;  // how many SCCs of this size to plant
  std::uint32_t size = 0;   // nodes per SCC (>= 2 to be a real SCC)
};

struct SyntheticParams {
  std::uint64_t num_nodes = 100'000;
  double avg_degree = 4.0;  // total edges = num_nodes * avg_degree
  std::vector<PlantedSccSpec> sccs;
  std::uint64_t seed = 1;

  // Chord edges added inside each planted SCC beyond its spanning cycle,
  // as a fraction of the SCC size (keeps planted SCC diameters small).
  double intra_chord_factor = 0.5;

  // When false, only the planted cycles/chords are emitted — every SCC
  // size is then exactly known, which the property tests rely on.
  bool extra_random_edges = true;
};

// Table I presets, scaled 1/1000 in node counts like the benches'
// memory sizes, so the paper's M / (c·|V|) operating points carry over.
// Defaults: |V|=100K, D=4.
SyntheticParams MassiveSccParams(std::uint64_t num_nodes = 100'000,
                                 double avg_degree = 4.0,
                                 std::uint32_t scc_size = 400,
                                 std::uint64_t seed = 1);
SyntheticParams LargeSccParams(std::uint64_t num_nodes = 100'000,
                               double avg_degree = 4.0,
                               std::uint32_t scc_count = 50,
                               std::uint32_t scc_size = 8,
                               std::uint64_t seed = 1);
SyntheticParams SmallSccParams(std::uint64_t num_nodes = 100'000,
                               double avg_degree = 4.0,
                               std::uint32_t scc_count = 10'000 / 100,
                               std::uint32_t scc_size = 40,
                               std::uint64_t seed = 1);

graph::DiskGraph GenerateSynthetic(io::IoContext* context,
                                   const SyntheticParams& params);

}  // namespace extscc::gen

#endif  // EXTSCC_GEN_SYNTHETIC_GENERATOR_H_
