// Scaled Table I / §VIII workload definitions shared by every figure
// bench. Scaling rule: node counts and memory sizes are
// the paper's divided by 1000 (1 paper-"M" unit -> 1 KB here); SCC
// *counts*, average degrees, and all ratios are kept identical, so the
// quantity that drives algorithm behaviour — M / (c·|V|) — matches the
// paper's regime point for point.
//
// Every bench honours EXTSCC_BENCH_SCALE (a positive float) to
// shrink/grow all node counts and memory sizes TOGETHER — the quantity
// that decides algorithm behaviour, M / (c·|V|), is scale-invariant, so
// any scale reproduces the same iteration structure and curve shapes.
// The default is 0.1 (10^4-node graphs, minutes per figure);
// EXTSCC_BENCH_SCALE=1.0 runs the full /1000-of-paper sizes.
#ifndef EXTSCC_BENCH_WORKLOADS_H_
#define EXTSCC_BENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "scc/semi_external_scc.h"

namespace extscc::bench {

inline double BenchScale() {
  if (const char* env = std::getenv("EXTSCC_BENCH_SCALE")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0) return v;
  }
  return 0.1;
}

// ---- modeled disk -----------------------------------------------------
// The paper's time axis comes from a 2007-era SATA disk, where a random
// block access pays a seek that dwarfs the transfer. Wall time on this
// page-cached simulation would hide exactly the effect the paper
// measures, so the benches report *modeled* time from the I/O counters:
//   seq block   : B / 100 MB/s
//   random block: 8 ms seek + B / 100 MB/s
// Measured wall seconds are also recorded in the CSVs.
inline constexpr double kSeqBytesPerSecond = 100.0 * 1024 * 1024;
inline constexpr double kSeekSeconds = 0.008;

inline std::uint64_t Scaled(double base) {
  const auto v = static_cast<std::uint64_t>(base * BenchScale());
  return v < 64 ? 64 : v;
}

// ---- machine ------------------------------------------------------------

// Paper: B = 256 KB on a 3.5 GB box. The block scales with the bench
// scale (clamped to [2 KB, 16 KB]) so the M >= 2B model constraint holds
// across the whole memory sweep at any scale.
inline std::size_t BlockSize() {
  const auto scaled = static_cast<std::size_t>(16.0 * 1024 * BenchScale());
  return std::min<std::size_t>(16 * 1024,
                               std::max<std::size_t>(2 * 1024, scaled));
}

// The paper charges c = 8 bytes/node for 1PB-SCC's stop condition; the
// default (colouring) Semi-SCC backend holds StateBytes(n) ~ 8.5 B/node.
// Memory sizes are given in paper units and calibrated by that ratio so
// each sweep point lands on the paper's M / (c*|V|) operating point —
// the quantity that decides the number of contraction iterations.
inline constexpr double kMemoryCalibration =
    scc::SemiExternalScc::StateBytes(1 << 20) / (8.0 * (1 << 20));

// Paper default M = 400 "M-units" -> 400 KB, calibrated.
inline std::uint64_t DefaultMemory() {
  return Scaled(kMemoryCalibration * 400 * 1024);
}

// ---- synthetic defaults (Table I, scaled /1000) ---------------------------

inline std::uint64_t DefaultNodes() { return Scaled(100'000); }
inline constexpr double kDefaultDegree = 4.0;

// Planted-SCC geometry derives from each point's node count so every
// sweep point is generable: one "massive" SCC of 4% of |V|; 50 "large"
// SCCs of 0.08% of |V| each; |V|/1000 "small" SCCs of 40 nodes. The
// ordering Massive >> Large >> Small and the small planted fractions
// mirror Table I; Exp-5's conclusion (structure does not matter) makes
// the exact constants immaterial.
inline std::uint32_t MassiveSccSize(std::uint64_t nodes) {
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(16, nodes / 25));
}
inline std::uint32_t LargeSccSize(std::uint64_t nodes) {
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(4, nodes / 1250));
}
inline constexpr std::uint32_t kLargeSccCount = 50;
inline constexpr std::uint32_t kSmallSccSize = 40;
inline std::uint32_t SmallSccCount(std::uint64_t nodes) {
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(2, nodes / 1000));
}

// Memory sweep used by Fig. 8 (paper: 200M..600M), calibrated.
inline std::vector<std::uint64_t> MemorySweep() {
  return {Scaled(kMemoryCalibration * 200 * 1024),
          Scaled(kMemoryCalibration * 300 * 1024),
          Scaled(kMemoryCalibration * 400 * 1024),
          Scaled(kMemoryCalibration * 500 * 1024),
          Scaled(kMemoryCalibration * 600 * 1024)};
}

// Node sweep (paper: 25M..200M -> 25K..200K).
inline std::vector<std::uint64_t> NodeSweep() {
  return {Scaled(25'000), Scaled(50'000), Scaled(100'000), Scaled(150'000),
          Scaled(200'000)};
}

// ---- web graph (WEBSPAM-UK2007 stand-in) ----------------------------------

inline std::uint64_t WebGraphNodes() { return Scaled(100'000); }
inline constexpr double kWebGraphOutDegree = 8.0;
inline constexpr std::uint64_t kWebGraphSeed = 20070501;  // UK2007 crawl date

// Fig. 7 memory sweep for the web graph (paper: 400M..1G), calibrated:
// a quarter, three eighths and half of the node set's footprint
// (8 B/node * 100K = 800 KB in paper units), then the knee's far side
// where Semi-SCC fits the whole node set.
inline std::vector<std::uint64_t> WebMemorySweep() {
  return {Scaled(kMemoryCalibration * 200 * 1024),
          Scaled(kMemoryCalibration * 300 * 1024),
          Scaled(kMemoryCalibration * 400 * 1024),
          Scaled(kMemoryCalibration * 850 * 1024)};
}

// DFS-SCC censoring: the paper allows 24 h per run (its Ext-SCC runs
// take 1-5 h, so the cap sits at roughly 5-20x the winner); we allow
// this factor times the I/Os Ext-SCC-Op needed for the same point.
inline constexpr std::uint64_t kInfBudgetFactor = 8;

}  // namespace extscc::bench

#endif  // EXTSCC_BENCH_WORKLOADS_H_
