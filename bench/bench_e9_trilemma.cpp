// E9 — The scalability trilemma (§III-C Problem 2).
// "Buterin proposed the scalability trilemma: a blockchain technology can
// only address two of the three challenges: scalability, decentralization,
// and security."
#include "bench_util.hpp"
#include "core/trilemma.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E9_trilemma", argc, argv);
  ex.describe(
      "E9: quantifying the scalability trilemma",
      "scalability (O(n) > O(c) throughput), decentralization (commodity "
      "nodes can validate) and security (cost to capture consensus) cannot "
      "all be maximized; sharding trades security for throughput",
      "sweep shard counts for a 10k-validator ecosystem at c = 15 tps per "
      "node; report all three axes per design");

  const auto sweep =
      core::trilemma_sweep(10'000, 15.0, {1, 2, 4, 8, 16, 64, 256, 1024});
  for (const auto& p : sweep) {
    ex.add_row({{"shards", std::uint64_t{p.design.shards}},
                {"throughput_tps", bench::Value(p.throughput_tps, 0)},
                {"scalability_x", bench::Value(p.scalability, 0)},
                {"per_node_load", bench::Value(p.per_node_load, 4)},
                {"security_capture_fraction", bench::Value(p.security, 4)}});
  }
  const int rc = ex.finish();
  ex.print(
      "\nInvariant: scalability x security = 0.5 across the whole sweep —\n"
      "every shard of extra throughput divides the resources an attacker\n"
      "must corrupt to seize one shard. The full-broadcast design (1 shard)\n"
      "keeps 51%%-security but is pinned to one node's validation capacity:\n"
      "Bitcoin's ~7 tps (E5) is this corner of the space. VISA picks\n"
      "scalability + a trusted operator instead of open security.\n");
  return rc;
}
