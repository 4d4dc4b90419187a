// E7 — Mining centralization (§III-C Problem 1).
// "In 2013 six mining pools controlled 75% of overall Bitcoin hashing power.
// Nowadays it is almost impossible for a normal user to mine bitcoins with a
// normal desktop computer."
#include "bench_util.hpp"
#include "chain/economics.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E7_pools", argc, argv, {.seed = 2013});
  ex.describe(
      "E7: hash-power concentration under economies of scale",
      "strong economic incentives attract industrial players; scale "
      "advantages (cheap electricity, wholesale ASICs) concentrate hash "
      "power into a handful of farms — six pools held 75% in 2013",
      "reinvestment dynamics over 2000 miners, 500 rounds; sweep the "
      "scale-economy exponent and report Gini / Nakamoto coefficient / "
      "top-6 share of the final distribution");

  for (const double scale : {0.0, 0.05, 0.10, 0.15, 0.20, 0.30}) {
    chain::PoolSimConfig cfg;
    cfg.scale_exponent = scale;
    sim::Rng rng(ex.seed());
    const auto shares = chain::simulate_pool_concentration(cfg, rng);
    std::size_t active = 0;
    for (double s : shares) {
      if (s > 0) ++active;
    }
    ex.add_row(
        {{"scale_exponent", bench::Value(scale, 2)},
         {"gini", bench::Value(sim::gini(shares), 3)},
         {"nakamoto_coeff",
          std::uint64_t{sim::nakamoto_coefficient(shares)}},
         {"top6_share", bench::Value(sim::top_k_share(shares, 6), 3)},
         {"entropy_bits", bench::Value(sim::shannon_entropy(shares), 2)},
         {"active_miners", std::uint64_t{active}}});
  }
  const int rc = ex.finish();
  ex.print(
      "\nReading: with no scale advantage the initial skew persists but the\n"
      "network stays wide; each increment of scale advantage collapses the\n"
      "Nakamoto coefficient toward single digits and pushes the top-6 share\n"
      "toward (and past) the 75%% the paper reports for 2013.\n");
  return rc;
}
