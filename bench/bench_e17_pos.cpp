// E17 — Proof-of-stake (§III-C aside, reference [32]).
// "Alternative approaches based on proof-of-X, where X could be stake,
// space, activity, etc. seem not be able to fully address this problem so
// far" — citing Houy, "It will cost you nothing to 'kill' a proof-of-stake
// crypto-currency".
#include "bench_util.hpp"
#include "chain/pos.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E17_pos", argc, argv, {.seed = 2});
  ex.describe(
      "E17: proof-of-stake — participation gates and attack economics",
      "PoS removes the energy burn but not the concentration pressure "
      "(minimum stakes and operating costs gate out small holders), and "
      "Houy's argument: an attacker who can hedge recovers most of the "
      "stake outlay, so 'killing' the chain can cost almost nothing",
      "(a) compounding-reward stake dynamics, 1000 validators x 500k "
      "slots, sweeping participation gates; (b) net attack cost vs hedge "
      "recovery, compared with the PoW equivalent");

  struct Cfg {
    const char* label;
    double non_staking;
    double min_stake_rel;
  };
  const Cfg rows[] = {
      {"everyone stakes", 0.0, 0.0},
      {"20% priced out", 0.2, 0.0},
      {"min stake = 2x mean", 0.0, 2.0},
      {"min stake = 2x mean + 30% out", 0.3, 2.0},
  };
  for (const auto& r : rows) {
    chain::StakeSimConfig cfg;
    cfg.validators = 1000;
    cfg.slots = 500'000;
    cfg.non_staking_fraction = r.non_staking;
    cfg.min_stake_rel = r.min_stake_rel;
    sim::Rng rng0(ex.seed());
    std::vector<double> initial(cfg.validators);
    for (auto& s : initial) s = rng0.pareto(1.0, cfg.initial_pareto_alpha);
    sim::Rng rng(ex.seed());
    const auto final_stake = chain::simulate_stake_concentration(cfg, rng);
    ex.add_row(
        {{"kind", "stake_concentration"},
         {"participation", r.label},
         {"gini_initial", bench::Value(sim::gini(initial), 3)},
         {"gini_final", bench::Value(sim::gini(final_stake), 3)},
         {"nakamoto_coeff",
          std::uint64_t{sim::nakamoto_coefficient(final_stake)}},
         {"top6_share", bench::Value(sim::top_k_share(final_stake, 6), 3)}});
  }
  for (const double recovery : {0.0, 0.5, 0.9, 0.99}) {
    chain::PosAttackParams p;
    p.total_stake_value_usd = 1e9;
    p.recovery_fraction = recovery;
    const auto c = chain::pos_attack_cost(p);
    ex.add_row({{"kind", "attack_cost"},
                {"attack", "PoS, hedge recovers " +
                               std::to_string(
                                   static_cast<int>(recovery * 100)) +
                               "%"},
                {"outlay_usd_M", bench::Value(c.outlay_usd / 1e6, 0)},
                {"net_cost_usd_M", bench::Value(c.net_cost_usd / 1e6, 1)}});
  }
  {
    chain::PowAttackParams p;
    const auto c = chain::pow_attack_cost(p);
    ex.add_row({{"kind", "attack_cost"},
                {"attack", "PoW, 6h 51% (own hardware)"},
                {"outlay_usd_M", bench::Value(c.outlay_usd / 1e6, 0)},
                {"net_cost_usd_M", bench::Value(c.net_cost_usd / 1e6, 1)}});
  }
  const int rc = ex.finish();
  ex.print(
      "\nWith universal participation, compounding rewards are a fair\n"
      "lottery (Gini barely moves); realistic participation gates reproduce\n"
      "the concentration of E7 without burning a single joule. And on the\n"
      "attack side, the better the attacker's hedge, the closer 'killing'\n"
      "the PoS chain gets to free — the paper's reference [32] in numbers.\n");
  return rc;
}
