// E18 — Layer-2 payment channels (§III-C Problem 2).
// "The so-called layer 2 or off-chain solutions like Lightning network
// (Bitcoin), Plasma (Ethereum) or EOS follow this trend. In these cases,
// transactions are processed by a much smaller set of peers to increase
// performance" — i.e. the throughput fix re-centralizes.
#include "bench_util.hpp"
#include "chain/channels.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

using namespace decentnet;

namespace {

struct Row {
  double success;
  double mean_hops;
  double routing_gini;
  std::size_t routing_nakamoto;
  double top3_share;
};

Row drive(chain::ChannelNetwork& net, std::size_t payments,
          std::int64_t max_amount, sim::Rng& rng) {
  const std::size_t n = net.node_count();
  std::size_t ok = 0;
  double hops = 0;
  for (std::size_t i = 0; i < payments; ++i) {
    const std::size_t a = rng.uniform_int(n);
    std::size_t b = rng.uniform_int(n);
    if (b == a) b = (b + 1) % n;
    const auto amount =
        static_cast<std::int64_t>(1 + rng.uniform_int(
                                          static_cast<std::uint64_t>(max_amount)));
    const auto r = net.pay(a, b, amount);
    if (r.ok) {
      ++ok;
      hops += static_cast<double>(r.hops);
    }
  }
  Row row;
  row.success = static_cast<double>(ok) / static_cast<double>(payments);
  row.mean_hops = ok == 0 ? 0 : hops / static_cast<double>(ok);
  const auto load = net.forwarding_load();
  row.routing_gini = sim::gini(load);
  row.routing_nakamoto = sim::nakamoto_coefficient(load);
  row.top3_share = sim::top_k_share(load, 3);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E18_layer2", argc, argv, {.seed = 77});
  ex.describe(
      "E18: off-chain payment channels — throughput vs re-centralization",
      "layer-2 escapes the E5 throughput ceiling (payments no longer touch "
      "the chain) but traffic concentrates through a few well-funded hubs — "
      "'processed by a much smaller set of peers'",
      "500 participants, 20k payments; hub-and-spoke (3 hubs, what "
      "liquidity economics produces) vs an idealized symmetric mesh; "
      "routing-power concentration measured over intermediaries");

  sim::Rng rng(ex.seed());
  {
    auto hub = chain::make_hub_topology(500, 3, 500, 2'000'000, rng);
    const Row r = drive(hub, 20'000, 40, rng);
    ex.add_row({{"topology", "hub-and-spoke (3 hubs)"},
                {"success", bench::Value(r.success, 3)},
                {"mean_hops", bench::Value(r.mean_hops, 2)},
                {"routing_gini", bench::Value(r.routing_gini, 3)},
                {"routing_nakamoto", std::uint64_t{r.routing_nakamoto}},
                {"top3_route_share", bench::Value(r.top3_share, 3)}});
  }
  {
    auto mesh = chain::make_mesh_topology(500, 4, 500, rng);
    const Row r = drive(mesh, 20'000, 40, rng);
    ex.add_row({{"topology", "symmetric mesh (4 ch/node)"},
                {"success", bench::Value(r.success, 3)},
                {"mean_hops", bench::Value(r.mean_hops, 2)},
                {"routing_gini", bench::Value(r.routing_gini, 3)},
                {"routing_nakamoto", std::uint64_t{r.routing_nakamoto}},
                {"top3_route_share", bench::Value(r.top3_share, 3)}});
  }
  const int rc = ex.finish();

  ex.print(
      "\nOn-chain equivalence: 20k payments would need ~%.0f Bitcoin blocks\n"
      "(~%.0f hours of global consensus); off-chain they are instant local\n"
      "state updates. The price appears in the right-hand columns: in the\n"
      "hub topology three nodes carry almost all routed value — the 'much\n"
      "smaller set of peers' the paper warns the scaling roadmap leads to.\n",
      20000.0 / 4000.0, 20000.0 / 4000.0 / 6.0);
  return rc;
}
