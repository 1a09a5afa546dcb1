// ABL4 — Hybrid replication/erasure threshold sweep (the paper's
// future-work scheme, Section VIII).
//
// A bimodal value population (the paper's two workload classes: small
// online query results + large offline I/O chunks) runs against pure
// replication, pure erasure coding, and the hybrid engine at several
// size thresholds. Reports average Set/Get latency and aggregate memory.
#include "bench_util.h"
#include "common/rng.h"
#include "resilience/hybrid.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kSmall = 2 * 1024;     // online query result
constexpr std::size_t kLarge = 256 * 1024;   // offline I/O chunk

struct Point {
  double set_us = 0.0;
  double get_us = 0.0;
  double mem_mib = 0.0;
};

sim::Task<void> mixed_workload(sim::Simulator* sim,
                               resilience::Engine* engine,
                               cluster::Cluster* cluster, std::uint64_t ops,
                               Point* out) {
  Xoshiro256 rng(7);
  const SharedBytes small = zero_bytes(kSmall);
  const SharedBytes large = zero_bytes(kLarge);
  SimTime t0 = sim->now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const bool is_small = rng.next_double() < 0.5;
    (void)co_await engine->set("m" + std::to_string(i),
                               is_small ? small : large);
  }
  out->set_us = units::to_us(sim->now() - t0) / static_cast<double>(ops);
  t0 = sim->now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    (void)co_await engine->get("m" + std::to_string(i));
  }
  out->get_us = units::to_us(sim->now() - t0) / static_cast<double>(ops);
  out->mem_mib = static_cast<double>(cluster->total_bytes_used()) /
                 (1024.0 * 1024.0);
}

Point run_engine(resilience::Engine* engine, cluster::Cluster* cluster,
                 sim::Simulator* sim, std::uint64_t ops) {
  Point point;
  sim->spawn(mixed_workload(sim, engine, cluster, ops, &point));
  cluster->run();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("abl_hybrid", "its sweep drives every client from shard 0's loop");
  const std::uint64_t ops = scaled(300);
  std::printf("ABL4 — hybrid threshold sweep: 50/50 mix of 2 KB and 256 KB"
              " values, %llu ops, RS(3,2) / Rep=3, RI-QDR\n",
              static_cast<unsigned long long>(ops));
  print_header("Scheme comparison on a bimodal population",
               {"scheme", "set_us", "get_us", "mem_MiB"});

  // Pure baselines.
  for (const resilience::Design design :
       {resilience::Design::kAsyncRep, resilience::Design::kEraCeCd}) {
    Testbench bench(cluster::ri_qdr(), 5, 1, design);
    const Point p =
        run_engine(&bench.engine(), &bench.cluster(), &bench.sim(), ops);
    print_cell(std::string(to_string(design)));
    print_cell(p.set_us);
    print_cell(p.get_us);
    print_cell(p.mem_mib);
    end_row();
  }

  // Hybrid thresholds covering the extremes (1 KB routes everything to
  // erasure coding, 512 KB routes everything to replication) plus the
  // between-the-modes setting that splits the population.
  for (const std::size_t threshold :
       {std::size_t{1} * 1024, std::size_t{16} * 1024,
        std::size_t{512} * 1024}) {
    Testbench bench(cluster::ri_qdr(), 5, 1,
                    resilience::Design::kAsyncRep);  // context donor only
    resilience::EngineContext ctx;
    ctx.sim = &bench.sim();
    ctx.client = &bench.cluster().client(0);
    ctx.ring = &bench.cluster().ring();
    ctx.membership = &bench.cluster().membership();
    ctx.server_nodes = &bench.cluster().server_nodes();
    ctx.materialize = false;
    ec::RsVandermondeCodec codec(3, 2);
    resilience::HybridEngine hybrid(
        ctx, codec, ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2),
        3, threshold);
    const Point p =
        run_engine(&hybrid, &bench.cluster(), &bench.sim(), ops);
    print_cell("hybrid<" + size_label(threshold));
    print_cell(p.set_us);
    print_cell(p.get_us);
    print_cell(p.mem_mib);
    end_row();
  }
  return obs_finalize();
}
