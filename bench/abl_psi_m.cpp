// Ablation (beyond the paper) — gossip fan-out sensitivity.
//
// The paper fixes ψ = 5 (migration partners come from the ψ closest T-Man
// neighbours) and m = 20 (descriptors per T-Man message) "taken from the
// original paper" without sensitivity analysis.  This bench sweeps both:
// ψ controls how local migration exchanges are (ψ = 1 → always the nearest
// neighbour, little mixing; large ψ → more diffusion), m controls how fast
// T-Man's views converge and hence how good the neighbourhoods driving
// migration are.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/5);
  std::printf("Ablation: psi / m sensitivity (80x40 torus, K=4, %zu reps)\n\n",
              opt.reps);

  util::Table table({"psi", "m", "reshaping time (rounds)",
                     "homogeneity@r45", "msg/node/round@steady"});

  auto run_case = [&](std::size_t psi, std::size_t m) {
    auto program = bench::crash_repair_program(3200, 20, 40, opt);
    program.options.config.poly.psi = psi;
    program.options.config.tman.msg_size = m;

    const auto result = scenario::run_program(program);
    table.add_row(
        {std::to_string(psi), std::to_string(m), bench::reshaping_cell(result),
         util::fmt(result.series("homogeneity").row(45).mean, 3),
         util::fmt(result.series("msg_paper").row(45).mean, 1)});
  };

  for (std::size_t psi : {1ul, 2ul, 5ul, 10ul}) run_case(psi, 20);
  for (std::size_t m : {5ul, 10ul, 40ul}) run_case(5, m);

  bench::emit(table, opt, "abl_psi_m");
  std::puts("\nExpected: reshaping is robust around the paper's ψ=5/m=20; "
            "very small ψ slows mixing, very small m slows T-Man and hence "
            "migration targeting.");
  return 0;
}
