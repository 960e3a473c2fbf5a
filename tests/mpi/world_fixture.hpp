// Shared test fixture: a small simulated MPI world.
#pragma once

#include <functional>

#include "mel/ft/params.hpp"
#include "mel/mpi/comm.hpp"
#include "mel/mpi/machine.hpp"
#include "mel/net/network.hpp"
#include "mel/sim/simulator.hpp"

namespace mel::test {

inline net::Params test_params() {
  net::Params p;
  p.ranks_per_node = 4;
  return p;
}

struct World {
  sim::Simulator sim;
  mpi::Machine machine;

  /// The worlds are small, so every one records the comm matrix.
  explicit World(int p, net::Params params = test_params(),
                 const ft::Params& ft = {})
      : sim(p), machine(sim, net::Network(p, params), ft) {
    machine.collect_matrix();
  }

  /// Spawn the same coroutine body on every rank.
  template <class F>
  void spawn_all(F&& body) {
    for (sim::Rank r = 0; r < sim.nranks(); ++r) {
      sim.spawn(r, body(machine.comm(r)));
    }
  }

  /// Fully-connected process topology (everyone neighbors everyone).
  void full_topology() {
    std::vector<std::vector<sim::Rank>> topo(sim.nranks());
    for (sim::Rank r = 0; r < sim.nranks(); ++r) {
      for (sim::Rank n = 0; n < sim.nranks(); ++n) {
        if (n != r) topo[r].push_back(n);
      }
    }
    machine.set_topology(std::move(topo));
  }

  /// Ring topology: rank r neighbors r-1 and r+1 (mod p).
  void ring_topology() {
    const int p = sim.nranks();
    std::vector<std::vector<sim::Rank>> topo(p);
    for (sim::Rank r = 0; r < p; ++r) {
      if (p == 2) {
        topo[r] = {static_cast<sim::Rank>(1 - r)};
      } else if (p > 2) {
        topo[r] = {static_cast<sim::Rank>((r + p - 1) % p),
                   static_cast<sim::Rank>((r + 1) % p)};
      }
    }
    machine.set_topology(std::move(topo));
  }

  void run() { sim.run(); }
};

}  // namespace mel::test
