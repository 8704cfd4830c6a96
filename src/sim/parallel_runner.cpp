#include "sim/parallel_runner.hpp"

namespace soda::sim {

std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t index) noexcept {
  // splitmix64 over base ^ index: a single weak bit of difference between
  // replica indices diffuses across all 64 output bits.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ParallelRunner::ParallelRunner(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

}  // namespace soda::sim
