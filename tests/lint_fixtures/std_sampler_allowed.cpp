// Fixture: same offense as std_sampler_violate.cpp, silenced by a
// standalone suppression covering the statement below.
#include <cstdint>
#include <random>

double fixture_draw(std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  // ckv-lint: allow(std-sampler) -- fixture exercising suppression
  return std::normal_distribution<double>(0.0, 1.0)(gen);
}
