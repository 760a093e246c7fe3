// Fixture: trips [std-sampler] — a standard-library distribution outside
// src/tensor/rng draws by an implementation-defined algorithm, so the same
// seed yields other values under another standard library.
#include <cstdint>
#include <random>

double fixture_draw(std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  return std::normal_distribution<double>(0.0, 1.0)(gen);
}
