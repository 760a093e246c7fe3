#include "serve/trace.hpp"

#include <cmath>
#include <string>

#include "tensor/rng.hpp"

namespace ckv {

std::vector<ServeRequest> make_poisson_trace(const TraceConfig& config,
                                             std::uint64_t seed) {
  expects(config.num_requests > 0, "make_poisson_trace: need at least one request");
  expects(config.prompt_len_min > 0 && config.prompt_len_min <= config.prompt_len_max,
          "make_poisson_trace: bad prompt length range");
  expects(config.decode_len_min > 0 && config.decode_len_min <= config.decode_len_max,
          "make_poisson_trace: bad decode length range");
  expects(config.offered_rps >= 0.0,
          "make_poisson_trace: offered_rps must be >= 0 (0 = all at t=0)");

  Rng rng(derive_seed(seed, "serve/trace"));
  std::vector<ServeRequest> trace;
  trace.reserve(static_cast<std::size_t>(config.num_requests));
  double clock_ms = 0.0;
  for (Index i = 0; i < config.num_requests; ++i) {
    if (config.offered_rps > 0.0 && i > 0) {
      // Exponential inter-arrival gap with mean 1/rate seconds.
      const double u = rng.uniform();
      clock_ms += -std::log1p(-u) / config.offered_rps * 1000.0;
    }
    ServeRequest request;
    request.id = i;
    request.arrival_ms = clock_ms;
    request.prompt_len = rng.uniform_int(config.prompt_len_min, config.prompt_len_max);
    request.decode_len = rng.uniform_int(config.decode_len_min, config.decode_len_max);
    request.seed = derive_seed(seed, "serve/request/" + std::to_string(i));
    trace.push_back(request);
  }
  return trace;
}

}  // namespace ckv
