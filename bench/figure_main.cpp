// The figure driver's entry point: built once per figure binary with
// BGP_FIGURE naming its figure, and as `reproduce` with BGP_FIGURE="",
// which renders every figure from one deduplicated set of runs.
#include "bench/figures.hpp"

int main(int argc, char** argv) {
  return bgp::bench::run_figures(BGP_FIGURE, argc, argv);
}
