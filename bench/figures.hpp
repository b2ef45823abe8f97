// The paper's figures as data: Fig 3, Figs 6-14 and the section IX
// prefetch ablation, each naming the runs it needs and rendering its table
// and shape check from their outputs.
#pragma once

#include <string_view>

namespace bgp::bench {

/// Render the figure whose binary is named `only`, or every figure when
/// `only` is empty, at --nodes/--class from argv (an absent flag keeps each
/// figure's default). Runs each distinct nas::RunSpec once and prints "N
/// distinct runs for M requested" on stderr. Returns 2 if `only` names no
/// figure, 1 if a shape check fails or a run a rendered figure uses fails
/// verification, else 0.
int run_figures(std::string_view only, int argc, char** argv);

}  // namespace bgp::bench
