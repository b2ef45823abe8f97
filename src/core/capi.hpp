// C-flavoured facade mirroring the paper's function names exactly
// (BGP_Initialize / BGP_Start / BGP_Stop / BGP_Finalize operating on an
// ambient session, as application code on the real machine would call
// them). Bind a Session before Machine::run; ranks only read the ambient
// pointer, so sharing it across scheduler workers is safe.
#pragma once

#include "core/session.hpp"

namespace bgp::pc {

/// Bind/unbind the ambient session used by the free functions below.
void BGP_Bind(Session* session) noexcept;
[[nodiscard]] Session* BGP_Bound() noexcept;

void BGP_Initialize(rt::RankCtx& ctx);
void BGP_Start(rt::RankCtx& ctx, unsigned set = 0);
void BGP_Stop(rt::RankCtx& ctx, unsigned set = 0);
void BGP_Finalize(rt::RankCtx& ctx);

}  // namespace bgp::pc
