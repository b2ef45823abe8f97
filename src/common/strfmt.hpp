// Minimal printf-style string formatting (GCC 12 lacks <format>).
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>

namespace bgp {

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strfmt(const char* fmt, ...);

/// vprintf-style formatting into a std::string.
std::string vstrfmt(const char* fmt, std::va_list ap);

/// Human-readable byte count, e.g. "4.0 MiB".
std::string human_bytes(double bytes);

/// The body of a JSON string literal (RFC 8259), without the quotes:
/// quote, backslash, \n, \r and \t in their short forms, every other
/// control byte as \u00XX, and all other bytes as they are.
std::string json_escape(std::string_view s);

}  // namespace bgp
