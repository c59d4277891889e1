// The JSON string escaper both exporters share (MetricsRegistry::to_json,
// Tracer::to_json). Internal to obs/; each exporter keeps its own rule for
// non-finite numbers.
#pragma once

#include <cstdio>
#include <ostream>
#include <string>

namespace pastis::obs {

/// Writes `s` to `os` as a quoted JSON string: quotes, backslashes,
/// newlines and tabs get their short escapes, other control characters
/// \u00XX.
inline void append_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace pastis::obs
