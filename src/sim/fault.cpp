#include "sim/fault.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace pastis::sim {

namespace {

constexpr auto npos = std::string_view::npos;

[[noreturn]] void bad(const std::string& what, std::string_view tok) {
  throw std::invalid_argument("FaultPlan: " + what + " in \"" +
                              std::string(tok) + "\"");
}

std::string_view trimmed(std::string_view s) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

/// Parses ALL of `field` into `out`: no sign on unsigned types, no leading
/// '+' or space, no trailing text, and no value outside T's range.
template <typename T>
bool parse_whole(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Why `e` is malformed, or nullptr.
const char* event_error(const FaultEvent& e) {
  if (e.rank < 0) return "event rank must be >= 0";
  if (e.kind == FaultKind::kSlowdown &&
      !(std::isfinite(e.factor) && e.factor >= 1.0)) {
    return "slowdown factor must be finite and >= 1";
  }
  if (e.kind != FaultKind::kSlowdown && e.factor != 1.0) {
    return "only slowdown events carry a factor";
  }
  return nullptr;
}

}  // namespace

int FaultSnapshot::next_alive(int rank) const {
  const int p = static_cast<int>(dead.size());
  for (int i = 0; i < p; ++i) {
    const int r = (rank + i) % p;
    if (dead[static_cast<std::size_t>(r)] == 0) return r;
  }
  return -1;
}

void FaultPlan::validate() const {
  for (const auto& e : events) {
    if (const char* why = event_error(e)) {
      throw std::invalid_argument(std::string("FaultPlan: ") + why);
    }
  }
}

FaultSnapshot FaultPlan::snapshot_at_batch(std::uint64_t batch,
                                           int nranks) const {
  FaultSnapshot s;
  const auto n = static_cast<std::size_t>(nranks);
  s.dead.assign(n, 0);
  s.slowdown.assign(n, 1.0);
  s.drop.assign(n, 0);
  for (const auto& e : events) {
    if (e.rank < 0 || e.rank >= nranks) continue;
    if (batch < e.at_batch) continue;
    const bool active =
        e.for_batches == 0 || batch < e.at_batch + e.for_batches;
    const auto r = static_cast<std::size_t>(e.rank);
    switch (e.kind) {
      case FaultKind::kDeath:
        s.dead[r] = 1;  // permanent regardless of for_batches
        break;
      case FaultKind::kSlowdown:
        if (active) s.slowdown[r] = std::max(s.slowdown[r], e.factor);
        break;
      case FaultKind::kDropMessages:
        if (active) s.drop[r] = 1;
        break;
    }
  }
  return s;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  const std::string_view all(text);
  std::size_t pos = 0;
  while (pos <= all.size()) {
    const std::size_t semi = all.find(';', pos);
    const std::string_view tok =
        trimmed(all.substr(pos, semi == npos ? npos : semi - pos));
    pos = semi == npos ? all.size() + 1 : semi + 1;
    if (tok.empty()) continue;

    // kind '@' 'b' batch ':' 'r' rank [ 'x' factor ] [ '+' batches ]
    const std::size_t at = tok.find('@');
    const std::size_t colon = tok.find(':', at == npos ? 0 : at);
    if (at == npos || colon == npos) bad("expected kind@b<batch>:r<rank>", tok);
    FaultEvent e;
    const std::string_view kind = tok.substr(0, at);
    if (kind == "kill") {
      e.kind = FaultKind::kDeath;
    } else if (kind == "slow") {
      e.kind = FaultKind::kSlowdown;
    } else if (kind == "drop") {
      e.kind = FaultKind::kDropMessages;
    } else {
      bad("unknown fault kind '" + std::string(kind) + "'", tok);
    }

    const std::string_view trig = tok.substr(at + 1, colon - at - 1);
    if (trig.empty() || trig[0] != 'b' ||
        !parse_whole(trig.substr(1), e.at_batch)) {
      bad("trigger must be b<batch>", tok);
    }
    std::string_view rest = tok.substr(colon + 1);
    if (const std::size_t plus = rest.find('+'); plus != npos) {
      if (!parse_whole(rest.substr(plus + 1), e.for_batches)) {
        bad("duration must be +<batches>", tok);
      }
      rest = rest.substr(0, plus);
    }
    if (const std::size_t x = rest.find('x'); x != npos) {
      if (!parse_whole(rest.substr(x + 1), e.factor)) {
        bad("factor must be x<number>", tok);
      }
      rest = rest.substr(0, x);
    }
    if (rest.empty() || rest[0] != 'r' || !parse_whole(rest.substr(1), e.rank)) {
      bad("rank must be r<id>", tok);
    }
    if (const char* why = event_error(e)) bad(why, tok);
    plan.events.push_back(e);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char buf[64];
  for (const auto& e : events) {
    if (!out.empty()) out += ';';
    out += fault_kind_name(e.kind);
    out += "@b" + std::to_string(e.at_batch);
    out += ":r" + std::to_string(e.rank);
    if (e.kind == FaultKind::kSlowdown) {
      std::snprintf(buf, sizeof(buf), "x%g", e.factor);
      out += buf;
    }
    if (e.for_batches != 0) out += '+' + std::to_string(e.for_batches);
  }
  return out;
}

}  // namespace pastis::sim
