#include "sim/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace pastis::sim {

namespace {

[[noreturn]] void bad(const std::string& what, const std::string& text) {
  throw std::invalid_argument("FaultPlan: " + what + " in \"" + text + "\"");
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
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
    if (e.rank < 0) {
      throw std::invalid_argument("FaultPlan: event rank must be >= 0");
    }
    if (e.kind == FaultKind::kSlowdown && e.factor < 1.0) {
      throw std::invalid_argument(
          "FaultPlan: slowdown factor must be >= 1");
    }
    if (e.kind != FaultKind::kSlowdown && e.factor != 1.0) {
      throw std::invalid_argument(
          "FaultPlan: only slowdown events carry a factor");
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
    if (e.rank < 0 || e.rank >= nranks || e.time_triggered()) continue;
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
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::string tok = trimmed(
        text.substr(pos, semi == std::string::npos ? semi : semi - pos));
    pos = semi == std::string::npos ? text.size() + 1 : semi + 1;
    if (tok.empty()) continue;

    FaultEvent e;
    const std::size_t at = tok.find('@');
    const std::size_t colon = tok.find(':', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || colon == std::string::npos) {
      bad("expected kind@trigger:rank", tok);
    }
    const std::string kind = tok.substr(0, at);
    if (kind == "kill") {
      e.kind = FaultKind::kDeath;
    } else if (kind == "slow") {
      e.kind = FaultKind::kSlowdown;
    } else if (kind == "drop") {
      e.kind = FaultKind::kDropMessages;
    } else {
      bad("unknown fault kind '" + kind + "'", tok);
    }

    const std::string trig = tok.substr(at + 1, colon - at - 1);
    if (trig.size() < 2 || (trig[0] != 'b' && trig[0] != 't')) {
      bad("trigger must be b<batch> or t<seconds>", tok);
    }
    try {
      if (trig[0] == 'b') {
        e.at_batch = std::stoull(trig.substr(1));
      } else {
        e.at_time_s = std::stod(trig.substr(1));
        if (e.at_time_s < 0.0) bad("time trigger must be >= 0", tok);
      }
    } catch (const std::invalid_argument&) {
      bad("unparseable trigger value", tok);
    }

    std::string rest = tok.substr(colon + 1);
    if (rest.empty() || rest[0] != 'r') bad("rank must be r<id>", tok);
    rest = rest.substr(1);
    // r<digits> [x<factor>] [+<batches>]
    std::size_t i = 0;
    while (i < rest.size() &&
           std::isdigit(static_cast<unsigned char>(rest[i])) != 0) {
      ++i;
    }
    if (i == 0) bad("rank must be r<id>", tok);
    e.rank = std::stoi(rest.substr(0, i));
    rest = rest.substr(i);
    if (!rest.empty() && rest[0] == 'x') {
      const std::size_t plus = rest.find('+');
      const std::string f =
          rest.substr(1, plus == std::string::npos ? plus : plus - 1);
      try {
        e.factor = std::stod(f);
      } catch (const std::invalid_argument&) {
        bad("unparseable slowdown factor", tok);
      }
      rest = plus == std::string::npos ? std::string() : rest.substr(plus);
    }
    if (!rest.empty() && rest[0] == '+') {
      try {
        e.for_batches = std::stoull(rest.substr(1));
      } catch (const std::invalid_argument&) {
        bad("unparseable duration", tok);
      }
      rest.clear();
    }
    if (!rest.empty()) bad("trailing garbage '" + rest + "'", tok);
    plan.events.push_back(e);
  }
  plan.validate();
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char buf[64];
  for (const auto& e : events) {
    if (!out.empty()) out += ';';
    out += fault_kind_name(e.kind);
    out += '@';
    if (e.time_triggered()) {
      std::snprintf(buf, sizeof(buf), "t%g", e.at_time_s);
      out += buf;
    } else {
      out += 'b' + std::to_string(e.at_batch);
    }
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
