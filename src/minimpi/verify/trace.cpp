#include "src/minimpi/verify/trace.hpp"

#include <cstddef>
#include <sstream>

#include "src/minimpi/error.hpp"
#include "src/util/json.hpp"

namespace minimpi::verify {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string Trace::to_json() const {
  std::ostringstream out;
  out << "{\n  \"version\": 1,\n  \"seed\": " << seed
      << ",\n  \"decisions\": [";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"step\": " << i << ", \"rank\": " << d.rank << ", \"op\": \""
        << d.op << "\", \"context\": " << d.context << ", \"tag\": " << d.tag
        << ", \"chose\": " << d.chose << ", \"candidates\": [";
    for (std::size_t c = 0; c < d.candidates.size(); ++c) {
      if (c != 0) out << ", ";
      out << d.candidates[c];
    }
    out << "], \"immediate\": " << (d.immediate ? "true" : "false") << "}";
  }
  out << (decisions.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Reader — walks the util/json document, rejecting unknown keys and any
// version other than 1.  Every failure names the byte offset of the input
// or value at fault.
// ---------------------------------------------------------------------------

namespace {

using mph::util::JsonValue;

[[noreturn]] void fail(std::size_t offset, const std::string& why) {
  throw Error(Errc::invalid_argument,
              "trace parse error at offset " + std::to_string(offset) + ": " +
                  why);
}

/// An integer field: a JSON number with no fraction.
long long integer(const JsonValue& v) {
  const long long n = v.as_int();
  if (static_cast<double>(n) != v.as_number()) {
    fail(v.offset(), "expected an integer");
  }
  return n;
}

Decision read_decision(const JsonValue& v) {
  Decision d;
  for (const auto& [key, value] : v.members()) {
    if (key == "step") {
      (void)integer(value);  // informational; order in the array is binding
    } else if (key == "rank") {
      d.rank = static_cast<rank_t>(integer(value));
    } else if (key == "op") {
      d.op = value.as_string();
    } else if (key == "context") {
      d.context = static_cast<context_t>(integer(value));
    } else if (key == "tag") {
      d.tag = static_cast<tag_t>(integer(value));
    } else if (key == "chose") {
      d.chose = static_cast<rank_t>(integer(value));
    } else if (key == "candidates") {
      for (const JsonValue& c : value.items()) {
        d.candidates.push_back(static_cast<rank_t>(integer(c)));
      }
    } else if (key == "immediate") {
      d.immediate = value.as_bool();
    } else {
      fail(value.offset(), "unknown decision key \"" + key + "\"");
    }
  }
  return d;
}

}  // namespace

Trace Trace::from_json(const std::string& text) {
  try {
    const JsonValue doc = JsonValue::parse(text);
    Trace trace;
    for (const auto& [key, value] : doc.members()) {
      if (key == "seed") {
        trace.seed = value.as_uint64();  // exact over the whole u64 range
      } else if (key == "version") {
        if (integer(value) != 1) {
          fail(value.offset(), "unsupported trace version " +
                                   std::to_string(integer(value)));
        }
      } else if (key == "decisions") {
        for (const JsonValue& d : value.items()) {
          trace.decisions.push_back(read_decision(d));
        }
      } else {
        fail(value.offset(), "unknown key \"" + key + "\"");
      }
    }
    return trace;
  } catch (const mph::util::JsonError& e) {
    fail(e.offset(), e.what());
  }
}

// ---------------------------------------------------------------------------
// Human-readable rendering
// ---------------------------------------------------------------------------

std::string Trace::to_string(
    const std::function<std::string(rank_t)>& label) const {
  const auto name = [&](rank_t r) {
    std::string who = label ? label(r) : std::string{};
    if (who.empty()) who = "rank";
    return who + "[" + std::to_string(r) + "]";
  };
  std::ostringstream out;
  out << "decision trace (" << decisions.size() << " step(s), seed " << seed
      << ")";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    out << "\n  #" << i << " " << name(d.rank) << " " << d.op << " <- "
        << name(d.chose) << " (context=" << d.context << ", tag=";
    if (d.tag == any_tag) {
      out << "*";
    } else {
      out << d.tag;
    }
    out << ") candidates={";
    for (std::size_t c = 0; c < d.candidates.size(); ++c) {
      if (c != 0) out << ",";
      out << d.candidates[c];
    }
    out << "}";
    if (d.immediate) out << " [immediate]";
  }
  return out.str();
}

}  // namespace minimpi::verify
