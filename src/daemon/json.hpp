// Minimal JSON value type for the daemon's newline-delimited control
// protocol and the /sessions listing. Deliberately tiny: objects keep
// insertion order (deterministic wire bytes), numbers are doubles (every
// quantity on the wire — ranks, seeds, cycle periods — fits in the 2^53
// exact-integer range), and parse errors throw with a byte offset. No
// external dependency, matching the repo's no-new-deps rule.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bgp::daemon::json {

/// Deepest array/object nesting Value::parse accepts. Nothing the daemon
/// writes comes close; the bound keeps a hostile request from exhausting
/// the recursive parser's stack.
inline constexpr unsigned kMaxDepth = 64;

/// Malformed input (parse) or type mismatch (as_* accessors).
struct JsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  enum class Type : u8 { kNull, kBool, kNumber, kString, kObject, kArray };

  Value() = default;  // null
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), num_(n) {}
  explicit Value(u64 n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  explicit Value(int n) : type_(Type::kNumber), num_(n) {}
  explicit Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  explicit Value(const char* s) : type_(Type::kString), str_(s) {}

  [[nodiscard]] static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }
  [[nodiscard]] static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  /// as_number() checked to be a non-negative whole value that fits u64.
  [[nodiscard]] u64 as_u64() const;

  // ---- object access ------------------------------------------------------
  /// Sets (or replaces) a member; turns a null value into an object.
  Value& set(std::string key, Value v);
  /// Member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* get(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const noexcept {
    return members_;
  }

  // ---- array access -------------------------------------------------------
  /// Appends an element; turns a null value into an array.
  Value& push(Value v);
  [[nodiscard]] const std::vector<Value>& items() const noexcept {
    return items_;
  }

  /// Compact one-line serialization (the wire format — one value per line).
  [[nodiscard]] std::string dump() const;

  /// Parse a complete JSON document; trailing junk, and nesting deeper than
  /// kMaxDepth, are errors.
  [[nodiscard]] static Value parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<std::pair<std::string, Value>> members_;
  std::vector<Value> items_;
};

}  // namespace bgp::daemon::json
