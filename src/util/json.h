// Minimal JSON value model and writer.
//
// LinuxFP models the synthesized processing graph as JSON (paper §IV-C2,
// Fig 3); this module provides the representation the TopologyManager emits
// and the Synthesizer ingests. Object key order is preserved (insertion
// order) because the processing-graph keys are ordered FPM stages.
//
// A value holds only its active alternative (a std::variant whose index is
// the Type), so copying or moving it touches one payload and a move is a
// few pointer swaps. Builders should move finished sub-trees into place
// (`parent["conf"] = std::move(conf)`) rather than copy them: a copy is deep.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace linuxfp::util {

class Json;
using JsonArray = std::vector<Json>;

// Insertion-ordered string map.
class JsonObject {
 public:
  Json& operator[](const std::string& key);
  const Json* find(const std::string& key) const;
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

  bool operator==(const JsonObject& other) const;

 private:
  std::vector<std::pair<std::string, Json>> entries_;
};

class Json {
 public:
  // Matches the variant index of the payload.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}                                          // NOLINT
  Json(bool b) : v_(std::in_place_index<1>, b) {}                  // NOLINT
  Json(double d) : v_(std::in_place_index<2>, d) {}                // NOLINT
  Json(int i) : Json(static_cast<double>(i)) {}                    // NOLINT
  Json(std::int64_t i) : Json(static_cast<double>(i)) {}           // NOLINT
  Json(std::uint64_t i) : Json(static_cast<double>(i)) {}          // NOLINT
  Json(const char* s) : v_(std::in_place_index<3>, s) {}           // NOLINT
  Json(std::string s) : v_(std::in_place_index<3>, std::move(s)) {}  // NOLINT
  Json(JsonArray a) : v_(std::in_place_index<4>, std::move(a)) {}    // NOLINT
  Json(JsonObject o) : v_(std::in_place_index<5>, std::move(o)) {}   // NOLINT

  static Json object() { return Json(JsonObject{}); }
  static Json array() { return Json(JsonArray{}); }

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool(bool fallback = false) const {
    const bool* b = std::get_if<bool>(&v_);
    return b ? *b : fallback;
  }
  double as_number(double fallback = 0.0) const {
    const double* d = std::get_if<double>(&v_);
    return d ? *d : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    const double* d = std::get_if<double>(&v_);
    return d ? static_cast<std::int64_t>(*d) : fallback;
  }
  // as_string(), object_items() and array_items() on another kind return
  // a static empty value.
  const std::string& as_string() const;

  // Object access. operator[] on a null value converts it to an object
  // (builder ergonomics); const lookup returns null for missing keys.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  // Array access.
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t index) const;

  const JsonObject& object_items() const;
  const JsonArray& array_items() const;
  // The elements of an array the caller owns, to move sub-trees out of;
  // null when the value is not an array.
  JsonArray* mutable_array() { return std::get_if<JsonArray>(&v_); }

  // Serialization. indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  bool operator==(const Json& other) const { return v_ == other.v_; }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::monostate, bool, double, std::string, JsonArray,
               JsonObject>
      v_;
};

}  // namespace linuxfp::util
