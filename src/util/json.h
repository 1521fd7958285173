// Minimal JSON value model and writer.
//
// LinuxFP models the synthesized processing graph as JSON (paper §IV-C2,
// Fig 3); this module provides the representation the TopologyManager emits
// and the Synthesizer ingests. Object key order is preserved (insertion
// order) because the processing-graph keys are ordered FPM stages.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
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

 private:
  std::vector<std::pair<std::string, Json>> entries_;
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}                   // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}              // NOLINT
  Json(int i) : type_(Type::kNumber), num_(i) {}                 // NOLINT
  Json(std::int64_t i)                                            // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(std::uint64_t i)                                           // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}         // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(JsonArray a) : type_(Type::kArray), arr_(std::move(a)) {}     // NOLINT
  Json(JsonObject o) : type_(Type::kObject), obj_(std::move(o)) {}   // NOLINT

  static Json object() { return Json(JsonObject{}); }
  static Json array() { return Json(JsonArray{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    return is_number() ? static_cast<std::int64_t>(num_) : fallback;
  }
  const std::string& as_string() const { return str_; }

  // Object access. operator[] on a null value converts it to an object
  // (builder ergonomics); const lookup returns null for missing keys.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  // Array access.
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t index) const;

  const JsonObject& object_items() const { return obj_; }
  const JsonArray& array_items() const { return arr_; }

  // Serialization. indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  bool operator==(const Json& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

}  // namespace linuxfp::util
