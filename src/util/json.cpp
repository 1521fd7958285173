#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace linuxfp::util {

namespace {
const Json& null_json() {
  static const Json kNull;
  return kNull;
}

// Graph objects have at most five keys; reserving on the first insert saves
// the vector's 1-2-4 growth steps.
constexpr std::size_t kObjectInitialCapacity = 8;
}  // namespace

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  if (entries_.empty()) entries_.reserve(kObjectInitialCapacity);
  entries_.emplace_back(key, Json{});
  return entries_.back().second;
}

const Json* JsonObject::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonObject::operator==(const JsonObject& other) const {
  return entries_ == other.entries_;
}

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&v_);
  return s ? *s : kEmpty;
}

const JsonObject& Json::object_items() const {
  static const JsonObject kEmpty;
  const JsonObject* o = std::get_if<JsonObject>(&v_);
  return o ? *o : kEmpty;
}

const JsonArray& Json::array_items() const {
  static const JsonArray kEmpty;
  const JsonArray* a = std::get_if<JsonArray>(&v_);
  return a ? *a : kEmpty;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) v_.emplace<JsonObject>();
  JsonObject* o = std::get_if<JsonObject>(&v_);
  LFP_CHECK_MSG(o != nullptr, "operator[] on non-object JSON");
  return (*o)[key];
}

const Json& Json::at(const std::string& key) const {
  const JsonObject* o = std::get_if<JsonObject>(&v_);
  const Json* found = o ? o->find(key) : nullptr;
  return found ? *found : null_json();
}

bool Json::contains(const std::string& key) const {
  const JsonObject* o = std::get_if<JsonObject>(&v_);
  return o != nullptr && o->contains(key);
}

void Json::push_back(Json v) {
  if (is_null()) v_.emplace<JsonArray>();
  JsonArray* a = std::get_if<JsonArray>(&v_);
  LFP_CHECK_MSG(a != nullptr, "push_back on non-array JSON");
  a->push_back(std::move(v));
}

std::size_t Json::size() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&v_)) return a->size();
  if (const JsonObject* o = std::get_if<JsonObject>(&v_)) return o->size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  const JsonArray* a = std::get_if<JsonArray>(&v_);
  if (a == nullptr || index >= a->size()) return null_json();
  return (*a)[index];
}

namespace {

// Appends `s` quoted, copying each run of plain characters in one append.
void escape_string(const std::string& s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    const char* escaped = nullptr;
    switch (c) {
      case '"': escaped = "\\\""; break;
      case '\\': escaped = "\\\\"; break;
      case '\n': escaped = "\\n"; break;
      case '\t': escaped = "\\t"; break;
      case '\r': escaped = "\\r"; break;
      default:
        if (c >= 0x20) continue;
    }
    out.append(s, run, i - run);
    if (escaped) {
      out += escaped;
    } else {
      const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out.append(u, sizeof(u));
    }
    run = i + 1;
  }
  out.append(s, run, std::string::npos);
  out += '"';
}

void append_number(double d, std::string& out) {
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    // The same digits as %lld.
    out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                  static_cast<long long>(d)).ptr);
  } else {
    int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
    out.append(buf, static_cast<std::size_t>(n));
  }
}

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool:
      out += *std::get_if<bool>(&v_) ? "true" : "false";
      break;
    case Type::kNumber: append_number(*std::get_if<double>(&v_), out); break;
    case Type::kString:
      escape_string(*std::get_if<std::string>(&v_), out);
      break;
    case Type::kArray: {
      const JsonArray& arr = *std::get_if<JsonArray>(&v_);
      out += '[';
      bool first = true;
      for (const auto& v : arr) {
        if (!first) out += indent >= 0 ? "," : ", ";
        first = false;
        if (indent >= 0) append_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0 && !arr.empty()) append_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const JsonObject& obj = *std::get_if<JsonObject>(&v_);
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out += indent >= 0 ? "," : ", ";
        first = false;
        if (indent >= 0) append_indent(out, indent, depth + 1);
        escape_string(k, out);
        out += ": ";
        v.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0 && !obj.empty()) append_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace linuxfp::util
