#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace linuxfp::util {

namespace {
const Json& null_json() {
  static const Json kNull;
  return kNull;
}
}  // namespace

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  entries_.emplace_back(key, Json{});
  return entries_.back().second;
}

const Json* JsonObject::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  LFP_CHECK_MSG(type_ == Type::kObject, "operator[] on non-object JSON");
  return obj_[key];
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) return null_json();
  const Json* found = obj_.find(key);
  return found ? *found : null_json();
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && obj_.contains(key);
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  LFP_CHECK_MSG(type_ == Type::kArray, "push_back on non-array JSON");
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::kArray || index >= arr_.size()) return null_json();
  return arr_[index];
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return num_ == other.num_;
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return arr_ == other.arr_;
    case Type::kObject: {
      if (obj_.size() != other.obj_.size()) return false;
      auto it = other.obj_.begin();
      for (const auto& [k, v] : obj_) {
        if (k != it->first || !(v == it->second)) return false;
        ++it;
      }
      return true;
    }
  }
  return false;
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(double d, std::string& out) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(num_, out); break;
    case Type::kString: escape_string(str_, out); break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += indent >= 0 ? "," : ", ";
        first = false;
        if (indent >= 0) append_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0 && !arr_.empty()) append_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += indent >= 0 ? "," : ", ";
        first = false;
        if (indent >= 0) append_indent(out, indent, depth + 1);
        escape_string(k, out);
        out += ": ";
        v.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0 && !obj_.empty()) append_indent(out, indent, depth);
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
