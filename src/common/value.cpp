#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>

namespace temporadb {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kFloat:
      return "float";
    case ValueType::kString:
      return "string";
    case ValueType::kDate:
      return "date";
    case ValueType::kBool:
      return "bool";
  }
  return "unknown";
}

Result<double> Value::AsNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kFloat:
      return AsFloat();
    default:
      return Status::InvalidArgument(std::string("value of type ") +
                                     std::string(ValueTypeName(type())) +
                                     " is not numeric");
  }
}

namespace {

// Rank for the cross-type total order.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kFloat:
      return 2;
    case ValueType::kString:
      return 3;
    case ValueType::kDate:
      return 4;
  }
  return 5;
}

// An int against a float, exactly: the int is never rounded to a double.
// A float of magnitude 2^63 or more lies beyond every int; below that its
// integral part converts to int64 without loss, and the fraction breaks a
// tie.  NaN sorts above every int.
int CompareIntFloat(int64_t i, double d) {
  if (std::isnan(d)) return -1;
  constexpr double kTwo63 = 9223372036854775808.0;
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  const double whole = std::trunc(d);
  const int64_t w = static_cast<int64_t>(whole);
  if (i != w) return i < w ? -1 : 1;
  return whole < d ? -1 : (whole > d ? 1 : 0);
}

// Three-way numeric comparison of two int/float values: exact for every
// int-int and int-float pair; NaN equals NaN and sorts above every number
// (PostgreSQL's float order), and -0.0 equals 0.0.
int CompareNumeric(const Value& a, const Value& b) {
  const bool ai = a.type() == ValueType::kInt;
  const bool bi = b.type() == ValueType::kInt;
  if (ai && bi) {
    return a.AsInt() < b.AsInt() ? -1 : (a.AsInt() > b.AsInt() ? 1 : 0);
  }
  if (ai) return CompareIntFloat(a.AsInt(), b.AsFloat());
  if (bi) return -CompareIntFloat(b.AsInt(), a.AsFloat());
  const double x = a.AsFloat(), y = b.AsFloat();
  if (std::isnan(x) || std::isnan(y)) {
    return std::isnan(x) == std::isnan(y) ? 0 : (std::isnan(x) ? 1 : -1);
  }
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace

bool operator<(const Value& a, const Value& b) {
  int ra = TypeRank(a.type());
  int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb;
  switch (a.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return a.AsBool() < b.AsBool();
    case ValueType::kInt:
    case ValueType::kFloat:
      return CompareNumeric(a, b) < 0;
    case ValueType::kString:
      return a.AsString() < b.AsString();
    case ValueType::kDate:
      return a.AsDate() < b.AsDate();
  }
  return false;
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  ValueType ta = a.type(), tb = b.type();
  bool numeric = (ta == ValueType::kInt || ta == ValueType::kFloat) &&
                 (tb == ValueType::kInt || tb == ValueType::kFloat);
  if (ta != tb && !numeric) {
    return Status::InvalidArgument(
        std::string("cannot compare ") + std::string(ValueTypeName(ta)) +
        " with " + std::string(ValueTypeName(tb)));
  }
  if (numeric) return CompareNumeric(a, b);
  switch (ta) {
    case ValueType::kBool:
      return a.AsBool() == b.AsBool() ? 0 : (a.AsBool() < b.AsBool() ? -1 : 1);
    case ValueType::kString: {
      int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kDate:
      return a.AsDate() == b.AsDate() ? 0 : (a.AsDate() < b.AsDate() ? -1 : 1);
    default:
      return Status::Internal("unhandled comparison type");
  }
}

size_t Value::Hash() const {
  constexpr size_t kFnvOffset = 1469598103934665603ULL;
  constexpr size_t kFnvPrime = 1099511628211ULL;
  auto mix = [](size_t h, uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xff;
      h *= kFnvPrime;
    }
    return h;
  };
  size_t h = kFnvOffset;
  h = mix(h, static_cast<uint64_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      h = mix(h, AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      h = mix(h, static_cast<uint64_t>(AsInt()));
      break;
    case ValueType::kFloat: {
      // One hash per equal class: -0.0 hashes as 0.0, every NaN alike.
      double d = AsFloat();
      if (d == 0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      h = mix(h, bits);
      break;
    }
    case ValueType::kString:
      for (char c : AsString()) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
      }
      break;
    case ValueType::kDate:
      h = mix(h, static_cast<uint64_t>(AsDate().chronon().days()));
      break;
  }
  return h;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kFloat: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", AsFloat());
      return buf;
    }
    case ValueType::kString:
      return AsString();
    case ValueType::kDate:
      return AsDate().ToString();
  }
  return "?";
}

}  // namespace temporadb
