#ifndef TEMPORADB_COMMON_VALUE_H_
#define TEMPORADB_COMMON_VALUE_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <variant>

#include "common/date.h"
#include "common/result.h"

namespace temporadb {

/// The dynamic type of a `Value`.
///
/// `kDate` is how temporadb realizes the paper's *user-defined time* (§4.5):
/// a date-typed attribute appears in the relation schema, is parsed and
/// printed by the DBMS, but is never interpreted by the query processor's
/// temporal machinery — exactly the "internal representation and input and
/// output functions" the paper prescribes.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kFloat = 2,
  kString = 3,
  kDate = 4,
  kBool = 5,
};

std::string_view ValueTypeName(ValueType t);

/// A dynamically typed cell value.
///
/// Values are ordered within a type (NULL compares less than everything);
/// cross-type comparisons other than int/float promotion are an error at
/// analysis time, so `operator<` here is a total order used by sort/join
/// machinery.
class Value {
 public:
  /// NULL.
  Value() : rep_(std::monostate{}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}
  explicit Value(Date v) : rep_(v) {}
  explicit Value(bool v) : rep_(v) {}

  static Value Null() { return Value(); }

  /// The alternatives of `rep_` are declared in `ValueType` order.
  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }

  /// Typed accessors; calling the wrong one is a programming error
  /// (asserted).  Use `type()` to dispatch.
  int64_t AsInt() const { return Get<int64_t>(); }
  double AsFloat() const { return Get<double>(); }
  const std::string& AsString() const { return Get<std::string>(); }
  Date AsDate() const { return Get<Date>(); }
  bool AsBool() const { return Get<bool>(); }

  /// Numeric view: ints promote to double; anything else is an error.
  Result<double> AsNumeric() const;

  /// Value equality (int 3 != float 3.0 unless compared via Compare).
  /// Floats follow the float order below: NaN equals NaN, -0.0 equals 0.0.
  friend bool operator==(const Value& a, const Value& b) {
    if (const double* x = std::get_if<double>(&a.rep_)) {
      if (const double* y = std::get_if<double>(&b.rep_)) {
        return *x == *y || (std::isnan(*x) && std::isnan(*y));
      }
    }
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order for container use: NULL < bool < int/float < string < date;
  /// int and float compare numerically against each other, exactly (an int
  /// is never rounded through a double).  NaN equals NaN and sorts above
  /// every number; -0.0 equals 0.0.
  friend bool operator<(const Value& a, const Value& b);

  /// SQL-style three-way comparison for the expression evaluator: returns
  /// InvalidArgument on incomparable types, otherwise -1/0/+1.  Numbers
  /// follow the order of `operator<`.
  static Result<int> Compare(const Value& a, const Value& b);

  /// FNV-1a hash combining type tag and payload; values equal under `==`
  /// hash equally (-0.0 as 0.0, every NaN alike).
  size_t Hash() const;

  /// Rendering used by result printers: strings unquoted, dates MM/DD/YY,
  /// NULL as "null".
  std::string ToString() const;

 private:
  template <typename T>
  const T& Get() const {
    assert(std::holds_alternative<T>(rep_));
    return *std::get_if<T>(&rep_);
  }

  std::variant<std::monostate, int64_t, double, std::string, Date, bool> rep_;
};

/// Hash functor for unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace temporadb

#endif  // TEMPORADB_COMMON_VALUE_H_
