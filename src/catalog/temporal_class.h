#ifndef TEMPORADB_CATALOG_TEMPORAL_CLASS_H_
#define TEMPORADB_CATALOG_TEMPORAL_CLASS_H_

#include <string_view>

namespace temporadb {

/// The paper's four kinds of database (Figure 10), applied per relation.
///
/// Two orthogonal capabilities define the kind:
///  - *rollback* (the `as of` operation), which requires transaction time;
///  - *historical queries* (the `when`/`valid` constructs), which require
///    valid time.
///
/// |                    | no rollback | rollback        |
/// |--------------------|-------------|-----------------|
/// | static queries     | kStatic     | kRollback       |
/// | historical queries | kHistorical | kTemporal       |
enum class TemporalClass {
  kStatic = 0,      ///< Snapshot only; updates discard the past (§4.1).
  kRollback = 1,    ///< Static rollback: transaction time, append-only (§4.2).
  kHistorical = 2,  ///< Valid time, arbitrary correction, no rollback (§4.3).
  kTemporal = 3,    ///< Both times: a bitemporal relation (§4.4).
};

/// Interval vs. event relations (§4.5).  An *interval* relation's valid time
/// is a period `[from, to)`; an *event* relation's valid time is a single
/// chronon ("at"), e.g. the `promotion` relation of Figure 9.  The
/// distinction only matters for classes with valid time.
enum class TemporalDataModel {
  kInterval = 0,
  kEvent = 1,
};

/// "static", "rollback", "historical", "temporal".
std::string_view TemporalClassName(TemporalClass c);

/// "interval" or "event".
std::string_view TemporalDataModelName(TemporalDataModel m);

/// Figure 11, column "Transaction": does this kind maintain transaction
/// time?  Equivalent to supporting the rollback (`as of`) operation.
constexpr bool SupportsTransactionTime(TemporalClass c) {
  return c == TemporalClass::kRollback || c == TemporalClass::kTemporal;
}

/// Figure 11, column "Valid": does this kind maintain valid time?
/// Equivalent to supporting historical queries (`when`, `valid`).
constexpr bool SupportsValidTime(TemporalClass c) {
  return c == TemporalClass::kHistorical || c == TemporalClass::kTemporal;
}

/// §5: "DBMS's supporting rollback are append-only, whereas those not
/// supporting rollback allow updates of arbitrary information."
constexpr bool IsAppendOnly(TemporalClass c) {
  return SupportsTransactionTime(c);
}

/// The temporal class of a relation *derived* by a query over a relation of
/// class `c`:
///  - a rolled-back state of a rollback relation is "a pure static relation"
///    (§4.2);
///  - a historical query derives "also an historical relation, which may be
///    used in further historical queries" (§4.3);
///  - a temporal query derives "a temporal relation, so further temporal
///    relations can be derived from it" (§4.4).
constexpr TemporalClass DerivedClass(TemporalClass c) {
  switch (c) {
    case TemporalClass::kStatic:
    case TemporalClass::kRollback:
      return TemporalClass::kStatic;
    case TemporalClass::kHistorical:
      return TemporalClass::kHistorical;
    case TemporalClass::kTemporal:
      return TemporalClass::kTemporal;
  }
  return TemporalClass::kStatic;
}

/// The class of a relation produced by joining relations of classes `a` and
/// `b`: the meet in the capability lattice (a dimension survives only if
/// both inputs carry it).
constexpr TemporalClass MeetClass(TemporalClass a, TemporalClass b) {
  bool tt = SupportsTransactionTime(a) && SupportsTransactionTime(b);
  bool vt = SupportsValidTime(a) && SupportsValidTime(b);
  if (tt && vt) return TemporalClass::kTemporal;
  if (tt) return TemporalClass::kRollback;
  if (vt) return TemporalClass::kHistorical;
  return TemporalClass::kStatic;
}

}  // namespace temporadb

#endif  // TEMPORADB_CATALOG_TEMPORAL_CLASS_H_
