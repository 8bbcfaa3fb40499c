#!/usr/bin/env python3
"""tdb_analyze — AST-level semantic analyzer for temporadb's engine invariants.

`tools/tdb_lint.py` polices the repo's discipline rules with regexes; regexes
are rename-fragile and blind to aliasing, wrappers, and memory-order
arguments.  This tool re-implements the discipline rules at the AST/type
level with libclang (`clang.cindex`), driven by the compile_commands.json
CMake exports, and adds checks a regex cannot express at all.

Rules (names are stable; they appear in findings and suppressions):

  append-only       The paper's §5 rule ("DBMSs supporting rollback are
                    append-only") by *symbol*: any call path from
                    rollback/temporal relation code that reaches a
                    history-destroying VersionStore mutation
                    (PhysicalUpdate / PhysicalDelete / Raw* / CorrectErase)
                    is flagged, including calls laundered through wrappers
                    or helpers defined in the same translation unit.

  seal-discipline   Writes to sealed-partition state (the `sealed_`
                    directory, `sealed_rows_`, `sealed_count_`, a synopsis's
                    mutable trio, the sealed chronon columns) are resolved
                    to the member actually written and checked against the
                    closed set of sanctioned VersionStore entry points —
                    the enclosing function comes from the AST, not brace
                    counting.

  mvcc-memory-order Every load/store/RMW on an atomic in src/ must spell
                    its std::memory_order (defaulted seq_cst is flagged:
                    either the sequential consistency is load-bearing and
                    must be written down, or it is an accidental fence on a
                    hot path).  For the MVCC coordination sites — the
                    publish seqlock, the Dekker correction fence, the
                    synopsis mutable trio, the shared chronon columns, the
                    published watermarks — the ordering must match the
                    sanctioned protocol for that site (e.g. the
                    release-decrement-last on `current_rows`).  The `mvcc::`
                    wrapper bodies are checked against their own names.

  chronon-arith     Raw int64 arithmetic on chronon-typed values (operands
                    marked by `Chronon::days()`, `Chronon::Rep`, the
                    sentinel reps, or the chronon column/synopsis fields)
                    is confined to common/chronon.* and temporal/kernels.*.
                    Everywhere else must use the saturating Chronon
                    operators — re-deriving the pre-saturation overflow UB
                    in a new file is exactly what this rule exists to stop.

  result-discipline `Result<T>::value()` in a function that never checks
                    `ok()` on that result object (the assert inside value()
                    compiles out in release builds), and discarded calls
                    returning `Status&` / `const Status&` — the reference
                    return launders away the [[nodiscard]] on Status.

  scan-prune        Every `Scan*` / `BatchScan*` / `*Snapshot` entry point
                    of VersionStore must reach `PruneRanges` (transitively,
                    through the scan constructors) so a new access path
                    cannot silently bypass partition pruning; where a
                    function both prunes and forms chunk geometry
                    (`RangeChunks`), the prune must come first.

  kernel-purity     temporal/kernels.* stays free of virtual dispatch, heap
                    allocation (new/delete/malloc), exception edges
                    (throw/try), and boxed `Value`/`Period` types — the
                    kernels exist to touch nothing but flat arrays.

Output format (shared with tdb_lint.py, machine-parseable):

    file:line: rule-name: message

Suppressions: a finding on line L is suppressed by a comment on line L or
L-1 of the form

    // tdb-analyze-allow(rule-name): reason

The reason is mandatory; an empty reason is itself reported (rule
`bad-suppression`).  Suppression is per-rule, not blanket.

Exit status: 0 clean · 1 findings · 2 usage/parse error · 3 libclang
unavailable (callers like tdb_lint.py use 3 to fall back to the regex path).

Usage:
    tools/tdb_analyze.py [-p BUILD_DIR] [--rules r1,r2] [--files f.cpp ...]
    tools/tdb_analyze.py --probe
    tools/tdb_analyze.py --single FILE --treat-as src/... -- -std=c++20 ...

The parse/findings cache (--cache-dir, default BUILD_DIR/.tdb-analyze-cache)
keys each translation unit on the analyzer version, the rule set, the
compile flags, and the content hash of the main file plus every repo-local
header it pulled in last time — an untouched TU replays its findings
without re-parsing, so CI reruns are incremental.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ANALYZER_VERSION = "1"  # Bump to invalidate every cache entry.

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
EXIT_NO_CLANG = 3

ALL_RULES = (
    "append-only",
    "seal-discipline",
    "mvcc-memory-order",
    "chronon-arith",
    "result-discipline",
    "scan-prune",
    "kernel-purity",
)

# ---------------------------------------------------------------------------
# libclang discovery
# ---------------------------------------------------------------------------

_cindex = None
_cindex_error = None


def load_cindex():
    """Imports clang.cindex and resolves a usable libclang shared library.

    Resolution order: TDB_LIBCLANG env var, the binding's own default, then
    versioned system locations (preferring the version that matches the
    binding, so cursor kinds stay in sync).  Returns the module or None.
    """

    global _cindex, _cindex_error
    if _cindex is not None or _cindex_error is not None:
        return _cindex
    try:
        from clang import cindex
    except ImportError as e:
        _cindex_error = f"python clang bindings not importable: {e}"
        return None

    def usable() -> bool:
        try:
            cindex.Index.create()
            return True
        except Exception:
            # A failed load latches inside cindex; clear it for the retry.
            cindex.Config.loaded = False
            return False

    env = os.environ.get("TDB_LIBCLANG")
    if env:
        cindex.Config.set_library_file(env)
        if not usable():
            _cindex_error = f"TDB_LIBCLANG={env} did not load"
            return None
        _cindex = cindex
        return _cindex

    if usable():
        _cindex = cindex
        return _cindex

    candidates: list[str] = []
    for pattern in (
        "/usr/lib/llvm-*/lib/libclang-*.so*",
        "/usr/lib/llvm-*/lib/libclang.so*",
        "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
        "/usr/lib/libclang*.so*",
    ):
        candidates.extend(str(p) for p in Path("/").glob(pattern.lstrip("/")))
    # libclang-cpp is the C++ interface, not the C API cindex binds to.
    candidates = [c for c in candidates if "libclang-cpp" not in c]
    binding_ver = re.search(r"(\d+)", getattr(cindex, "__file__", "") or "")
    candidates.sort(
        key=lambda c: (0 if binding_ver and binding_ver.group(1) in c else 1, c))
    for cand in candidates:
        cindex.Config.set_library_file(cand)
        if usable():
            _cindex = cindex
            return _cindex
    _cindex_error = ("no usable libclang shared library found "
                     "(set TDB_LIBCLANG=/path/to/libclang.so)")
    return None


def cindex_unavailable_reason() -> str:
    return _cindex_error or "libclang unavailable"


# ---------------------------------------------------------------------------
# Findings and suppressions
# ---------------------------------------------------------------------------

class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path          # Repo-relative (or fixture-relative) path.
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule, self.message)

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


SUPPRESS_RE = re.compile(
    r"//\s*tdb-analyze-allow\(([a-z0-9-]+)\)\s*(?::\s*(.*?))?\s*$")


def scan_suppressions(text: str):
    """Returns ({(line, rule)}, [bad-suppression Finding lines]) for a file's
    text.  A suppression on line L covers findings on L and L+1."""

    allowed: set[tuple[int, str]] = set()
    bad: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), (m.group(2) or "").strip()
        if not reason:
            bad.append((lineno, rule))
            continue
        allowed.add((lineno, rule))
        allowed.add((lineno + 1, rule))
    return allowed, bad


def apply_suppressions(findings, file_texts):
    """Filters suppressed findings; appends bad-suppression findings."""

    out = []
    suppress_cache: dict[str, tuple[set, list]] = {}
    for f in findings:
        text = file_texts.get(f.path)
        if text is None:
            out.append(f)
            continue
        if f.path not in suppress_cache:
            suppress_cache[f.path] = scan_suppressions(text)
        allowed, _ = suppress_cache[f.path]
        if (f.line, f.rule) not in allowed:
            out.append(f)
    for path, text in file_texts.items():
        if path not in suppress_cache:
            suppress_cache[path] = scan_suppressions(text)
        for lineno, rule in suppress_cache[path][1]:
            out.append(Finding(
                path, lineno, "bad-suppression",
                f"tdb-analyze-allow({rule}) without a reason; a suppression "
                "must say why the rule does not apply here"))
    return out


# ---------------------------------------------------------------------------
# Rule configuration tables
# ---------------------------------------------------------------------------

# Rule: append-only.  Entry contexts and forbidden mutation symbols.
APPEND_ONLY_CLASSES = {"RollbackRelation", "TemporalRelation"}
APPEND_ONLY_FILES = {
    "src/temporal/rollback_relation.h",
    "src/temporal/rollback_relation.cpp",
    "src/temporal/temporal_relation.h",
    "src/temporal/temporal_relation.cpp",
}
FORBIDDEN_MUTATIONS = {
    "PhysicalDelete", "PhysicalUpdate",
    "RawPhysicalDelete", "RawPhysicalUpdate", "CorrectErase",
}

# Rule: seal-discipline.  Per mutation class, the closed set of VersionStore
# member functions allowed to perform it (mirrors tdb_lint.py rule 6).
SEAL_DIRECTORY_ALLOWED = {
    "MaybeSealHot", "RawUnappend", "InstallSealedPartitions",
    "RepatchSealedSynopsis", "CompactTombstones",
}
SEAL_TRIO_ALLOWED = {"OnRowClosed", "OnRowReopened"}
SEAL_COLUMN_ALLOWED = {"RawCloseTxn", "RawReopenTxn"}
SEAL_DIRECTORY_MEMBERS = {"sealed_", "sealed_rows_", "sealed_count_"}
SYNOPSIS_TRIO = {"current_rows", "max_finite_tt_end", "last_close_seq"}
SEALED_COLUMN_RE = re.compile(r"^col_\w+_$")
SEAL_FILE = "src/temporal/version_store.cpp"

# Rule: mvcc-memory-order.  Sanctioned orderings per site and operation
# class.  Sites are identified by the innermost declaration the operation's
# object expression resolves to — renames and aliases still resolve here,
# text spelling does not matter.  Missing op class => that op is forbidden
# on the site outright.
MEMORY_ORDER_SITES: dict[str, dict[str, set[str]]] = {
    # Publish seqlock: writers bracket publication with seq_cst increments;
    # readers acquire-load to pair with the release half of the bracket and
    # seq_cst-load for the torn-capture recheck.
    "publish_word": {"load": {"acquire", "seq_cst"}, "rmw": {"seq_cst"}},
    # Commit sequence: published under the seqlock with release; readers
    # acquire; the writer's own stamping path may read relaxed (it is the
    # only mutator).
    "commit_seq": {"load": {"acquire", "relaxed"}, "rmw": {"release"}},
    "last_commit_ts": {"load": {"acquire"}, "store": {"release"}},
    # Dekker correction fence: both sides must be seq_cst or the "at least
    # one observes the other" argument collapses.
    "active_snapshots": {"load": {"seq_cst"}, "rmw": {"seq_cst"}},
    "correcting": {"load": {"seq_cst"}, "store": {"seq_cst"},
                   "rmw": {"seq_cst"}},
    # Published row watermarks: release store, acquire load (writer-side
    # rereads may be relaxed).
    "committed_rows_": {"load": {"acquire", "relaxed"}, "store": {"release"}},
    "sealed_count_": {"load": {"acquire", "relaxed"}, "store": {"release"}},
    # Synopsis mutable trio: monotone maxes relaxed, currency decrement
    # release-last; readers acquire current_rows then read the maxes
    # relaxed.
    "current_rows": {"load": {"acquire", "relaxed"}, "store": {"release"}},
    "max_finite_tt_end": {"load": {"relaxed", "acquire"},
                          "store": {"relaxed"}},
    "last_close_seq": {"load": {"relaxed"}, "store": {"relaxed"}},
    # Shared chronon columns: the tt_end close is the release publication;
    # its sequence stamp rides before it relaxed.
    "col_tt_end_": {"load": {"acquire", "relaxed"}, "store": {"release"}},
    "col_close_seq_": {"load": {"relaxed"}, "store": {"relaxed"}},
    # Stable-storage directory/buffer pointers: release publish, acquire on
    # the reader accessors, relaxed on writer-private rereads.
    "dir_": {"load": {"acquire", "relaxed"}, "store": {"release"}},
    "data_": {"load": {"acquire", "relaxed"}, "store": {"release"}},
}

MVCC_WRAPPERS = {
    "LoadAcquire": ("load", "acquire"),
    "LoadRelaxed": ("load", "relaxed"),
    "StoreRelease": ("store", "release"),
    "StoreRelaxed": ("store", "relaxed"),
}

ATOMIC_OPS = {
    "load": "load", "store": "store",
    "exchange": "rmw", "fetch_add": "rmw", "fetch_sub": "rmw",
    "fetch_and": "rmw", "fetch_or": "rmw", "fetch_xor": "rmw",
    "compare_exchange_weak": "rmw", "compare_exchange_strong": "rmw",
}
# Overloaded operators on std::atomic are sugar for seq_cst ops.
ATOMIC_OPERATOR_SUGAR = {
    "operator=", "operator++", "operator--", "operator+=", "operator-=",
    "operator&=", "operator|=", "operator^=",
}

# Rule: chronon-arith.  Files allowed to do raw rep arithmetic, and the
# declarations whose reference marks an expression as chronon-typed.
CHRONON_SANCTIONED = {
    "src/common/chronon.h", "src/common/chronon.cpp",
    "src/temporal/kernels.h", "src/temporal/kernels.cpp",
}
CHRONON_FIELDS = {
    "col_valid_from_", "col_valid_to_", "col_tt_start_", "col_tt_end_",
    "min_valid_from", "max_valid_to", "min_tt_start", "max_finite_tt_end",
    "kForeverRep", "kBeginningRep",
}
CHRONON_ACCESSORS = {
    "days", "chronon_valid_from", "chronon_valid_to", "chronon_tt_start",
    "chronon_tt_end",
}
ARITH_BINOPS = {"+", "-", "*", "/", "%"}
ARITH_ASSIGN = {"+=", "-=", "*=", "/=", "%="}

# Rule: scan-prune.
SCAN_ENTRY_RE = re.compile(r"^(Scan|BatchScan)\w*$|^\w*Snapshot$")
SCAN_FILE = "src/temporal/version_store.cpp"

# Rule: kernel-purity.
KERNEL_FILES = {"src/temporal/kernels.h", "src/temporal/kernels.cpp"}
HEAP_FUNCTIONS = {"malloc", "calloc", "realloc", "free",
                  "operator new", "operator new[]",
                  "operator delete", "operator delete[]"}
BOXED_TYPE_RE = re.compile(r"\b(Value|Period)\b")


# ---------------------------------------------------------------------------
# AST helpers (libclang)
# ---------------------------------------------------------------------------

def qualified_name(cursor) -> str:
    """`temporadb::VersionStore::PruneRanges` style name via semantic
    parents."""

    ci = _cindex
    parts = []
    c = cursor
    while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def enclosing_function(stack):
    """Innermost named function on the visit stack (lambdas attribute to
    their enclosing named function, which is what the discipline rules
    mean by 'entry point')."""

    ci = _cindex
    fn_kinds = (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                ci.CursorKind.CONVERSION_FUNCTION,
                ci.CursorKind.FUNCTION_TEMPLATE)
    for c in reversed(stack):
        if c.kind in fn_kinds:
            return c
    return None


def deepest_decl_ref(cursor):
    """The declaration an object expression resolves to — `&s.current_rows`,
    `col_tt_end_.data() + row`, `sealed_[i].current_rows`, `pins[i]`, and
    plain `stop` all resolve to the member/variable that names the site.
    The *outermost* data-member reference wins (in `sealed_[i].current_rows`
    the written site is `current_rows`; the DFS visits parents before
    children, so the first data member seen is the outermost); method
    references (`.store`, `.operator[]`) are skipped.  Falls back to the
    first plain variable/param reference for non-member atomics."""

    ci = _cindex
    data_kinds = (ci.CursorKind.FIELD_DECL, ci.CursorKind.VAR_DECL,
                  ci.CursorKind.PARM_DECL)
    member = None
    decl = None
    stack = [cursor]
    while stack:
        c = stack.pop()
        if c.kind == ci.CursorKind.MEMBER_REF_EXPR and \
                c.referenced is not None and c.referenced.kind in data_kinds:
            if member is None:
                member = c.referenced
        elif c.kind == ci.CursorKind.DECL_REF_EXPR and \
                c.referenced is not None:
            if decl is None and c.referenced.kind in data_kinds:
                decl = c.referenced
        stack.extend(reversed(list(c.get_children())))
    return member if member is not None else decl


def call_site_decl(call):
    """Site declaration for a call-like expression, robust to both child
    layouts libclang produces: member calls put the MEMBER_REF_EXPR first,
    operator-call syntax (`stop = true`) puts a function DECL_REF_EXPR
    first with the operands after it.  Returns the first child that
    resolves to a data declaration."""

    for ch in call.get_children():
        d = deepest_decl_ref(ch)
        if d is not None:
            return d
    return None


def identifier_tokens(cursor):
    ci = _cindex
    return [t.spelling for t in cursor.get_tokens()
            if t.kind == ci.TokenKind.IDENTIFIER]


def call_memory_order(call) -> str:
    """'relaxed' | 'acquire' | ... | 'defaulted' | 'unknown' for an atomic
    member call.  An omitted order shows up either as a missing written
    argument or as a token-less CXXDefaultArgExpr, depending on the libclang
    version; both read as defaulted here."""

    orders = []
    for arg in call.get_arguments():
        toks = identifier_tokens(arg)
        for t in toks:
            if t.startswith("memory_order"):
                orders.append(t[len("memory_order_"):])
    if not orders:
        return "defaulted"
    if len(orders) == 1 or len(set(orders)) == 1:
        return orders[0]
    # compare_exchange takes success+failure orders; report the weaker
    # (failure) one is ambiguous — just surface the first.
    return orders[0]


def binary_op_spelling(cursor, lines_cache) -> str:
    """The operator token of a BINARY_OPERATOR / COMPOUND_ASSIGNMENT
    cursor.  libclang 14 does not expose the opcode, so read the token in
    the gap between the two operand extents."""

    children = list(cursor.get_children())
    if len(children) != 2:
        return ""
    lhs_end = children[0].extent.end.offset
    rhs_start = children[1].extent.start.offset
    for tok in cursor.get_tokens():
        off = tok.extent.start.offset
        if lhs_end <= off < rhs_start and tok.spelling in (
                ARITH_BINOPS | ARITH_ASSIGN |
                {"=", "<", ">", "<=", ">=", "==", "!=", "&&", "||", "<<",
                 ">>", "&", "|", "^"}):
            return tok.spelling
    return ""


def subtree_contains_chronon_mark(cursor) -> bool:
    """True when an operand expression references a chronon-typed entity:
    a `days()`/column-accessor call, a `Chronon::Rep`-declared entity, a
    sentinel rep constant, or one of the chronon column/synopsis fields."""

    ci = _cindex
    stack = [cursor]
    while stack:
        c = stack.pop()
        if c.kind in (ci.CursorKind.MEMBER_REF_EXPR,
                      ci.CursorKind.DECL_REF_EXPR):
            ref = c.referenced
            name = c.spelling
            if name in CHRONON_FIELDS:
                return True
            if ref is not None:
                tspell = ref.type.spelling if ref.type else ""
                if "Chronon::Rep" in tspell or tspell.endswith("::Rep"):
                    return True
        elif c.kind == ci.CursorKind.CALL_EXPR:
            if c.spelling in CHRONON_ACCESSORS:
                return True
        stack.extend(c.get_children())
    return False


# ---------------------------------------------------------------------------
# Per-TU analysis
# ---------------------------------------------------------------------------

class TuContext:
    """Everything the rules need from one parsed translation unit."""

    def __init__(self, tu, main_path: str, effective_path: str, repo: Path,
                 rules: set[str]):
        self.tu = tu
        self.main_path = main_path            # Absolute, as parsed.
        self.effective_path = effective_path  # Repo-relative rule-scope path.
        self.repo = repo
        self.rules = rules
        self.findings: list[Finding] = []
        # Call graph over functions defined in this TU:
        #   caller USR -> [(callee USR, callee qualified name, loc)]
        self.graph: dict[str, list[tuple[str, str, object]]] = {}
        self.fn_defs: dict[str, object] = {}   # USR -> definition cursor.

    def rel(self, cursor_or_file) -> str | None:
        """Repo-relative path of a cursor's file; the main file maps to the
        effective path so fixtures can stand in for repo files.  None for
        system/other files."""

        f = getattr(cursor_or_file, "location", None)
        f = f.file if f is not None else cursor_or_file
        if f is None:
            return None
        p = os.path.abspath(f.name)
        if p == self.main_path:
            return self.effective_path
        try:
            return str(Path(p).resolve().relative_to(self.repo))
        except ValueError:
            return None

    def add(self, cursor, rule: str, message: str):
        rel = self.rel(cursor)
        if rel is None:
            return
        self.findings.append(Finding(rel, cursor.location.line, rule, message))


def analyze_tu(ctx: TuContext):
    """Single AST walk dispatching to every active rule."""

    ci = _cindex
    sys.setrecursionlimit(1000000)

    in_append_file = ctx.effective_path in APPEND_ONLY_FILES
    is_seal_tu = ctx.effective_path == SEAL_FILE
    is_scan_tu = ctx.effective_path == SCAN_FILE

    # Collected along the walk for the whole-TU rules.
    append_entries: list[object] = []       # Entry function cursors.
    scan_entries: list[object] = []         # VersionStore Scan* methods.
    prune_chunk_calls: dict[str, dict[str, int]] = {}  # fn USR -> offsets.
    result_fns: list[tuple[object, list, list]] = []   # (fn, values, oks)

    fn_kinds = (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                ci.CursorKind.CONVERSION_FUNCTION)

    def in_repo(cursor) -> bool:
        return ctx.rel(cursor) is not None

    def namespace_of(cursor) -> str:
        c = cursor.semantic_parent
        while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
            if c.kind == ci.CursorKind.NAMESPACE:
                return c.spelling
            c = c.semantic_parent
        return ""

    def base_tokens(call) -> str:
        """Normalized spelling of a member call's object expression, for
        grouping value()/ok() by result object."""

        children = list(call.get_children())
        if not children:
            return ""
        toks = [t.spelling for t in children[0].get_tokens()]
        # Strip the trailing `. value` / `-> value` / `:: move ( x )` noise.
        while toks and toks[-1] in (call.spelling, ".", "->", "::"):
            toks.pop()
        s = "".join(toks)
        m = re.match(r"^std::move\((.*)\)$", s)
        return m.group(1) if m else s

    # ----- mvcc wrapper-body conformance (header may appear in any TU that
    # has the rule active; dedupe happens at the end) -----
    def check_wrapper_body(fn):
        m = re.match(r"^(Load|Store)(Acquire|Release|Relaxed)$", fn.spelling)
        if not m or namespace_of(fn) != "mvcc":
            return
        want = m.group(2).lower()
        orders = {t[len("memory_order_"):] for t in identifier_tokens(fn)
                  if t.startswith("memory_order")}
        if orders != {want}:
            ctx.add(fn, "mvcc-memory-order",
                    f"mvcc::{fn.spelling} must use std::memory_order_{want} "
                    f"and nothing else (found: "
                    f"{', '.join(sorted(orders)) or 'none'}); the wrapper "
                    "name is the ordering contract its callers rely on")

    def check_site_order(cursor, site: str, op: str, order: str):
        table = MEMORY_ORDER_SITES.get(site)
        if table is None:
            if order == "defaulted":
                ctx.add(cursor, "mvcc-memory-order",
                        f"atomic {op} on '{site}' with defaulted "
                        "std::memory_order_seq_cst; spell the required "
                        "ordering (and say why) — an implicit global fence "
                        "is either load-bearing or an accident")
            return
        allowed = table.get(op, set())
        if order == "defaulted":
            ctx.add(cursor, "mvcc-memory-order",
                    f"defaulted seq_cst {op} on MVCC site '{site}'; the "
                    f"sanctioned ordering(s): "
                    f"{', '.join(sorted(allowed)) or 'none — op forbidden'}")
        elif order not in allowed and order != "unknown":
            ctx.add(cursor, "mvcc-memory-order",
                    f"memory_order_{order} {op} on MVCC site '{site}'; "
                    f"sanctioned: {', '.join(sorted(allowed)) or 'none'} "
                    "(see the protocol comment at the site's declaration)")

    def handle_atomic_call(cursor, stack):
        """Atomic member calls and mvcc:: wrapper calls."""

        name = cursor.spelling
        ref = cursor.referenced
        # mvcc:: free-function wrappers.
        if name in MVCC_WRAPPERS and ref is not None and \
                namespace_of(ref) == "mvcc":
            op, order = MVCC_WRAPPERS[name]
            args = list(cursor.get_arguments())
            if args:
                site_decl = deepest_decl_ref(args[0])
                if site_decl is not None:
                    site = site_decl.spelling
                    if site in MEMORY_ORDER_SITES:
                        check_site_order(cursor, site, op, order)
            return
        if ref is None:
            return
        parent = ref.semantic_parent
        parent_name = parent.spelling if parent is not None else ""
        if not parent_name.startswith("atomic"):
            return
        site_decl = call_site_decl(cursor)
        site = site_decl.spelling if site_decl is not None else "<unknown>"
        if name in ATOMIC_OPS:
            op = ATOMIC_OPS[name]
            order = call_memory_order(cursor)
            check_site_order(cursor, site, op, order)
        elif name in ATOMIC_OPERATOR_SUGAR:
            ctx.add(cursor, "mvcc-memory-order",
                    f"'{name}' on atomic '{site}' is an implicit seq_cst "
                    "operation; use load/store/fetch_* with an explicit "
                    "std::memory_order")

    # ----- seal-discipline helpers -----
    def seal_check(cursor, stack, label: str, member: str, allowed: set[str]):
        fn = enclosing_function(stack)
        fn_name = fn.spelling if fn is not None else "file scope"
        if fn_name in allowed:
            return
        ctx.add(cursor, "seal-discipline",
                f"{label} ('{member}') in {fn_name}; only "
                f"{', '.join(sorted(allowed))} may perform it — route the "
                "mutation through a sanctioned entry point so the synopsis "
                "stays consistent with the sealed rows")

    def handle_seal_call(cursor, stack):
        name = cursor.spelling
        ref = cursor.referenced
        # Directory container mutations: sealed_.push_back(...) etc., and
        # atomic stores/RMWs on sealed_count_.
        if name in ("push_back", "pop_back", "emplace_back", "clear",
                    "Truncate", "resize", "erase", "insert", "assign"):
            d = call_site_decl(cursor)
            if d is not None and d.spelling == "sealed_":
                seal_check(cursor, stack, "sealed-directory write",
                           f"sealed_.{name}", SEAL_DIRECTORY_ALLOWED)
            return
        if name in ATOMIC_OPS and ATOMIC_OPS[name] in ("store", "rmw"):
            d = call_site_decl(cursor)
            if d is not None and d.spelling == "sealed_count_":
                seal_check(cursor, stack, "sealed-directory write",
                           f"sealed_count_.{name}", SEAL_DIRECTORY_ALLOWED)
            return
        # Overwriting a sealed directory entry (`sealed_[i] = fresh`) goes
        # through PartitionSynopsis::operator=, not a builtin assignment;
        # the first data declaration among the operand children is the
        # written element's container.
        if name == "operator=":
            d = call_site_decl(cursor)
            if d is not None and d.spelling == "sealed_":
                seal_check(cursor, stack, "sealed-directory write",
                           "sealed_[…] =", SEAL_DIRECTORY_ALLOWED)
            return
        # mvcc::Store* on the synopsis trio / sealed chronon columns.
        if name in ("StoreRelease", "StoreRelaxed") and ref is not None and \
                namespace_of(ref) == "mvcc":
            args = list(cursor.get_arguments())
            if not args:
                return
            d = deepest_decl_ref(args[0])
            if d is None:
                return
            if d.spelling in SYNOPSIS_TRIO:
                seal_check(cursor, stack, "synopsis mutable-trio store",
                           d.spelling, SEAL_TRIO_ALLOWED)
            elif SEALED_COLUMN_RE.match(d.spelling or ""):
                seal_check(cursor, stack, "sealed chronon-column store",
                           d.spelling, SEAL_COLUMN_ALLOWED)

    def handle_seal_assignment(cursor, stack, op: str):
        if op != "=" and op not in ARITH_ASSIGN:
            return
        children = list(cursor.get_children())
        if not children:
            return
        d = deepest_decl_ref(children[0])
        if d is None:
            return
        if d.spelling == "sealed_rows_":
            seal_check(cursor, stack, "sealed-directory write",
                       f"sealed_rows_ {op}", SEAL_DIRECTORY_ALLOWED)
        elif d.spelling == "sealed_" and "[" in "".join(
                t.spelling for t in children[0].get_tokens()):
            seal_check(cursor, stack, "sealed-directory write",
                       f"sealed_[…] {op}", SEAL_DIRECTORY_ALLOWED)

    # ----- kernel-purity -----
    def handle_kernel_node(cursor, stack):
        rel = ctx.rel(cursor)
        if rel not in KERNEL_FILES:
            return
        k = cursor.kind
        if k == ci.CursorKind.CXX_NEW_EXPR:
            ctx.add(cursor, "kernel-purity",
                    "heap allocation (new) inside the kernel layer")
        elif k == ci.CursorKind.CXX_DELETE_EXPR:
            ctx.add(cursor, "kernel-purity",
                    "heap deallocation (delete) inside the kernel layer")
        elif k == ci.CursorKind.CXX_THROW_EXPR:
            ctx.add(cursor, "kernel-purity",
                    "exception edge (throw) inside the kernel layer")
        elif k == ci.CursorKind.CXX_TRY_STMT:
            ctx.add(cursor, "kernel-purity",
                    "exception edge (try) inside the kernel layer")
        elif k == ci.CursorKind.CALL_EXPR:
            ref = cursor.referenced
            if ref is not None:
                if ref.spelling in HEAP_FUNCTIONS:
                    ctx.add(cursor, "kernel-purity",
                            f"heap allocation ({ref.spelling}) inside the "
                            "kernel layer")
                try:
                    virtual = ref.is_virtual_method()
                except Exception:
                    virtual = False
                if virtual:
                    ctx.add(cursor, "kernel-purity",
                            f"virtual dispatch ({ref.spelling}) inside the "
                            "kernel layer; kernels must be statically "
                            "resolvable innermost loops")
        elif k in (ci.CursorKind.PARM_DECL, ci.CursorKind.VAR_DECL,
                   ci.CursorKind.FIELD_DECL):
            tspell = cursor.type.spelling if cursor.type else ""
            m = BOXED_TYPE_RE.search(tspell)
            if m:
                ctx.add(cursor, "kernel-purity",
                        f"boxed {m.group(1)} in the kernel layer; kernels "
                        "take raw int64 chronon columns and uint32 "
                        "selection vectors only")

    # ----- the walk -----
    lines_cache: dict[str, list[str]] = {}

    def visit(cursor, stack):
        k = cursor.kind

        if k in fn_kinds and cursor.is_definition() and in_repo(cursor):
            usr = cursor.get_usr()
            ctx.fn_defs[usr] = cursor
            ctx.graph.setdefault(usr, [])
            if "mvcc-memory-order" in ctx.rules:
                check_wrapper_body(cursor)
            if "append-only" in ctx.rules and in_append_file:
                parent = cursor.semantic_parent
                pname = parent.spelling if parent is not None else ""
                rel = ctx.rel(cursor)
                if pname in APPEND_ONLY_CLASSES or rel in APPEND_ONLY_FILES:
                    append_entries.append(cursor)
            if "scan-prune" in ctx.rules and is_scan_tu and \
                    k == ci.CursorKind.CXX_METHOD:
                parent = cursor.semantic_parent
                if parent is not None and parent.spelling == "VersionStore" \
                        and SCAN_ENTRY_RE.match(cursor.spelling) \
                        and cursor.spelling != "PruneRanges":
                    scan_entries.append(cursor)
            if "result-discipline" in ctx.rules:
                result_fns.append((cursor, [], []))

        if k == ci.CursorKind.CALL_EXPR:
            fn = enclosing_function(stack)
            if fn is not None and fn.is_definition():
                usr = fn.get_usr()
                ref = cursor.referenced
                if ref is not None:
                    ctx.graph.setdefault(usr, []).append(
                        (ref.get_usr(), qualified_name(ref), cursor))
                    if "scan-prune" in ctx.rules and is_scan_tu:
                        nm = ref.spelling
                        if nm in ("PruneRanges", "RangeChunks"):
                            offs = prune_chunk_calls.setdefault(usr, {})
                            off = cursor.location.offset
                            if nm not in offs or off < offs[nm]:
                                offs[nm] = off
            if "mvcc-memory-order" in ctx.rules and in_repo(cursor):
                handle_atomic_call(cursor, stack)
            if "seal-discipline" in ctx.rules and is_seal_tu:
                handle_seal_call(cursor, stack)
            if "result-discipline" in ctx.rules and result_fns and \
                    in_repo(cursor):
                name = cursor.spelling
                if name in ("value", "ok"):
                    ref = cursor.referenced
                    recv = ""
                    if ref is not None and ref.semantic_parent is not None:
                        recv = ref.semantic_parent.spelling
                    if recv.startswith("Result") or recv == "Status":
                        fn2, values, oks = result_fns[-1]
                        key = base_tokens(cursor)
                        if name == "value" and recv.startswith("Result"):
                            values.append((cursor, key))
                        elif name == "ok":
                            oks.append(key)
                # Discarded Status& returns: a call in statement position
                # whose declared result type is a reference to Status (the
                # expression type itself loses the reference, so ask the
                # callee's declaration).
                if stack and stack[-1].kind == ci.CursorKind.COMPOUND_STMT:
                    ref2 = cursor.referenced
                    rt = ""
                    if ref2 is not None and ref2.result_type is not None:
                        rt = ref2.result_type.get_canonical().spelling
                    if re.search(r"\bStatus\s*&$", rt):
                        ctx.add(cursor, "result-discipline",
                                "discarded call returning Status&; the "
                                "reference launders away [[nodiscard]] — "
                                "check or (void)-annotate the status")

        elif k in (ci.CursorKind.BINARY_OPERATOR,
                   ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR):
            op = binary_op_spelling(cursor, lines_cache)
            if "seal-discipline" in ctx.rules and is_seal_tu:
                handle_seal_assignment(cursor, stack, op)
            if "chronon-arith" in ctx.rules and \
                    op in (ARITH_BINOPS | ARITH_ASSIGN) and in_repo(cursor):
                rel = ctx.rel(cursor)
                # Pointer arithmetic (`col_tt_end_.data() + row`) computes
                # an address, not a chronon value; only value arithmetic
                # can re-derive the saturation UB.
                is_ptr = False
                try:
                    is_ptr = (cursor.type.get_canonical().kind ==
                              ci.TypeKind.POINTER)
                except Exception:
                    pass
                if not is_ptr and rel not in CHRONON_SANCTIONED and \
                        subtree_contains_chronon_mark(cursor):
                    ctx.add(cursor, "chronon-arith",
                            f"raw int64 '{op}' on a chronon-typed operand "
                            "outside common/chronon.* and temporal/kernels.*; "
                            "use the saturating Chronon operators — raw rep "
                            "arithmetic is how the pre-saturation overflow "
                            "UB happened")

        elif k == ci.CursorKind.UNARY_OPERATOR:
            if "chronon-arith" in ctx.rules and in_repo(cursor):
                toks = [t.spelling for t in cursor.get_tokens()]
                if toks and toks[0] in ("++", "--") or \
                        (toks and toks[-1] in ("++", "--")):
                    rel = ctx.rel(cursor)
                    if rel not in CHRONON_SANCTIONED and \
                            subtree_contains_chronon_mark(cursor):
                        ctx.add(cursor, "chronon-arith",
                                "raw increment/decrement of a chronon-typed "
                                "operand outside common/chronon.* and "
                                "temporal/kernels.*; use "
                                "Chronon::Next()/Prev() "
                                "(they saturate at the sentinels)")

        if "kernel-purity" in ctx.rules:
            handle_kernel_node(cursor, stack)

        stack.append(cursor)
        for child in cursor.get_children():
            visit(child, stack)
        stack.pop()

    root = ctx.tu.cursor
    for child in root.get_children():
        # Skip subtrees entirely outside the repo (system headers): huge and
        # irrelevant.
        loc_file = child.location.file
        if loc_file is not None and ctx.rel(child) is None:
            continue
        visit(child, [])

    # ----- whole-TU rules that need the finished call graph -----

    def reachable_hits(entry_usr: str, targets: set[str]):
        """BFS over the per-TU call graph; returns (call cursor, callee
        qualified name, path) for the first edge reaching a target whose
        unqualified name is in `targets`."""

        seen = {entry_usr}
        queue: list[tuple[str, list[str]]] = [(entry_usr, [])]
        while queue:
            usr, path = queue.pop(0)
            for callee_usr, callee_qn, call in ctx.graph.get(usr, []):
                base = callee_qn.rsplit("::", 1)[-1]
                if base in targets and "VersionStore" in callee_qn:
                    return call, callee_qn, path
                if callee_usr in seen:
                    continue
                seen.add(callee_usr)
                if callee_usr in ctx.fn_defs:
                    queue.append((callee_usr, path + [base]))
        return None

    if "append-only" in ctx.rules:
        for entry in append_entries:
            hit = reachable_hits(entry.get_usr(), FORBIDDEN_MUTATIONS)
            if hit is None:
                continue
            call, callee_qn, path = hit
            via = f" (via {' -> '.join(path)})" if path else ""
            name = callee_qn.rsplit("::", 1)[-1]
            ctx.add(call if not path else entry, "append-only",
                    f"{qualified_name(entry)} reaches {name}{via}; "
                    "rollback/temporal relations are append-only (taxonomy "
                    "§5) — only Append and CloseTxn may touch their version "
                    "stores")

    if "scan-prune" in ctx.rules and is_scan_tu:
        for entry in scan_entries:
            usr = entry.get_usr()
            seen = {usr}
            queue = [usr]
            found = False
            while queue and not found:
                u = queue.pop(0)
                for callee_usr, callee_qn, _ in ctx.graph.get(u, []):
                    if callee_qn.endswith("::PruneRanges"):
                        found = True
                        break
                    if callee_usr not in seen:
                        seen.add(callee_usr)
                        if callee_usr in ctx.fn_defs:
                            queue.append(callee_usr)
            if not found:
                ctx.add(entry, "scan-prune",
                        f"scan entry point VersionStore::{entry.spelling} "
                        "never reaches PruneRanges; every access path must "
                        "consult the partition synopses before forming "
                        "scan geometry, or pruning silently stops applying "
                        "to it")
        for usr, offs in prune_chunk_calls.items():
            if "PruneRanges" in offs and "RangeChunks" in offs and \
                    offs["RangeChunks"] < offs["PruneRanges"]:
                fn = ctx.fn_defs.get(usr)
                if fn is not None:
                    ctx.add(fn, "scan-prune",
                            f"{fn.spelling} forms chunk geometry "
                            "(RangeChunks) before PruneRanges; pruned "
                            "partitions must never form batches")

    if "result-discipline" in ctx.rules:
        for fn, values, oks in result_fns:
            if not values:
                continue
            # Result's own accessors (operator*, operator->) funnel through
            # value() by design; the discipline applies to *callers*.
            owner = fn.semantic_parent
            owner_name = owner.spelling if owner is not None else ""
            if owner_name.startswith("Result") or owner_name == "Status":
                continue
            ok_keys = set(oks)
            for call, key in values:
                if key and key in ok_keys:
                    continue
                # A base checked under any spelling (e.g. `*r` after
                # `r.ok()`) still counts if the token string matches after
                # stripping dereference sigils.
                if key.lstrip("*&") in ok_keys:
                    continue
                ctx.add(call, "result-discipline",
                        f"Result::value() on '{key or '<expr>'}' with no "
                        "ok() check anywhere in "
                        f"{fn.spelling or 'this function'}; the assert "
                        "inside value() compiles out in release builds — "
                        "check ok() (or use TDB_ASSIGN_OR_RETURN)")


# ---------------------------------------------------------------------------
# Compile database / caching / driver
# ---------------------------------------------------------------------------

def load_compile_commands(build_dir: Path):
    cc_path = build_dir / "compile_commands.json"
    if not cc_path.is_file():
        return None
    entries = json.loads(cc_path.read_text())
    out = []
    for e in entries:
        args = e.get("arguments")
        if args is None:
            args = shlex.split(e.get("command", ""))
        out.append({
            "file": str(Path(e["directory"], e["file"]).resolve()),
            "directory": e["directory"],
            "arguments": args,
        })
    return out


def clean_args(arguments: list[str], source_file: str) -> list[str]:
    """Compiler argv -> libclang parse args: drop the compiler, -c/-o, and
    the source path; keep includes/defines/standard/warnings-off."""

    out = []
    skip_next = False
    for i, a in enumerate(arguments):
        if i == 0:
            continue  # compiler executable
        if skip_next:
            skip_next = False
            continue
        if a in ("-c",):
            continue
        if a == "-o":
            skip_next = True
            continue
        if os.path.basename(a) == os.path.basename(source_file) and \
                a.endswith((".cpp", ".cc", ".cxx", ".c")):
            continue
        out.append(a)
    return out


def resource_dir_args() -> list[str]:
    """libclang usually finds its own builtin headers; when it cannot
    (mismatched packaging), point it at an installed clang resource dir."""

    for pattern in ("/usr/lib/llvm-*/lib/clang/*/include",):
        hits = sorted(Path("/").glob(pattern.lstrip("/")), reverse=True)
        if hits:
            return ["-isystem", str(hits[0])]
    return []


def tu_cache_key(args: list[str], main_content: bytes, rules: set[str]) -> str:
    h = hashlib.sha256()
    h.update(ANALYZER_VERSION.encode())
    h.update(repr(sorted(rules)).encode())
    h.update(repr(args).encode())
    h.update(main_content)
    return h.hexdigest()


def file_sha(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def cache_lookup(cache_dir: Path, key: str):
    entry = cache_dir / f"{key}.json"
    if not entry.is_file():
        return None
    try:
        data = json.loads(entry.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    for dep, sha in data.get("deps", {}).items():
        if file_sha(dep) != sha:
            return None
    return data.get("findings", [])


def cache_store(cache_dir: Path, key: str, deps: dict[str, str],
                findings: list[Finding]):
    cache_dir.mkdir(parents=True, exist_ok=True)
    entry = cache_dir / f"{key}.json"
    tmp = entry.with_suffix(".tmp")
    tmp.write_text(json.dumps({
        "deps": deps,
        "findings": [[f.path, f.line, f.rule, f.message] for f in findings],
    }))
    tmp.replace(entry)


def analyze_one(index, path: str, args: list[str], effective_path: str,
                rules: set[str], repo: Path,
                cache_dir: Path | None) -> tuple[list[Finding], bool]:
    """Parses and analyzes one TU (with caching).  Returns (findings,
    from_cache)."""

    ci = _cindex
    main_content = Path(path).read_bytes()
    key = tu_cache_key(args + [effective_path], main_content, rules)
    if cache_dir is not None:
        cached = cache_lookup(cache_dir, key)
        if cached is not None:
            return [Finding(*row) for row in cached], True

    try:
        tu = index.parse(path, args=args)
    except ci.TranslationUnitLoadError as e:
        raise RuntimeError(f"failed to parse {path}: {e}")

    hard = [d for d in tu.diagnostics if d.severity >= ci.Diagnostic.Error]
    if hard:
        retry_args = args + resource_dir_args()
        tu = index.parse(path, args=retry_args)
        hard = [d for d in tu.diagnostics
                if d.severity >= ci.Diagnostic.Error]
        if hard:
            msgs = "; ".join(f"{d.location}: {d.spelling}" for d in hard[:5])
            raise RuntimeError(
                f"{path}: parse errors — analysis on a broken AST would "
                f"miss findings: {msgs}")

    ctx = TuContext(tu, os.path.abspath(path), effective_path, repo, rules)
    analyze_tu(ctx)

    if cache_dir is not None:
        deps = {path: hashlib.sha256(main_content).hexdigest()}
        for inc in tu.get_includes():
            try:
                p = str(Path(inc.include.name).resolve())
            except (OSError, AttributeError):
                continue
            if p.startswith(str(repo) + os.sep) and p not in deps:
                sha = file_sha(p)
                if sha is not None:
                    deps[p] = sha
        cache_store(cache_dir, key, deps, ctx.findings)
    return ctx.findings, False


def dedupe_sorted(findings: list[Finding]) -> list[Finding]:
    seen = set()
    out = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                             f.message)):
        if f.key() in seen:
            continue
        seen.add(f.key())
        out.append(f)
    return out


def run_probe() -> int:
    if load_cindex() is None:
        print(f"tdb_analyze: unavailable — {cindex_unavailable_reason()}",
              file=sys.stderr)
        return EXIT_NO_CLANG
    print("tdb_analyze: libclang OK")
    return EXIT_CLEAN


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tdb_analyze.py",
        description="AST-level semantic analyzer for temporadb invariants")
    ap.add_argument("-p", "--build-dir", default="build",
                    help="build dir containing compile_commands.json")
    ap.add_argument("--rules", default=",".join(ALL_RULES),
                    help="comma-separated rule subset")
    ap.add_argument("--files", nargs="*", default=None,
                    help="restrict to these sources (repo-relative)")
    ap.add_argument("--cache-dir", default=None,
                    help="findings cache (default BUILD_DIR/"
                         ".tdb-analyze-cache; 'none' disables)")
    ap.add_argument("--probe", action="store_true",
                    help="exit 0 if libclang is usable, 3 otherwise")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--single", default=None,
                    help="analyze one file with flags after '--' "
                         "(fixture/self-test mode; no compile db)")
    ap.add_argument("--treat-as", default=None,
                    help="with --single: repo-relative path used for rule "
                         "scoping")
    ap.add_argument("extra", nargs="*",
                    help="with --single: parse flags after '--'")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return EXIT_CLEAN
    if args.probe:
        return run_probe()

    rules = set()
    for r in args.rules.split(","):
        r = r.strip()
        if not r:
            continue
        if r not in ALL_RULES:
            print(f"tdb_analyze: unknown rule '{r}' "
                  f"(known: {', '.join(ALL_RULES)})", file=sys.stderr)
            return EXIT_ERROR
        rules.add(r)

    ci = load_cindex()
    if ci is None:
        print(f"tdb_analyze: unavailable — {cindex_unavailable_reason()}",
              file=sys.stderr)
        return EXIT_NO_CLANG
    index = ci.Index.create()

    findings: list[Finding] = []
    file_texts: dict[str, str] = {}

    if args.single:
        path = str(Path(args.single).resolve())
        effective = args.treat_as or os.path.basename(path)
        flags = [a for a in args.extra if a != "--"]
        try:
            fs, _ = analyze_one(index, path, flags, effective, rules, REPO,
                                None)
        except RuntimeError as e:
            print(f"tdb_analyze: {e}", file=sys.stderr)
            return EXIT_ERROR
        findings.extend(fs)
        file_texts[effective] = Path(path).read_text()
    else:
        build_dir = Path(args.build_dir)
        db = load_compile_commands(build_dir)
        if db is None:
            print(f"tdb_analyze: {build_dir}/compile_commands.json not "
                  "found; configure first: "
                  f"cmake -B {build_dir} -S .", file=sys.stderr)
            return EXIT_ERROR
        cache_dir: Path | None
        if args.cache_dir == "none":
            cache_dir = None
        elif args.cache_dir:
            cache_dir = Path(args.cache_dir)
        else:
            cache_dir = build_dir / ".tdb-analyze-cache"

        wanted = None
        if args.files:
            wanted = {str((REPO / f).resolve()) if not os.path.isabs(f)
                      else str(Path(f).resolve()) for f in args.files}

        n_parsed = n_cached = 0
        src_prefix = str(REPO / "src") + os.sep
        for entry in db:
            f = entry["file"]
            if not f.startswith(src_prefix):
                continue  # Library sources only; tests/benches are
                # scaffolding with their own idioms.
            if wanted is not None and f not in wanted:
                continue
            flags = clean_args(entry["arguments"], f)
            try:
                fs, from_cache = analyze_one(index, f, flags,
                                             str(Path(f).relative_to(REPO)),
                                             rules, REPO, cache_dir)
            except RuntimeError as e:
                print(f"tdb_analyze: {e}", file=sys.stderr)
                return EXIT_ERROR
            findings.extend(fs)
            n_cached += from_cache
            n_parsed += not from_cache
        for f in findings:
            p = REPO / f.path
            if f.path not in file_texts and p.is_file():
                file_texts[f.path] = p.read_text()
        # Suppression scanning must also cover files with zero findings so
        # reason-less allow comments are reported; scan every analyzed file.
        for entry in db:
            f = entry["file"]
            if not f.startswith(src_prefix):
                continue
            rel = str(Path(f).relative_to(REPO))
            if rel not in file_texts:
                file_texts[rel] = Path(f).read_text()
        print(f"tdb_analyze: {n_parsed} parsed, {n_cached} from cache",
              file=sys.stderr)

    findings = dedupe_sorted(apply_suppressions(findings, file_texts))
    for f in findings:
        print(f)
    if findings:
        print(f"tdb_analyze: {len(findings)} finding(s)", file=sys.stderr)
        return EXIT_FINDINGS
    print("tdb_analyze: OK", file=sys.stderr)
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
