#!/usr/bin/env python3
"""temporadb-specific static lint.

Checks repo invariants that neither the compiler nor clang-tidy can
express, because they are properties of *this* codebase's discipline:

  1. mutex-wrapper  — no bare std::mutex / std::lock_guard /
     std::unique_lock / std::condition_variable outside
     src/common/thread_annotations.h.  Every lock must be the annotated
     `temporadb::Mutex`, or Clang Thread Safety Analysis (-DTDB_ANALYZE=ON)
     silently loses sight of it.

  2. append-only    — the paper's §5 rule ("DBMS's supporting rollback are
     append-only") made structural: rollback_relation.* and
     temporal_relation.* may touch the version store only through the
     append-only mutation set (Append, CloseTxn).  PhysicalUpdate /
     PhysicalDelete / CorrectErase there would silently destroy recorded
     history.

  3. clause-matrix  — the TQuel clause-legality matrix in DESIGN.md §11.3
     (Figures 10-12 of the paper) must agree with the code: the
     SupportsValidTime / SupportsTransactionTime capability functions in
     src/catalog/temporal_class.h, and the analyzer's gating of
     when/valid/as-of in src/tquel/analyzer.cpp.

  4. kernel-purity  — the branch-free selection kernels
     (src/temporal/kernels.*) operate on raw chronon columns and selection
     vectors only.  Boxed `Value`s, `Period` objects, or virtual dispatch in
     that layer would reintroduce exactly the per-row overhead the
     vectorized path exists to remove, and would do it silently (everything
     still passes the differential tests, just slower).

  5. invariant-check — no bare `assert(` on cross-thread visibility state
     in src/temporal.  A plain assert compiles away in release
     builds, which is precisely where concurrent readers run; invariants
     over the MVCC coordination state (watermarks, commit sequences, the
     publish seqlock) must use TDB_INVARIANT_CHECK from common/check.h so
     they hold in every build mode.

  6. seal-discipline — the epoch-partition directory is append/seal-only.
     Writes to the sealed-partition state (`sealed_`, `sealed_rows_`,
     `sealed_count_`), atomic stores to a synopsis's mutable trio
     (current_rows / max_finite_tt_end / last_close_seq), and atomic
     stores to the sealed chronon columns (`col_*`) are each restricted
     to their sanctioned VersionStore entry points.  A write anywhere
     else would mutate a sealed partition without repatching its synopsis
     (silently unsounding pruning) or race pinned snapshot readers.

  7. oracle-independence — the reference model (src/workload/reference.*)
     is the engine's semantic oracle, so it may include only common/,
     catalog/temporal_class.h, tquel/ast.h, tquel/parser.h, its own header
     and the standard library.  Reaching into the analyzer, the evaluator,
     the relation kinds or the store would let one bug show up on both
     sides of every comparison and never as a mismatch.

Findings are emitted in the `file:line: rule-name: message` format shared
with tools/tdb_analyze.py, so one consumer (CI annotation, editors) parses
both.  Rules 2, 4 and 6 have exact AST-level implementations in
tdb_analyze.py; `--ast auto` (the default) delegates them there when
libclang and compile_commands.json are available and falls back to the
regex versions here otherwise, `--ast on` requires the delegation, and
`--ast off` forces the regex path.

Exit status 0 when clean; 1 with one line per violation otherwise.
Run from anywhere: paths are resolved relative to the repo root.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

errors: list[str] = []


def format_finding(rel: object, lineno: int, rule: str, msg: str) -> str:
    """The one true finding format, byte-identical to tdb_analyze.py's."""
    return f"{rel}:{lineno}: {rule}: {msg}"


def err(path: Path, lineno: int, rule: str, msg: str) -> None:
    errors.append(format_finding(path.relative_to(REPO), lineno, rule, msg))


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string literals, preserving
    line structure so reported line numbers stay accurate."""

    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Rule 1: no bare standard-library locking primitives outside the wrapper.
# --------------------------------------------------------------------------

BARE_LOCKING = re.compile(
    r"std\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable)\b"
)
WRAPPER = SRC / "common" / "thread_annotations.h"


def check_mutex_wrapper() -> None:
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cpp")):
        if path == WRAPPER:
            continue
        code = strip_comments(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = BARE_LOCKING.search(line)
            if m:
                err(path, lineno, "mutex-wrapper",
                    f"bare std::{m.group(1)}; use the annotated "
                    "temporadb::Mutex/MutexLock/CondVar from "
                    "common/thread_annotations.h so -Wthread-safety "
                    "can see it")


# --------------------------------------------------------------------------
# Rule 2: append-only mutation set on rollback/temporal relations.
# --------------------------------------------------------------------------

# The version-store mutation entry points a kind with transaction time may
# NOT call: physical overwrites destroy recorded history (§4.2/§4.4: such
# relations are append-only; corrections are a historical-only concept).
FORBIDDEN_MUTATIONS = re.compile(
    r"\b(PhysicalDelete|PhysicalUpdate|RawPhysicalDelete|RawPhysicalUpdate|"
    r"CorrectErase)\b"
)
APPEND_ONLY_FILES = [
    SRC / "temporal" / "rollback_relation.h",
    SRC / "temporal" / "rollback_relation.cpp",
    SRC / "temporal" / "temporal_relation.h",
    SRC / "temporal" / "temporal_relation.cpp",
]


def check_append_only() -> None:
    for path in APPEND_ONLY_FILES:
        code = strip_comments(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = FORBIDDEN_MUTATIONS.search(line)
            if m:
                err(path, lineno, "append-only",
                    f"{m.group(1)} on an append-only relation kind; "
                    "rollback/temporal relations may only Append and "
                    "CloseTxn (taxonomy §5: rollback DBMSs are append-only)")


# --------------------------------------------------------------------------
# Rule 3: clause-legality matrix in DESIGN.md == code.
# --------------------------------------------------------------------------

KINDS = ("static", "rollback", "historical", "temporal")
CLAUSES = ("where", "when", "valid", "as of")


def parse_design_matrix() -> dict[str, dict[str, bool]] | None:
    design = REPO / "DESIGN.md"
    text = design.read_text()
    m = re.search(
        r"<!-- tdb-lint:clause-matrix -->(.*?)<!-- /tdb-lint:clause-matrix -->",
        text, re.S)
    if not m:
        err(design, 1, "clause-matrix",
            "missing <!-- tdb-lint:clause-matrix --> table")
        return None
    matrix: dict[str, dict[str, bool]] = {}
    for row in m.group(1).splitlines():
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        if len(cells) != 5 or cells[0] not in KINDS:
            continue
        matrix[cells[0]] = {
            clause: cells[i + 1] == "yes"
            for i, clause in enumerate(CLAUSES)
        }
    missing = [k for k in KINDS if k not in matrix]
    if missing:
        err(design, 1, "clause-matrix",
            f"matrix rows missing for kind(s): {', '.join(missing)}")
        return None
    return matrix


def parse_capability(fn_name: str, text: str, path: Path) -> set[str] | None:
    """Extracts the set of TemporalClass enumerators for which the given
    constexpr capability function returns true, from its `c == kX || ...`
    body."""

    m = re.search(
        rf"constexpr\s+bool\s+{fn_name}\s*\(\s*TemporalClass\s+\w+\s*\)\s*"
        rf"\{{(.*?)\}}", text, re.S)
    if not m:
        err(path, 1, "clause-matrix", f"cannot find {fn_name}()")
        return None
    return set(re.findall(r"TemporalClass\s*::\s*k(\w+)", m.group(1)))


def check_clause_matrix() -> None:
    matrix = parse_design_matrix()
    if matrix is None:
        return

    tc_path = SRC / "catalog" / "temporal_class.h"
    tc_text = strip_comments(tc_path.read_text())
    valid_kinds = parse_capability("SupportsValidTime", tc_text, tc_path)
    txn_kinds = parse_capability("SupportsTransactionTime", tc_text, tc_path)
    if valid_kinds is None or txn_kinds is None:
        return

    for kind in KINDS:
        enum = kind.capitalize()
        legal = matrix[kind]
        # `where` is time-independent: legal for every kind by construction.
        if not legal["where"]:
            err(REPO / "DESIGN.md", 1, "clause-matrix",
                f"'where' marked illegal for {kind}; it is time-independent "
                "and must be legal for every kind")
        # when/valid <=> valid time; as of <=> transaction time.
        code_valid = enum in valid_kinds
        for clause in ("when", "valid"):
            if legal[clause] != code_valid:
                err(tc_path, 1, "clause-matrix",
                    f"DESIGN.md says '{clause}' is "
                    f"{'legal' if legal[clause] else 'illegal'} for {kind}, "
                    f"but SupportsValidTime(k{enum}) is {code_valid}")
        code_txn = enum in txn_kinds
        if legal["as of"] != code_txn:
            err(tc_path, 1, "clause-matrix",
                f"DESIGN.md says 'as of' is "
                f"{'legal' if legal['as of'] else 'illegal'} for {kind}, "
                f"but SupportsTransactionTime(k{enum}) is {code_txn}")

    # The analyzer must gate historical constructs on SupportsValidTime and
    # rollback on SupportsTransactionTime — not on hand-rolled kind lists
    # that could drift from the capability functions checked above.
    an_path = SRC / "tquel" / "analyzer.cpp"
    an_text = strip_comments(an_path.read_text())
    if not re.search(r"wants_valid\s*&&\s*!SupportsValidTime", an_text):
        err(an_path, 1, "clause-matrix",
            "analyzer no longer gates 'when'/'valid' with "
            "SupportsValidTime()")
    if not re.search(r"wants_asof\s*&&\s*!SupportsTransactionTime", an_text):
        err(an_path, 1, "clause-matrix",
            "analyzer no longer gates 'as of' with "
            "SupportsTransactionTime()")


# --------------------------------------------------------------------------
# Rule 4: the selection kernels stay free of boxed values and dispatch.
# --------------------------------------------------------------------------

KERNEL_FILES = [
    SRC / "temporal" / "kernels.h",
    SRC / "temporal" / "kernels.cpp",
]
KERNEL_IMPURITIES = re.compile(r"\b(Value|Period|virtual)\b")


def check_kernel_purity() -> None:
    for path in KERNEL_FILES:
        code = strip_comments(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = KERNEL_IMPURITIES.search(line)
            if m:
                err(path, lineno, "kernel-purity",
                    f"{m.group(1)} in the kernel layer; kernels take raw "
                    "int64 chronon columns and uint32 selection vectors "
                    "only — box/dispatch above this layer, never inside it")


# --------------------------------------------------------------------------
# Rule 5: cross-thread invariants are checked in every build mode.
# --------------------------------------------------------------------------

# Identifiers that name state shared between the writer and snapshot
# readers.  An invariant over any of these guards a *concurrency* contract;
# a debug-only assert on one vanishes exactly where it matters (release
# builds running concurrent readers), which is the failure mode that
# motivated the snapshot-isolation rework.
CROSS_THREAD_IDENTS = re.compile(
    r"\b(mutation_epoch|committed_rows|close_seq|watermark|snap_seq|"
    r"publish_word|commit_seq|active_snapshots|correcting)\b"
)
BARE_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")
INVARIANT_DIRS = [SRC / "temporal"]


def check_invariant_checks() -> None:
    for base in INVARIANT_DIRS:
        for path in sorted(base.rglob("*.h")) + sorted(base.rglob("*.cpp")):
            code = strip_comments(path.read_text())
            lines = code.splitlines()
            for lineno, line in enumerate(lines, 1):
                if not BARE_ASSERT.search(line):
                    continue
                # The assert's 3-line neighbourhood: the condition may wrap.
                lo = max(0, lineno - 2)
                window = "\n".join(lines[lo:lineno + 2])
                m = CROSS_THREAD_IDENTS.search(window)
                if m:
                    err(path, lineno, "invariant-check",
                        f"bare assert near cross-thread state "
                        f"'{m.group(1)}'; use TDB_INVARIANT_CHECK "
                        "(common/check.h) so the invariant survives "
                        "release builds where concurrent readers run")


# --------------------------------------------------------------------------
# Rule 6: sealed-partition state is written only by sanctioned entry points.
# --------------------------------------------------------------------------

# Three classes of sealed-state mutation, each with the closed set of
# VersionStore member functions allowed to perform it.  Everything else in
# the store must treat sealed partitions and their synopses as read-only:
# a stray write would desynchronize synopsis and rows (pruning then skips
# partitions that match) or race pinned snapshot readers.
SEAL_WRITE_RULES: list[tuple[str, re.Pattern[str], set[str]]] = [
    # The partition directory itself: grows at seal, shrinks only through
    # the writer-side undo/compaction/recovery paths.
    ("sealed-directory write",
     re.compile(r"sealed_\.(push_back|pop_back|Truncate|clear)\b"
                r"|sealed_rows_\s*[-+]?=[^=]"
                r"|sealed_count_\.\s*(store|fetch_add|fetch_sub|exchange)\b"
                r"|sealed_\[[^\]]*\]\s*=[^=]"),
     {"MaybeSealHot", "RawUnappend", "InstallSealedPartitions",
      "RepatchSealedSynopsis", "CompactTombstones"}),
    # The synopsis's mutable trio, maintained incrementally by the close /
    # reopen hooks (exact recomputation goes through RepatchSealedSynopsis,
    # which writes whole synopses and is covered by the directory rule).
    ("synopsis mutable-trio store",
     re.compile(r"mvcc::Store\w+\s*\(\s*&\s*\w+(->|\.)"
                r"(current_rows|max_finite_tt_end|last_close_seq)\b"),
     {"OnRowClosed", "OnRowReopened"}),
    # The shared chronon columns: once a row seals, its column cells may be
    # rewritten in place only by the transaction-time close and its
    # abort-time undo (everything else appends new cells or runs under the
    # correction fence through the Raw* correction entry points, which
    # rewrite via the container, not via atomic column stores).
    ("sealed chronon-column store",
     re.compile(r"mvcc::Store\w+\s*\(\s*&\s*col_\w+"),
     {"RawCloseTxn", "RawReopenTxn"}),
]

MEMBER_FN = re.compile(r"\bVersionStore\s*::\s*(\w+)\s*\(")


def check_seal_discipline() -> None:
    path = SRC / "temporal" / "version_store.cpp"
    code = strip_comments(path.read_text())
    depth = 0
    current: str | None = None   # Function whose body we are inside.
    pending: str | None = None   # Signature seen, body brace not yet open.
    base = 0                     # Brace depth just outside that body.
    for lineno, line in enumerate(code.splitlines(), 1):
        if current is None:
            m = MEMBER_FN.search(line)
            if m:
                pending = m.group(1)
                base = depth
        for label, pattern, allowed in SEAL_WRITE_RULES:
            if current in allowed:
                continue
            m = pattern.search(line)
            if m:
                where = current if current else "file scope"
                err(path, lineno, "seal-discipline",
                    f"{label} ('{m.group(0).strip()}') in {where}; only "
                    f"{', '.join(sorted(allowed))} may perform it — route "
                    "the mutation through a sanctioned entry point so the "
                    "synopsis stays consistent with the sealed rows")
        depth += line.count("{") - line.count("}")
        if current is None and pending is not None and depth > base:
            current = pending
            pending = None
        elif current is not None and depth <= base:
            current = None


# --------------------------------------------------------------------------
# Rule 7: the reference model stays independent of the engine.
# --------------------------------------------------------------------------

REFERENCE_FILES = [
    SRC / "workload" / "reference.h",
    SRC / "workload" / "reference.cpp",
]
QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
REFERENCE_ALLOWED = re.compile(
    r"common/[\w./]+|catalog/temporal_class\.h|tquel/ast\.h|tquel/parser\.h"
    r"|workload/reference\.h")


def check_oracle_independence() -> None:
    for path in REFERENCE_FILES:
        # Raw text: strip_comments blanks string literals, include paths too.
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = QUOTED_INCLUDE.match(line)
            if m and not REFERENCE_ALLOWED.fullmatch(m.group(1)):
                err(path, lineno, "oracle-independence",
                    f'#include "{m.group(1)}" in the reference model; it may '
                    "include only common/, catalog/temporal_class.h, "
                    "tquel/ast.h, tquel/parser.h and the standard library, "
                    "so that no engine code sits on both sides of the oracle")


# --------------------------------------------------------------------------
# AST delegation: rules 2/4/6 have exact semantic implementations in
# tdb_analyze.py (resolved symbols instead of spellings, so wrappers and
# aliases are caught).  When the analyzer can run, its verdict replaces the
# regex one; the regex path stays as the zero-dependency fallback.
# --------------------------------------------------------------------------

AST_DELEGATED_RULES = "append-only,seal-discipline,kernel-purity"
FINDING_LINE = re.compile(r"^[^:]+:\d+: [a-z0-9-]+: .+$")


def delegate_to_ast(build_dir: str) -> tuple[bool, str]:
    """Runs tdb_analyze.py over the delegated rules.  On success (analyzer
    ran, clean or with findings) appends its findings to `errors` and
    returns (True, "").  Returns (False, reason) when the analyzer cannot
    run here (no libclang, no compile_commands.json, ...)."""

    cmd = [sys.executable, str(REPO / "tools" / "tdb_analyze.py"),
           "-p", build_dir, "--rules", AST_DELEGATED_RULES]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=REPO, check=False)
    except OSError as e:
        return False, f"could not launch tdb_analyze.py: {e}"
    if proc.returncode in (0, 1):
        errors.extend(line for line in proc.stdout.splitlines()
                      if FINDING_LINE.match(line))
        return True, ""
    detail = (proc.stderr.strip() or proc.stdout.strip() or
              "no diagnostic").splitlines()[-1]
    return False, f"tdb_analyze.py exited {proc.returncode} ({detail})"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="temporadb-specific static lint")
    ap.add_argument(
        "--ast", choices=("auto", "on", "off"), default="auto",
        help="delegate rules 2/4/6 (append-only, seal-discipline, "
             "kernel-purity) to the AST analyzer: 'auto' uses it when "
             "libclang and compile_commands.json are available, 'on' "
             "fails if they are not, 'off' forces the regex path")
    ap.add_argument(
        "-p", "--build-dir", default=str(REPO / "build"), metavar="DIR",
        help="build directory containing compile_commands.json for the "
             "AST delegation (default: build)")
    args = ap.parse_args(argv)

    delegated = False
    if args.ast != "off":
        delegated, why = delegate_to_ast(args.build_dir)
        if not delegated:
            if args.ast == "on":
                print(f"tdb_lint: --ast on, but the AST analyzer cannot "
                      f"run: {why}", file=sys.stderr)
                return 2
            print(f"tdb_lint: note: AST delegation unavailable ({why}); "
                  "rules 2/4/6 use the regex fallback", file=sys.stderr)

    check_mutex_wrapper()
    if not delegated:
        check_append_only()
    check_clause_matrix()
    if not delegated:
        check_kernel_purity()
    check_invariant_checks()
    if not delegated:
        check_seal_discipline()
    check_oracle_independence()
    if errors:
        for e in errors:
            print(e)
        print(f"tdb_lint: {len(errors)} violation(s)")
        return 1
    print("tdb_lint: OK"
          + (" (rules 2/4/6 via tdb_analyze)" if delegated else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
