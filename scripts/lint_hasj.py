#!/usr/bin/env python3
"""Domain lint for the hasj tree (run by CTest as `lint_hasj`).

Repo-specific correctness rules that generic tooling cannot express:

  float-eq         No exact ==/!= between floating-point expressions in
                   src/geom and src/algo. Exact comparison is occasionally
                   the *right* thing in robust geometry (degeneracy tests,
                   sweep-line tie-breaks); those sites carry an explicit
                   justification:  // lint:allow(float-eq): <reason>
  glsim-raw-cast   No raw float->int casts in src/glsim outside the blessed
                   PixelFromCoord() helper (glsim/pixel_snap.h). A bare
                   static_cast<int>(double) is UB out of range, and the
                   float->pixel snap is exactly where the conservativeness
                   invariant (DESIGN.md §6) would break silently.
  simd-intrinsics  No raw vector intrinsics (<immintrin.h>, _mm*/_mm256_*
                   calls, __m128/__m256 types) outside the AVX2 backend TU
                   (glsim/rowspan_avx2.cc) and the dispatch header
                   (common/simd.h). Everything else reaches SIMD through
                   the RowSpanEngine kernel ABI, which is what keeps the
                   scalar/AVX2 bit-identity argument (DESIGN.md §14)
                   auditable in one place.
  filter-refine-site
                   Under src/core/, the per-query machinery of the
                   filter-and-refine loop — QueryDeadline::Start(,
                   RefinementExecutor construction, filter::DecidePair(,
                   paranoid::CheckInterval*, PmuStage::kIntervalDecide,
                   RecordQueryObs( — appears only in
                   core/filter_refine.h. A query form that spells any of
                   them has forked the loop again.
  metric-name      No string-literal metric names at Registry call sites:
                   every GetCounter/GetGauge/GetHistogram argument in src/
                   must be a named constant from obs/names.h (obs::k*).
                   An inline "hasj.foo.bar" literal bypasses the one place
                   the metric namespace is audited, and a typo there mints
                   a silent parallel time series nobody reads.
  status-discard   No laundering of Status/Result returns through a (void)
                   cast, and the Status/Result classes themselves must stay
                   [[nodiscard]] (the compiler enforces call sites from
                   there).
  header-guard     Every header under src/ uses the canonical
                   HASJ_<PATH>_H_ include guard.
  include-order    Own header first in .cc files; include blocks grouped
                   (own / <system> / "project") with each group sorted.

Concurrency rules (DESIGN.md §13) — the lexical complement of the Clang
Thread Safety Analysis the HASJ_THREAD_SAFETY build runs:

  naked-mutex      No raw std::mutex / std::shared_mutex / std::lock_guard /
                   std::unique_lock / std::scoped_lock / std::shared_lock /
                   std::condition_variable (or their headers) outside
                   common/mutex.h. Raw primitives are invisible to the
                   thread-safety analysis; the annotated wrappers are not.
  atomic-ordering  Every load/store/exchange/fetch_*/compare_exchange_* on a
                   std::atomic names an explicit std::memory_order_* — no
                   default-seq-cst-by-omission. Forces each site to state
                   (and the reviewer to check) the ordering it actually
                   needs.
  guarded-by-coverage
                   In any class that owns a Mutex/SharedMutex, every
                   mutable data member must carry HASJ_GUARDED_BY /
                   HASJ_PT_GUARDED_BY, be a std::atomic (or another
                   synchronization primitive), be const, or carry an
                   allow-comment naming the confinement argument. Catches
                   the field someone adds next year without deciding who
                   guards it.

Any rule can be suppressed on a specific line with a trailing
`// lint:allow(<rule>): <reason>` comment; the reason is mandatory.
Exit code 0 = clean, 1 = violations (printed one per line).

`--src DIR` overrides the tree to scan (default: <repo>/src); the lint
self-test (tests/lint_hasj_test.py) uses it to run the rules over fixture
snippets.
"""

import argparse
import os
import re
import sys

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\):\s*\S")
BARE_ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)\s*(?::\s*)?$")

violations = []


def report(path, lineno, rule, message, root):
    rel = os.path.relpath(path, root)
    violations.append(f"{rel}:{lineno}: [{rule}] {message}")


def allowed(line, rule, prev_line=""):
    """A suppression comment applies to its own line, or — when it is a
    comment-only line — to the line below it."""
    m = ALLOW_RE.search(line)
    if m and m.group(1) == rule:
        return True
    prev = prev_line.strip()
    m = ALLOW_RE.search(prev)
    return bool(m and m.group(1) == rule and prev.startswith("//"))


def strip_comments_and_strings(line):
    """Removes // comments and the contents of string/char literals."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//")[0]


def iter_files(root, exts):
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if os.path.splitext(name)[1] in exts:
                yield os.path.join(dirpath, name)


# --- float-eq -----------------------------------------------------------
# Lexical floating-point detection: a comparison operand "looks floating"
# when it contains a float literal, a coordinate member (.x/.y on the
# geometry types), or a call into the double-returning geometry API.
FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+\.)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
FLOAT_CALLS = (
    r"(?:Area|SignedArea|Distance|MinDistance|MaxDistance|Norm|Norm2|Dot|"
    r"Cross|Width|Height|ElapsedMillis|fabs|abs|floor|ceil|sqrt|hypot)\s*\("
)
FLOAT_OPERAND = re.compile(
    rf"(?:{FLOAT_LITERAL})|(?:\.\s*[xy]\b)|(?:{FLOAT_CALLS})"
)
COMPARISON = re.compile(r"([^=!<>]|^)([!=]=)(?!=)")


def check_float_eq(path, lines, root):
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "float-eq", lines[i - 2] if i > 1 else ""):
            continue
        code = strip_comments_and_strings(raw)
        for m in COMPARISON.finditer(code):
            lhs = code[: m.start(2)]
            rhs = code[m.end(2):]
            # Operands local to the comparison: clip at statement breaks.
            lhs = re.split(r"[;{}]|&&|\|\|", lhs)[-1]
            rhs = re.split(r"[;{}]|&&|\|\|", rhs)[0]
            if FLOAT_OPERAND.search(lhs) or FLOAT_OPERAND.search(rhs):
                report(
                    path, i, "float-eq",
                    f"exact floating-point {m.group(2)} — use a tolerance "
                    "or justify with // lint:allow(float-eq): <reason>",
                    root,
                )
                break


# --- glsim-raw-cast -----------------------------------------------------
RAW_CAST = re.compile(r"static_cast<\s*int\s*>\s*\(|\(int\)\s*[\w(]")


def check_glsim_cast(path, lines, root):
    if os.path.basename(path) == "pixel_snap.h":
        return  # the blessed helper
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "glsim-raw-cast", lines[i - 2] if i > 1 else ""):
            continue
        if RAW_CAST.search(strip_comments_and_strings(raw)):
            report(
                path, i, "glsim-raw-cast",
                "raw int cast in the rasterizer — route float->pixel "
                "snapping through glsim::PixelFromCoord (pixel_snap.h)",
                root,
            )


# --- simd-intrinsics ----------------------------------------------------
# Raw vector intrinsics are confined to the one TU that owns the AVX2
# kernels plus the cpuid/dispatch header. A stray _mm256_* call anywhere
# else would dodge the scalar-vs-AVX2 differential suite and the
# -ffp-contract=off guarantees that TU is compiled with.
SIMD_BLESSED = {
    os.path.join("glsim", "rowspan_avx2.cc"),
    os.path.join("common", "simd.h"),
}
SIMD_TOKEN = re.compile(
    r"#include\s*<(?:immintrin|x86intrin|[xew]mmintrin|avx\w*intrin)\.h>"
    r"|\b_mm(?:256|512)?_\w+\s*\("
    r"|\b__m(?:64|128|256|512)[di]?\b"
)


def check_simd_intrinsics(path, lines, src, root):
    if os.path.relpath(path, src) in SIMD_BLESSED:
        return
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "simd-intrinsics", lines[i - 2] if i > 1 else ""):
            continue
        if SIMD_TOKEN.search(strip_comments_and_strings(raw)):
            report(
                path, i, "simd-intrinsics",
                "raw vector intrinsic outside glsim/rowspan_avx2.cc / "
                "common/simd.h — go through the RowSpanEngine kernel ABI "
                "(or justify with // lint:allow(simd-intrinsics): <reason>)",
                root,
            )


# --- filter-refine-site -------------------------------------------------
# All eight query forms run through core/filter_refine.h; the tokens below
# are the per-query machinery that must exist there once. Their defining
# headers (refinement_executor.h, query_obs.*, paranoid.*) live in core/
# too and are exempt.
FILTER_REFINE_EXEMPT = {
    os.path.join("core", "filter_refine.h"),
    os.path.join("core", "refinement_executor.h"),
    os.path.join("core", "query_obs.h"),
    os.path.join("core", "query_obs.cc"),
    os.path.join("core", "paranoid.h"),
    os.path.join("core", "paranoid.cc"),
}
FILTER_REFINE_TOKEN = re.compile(
    r"\bQueryDeadline::Start\s*\("
    r"|\bRefinementExecutor\s+\w+\s*[({]"
    r"|\bRefinementExecutor\s*[({]"
    r"|\bDecidePair\s*\("
    r"|\bparanoid::CheckInterval\w*\s*\("
    r"|\bPmuStage::kIntervalDecide\b"
    r"|\bRecordQueryObs\s*\("
)


def check_filter_refine_site(path, lines, src, root):
    rel = os.path.relpath(path, src)
    if rel.split(os.sep)[0] != "core" or rel in FILTER_REFINE_EXEMPT:
        return
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "filter-refine-site", lines[i - 2] if i > 1 else ""):
            continue
        if FILTER_REFINE_TOKEN.search(strip_comments_and_strings(raw)):
            report(
                path, i, "filter-refine-site",
                "per-query filter-and-refine machinery outside "
                "core/filter_refine.h — run the query through FilterRefine "
                "(or justify with // lint:allow(filter-refine-site): "
                "<reason>)",
                root,
            )


# --- metric-name --------------------------------------------------------
# Registry lookups must spell their metric name as an obs/names.h constant.
# The regex keys on a string literal opening the argument list; building a
# name from a constant (`prefix + obs::kPipelineRunsSuffix`) stays legal
# because the literal lives in names.h, which defines the constants and is
# the one file exempted.
METRIC_LOOKUP_LITERAL = re.compile(
    r"\bGet(?:Counter|Gauge|Histogram)\s*\(\s*\"")


def check_metric_name(path, lines, src, root):
    if os.path.relpath(path, src) == os.path.join("obs", "names.h"):
        return  # the canonical name table itself
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "metric-name", lines[i - 2] if i > 1 else ""):
            continue
        # Match against the raw line: string stripping would erase the very
        # literal this rule keys on.
        if METRIC_LOOKUP_LITERAL.search(raw.split("//")[0]):
            report(
                path, i, "metric-name",
                "string-literal metric name at a Registry call site — use a "
                "named constant from obs/names.h (or justify with "
                "// lint:allow(metric-name): <reason>)",
                root,
            )


# --- status-discard -----------------------------------------------------
# Includes the Status-returning hardware/degradation APIs (DESIGN.md §11):
# discarding a glsim gate status in core/ would silently drop the fault and
# skip the software fallback the conservativeness argument depends on.
STATUS_APIS = (
    r"(?:Validate|CheckInvariants|SaveDataset|WriteSvg"
    r"|BeginRender|BeginScan|BeginFill|TryClear|HwStep|ParallelFor|Check"
    r"|BuildIntervalApprox"
    # Mutable-store / server Status APIs (DESIGN.md §16): discarding an
    # Insert/Delete/SeedFrom/ApplyUpdateOp status hides a lost update;
    # discarding QueryServer::Start hides a server that never ran.
    r"|Insert|Delete|SeedFrom|ApplyUpdateOp|Start)"
)
VOID_LAUNDER = re.compile(rf"\(void\)\s*[\w.>-]*\b{STATUS_APIS}\s*\(")


def check_status_discard(path, lines, root):
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "status-discard", lines[i - 2] if i > 1 else ""):
            continue
        if VOID_LAUNDER.search(strip_comments_and_strings(raw)):
            report(
                path, i, "status-discard",
                "Status result laundered through (void) — handle it or use "
                "HASJ_CHECK_OK",
                root,
            )


def check_status_nodiscard_classes(src, root):
    status_h = os.path.join(src, "common", "status.h")
    if not os.path.exists(status_h):
        return  # fixture tree without the real status header
    with open(status_h, encoding="utf-8") as f:
        text = f.read()
    for cls in ("Status", "Result"):
        if not re.search(rf"class\s+\[\[nodiscard\]\]\s+{cls}\b", text):
            report(
                status_h, 1, "status-discard",
                f"class {cls} must be declared [[nodiscard]]",
                root,
            )


# --- header-guard -------------------------------------------------------
def check_header_guard(path, lines, src, root):
    rel = os.path.relpath(path, src)
    guard = "HASJ_" + re.sub(r"[/.]", "_", rel).upper() + "_"
    text = "".join(lines)
    ifndef = re.search(r"#ifndef\s+(\S+)", text)
    define = re.search(r"#define\s+(\S+)", text)
    if not ifndef or ifndef.group(1) != guard:
        report(
            path, 1, "header-guard",
            f"expected include guard {guard}, found "
            f"{ifndef.group(1) if ifndef else 'none'}",
            root,
        )
    elif not define or define.group(1) != guard:
        report(path, 1, "header-guard", f"#define does not match {guard}",
               root)
    elif f"#endif  // {guard}" not in text:
        report(path, 1, "header-guard",
               f"closing '#endif  // {guard}' comment missing", root)


# --- include-order ------------------------------------------------------
INCLUDE_RE = re.compile(r'#include\s+(<[^>]+>|"[^"]+")')


def check_include_order(path, lines, src, root):
    rel = os.path.relpath(path, src)
    own_header = re.sub(r"\.cc$", ".h", rel)
    includes = []  # (lineno, token, preceded_by_blank)
    blank_before = False
    for i, raw in enumerate(lines, 1):
        stripped = raw.strip()
        m = INCLUDE_RE.match(stripped)
        if m:
            includes.append((i, m.group(1), blank_before))
            blank_before = False
        elif stripped == "":
            blank_before = True
        elif includes and not stripped.startswith("//"):
            break  # past the include preamble
    if not includes:
        return
    idx = 0
    if path.endswith(".cc") and os.path.exists(os.path.join(src, own_header)):
        if includes[0][1] != f'"{own_header}"':
            report(
                path, includes[0][0], "include-order",
                f'own header "{own_header}" must be the first include',
                root,
            )
            return
        idx = 1
    # Remaining includes: group runs separated by blank lines; each group
    # must be homogeneous (<...> or "...") and internally sorted, with all
    # system groups before all project groups.
    groups = []
    for entry in includes[idx:]:
        if entry[2] or not groups:
            groups.append([entry])
        else:
            groups[-1].append(entry)
    seen_project = False
    for group in groups:
        kinds = {token[0] for _, token, _ in group}
        if len(kinds) > 1:
            report(
                path, group[0][0], "include-order",
                "mixed <system> and \"project\" includes in one block",
                root,
            )
            continue
        if kinds == {"<"}:
            if seen_project:
                report(
                    path, group[0][0], "include-order",
                    "<system> include block after a \"project\" block",
                    root,
                )
        else:
            seen_project = True
        tokens = [token for _, token, _ in group]
        if tokens != sorted(tokens):
            report(
                path, group[0][0], "include-order",
                f"include block not sorted: {', '.join(tokens)}",
                root,
            )


# --- naked-mutex --------------------------------------------------------
# Raw standard-library locking primitives are invisible to the Clang Thread
# Safety Analysis; the annotated wrappers in common/mutex.h are the only
# blessed spelling. std::once_flag / std::call_once are deliberately NOT in
# the pattern: call_once is a one-shot initialization primitive, not a lock
# the analysis could track (its <mutex> include does need an allow-comment,
# which is where the justification lands).
NAKED_MUTEX = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)
NAKED_MUTEX_INCLUDE = re.compile(
    r"#include\s+<(?:mutex|shared_mutex|condition_variable)>"
)


def check_naked_mutex(path, lines, src, root):
    if os.path.relpath(path, src) == os.path.join("common", "mutex.h"):
        return  # the blessed wrapper itself
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "naked-mutex", lines[i - 2] if i > 1 else ""):
            continue
        code = strip_comments_and_strings(raw)
        if NAKED_MUTEX.search(code) or NAKED_MUTEX_INCLUDE.search(code):
            report(
                path, i, "naked-mutex",
                "raw std locking primitive outside common/mutex.h — use the "
                "annotated Mutex/MutexLock/CondVar wrappers (or justify "
                "with // lint:allow(naked-mutex): <reason>)",
                root,
            )


# --- atomic-ordering ----------------------------------------------------
# Atomic operations whose std::memory_order argument is optional: omitting
# it silently means seq_cst, which is almost never what a reviewed hot path
# intends. Requiring the argument makes every site state its ordering.
ATOMIC_OP = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\("
)
# How many lines one call may span before we give up scanning for its
# closing paren (argument lists here are short).
MAX_CALL_SPAN = 8


def call_argument_text(lines, line_idx, open_col):
    """Text of a call's argument list, from the opening paren at
    (line_idx, open_col) to its balanced close; joined across lines."""
    depth = 0
    parts = []
    for j in range(line_idx, min(line_idx + MAX_CALL_SPAN, len(lines))):
        code = strip_comments_and_strings(lines[j])
        start = open_col if j == line_idx else 0
        for k in range(start, len(code)):
            ch = code[k]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    parts.append(code[start:k + 1])
                    return "".join(parts)
        parts.append(code[start:])
    return "".join(parts)  # unbalanced: best effort


def check_atomic_ordering(path, lines, root):
    for i, raw in enumerate(lines, 1):
        if allowed(raw, "atomic-ordering", lines[i - 2] if i > 1 else ""):
            continue
        code = strip_comments_and_strings(raw)
        for m in ATOMIC_OP.finditer(code):
            args = call_argument_text(lines, i - 1, m.end() - 1)
            if "memory_order" not in args:
                report(
                    path, i, "atomic-ordering",
                    f"atomic {m.group(1)}() without an explicit "
                    "std::memory_order_* — seq-cst-by-omission; name the "
                    "ordering the site actually needs",
                    root,
                )
                break


# --- guarded-by-coverage ------------------------------------------------
# Any class that owns an annotated Mutex/SharedMutex must say, for every
# mutable data member, who guards it: HASJ_GUARDED_BY / HASJ_PT_GUARDED_BY,
# std::atomic, const-ness, another synchronization primitive, or an
# allow-comment carrying the confinement argument.
CLASS_DECL = re.compile(
    r"(?<!enum )\b(class|struct)\s+(?:HASJ_\w+\([^)]*\)\s*)?"
    r"(?:\[\[\w+\]\]\s*)?(\w+)"
)
OWNS_MUTEX = re.compile(r"(?<![:\w])(?:mutable\s+)?(Mutex|SharedMutex)\s+\w+\s*[;{]")
MEMBER_NAME = re.compile(r"\b([A-Za-z]\w*_)\s*(?:\[[^\]]*\])?\s*;\s*$")
SYNC_TYPES = re.compile(
    r"std::atomic\b|(?<![:\w])Mutex\b|(?<![:\w])SharedMutex\b"
    r"|(?<![:\w])CondVar\b|std::once_flag\b"
)
# `const T name_;` or `T* const name_;` — the member itself is immutable.
CONST_MEMBER = re.compile(
    r"^(?:mutable\s+)?(?:static\s+)?const\s+[\w:<>,\s]+\s\w+_\s*;$"
    r"|[*&]\s*const\s+\w+_\s*(?:\[[^\]]*\])?\s*;\s*$"
)
NON_MEMBER_KEYWORDS = re.compile(
    r"^\s*(?:friend|using|typedef|static_assert|public|private|protected|"
    r"template|enum)\b"
)


class _ClassScope:
    def __init__(self, name, body_depth):
        self.name = name
        self.body_depth = body_depth
        self.owns_mutex = False
        self.members = []  # (start_lineno, stmt_code)


def collect_class_members(lines):
    """Lexical single-pass scan: returns the list of finished _ClassScope
    objects with their direct member-declaration statements."""
    depth = 0
    pending_class = None  # name awaiting its opening brace
    stack = []  # mix of _ClassScope and None (non-class braces)
    finished = []
    stmt = ""  # accumulating statement text at the innermost class depth
    stmt_start = 0
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        m = CLASS_DECL.search(code)
        if m:
            tail = code[m.end():]
            brace = tail.find("{")
            semi = tail.find(";")
            if brace != -1 and (semi == -1 or brace < semi):
                pending_class = m.group(2)
            elif semi == -1:
                pending_class = m.group(2)  # brace on a later line
        innermost = stack[-1] if stack and isinstance(stack[-1], _ClassScope) \
            else None
        at_member_depth = innermost is not None and depth == innermost.body_depth
        for k, ch in enumerate(code):
            if ch == "{":
                depth += 1
                if pending_class is not None:
                    stack.append(_ClassScope(pending_class, depth))
                    pending_class = None
                else:
                    stack.append(None)
                stmt, at_member_depth = "", False
                innermost = stack[-1] if isinstance(stack[-1], _ClassScope) \
                    else None
                if innermost is not None and depth == innermost.body_depth:
                    at_member_depth = True
            elif ch == "}":
                depth -= 1
                if stack:
                    closed = stack.pop()
                    if isinstance(closed, _ClassScope):
                        finished.append(closed)
                stmt, at_member_depth = "", False
                innermost = next(
                    (s for s in reversed(stack) if isinstance(s, _ClassScope)),
                    None,
                )
                if innermost is not None and stack and \
                        stack[-1] is innermost and depth == innermost.body_depth:
                    at_member_depth = True
            elif at_member_depth:
                if not stmt.strip():
                    stmt_start = lineno
                stmt += ch
                if ch == ";":
                    text = " ".join(stmt.split()).strip()
                    if text:
                        innermost.members.append((stmt_start, text))
                        if OWNS_MUTEX.search(text):
                            innermost.owns_mutex = True
                    stmt = ""
        if at_member_depth:
            stmt += " "  # line break inside a statement
    return finished


def is_data_member(stmt):
    """Does a class-scope statement declare a data member (vs a method,
    friend, using, access label, nested type...)?"""
    if NON_MEMBER_KEYWORDS.match(stmt):
        return None
    # Drop annotation macros, brace initializers, and '=' initializers so a
    # function declaration is recognizable by its remaining parentheses.
    cleaned = re.sub(r"HASJ_\w+\s*\([^()]*\)", "", stmt)
    cleaned = re.sub(r"\{[^{}]*\}", "", cleaned)
    cleaned = re.sub(r"=[^;]*;", ";", cleaned)
    cleaned = " ".join(cleaned.split())
    if "(" in cleaned:
        return None  # method / constructor / function pointer (rare)
    m = MEMBER_NAME.search(cleaned)
    return (m.group(1), cleaned) if m else None


def check_guarded_by(path, lines, root):
    for scope in collect_class_members(lines):
        if not scope.owns_mutex:
            continue
        for start, stmt in scope.members:
            member = is_data_member(stmt)
            if member is None:
                continue
            name, cleaned = member
            if "HASJ_GUARDED_BY" in stmt or "HASJ_PT_GUARDED_BY" in stmt:
                continue
            if SYNC_TYPES.search(cleaned):
                continue
            if CONST_MEMBER.search(cleaned):
                continue
            raw = lines[start - 1]
            prev = lines[start - 2] if start > 1 else ""
            if allowed(raw, "guarded-by-coverage", prev):
                continue
            report(
                path, start, "guarded-by-coverage",
                f"member '{name}' of mutex-owning class '{scope.name}' has "
                "no HASJ_GUARDED_BY, is not atomic/const — annotate it, or "
                "state the confinement argument with "
                "// lint:allow(guarded-by-coverage): <reason>",
                root,
            )


# --- unknown/withered suppressions --------------------------------------
KNOWN_RULES = {
    "float-eq", "glsim-raw-cast", "simd-intrinsics", "filter-refine-site",
    "metric-name",
    "status-discard", "header-guard", "include-order", "naked-mutex",
    "atomic-ordering", "guarded-by-coverage",
}


def check_suppressions(path, lines, root):
    for i, raw in enumerate(lines, 1):
        m = BARE_ALLOW_RE.search(raw.rstrip())
        if m:
            report(
                path, i, "lint-allow",
                "lint:allow without a reason — write "
                "// lint:allow(<rule>): <reason>",
                root,
            )
            continue
        m = ALLOW_RE.search(raw)
        if m and m.group(1) not in KNOWN_RULES:
            report(path, i, "lint-allow", f"unknown lint rule '{m.group(1)}'",
                   root)


def run(src, root):
    for path in iter_files(src, {".h", ".cc"}):
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        rel = os.path.relpath(path, src)
        top = rel.split(os.sep)[0]
        check_suppressions(path, lines, root)
        if top in ("geom", "algo"):
            check_float_eq(path, lines, root)
        if top == "glsim":
            check_glsim_cast(path, lines, root)
        check_simd_intrinsics(path, lines, src, root)
        check_filter_refine_site(path, lines, src, root)
        check_metric_name(path, lines, src, root)
        check_status_discard(path, lines, root)
        check_naked_mutex(path, lines, src, root)
        check_atomic_ordering(path, lines, root)
        check_guarded_by(path, lines, root)
        if path.endswith(".h"):
            check_header_guard(path, lines, src, root)
        if path.endswith(".cc"):
            check_include_order(path, lines, src, root)
    check_status_nodiscard_classes(src, root)


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--src", default=os.path.join(repo, "src"),
        help="source tree to scan (default: <repo>/src); used by the lint "
        "self-tests to point at fixture trees",
    )
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    root = os.path.dirname(src) or src

    del violations[:]
    run(src, root)

    if violations:
        print(f"lint_hasj: {len(violations)} violation(s)", file=sys.stderr)
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    print("lint_hasj: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
