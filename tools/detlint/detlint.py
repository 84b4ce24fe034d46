#!/usr/bin/env python3
"""detlint — determinism & race-safety lint for the Polystyrene tree.

Every result this repository publishes rests on bit-reproducible
fixed-seed trajectories (docs/DETERMINISM.md).  detlint is the static
enforcement layer for that contract: it scans C++ sources for the
constructs that historically break bit-reproducibility and fails the
build on any finding that is not explicitly justified in the code.

Checks
------
  unordered-iter   (D1)  Iteration over std::unordered_* containers.
                         Hash-table iteration order depends on the
                         allocator, libstdc++ version and (for pointer
                         or string keys) ASLR, so any value that escapes
                         such a loop into ordered state, RNG draws, wire
                         frames or metrics is nondeterministic.
                         Membership operations (find/contains/count/
                         insert/erase-by-key) are order-free and allowed.
  pointer-order    (D2)  Ordering or hashing by pointer value: pointer
                         keys in ordered/unordered associative
                         containers, std::less/std::greater/std::hash
                         over pointer types, comparator lambdas that
                         compare two pointer parameters, and
                         reinterpret_cast<uintptr_t>.  Address order
                         changes run to run under ASLR.
  nondet-source    (D3)  Nondeterminism sources outside util::Rng:
                         rand/srand/random_device, wall-clock reads
                         (std::chrono::*_clock::now, time(), gettimeofday,
                         clock_gettime).  The only sanctioned randomness
                         is a seeded util::Rng; the only sanctioned time
                         is the engine's virtual clock.
  arena-invariant  (D4)  util::ArenaVec misuse: element types that own
                         heap memory (growth/erase are memcpy — owning
                         members would be double-freed or leaked), and
                         ArenaVec variables never bind()-ed to an arena
                         anywhere in the tree (use before bind
                         dereferences null).
  suppression            Malformed DETLINT-ALLOW comments: unknown check
                         name, or a missing justification.

Suppressions
------------
A finding is justified in place with a comment on the same line or on a
comment-only line directly above:

    // DETLINT-ALLOW(unordered-iter): teardown close(); order invisible
    for (auto& [addr, fd] : outgoing_) ::close(fd);

The check name must be one of the check ids above and the reason must be
non-empty; both are enforced.  Suppressions are never silent: every one
used is listed in the report (and the JSON summary) with its reason, and
unused ones are reported as warnings so stale justifications get pruned.

Per-path policy lives in detlint.json next to this script ("path_rules"):
e.g. bench/ sources may read the wall clock because measuring wall time
is their purpose.  Path rules are also reported, never silent.

Engines
-------
The default engine is a self-contained lexer: it blanks comments and
string literals, tracks declarations (including cross-file member
declarations) and matches the patterns above.  It needs nothing beyond
the Python standard library, which is the point — the build image has no
clang binary, no libclang, and no clang Python bindings.  `--engine
clang` is the reserved slot for the clang-AST engine (precise
escape-analysis for D1); it requires the optional `clang.cindex`
bindings and reports clearly when they are absent.

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/configuration
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import pathlib
import re
import sys

CHECKS = {
    "unordered-iter": "iteration over std::unordered_* (hash order escapes)",
    "pointer-order": "ordering/hashing by pointer value (ASLR-dependent)",
    "nondet-source": "nondeterminism source outside util::Rng",
    "arena-invariant": "util::ArenaVec element/binding invariant",
    "suppression": "malformed DETLINT-ALLOW comment",
}

OWNING_TYPE_RE = re.compile(
    r"std\s*::\s*(string\b|vector\s*<|unique_ptr\s*<|shared_ptr\s*<|"
    r"function\s*<|deque\s*<|list\s*<|map\s*<|set\s*<|unordered_)"
)

ALLOW_RE = re.compile(r"DETLINT-ALLOW\s*\(([^)]*)\)\s*(?::\s*(.*))?")


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str
    suppressed_by: str | None = None  # the justification, when suppressed

    def location(self) -> str:
        return f"{self.path}:{self.line}"


@dataclasses.dataclass
class Allow:
    path: str
    line: int            # line of the comment itself
    applies_to: set[int]  # source lines this comment can justify
    checks: list[str]
    reason: str
    used: bool = False


# ---------------------------------------------------------------------------
# Lexing: blank comments and literals, keep line structure, keep comments.
# ---------------------------------------------------------------------------

def strip_comments_and_literals(text: str):
    """Returns (code, comments) where `code` is `text` with comments,
    string literals and char literals replaced by spaces (newlines kept,
    so line numbers and intra-line offsets survive), and `comments` is a
    list of (first_line, comment_text) 1-based tuples."""
    out = []
    comments = []
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("\n")
            line += 1
            i += 1
        elif c == "/" and nxt == "/":
            start, start_line = i, line
            while i < n and text[i] != "\n":
                i += 1
            comments.append((start_line, text[start:i]))
            out.append(" " * (i - start))
        elif c == "/" and nxt == "*":
            start, start_line = i, line
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i = min(i + 2, n)
            comments.append((start_line, text[start:i]))
            for ch in text[start:i]:
                out.append("\n" if ch == "\n" else " ")
        elif c == "R" and nxt == '"':
            # Raw string literal R"delim( ... )delim".
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            end = text.find(close, i + m.end())
            end = n if end == -1 else end + len(close)
            for ch in text[i:end]:
                if ch == "\n":
                    out.append("\n")
                    line += 1
                else:
                    out.append(" ")
            i = end
        elif c == '"' or c == "'":
            quote = c
            start = i
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":  # unterminated; bail at EOL
                    break
                i += 1
            i = min(i + 1, n)
            out.append(quote + " " * max(0, i - start - 2) +
                       (quote if i - start >= 2 else ""))
        else:
            out.append(c)
            i += 1
    return "".join(out), comments


def balanced_angle(code: str, start: int) -> int:
    """`start` indexes the '<' opening a template argument list; returns
    the index one past the matching '>'(or len(code) if unbalanced)."""
    depth = 0
    i = start
    while i < len(code):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}" and depth == 0:
            break
        i += 1
    return len(code)


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


# ---------------------------------------------------------------------------
# Per-file scan model.
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
ARENAVEC_RE = re.compile(r"\b(?:util\s*::\s*)?ArenaVec\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# What may stand between a declaration's type and its name: references,
# pointers and const (`std::unordered_map<K, V> const& m`, `... * p`).
DECLARATOR_PREFIX_RE = re.compile(r"(?:\s*(?:&&?|\*|\bconst\b))*\s*")


@dataclasses.dataclass
class FileScan:
    path: str                      # repo-relative posix path
    code: str                      # blanked source
    allows: list
    unordered_vars: set            # names declared with an unordered type
    arenavec_vars: dict            # name -> (line, template_arg)
    arenavec_insts: list           # (line, template_arg) of every ArenaVec<...>
    bound_names: set               # names with a .bind( call in this file
    owning_structs: set            # local struct names with owning members


def parse_allows(path: str, comments, code: str):
    """DETLINT-ALLOW comments -> Allow records (+ findings for bad ones).
    A comment justifies findings on its own first line; a comment that
    has no code before it on its line also justifies the next line that
    contains any code."""
    allows, findings = [], []
    lines = code.split("\n")
    comment_at = {ln: txt for ln, txt in comments}
    for first_line, ctext in comments:
        m = ALLOW_RE.search(ctext)
        if not m:
            continue
        names = [s.strip() for s in m.group(1).split(",") if s.strip()]
        reason = (m.group(2) or "").strip()
        # A `//` comment continued over the following comment-only lines
        # extends the justification.
        ln = first_line + 1
        while (ln in comment_at and ln <= len(lines)
               and not lines[ln - 1].strip()
               and not ALLOW_RE.search(comment_at[ln])):
            reason = (reason + " " +
                      comment_at[ln].lstrip("/ ").rstrip()).strip()
            ln += 1
        bad = [nm for nm in names if nm not in CHECKS]
        if bad or not names:
            findings.append(Finding(
                path, first_line, "suppression",
                f"DETLINT-ALLOW names unknown check(s) "
                f"{', '.join(bad) if bad else '<none>'}; "
                f"valid: {', '.join(k for k in CHECKS if k != 'suppression')}"))
            continue
        if not reason:
            findings.append(Finding(
                path, first_line, "suppression",
                "DETLINT-ALLOW requires a justification: "
                "DETLINT-ALLOW(check): <why this is deterministic/safe>"))
            continue
        applies = {first_line}
        before = lines[first_line - 1] if first_line <= len(lines) else ""
        if not before.strip():  # comment-only line: justify the next code line
            for ln in range(first_line + 1, min(first_line + 8, len(lines) + 1)):
                applies.add(ln)
                if lines[ln - 1].strip():
                    break
        allows.append(Allow(path, first_line, applies, names, reason))
    return allows, findings


def has_owning_member(body: str) -> bool:
    """True when a struct/class body declares a member *variable* of a
    heap-owning type.  A member function merely returning or taking such
    a type (e.g. `std::string str() const`) does not make instances own
    heap memory, so the declarator after the type must be a plain
    identifier terminated by ; = { [ or , — never an argument list, and
    never a reference/pointer declarator (those don't own)."""
    for m in OWNING_TYPE_RE.finditer(body):
        end = m.end()
        if body[end - 1] == "<":
            end = balanced_angle(body, end - 1)
        tail = body[end:].lstrip()
        if tail[:1] in ("&", "*"):
            continue
        im = IDENT_RE.match(tail)
        if not im:
            continue
        after = tail[im.end():].lstrip()
        if after[:1] in (";", "=", "{", "[", ","):
            return True
    return False


def scan_file(root: pathlib.Path, rel: str) -> FileScan:
    text = (root / rel).read_text(encoding="utf-8", errors="replace")
    code, comments = strip_comments_and_literals(text)
    allows, allow_findings = parse_allows(rel, comments, code)

    unordered_vars = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        end = balanced_angle(code, code.index("<", m.start()))
        tail = code[end:end + 160]
        tail = tail[DECLARATOR_PREFIX_RE.match(tail).end():]
        im = IDENT_RE.match(tail)
        if im:
            unordered_vars.add(im.group(0))

    arenavec_vars, arenavec_insts, bound = {}, [], set()
    for m in ARENAVEC_RE.finditer(code):
        lt = code.index("<", m.start())
        end = balanced_angle(code, lt)
        arg = " ".join(code[lt + 1:end - 1].split())
        ln = line_of(code, m.start())
        arenavec_insts.append((ln, arg))
        tail = code[end:end + 160].lstrip()
        im = IDENT_RE.match(tail)
        if im and not tail[len(im.group(0)):].lstrip().startswith("("):
            arenavec_vars[im.group(0)] = (ln, arg)
    for m in re.finditer(r"\b(\w+)\s*(?:\.|->)\s*bind\s*\(", code):
        bound.add(m.group(1))

    owning_structs = set()
    for m in re.finditer(r"\b(?:struct|class)\s+(\w+)[^;{]*\{", code):
        depth, i = 0, code.index("{", m.end() - 1)
        start = i
        while i < len(code):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if has_owning_member(code[start:i]):
            owning_structs.add(m.group(1))

    fs = FileScan(rel, code, allows, unordered_vars, arenavec_vars,
                  arenavec_insts, bound, owning_structs)
    fs.allow_findings = allow_findings
    return fs


# ---------------------------------------------------------------------------
# Checks (lex engine).
# ---------------------------------------------------------------------------

def base_ident(expr: str) -> str | None:
    """The identifier a range/iteration expression resolves to: the last
    name in a `a.b->c` chain, with derefs and trailing call parens
    stripped.  `hub.table_` -> table_, `*map_ptr` -> map_ptr,
    `make() ` -> None (call results are out of lexical reach)."""
    expr = expr.strip().lstrip("*&(").rstrip(")")
    idents = IDENT_RE.findall(expr)
    if not idents:
        return None
    if re.search(r"\w\s*\([^()]*\)\s*$", expr):
        return None  # trailing call: the range is a function result
    return idents[-1]


def check_unordered_iter(fs: FileScan, global_unordered: set):
    known = fs.unordered_vars | global_unordered
    out = []
    # The range-for colon is a lone `:`; the `::` of a qualified name in a
    # classic for-loop header (`for (std::size_t i = ...; ...)`) is not.
    for m in re.finditer(r"\bfor\s*\(([^;)]*?)(?<!:):(?!:)([^;)]*)\)",
                         fs.code):
        name = base_ident(m.group(2))
        if name in known:
            out.append(Finding(
                fs.path, line_of(fs.code, m.start()), "unordered-iter",
                f"range-for over unordered container '{name}': hash-table "
                f"order is allocator/ASLR-dependent and must not escape "
                f"into ordered state, RNG draws, wire frames or metrics"))
    # begin()/cbegin() only: a bare `.end()` is the find()!=end() membership
    # idiom, which is order-free.
    for m in re.finditer(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(", fs.code):
        if m.group(1) in known:
            out.append(Finding(
                fs.path, line_of(fs.code, m.start()), "unordered-iter",
                f"iterator walk over unordered container '{m.group(1)}' "
                f"(begin): iteration order is not deterministic"))
    return out


def first_template_arg(code: str, lt: int) -> str:
    """The first top-level template argument of the list opened at `lt`."""
    depth, i = 0, lt
    start = lt + 1
    while i < len(code):
        c = code[i]
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
            if depth == 0:
                return code[start:i]
        elif c == "," and depth == 1:
            return code[start:i]
        i += 1
    return code[start:]


def check_pointer_order(fs: FileScan):
    out = []
    code = fs.code

    def add(pos, msg):
        out.append(Finding(fs.path, line_of(code, pos), "pointer-order", msg))

    for m in re.finditer(
            r"\bstd\s*::\s*(map|set|multimap|multiset|unordered_map|"
            r"unordered_set|unordered_multimap|unordered_multiset)\s*<", code):
        arg = first_template_arg(code, code.index("<", m.start()))
        if re.search(r"\*\s*(const\s*)?$", arg.strip()):
            add(m.start(),
                f"std::{m.group(1)} keyed by pointer type "
                f"'{' '.join(arg.split())}': address order/hash varies "
                f"run to run under ASLR")
    for m in re.finditer(r"\bstd\s*::\s*(less|greater|hash)\s*<([^<>;]*\*[^<>;]*)>",
                         code):
        add(m.start(),
            f"std::{m.group(1)}<{' '.join(m.group(2).split())}> orders/hashes "
            f"by raw address")
    # Comparator lambda over two pointer parameters whose body compares them.
    lam = re.compile(
        r"\[[^\[\]]*\]\s*\(\s*(?:const\s+)?[\w:]+\s*\*\s*(?:const\s+)?(\w+)\s*,"
        r"\s*(?:const\s+)?[\w:]+\s*\*\s*(?:const\s+)?(\w+)\s*\)")
    for m in lam.finditer(code):
        brace = code.find("{", m.end())
        if brace == -1:
            continue
        depth, i = 0, brace
        while i < len(code):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = code[brace:i]
        a, b = m.group(1), m.group(2)
        if re.search(rf"\b{a}\s*[<>]=?\s*{b}\b|\b{b}\s*[<>]=?\s*{a}\b", body):
            add(m.start(),
                f"comparator lambda orders pointers '{a}'/'{b}' by address")
    for m in re.finditer(r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?uintptr_t",
                         code):
        add(m.start(),
            "reinterpret_cast<uintptr_t>: pointer value escaping into "
            "arithmetic/ordering is ASLR-dependent")
    return out


NONDET_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b"),
     "std::random_device: unseeded entropy; draw from a seeded util::Rng"),
    (re.compile(r"\bstd\s*::\s*s?rand\s*\(|(?<![\w.>:])s?rand\s*\("),
     "rand()/srand(): C PRNG is global, unseeded here and "
     "implementation-defined; use util::Rng"),
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock|"
                r"high_resolution_clock)\s*::\s*now\s*\(|"
                r"(?<!chrono::)\b(?:system_clock|steady_clock|"
                r"high_resolution_clock)\s*::\s*now\s*\("),
     "wall-clock read (chrono ::now): simulation state must use the "
     "engine's virtual clock"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time(): wall-clock read; use the engine's virtual clock"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("),
     "wall-clock syscall; use the engine's virtual clock"),
]


def check_nondet_source(fs: FileScan):
    out = []
    for pat, msg in NONDET_PATTERNS:
        for m in pat.finditer(fs.code):
            out.append(Finding(fs.path, line_of(fs.code, m.start()),
                               "nondet-source", msg))
    return out


def check_arena_invariant(fs: FileScan, global_bound: set,
                          global_owning_structs: set):
    out = []
    owning = fs.owning_structs | global_owning_structs
    for ln, arg in fs.arenavec_insts:
        bare = arg.strip()
        if OWNING_TYPE_RE.search(arg):
            out.append(Finding(
                fs.path, ln, "arena-invariant",
                f"ArenaVec<{bare}>: element type owns heap memory; "
                f"ArenaVec growth/erase are raw memcpy/memmove, so owning "
                f"elements double-free or leak (elements must be trivially "
                f"copyable)"))
        elif bare in owning:
            out.append(Finding(
                fs.path, ln, "arena-invariant",
                f"ArenaVec<{bare}>: '{bare}' has heap-owning members; "
                f"ArenaVec elements must be trivially copyable"))
    for name, (ln, arg) in fs.arenavec_vars.items():
        if name not in global_bound:
            out.append(Finding(
                fs.path, ln, "arena-invariant",
                f"ArenaVec '{name}' is never bind()-ed to an Arena anywhere "
                f"in the scanned tree: its capacity must be provided at "
                f"construction (bind(arena, cap)) before first use"))
    return out


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def die(msg: str) -> None:
    """Usage/configuration error: print and exit 2 (exit 1 is reserved
    for unsuppressed findings)."""
    print(msg, file=sys.stderr)
    raise SystemExit(2)


def load_config(script_dir: pathlib.Path, arg: str | None):
    if arg == "none":
        return {"roots": [], "exclude": [], "path_rules": [],
                "extensions": [".cpp", ".hpp", ".h", ".cc"]}
    path = pathlib.Path(arg) if arg else script_dir / "detlint.json"
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg.setdefault("roots", ["src", "tools", "bench"])
    cfg.setdefault("exclude", [])
    cfg.setdefault("path_rules", [])
    cfg.setdefault("extensions", [".cpp", ".hpp", ".h", ".cc"])
    for rule in cfg["path_rules"]:
        for key in ("check", "path", "reason"):
            if not rule.get(key):
                die(f"detlint: config path_rule missing '{key}': {rule}")
        if rule["check"] not in CHECKS:
            die(f"detlint: config path_rule names unknown check "
                     f"'{rule['check']}'")
    return cfg


def collect_files(base: pathlib.Path, roots, exclude, extensions,
                  compile_commands: str | None):
    files = []
    for r in roots:
        rp = (base / r)
        if rp.is_file():
            files.append(rp)
            continue
        if not rp.is_dir():
            die(f"detlint: root not found: {r} (under {base})")
        files.extend(p for p in sorted(rp.rglob("*"))
                     if p.suffix in extensions and p.is_file())
    if compile_commands:
        # Cross-check only: every TU in the database that lives under a
        # scanned root must be in our list (catches generated sources the
        # walk can't see; the lex engine needs no flags from it).
        try:
            db = json.loads(pathlib.Path(compile_commands).read_text())
        except (OSError, json.JSONDecodeError) as e:
            die(f"detlint: cannot read compile commands: {e}")
        known = {p.resolve() for p in files}
        for entry in db:
            src = pathlib.Path(entry["directory"], entry["file"]).resolve()
            if any(src.is_relative_to((base / r).resolve()) for r in roots
                   if (base / r).is_dir()):
                if src not in known and src.suffix in extensions:
                    files.append(src)
    rels = []
    for p in files:
        rel = p.resolve().relative_to(base.resolve()).as_posix()
        if not any(fnmatch.fnmatch(rel, pat) or rel.startswith(pat.rstrip("*/") + "/")
                   for pat in exclude):
            rels.append(rel)
    return sorted(set(rels))


def run_lex_engine(base, rels, disabled):
    scans = [scan_file(base, rel) for rel in rels]
    global_unordered = set().union(*(s.unordered_vars for s in scans), set())
    global_bound = set().union(*(s.bound_names for s in scans), set())
    global_owning = set().union(*(s.owning_structs for s in scans), set())

    findings = []
    for s in scans:
        findings.extend(s.allow_findings)  # malformed ALLOWs always surface
        if "unordered-iter" not in disabled:
            findings.extend(check_unordered_iter(s, global_unordered))
        if "pointer-order" not in disabled:
            findings.extend(check_pointer_order(s))
        if "nondet-source" not in disabled:
            findings.extend(check_nondet_source(s))
        if "arena-invariant" not in disabled:
            findings.extend(check_arena_invariant(s, global_bound,
                                                  global_owning))
    return findings, {s.path: s for s in scans}


def apply_suppressions(findings, scans, path_rules):
    for f in findings:
        if f.check == "suppression":
            continue
        for rule in path_rules:
            if rule["check"] == f.check and fnmatch.fnmatch(f.path, rule["path"]):
                f.suppressed_by = f"path rule {rule['path']}: {rule['reason']}"
                rule["used"] = True
                break
        if f.suppressed_by:
            continue
        for al in scans[f.path].allows:
            if f.line in al.applies_to and f.check in al.checks:
                f.suppressed_by = al.reason
                al.used = True
                break


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default=None,
                    help="repository root (default: two levels up from this "
                         "script)")
    ap.add_argument("--root", action="append", default=None,
                    help="directory/file to scan, relative to --base "
                         "(repeatable; default from config: src tools bench)")
    ap.add_argument("--config", default=None,
                    help="config JSON path, or 'none' for built-in defaults")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to cross-check the file set "
                         "against (cmake -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    ap.add_argument("--disable", action="append", default=[],
                    metavar="CHECK", help="disable a check (repeatable)")
    ap.add_argument("--engine", choices=["lex", "clang"], default="lex",
                    help="analysis engine (clang requires the optional "
                         "clang.cindex bindings)")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="write a machine-readable findings/suppressions "
                         "summary ('-' for stdout)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the per-suppression detail lines")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name, desc in CHECKS.items():
            print(f"{name:16} {desc}")
        return 0

    for c in args.disable:
        if c not in CHECKS:
            die(f"detlint: --disable names unknown check '{c}'")

    script_dir = pathlib.Path(__file__).resolve().parent
    base = pathlib.Path(args.base) if args.base else script_dir.parent.parent
    cfg = load_config(script_dir, args.config)
    roots = args.root if args.root else cfg["roots"]
    if not roots:
        die("detlint: no roots to scan (give --root or a config)")

    if args.engine == "clang":
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            die("detlint: --engine clang requires the clang Python "
                     "bindings (python3-clang + libclang), which this "
                     "environment does not provide; the default lex engine "
                     "implements every check without them")
        die("detlint: the clang engine is a reserved slot — the lex "
                 "engine is authoritative until a libclang toolchain lands")

    rels = collect_files(base, roots, cfg["exclude"], cfg["extensions"],
                         args.compile_commands)
    findings, scans = run_lex_engine(base, rels, set(args.disable))
    apply_suppressions(findings, scans, cfg["path_rules"])
    findings.sort(key=lambda f: (f.path, f.line, f.check, f.message))
    findings = [f for i, f in enumerate(findings)
                if i == 0 or dataclasses.astuple(f) !=
                dataclasses.astuple(findings[i - 1])]

    active = [f for f in findings if not f.suppressed_by]
    suppressed = [f for f in findings if f.suppressed_by]
    unused_allows = [al for s in scans.values() for al in s.allows
                     if not al.used]

    for f in active:
        print(f"{f.location()}: [{f.check}] {f.message}")
    if not args.quiet:
        for f in suppressed:
            print(f"{f.location()}: suppressed [{f.check}] — {f.suppressed_by}")
        for al in unused_allows:
            print(f"{al.path}:{al.line}: warning: unused DETLINT-ALLOW"
                  f"({', '.join(al.checks)}) — prune it or fix the site")
    print(f"detlint: {len(rels)} files, {len(active)} finding(s), "
          f"{len(suppressed)} suppressed, {len(unused_allows)} unused "
          f"suppression(s)")

    if args.json:
        payload = {
            "files_scanned": len(rels),
            "checks_disabled": sorted(args.disable),
            "findings": [dataclasses.asdict(f) for f in active],
            "suppressed": [dataclasses.asdict(f) for f in suppressed],
            "unused_suppressions": [
                {"path": al.path, "line": al.line, "checks": al.checks,
                 "reason": al.reason} for al in unused_allows],
            "path_rules": cfg["path_rules"],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            pathlib.Path(args.json).write_text(text + "\n", encoding="utf-8")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
