#!/usr/bin/env python3
"""Hot-path purity checker for the alsflow tree.

The hot-path contract (DESIGN.md #16) says: code that runs inside a hot
region — every lambda handed to `parallel::parallel_for` /
`parallel_for_chunks`, plus every function annotated `ALSFLOW_HOT` — must
not allocate, must not acquire locks, must not log or emit telemetry, must
not block, and must not throw. Per-iteration scratch belongs in
`parallel::WorkerScratch` arenas acquired *before* the region is entered;
the runtime half of the contract (src/common/hot_guard.hpp) aborts on
allocation inside a region in Debug/sanitizer builds, and this tool proves
the property statically, including through calls.

Rules:

  hot-alloc   operator new, make_unique/make_shared/malloc-family calls,
              construction of owning containers (std::vector, std::string,
              Image, Volume, std::function, string streams, ...) with
              contents, and container-growth member calls (resize,
              push_back, assign, insert, ...) — directly or via any callee
              reachable from the hot region.
  hot-lock    LockGuard/UniqueLock/std lock-guard construction or a
              .lock()/.try_lock() member call.
  hot-log     log_* / printf-family free calls, telemetry counter / gauge /
              histogram / emit member calls, std::cout / std::cerr.
  hot-block   condition-variable waits, thread joins, sleeps, and nested
              parallel_for / parallel_for_chunks / post (a fan-out from
              inside a chunk body serializes on the pool queue lock).
  hot-throw   any `throw` on the hot path (the exception object itself is
              a heap allocation); throws behind a [[noreturn]] helper are
              cold termination paths and are not charged to callers.
  hot-waiver  a `hotcheck:allow` comment without a reason. Waivers are
              part of the audit trail and must say *why* the region is
              exempt: `// hotcheck:allow hot-alloc,hot-block <reason>`.

Function discovery reuses the astcheck token frontend by default and the
lockcheck libclang frontend with `--engine libclang`; effect scanning and
call-graph closure are shared between the two, so both engines must agree
on the corpus under tests/hotcheck/.

Exit codes: 0 clean, 1 findings (or corpus/selftest failure), 2 usage.
"""

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from alsflow_astcheck import (  # noqa: E402
    Finding, parse_scopes, tokenize)
from alsflow_lockcheck import (  # noqa: E402
    ClangFunctions, EMIT_METHODS, IDENT, NOT_CALLEES, class_name_from_header,
    find_top_level, flatten_body, method_class_from_header, read_tree)

ALLOW = re.compile(r"//\s*hotcheck:allow\s+([\w,-]+)(?:[ \t]+(\S.*\S|\S))?")
EXPECT = re.compile(r"//\s*hotcheck:expect\s+([\w,-]+)")

RULES = ("hot-alloc", "hot-lock", "hot-log", "hot-block", "hot-throw",
         "hot-waiver")

# Lambdas passed to these calls execute on pool workers: hot by definition.
PARALLEL_SINKS = {"parallel_for", "parallel_for_chunks"}

# Free or std-qualified calls that reach the allocator.
ALLOC_CALLS = {"make_unique", "make_shared", "malloc", "calloc", "realloc",
               "strdup", "aligned_alloc", "to_string"}

# Member calls that may grow the receiver's heap storage.
GROWTH_METHODS = {"resize", "reserve", "push_back", "emplace_back",
                  "push_front", "emplace_front", "assign", "insert",
                  "emplace", "append", "shrink_to_fit"}

# Value declarations (or temporaries) of these types own heap storage once
# they have contents. A default-constructed vector/string does not allocate,
# so bare `std::vector<T> v;` is not flagged. An FftTable builds its
# twiddles on construction, so hot code must take one prebuilt.
ALLOC_TYPES = {"vector", "string", "deque", "list", "map", "set",
               "unordered_map", "unordered_set", "function",
               "ostringstream", "stringstream", "Image", "Volume", "FftTable"}

LOCK_GUARD_TYPES = {"LockGuard", "UniqueLock", "lock_guard", "unique_lock",
                    "scoped_lock", "shared_lock"}
LOCK_METHODS = {"lock", "try_lock", "lock_shared"}

LOG_CALLS = {"log_debug", "log_info", "log_warn", "log_error", "printf",
             "fprintf", "puts", "fputs", "fwrite", "fread", "fopen",
             "fclose", "fflush"}
STREAM_OBJECTS = {"cout", "cerr", "clog"}

BLOCKING_CALLS = {"wait", "wait_for", "wait_until", "join", "sleep_for",
                  "sleep_until"} | PARALLEL_SINKS | {"post"}

# The sanctioned arena API (src/parallel/scratch.hpp) and the region marker
# itself: calls through these never count as effects or callees.
SANCTIONED_RECEIVERS = {"WorkerScratch", "hotguard", "HotRegion"}
SANCTIONED_CALLS = {"complex_buffer", "double_buffer", "thread_bytes",
                    "HotRegion", "current_region", "depth",
                    "hot_alloc_count", "hot_alloc_bytes"}

# Member calls with these names are ubiquitous std-container accessors; a
# `.begin()` on a local vector must never resolve to some class that happens
# to be the only one in the tree defining `begin`. They are excluded from
# the unique-owner member-resolution fallback (a documented false-negative
# for genuine single-class methods that reuse these names).
COMMON_ACCESSORS = {"begin", "end", "rbegin", "rend", "cbegin", "cend",
                    "front", "back", "at", "data", "size", "empty", "swap",
                    "find", "count", "clear", "str", "c_str", "get",
                    "reset", "release", "native", "value", "substr"}

VERB = {"hot-alloc": "allocates", "hot-lock": "acquires a lock",
        "hot-log": "logs or emits telemetry", "hot-block": "blocks",
        "hot-throw": "throws"}


def basename(path):
    return path.rsplit("/", 1)[-1]


class FuncRec:
    """One analyzed function or lambda body."""
    __slots__ = ("uid", "name", "kind", "cls", "path", "line", "hot",
                 "hot_why", "noreturn", "effects", "calls", "summary")

    def __init__(self, uid, name, kind, cls, path, line):
        self.uid = uid
        self.name = name
        self.kind = kind          # "function" | "lambda"
        self.cls = cls            # enclosing/owning class name or None
        self.path = path
        self.line = line
        self.hot = False
        self.hot_why = None
        self.noreturn = False
        self.effects = {}         # rule -> [(line, detail), ...]
        self.calls = []           # [(line, chain, member), ...]
        self.summary = None       # rule -> description chain


def match_angles(toks, i):
    """toks[i] is '<': return index past the matching '>' (handles '>>'),
    or i if it does not look like a closed template argument list."""
    depth = 0
    j = i
    while j < len(toks):
        s = toks[j].s
        if s == "<":
            depth += 1
        elif s == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif s == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif s in (";", "{", "}"):
            return i
        j += 1
        if j - i > 64:
            return i
    return i


def assigned_lambda_name(header):
    """`const auto name = [..](..)` -> "name", else None."""
    eq = find_top_level(header, {"="})
    if eq > 0 and IDENT.match(header[eq - 1].s):
        return header[eq - 1].s
    return None


def header_has(header, token):
    return any(t.s == token for t in header)


class Model:
    def __init__(self):
        self.funcs = {}             # uid -> FuncRec
        self.free_funcs = {}        # name -> [FuncRec]
        self.methods = {}           # (cls, name) -> [FuncRec]
        self.method_owners = {}     # name -> set(cls)
        self.named_lambdas = {}     # path -> {name: FuncRec}
        self.class_names = set()
        self.hot_fn_names = set()   # ALSFLOW_HOT function names (token parse)
        self.noreturn_names = set()
        self.waivers = {}           # path -> {line: set(rules)}
        self.bad_waivers = []       # [(path, line)]
        self.hot_sink_args = set()  # (path, name, sink): body passed by name
        self._seq = 0

    # -- registration -------------------------------------------------------

    def _register(self, name, kind, cls, path, line):
        self._seq += 1
        rec = FuncRec(f"{path}:{line}:{name}:{self._seq}",
                      name, kind, cls, path, line)
        self.funcs[rec.uid] = rec
        if kind == "function":
            if cls:
                self.methods.setdefault((cls, name), []).append(rec)
                self.method_owners.setdefault(name, set()).add(cls)
            else:
                self.free_funcs.setdefault(name, []).append(rec)
        return rec

    def scan_waivers(self, path, text):
        for line_no, line in enumerate(text.splitlines(), start=1):
            m = ALLOW.search(line)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            if not m.group(2):
                self.bad_waivers.append((path, line_no))
                continue
            self.waivers.setdefault(path, {}).setdefault(
                line_no, set()).update(rules)

    def add_file(self, path, text, units=None):
        """Register one translation unit. `units` is the libclang FuncUnit
        list when running under that engine; the token parse always runs to
        recover what libclang cannot see at line granularity (lambda sinks,
        assigned lambda names, enclosing-class context, ALSFLOW_HOT and
        [[noreturn]] markers on one-line headers)."""
        self.scan_waivers(path, text)
        toks = tokenize(text)
        self._scan_sink_args(path, toks)
        tree = parse_scopes(toks)
        lambda_info = {}   # line -> (sink, enclosing cls, assigned name)
        self._walk(tree, path, None, lambda_info,
                   register=(units is None))
        if units is None:
            return
        for u in units:
            info = lambda_info.get(u.line)
            if u.kind == "lambda":
                cls = info[1] if info else None
                rec = self._register("<lambda>", "lambda", cls, path, u.line)
                sink = info[0] if info else None
                if sink in PARALLEL_SINKS:
                    rec.hot = True
                    rec.hot_why = f"lambda passed to {sink}"
                if info and info[2]:
                    self.named_lambdas.setdefault(path, {})[info[2]] = rec
            else:
                rec = self._register(u.name, "function", u.cls_name,
                                     path, u.line)
                if u.name in self.hot_fn_names \
                        or header_has(u.header, "ALSFLOW_HOT"):
                    rec.hot = True
                    rec.hot_why = "ALSFLOW_HOT function"
                if u.name in self.noreturn_names \
                        or header_has(u.header, "noreturn"):
                    rec.noreturn = True
            self._scan_body(rec, u.body)

    def _scan_sink_args(self, path, toks):
        """A named lambda (or free function) handed to parallel_for by
        identifier — `parallel_for_chunks(0, nx, col_pass)` — is just as hot
        as an inline one. Record (path, name, sink) for every sink call
        whose final argument is a lone identifier; the bodies are marked hot
        once all files are registered."""
        n = len(toks)
        for i, t in enumerate(toks):
            if t.s not in PARALLEL_SINKS or i + 1 >= n \
                    or toks[i + 1].s != "(":
                continue
            depth = 0
            last_arg = []
            j = i + 1
            while j < n:
                s = toks[j].s
                if s in ("(", "[", "{"):
                    depth += 1
                elif s in (")", "]", "}"):
                    depth -= 1
                    if depth == 0:
                        break
                elif s == "," and depth == 1:
                    last_arg = []
                    j += 1
                    continue
                elif depth >= 1:
                    last_arg.append(s)
                j += 1
            if len(last_arg) == 1 and IDENT.match(last_arg[0]):
                self.hot_sink_args.add((path, last_arg[0], t.s))

    def _mark_named_hot(self):
        for path, name, sink in sorted(self.hot_sink_args):
            recs = []
            lam = self.named_lambdas.get(path, {}).get(name)
            if lam is not None:
                recs = [lam]
            else:
                recs = self.free_funcs.get(name, [])
            for rec in recs:
                if not rec.hot:
                    rec.hot = True
                    rec.hot_why = f"named body passed to {sink}"

    def _walk(self, node, path, cls_ctx, lambda_info, register):
        for item in node.items:
            if not hasattr(item, "kind"):
                continue
            if item.kind == "namespace":
                self._walk(item, path, cls_ctx, lambda_info, register)
            elif item.kind == "class":
                cname = class_name_from_header(item.header) or cls_ctx
                if cname:
                    self.class_names.add(cname)
                self._walk(item, path, cname, lambda_info, register)
            elif item.kind == "function":
                cls = cls_ctx or method_class_from_header(item.header,
                                                          item.name)
                hot = header_has(item.header, "ALSFLOW_HOT")
                noret = header_has(item.header, "noreturn")
                if hot:
                    self.hot_fn_names.add(item.name)
                if noret:
                    self.noreturn_names.add(item.name)
                if register:
                    rec = self._register(item.name, "function", cls,
                                         path, item.line)
                    if hot or item.name in self.hot_fn_names:
                        rec.hot = True
                        rec.hot_why = "ALSFLOW_HOT function"
                    rec.noreturn = noret
                    self._scan_body(rec, flatten_body(item))
                self._walk(item, path, cls, lambda_info, register)
            elif item.kind == "lambda":
                name = assigned_lambda_name(item.header)
                lambda_info[item.line] = (item.sink, cls_ctx, name)
                if register:
                    rec = self._register("<lambda>", "lambda", cls_ctx,
                                         path, item.line)
                    if item.sink in PARALLEL_SINKS:
                        rec.hot = True
                        rec.hot_why = f"lambda passed to {item.sink}"
                    if name:
                        self.named_lambdas.setdefault(path, {})[name] = rec
                    self._scan_body(rec, flatten_body(item))
                self._walk(item, path, cls_ctx, lambda_info, register)
            else:  # block
                self._walk(item, path, cls_ctx, lambda_info, register)

    # -- direct effect scan -------------------------------------------------

    def _scan_body(self, rec, body):
        def effect(rule, line, detail):
            rec.effects.setdefault(rule, []).append((line, detail))

        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            s = t.s
            prev = body[i - 1].s if i > 0 else ""
            if s == "new" and prev != "operator":
                effect("hot-alloc", t.line, "operator new")
                i += 1
                continue
            if s == "throw" and prev not in (".", "->", "::"):
                effect("hot-throw", t.line,
                       "throw (exception objects are heap-allocated)")
                i += 1
                continue
            if s in STREAM_OBJECTS and prev not in (".", "->"):
                effect("hot-log", t.line, f"std::{s} stream write")
                i += 1
                continue
            if s in LOCK_GUARD_TYPES and prev not in (".", "->", "new"):
                nxt = body[i + 1].s if i + 1 < n else ""
                if nxt == "<" or IDENT.match(nxt or "-"):
                    effect("hot-lock", t.line, f"{s} acquisition")
                    i += 1
                    continue
            if s in ALLOC_TYPES and prev not in (".", "->"):
                j = self._alloc_decl(body, i)
                if j is not None:
                    effect("hot-alloc", t.line,
                           f"constructs a {s} with contents")
                    i = j
                    continue
            if IDENT.match(s) and i + 1 < n and body[i + 1].s == "(":
                self._classify_call(rec, body, i, effect)
            i += 1

    def _alloc_decl(self, body, i):
        """body[i] is an ALLOC_TYPES token. Return the index to resume from
        if this is a declaration/temporary that allocates, else None."""
        n = len(body)
        j = i + 1
        if j < n and body[j].s == "<":
            j2 = match_angles(body, j)
            if j2 == j:
                return None
            j = j2
        if j >= n:
            return None
        s = body[j].s
        if s in ("&", "*", "::", ")", ">", ">>", ","):
            return None          # reference/pointer/qualifier/type position
        if IDENT.match(s):       # `vector<T> name ...`
            k = j + 1
            if k < n and body[k].s in ("(", "{"):
                close = "}" if body[k].s == "{" else ")"
                if k + 1 < n and body[k + 1].s != close:
                    return k     # constructed with arguments
                return None      # empty braces/parens: no allocation
            if k < n and body[k].s == "=":
                return k         # copy/brace-init with contents
            return None          # bare declaration: default ctor, no heap
        if s in ("(", "{"):      # temporary `string("x")`
            close = "}" if s == "{" else ")"
            if j + 1 < n and body[j + 1].s != close:
                return j
        return None

    def _classify_call(self, rec, body, i, effect):
        name = body[i].s
        line = body[i].line
        member = i > 0 and body[i - 1].s in (".", "->")
        chain = [name]
        j = i - 1
        while j >= 1 and body[j].s in (".", "->", "::"):
            p = body[j - 1].s
            if not IDENT.match(p):
                break
            chain.insert(0, p)
            j -= 2
        qualified_std = "std" in chain or "this_thread" in chain
        if name in NOT_CALLEES:
            return
        if chain[0] in SANCTIONED_RECEIVERS or name in SANCTIONED_CALLS:
            return
        if member and name in GROWTH_METHODS:
            effect("hot-alloc", line,
                   f"{'.'.join(chain)}() grows a container")
            return
        if member and name in LOCK_METHODS:
            effect("hot-lock", line, f"{'.'.join(chain)}()")
            return
        if member and name in EMIT_METHODS:
            effect("hot-log", line,
                   f"telemetry {'.'.join(chain)}() emission")
            return
        if name in ALLOC_CALLS:
            effect("hot-alloc", line, f"{name}() allocates")
            return
        if name in LOG_CALLS:
            effect("hot-log", line, f"{name}()")
            return
        if name in BLOCKING_CALLS:
            effect("hot-block", line, f"{'.'.join(chain)}()")
            return
        if qualified_std:
            return               # remaining std:: calls assumed non-effect
        rec.calls.append((line, chain, member))

    # -- call resolution and closure ----------------------------------------

    def resolve(self, rec, chain, member):
        name = chain[-1]
        if len(chain) == 1:
            lam = self.named_lambdas.get(rec.path, {}).get(name)
            if lam is not None:
                return lam
            if rec.cls:
                recs = self.methods.get((rec.cls, name))
                if recs:
                    return recs[0]
            recs = self.free_funcs.get(name)
            if recs:
                same = [r for r in recs if r.path == rec.path]
                return (same or recs)[0]
            return None
        head = chain[-2]
        if head == "this" or (not member and head == rec.cls):
            recs = self.methods.get((rec.cls, name))
            if recs:
                return recs[0]
        if not member and head in self.class_names:
            recs = self.methods.get((head, name))
            return recs[0] if recs else None
        if not member:
            recs = self.free_funcs.get(name)  # namespace-qualified free call
            if recs:
                same = [r for r in recs if r.path == rec.path]
                return (same or recs)[0]
            return None
        # Member call through an object: resolve only when the method name
        # is unambiguous across all known classes and is not a std-container
        # accessor. Ambiguous names are skipped — a documented
        # false-negative, traded for zero spurious cross-class attribution.
        if name in COMMON_ACCESSORS:
            return None
        owners = self.method_owners.get(name, ())
        if len(owners) == 1:
            recs = self.methods.get((next(iter(owners)), name))
            return recs[0] if recs else None
        return None

    def close_summaries(self):
        resolved = {}
        for rec in self.funcs.values():
            rec.summary = {rule: f"{detail} ({basename(rec.path)}:{line})"
                           for rule, sites in rec.effects.items()
                           for line, detail in sites[:1]}
            resolved[rec.uid] = [
                (line, chain, callee)
                for line, chain, member in rec.calls
                for callee in [self.resolve(rec, chain, member)]
                if callee is not None and not callee.noreturn]
        changed = True
        while changed:
            changed = False
            for rec in self.funcs.values():
                for line, chain, callee in resolved[rec.uid]:
                    for rule, desc in callee.summary.items():
                        if rule not in rec.summary:
                            rec.summary[rule] = f"{chain[-1]} -> {desc}"
                            changed = True
        self._resolved = resolved

    # -- findings -----------------------------------------------------------

    def findings(self):
        self._mark_named_hot()
        self.close_summaries()
        out = []
        for path, line in self.bad_waivers:
            out.append(Finding(
                path, line, "hot-waiver",
                "hotcheck:allow without a reason — waivers must say why: "
                "`// hotcheck:allow <rules> <reason>`"))
        for rec in self.funcs.values():
            if not rec.hot:
                continue
            where = f"hot region ({rec.hot_why})"
            for rule, sites in rec.effects.items():
                for line, detail in sites:
                    out.append(Finding(rec.path, line, rule,
                                       f"{where} {VERB[rule]}: {detail}"))
            for line, chain, callee in self._resolved[rec.uid]:
                for rule, desc in callee.summary.items():
                    out.append(Finding(
                        rec.path, line, rule,
                        f"{where} {VERB[rule]} through a call: "
                        f"{chain[-1]} -> {desc}"))
        out = self._apply_waivers(out)
        dedup = {}
        for f in out:
            dedup.setdefault(f.key(), f)
        return sorted(dedup.values(), key=lambda f: (f.path, f.line, f.rule))

    def _apply_waivers(self, findings):
        kept = []
        for f in findings:
            if f.rule == "hot-waiver":
                kept.append(f)
                continue
            rules = set()
            per = self.waivers.get(f.path, {})
            rules |= per.get(f.line, set())      # same-line comment
            rules |= per.get(f.line - 1, set())  # comment directly above
            if f.rule in rules:
                continue
            kept.append(f)
        return kept


def analyze_sources(files, units_by_path=None):
    model = Model()
    # Two passes so ALSFLOW_HOT / [[noreturn]] names declared in one file
    # mark definitions registered from another (header vs .cpp).
    for path, text in files.items():
        toks = tokenize(text)
        tree = parse_scopes(toks)
        model._walk(tree, path, None, {}, register=False)
    for path, text in files.items():
        units = units_by_path.get(path) if units_by_path else None
        model.add_file(path, text, units)
    return model.findings()


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def make_frontend(engine, root, warnings):
    if engine in ("auto", "libclang"):
        try:
            return ClangFunctions(root)
        except Exception as exc:  # noqa: broad, mirrors lockcheck
            if engine == "libclang":
                raise SystemExit(
                    f"alsflow_hotcheck: libclang unavailable: {exc}")
            warnings.append(f"libclang unavailable ({exc}); "
                            "using token frontend")
    return None


def collect_units(frontend, base, files):
    if frontend is None:
        return None
    return {rel: frontend.units(str(Path(base) / rel), text)
            for rel, text in files.items()}


def emit(findings, n_files, fmt):
    if fmt == "json":
        print(json.dumps({
            "findings": [{"file": f.path, "line": f.line, "rule": f.rule,
                          "message": f.message} for f in findings],
            "files_scanned": n_files,
        }, indent=2))
        return
    for f in findings:
        if fmt == "github":
            msg = f.message.replace("%", "%25").replace("\n", "%0A")
            print(f"::error file={f.path},line={f.line},"
                  f"title=hotcheck {f.rule}::{msg}")
        else:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if fmt != "json":
        if findings:
            print(f"\nalsflow_hotcheck: {len(findings)} finding(s) "
                  f"in {n_files} file(s)")
        else:
            print(f"alsflow_hotcheck: OK ({n_files} files clean)")


def scan(root, engine, fmt):
    root = Path(root)
    if not (root / "src").is_dir():
        print(f"alsflow_hotcheck: no src/ under {root}", file=sys.stderr)
        return 2
    warnings = []
    frontend = make_frontend(engine, root, warnings)
    files = read_tree(root)
    units = collect_units(frontend, root, files)
    findings = analyze_sources(files, units)
    for w in warnings:
        print(f"alsflow_hotcheck: note: {w}", file=sys.stderr)
    emit(findings, len(files), fmt)
    return 1 if findings else 0


def run_corpus(corpus_dir, root, engine):
    corpus = Path(corpus_dir)
    if not corpus.is_dir():
        print(f"alsflow_hotcheck: no corpus dir {corpus}", file=sys.stderr)
        return 2
    warnings = []
    frontend = make_frontend(engine, root, warnings)
    files, expected = {}, set()
    for path in sorted(corpus.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(corpus).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        files[rel] = text
        for line_no, line in enumerate(text.splitlines(), start=1):
            m = EXPECT.search(line)
            if m:
                for rule in m.group(1).split(","):
                    expected.add((rel, line_no, rule.strip()))
    units = collect_units(frontend, corpus, files)
    findings = analyze_sources(files, units)
    got = {f.key() for f in findings}
    failures = []
    for miss in sorted(expected - got):
        failures.append(f"MISSED   {miss[0]}:{miss[1]} [{miss[2]}] "
                        f"(expected violation did not fire)")
    for spur in sorted(got - expected):
        msg = next(f.message for f in findings if f.key() == spur)
        failures.append(f"SPURIOUS {spur[0]}:{spur[1]} [{spur[2]}] {msg}")
    for w in warnings:
        print(f"alsflow_hotcheck: note: {w}", file=sys.stderr)
    for f in failures:
        print(f)
    print("alsflow_hotcheck --corpus: " +
          ("FAIL" if failures else
           f"OK ({len(expected)} expectations over {len(files)} files)"))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


_PRELUDE = """
namespace alsflow {
"""
_EPILOGUE = """
}
"""

BAD_SNIPPETS = {
    "hot-alloc": [
        """
void per_iteration_vector(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    std::vector<float> row(n);
    row[0] = float(i);
  });
}
""",
        """
void raw_new(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    float* p = new float[8];
    p[0] = float(i);
    delete[] p;
  });
}
""",
        """
void growth_member(std::vector<float>& out, std::size_t n) {
  parallel::parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e)
  {
    for (std::size_t i = b; i < e; ++i) out.push_back(float(i));
  });
}
""",
        """
void helper_allocates(std::size_t n) {
  std::vector<float> scratch(n);
  (void)scratch;
}
void transitive(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    helper_allocates(i);
  });
}
""",
        """
ALSFLOW_HOT float annotated_hot(std::size_t n) {
  std::string label = "row";
  return float(label.size() + n);
}
""",
    ],
    "hot-lock": [
        """
class Accum {
 public:
  void run(std::size_t n) {
    parallel::parallel_for(0, n, [&](std::size_t i)
    {
      LockGuard g(m_);
      total_ += double(i);
    });
  }
 private:
  Mutex m_;
  double total_ = 0.0;
};
""",
        """
class Accum {
 public:
  void add(double v) {
    LockGuard g(m_);
    total_ += v;
  }
  void run(std::size_t n) {
    parallel::parallel_for(0, n, [&](std::size_t i)
    {
      add(double(i));
    });
  }
 private:
  Mutex m_;
  double total_ = 0.0;
};
""",
    ],
    "hot-log": [
        """
void chatty(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    log_info("iteration", i);
  });
}
""",
        """
void metered(telemetry::Counter& c, std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    c.emit(i);
  });
}
""",
    ],
    "hot-block": [
        """
void helper_body(std::size_t i);
void nested_fanout(std::size_t n) {
  parallel::parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e)
  {
    parallel::parallel_for(b, e, helper_body);
  });
}
""",
        """
void waits(std::condition_variable& cv, UniqueLock& lk, std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    cv.wait(lk.native());
    (void)i;
  });
}
""",
    ],
    "hot-throw": [
        """
void throwing(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    if (i > n) throw std::runtime_error("bad " + std::to_string(i));
  });
}
""",
    ],
    "hot-waiver": [
        """
void lazily_waived(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // hotcheck:allow hot-alloc
    std::vector<float> row(n);
    row[0] = float(i);
  });
}
""",
    ],
}

GOOD_SNIPPETS = [
    """
void arena_kernel(std::size_t n) {
  parallel::parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e)
  {
    auto tmp = parallel::WorkerScratch::complex_buffer(
        parallel::WorkerScratch::kFft2Col, e - b);
    hotguard::HotRegion region("selftest.kernel");
    for (std::size_t i = b; i < e; ++i) tmp[i - b] = {0.0, 0.0};
  });
}
""",
    """
[[noreturn]] void die_bad_size(std::size_t n) {
  throw std::invalid_argument("bad size " + std::to_string(n));
}
void guarded(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    if (i > n) die_bad_size(i);
  });
}
""",
    """
void cold_path_allocates(std::size_t n) {
  std::vector<float> staging(n);
  for (std::size_t i = 0; i < n; ++i) staging[i] = float(i);
}
""",
    """
void named_clean(std::span<float> out, std::size_t n) {
  const auto scale = [&](std::size_t i)
  {
    out[i] = float(i) * 2.0f;
  };
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    scale(i);
  });
}
""",
    """
void waived_with_reason(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // hotcheck:allow hot-alloc slice-level region; inner kernels hold the contract
    std::vector<float> slice(n);
    slice[0] = float(i);
  });
}
""",
    """
void default_ctor_ok(std::size_t n) {
  parallel::parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e)
  {
    std::span<const float> view;
    (void)view;
    for (std::size_t i = b; i < e; ++i) {
      const float x = std::max(float(i), 0.0f);
      (void)x;
    }
  });
}
""",
]


def selftest():
    failures = []
    for rule, snippets in BAD_SNIPPETS.items():
        for snippet in snippets:
            text = _PRELUDE + snippet + _EPILOGUE
            found = [f for f in analyze_sources({"<snippet>.cpp": text})
                     if f.rule == rule]
            if not found:
                failures.append(f"[{rule}] should fire on:\n{snippet}")
    for snippet in GOOD_SNIPPETS:
        text = _PRELUDE + snippet + _EPILOGUE
        for f in analyze_sources({"<snippet>.cpp": text}):
            failures.append(f"[{f.rule}] should NOT fire "
                            f"(line {f.line}: {f.message}) on:\n{snippet}")
    for f in failures:
        print(f)
    n_bad = sum(len(s) for s in BAD_SNIPPETS.values())
    print("alsflow_hotcheck --selftest: " +
          ("FAIL" if failures else
           f"OK ({n_bad} bad, {len(GOOD_SNIPPETS)} good snippets)"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).parent.parent,
                    help="repository root (contains src/)")
    ap.add_argument("--engine", choices=("auto", "token", "libclang"),
                    default="token",
                    help="frontend for function discovery (default: token)")
    ap.add_argument("--format", choices=("text", "json", "github"),
                    default="text", help="output format")
    ap.add_argument("--selftest", action="store_true",
                    help="check the rules against embedded snippets")
    ap.add_argument("--corpus", type=Path, default=None,
                    help="run expectation mode over a violation corpus dir")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.corpus is not None:
        return run_corpus(args.corpus, args.root.resolve(), args.engine)
    return scan(args.root.resolve(), args.engine, args.format)


if __name__ == "__main__":
    sys.exit(main())
