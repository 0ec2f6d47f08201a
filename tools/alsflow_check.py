#!/usr/bin/env python3
"""alsflow_check: one static analyzer for alsflow's four source contracts.

The flow engine, the transfer service and the facility adapters are C++20
coroutines over one event-engine thread, the recon kernels fan out over a
thread pool, and every re-run must be byte-identical. The contracts that
keep this sound are invisible to the compiler and to sanitizers that only
see executed paths. This driver parses every file once with a built-in
token frontend (comments and strings blanked, a brace-scope tree, one
table of function and lambda bodies) and runs four rule packs over it:

  ast   coroutine lifetime (DESIGN.md §11): lock-across-suspend,
        coroutine-ref-param, escaping-ref-capture, blocking-in-coroutine
  lock  whole-program lock order (§15): lock-cycle, rank-inversion,
        callback-under-lock, emit-under-lock, unranked-mutex
  hot   hot-path purity (§16): hot-alloc, hot-lock, hot-log, hot-block,
        hot-throw inside a parallel_for body or an ALSFLOW_HOT function,
        directly or through any resolved callee
  lint  line patterns and tree passes (§11): determinism, raw-mutex,
        stdout-logging, pragma-once, event-vocab, vector-value-capture

Waivers are the same for every pack. `// check:allow <rule>[,<rule>...]
<reason>` covers its own line and the next one. The reason is required: a
waiver without one waives nothing and is itself a finding, waiver-reason,
reported by the packs whose rules it names. A waiver naming a rule that no
pack has is a finding too, waiver-unknown, reported by every pack. ALLOW
below exempts whole files. Corpora mark every expected finding with
`// check:expect <rule>[,<rule>...]`.

Modes: scan <root>/src (default); --corpus DIR, where every expectation
must fire and nothing else may; --selftest, the rules against embedded
snippets plus a negative control of the corpus harness. --pack runs one
pack (all by default); --format is text, json or github (Actions
annotations). Exit status: 0 clean, 1 findings or mismatch, 2 usage.
"""

import argparse
import functools
import json
import re
import sys
from pathlib import Path

WAIVER = re.compile(r"//\s*check:allow\s+([\w,-]+)(?:[ \t]+(\S.*))?")
EXPECT = re.compile(r"//\s*check:expect\s+([\w,-]+)")
WAIVER_RULE = "waiver-reason"
WAIVER_UNKNOWN = "waiver-unknown"

# Files (relative to the scan root) exempt from one rule, and why. Prefer a
# line waiver; keep this table short and justified.
ALLOW = {
    # Telemetry owns the ClockDomain::Wall time base (wall_now), the one
    # legitimate wall-clock read in the tree. Sim-domain spans get their
    # timestamps passed in from the event engine.
    "determinism": {"src/common/telemetry.cpp"},
    # The annotated wrappers are implemented in terms of the std
    # primitives they replace.
    "raw-mutex": {"src/common/thread_safety.hpp"},
}

IDENT = re.compile(r"^[A-Za-z_]\w*$")
MACRO_NAME = re.compile(r"^[A-Z][A-Z0-9_]*$")
ATTR_MACRO = re.compile(r"^ALSFLOW_[A-Z0-9_]*$")
GUARD_TYPES = {"LockGuard", "UniqueLock"}
EMIT_METHODS = {"counter", "gauge", "histogram", "emit"}
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else", "try",
    "co_await", "co_return", "co_yield", "new", "delete", "sizeof",
    "decltype", "noexcept", "alignof", "throw", "case", "goto", "asm",
    "static_assert", "assert", "operator", "constexpr", "requires",
}
CLASS_KEYWORDS = {"class", "struct", "union", "enum"}
TRAILING_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable"}
NOT_CALLEES = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "else", "do", "case", "default", "alignof",
    "co_await", "co_return", "co_yield", "assert", "defined",
    "static_assert", "decltype", "noexcept", "typeid",
    "void", "bool", "char", "int", "float", "double", "long", "short",
    "unsigned", "signed", "auto", "size_t",
}


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)


# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------


def strip_comments(text, keep_strings=False):
    """Blank out comments, and string/char literal contents unless
    keep_strings, preserving line structure (so line numbers match)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | the quote of an open literal
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt in ("/", "*"):
                state = "line" if nxt == "/" else "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
            out.append(c)
        elif state in ("line", "block"):
            if state == "block" and c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            if state == "line" and c == "\n":
                state = "code"
            out.append(c if c == "\n" else " ")
        else:
            if c == "\\":  # an escape; a backslash-newline keeps its newline
                out.append(c + nxt if keep_strings
                           else " \n" if nxt == "\n" else "  ")
                i += 2
                continue
            if c == state:
                state = "code"
                out.append(c)
            else:
                out.append(c if keep_strings or c == "\n" else " ")
        i += 1
    return "".join(out)


def blank_preprocessor(code):
    """Blank #-directive lines (including continuations)."""
    lines = code.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while True:
                cont = lines[i].rstrip().endswith("\\")
                lines[i] = ""
                if not cont or i + 1 >= len(lines):
                    break
                i += 1
        i += 1
    return "\n".join(lines)


TOKEN_RE = re.compile(r"::|->|&&|\|\||<<|>>|[A-Za-z_]\w*|[0-9][\w.]*|\S")


class Tok:
    __slots__ = ("s", "line")

    def __init__(self, s, line):
        self.s = s
        self.line = line


def tokenize(text):
    code = blank_preprocessor(strip_comments(text))
    return [Tok(m.group(0), line_no)
            for line_no, line in enumerate(code.split("\n"), start=1)
            for m in TOKEN_RE.finditer(line)]


# ---------------------------------------------------------------------------
# Scope parsing
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ("kind", "header", "items", "line", "name", "params",
                 "captures", "sink")

    def __init__(self, kind, header, line):
        self.kind = kind          # file|namespace|class|function|lambda|block
        self.header = header      # tokens since the last boundary
        self.items = []           # Tok | Node, in order
        self.line = line
        self.name = None
        self.params = []          # [(param_text, line)], function/lambda
        self.captures = []        # [(capture_text, line)], lambda
        self.sink = None          # enclosing call name, lambda only


def _match_forward(toks, i, open_s, close_s):
    """Index of the token matching toks[i] (an open_s), or -1."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].s == open_s:
            depth += 1
        elif toks[j].s == close_s:
            depth -= 1
            if depth == 0:
                return j
    return -1


def _match_backward(toks, i, open_s, close_s):
    """Index of the token matching toks[i] (a close_s), or -1."""
    depth = 0
    for j in range(i, -1, -1):
        if toks[j].s == close_s:
            depth += 1
        elif toks[j].s == open_s:
            depth -= 1
            if depth == 0:
                return j
    return -1


def _split_commas(toks):
    """Split a token list on top-level commas (angle-bracket aware)."""
    parts, cur = [], []
    paren = brack = brace = angle = 0
    for t in toks:
        s = t.s
        if s == "(":
            paren += 1
        elif s == ")":
            paren -= 1
        elif s == "[":
            brack += 1
        elif s == "]":
            brack -= 1
        elif s == "{":
            brace += 1
        elif s == "}":
            brace -= 1
        elif s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
        elif s == "," and paren == brack == brace == angle == 0:
            parts.append(cur)
            cur = []
            continue
        cur.append(t)
    if cur:
        parts.append(cur)
    return parts


def find_top_level(toks, wanted):
    """Index of the first token in `wanted` at paren/angle/bracket depth 0."""
    paren = angle = brack = 0
    for i, t in enumerate(toks):
        s = t.s
        if paren == angle == brack == 0 and s in wanted:
            return i
        if s == "(":
            paren += 1
        elif s == ")":
            paren = max(0, paren - 1)
        elif s == "[":
            brack += 1
        elif s == "]":
            brack = max(0, brack - 1)
        elif s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
    return -1


LAMBDA_INTRO_PREV = {
    "=", "(", ",", "return", ":", "&&", "||", "!", "?", "co_await",
    "co_return", "co_yield", ";", "{", "}", "<<", ">>", "&", "|",
}


def _try_lambda(pend):
    """Recognise `... [captures] (params) quals {` at the tail of pend.
    Returns (intro_index, captures, params, sink) or None."""
    # Find the last ']' whose matching '[' is a valid lambda introducer.
    for m in range(len(pend) - 1, -1, -1):
        if pend[m].s != "]":
            continue
        b = _match_backward(pend, m, "[", "]")
        if b < 0:
            continue
        prev = pend[b - 1].s if b > 0 else None
        nxt_in = pend[b + 1].s if b + 1 <= m else None
        if prev == "[" or nxt_in == "[":
            continue  # [[attribute]]
        if prev is not None and prev not in LAMBDA_INTRO_PREV:
            continue
        # Validate the remainder: optional (params), then qualifiers or a
        # trailing return type, then end-of-pend (the '{' follows).
        r = m + 1
        params = []
        if r < len(pend) and pend[r].s == "(":
            close = _match_forward(pend, r, "(", ")")
            if close < 0:
                continue
            params = pend[r + 1:close]
            r = close + 1
        ok = True
        while r < len(pend):
            s = pend[r].s
            if s in TRAILING_QUALIFIERS:
                r += 1
            elif s == "->":
                r = len(pend)  # trailing return type: accept the rest
            else:
                ok = False
                break
        if not ok:
            continue
        captures = pend[b + 1:m]
        return b, captures, params, _enclosing_call(pend[:b])
    return None


def _enclosing_call(toks):
    """Name of the innermost unclosed call in toks, or None."""
    stack = []
    for i, t in enumerate(toks):
        if t.s == "(":
            callee = None
            if i > 0 and IDENT.match(toks[i - 1].s):
                callee = toks[i - 1].s
            stack.append(callee)
        elif t.s == ")" and stack:
            stack.pop()
    for callee in reversed(stack):
        if callee:
            return callee
    return None


def _try_function(pend):
    """Recognise a function definition header. Returns (name, params) or
    None. Scans for the first top-level `ident (` group, then checks the
    tail is qualifiers / ctor-init-list / trailing return."""
    paren = angle = 0
    for i, t in enumerate(pend):
        s = t.s
        if s == "(" and paren == 0 and angle == 0 and i > 0:
            prev = pend[i - 1].s
            if (IDENT.match(prev) and prev not in CONTROL_KEYWORDS
                    and prev not in CLASS_KEYWORDS
                    and not MACRO_NAME.match(prev)):
                close = _match_forward(pend, i, "(", ")")
                if close < 0:
                    return None
                rest = pend[close + 1:]
                j = 0
                while j < len(rest):
                    rs = rest[j].s
                    if rs in TRAILING_QUALIFIERS:
                        j += 1
                    elif rs in ("->", ":", "try"):
                        j = len(rest)  # trailing return / ctor init list
                    elif (MACRO_NAME.match(rs) and j + 1 < len(rest)
                          and rest[j + 1].s == "("):
                        mclose = _match_forward(rest, j + 1, "(", ")")
                        if mclose < 0:
                            return None
                        j = mclose + 1  # attribute macro: ALSFLOW_EXCLUDES(..)
                    else:
                        return None
                return prev, pend[i + 1:close]
        if s == "(":
            paren += 1
        elif s == ")":
            paren = max(0, paren - 1)
        elif s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
    return None


def _classify(pend, line):
    if find_top_level(pend, {"namespace"}) >= 0:
        return Node("namespace", pend, line)
    if find_top_level(pend, CLASS_KEYWORDS) >= 0:
        return Node("class", pend, line)
    lam = _try_lambda(pend)
    if lam is not None:
        intro, captures, params, sink = lam
        node = Node("lambda", pend, line)
        node.name = "<lambda>"
        node.line = pend[intro].line if intro < len(pend) else line
        node.captures = [(_render(c), c[0].line if c else node.line)
                         for c in _split_commas(captures)]
        node.params = [(_render(p), p[0].line if p else node.line)
                       for p in _split_commas(params)]
        node.sink = sink
        return node
    fn = _try_function(pend)
    if fn is not None:
        name, params = fn
        node = Node("function", pend, line)
        node.name = name
        node.params = [(_render(p), p[0].line if p else line)
                       for p in _split_commas(params)]
        return node
    return Node("block", pend, line)


def _render(toks):
    out = []
    for t in toks:
        if out and re.match(r"^\w", t.s) and re.match(r"^\w", out[-1][-1]):
            out.append(" ")
        out.append(t.s)
    return "".join(out)


def parse_scopes(tokens):
    root = Node("file", [], 1)
    stack = [root]
    pendings = [[]]
    for t in tokens:
        if t.s == "{":
            pend = pendings[-1]
            cur = stack[-1]
            if pend:
                del cur.items[-len(pend):]
            child = _classify(pend, t.line)
            cur.items.append(child)
            pendings[-1] = []
            stack.append(child)
            pendings.append([])
        elif t.s == "}":
            if len(stack) > 1:
                stack.pop()
                pendings.pop()
            pendings[-1] = []
        else:
            stack[-1].items.append(t)
            if t.s == ";":
                pendings[-1] = []
            else:
                pendings[-1].append(t)
    return root


def flatten_body(node):
    """Direct body tokens of a function-like node: its own tokens plus
    nested non-function scopes (braces preserved); child functions and
    lambdas excluded."""
    out = []
    for item in node.items:
        if isinstance(item, Tok):
            out.append(item)
        elif item.kind in ("function", "lambda"):
            continue
        else:
            out.extend(item.header)
            out.append(Tok("{", item.line))
            out.extend(flatten_body(item))
            out.append(Tok("}", item.line))
    return out


def strip_attr_macros(toks):
    """Drop ALSFLOW_* attribute macros and their argument lists."""
    out, i = [], 0
    while i < len(toks):
        if (ATTR_MACRO.match(toks[i].s) and i + 1 < len(toks)
                and toks[i + 1].s == "("):
            close = _match_forward(toks, i + 1, "(", ")")
            if close < 0:
                return out
            i = close + 1
            continue
        if ATTR_MACRO.match(toks[i].s):
            i += 1
            continue
        out.append(toks[i])
        i += 1
    return out


def class_name_from_header(header):
    """Extract the class name from a class-scope header token list."""
    toks = strip_attr_macros(header)
    for i, t in enumerate(toks):
        if t.s in ("class", "struct", "union"):
            name = None
            j = i + 1
            while j < len(toks):
                s = toks[j].s
                if s in (":", "{", "final"):
                    break
                if s == "class":  # `enum class`
                    j += 1
                    continue
                if IDENT.match(s):
                    name = s
                j += 1
            return name
    return None


def method_class_from_header(header, name):
    """Class of an out-of-line definition `Ret Cls::name(...)`, or None."""
    for i, t in enumerate(header):
        if t.s == name and i + 1 < len(header) and header[i + 1].s == "(":
            j = i - 1
            if j >= 0 and header[j].s == "~":
                j -= 1
            if j >= 1 and header[j].s == "::" and IDENT.match(header[j - 1].s):
                return header[j - 1].s
            return None
    return None


# ---------------------------------------------------------------------------
# The parsed program: sources, waivers and the shared function table
# ---------------------------------------------------------------------------


class Source:
    """One file, lexed and parsed at most once whatever the packs."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.lines = text.splitlines()

    @functools.cached_property
    def toks(self):
        return tokenize(self.text)

    @functools.cached_property
    def tree(self):
        return parse_scopes(self.toks)

    @functools.cached_property
    def code(self):
        """Comments blanked, string literals kept (event-vocab reads them)."""
        return strip_comments(self.text, keep_strings=True)

    @functools.cached_property
    def waivers(self):
        """{line: (rules, reason)} for every check:allow marker."""
        out = {}
        for line_no, line in enumerate(self.lines, start=1):
            m = WAIVER.search(line)
            if m:
                out[line_no] = (set(m.group(1).split(",")), m.group(2))
        return out


class Func:
    """One function or lambda body: the table the ast, lock and hot packs
    share. The hot pack resolves calls against `cls`, the class the body
    belongs to, which the lambdas of an out-of-line method inherit; the
    lock pack against `scope_cls`, only the class whose braces enclose the
    body, or the `Cls::` of an out-of-line method itself."""

    def __init__(self, node, path, cls, scope_cls, sink):
        self.kind = node.kind
        self.name = node.name
        self.line = node.line
        self.header = node.header
        self.params = node.params
        self.captures = node.captures
        self.body = flatten_body(node)
        self.path = path
        self.cls = cls
        self.scope_cls = scope_cls
        self.sink = sink

    @functools.cached_property
    def is_coroutine(self):
        return any(t.s in ("co_await", "co_return", "co_yield")
                   for t in self.body)


def _detach_after(items, idx):
    """Detect `}(args).detach()` following a lambda node."""
    tail = []
    for item in items[idx + 1:]:
        if not isinstance(item, Tok):
            break
        tail.append(item.s)
        if len(tail) > 64 or item.s == ";":
            break
    text = " ".join(tail)
    return "detach" if re.search(r"\)\s*\.\s*detach\s*\(", text) else None


class Program:
    """The files under analysis, each parsed at most once, and the lock
    rank table."""

    def __init__(self, files, ranks):
        self.srcs = [Source(path, files[path]) for path in sorted(files)]
        self.ranks = ranks

    @functools.cached_property
    def table(self):
        """(every function and lambda body in pre-order, the names of the
        classes it met: an unnamed class counts as its enclosing one)."""
        funcs, class_names = [], set()

        def walk(node, path, cls, scope_cls):
            for idx, item in enumerate(node.items):
                if isinstance(item, Tok):
                    continue
                inner, inner_scope = cls, scope_cls
                if item.kind == "class":
                    name = class_name_from_header(item.header)
                    inner = name or cls
                    inner_scope = None if any(
                        t.s == "enum" for t in item.header) else name
                    if inner:
                        class_names.add(inner)
                elif item.kind == "namespace":
                    inner_scope = None
                elif item.kind in ("function", "lambda"):
                    own, sink = None, item.sink
                    if item.kind == "function":
                        own = method_class_from_header(item.header, item.name)
                        inner = cls or own
                    elif sink is None:
                        sink = _detach_after(node.items, idx)
                    funcs.append(Func(item, path, inner, scope_cls or own,
                                      sink))
                walk(item, path, inner, inner_scope)

        for src in self.srcs:
            walk(src.tree, src.path, None, None)
        return funcs, class_names


def close_over_calls(funcs, edges, absorb):
    """Fixed point over the call graph: absorb(caller, edge) folds one
    callee's summary into its caller and says whether the caller grew."""
    changed = True
    while changed:
        changed = False
        for f in funcs:
            for edge in edges(f):
                changed |= absorb(f, edge)


# ---------------------------------------------------------------------------
# ast pack: coroutine lifetime
# ---------------------------------------------------------------------------
#
#   lock-across-suspend    a LockGuard/UniqueLock is live across a
#                          co_await/co_yield: the resuming thread does not
#                          own the lock.
#   coroutine-ref-param    a coroutine takes a parameter by reference or as
#                          std::string_view; it dangles after the first
#                          suspension (by value: the GCC 12 convention).
#   escaping-ref-capture   a lambda capturing locals by reference escapes:
#                          handed to register_flow / submit_flow /
#                          schedule_periodic, a submit-style sink, an
#                          on_complete-style stored callback, or detached.
#                          A coroutine lambda given to parallel_for counts
#                          too. `this` captures are the owner's contract.
#   blocking-in-coroutine  sleep_for/sleep_until, std::this_thread, an
#                          explicit .lock(), or a CV .wait*() outside a
#                          co_await expression, inside a coroutine.

AST_RULES = ("lock-across-suspend", "coroutine-ref-param",
             "escaping-ref-capture", "blocking-in-coroutine")

# Callees that store or detach a lambda beyond the caller's scope.
ESCAPING_SINKS = {
    "submit", "register_flow", "submit_flow", "schedule_periodic",
    "on_complete", "set_sink", "detach",
}
# Synchronous fan-out: ref captures are the intended idiom (the call
# blocks until every chunk finishes) — unless the lambda is itself a
# coroutine, in which case its frame outlives the synchronous window.
SYNC_SINKS = {"parallel_for", "parallel_for_chunks"}
BLOCKING_SLEEP = {"sleep_for", "sleep_until", "this_thread"}
WAIT_NAMES = {"wait", "wait_for", "wait_until"}


def rule_lock_across_suspend(fn, out):
    depth = 0
    guards = []  # (name, depth, decl_line)
    toks = fn.body
    for i, t in enumerate(toks):
        s = t.s
        if s == "{":
            depth += 1
        elif s == "}":
            depth -= 1
            guards = [g for g in guards if g[1] <= depth]
        elif s in GUARD_TYPES:
            if (i + 2 < len(toks) and IDENT.match(toks[i + 1].s)
                    and toks[i + 2].s in ("(", "{")):
                guards.append((toks[i + 1].s, depth, t.line))
        elif s in ("co_await", "co_yield") and guards:
            g = guards[-1]
            out.append(Finding(
                fn.path, t.line, "lock-across-suspend",
                f"'{g[0]}' (LockGuard/UniqueLock, declared line {g[2]}) "
                f"is held across this {s} — the resuming thread will not "
                f"own the lock; scope the guard between suspension points"))


def rule_coroutine_ref_param(fn, out):
    if not fn.is_coroutine:
        return
    for text, line in fn.params:
        if not text or text == "void":
            continue
        bad = None
        if "&" in text:
            bad = "by reference"
        elif "string_view" in text:
            bad = "as std::string_view"
        if bad:
            out.append(Finding(
                fn.path, line, "coroutine-ref-param",
                f"coroutine '{fn.name}' takes parameter '{text}' {bad} — "
                f"the coroutine frame outlives the call and the parameter "
                f"dangles after the first suspension; take it by value "
                f"(flow/engine.hpp, the GCC 12 convention)"))


def rule_escaping_ref_capture(fn, out):
    if fn.kind != "lambda" or fn.sink is None:
        return
    if not (fn.sink in ESCAPING_SINKS
            or (fn.sink in SYNC_SINKS and fn.is_coroutine)):
        return
    for text, line in fn.captures:
        t = text.strip()
        if t.startswith("&"):
            out.append(Finding(
                fn.path, line, "escaping-ref-capture",
                f"lambda given to '{fn.sink}' captures '{t}' by "
                f"reference but escapes the enclosing scope — the "
                f"referenced local dies before the lambda runs; capture "
                f"by value (or capture `this` under the owner's lifetime "
                f"contract)"))


def rule_blocking_in_coroutine(fn, out):
    if not fn.is_coroutine:
        return
    toks = fn.body
    stmt_has_co_await = False
    for i, t in enumerate(toks):
        s = t.s
        if s in (";", "{", "}"):
            stmt_has_co_await = False
        elif s == "co_await":
            stmt_has_co_await = True
        elif s in BLOCKING_SLEEP:
            out.append(Finding(
                fn.path, t.line, "blocking-in-coroutine",
                f"'{s}' inside coroutine '{fn.name}' blocks the engine "
                f"thread and stalls every in-flight flow — use "
                f"sim::delay(engine, seconds)"))
        elif s in (".", "->") and i + 2 < len(toks) \
                and toks[i + 2].s == "(":
            callee = toks[i + 1].s
            if callee == "lock":
                out.append(Finding(
                    fn.path, toks[i + 1].line, "blocking-in-coroutine",
                    f"explicit '.lock()' inside coroutine '{fn.name}' — "
                    f"a blocked engine thread stalls every flow; use a "
                    f"scoped LockGuard between suspension points"))
            elif callee in WAIT_NAMES and not stmt_has_co_await:
                out.append(Finding(
                    fn.path, toks[i + 1].line, "blocking-in-coroutine",
                    f"bare '.{callee}()' inside coroutine '{fn.name}' — "
                    f"condition-variable waits block the engine thread; "
                    f"co_await an awaitable instead"))


def run_ast(prog):
    funcs, _ = prog.table
    out = []
    for fn in funcs:
        for rule in (rule_lock_across_suspend, rule_coroutine_ref_param,
                     rule_escaping_ref_capture, rule_blocking_in_coroutine):
            rule(fn, out)
    return out


# ---------------------------------------------------------------------------
# lock pack: whole-program lock order and callbacks under locks
# ---------------------------------------------------------------------------
#
# The static half of the lock-rank contract (the runtime half is
# src/common/lock_rank.*). Every alsflow::Mutex declaration and every
# acquisition (LockGuard / UniqueLock / raw .lock()) builds an inter-class
# acquisition graph, including acquisitions reached through resolved
# callees and through `*_locked` helpers annotated ALSFLOW_REQUIRES.
#
#   lock-cycle           a cycle in the acquisition graph, with the witness
#   rank-inversion       an acquisition whose LockRank is >= a held one
#                        (the runtime tracker aborts on exactly this)
#   callback-under-lock  a std::function-typed call, EventSink::on_event or
#                        Ticket::fulfill while a lock is held
#   emit-under-lock      a telemetry registry lookup (.counter/.gauge/
#                        .histogram) or .emit under a lock, directly or
#                        through a helper
#   unranked-mutex       an alsflow::Mutex declared without a LockRank
#
# Per-function summaries (acquires, emits, callbacks) close over the call
# graph; a call made under a lock adds its callee's effective acquires as
# edges. Receivers resolve through member/local/param type tables;
# unresolvable ones are skipped (documented false negatives: calls through
# expression results, virtual dispatch, lambdas invoked indirectly).
# Functions named *_locked without ALSFLOW_REQUIRES are assumed to hold
# every mutex of their class.

LOCK_RULES = ("lock-cycle", "rank-inversion", "callback-under-lock",
              "emit-under-lock", "unranked-mutex")

RANK_DEF = re.compile(r"\b(k[A-Z]\w*)\s*=\s*(\d+)")
RANK_NAME = re.compile(r"^k[A-Z]\w*$")
GUARD_OPS = {"lock", "unlock", "native", "owns_lock", "release", "mutex"}
CALLBACK_METHODS = {"on_event", "fulfill"}
DECL_KEYWORDS = {"mutable", "static", "inline", "constexpr", "thread_local",
                 "volatile", "extern"}
TYPE_TOKENS = {"::", "<", ">", ">>", "&", "*", "const", "unsigned", "signed",
               "long", "short", "struct", "class", "typename",
               "volatile", ","}
STMT_SKIP_HEADS = {"using", "friend", "typedef", "static_assert", "template",
                   "extern", "return", "public", "private", "protected",
                   "enum", "operator", "goto", "break", "continue", "throw",
                   "delete", "case", "default"}


class MutexDecl:
    def __init__(self, key, rank_name, rank):
        self.key = key            # e.g. "Frontend::mu_" or "<file>::g_mutex"
        self.rank_name = rank_name  # "kServeFrontend" or None
        self.rank = rank          # int or None

    def display(self):
        if self.rank_name:
            return f"{self.key} (LockRank::{self.rank_name})"
        return f"{self.key} (unranked)"


class ClassInfo:
    def __init__(self, name, path):
        self.name = name
        self.path = path
        self.members = {}   # member name -> type string
        self.mutexes = {}   # member name -> MutexDecl
        self.requires = {}  # method name -> [mutex expr strings]
        self.methods = {}   # method name -> [LockFunc]


class LockFunc:
    def __init__(self, uid, fn, cls_name):
        self.uid = uid
        self.name = fn.name
        self.cls_name = cls_name  # class simple name or None
        self.cls = None           # ClassInfo after link()
        self.path = fn.path
        self.line = fn.line
        self.header = fn.header   # token list (signature)
        self.body = fn.body       # flattened direct body tokens
        self.params = {}          # name -> type string
        self.locals = {}          # name -> type string
        self.local_mutexes = {}   # name -> MutexDecl
        self.requires_exprs = requires_args(fn.header)
        self.requires_keys = []   # resolved mutex keys held on entry
        self.acquires = set()     # mutex keys acquired directly (non-try)
        self.calls = set()        # callee uids (for summary closure)
        self.call_events = []     # (callee_uid, line, held_keys_tuple)
        self.emits = False        # body contains a direct emit token
        self.callbacks = False    # body invokes a callback directly


class HeldEntry:
    def __init__(self, key, rank, disp, line):
        self.key = key
        self.rank = rank
        self.disp = disp
        self.line = line


def parse_decl(toks):
    """Try to parse `Type name` from a declaration statement (already
    macro-stripped, initializer removed). Returns (name, type) or None."""
    toks = [t for t in toks if t.s not in DECL_KEYWORDS]
    if len(toks) < 2:
        return None
    name_tok = toks[-1]
    if not IDENT.match(name_tok.s) or name_tok.s in NOT_CALLEES:
        return None
    type_toks = toks[:-1]
    angle = 0
    for t in type_toks:
        s = t.s
        if s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
        elif s in ("(", ")") and angle > 0:
            continue  # function types: std::function<void(int)>
        elif not (IDENT.match(s) or s in TYPE_TOKENS):
            return None
    type_str = _render(type_toks)
    if not type_str or type_str in ("auto", "auto&", "auto&&"):
        return None
    return name_tok.s, type_str


def requires_args(toks):
    """ALSFLOW_REQUIRES(args) argument expressions found in a token list."""
    out = []
    for i, t in enumerate(toks):
        if t.s == "ALSFLOW_REQUIRES" and i + 1 < len(toks) \
                and toks[i + 1].s == "(":
            close = _match_forward(toks, i + 1, "(", ")")
            if close > 0:
                for part in _split_commas(toks[i + 2:close]):
                    if part:
                        out.append(_render(part))
    return out


def is_mutex_type(type_str):
    base = type_str.replace("const ", "").strip()
    return base == "Mutex" or base.endswith("::Mutex")


class LockModel:
    def __init__(self, ranks):
        self.ranks = dict(ranks)    # "kName" -> int
        self.classes = {}           # simple name -> [ClassInfo]
        self.funcs = {}             # uid -> LockFunc
        self.free_funcs = {}        # name -> [LockFunc]
        self.file_vars = {}         # path -> {name: type string}
        self.file_mutexes = {}      # path -> {name: MutexDecl}
        self.mutex_index = {}       # member name -> [MutexDecl]
        self.aliases = {}           # using NAME = TYPE
        self.findings = []
        self.edges = {}             # (held_key, acq_key) -> (path, line, ctx)

    # -- per-file collection ------------------------------------------------

    def add_file(self, src):
        # `enum class LockRank` redefinitions (corpus stubs) extend the table.
        if "LockRank" in src.text:
            for m in RANK_DEF.finditer(src.text):
                self.ranks.setdefault(m.group(1), int(m.group(2)))
        self._scan_scope(src.tree, None, src.path)

    def _new_class(self, item, path):
        if any(t.s == "enum" for t in item.header):
            return None
        name = class_name_from_header(item.header)
        if not name:
            return None
        ci = ClassInfo(name, path)
        self.classes.setdefault(name, []).append(ci)
        return ci

    def _scan_scope(self, node, ci, path):
        """Member and file-scope statements of a namespace/class body."""
        buf = []
        for item in node.items:
            if isinstance(item, Tok):
                buf.append(item)
                if item.s == ";":
                    self._handle_stmt(buf[:-1], None, ci, path)
                    buf = []
                continue
            if item.kind == "namespace":
                self._scan_scope(item, None, path)
            elif item.kind == "class":
                if not any(t.s == "enum" for t in item.header):
                    self._scan_scope(item, self._new_class(item, path), path)
            elif item.kind == "block":  # a brace-initialized declaration
                self._handle_stmt(buf + item.header, item, ci, path)
                self._scan_nested(item, path)
            else:
                self._scan_nested(item, path)
            buf = []

    def _scan_nested(self, node, path):
        """Local classes inside function bodies and stray scopes."""
        for item in node.items:
            if isinstance(item, Tok):
                continue
            if item.kind == "class":
                self._scan_scope(item, self._new_class(item, path), path)
            else:
                self._scan_nested(item, path)

    def register(self, fn):
        f = LockFunc(f"{fn.path}:{fn.line}:{fn.name}", fn, fn.scope_cls)
        self._parse_params(f)
        self.funcs[f.uid] = f
        if fn.scope_cls is None and fn.kind == "function":
            self.free_funcs.setdefault(fn.name, []).append(f)

    def _parse_params(self, f):
        header = f.header
        # last top-level '(' group before the body is the parameter list;
        # for `Ret Cls::name(...)` find the '(' following the name.
        for i in range(len(header) - 1, -1, -1):
            if header[i].s == "(":
                close = _match_forward(header, i, "(", ")")
                if close < 0:
                    continue
                for part in _split_commas(header[i + 1:close]):
                    part = strip_attr_macros(part)
                    eq = find_top_level(part, {"="})
                    if eq >= 0:
                        part = part[:eq]
                    d = parse_decl(part)
                    if d:
                        f.params[d[0]] = d[1]
                return

    def _handle_stmt(self, toks, init_node, ci, path):
        """A class-member or file-scope statement (trailing `;` removed;
        init_node is the brace-initializer scope node if one followed)."""
        while len(toks) >= 2 and toks[0].s in ("public", "private",
                                               "protected") \
                and toks[1].s == ":":
            toks = toks[2:]
        if not toks:
            return
        head = toks[0].s
        if head == "using" and len(toks) >= 3 and toks[2].s == "=":
            self.aliases[toks[1].s] = _render(strip_attr_macros(toks[3:]))
            return
        if head in STMT_SKIP_HEADS:
            return
        line = toks[0].line
        reqs = requires_args(toks)
        clean = strip_attr_macros(toks)
        paren = find_top_level(clean, {"("})
        eq = find_top_level(clean, {"="})
        if paren >= 0 and (eq < 0 or paren < eq):
            # method / function declaration: record REQUIRES for later
            if ci is not None and paren > 0 and IDENT.match(
                    clean[paren - 1].s) and reqs:
                ci.requires.setdefault(clean[paren - 1].s, []).extend(reqs)
            return
        decl_toks = clean[:eq] if eq >= 0 else clean
        d = parse_decl(decl_toks)
        if d is None:
            return
        name, type_str = d
        if is_mutex_type(type_str):
            init_toks = []
            if init_node is not None:
                init_toks = [t for t in init_node.items
                             if isinstance(t, Tok)]
            elif eq >= 0:
                init_toks = clean[eq + 1:]
            rank_name = None
            for t in init_toks:
                if RANK_NAME.match(t.s) and t.s in self.ranks:
                    rank_name = t.s
                    break
                if RANK_NAME.match(t.s) and rank_name is None:
                    rank_name = t.s  # unknown rank token: named but unvalued
            owner = ci.name if ci is not None else Path(path).name
            md = MutexDecl(f"{owner}::{name}", rank_name,
                           self.ranks.get(rank_name))
            if ci is not None:
                ci.mutexes[name] = md
            else:
                self.file_mutexes.setdefault(path, {})[name] = md
            self.mutex_index.setdefault(name, []).append(md)
            if rank_name is None:
                self.findings.append(Finding(
                    path, line, "unranked-mutex",
                    f"alsflow::Mutex '{md.key}' declared without a LockRank:"
                    " the runtime tracker cannot order it; construct with"
                    " {LockRank::k..., \"name\"} (see"
                    " src/common/lock_rank.hpp)"))
            return
        if ci is not None:
            ci.members[name] = type_str
        else:
            self.file_vars.setdefault(path, {})[name] = type_str

    # -- linking and summaries ---------------------------------------------

    def resolve_class(self, name, from_path):
        cands = self.classes.get(name)
        if not cands:
            return None
        if len(cands) == 1:
            return cands[0]
        same_file = [c for c in cands if c.path == from_path]
        if len(same_file) == 1:
            return same_file[0]
        same_dir = [c for c in cands
                    if Path(c.path).parent == Path(from_path).parent]
        if len(same_dir) == 1:
            return same_dir[0]
        return None

    def expand_alias(self, type_str):
        t = type_str.strip()
        for _ in range(3):
            key = t.replace("const ", "").strip().rstrip("&* ")
            if key in self.aliases:
                t = self.aliases[key]
            else:
                break
        return t

    def is_function_type(self, type_str):
        return "function<" in self.expand_alias(type_str).replace(" ", "")

    def type_to_class(self, type_str, from_path):
        t = self.expand_alias(type_str)
        t = t.replace("const ", "").split("<", 1)[0]
        t = t.replace("*", "").replace("&", "").strip()
        if not t:
            return None
        last = t.split("::")[-1].strip()
        if not IDENT.match(last or ""):
            return None
        return self.resolve_class(last, from_path)

    def link(self):
        for f in self.funcs.values():
            if f.cls_name:
                f.cls = self.resolve_class(f.cls_name, f.path)
                if f.cls is not None:
                    f.cls.methods.setdefault(f.name, []).append(f)
        for f in self.funcs.values():
            reqs = list(f.requires_exprs)
            if f.cls is not None:
                reqs += f.cls.requires.get(f.name, [])
            keys = []
            for expr in reqs:
                md = self.resolve_mutex_name(expr.strip(), f)
                if md is not None:
                    keys.append(md.key)
            if not keys and f.name.endswith("_locked") and f.cls is not None \
                    and f.cls.mutexes:
                keys = [md.key for md in f.cls.mutexes.values()]
            f.requires_keys = keys

    def resolve_mutex_name(self, name, f):
        """A bare identifier naming a mutex, in f's context."""
        if name in f.local_mutexes:
            return f.local_mutexes[name]
        if f.cls is not None and name in f.cls.mutexes:
            return f.cls.mutexes[name]
        fm = self.file_mutexes.get(f.path, {})
        if name in fm:
            return fm[name]
        cands = self.mutex_index.get(name, [])
        if len(cands) == 1:
            return cands[0]
        return None

    def decl_for(self, key):
        for decls in self.mutex_index.values():
            for md in decls:
                if md.key == key:
                    return md
        return None

    def var_type(self, name, f):
        if name == "this" and f.cls is not None:
            return f.cls.name
        if name in f.locals:
            return f.locals[name]
        if name in f.params:
            return f.params[name]
        if f.cls is not None and name in f.cls.members:
            return f.cls.members[name]
        return self.file_vars.get(f.path, {}).get(name)

    def resolve_chain(self, chain, f):
        """Resolve a receiver chain [a, b, c] to ("mutex", MutexDecl),
        ("type", type_str) or None."""
        if not chain:
            return None
        head = chain[0]
        if len(chain) == 1:
            md = self.resolve_mutex_name(head, f)
            if md is not None:
                return ("mutex", md)
            t = self.var_type(head, f)
            return ("type", t) if t is not None else None
        t = self.var_type(head, f)
        if t is None:
            return None
        for i, part in enumerate(chain[1:], start=1):
            ci = self.type_to_class(t, f.path)
            if ci is None:
                return None
            if i == len(chain) - 1 and part in ci.mutexes:
                return ("mutex", ci.mutexes[part])
            t = ci.members.get(part)
            if t is None:
                return None
        return ("type", t)

    def resolve_mutex_expr(self, toks, f):
        chain = self._chain_from_tokens(toks)
        if chain is None:
            return None
        r = self.resolve_chain(chain, f)
        if r is not None and r[0] == "mutex":
            return r[1]
        return None

    @staticmethod
    def _chain_from_tokens(toks):
        """[a, ., b, ->, c] -> ["a","b","c"]; None if not a simple chain."""
        chain, expect_ident = [], True
        for t in toks:
            if expect_ident:
                if t.s == "*" and not chain:
                    continue  # leading deref: *mu
                if not IDENT.match(t.s):
                    return None
                chain.append(t.s)
                expect_ident = False
            else:
                if t.s not in (".", "->"):
                    return None
                expect_ident = True
        return chain if chain and not expect_ident else None

    def call_type(self, chain, f):
        """Declared type of the callee a receiver chain names, or None."""
        if len(chain) == 1:
            return self.var_type(chain[0], f)
        r = self.resolve_chain(chain, f)
        return r[1] if r is not None and r[0] == "type" else None

    def compute_summaries(self):
        """Close acquires / emits / callbacks over the call graph."""
        def absorb(f, callee_uid):
            g = self.funcs.get(callee_uid)
            if g is None:
                return False
            add = g.acquires - set(g.requires_keys) - f.acquires
            grew = bool(add) or (g.emits and not f.emits) or (
                g.callbacks and not f.callbacks)
            f.acquires |= add
            f.emits |= g.emits
            f.callbacks |= g.callbacks
            return grew

        close_over_calls(self.funcs.values(), lambda f: f.calls, absorb)


class BodyAnalyzer:
    def __init__(self, model, f):
        self.m = model
        self.f = f
        self.findings = []

    def collect_locals(self):
        toks = self.f.body
        stmt = []
        i = 0
        while i < len(toks):
            t = toks[i]
            s = t.s
            if s == "for" and i + 1 < len(toks) and toks[i + 1].s == "(":
                close = _match_forward(toks, i + 1, "(", ")")
                if close > 0:
                    inner = toks[i + 2:close]
                    colon = find_top_level(inner, {":"})
                    if colon > 0:
                        self._try_local(inner[:colon], None, inner[0].line)
                    i = close + 1
                    stmt = []
                    continue
            if s in ("{", "}"):
                stmt = []
            elif s == ";":
                self._finish_stmt(stmt)
                stmt = []
            else:
                stmt.append(t)
            i += 1
        self._finish_stmt(stmt)

    def _finish_stmt(self, stmt):
        if not stmt:
            return
        clean = strip_attr_macros(stmt)
        eq = find_top_level(clean, {"="})
        paren = find_top_level(clean, {"("})
        brace = find_top_level(clean, {"{"})
        init = None
        if eq >= 0 and (paren < 0 or paren > eq):
            init = clean[eq + 1:]
            clean = clean[:eq]
        elif brace > 0 and paren < 0:
            init = clean[brace + 1:]
            clean = clean[:brace]
        elif paren >= 0:
            # `Type name(args)` direct-init declarations are consumed by the
            # guard scanner for guards; skip other forms (too call-like).
            return
        if clean and clean[0].s in STMT_SKIP_HEADS:
            return
        self._try_local(clean, init, clean[0].line if clean else 0)

    def _try_local(self, decl_toks, init_toks, line):
        d = parse_decl(decl_toks)
        if d is None:
            return
        name, type_str = d
        if is_mutex_type(type_str):
            rank_name = None
            for t in (init_toks or []):
                if RANK_NAME.match(t.s):
                    rank_name = t.s
                    break
            md = MutexDecl(f"{self.f.name}::{name}", rank_name,
                           self.m.ranks.get(rank_name))
            self.f.local_mutexes[name] = md
            self.m.mutex_index.setdefault(name, []).append(md)
            if rank_name is None:
                self.findings.append(Finding(
                    self.f.path, line, "unranked-mutex",
                    f"alsflow::Mutex '{md.key}' declared without a"
                    " LockRank: the runtime tracker cannot order it"))
            return
        self.f.locals.setdefault(name, type_str)

    # -- the main walk ------------------------------------------------------

    def run(self):
        f = self.f
        held = []    # [HeldEntry], acquisition order
        guards = {}  # var name -> dict(entry=HeldEntry|None, depth, mexpr)
        raw = {}     # expr string -> HeldEntry (raw .lock() acquisitions)
        for key in f.requires_keys:
            md = self.m.decl_for(key)
            held.append(HeldEntry(key, md.rank if md else None,
                                  md.display() if md else key, f.line))
        toks = f.body
        depth = 0
        i = 0
        while i < len(toks):
            t = toks[i]
            s = t.s
            if s == "{":
                depth += 1
                i += 1
                continue
            if s == "}":
                depth -= 1
                for var, g in list(guards.items()):
                    if g["depth"] > depth:
                        self._release(held, g)
                        del guards[var]
                i += 1
                continue
            # guard declaration: LockGuard v(expr[, tag]);
            if s in GUARD_TYPES and i + 2 < len(toks) \
                    and IDENT.match(toks[i + 1].s) and toks[i + 2].s == "(":
                close = _match_forward(toks, i + 2, "(", ")")
                if close < 0:
                    break
                var = toks[i + 1].s
                args = _split_commas(toks[i + 3:close])
                tags = _render([t2 for part in args[1:] for t2 in part])
                entry = None
                if args and args[0] and "defer_lock" not in tags:
                    entry = self._acquire(held, args[0], t.line,
                                          is_try="try_to_lock" in tags,
                                          is_adopt="adopt_lock" in tags)
                guards[var] = {"entry": entry, "depth": depth,
                               "mexpr": args[0] if args else []}
                i = close + 1
                continue
            # identifier followed by '(' -> guard op, call, or noise
            if s == "(" and i > 0 and IDENT.match(toks[i - 1].s):
                name = toks[i - 1].s
                chain, qualified_std = self._receiver_chain(toks, i - 1)
                if chain is not None and len(chain) == 2 \
                        and chain[0] in guards and name in GUARD_OPS:
                    g = guards[chain[0]]
                    if name == "unlock":
                        self._release(held, g)
                        g["entry"] = None
                    elif name == "lock" and g["entry"] is None:
                        g["entry"] = self._acquire(held, g["mexpr"], t.line)
                    i += 1
                    continue
                if not qualified_std and name not in NOT_CALLEES \
                        and not ATTR_MACRO.match(name) \
                        and name not in GUARD_TYPES:
                    member_call = i >= 2 and toks[i - 2].s in (".", "->")
                    self._call(name, chain, held, raw, t.line, member_call)
            i += 1

    def _acquire(self, held, mexpr_toks, line, is_try=False, is_adopt=False):
        m, f = self.m, self.f
        md = m.resolve_mutex_expr(mexpr_toks, f)
        if md is None:
            expr = _render(mexpr_toks)
            entry = HeldEntry(f"<?{expr}>", None, f"'{expr}' (unresolved)",
                              line)
            held.append(entry)
            return entry
        if not is_try and not is_adopt:
            for h in held:
                if h.key.startswith("<?"):
                    continue
                m.edges.setdefault((h.key, md.key),
                                   (f.path, line, f.name))
                if md.key == h.key:
                    self.findings.append(Finding(
                        f.path, line, "rank-inversion",
                        f"recursive acquisition of {md.display()}"
                        f" (already held since line {h.line});"
                        " alsflow::Mutex is non-recursive and the"
                        " runtime tracker aborts here"))
                elif md.rank is not None and h.rank is not None \
                        and md.rank >= h.rank:
                    self.findings.append(Finding(
                        f.path, line, "rank-inversion",
                        f"acquiring {md.display()} while holding"
                        f" {h.disp} violates strict rank descent"
                        f" (rank {md.rank} >= {h.rank}); see"
                        " src/common/lock_rank.hpp for the order"))
            if not any(h.key == md.key for h in held):
                f.acquires.add(md.key)
        entry = HeldEntry(md.key, md.rank, md.display(), line)
        held.append(entry)
        return entry

    @staticmethod
    def _release(held, guard):
        entry = guard.get("entry")
        if entry is not None and entry in held:
            held.remove(entry)
            guard["entry"] = None

    @staticmethod
    def _receiver_chain(toks, name_idx):
        """Receiver chain ending at toks[name_idx] (the callee name).
        Returns (chain_list_incl_name | None, is_std_qualified)."""
        chain = [toks[name_idx].s]
        j = name_idx - 1
        while j > 0:
            sep = toks[j].s
            if sep in (".", "->"):
                prev = toks[j - 1].s
                if IDENT.match(prev):
                    chain.insert(0, prev)
                    j -= 2
                    continue
                return None, False  # call on an expression result
            if sep == "::":
                prev = toks[j - 1].s
                if prev.startswith("std"):
                    return None, True
                if IDENT.match(prev):
                    chain.insert(0, prev)
                    j -= 2
                    continue
                return None, False
            break
        return chain, False

    def _call(self, name, chain, held, raw, line, member_call=False):
        m, f = self.m, self.f
        active = list(held)
        # raw Mutex lock()/unlock() through a resolvable receiver
        if name in ("lock", "unlock", "try_lock") and chain \
                and len(chain) >= 2:
            r = m.resolve_chain(chain[:-1], f)
            if r is not None and r[0] == "mutex":
                expr = ".".join(chain[:-1])
                if name == "unlock":
                    e = raw.pop(expr, None)
                    if e is not None and e in held:
                        held.remove(e)
                else:
                    fake = [Tok(p, line) for part in chain[:-1]
                            for p in (part, ".")][:-1]
                    raw[expr] = self._acquire(held, fake, line,
                                              is_try=(name == "try_lock"))
                return
        held_disp = ", ".join(h.disp for h in active)
        # 1. callback by method name
        if active and name in CALLBACK_METHODS:
            self.findings.append(Finding(
                f.path, line, "callback-under-lock",
                f"invoking completion/sink callback '{name}()' while"
                f" holding {held_disp}: the callee is user code and may"
                " take arbitrary locks or re-enter; fulfill/notify after"
                " releasing (copy the callback out under the lock)"))
        # 2. call through a std::function-typed variable or member
        ftype = m.call_type(chain, f) if chain is not None else None
        if active and ftype is not None and m.is_function_type(ftype):
            self.findings.append(Finding(
                f.path, line, "callback-under-lock",
                f"invoking std::function '{'.'.join(chain)}' while holding"
                f" {held_disp}: hoist the call out of the critical section"
                " (copy the function object under the lock, invoke after"
                " release)"))
        # 3. direct telemetry emission / registry lookup
        if active and name in EMIT_METHODS and member_call:
            self.findings.append(Finding(
                f.path, line, "emit-under-lock",
                f"telemetry '{name}()' under {held_disp}: registry lookups"
                " take the telemetry lock and emit() runs the event sink;"
                " record values under the lock, emit after release"))
        # 4. resolved callee: record for interprocedural pass
        callee = self._resolve_callee(name, chain)
        if callee is not None:
            f.calls.add(callee.uid)
            if active:
                f.call_events.append(
                    (callee.uid, line,
                     tuple((h.key, h.rank, h.disp) for h in active
                           if not h.key.startswith("<?"))))

    def _resolve_callee(self, name, chain):
        m, f = self.m, self.f
        if chain is None:
            return None
        if len(chain) == 1:
            if f.cls is not None:
                cands = f.cls.methods.get(name, [])
                if cands:
                    return self._pick(cands)
            cands = m.free_funcs.get(name, [])
            same_file = [c for c in cands if c.path == f.path]
            if same_file:
                return self._pick(same_file)
            if len(cands) == 1:
                return cands[0]
            return None
        # qualified or member call: resolve the receiver to a class
        head_ci = None
        if len(chain) == 2 and chain[0] in m.classes:
            head_ci = m.resolve_class(chain[0], f.path)  # Cls::method(...)
        if head_ci is None:
            r = m.resolve_chain(chain[:-1], f)
            if r is None or r[0] != "type":
                return None
            head_ci = m.type_to_class(r[1], f.path)
        if head_ci is None:
            return None
        cands = head_ci.methods.get(name, [])
        return self._pick(cands) if cands else None

    @staticmethod
    def _pick(cands):
        # Prefer a definition with a body (out-of-line over declaration).
        for c in cands:
            if c.body:
                return c
        return cands[0] if cands else None

    def scan_direct_effects(self):
        """Mark emits/callbacks that occur anywhere in the body (for the
        interprocedural summaries), independent of lock state here."""
        f, m = self.f, self.m
        toks = f.body
        for i, t in enumerate(toks):
            if t.s == "(" and i > 0 and IDENT.match(toks[i - 1].s):
                name = toks[i - 1].s
                chain, _ = self._receiver_chain(toks, i - 1)
                if name in EMIT_METHODS and i >= 2 \
                        and toks[i - 2].s in (".", "->"):
                    f.emits = True
                if name in CALLBACK_METHODS:
                    f.callbacks = True
                if chain is not None:
                    ftype = m.call_type(chain, f)
                    if ftype is not None and m.is_function_type(ftype):
                        f.callbacks = True


def interprocedural_findings(model):
    """Edges and findings from calls made while locks were held, using the
    fixed-point summaries."""
    findings = []
    for f in model.funcs.values():
        for callee_uid, line, held in f.call_events:
            g = model.funcs.get(callee_uid)
            if g is None:
                continue
            eff = g.acquires - set(g.requires_keys)
            held_disp = ", ".join(h[2] for h in held)
            for key in sorted(eff):
                md = None
                for decls in model.mutex_index.values():
                    for d in decls:
                        if d.key == key:
                            md = d
                for hkey, hrank, hdisp in held:
                    model.edges.setdefault((hkey, key), (f.path, line,
                                                         f.name))
                    if key == hkey:
                        findings.append(Finding(
                            f.path, line, "rank-inversion",
                            f"call to {g.name}() re-acquires"
                            f" {md.display() if md else key}, which this"
                            " thread already holds; alsflow::Mutex is"
                            " non-recursive and the runtime tracker aborts"
                            " here"))
                    elif md is not None and md.rank is not None \
                            and hrank is not None and md.rank >= hrank:
                        findings.append(Finding(
                            f.path, line, "rank-inversion",
                            f"call to {g.name}() acquires {md.display()}"
                            f" while {hdisp} is held (rank {md.rank} >="
                            f" {hrank}): strict descent is violated through"
                            " this callee"))
            if g.emits:
                findings.append(Finding(
                    f.path, line, "emit-under-lock",
                    f"call to {g.name}() performs telemetry emission or a"
                    f" registry lookup while holding {held_disp}; hoist the"
                    " emission out of the critical section"))
            if g.callbacks:
                findings.append(Finding(
                    f.path, line, "callback-under-lock",
                    f"call to {g.name}() invokes a user callback while"
                    f" {held_disp} is held; the callback may take arbitrary"
                    " locks — run it after release"))
    return findings


def cycle_findings(model):
    graph = {}
    for (h, a), _site in model.edges.items():
        if h == a:
            continue  # recursion: reported as rank-inversion, not a cycle
        graph.setdefault(h, set()).add(a)
    findings = []
    seen_cycles = set()
    for start in sorted(graph):
        path, on_path = [start], {start: 0}
        stack = [(start, iter(sorted(graph.get(start, ()))))]
        visited_from_start = set()
        while stack:
            _node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt in on_path:
                    cycle = path[on_path[nxt]:] + [nxt]
                    canon = tuple(sorted(set(cycle)))
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        hops = []
                        for i in range(len(cycle) - 1):
                            p, l, ctx = model.edges[(cycle[i], cycle[i + 1])]
                            hops.append(f"{cycle[i]} -> {cycle[i + 1]}"
                                        f" (in {ctx}(), {p}:{l})")
                        p0, l0, _c0 = model.edges[(cycle[0], cycle[1])]
                        findings.append(Finding(
                            p0, l0, "lock-cycle",
                            "lock-acquisition cycle (potential deadlock): "
                            + "; ".join(hops)))
                    continue
                if nxt in visited_from_start:
                    continue
                visited_from_start.add(nxt)
                on_path[nxt] = len(path)
                path.append(nxt)
                stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.pop(path.pop(), None)
    return findings


def load_ranks(root):
    hpp = Path(root) / "src" / "common" / "lock_rank.hpp"
    if not hpp.is_file():
        return {}
    text = hpp.read_text(encoding="utf-8", errors="replace")
    return {m.group(1): int(m.group(2)) for m in RANK_DEF.finditer(text)}


def run_lock(prog):
    model = LockModel(prog.ranks)
    for src in prog.srcs:
        model.add_file(src)
    funcs, _ = prog.table
    for fn in funcs:
        model.register(fn)
    model.link()
    findings = list(model.findings)
    analyzers = []
    for uid in sorted(model.funcs):
        a = BodyAnalyzer(model, model.funcs[uid])
        a.collect_locals()
        a.scan_direct_effects()
        analyzers.append(a)
    for a in analyzers:  # second pass: locals of every func are known
        a.run()
        findings.extend(a.findings)
    model.compute_summaries()
    findings.extend(interprocedural_findings(model))
    findings.extend(cycle_findings(model))
    dedup, out = set(), []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                             f.message)):
        if f.key() + (f.message,) not in dedup:
            dedup.add(f.key() + (f.message,))
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# hot pack: hot-path purity
# ---------------------------------------------------------------------------
#
# Code in a hot region — every lambda handed to parallel_for /
# parallel_for_chunks (inline or by name), and every ALSFLOW_HOT function —
# must not allocate, lock, log, block or throw, directly or through any
# callee it reaches. Per-iteration scratch comes from the WorkerScratch
# arenas acquired before the region (src/parallel/scratch.hpp); the runtime
# half of the contract is src/common/hot_guard.hpp.
#
#   hot-alloc   operator new, make_unique/make_shared/malloc-family calls,
#               owning containers (std::vector, std::string, Image, Volume,
#               std::function, string streams, ...) constructed with
#               contents, container-growth member calls (resize, push_back,
#               assign, insert, ...)
#   hot-lock    lock-guard construction or a .lock()/.try_lock() call
#   hot-log     log_* / printf-family calls, telemetry counter / gauge /
#               histogram / emit calls, std::cout / std::cerr
#   hot-block   condition-variable waits, joins, sleeps, and nested
#               parallel_for / parallel_for_chunks / post (a fan-out from a
#               chunk body serializes on the pool queue lock)
#   hot-throw   any throw (the exception object is a heap allocation);
#               throws behind a [[noreturn]] helper are cold termination
#               paths and are not charged to callers

HOT_RULES = ("hot-alloc", "hot-lock", "hot-log", "hot-block", "hot-throw")

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


class FuncRec:
    """One analyzed function or lambda body."""

    def __init__(self, uid, fn):
        self.uid = uid
        self.cls = fn.cls         # enclosing/owning class name or None
        self.path = fn.path
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


def header_has(header, token):
    return any(t.s == token for t in header)


class HotModel:
    def __init__(self, class_names, hot_fn_names):
        self.funcs = {}             # uid -> FuncRec
        self.free_funcs = {}        # name -> [FuncRec]
        self.methods = {}           # (cls, name) -> [FuncRec]
        self.method_owners = {}     # name -> set(cls)
        self.named_lambdas = {}     # path -> {name: FuncRec}
        self.class_names = class_names
        self.hot_fn_names = hot_fn_names  # ALSFLOW_HOT function names
        self.hot_sink_args = set()  # (path, name, sink): body passed by name

    def register(self, fn):
        rec = FuncRec(f"{fn.path}:{fn.line}:{fn.name}:{len(self.funcs)}", fn)
        self.funcs[rec.uid] = rec
        if fn.kind == "function":
            if fn.cls:
                self.methods.setdefault((fn.cls, fn.name), []).append(rec)
                self.method_owners.setdefault(fn.name, set()).add(fn.cls)
            else:
                self.free_funcs.setdefault(fn.name, []).append(rec)
            if fn.name in self.hot_fn_names:
                rec.hot, rec.hot_why = True, "ALSFLOW_HOT function"
            rec.noreturn = header_has(fn.header, "noreturn")
        else:
            if fn.sink in PARALLEL_SINKS:
                rec.hot, rec.hot_why = True, f"lambda passed to {fn.sink}"
            # `const auto name = [..](..)`: callable, and passable, by name
            eq = find_top_level(fn.header, {"="})
            if eq > 0 and IDENT.match(fn.header[eq - 1].s):
                self.named_lambdas.setdefault(fn.path, {})[
                    fn.header[eq - 1].s] = rec
        self._scan_body(rec, fn.body)

    def scan_sink_args(self, path, toks):
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
            lam = self.named_lambdas.get(path, {}).get(name)
            for rec in [lam] if lam is not None else \
                    self.free_funcs.get(name, []):
                if not rec.hot:
                    rec.hot, rec.hot_why = True, f"named body passed to {sink}"

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
            nxt = body[i + 1].s if i + 1 < n else ""
            if s == "new" and prev != "operator":
                effect("hot-alloc", t.line, "operator new")
            elif s == "throw" and prev not in (".", "->", "::"):
                effect("hot-throw", t.line,
                       "throw (exception objects are heap-allocated)")
            elif s in STREAM_OBJECTS and prev not in (".", "->"):
                effect("hot-log", t.line, f"std::{s} stream write")
            elif s in LOCK_GUARD_TYPES and prev not in (".", "->", "new") \
                    and (nxt == "<" or IDENT.match(nxt or "-")):
                effect("hot-lock", t.line, f"{s} acquisition")
            elif s in ALLOC_TYPES and prev not in (".", "->") \
                    and (j := self._alloc_decl(body, i)) is not None:
                effect("hot-alloc", t.line, f"constructs a {s} with contents")
                i = j
                continue
            elif IDENT.match(s) and nxt == "(":
                self._classify_call(rec, body, i, effect)
            i += 1

    @staticmethod
    def _alloc_decl(body, i):
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

    @staticmethod
    def _classify_call(rec, body, i, effect):
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
        elif member and name in LOCK_METHODS:
            effect("hot-lock", line, f"{'.'.join(chain)}()")
        elif member and name in EMIT_METHODS:
            effect("hot-log", line,
                   f"telemetry {'.'.join(chain)}() emission")
        elif name in ALLOC_CALLS:
            effect("hot-alloc", line, f"{name}() allocates")
        elif name in LOG_CALLS:
            effect("hot-log", line, f"{name}()")
        elif name in BLOCKING_CALLS:
            effect("hot-block", line, f"{'.'.join(chain)}()")
        elif not qualified_std:  # other std:: calls assumed non-effect
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
            return self._free(rec, name)
        head = chain[-2]
        if head == "this" or (not member and head == rec.cls):
            recs = self.methods.get((rec.cls, name))
            if recs:
                return recs[0]
        if not member and head in self.class_names:
            recs = self.methods.get((head, name))
            return recs[0] if recs else None
        if not member:
            return self._free(rec, name)  # namespace-qualified free call
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

    def _free(self, rec, name):
        recs = self.free_funcs.get(name)
        if not recs:
            return None
        same = [r for r in recs if r.path == rec.path]
        return (same or recs)[0]

    def findings(self):
        self._mark_named_hot()
        resolved = {}
        for rec in self.funcs.values():
            rec.summary = {rule: f"{detail} ({rec.path.rsplit('/', 1)[-1]}"
                                 f":{line})"
                           for rule, sites in rec.effects.items()
                           for line, detail in sites[:1]}
            resolved[rec.uid] = [
                (line, chain, callee)
                for line, chain, member in rec.calls
                for callee in [self.resolve(rec, chain, member)]
                if callee is not None and not callee.noreturn]

        def absorb(rec, edge):
            grew = False
            for rule, desc in edge[2].summary.items():
                if rule not in rec.summary:
                    rec.summary[rule] = f"{edge[1][-1]} -> {desc}"
                    grew = True
            return grew

        close_over_calls(self.funcs.values(), lambda r: resolved[r.uid],
                         absorb)
        out = {}
        for rec in self.funcs.values():
            if not rec.hot:
                continue
            where = f"hot region ({rec.hot_why})"
            for rule, sites in rec.effects.items():
                for line, detail in sites:
                    out.setdefault((rec.path, line, rule), Finding(
                        rec.path, line, rule,
                        f"{where} {VERB[rule]}: {detail}"))
            for line, chain, callee in resolved[rec.uid]:
                for rule, desc in callee.summary.items():
                    out.setdefault((rec.path, line, rule), Finding(
                        rec.path, line, rule,
                        f"{where} {VERB[rule]} through a call: "
                        f"{chain[-1]} -> {desc}"))
        return list(out.values())


def run_hot(prog):
    funcs, class_names = prog.table
    # ALSFLOW_HOT on a definition in one file marks a same-named
    # definition registered from another (header vs .cpp).
    model = HotModel(class_names, {
        fn.name for fn in funcs
        if fn.kind == "function" and header_has(fn.header, "ALSFLOW_HOT")})
    for src in prog.srcs:
        model.scan_sink_args(src.path, src.toks)
    for fn in funcs:
        model.register(fn)
    return model.findings()


# ---------------------------------------------------------------------------
# lint pack: determinism, locking discipline, logging, header hygiene
# ---------------------------------------------------------------------------
#
# The simulation must be byte-for-byte deterministic across re-runs (the
# retry/idempotency story depends on it), locks go through the annotated
# alsflow::Mutex wrappers so clang's -Wthread-safety sees every lock site,
# and output goes through LogStream.
#
#   determinism     no wall clock, OS randomness or sleeps in sim code
#   raw-mutex       no std::mutex / lock_guard / unique_lock / scoped_lock /
#                   shared_mutex / recursive_mutex
#   stdout-logging  no std::cout / std::cerr / printf / puts
#   pragma-once     every .hpp contains #pragma once
#   event-vocab     every (component, kind) pair of the monitor's
#                   default_slos selector table matches a MonitorEvent emit
#                   site and vice versa, and every span component the
#                   ScanTraceAssembler stage map tests is produced by some
#                   begin() site: nothing ties these string literals
#                   together at compile time
#   vector-value-capture
#                   no parallel_for / parallel_for_chunks lambda captures a
#                   std::vector by value: every chunk copies the buffer (the
#                   hot pack sees bodies, not closure construction). Init
#                   and default captures are out of scope (a [=] copy is
#                   caught at run time by the hot-guard counters).

LINT_RULES = ("determinism", "raw-mutex", "stdout-logging", "pragma-once",
              "event-vocab", "vector-value-capture")

# rule -> list of (compiled regex, human reason). Negative lookbehind
# (?<![\w:]) keeps e.g. snprintf from matching printf and
# sim_clock-like identifiers from matching rand.
DETERMINISM_TOKENS = [
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "clock_gettime",
    "gettimeofday",
    "random_device",
    "sleep_for",
    "sleep_until",
]
PATTERNS = {
    "determinism": [
        (re.compile(r"(?<![\w:])(?:std::(?:chrono::)?)?(" +
                    "|".join(DETERMINISM_TOKENS) + r")(?![\w])"),
         "sim-domain code must take time from sim::Engine::now() and "
         "randomness from common/rng.hpp (seeded)"),
        (re.compile(r"(?<![\w])std::this_thread(?![\w])"),
         "no sleeping or yielding in sim-domain code"),
        (re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\("),
         "use common/rng.hpp (seeded, reproducible)"),
        (re.compile(r"(?<![\w:])std::time\s*\("),
         "sim-domain code must take time from sim::Engine::now()"),
    ],
    "raw-mutex": [
        (re.compile(r"(?<![\w])std::(mutex|shared_mutex|recursive_mutex|"
                    r"lock_guard|unique_lock|scoped_lock)(?![\w])"),
         "use alsflow::Mutex / LockGuard / UniqueLock "
         "(common/thread_safety.hpp) so -Wthread-safety sees the lock"),
    ],
    "stdout-logging": [
        (re.compile(r"(?<![\w])std::(cout|cerr)(?![\w])"),
         "use LogStream: log_info(\"component\") << ..."),
        (re.compile(r"(?<![\w:])(?:std::)?(printf|puts)\s*\("),
         "use LogStream: log_info(\"component\") << ..."),
        (re.compile(r"(?<![\w:])(?:std::)?fprintf\s*\(\s*stdout"),
         "use LogStream: log_info(\"component\") << ..."),
    ],
}

# --- event-vocab: observability name drift ---------------------------------
# Emitters name their MonitorEvent (component, kind) with string literals,
# as the second and third arguments of one Telemetry::emit(t, component,
# kind, ...) call; default_slos (monitor/slo.cpp) selects on the same
# literals, and the ScanTraceAssembler stage map (monitor/trace_assembler.cpp)
# switches on span component literals produced at begin() sites. This pass
# extracts each side and diffs them, anchoring findings on the stale line.

EVENT_COMPONENT_ASSIGN = re.compile(
    r'(?<![\w.])(\w+)\.component\s*=\s*"([\w.]+)"')
EVENT_KIND_ASSIGN = re.compile(r'(?<![\w.])(\w+)\.kind\s*=\s*"([\w.]+)"')
EMIT_CALL = re.compile(r'(?<![\w])emit\s*\(')
STRING_ARG = re.compile(r'\s*"([\w.]+)"\s*')
SPAN_BEGIN = re.compile(r'\.begin\(\s*"([\w.]+)"')
STAGE_COMPONENT_CMP = re.compile(r'component\s*==\s*"([\w.]+)"')

SLO_TABLE_FILE = "src/monitor/slo.cpp"              # selector side
STAGE_MAP_FILE = "src/monitor/trace_assembler.cpp"  # stage-map side


def collect_event_pairs(code_lines):
    """(component, kind, line_no) from paired literal assignments.

    A pair is a `v.component = "..."` assignment followed within a few
    lines by `v.kind = "..."` on the same variable — the shape every
    default_slos selector uses, and an event filled field by field.
    Non-literal assignments (e.g. `entry.kind = ev.kind`) never match.
    """
    pairs = []
    pending = {}  # var -> (component, line_no)
    for line_no, code in enumerate(code_lines, start=1):
        for m in EVENT_COMPONENT_ASSIGN.finditer(code):
            pending[m.group(1)] = (m.group(2), line_no)
        for m in EVENT_KIND_ASSIGN.finditer(code):
            hit = pending.pop(m.group(1), None)
            if hit is not None and line_no - hit[1] <= 4:
                pairs.append((hit[0], m.group(2), line_no))
    return pairs


def call_args(code, open_paren):
    """[(text, offset)] of the top-level arguments of the call whose "("
    is code[open_paren], or None if it never closes. Commas nest inside
    (), [], {} and literals; template argument lists are not tracked."""
    args, depth, start, i = [], 0, open_paren + 1, open_paren + 1
    while i < len(code):
        c = code[i]
        if c in "\"'":
            i += 1
            while i < len(code) and code[i] != c:
                i += 2 if code[i] == "\\" else 1
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                args.append((code[start:i], start))
                return args
            depth -= 1
        elif c == "," and depth == 0:
            args.append((code[start:i], start))
            start = i + 1
        i += 1
    return None


def collect_emit_pairs(code):
    """(component, kind, line_no) from emit(t, "component", "kind", ...)
    calls, which may span lines; line_no is the kind literal's line. Calls
    whose second or third argument is not a plain literal never match."""
    pairs = []
    for m in EMIT_CALL.finditer(code):
        args = call_args(code, m.end() - 1)
        if args is None or len(args) < 3:
            continue
        comp, kind = (STRING_ARG.fullmatch(text) for text, _ in args[1:3])
        if comp and kind:
            kind_at = args[2][1] + kind.start(1)
            pairs.append((comp.group(1), kind.group(1),
                          code.count("\n", 0, kind_at) + 1))
    return pairs


def check_event_vocab(srcs, findings):
    emits, selectors, stage_refs = [], [], []
    span_components = set()
    for src in srcs:
        lines = src.code.splitlines()
        for comp, kind, ln in collect_event_pairs(lines):
            entry = (comp, kind, src.path, ln)
            (selectors if src.path == SLO_TABLE_FILE else emits).append(entry)
        for comp, kind, ln in collect_emit_pairs(src.code):
            emits.append((comp, kind, src.path, ln))
        for m in SPAN_BEGIN.finditer(src.code):
            span_components.add(m.group(1))
        if src.path == STAGE_MAP_FILE:
            for ln, line in enumerate(lines, start=1):
                for m in STAGE_COMPONENT_CMP.finditer(line):
                    stage_refs.append((m.group(1), src.path, ln))

    emitted = {(c, k) for c, k, *_ in emits}
    selected = {(c, k) for c, k, *_ in selectors}
    # Only diff when both sides exist — a partial tree (or the selftest's
    # synthetic corpus) should not drown in one-sided findings.
    if emitted and selected:
        for comp, kind, path, ln in selectors:
            if (comp, kind) not in emitted:
                findings.append(Finding(
                    path, ln, "event-vocab",
                    f'SLO selector ("{comp}", "{kind}") matches no '
                    "MonitorEvent emit site — emitter renamed or removed?"))
        for comp, kind, path, ln in emits:
            if (comp, kind) not in selected:
                findings.append(Finding(
                    path, ln, "event-vocab",
                    f'MonitorEvent ("{comp}", "{kind}") has no default_slos '
                    "selector — add one or check:allow the emit site"))
    if span_components:
        for comp, path, ln in stage_refs:
            if comp not in span_components:
                findings.append(Finding(
                    path, ln, "event-vocab",
                    f'stage map tests span component "{comp}" that no '
                    "begin() site produces"))


# --- vector-value-capture: per-chunk buffer copies ------------------------
# Collects every identifier declared as vector<...> in the file (values and
# references both: capturing a reference by value still copies the
# referent) and flags plain by-value captures of those names at
# parallel_for / parallel_for_chunks call sites.

VECTOR_OPEN = re.compile(r"(?<![\w])vector\s*<")
CAPTURE_SINK = re.compile(r"(?<![\w])parallel_for(?:_chunks)?\s*\(")
CAPTURE_LIST = re.compile(r"[(,]\s*\[([^\]]*)\]")


def vector_decl_names(code):
    """Identifiers declared with type vector<...> (value or reference)."""
    names = set()
    for m in VECTOR_OPEN.finditer(code):
        i, depth = m.end(), 1
        while i < len(code) and depth:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        dm = re.match(r"\s*&?\s*(\w+)\s*[;,=({\[)]", code[i:i + 80])
        if dm:
            names.add(dm.group(1))
    return names


def check_vector_value_capture(srcs, findings):
    for src in srcs:
        code = src.code
        vec_names = vector_decl_names(code)
        if not vec_names:
            continue
        for sm in CAPTURE_SINK.finditer(code):
            cm = CAPTURE_LIST.search(code, sm.end(), sm.end() + 400)
            if not cm:
                continue
            line_no = code.count("\n", 0, cm.start(1)) + 1
            for item in cm.group(1).split(","):
                name = item.strip()
                if not re.fullmatch(r"\w+", name) or name == "this":
                    continue  # &ref, init-capture, default, *this
                if name in vec_names:
                    findings.append(Finding(
                        src.path, line_no, "vector-value-capture",
                        f"parallel_for lambda captures std::vector "
                        f"'{name}' by value — every chunk copies the "
                        f"buffer; capture [&{name}] or pass a std::span"))


def run_lint(prog):
    out = []
    for src in prog.srcs:
        if src.path.endswith(".hpp") and "#pragma once" not in src.text:
            out.append(Finding(src.path, 0, "pragma-once",
                               "header is missing #pragma once"))
        for rule, patterns in PATTERNS.items():
            for line_no, code in enumerate(src.code.splitlines(), start=1):
                for pat, why in patterns:
                    hit = pat.search(code)
                    if hit:
                        out.append(Finding(
                            src.path, line_no, rule,
                            f"forbidden token '{hit.group(0).strip()}' — "
                            f"{why}"))
                        break  # one finding per line per rule
    check_event_vocab(prog.srcs, out)
    check_vector_value_capture(prog.srcs, out)
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

PACKS = {"ast": (AST_RULES, run_ast), "lock": (LOCK_RULES, run_lock),
         "hot": (HOT_RULES, run_hot), "lint": (LINT_RULES, run_lint)}


def analyze(files, packs, ranks=None):
    """Run `packs` over {relpath: text}; waivers and ALLOW applied."""
    prog = Program(files, ranks or {})
    rules = {rule for pack in packs for rule in PACKS[pack][0]}
    known = {rule for pack_rules, _ in PACKS.values() for rule in pack_rules}
    out = []
    for src in prog.srcs:
        for line, (named, reason) in src.waivers.items():
            if not reason and named & rules:
                out.append(Finding(
                    src.path, line, WAIVER_RULE,
                    "check:allow without a reason waives nothing — say "
                    "why: `// check:allow <rules> <reason>`"))
            if named - known:
                out.append(Finding(
                    src.path, line, WAIVER_UNKNOWN,
                    "check:allow names an unknown rule ("
                    f"{', '.join(sorted(named - known))}), which waives "
                    "nothing"))
    waivers = {src.path: src.waivers for src in prog.srcs}
    for pack in packs:
        for f in PACKS[pack][1](prog):
            if f.path not in ALLOW.get(f.rule, ()) \
                    and not waived(f, waivers.get(f.path, {})):
                out.append(f)
    return sorted(out, key=Finding.key)


def waived(f, waivers):
    """A reasoned waiver on f's line or the line above names its rule."""
    for line in (f.line, f.line - 1):
        named, reason = waivers.get(line, ((), None))
        if reason and f.rule in named:
            return True
    return False


def read_files(base, rel_to):
    return {p.relative_to(rel_to).as_posix():
            p.read_text(encoding="utf-8", errors="replace")
            for p in sorted(base.rglob("*")) if p.suffix in (".hpp", ".cpp")}


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
            print(f"::error file={f.path},line={max(f.line, 1)},"
                  f"title=alsflow_check {f.rule}::{msg}")
        else:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"\nalsflow_check: {len(findings)} finding(s) "
              f"in {n_files} file(s)")
    else:
        print(f"alsflow_check: OK ({n_files} files clean)")


def scan(root, packs, fmt):
    if not (root / "src").is_dir():
        print(f"alsflow_check: no src/ under {root}", file=sys.stderr)
        return 2
    files = read_files(root / "src", root)
    findings = analyze(files, packs, load_ranks(root))
    emit(findings, len(files), fmt)
    return 1 if findings else 0


def corpus_mismatches(files, findings):
    """(number of expectations, MISSED/SPURIOUS lines) for a corpus."""
    expected = {(path, line_no, rule)
                for path, text in files.items()
                for line_no, line in enumerate(text.splitlines(), start=1)
                for m in [EXPECT.search(line)] if m
                for rule in m.group(1).split(",")}
    got = {}
    for f in findings:
        got.setdefault(f.key(), f.message)
    return len(expected), (
        [f"MISSED   {p}:{n} [{r}] (expected finding did not fire)"
         for p, n, r in sorted(expected - got.keys())] +
        [f"SPURIOUS {p}:{n} [{r}] {got[(p, n, r)]}"
         for p, n, r in sorted(got.keys() - expected)])


def run_corpus(corpus, root, packs):
    if not corpus.is_dir():
        print(f"alsflow_check: no corpus dir {corpus}", file=sys.stderr)
        return 2
    files = read_files(corpus, corpus)
    n, failures = corpus_mismatches(
        files, analyze(files, packs, load_ranks(root)))
    for line in failures:
        print(line)
    print("alsflow_check --corpus: " +
          ("FAIL" if failures else
           f"OK ({n} expectations over {len(files)} files)"))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

SELFTEST_RANKS = {"kLow": 100, "kMid": 200, "kHigh": 300}

AST_BAD = {
    "lock-across-suspend": [
        """sim::Future<int> f() {
             LockGuard lock(mu_);
             co_await sim::delay(eng_, 1.0);
             co_return 1;
           }""",
        """sim::Future<int> f() {
             UniqueLock lk{mu_};
             if (ready_) { co_await ev_; }
             co_return 0;
           }""",
    ],
    "coroutine-ref-param": [
        """sim::Future<Status> f(const std::string& name) {
             co_return Status::success();
           }""",
        """sim::Future<Status> f(std::string_view name) {
             co_await sim::delay(eng_, 1.0);
             co_return Status::success();
           }""",
    ],
    "escaping-ref-capture": [
        """void f() {
             int local = 3;
             pool.submit([&local]() { use(local); });
           }""",
        """void f() {
             int n = 0;
             engine.register_flow("x", [&](FlowContext ctx) {
               return body(ctx, n);
             });
           }""",
    ],
    "blocking-in-coroutine": [
        """sim::Future<int> f() {
             std::this_thread::sleep_for(1s);
             co_return 1;
           }""",
        """sim::Future<int> f() {
             mu_.lock();
             co_return 1;
           }""",
    ],
}

AST_GOOD = [
    # Guard scoped to a block before the suspension point.
    """sim::Future<int> f() {
         { LockGuard lock(mu_); cached_ = 1; }
         co_await sim::delay(eng_, 1.0);
         co_return cached_;
       }""",
    # Guard in a non-coroutine accessor.
    """int f() const { LockGuard lock(mu_); return x_; }""",
    # Coroutine taking everything by value.
    """sim::Future<Status> f(std::string name, TaskOptions options) {
         co_return co_await run(std::move(name), options);
       }""",
    # Plain function may take references.
    """Status f(const std::string& name) { return lookup(name); }""",
    # Synchronous parallel_for with ref captures is the intended idiom.
    """void f(std::vector<double>& v) {
         parallel_for(0, v.size(), [&](std::size_t i) { v[i] *= 2.0; });
       }""",
    # Value/this captures may escape.
    """void f() {
         pool.submit([this, n = count_]() { use(n); });
       }""",
    # co_await'ing an awaitable named wait() is not a blocking wait.
    """sim::Future<int> f(int id) {
         co_return co_await cluster_.wait(id);
       }""",
    # Blocking primitives outside coroutines are the lint's business.
    """void worker() {
         while (!stop_) cv_.wait(lk);
       }""",
]

LOCK_BAD = {
    "rank-inversion": [
        """
class S {
 public:
  void step() {
    LockGuard a(lo_);
    LockGuard b(hi_);   // ascending: inversion
  }
 private:
  Mutex lo_{LockRank::kLow, "lo"};
  Mutex hi_{LockRank::kHigh, "hi"};
};
""",
        """
class S {
 public:
  void outer() {
    LockGuard a(m_);
    helper();           // callee re-acquires m_: recursive through call
  }
  void helper() {
    LockGuard b(m_);
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
        """
class S {
 public:
  void drain_locked() ALSFLOW_REQUIRES(m_) {
    LockGuard g(peer_);  // same rank while m_ is held via REQUIRES
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  Mutex peer_{LockRank::kMid, "peer"};
};
""",
    ],
    "lock-cycle": [
        """
class S {
 public:
  void ab() {
    LockGuard x(hi_);
    LockGuard y(lo_);
  }
  void ba() {
    LockGuard x(lo_);
    LockGuard y(hi_);   // opposite order: cycle (and inversion)
  }
 private:
  Mutex lo_{LockRank::kLow, "lo"};
  Mutex hi_{LockRank::kHigh, "hi"};
};
""",
    ],
    "callback-under-lock": [
        """
class S {
 public:
  void fire() {
    LockGuard g(m_);
    done_();            // std::function member under the lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<void()> done_;
};
""",
        """
class S {
 public:
  void finish(Ticket* t) {
    LockGuard g(m_);
    t->fulfill(0);      // completion callback under the lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
        """
class S {
 public:
  void poke_locked() ALSFLOW_REQUIRES(m_) {
    cb_();              // held via REQUIRES: still a callback under lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<void()> cb_;
};
""",
    ],
    "emit-under-lock": [
        """
class S {
 public:
  void tick() {
    LockGuard g(m_);
    telemetry::global().metrics().counter("x").add();
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
        """
void bump(MetricsRegistry& m) {
  m.gauge("depth").set(1.0);
}
class S {
 public:
  void tick(MetricsRegistry& reg) {
    LockGuard g(m_);
    bump(reg);          // helper emits: transitive emit-under-lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
    ],
    "unranked-mutex": [
        """
class S {
 private:
  Mutex m_;             // no LockRank: invisible to the runtime tracker
};
""",
    ],
}

LOCK_GOOD = [
    """
class S {
 public:
  void step() {
    LockGuard a(hi_);
    LockGuard b(lo_);   // strict descent: fine
  }
 private:
  Mutex lo_{LockRank::kLow, "lo"};
  Mutex hi_{LockRank::kHigh, "hi"};
};
""",
    """
class S {
 public:
  void fire() {
    std::function<void()> cb;
    {
      LockGuard g(m_);
      cb = done_;
    }
    cb();               // hoisted out of the critical section
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<void()> done_;
};
""",
    """
class S {
 public:
  void drain() {
    LockGuard g(m_);
    drain_locked();     // REQUIRES helper acquires nothing new
  }
  void drain_locked() ALSFLOW_REQUIRES(m_) {
    ++n_;
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  int n_ = 0;
};
""",
    """
class S {
 public:
  void tick() {
    double depth = 0.0;
    {
      LockGuard g(m_);
      depth = n_;
    }
    telemetry::global().metrics().gauge("depth").set(depth);
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  double n_ = 0.0;
};
""",
    """
class S {
 public:
  void waived() {
    LockGuard g(m_);
    clock_();  // check:allow callback-under-lock documented lock-free
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<double()> clock_;
};
""",
]

HOT_BAD = {
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
    WAIVER_RULE: [
        """
void lazily_waived(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // check:allow hot-alloc
    std::vector<float> row(n);
    row[0] = float(i);
  });
}
""",
    ],
}

HOT_GOOD = [
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
    // check:allow hot-alloc slice-level region; inner kernels hold the contract
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

LINT_BAD = {
    "determinism": [
        "auto t = std::chrono::system_clock::now();",
        "auto t = std::chrono::steady_clock::now();",
        "std::this_thread::sleep_for(std::chrono::seconds(1));",
        "std::random_device rd;",
        "int x = rand();",
        "int y = std::rand();",
    ],
    "raw-mutex": [
        "std::mutex m;",
        "std::lock_guard<std::mutex> lock(m);",
        "std::unique_lock<std::mutex> lock(m);",
        "std::scoped_lock lock(a, b);",
    ],
    "stdout-logging": [
        'std::cout << "hello";',
        'printf("hello\\n");',
        'std::printf("hello\\n");',
        'fprintf(stdout, "hello\\n");',
    ],
}

LINT_GOOD = [
    "std::snprintf(buf, sizeof buf, \"%g\", v);",     # not printf
    "std::fprintf(stderr, \"%s\\n\", line.c_str());",  # stderr, not stdout
    "alsflow::Mutex mu_;",
    "LockGuard lock(mu_);",
    "// comment mentioning std::mutex and steady_clock is fine",
    "double t = eng_.now();",
    "rng_.bernoulli(p);  // seeded",
    "int operand = x;     // 'rand' inside a word",
]

# Synthetic trees for the lint pack's tree passes, checked by the corpus
# harness. The bad vocab tree has one stale entry on each side (dead
# selector, unselected emit, ghost stage component). The one-call vocab
# tree names its pairs only through emit(t, "component", "kind", ...)
# calls, one split across lines and one whose first argument holds a
# comma, and has a stale kind; the stage tree produces its component only
# through tel.begin(...) and flags just its ghost. The bad capture tree
# captures a vector by value at a parallel_for site (a parameter) and one
# declared as a local (multi-line intro), and pins the waiver contract: a
# waiver naming another rule, a reasonless one and one naming an unknown
# rule all waive nothing. The good trees are fully wired, capture by
# reference or scalars, copy in a non-pool lambda, and waive with a reason
# (trailing and on the line above).
LINT_TREES = [
    {"src/net/link.cpp":
        'void f() { ev.component = "net"; ev.kind = "delivery"; }\n'
        'void g() {\n'
        '  ev.component = "net";\n'
        '  ev.kind = "retired";  // check:expect event-vocab\n'
        '}\n',
     "src/monitor/slo.cpp":
        's.component = "net";\ns.kind = "delivery";\n'
        's.component = "hpc";\n'
        's.kind = "queue_wait";  // check:expect event-vocab\n',
     "src/monitor/trace_assembler.cpp":
        'if (span.component == "ghost") return "recon";'
        '  // check:expect event-vocab\n'
        'if (span.component == "hpc") return "recon";\n',
     "src/hpc/adapter.cpp":
        'auto s = tracer.begin("hpc", "execute", 0);\n'},
    {"src/net/link.cpp":
        'void f() { ev.component = "net"; ev.kind = "delivery"; }\n'
        'void h() { entry.kind = ev.kind; }\n',  # non-literal: ignored
     "src/monitor/slo.cpp": 's.component = "net";\ns.kind = "delivery";\n',
     "src/monitor/trace_assembler.cpp":
        'if (span.component == "hpc") return "recon";\n',
     "src/hpc/adapter.cpp": 'auto s = tracer.begin("hpc", "execute", 0);\n'},
    {"src/net/link.cpp":
        'void f() { tel.emit(t, "net", "delivery", name_, 1.0); }\n'
        'void g() {\n'
        '  tel.emit(now + deliver,\n'
        '           "net",\n'
        '           "retired",  // check:expect event-vocab\n'
        '           name_, 1.0);\n'
        '}\n',
     "src/hpc/adapter.cpp":
        'void h() {\n'
        '  tel.emit(std::max(done, submitted), "hpc", "queue_wait", fac,\n'
        '           wait, status);\n'
        '}\n',
     "src/monitor/slo.cpp":
        's.component = "net";\ns.kind = "delivery";\n'
        's.component = "hpc";\ns.kind = "queue_wait";\n'},
    {"src/pipeline/streaming_service.cpp":
        'void f() {\n'
        '  a.span = tel.begin("streaming", "stream:" + id, 0, now);\n'
        '  const SpanId r = tel.begin(\n'
        '      "streaming", "preview_return", a.span, now);\n'
        '  tel.emit(now, "streaming", "first_slice", id, latency);\n'
        '}\n',
     "src/monitor/slo.cpp":
        's.component = "streaming";\ns.kind = "first_slice";\n',
     "src/monitor/trace_assembler.cpp":
        'if (span.component == "streaming") return "preview";\n'
        'if (span.component == "ghost") return "recon";'
        '  // check:expect event-vocab\n'},
    {"src/tomo/kernel.cpp":
        '#include <vector>\n'
        'void f(std::vector<float> weights, std::size_t n) {\n'
        '  parallel::parallel_for(0, n, [weights](std::size_t i) {'
        '  // check:expect vector-value-capture\n'
        '    use(weights[i]);\n'
        '  });\n'
        '}\n'
        'void g(std::size_t n) {\n'
        '  std::vector<double> table(n);\n'
        '  parallel::parallel_for_chunks(\n'
        '      0, n, [table](std::size_t b, std::size_t e) {'
        '  // check:expect vector-value-capture\n'
        '    use(table[b]);\n'
        '  });\n'
        '  // check:allow raw-mutex the waiver names another rule\n'
        '  parallel::parallel_for(0, n, [table](std::size_t i) {'
        '  // check:expect vector-value-capture\n'
        '    use(table[i]);\n'
        '  });\n'
        '  // check:expect waiver-reason // check:allow vector-value-capture\n'
        '  parallel::parallel_for(0, n, [table](std::size_t i) {'
        '  // check:expect vector-value-capture\n'
        '    use(table[i]);\n'
        '  });\n'
        '  // check:expect waiver-unknown'
        ' // check:allow vector-value-captur small and immutable\n'
        '  parallel::parallel_for(0, n, [table](std::size_t i) {'
        '  // check:expect vector-value-capture\n'
        '    use(table[i]);\n'
        '  });\n'
        '}\n'},
    {"src/tomo/kernel.cpp":
        '#include <vector>\n'
        'void f(const std::vector<float>& weights, std::size_t n) {\n'
        '  double scale = 2.0;\n'
        '  parallel::parallel_for(0, n, [&weights, scale](std::size_t i) {\n'
        '    use(weights[i] * scale);\n'
        '  });\n'
        '  parallel::parallel_for(0, n, [&](std::size_t i) {\n'
        '    use(weights[i]);\n'
        '  });\n'
        '  auto cold = [weights]() { use(weights[0]); };\n'
        '  cold();\n'
        '  parallel::parallel_for(0, n, [weights](std::size_t i) {'
        '  // check:allow vector-value-capture small and immutable\n'
        '    use(weights[i]);\n'
        '  });\n'
        '  // check:allow vector-value-capture read-only, copied once per chunk\n'
        '  parallel::parallel_for(0, n, [weights](std::size_t i) {\n'
        '    use(weights[i]);\n'
        '  });\n'
        '}\n'},
]

# The corpus harness's own negative control: one expectation that cannot
# fire and one finding nobody expects.
HARNESS_CONTROL = {
    "src/control.cpp":
        "int quiet = 0;  // check:expect determinism\n"
        "auto t = std::chrono::steady_clock::now();\n",
}

SELFTEST = {"ast": (AST_BAD, AST_GOOD), "lock": (LOCK_BAD, LOCK_GOOD),
            "hot": (HOT_BAD, HOT_GOOD), "lint": (LINT_BAD, LINT_GOOD)}


def selftest(packs):
    def run(pack, snippet):
        text = "namespace alsflow {\n" + snippet + "\n}\n"
        return analyze({"<snippet>.cpp": text}, [pack], SELFTEST_RANKS)

    failures, counts = [], []
    for pack in packs:
        bad, good = SELFTEST[pack]
        for rule, snippets in bad.items():
            for snippet in snippets:
                if not any(f.rule == rule for f in run(pack, snippet)):
                    failures.append(f"[{rule}] should fire on:\n{snippet}")
        for snippet in good:
            for f in run(pack, snippet):
                failures.append(f"[{f.rule}] should NOT fire "
                                f"(line {f.line}: {f.message}) on:\n{snippet}")
        counts.append(f"{pack} {sum(map(len, bad.values()))} bad, "
                      f"{len(good)} good")
    if "lint" in packs:
        for tree in LINT_TREES:
            failures += corpus_mismatches(tree, analyze(tree, ["lint"]))[1]
        counts[-1] += f", {len(LINT_TREES)} trees"
    _, control = corpus_mismatches(
        HARNESS_CONTROL, analyze(HARNESS_CONTROL, ["lint"]))
    if [line.split()[0] for line in control] != ["MISSED", "SPURIOUS"]:
        failures.append("corpus harness negative control: want one MISSED "
                        f"and one SPURIOUS line, got {control}")
    for f in failures:
        print(f)
    print("alsflow_check --selftest: " +
          ("FAIL" if failures else
           f"OK ({'; '.join(counts)}; corpus harness negative control)"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).parent.parent,
                    help="repository root (contains src/)")
    ap.add_argument("--pack", choices=PACKS,
                    help="run one rule pack (default: all)")
    ap.add_argument("--format", choices=("text", "json", "github"),
                    default="text", help="output format")
    ap.add_argument("--selftest", action="store_true",
                    help="check the rules against embedded snippets")
    ap.add_argument("--corpus", type=Path, default=None,
                    help="run expectation mode over a violation corpus dir")
    args = ap.parse_args()
    packs = [args.pack] if args.pack else list(PACKS)
    if args.selftest:
        return selftest(packs)
    if args.corpus is not None:
        return run_corpus(args.corpus, args.root.resolve(), packs)
    return scan(args.root.resolve(), packs, args.format)


if __name__ == "__main__":
    sys.exit(main())
