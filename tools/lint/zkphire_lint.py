#!/usr/bin/env python3
"""zkphire-lint: project-invariant static analysis for the zkPHIRE tree.

Four checkers enforce invariants that ordinary compilers and sanitizers
cannot see (see DESIGN.md "Static analysis"):

  ct-kernel               In the field/curve kernel directories, flag
                          control flow (if / ternary / && / || / loop
                          conditions), array subscripts, and integer
                          div/mod whose data flows from secret limb
                          values. Escape hatch:
                          `// zkphire-lint: ct-exempt(reason)`.
  lock-order              Flag lock_guard / unique_lock / scoped_lock
                          acquisition sequences that contradict the
                          declared lock-order manifest
                          (tools/lint/zkphire_lint.json, "lockOrder").
  parallel-capture        Flag writes to [&]-captured variables inside
                          rt::parallelFor / parallelForChunks /
                          parallelReduce bodies when the write is not
                          subscripted by a loop-local index — the
                          any-thread-count determinism guard.
  transcript-determinism  Ban unordered-container use, rand()/srand,
                          std::random_device, and pointer-keyed ordered
                          containers in any TU that (transitively) feeds
                          hash::Transcript.

Front-ends: when the libclang Python bindings are importable the AST
front-end drives the analysis (accurate function extents, TU set straight
from the compilation database); otherwise a built-in C++ lexer front-end
produces the same findings from the same token-level semantics. Both are
driven by compile_commands.json (-p BUILDDIR), so the file set always
matches what is actually compiled. Rule ids and exemption syntax are
identical across front-ends; CI pins --engine=lexer for the gating run so
findings never depend on the installed clang version.

Exemption syntax (all checkers):
  // zkphire-lint: ct-exempt(reason)        ct-kernel, this line / next line,
                                            or the whole next function when
                                            the comment stands alone directly
                                            above a definition
  // zkphire-lint: ct-exempt-file(reason)   ct-kernel, whole file
  // zkphire-lint: allow(rule-id) reason    any rule, this line / next line
  // zkphire-lint: allow-file(rule-id) reason   any rule, whole file

Exit status: 0 when no findings, 1 when findings, 2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<rawstr>R"(?P<rawdelim>[^(\s]*)\(.*?\)(?P=rawdelim)")
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<num>(?:0[xX][0-9a-fA-F']+|\d[\d']*(?:\.\d*)?(?:[eE][+-]?\d+)?)\w*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
        |\+=|-=|\*=|/=|%=|&=|\|=|\^=|\[\[|\]\]|[{}()\[\];:,.<>+\-*/%&|^!~?=])
    | (?P<other>\S)
    """,
    re.VERBOSE | re.DOTALL,
)

PREPROC_RE = re.compile(r"^[ \t]*#", re.M)

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "do", "else"}
TYPEISH = {
    "const", "auto", "unsigned", "signed", "long", "short", "int", "bool",
    "char", "double", "float", "void", "static", "constexpr", "inline",
    "volatile", "mutable", "register", "typename", "struct", "class",
}


@dataclass
class Tok:
    kind: str  # id | num | punct | str | chr
    text: str
    line: int


@dataclass
class Directive:
    line: int
    kind: str  # ct-exempt | ct-exempt-file | allow | allow-file
    arg: str  # rule id for allow*, reason for ct-exempt*
    standalone: bool  # no code tokens share the line


DIRECTIVE_RE = re.compile(
    r"zkphire-lint:\s*(ct-exempt-file|ct-exempt|allow-file|allow)\s*\(([^)]*)\)"
)


def strip_preprocessor(text: str) -> tuple[str, list[tuple[int, str]]]:
    """Blank out preprocessor logical lines; return (text, [(line, include)])."""
    lines = text.split("\n")
    includes = []
    i = 0
    while i < len(lines):
        if re.match(r"^[ \t]*#", lines[i]):
            m = re.search(r'#\s*include\s+"([^"]+)"', lines[i])
            if m:
                includes.append((i + 1, m.group(1)))
            # Honour backslash continuations inside macro definitions.
            j = i
            while j < len(lines) and lines[j].rstrip().endswith("\\"):
                lines[j] = ""
                j += 1
            if j < len(lines):
                lines[j] = ""
            i = j + 1
        else:
            i += 1
    return "\n".join(lines), includes


def tokenize(text: str) -> tuple[list[Tok], list[Directive]]:
    toks: list[Tok] = []
    directives: list[Directive] = []
    line = 1
    pos = 0
    code_lines: set[int] = set()
    pending: list[tuple[int, str, str]] = []
    for m in TOKEN_RE.finditer(text):
        start = m.start()
        line += text.count("\n", pos, start)
        pos = start
        kind = m.lastgroup
        tok_text = m.group()
        if kind == "comment":
            for dm in DIRECTIVE_RE.finditer(tok_text):
                pending.append((line, dm.group(1), dm.group(2).strip()))
        elif kind in ("id", "num", "punct", "str", "chr", "rawstr", "other"):
            if kind == "rawstr":
                kind = "str"
            if kind != "other":
                toks.append(Tok(kind, tok_text, line))
            code_lines.add(line)
    for dline, dkind, darg in pending:
        directives.append(
            Directive(dline, dkind, darg, standalone=dline not in code_lines)
        )
    return toks, directives


# --------------------------------------------------------------------------
# Findings and exemptions
# --------------------------------------------------------------------------


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str


class Exemptions:
    def __init__(self, directives: list[Directive], functions):
        self.file_rules: set[str] = set()
        self.line_rules: dict[int, set[str]] = {}
        self.fn_ct_lines: list[tuple[int, int]] = []  # ct-exempt fn extents
        for d in directives:
            rule = "ct-kernel" if d.kind.startswith("ct-exempt") else d.arg
            if d.kind.endswith("-file"):
                self.file_rules.add(rule)
                continue
            covered = {d.line, d.line + 1}
            if d.standalone and d.kind == "ct-exempt":
                # A standalone ct-exempt directly above a function definition
                # exempts the whole function.
                for fn in functions or []:
                    if fn.sig_line - 1 <= d.line <= fn.body_open_line:
                        self.fn_ct_lines.append((fn.sig_line, fn.body_close_line))
                        break
            for ln in covered:
                self.line_rules.setdefault(ln, set()).add(rule)

    def exempt(self, rule: str, line: int) -> bool:
        if rule in self.file_rules or "*" in self.file_rules:
            return True
        rules = self.line_rules.get(line) or self.line_rules.get(line - 0)
        if rules and (rule in rules or "*" in rules):
            return True
        # A directive on the line above covers this line (set at build time),
        # so only function extents remain to check.
        if rule == "ct-kernel":
            for lo, hi in self.fn_ct_lines:
                if lo <= line <= hi:
                    return True
        return False


# --------------------------------------------------------------------------
# Function extraction (lexer front-end)
# --------------------------------------------------------------------------


@dataclass
class Function:
    name: str
    sig_line: int
    body_open_line: int
    body_close_line: int
    param_toks: list[Tok] = field(default_factory=list)
    body_toks: list[Tok] = field(default_factory=list)


def match_forward(toks, i, open_t, close_t):
    """Index of the token matching open_t at toks[i]; -1 if unmatched."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == open_t:
            depth += 1
        elif toks[j].text == close_t:
            depth -= 1
            if depth == 0:
                return j
    return -1


def match_backward(toks, i, open_t, close_t):
    depth = 0
    for j in range(i, -1, -1):
        if toks[j].text == close_t:
            depth += 1
        elif toks[j].text == open_t:
            depth -= 1
            if depth == 0:
                return j
    return -1


def extract_functions(toks: list[Tok]) -> list[Function]:
    """Heuristic function-definition finder for the house style."""
    fns: list[Function] = []
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].text != "{":
            i += 1
            continue
        # Walk back over tokens allowed between ')' and '{'.
        j = i - 1
        while j >= 0 and (
            toks[j].text in ("const", "noexcept", "override", "final", "mutable")
            or toks[j].text in ("&", "&&")
        ):
            j -= 1
        # Optional trailing return type: '-> type...' — walk back to ')'.
        k = j
        while k >= 0 and toks[k].text not in (")", ";", "{", "}"):
            k -= 1
        if k < 0 or toks[k].text != ")":
            i += 1
            continue
        if k != j:
            has_arrow = any(t.text == "->" for t in toks[k + 1 : j + 1])
            if not has_arrow:
                i += 1
                continue
        lp = match_backward(toks, k, "(", ")")
        if lp <= 0:
            i += 1
            continue
        name_idx = lp - 1
        if toks[name_idx].kind != "id" and toks[name_idx].text not in (
            "]", ">", "==", "!=", "<=", ">=", "+", "-", "*", "/", "%", "+=",
            "-=", "*=", "&", "|", "^", "()", "[]",
        ):
            i += 1
            continue
        name = toks[name_idx].text
        if name in CONTROL_KEYWORDS or toks[name_idx].text == "]":
            i += 1
            continue
        # operator== etc.: name token may be punctuation preceded by
        # 'operator'.
        if toks[name_idx].kind == "punct":
            if name_idx >= 1 and toks[name_idx - 1].text == "operator":
                name = "operator" + name
            else:
                i += 1
                continue
        elif name_idx >= 1 and toks[name_idx - 1].text == "operator":
            name = "operator " + name
        close = match_forward(toks, i, "{", "}")
        if close < 0:
            i += 1
            continue
        # Signature start: scan back to the previous statement boundary.
        s = name_idx - 1
        while s >= 0 and toks[s].text not in (";", "{", "}", ")"):
            s -= 1
        sig_line = toks[s + 1].line if s + 1 <= name_idx else toks[name_idx].line
        fns.append(
            Function(
                name=name,
                sig_line=sig_line,
                body_open_line=toks[i].line,
                body_close_line=toks[close].line,
                param_toks=toks[lp + 1 : k],
                body_toks=toks[i + 1 : close],
            )
        )
        i = i + 1  # nested lambdas are analyzed within the enclosing extent
    # Drop nested extents (lambda bodies matched as functions): keep outermost.
    fns.sort(key=lambda f: (f.sig_line, -(f.body_close_line)))
    out: list[Function] = []
    for f in fns:
        if out and f.body_open_line >= out[-1].body_open_line and f.body_close_line <= out[-1].body_close_line:
            continue
        out.append(f)
    return out


# --------------------------------------------------------------------------
# ct-kernel checker
# --------------------------------------------------------------------------


class CtConfig:
    def __init__(self, cfg: dict):
        self.paths = cfg.get("paths", ["src/ff", "src/ec"])
        self.public_roots = set(
            cfg.get("publicRoots", ["consts", "kMod", "kInv", "modulus",
                                    "modulusBits", "params"])
        )
        self.tainted_members = set(
            cfg.get("taintedMembers", ["limb", "v", "X", "Y", "Z"])
        )
        self.tainted_param_types = set(
            cfg.get("taintedParamTypes",
                    ["BigInt", "Big", "PrimeField", "Fr", "Fq",
                     "G1Affine", "G1Jacobian"])
        )
        self.tainted_calls = set(
            cfg.get("taintedCalls",
                    ["pow", "square", "inverse", "toBig", "montMul",
                     "montSquare", "montMulGeneric", "next", "dbl", "neg"])
        )


def split_params(toks: list[Tok]) -> list[list[Tok]]:
    out, cur, depth = [], [], 0
    for t in toks:
        if t.text in ("(", "<", "[", "{"):
            depth += 1
        elif t.text == "<<":
            depth += 2
        elif t.text == ">>":
            depth -= 2  # template close `vector<vector<Fr>>` lexes as one tok
        elif t.text in (")", ">", "]", "}"):
            depth -= 1
        if t.text == "," and depth == 0:
            out.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        out.append(cur)
    return out


def param_name_and_taint(param: list[Tok], cfg: CtConfig):
    """Return (name, tainted) for one parameter declaration."""
    # Strip default argument.
    for idx, t in enumerate(param):
        if t.text == "=":
            param = param[:idx]
            break
    ids = [t for t in param if t.kind == "id"]
    if not ids:
        return None, False
    name = ids[-1].text
    type_ids = {t.text for t in ids[:-1]}
    tainted = bool(type_ids & cfg.tainted_param_types)
    # Raw limb pointers: `u64 *a` / `const u64 *a`.
    if "u64" in type_ids or "uint64_t" in type_ids:
        if any(t.text == "*" for t in param):
            tainted = True
        elif len(ids) == 2 and ids[0].text in ("u64", "uint64_t"):
            tainted = True  # by-value limb word
    return name, tainted


def mask_assert_extents(toks: list[Tok]) -> list[bool]:
    """True for tokens inside assert(...) / static_assert(...)."""
    masked = [False] * len(toks)
    i = 0
    while i < len(toks):
        if toks[i].kind == "id" and toks[i].text in ("assert", "static_assert") \
                and i + 1 < len(toks) and toks[i + 1].text == "(":
            close = match_forward(toks, i + 1, "(", ")")
            if close > 0:
                for j in range(i, close + 1):
                    masked[j] = True
                i = close + 1
                continue
        i += 1
    return masked


SIZE_TYPES = {"size_t", "int", "unsigned", "uint32_t", "u32", "bool",
              "uint16_t", "uint8_t", "ptrdiff_t"}
PUBLIC_MEMBER_CALLS = {"size", "empty", "capacity", "length"}


def is_public_member_use(span, idx):
    """xs.size() and friends read public shape, not limb data."""
    return (idx + 2 < len(span) and span[idx + 1].text in (".", "->")
            and span[idx + 2].text in PUBLIC_MEMBER_CALLS)


def compute_taint(body: list[Tok], tainted: set[str], public: set[str],
                  cfg: CtConfig) -> None:
    """Fixpoint taint propagation over assignments and declarations."""

    def expr_tainted(span: list[Tok]) -> bool:
        for idx, t in enumerate(span):
            if t.kind != "id":
                continue
            if is_public_member_use(span, idx):
                continue
            if t.text in tainted and t.text not in public:
                return True
            if t.text == "limb":
                # member access `base.limb` — public bases are clean.
                base = None
                if idx >= 2 and span[idx - 1].text in (".", "->"):
                    b = idx - 2
                    while b >= 2 and span[b].kind == "id" and span[b - 1].text in (".", "->"):
                        b -= 2
                    base = span[b].text if span[b].kind == "id" else None
                if base is None or base not in public:
                    return True
            elif t.text in cfg.tainted_members and t.text != "limb":
                prev = span[idx - 1].text if idx else ""
                nxt = span[idx + 1].text if idx + 1 < len(span) else ""
                # Bare member read/use (not a declaration of a same-named var).
                if prev in (".", "->") or nxt in (".", ",", ")", ";", "*",
                                                  "+", "-", "==", "!=", "["):
                    b_ok = False
                    if prev in (".", "->") and idx >= 2 and span[idx - 2].kind == "id":
                        b_ok = span[idx - 2].text in public
                    if not b_ok:
                        return True
            if t.text in cfg.tainted_calls and idx + 1 < len(span) \
                    and span[idx + 1].text == "(":
                return True
        return False

    def expr_public(span: list[Tok]) -> bool:
        has_root = False
        for idx, t in enumerate(span):
            if t.kind == "id":
                if t.text in cfg.public_roots or t.text in public:
                    has_root = True
                elif t.text in tainted:
                    return False
        return has_root

    for _ in range(8):
        changed = False
        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            if t.text in ASSIGN_OPS and t.kind == "punct":
                # LHS base identifier: walk back over member/subscript chain.
                j = i - 1
                through_ptr = False
                while j >= 0:
                    if body[j].text in ("]",):
                        j = match_backward(body, j, "[", "]") - 1
                    elif body[j].kind == "id":
                        if j >= 1 and body[j - 1].text in (".", "->", "::"):
                            through_ptr |= body[j - 1].text == "->"
                            j -= 2
                        else:
                            break
                    else:
                        break
                base = body[j].text if j >= 0 and body[j].kind == "id" else None
                # A write through `ptr->member` does not make the pointer
                # itself secret (branching on the pointer is a nullness test).
                if through_ptr:
                    base = None
                # Size-typed declarations (loop bounds, counts, widths) are
                # public shape data, never limb values.
                if base is not None and j == i - 1:
                    b = j - 1
                    type_ids = []
                    while b >= 0 and (body[b].kind == "id"
                                      or body[b].text in ("::", "<", ">", "*",
                                                          "&") or
                                      body[b].text in TYPEISH):
                        if body[b].kind == "id":
                            type_ids.append(body[b].text)
                        b -= 1
                    if set(type_ids) & SIZE_TYPES:
                        public.add(base)
                        base = None
                # RHS until ';' or unbalanced ')'.
                k = i + 1
                depth = 0
                rhs = []
                while k < n:
                    tk = body[k]
                    if tk.text in ("(", "[", "{"):
                        depth += 1
                    elif tk.text in (")", "]", "}"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif tk.text in (";", ",") and depth == 0:
                        break
                    rhs.append(tk)
                    k += 1
                if base:
                    lhs_member = any(
                        x.text == "limb" for x in body[j:i]
                    )
                    if expr_tainted(rhs) or (lhs_member and base not in public):
                        if base not in tainted:
                            tainted.add(base)
                            changed = True
                        public.discard(base)
                    elif expr_public(rhs) and base not in tainted:
                        if base not in public:
                            public.add(base)
                            changed = True
                i = k
            else:
                i += 1
        if not changed:
            break


def condition_spans(body: list[Tok]):
    """Yield (line, kind, span) for branch/loop conditions and ternaries."""
    n = len(body)
    i = 0
    while i < n:
        t = body[i]
        if t.kind == "id" and t.text in ("if", "while") and i + 1 < n:
            nxt = i + 1
            if body[nxt].text == "constexpr":
                nxt += 1
            if nxt < n and body[nxt].text == "(":
                close = match_forward(body, nxt, "(", ")")
                if close > 0:
                    yield (t.line, "branch", body[nxt + 1 : close])
                    i = nxt + 1
                    continue
        elif t.kind == "id" and t.text == "for" and i + 1 < n and body[i + 1].text == "(":
            close = match_forward(body, i + 1, "(", ")")
            if close > 0:
                inner = body[i + 2 : close]
                semis = [idx for idx, x in enumerate(inner) if x.text == ";"]
                if len(semis) >= 2:
                    cond = inner[semis[0] + 1 : semis[1]]
                    ln = cond[0].line if cond else t.line
                    yield (ln, "loop", cond)
                i += 2
                continue
        elif t.text == "?" and t.kind == "punct":
            j = i - 1
            depth = 0
            span = []
            while j >= 0:
                x = body[j]
                if x.text in (")", "]"):
                    depth += 1
                elif x.text in ("(", "["):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and (x.text in (";", ",", "{", "}", ":",
                                                "return", "?")
                                     or x.text in ASSIGN_OPS):
                    break
                span.append(x)
                j -= 1
            yield (t.line, "ternary", list(reversed(span)))
        elif t.text in ("&&", "||") and t.kind == "punct":
            j = i - 1
            depth = 0
            span = []
            while j >= 0:
                x = body[j]
                if x.text in (")", "]"):
                    depth += 1
                elif x.text in ("(", "["):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and (x.text in (";", ",", "{", "}", "return",
                                                "&&", "||")
                                     or x.text in ASSIGN_OPS):
                    break
                span.append(x)
                j -= 1
            k = i + 1
            depth = 0
            while k < n:
                x = body[k]
                if x.text in ("(", "["):
                    depth += 1
                elif x.text in (")", "]"):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and x.text in (";", ",", "{", "}", "&&", "||", "?"):
                    break
                span.append(x)
                k += 1
            yield (t.line, "shortcircuit", span)
        i += 1


def check_ct_kernel(path, toks, directives, functions, cfg: CtConfig,
                    findings):
    ex = Exemptions(directives, functions)

    def taint_set_for(fn: Function):
        tainted: set[str] = set()
        public: set[str] = set()
        for p in split_params(fn.param_toks):
            name, is_tainted = param_name_and_taint(p, cfg)
            if name and is_tainted:
                tainted.add(name)
        compute_taint(fn.body_toks, tainted, public, cfg)
        return tainted, public

    for fn in functions:
        tainted, public = taint_set_for(fn)
        body = fn.body_toks
        masked = mask_assert_extents(body)
        idx_of = {id(t): i for i, t in enumerate(body)}

        def is_masked(span):
            return any(masked[idx_of[id(t)]] for t in span if id(t) in idx_of)

        def span_tainted(span):
            for i2, t in enumerate(span):
                if t.kind != "id":
                    continue
                if is_public_member_use(span, i2):
                    continue
                if t.text in tainted and t.text not in public:
                    return t.text
                if t.text in cfg.tainted_members:
                    prev = span[i2 - 1].text if i2 else ""
                    base_ok = False
                    if prev in (".", "->") and i2 >= 2 and span[i2 - 2].kind == "id":
                        base_ok = span[i2 - 2].text in public
                    elif t.text == "limb" and prev not in (".", "->"):
                        base_ok = False
                    elif t.text != "limb" and prev not in (".", "->"):
                        continue
                    if not base_ok:
                        return t.text
            return None

        # 1. Conditions.
        for line, kind, span in condition_spans(body):
            if is_masked(span):
                continue
            hit = span_tainted(span)
            if hit and not ex.exempt("ct-kernel", line):
                findings.append(Finding(
                    path, line, "ct-kernel",
                    f"secret-dependent {kind} condition on limb data "
                    f"(via '{hit}') in {fn.name}()"))

        # 2. Array subscripts.
        for i, t in enumerate(body):
            if t.text != "[" or t.kind != "punct":
                continue
            if i == 0 or body[i - 1].text not in ("]",) and body[i - 1].kind != "id" \
                    and body[i - 1].text != ")":
                continue  # lambda capture list / attribute, not a subscript
            if body[i - 1].text == "[" or (i + 1 < len(body) and body[i + 1].text == "["):
                continue
            close = match_forward(body, i, "[", "]")
            if close < 0:
                continue
            span = body[i + 1 : close]
            if not span or is_masked(span):
                continue
            hit = span_tainted(span)
            if hit and not ex.exempt("ct-kernel", t.line):
                findings.append(Finding(
                    path, t.line, "ct-kernel",
                    f"secret-dependent array index (via '{hit}') in {fn.name}()"))

        # 3. Integer division / modulo.
        for i, t in enumerate(body):
            if t.text not in ("/", "%") or t.kind != "punct":
                continue
            if masked[i]:
                continue
            neighbors = []
            if i >= 1:
                if body[i - 1].kind == "id":
                    neighbors.append(body[i - 1])
                elif body[i - 1].text in ("]", ")"):
                    # Collect the balanced group and its leading id chain:
                    # `big.limb[i] % 7` divides a limb, not an id neighbor.
                    op = match_backward(body, i - 1,
                                        "[" if body[i - 1].text == "]" else "(",
                                        body[i - 1].text)
                    b = op - 1
                    while b >= 0 and (body[b].kind == "id"
                                      or body[b].text in (".", "->", "::")):
                        b -= 1
                    neighbors.extend(body[b + 1 : i])
            if i + 1 < len(body) and body[i + 1].kind == "id":
                neighbors.append(body[i + 1])
            hit = span_tainted(neighbors)
            if hit and not ex.exempt("ct-kernel", t.line):
                findings.append(Finding(
                    path, t.line, "ct-kernel",
                    f"variable-latency integer {'division' if t.text == '/' else 'modulo'}"
                    f" on limb data (via '{hit}') in {fn.name}()"))


# --------------------------------------------------------------------------
# lock-order checker
# --------------------------------------------------------------------------

LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock"}


def check_lock_order(path, toks, directives, functions, lock_cfg, findings):
    ex = Exemptions(directives, functions)
    edges = {(a, b) for a, b in lock_cfg.get("order", [])}
    aliases = lock_cfg.get("aliases", {})

    def canon(name):
        return aliases.get(name, name)

    for fn in functions:
        body = fn.body_toks
        held: list[tuple[str, int, str]] = []  # (mutex, depth, guard var)
        depth = 0
        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                held = [h for h in held if h[1] <= depth]
            elif t.kind == "id" and t.text in LOCK_TYPES:
                # std::lock_guard<std::mutex> name(mu[, ...]);
                j = i + 1
                if j < n and body[j].text == "<":
                    close = match_forward(body, j, "<", ">")
                    j = close + 1 if close > 0 else j
                if j < n and body[j].kind == "id":
                    guard = body[j].text
                    j += 1
                    if j < n and body[j].text == "(":
                        close = match_forward(body, j, "(", ")")
                        args = body[j + 1 : close] if close > 0 else []
                        arg_ids = [x.text for x in args if x.kind == "id"]
                        if arg_ids:
                            mtx = canon(arg_ids[-1] if args and args[-1].kind == "id"
                                        else arg_ids[0])
                            # first argument's trailing identifier
                            first_arg = split_params(args)[0] if args else []
                            fids = [x.text for x in first_arg if x.kind == "id"]
                            if fids:
                                mtx = canon(fids[-1])
                            for held_mtx, _, _ in held:
                                if (mtx, held_mtx) in edges and not ex.exempt(
                                        "lock-order", t.line):
                                    findings.append(Finding(
                                        path, t.line, "lock-order",
                                        f"acquires '{mtx}' while holding "
                                        f"'{held_mtx}' in {fn.name}(); manifest "
                                        f"order requires {mtx} -> {held_mtx}"))
                            held.append((mtx, depth, guard))
                        i = close if close > 0 else i
            elif t.kind == "id" and i + 2 < n and body[i + 1].text == "." \
                    and body[i + 2].text in ("unlock", "lock"):
                guard = t.text
                if body[i + 2].text == "unlock":
                    held = [h for h in held if h[2] != guard]
                i += 2
            i += 1


# --------------------------------------------------------------------------
# parallel-capture checker
# --------------------------------------------------------------------------


def find_lambdas(toks, start, end):
    """Yield (cap_span, param_span, body_span, line) for lambdas in range."""
    i = start
    while i < end:
        t = toks[i]
        if t.text == "[" and t.kind == "punct":
            prev = toks[i - 1].text if i > start else ""
            if prev and (toks[i - 1].kind == "id" or prev in (")", "]")):
                i += 1
                continue  # subscript
            close = match_forward(toks, i, "[", "]")
            if close < 0 or close >= end:
                i += 1
                continue
            j = close + 1
            params = []
            if j < end and toks[j].text == "(":
                pclose = match_forward(toks, j, "(", ")")
                if pclose < 0 or pclose >= end:
                    i = close + 1
                    continue
                params = toks[j + 1 : pclose]
                j = pclose + 1
            while j < end and (toks[j].kind == "id" or toks[j].text in ("->", "::", "<", ">", "&", "*")):
                j += 1
            if j < end and toks[j].text == "{":
                bclose = match_forward(toks, j, "{", "}")
                if bclose > 0 and bclose <= end:
                    yield (toks[i + 1 : close], params, (j + 1, bclose), t.line)
                    i = j  # recurse into body for nested lambdas via caller
                    continue
            i = close + 1
        else:
            i += 1


def body_declared_locals(toks, lo, hi):
    """Identifiers declared inside the extent (heuristic)."""
    decls: set[str] = set()
    i = lo
    stmt_start = True
    while i < hi:
        t = toks[i]
        if t.text in (";", "{", "}"):
            stmt_start = True
            i += 1
            continue
        if t.kind == "id" and t.text == "for" and i + 1 < hi and toks[i + 1].text == "(":
            # for-init declaration.
            close = match_forward(toks, i + 1, "(", ")")
            inner = toks[i + 2 : close] if close > 0 else []
            semi = next((k for k, x in enumerate(inner) if x.text == ";"), None)
            colon = next((k for k, x in enumerate(inner) if x.text == ":"), None)
            init = inner[:semi] if semi is not None else (
                inner[:colon] if colon is not None else [])
            ids = [x.text for x in init if x.kind == "id"]
            eq = next((k for k, x in enumerate(init) if x.text == "="), None)
            if eq is not None:
                ids = [x.text for x in init[:eq] if x.kind == "id"]
            if len(ids) >= 2 or (len(ids) == 1 and any(
                    x.text in TYPEISH for x in init)):
                decls.add(ids[-1])
            elif len(ids) == 1 and colon is not None:
                decls.add(ids[0])
            i += 2
            stmt_start = False
            continue
        if stmt_start and (t.kind == "id" or t.text == "const"):
            # TYPE [&*] name ( = | ; | ( | { )
            j = i
            ids = []
            while j < hi and (toks[j].kind == "id" or toks[j].text in
                              ("::", "<", ">", ",", "&", "*") or
                              toks[j].text in TYPEISH):
                if toks[j].kind == "id" and toks[j].text not in TYPEISH:
                    ids.append(toks[j].text)
                j += 1
            if j < hi and toks[j].text in ("=", ";", "{") and ids:
                has_type_kw = any(toks[k].text in TYPEISH
                                  for k in range(i, j))
                if len(ids) >= 2 or has_type_kw:
                    decls.add(ids[-1])
        stmt_start = False
        i += 1
    return decls


def check_parallel_capture(path, toks, directives, functions, par_cfg,
                           findings):
    ex = Exemptions(directives, functions)
    entries = set(par_cfg.get("entryPoints",
                              ["parallelFor", "parallelForChunks",
                               "parallelReduce"]))
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in entries:
            continue
        if i + 1 < n and toks[i + 1].text == "<":
            close_t = match_forward(toks, i + 1, "<", ">")
            call_open = close_t + 1 if close_t > 0 else i + 1
        else:
            call_open = i + 1
        if call_open >= n or toks[call_open].text != "(":
            continue
        call_close = match_forward(toks, call_open, "(", ")")
        if call_close < 0:
            continue
        for caps, params, (blo, bhi), line in find_lambdas(
                toks, call_open + 1, call_close):
            cap_texts = [c.text for c in caps]
            if "&" not in cap_texts:
                continue  # value captures cannot write shared state
            value_caps = set()
            k = 0
            while k < len(caps):
                if caps[k].kind == "id":
                    if k == 0 or caps[k - 1].text != "&":
                        value_caps.add(caps[k].text)
                k += 1
            local = set()
            for p in split_params(params):
                ids = [x.text for x in p if x.kind == "id"]
                if ids:
                    local.add(ids[-1])
            local |= body_declared_locals(toks, blo, bhi)
            safe_index_ids = local | value_caps
            j = blo
            while j < bhi:
                x = toks[j]
                wrote = None
                if x.text in ASSIGN_OPS and x.kind == "punct":
                    wrote = j
                elif x.text in ("++", "--"):
                    # pre/post increment
                    tgt = None
                    if j + 1 < bhi and toks[j + 1].kind == "id":
                        tgt = j + 1
                    elif j - 1 >= blo and toks[j - 1].kind == "id":
                        tgt = j - 1
                    if tgt is not None:
                        name = toks[tgt].text
                        if name not in local and not ex.exempt(
                                "parallel-capture", x.line):
                            findings.append(Finding(
                                path, x.line, "parallel-capture",
                                f"increment of captured '{name}' inside a "
                                f"parallel body (not loop-indexed)"))
                    j += 1
                    continue
                if wrote is None:
                    j += 1
                    continue
                # LHS chain.
                b = wrote - 1
                subs_ids: set[str] = set()
                while b >= blo:
                    if toks[b].text == "]":
                        ob = match_backward(toks, b, "[", "]")
                        subs_ids |= {y.text for y in toks[ob + 1 : b]
                                     if y.kind == "id"}
                        b = ob - 1
                    elif toks[b].kind == "id":
                        if b - 1 >= blo and toks[b - 1].text in (".", "->", "::"):
                            b -= 2
                        else:
                            break
                    elif toks[b].text == ")":
                        b = match_backward(toks, b, "(", ")") - 1
                    elif toks[b].text == "*":
                        b -= 1
                    else:
                        break
                base = toks[b].text if b >= blo and toks[b].kind == "id" else None
                if base is None or base in local:
                    j += 1
                    continue
                if subs_ids & safe_index_ids:
                    j += 1
                    continue
                if not ex.exempt("parallel-capture", x.line):
                    findings.append(Finding(
                        path, x.line, "parallel-capture",
                        f"write to captured '{base}' inside a parallel body "
                        f"is not subscripted by a loop-local index"))
                j += 1


# --------------------------------------------------------------------------
# transcript-determinism checker
# --------------------------------------------------------------------------

UNORDERED = {"unordered_map", "unordered_set", "unordered_multimap",
             "unordered_multiset"}


def check_transcript(path, toks, directives, functions, findings):
    ex = Exemptions(directives, functions)
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in UNORDERED:
            if not ex.exempt("transcript-determinism", t.line):
                findings.append(Finding(
                    path, t.line, "transcript-determinism",
                    f"'{t.text}' in a transcript-feeding TU: iteration order "
                    f"is implementation-defined; use std::map / sorted vectors"))
        elif t.text in ("rand", "srand") and i + 1 < n and toks[i + 1].text == "(":
            prev = toks[i - 1].text if i else ""
            if prev in (".", "->"):
                continue
            if not ex.exempt("transcript-determinism", t.line):
                findings.append(Finding(
                    path, t.line, "transcript-determinism",
                    f"'{t.text}()' in a transcript-feeding TU: seeds "
                    f"nondeterminism into proof bytes; use ff::Rng"))
        elif t.text == "random_device":
            if not ex.exempt("transcript-determinism", t.line):
                findings.append(Finding(
                    path, t.line, "transcript-determinism",
                    "'std::random_device' in a transcript-feeding TU; use "
                    "ff::Rng with an explicit seed"))
        elif t.text in ("map", "set") and i + 1 < n and toks[i + 1].text == "<":
            close = match_forward(toks, i + 1, "<", ">")
            if close < 0:
                continue
            inner = toks[i + 2 : close]
            key = split_params(inner)[0] if inner else []
            if key and key[-1].text == "*":
                if not ex.exempt("transcript-determinism", t.line):
                    findings.append(Finding(
                        path, t.line, "transcript-determinism",
                        "pointer-keyed ordered container in a "
                        "transcript-feeding TU: address order varies per run"))


# --------------------------------------------------------------------------
# File set resolution
# --------------------------------------------------------------------------


def load_compile_db(build_dir):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        return None
    with open(db_path) as f:
        return json.load(f)


def resolve_files(root, build_dir, path_args):
    """TU list from the compilation database + transitively included
    project headers; falls back to a directory walk without a database."""
    files: set[str] = set()
    db = load_compile_db(build_dir) if build_dir else None
    if db:
        for entry in db:
            p = os.path.normpath(os.path.join(entry.get("directory", root),
                                              entry["file"]))
            if os.path.isfile(p):
                files.add(p)
    # Walk explicit path arguments too: fixture/TU-less sources (e.g.
    # tests/lint_fixtures) are deliberately absent from the database.
    for base in (path_args or ([] if db else [os.path.join(root, "src")])):
        for dirpath, _, names in os.walk(base):
            for nm in names:
                if nm.endswith(".cpp"):
                    files.add(os.path.normpath(os.path.join(dirpath, nm)))
    # Header closure via quoted includes, resolved against src/.
    src_root = os.path.join(root, "src")
    include_map: dict[str, list[str]] = {}
    queue = list(files)
    seen = set(queue)
    while queue:
        p = queue.pop()
        try:
            with open(p, errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        incs = []
        for m in re.finditer(r'#\s*include\s+"([^"]+)"', text):
            cand = os.path.normpath(os.path.join(src_root, m.group(1)))
            if not os.path.isfile(cand):
                cand = os.path.normpath(os.path.join(os.path.dirname(p),
                                                     m.group(1)))
            if os.path.isfile(cand):
                incs.append(cand)
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
        include_map[p] = incs
    all_files = seen
    if path_args:
        bases = [os.path.abspath(b) for b in path_args]
        all_files = {p for p in all_files
                     if any(os.path.abspath(p).startswith(b + os.sep)
                            or os.path.abspath(p) == b for b in bases)}
    return sorted(all_files), include_map


def transcript_closure(include_map, roots):
    """Files whose include closure reaches any root header."""
    root_paths = set()
    for p in include_map:
        for r in roots:
            if p.replace("\\", "/").endswith(r):
                root_paths.add(p)
    feeding = set(root_paths)
    changed = True
    while changed:
        changed = False
        for p, incs in include_map.items():
            if p in feeding:
                continue
            if any(i in feeding for i in incs):
                feeding.add(p)
                changed = True
    return feeding


# --------------------------------------------------------------------------
# Engines
# --------------------------------------------------------------------------


def analyze_file(path, rel, cfg, in_transcript_set, findings,
                 clang_functions=None):
    try:
        with open(path, errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print(f"zkphire-lint: cannot read {path}: {e}", file=sys.stderr)
        return
    text, _ = strip_preprocessor(raw)
    toks, directives = tokenize(text)
    functions = clang_functions if clang_functions is not None \
        else extract_functions(toks)

    def in_paths(section):
        for base in section.get("paths", ["src"]):
            nb = base.replace("\\", "/").rstrip("/") + "/"
            if rel.replace("\\", "/").startswith(nb) or \
                    rel.replace("\\", "/") == base.replace("\\", "/"):
                return True
        return False

    ct_cfg = CtConfig(cfg.get("ctKernel", {}))
    if any(rel.replace("\\", "/").startswith(b.rstrip("/") + "/")
           for b in ct_cfg.paths):
        check_ct_kernel(rel, toks, directives, functions, ct_cfg, findings)
    if in_paths(cfg.get("lockOrder", {})):
        check_lock_order(rel, toks, directives, functions,
                         cfg.get("lockOrder", {}), findings)
    if in_paths(cfg.get("parallelCapture", {})):
        check_parallel_capture(rel, toks, directives, functions,
                               cfg.get("parallelCapture", {}), findings)
    if in_transcript_set and in_paths(cfg.get("transcriptDeterminism", {})):
        check_transcript(rel, toks, directives, functions, findings)


def clang_function_extents(path, build_dir):
    """AST-accurate function extents via libclang; None when unavailable.

    The libclang front-end contributes precise definition extents (template
    instantiations, operators, out-of-line members) and the compile-command
    arguments for each TU; the token-level pass semantics are shared with
    the lexer front-end so rule ids and exemptions behave identically.
    """
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except Exception:
        return None
    args = ["-std=c++20"]
    db = None
    try:
        db = cindex.CompilationDatabase.fromDirectory(build_dir)
    except Exception:
        pass
    if db is not None:
        cmds = db.getCompileCommands(path)
        if cmds:
            raw = list(cmds[0].arguments)[1:-1]
            args = [a for a in raw if a not in ("-c", "-o")]
    try:
        tu = index.parse(path, args=args)
    except Exception:
        return None
    fns = []
    kinds = {
        cindex.CursorKind.FUNCTION_DECL,
        cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.FUNCTION_TEMPLATE,
        cindex.CursorKind.CONSTRUCTOR,
        cindex.CursorKind.DESTRUCTOR,
    }
    for cur in tu.cursor.walk_preorder():
        if cur.kind in kinds and cur.is_definition() and cur.location.file \
                and os.path.samefile(str(cur.location.file), path):
            body = None
            for ch in cur.get_children():
                if ch.kind == cindex.CursorKind.COMPOUND_STMT:
                    body = ch
            if body is None:
                continue
            with open(path, errors="replace") as f:
                seg = f.read()
            text, _ = strip_preprocessor(seg)
            # Re-tokenize just the extent for the shared analyses.
            lines = text.split("\n")
            lo = cur.extent.start.line
            hi = cur.extent.end.line
            chunk = "\n".join([""] * (lo - 1) + lines[lo - 1 : hi])
            ctoks, _ = tokenize(chunk)
            open_idx = next((k for k, t in enumerate(ctoks)
                             if t.text == "{" and t.line >= body.extent.start.line),
                            None)
            if open_idx is None:
                continue
            close_idx = match_forward(ctoks, open_idx, "{", "}")
            if close_idx < 0:
                continue
            # Parameter tokens: between the first '(' after the name and its
            # matching ')'.
            lp = next((k for k, t in enumerate(ctoks) if t.text == "("), None)
            params = []
            if lp is not None:
                rp = match_forward(ctoks, lp, "(", ")")
                if 0 < rp < open_idx:
                    params = ctoks[lp + 1 : rp]
            fns.append(Function(
                name=cur.spelling or "<anon>",
                sig_line=lo,
                body_open_line=ctoks[open_idx].line,
                body_close_line=ctoks[close_idx].line,
                param_toks=params,
                body_toks=ctoks[open_idx + 1 : close_idx],
            ))
    return fns


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

DEFAULT_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "zkphire_lint.json")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="zkphire_lint.py",
        description="Project-invariant static analysis for zkPHIRE.")
    ap.add_argument("paths", nargs="*", default=[],
                    help="restrict analysis to these directories (default src)")
    ap.add_argument("-p", "--build-dir", default="build",
                    help="directory holding compile_commands.json")
    ap.add_argument("--config", default=DEFAULT_CONFIG,
                    help="checker config + lock-order manifest (JSON)")
    ap.add_argument("--engine", choices=["auto", "lexer", "clang"],
                    default="auto",
                    help="front-end: libclang AST when available (auto), "
                         "the built-in lexer, or force either")
    ap.add_argument("--json", action="store_true", dest="json_out",
                    help="emit findings as JSON")
    ap.add_argument("--list-files", action="store_true",
                    help="print the resolved file set and exit")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except OSError as e:
        print(f"zkphire-lint: cannot read config {args.config}: {e}",
              file=sys.stderr)
        return 2

    files, include_map = resolve_files(root, args.build_dir, args.paths)
    if not files:
        print("zkphire-lint: no files resolved (missing compile_commands.json"
              " and no path arguments?)", file=sys.stderr)
        return 2
    if args.list_files:
        for p in files:
            print(os.path.relpath(p, root))
        return 0

    roots = cfg.get("transcriptDeterminism", {}).get(
        "roots", ["hash/transcript.hpp"])
    feeding = transcript_closure(include_map, roots)

    use_clang = args.engine in ("auto", "clang")
    if args.engine == "clang":
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("zkphire-lint: --engine=clang requested but the libclang "
                  "python bindings are not importable", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    engine_used = "lexer"
    for path in files:
        rel = os.path.relpath(path, root)
        clang_fns = None
        if use_clang and path.endswith(".cpp"):
            clang_fns = clang_function_extents(path, args.build_dir)
            if clang_fns is not None:
                engine_used = "clang"
        analyze_file(path, rel, cfg, path in feeding, findings,
                     clang_functions=clang_fns)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    deduped: list[Finding] = []
    seen: set[tuple[str, int, str]] = set()
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key not in seen:
            seen.add(key)
            deduped.append(f)
    findings = deduped
    if args.json_out:
        print(json.dumps([f.__dict__ for f in findings], indent=2))
    else:
        for f in findings:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        print(f"zkphire-lint ({engine_used} front-end): "
              f"{len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
