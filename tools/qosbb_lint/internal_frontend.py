"""Built-in frontend: lowers C++ sources to the lint IR with a tokenizer.

This frontend has no toolchain dependency, so the lint gates every build
row — including gcc, where clang's thread-safety annotations expand to
nothing. It is a structural scanner, not a compiler: it understands the
repo's clang-format-normalized shape (function definitions, brace scopes,
call chains, guard declarations) and deliberately over-approximates where
C++ is ambiguous. The sabotage fixtures under fixtures/ pin what each
check must catch through this frontend.
"""

import re

from cpp_lexer import (KEYWORDS, lex, match_angle, match_brace, match_paren)
from lint_ir import FunctionIR

GUARD_CLASSES = frozenset({
    "MutexLock", "ExclusiveLock", "SharedLock", "ShardLockSet",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
})

GROWTH_METHODS = frozenset({
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "insert", "resize", "reserve", "assign", "append", "push_bucket",
})

ALLOC_CALLS = frozenset({
    "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup",
    "to_string", "substr", "str",
})

ALLOC_TYPES = frozenset({
    "vector", "string", "map", "unordered_map", "unordered_set", "deque",
    "set", "multiset", "multimap", "list", "function", "stringstream",
    "ostringstream", "basic_string", "WireBuffer",
})

_QUALIFIER_IDS = frozenset({
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "throw", "try",
})


class _FileParser:
    def __init__(self, relpath, source, config):
        self.relpath = relpath
        self.toks, self.allow = lex(source)
        # A waiver comment on its own line covers the next line too.
        for ln in sorted(self.allow):
            self.allow.setdefault(ln + 1, set()).update(self.allow[ln])
        self.config = config
        self.sink_names = set(config.get("diagnostic_sinks", []))
        self.lock_names = set(config.get("lock_ranks", {}))
        self.functions = []
        self.decls = []  # (name, cls, returns_status)

    # ---- declaration scanning -------------------------------------------

    def parse(self):
        self._scan_region(0, len(self.toks), cls_stack=[])
        return self.functions, self.decls

    def _scan_region(self, i, end, cls_stack):
        toks = self.toks
        while i < end:
            t = toks[i]
            x = t.text
            if x == "namespace":
                i = self._skip_namespace(i, end, cls_stack)
            elif x in ("class", "struct", "union"):
                i = self._skip_class(i, end, cls_stack)
            elif x == "enum":
                i = self._skip_to_body_or_semi(i, end, skip_body=True)
            elif x == "template":
                j = i + 1
                i = match_angle(toks, j) if j < end and toks[j].text == "<" \
                    else j
            elif x in ("using", "typedef", "static_assert", "friend"):
                if x == "friend" and self._looks_like_function(i + 1, end):
                    i += 1
                    continue
                while i < end and toks[i].text != ";":
                    i += 1
                i += 1
            elif x in ("public", "private", "protected"):
                i += 2 if i + 1 < end and toks[i + 1].text == ":" else 1
            elif x == "{":
                i = match_brace(toks, i)  # stray block (e.g. extern "C")
            elif x == ";" or x == "}":
                i += 1
            else:
                i = self._parse_declaration(i, end, cls_stack)

    def _skip_namespace(self, i, end, cls_stack):
        toks = self.toks
        j = i + 1
        while j < end and toks[j].text not in ("{", ";", "="):
            j += 1
        if j < end and toks[j].text == "{":
            close = match_brace(toks, j)
            self._scan_region(j + 1, close - 1, cls_stack)
            return close
        return j + 1

    def _skip_class(self, i, end, cls_stack):
        toks = self.toks
        j = i + 1
        name = None
        while j < end and toks[j].text not in ("{", ";", ":"):
            if toks[j].text == "(":
                j = match_paren(toks, j)
                continue
            if toks[j].text == "<":
                k = match_angle(toks, j)
                if k > j:
                    j = k
                    continue
            if toks[j].kind == "id":
                name = toks[j].text
            j += 1
        if j < end and toks[j].text == ":":  # base clause
            while j < end and toks[j].text != "{":
                j += 1
        if j < end and toks[j].text == "{":
            close = match_brace(toks, j)
            self._scan_region(j + 1, close - 1,
                              cls_stack + [name or "<anon>"])
            return close
        return j + 1

    def _skip_to_body_or_semi(self, i, end, skip_body):
        toks = self.toks
        while i < end and toks[i].text not in ("{", ";"):
            i += 1
        if i < end and toks[i].text == "{" and skip_body:
            return match_brace(toks, i)
        return i + 1

    def _looks_like_function(self, i, end):
        toks = self.toks
        while i < end and toks[i].text not in ("(", ";", "{", "="):
            i += 1
        return i < end and toks[i].text == "("

    def _parse_declaration(self, i, end, cls_stack):
        """One declaration starting at i: find a '(' that opens a parameter
        list, classify the declarator, and either record a prototype or
        parse a function body."""
        toks = self.toks
        start = i
        j = i
        while j < end:
            x = toks[j].text
            if x in (";", "}"):  # plain member/variable declaration
                return j + 1
            if x == "=":  # initializer: skip to ';'
                while j < end and toks[j].text != ";":
                    if toks[j].text == "{":
                        j = match_brace(toks, j)
                        continue
                    j += 1
                return j + 1
            if x == "{":  # brace-init of a variable, or stray block
                return match_brace(toks, j)
            if x == "(":
                break
            if x == "<":
                k = match_angle(toks, j)
                if k > j:
                    j = k
                    continue
            j += 1
        if j >= end:
            return end
        # Name: identifier chain immediately before '('.
        name, cls_qual, name_start = self._declarator_name(start, j)
        if name is None:
            return match_paren(toks, j)
        params_end = match_paren(toks, j)
        ret_status = self._returns_status(start, name_start)
        cls = cls_qual if cls_qual else (cls_stack[-1] if cls_stack else "")
        # Qualifiers / trailing return / ctor init list, then body or ';'.
        k = params_end
        init_start = None
        while k < end:
            x = toks[k].text
            if x == "{":
                break
            if x == ";":
                self.decls.append((name, cls, ret_status))
                return k + 1
            if x == "=":  # = default / = delete / = 0
                self.decls.append((name, cls, ret_status))
                while k < end and toks[k].text != ";":
                    k += 1
                return k + 1
            if x == ":" and init_start is None:
                init_start = k + 1
            if x == "(":
                k = match_paren(toks, k)
                continue
            if x == "<":
                nk = match_angle(toks, k)
                if nk > k:
                    k = nk
                    continue
            if x == ",":  # not a function after all (declarator list)
                return self._skip_to_body_or_semi(k, end, skip_body=False)
            k += 1
        if k >= end:
            return end
        body_end = match_brace(toks, k)
        fn = FunctionIR(name=name, cls=cls, file=self.relpath,
                        line=toks[name_start].line, returns_status=ret_status)
        ev_start = init_start if init_start is not None else k
        self._extract_events(fn, ev_start, body_end)
        self.functions.append(fn)
        self.decls.append((name, cls, ret_status))
        return body_end

    def _declarator_name(self, start, paren):
        toks = self.toks
        k = paren - 1
        if k < start:
            return None, "", start
        if toks[k].kind == "id" or toks[k].text == "operator":
            name = toks[k].text
            name_start = k
        elif toks[k].kind == "punct" and k - 1 >= start and \
                toks[k - 1].text == "operator":
            name = "operator" + toks[k].text
            name_start = k - 1
            k -= 1
        else:
            return None, "", start
        if name in KEYWORDS and name != "operator":
            return None, "", start
        if name_start - 1 >= start and toks[name_start - 1].text == "~":
            name = "~" + name
            name_start -= 1
        # Explicit class qualification: Cls :: name
        cls_qual = ""
        k = name_start - 1
        if k - 1 >= start and toks[k].text == "::" and toks[k - 1].kind == "id":
            cls_qual = toks[k - 1].text
        return name, cls_qual, name_start

    def _returns_status(self, start, name_start):
        k = start
        while k < name_start:
            t = self.toks[k]
            if t.text == "Status" and \
                    (k + 1 >= name_start or self.toks[k + 1].text != "::"):
                return True
            if t.text == "Result" and k + 1 < name_start and \
                    self.toks[k + 1].text == "<":
                return True
            k += 1
        return False

    # ---- body event extraction ------------------------------------------

    def _extract_events(self, fn, i, end):
        toks = self.toks
        ev = fn.events
        depth = 0
        stmt_start = True
        sink_until = -1
        j = i
        while j < end:
            t = toks[j]
            x = t.text
            in_sink = j < sink_until
            if x == "{":
                depth += 1
                stmt_start = True
                j += 1
                continue
            if x == "}":
                ev.append(("scope_close", depth, t.line))
                depth -= 1
                stmt_start = True
                j += 1
                continue
            if x in (";", ":"):
                stmt_start = True
                j += 1
                continue
            if x == "throw" and t.kind == "kw":
                k = j + 1
                while k < end and toks[k].text != ";":
                    if toks[k].text == "(":
                        k = match_paren(toks, k)
                        continue
                    k += 1
                sink_until = max(sink_until, k)
                j += 1
                continue
            if x == "new" and t.kind == "kw" and \
                    (j == i or toks[j - 1].text != "operator"):
                allowed = "hotpath-alloc" in self.allow.get(t.line, ())
                ev.append(("alloc", "new", t.line, in_sink or allowed))
                j += 1
                continue
            # Statement-level patterns.
            if stmt_start:
                handled = self._stmt_patterns(fn, j, end, in_sink)
                if handled:
                    pass  # patterns only look ahead; fall through
            if t.kind == "id":
                nj = self._try_guard_decl(fn, j, end, depth)
                if nj is not None:
                    stmt_start = False
                    j = nj
                    continue
                nj = self._try_alloc_local(fn, j, end, stmt_start, in_sink)
                if nj is not None:
                    stmt_start = False
                    j = nj
                    continue
                sink_until = self._try_call(fn, j, end, in_sink, sink_until)
            # `std::` / `qosbb::` qualification keeps the statement "fresh"
            # so qualified declarations (std::vector<T> v(n)) still match.
            if not (t.kind == "id" and t.text in ("std", "qosbb")) and \
                    x != "::":
                stmt_start = False
            j += 1

    def _receiver_chain(self, j):
        """Receiver of the call whose callee id is at j, as a dotted
        string ('' when none)."""
        toks = self.toks
        parts = []
        k = j - 1
        while k > 0:
            x = toks[k].text
            if x in (".", "->", "::"):
                p = k - 1
                if p >= 0 and toks[p].text == "]":
                    dep = 0
                    while p >= 0:
                        if toks[p].text == "]":
                            dep += 1
                        elif toks[p].text == "[":
                            dep -= 1
                            if dep == 0:
                                break
                        p -= 1
                    p -= 1
                if p >= 0 and toks[p].text == ")":
                    dep = 0
                    while p >= 0:
                        if toks[p].text == ")":
                            dep += 1
                        elif toks[p].text == "(":
                            dep -= 1
                            if dep == 0:
                                break
                        p -= 1
                    p -= 1
                    if p >= 0 and toks[p].kind == "id":
                        parts.append(toks[p].text)
                        k = p - 1
                        continue
                    parts.append("?")
                    break
                if p >= 0 and (toks[p].kind == "id" or
                               toks[p].text == "this"):
                    parts.append(toks[p].text)
                    k = p - 1
                    continue
                parts.append("?")
                break
            break
        parts.reverse()
        return ".".join(parts)

    def _try_guard_decl(self, fn, j, end, depth):
        """`[Qual::]GuardClass[<T>] varname(args)` — returns the index past
        the declaration, or None."""
        toks = self.toks
        if toks[j].text not in GUARD_CLASSES:
            return None
        k = j + 1
        if k < end and toks[k].text == "<":
            nk = match_angle(toks, k)
            if nk > k:
                k = nk
        if not (k < end and toks[k].kind == "id"):
            return None
        k += 1
        if not (k < end and toks[k].text == "("):
            return None
        args_end = match_paren(toks, k)
        guard = toks[j].text
        target = None
        if guard == "ShardLockSet":
            target = "shards"
        else:
            for a in range(k + 1, args_end - 1):
                if toks[a].text in self.lock_names:
                    target = toks[a].text
                    break
        if target is not None:
            fn.events.append(("acquire", target, toks[j].line, depth))
        return args_end

    def _try_alloc_local(self, fn, j, end, stmt_start, in_sink):
        """`std::vector<T> v(...)` / `... v = ...` / `... v{...}` — a local
        of an allocating type built non-default. Returns index past the
        declarator or None."""
        toks = self.toks
        if not stmt_start or toks[j].text not in ALLOC_TYPES:
            return None
        if j > 0 and toks[j - 1].text in (".", "->", "::") and \
                toks[j - 1].text == "::" and toks[j - 1].text and \
                j >= 2 and toks[j - 2].text not in ("std",):
            return None
        k = j + 1
        if k < end and toks[k].text == "<":
            nk = match_angle(toks, k)
            if nk == k:
                return None
            k = nk
        if not (k < end and toks[k].kind == "id"):
            return None
        k += 1
        if k < end and toks[k].text in ("(", "{", "="):
            allowed = "hotpath-alloc" in self.allow.get(toks[j].line, ())
            if not allowed:
                fn.events.append(("alloc_local", toks[j].text, toks[j].line,
                                  in_sink))
        return k

    def _try_call(self, fn, j, end, in_sink, sink_until):
        toks = self.toks
        k = j + 1
        if k < end and toks[k].text == "<":
            nk = match_angle(toks, k)
            if nk > k and nk < end and toks[nk].text == "(":
                k = nk
        if not (k < end and toks[k].text == "("):
            return sink_until
        name = toks[j].text
        if name in GUARD_CLASSES or name in ALLOC_TYPES:
            return sink_until
        receiver = self._receiver_chain(j)
        line = toks[j].line
        if name in ALLOC_CALLS:
            allowed = "hotpath-alloc" in self.allow.get(line, ())
            fn.events.append(("alloc", name, line, in_sink or allowed))
        if name in GROWTH_METHODS and receiver:
            allowed = "hotpath-alloc" in self.allow.get(line, ())
            fn.events.append(("growth", receiver, name, line, in_sink,
                              allowed))
        fn.events.append(("call", name, receiver, line, in_sink))
        if name in self.sink_names or receiver == "Status":
            sink_until = max(sink_until, match_paren(toks, k))
        return sink_until

    def _stmt_patterns(self, fn, j, end, in_sink):
        """Discard patterns at a statement start: `(void) chain(...);`,
        `static_cast<void>(chain(...));`, and bare `chain(...);`."""
        toks = self.toks
        line = toks[j].line
        # (void) chain(...);
        if toks[j].text == "(" and j + 2 < end and \
                toks[j + 1].text == "void" and toks[j + 2].text == ")":
            callee = self._chain_call_end(j + 3, end)
            if callee is not None:
                allowed = "discarded-status" in self.allow.get(line, ()) or \
                    "discarded-status" in self.allow.get(toks[j + 3].line, ())
                fn.events.append(("void_discard", callee[0], line, allowed))
            return True
        # static_cast<void>(expr);
        if toks[j].text == "static_cast" and j + 3 < end and \
                toks[j + 1].text == "<" and toks[j + 2].text == "void" and \
                toks[j + 3].text == ">":
            k = j + 4
            if k < end and toks[k].text == "(":
                inner = k + 1
                callee = self._chain_call_end(inner, end)
                if callee is not None:
                    allowed = "discarded-status" in self.allow.get(line, ())
                    fn.events.append(("void_discard", callee[0], line,
                                      allowed))
            return True
        # bare chain(...);
        if toks[j].kind == "id":
            if j > 0 and toks[j - 1].text in ("::", ".", "->"):
                return True  # mid-chain: already considered at its head
            res = self._chain_call_end(j, end)
            if res is not None and res[2]:
                name, chain, _ = res
                if "std" not in chain:
                    fn.events.append(("bare_status_call", name, line))
            return True
        return False

    def _chain_call_end(self, j, end):
        """Parse `id[<T>](...) ((::|.|->) id[<T>](...))*` from j. Returns
        (last_callee_with_call, chain_names, ends_with_semicolon) or None
        when j does not start such a chain whose last segment is a call."""
        toks = self.toks
        chain = []
        last_call = None
        k = j
        while True:
            if not (k < end and toks[k].kind == "id"):
                return None
            name = toks[k].text
            chain.append(name)
            k += 1
            if k < end and toks[k].text == "<":
                nk = match_angle(toks, k)
                if nk > k and nk < end and toks[nk].text == "(":
                    k = nk
            had_call = False
            if k < end and toks[k].text == "(":
                k = match_paren(toks, k)
                had_call = True
                last_call = name
            if k < end and toks[k].text in (".", "->", "::"):
                k += 1
                continue
            if last_call is None or not had_call:
                return None
            ends_semi = k < end and toks[k].text == ";"
            return (last_call, chain, ends_semi)


def parse_file(path, relpath, config):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        source = f.read()
    p = _FileParser(relpath, source, config)
    return p.parse()
