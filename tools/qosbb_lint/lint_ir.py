"""The IR the qosbb_lint checks replay.

The frontend (internal_frontend.py, a built-in tokenizer that works with
any toolchain, including the gcc rows where clang's thread-safety
annotations are inert) lowers every function definition to a flat event
stream. The checks replay that stream; they never see tokenizer detail.

Events, in (approximate) execution order inside one function body:

  ("acquire",   lock_name, line, scope_depth)  -- a scoped guard acquired
  ("scope_close", scope_depth, line)           -- a brace scope ended:
                                                  guards at depth >= d die
  ("call",      name, receiver, line, in_sink) -- any call expression
  ("alloc",     what, line, in_sink)           -- new / make_unique / ...
  ("growth",    receiver, method, line, in_sink, allowed)
                                               -- allocating container op
  ("alloc_local", type_name, line, in_sink)    -- allocating local built
                                                  with a non-default ctor
  ("bare_status_call", callee, line)           -- `f(...);` statement whose
                                                  callee returns Status
  ("void_discard", callee, line, allowed)      -- `(void)f(...)` /
                                                  static_cast<void>(f(...))
"""

from dataclasses import dataclass, field

# Methods that read as container operations when called through a member
# receiver. A `vec.reserve(...)` must not resolve to a project function
# that happens to be named `reserve` (e.g. GsHopByHop::reserve), so calls
# with these names only resolve when the receiver maps to a known class.
CONTAINER_METHODS = frozenset({
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "insert", "resize", "reserve", "assign", "append", "clear", "erase",
    "find", "count", "at", "size", "empty", "begin", "end", "front",
    "back", "swap", "pop_back", "pop_front", "data", "contains",
})


@dataclass
class FunctionIR:
    name: str                 # simple name ("request_service")
    cls: str                  # enclosing class ("" for free functions)
    file: str                 # repo-relative path
    line: int
    events: list = field(default_factory=list)
    returns_status: bool = False

    @property
    def qname(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class Finding:
    check: str                # "lock-order" | "hotpath-alloc" | "status-discard"
    file: str
    line: int
    function: str
    message: str

    def render(self):
        return (f"{self.file}:{self.line}: [{self.check}] {self.message}"
                f" (in {self.function})")


class Program:
    """All parsed functions plus the name->functions resolution index."""

    def __init__(self, functions):
        self.functions = functions
        self.by_name = {}
        for f in functions:
            self.by_name.setdefault(f.name, []).append(f)

    def resolve(self, name, receiver, caller, receiver_types):
        """Candidate project functions for a call site.

        Receiver-aware: `std::` receivers resolve to nothing; a receiver
        whose final member name is mapped in `receiver_types` restricts the
        candidates to that class; a bare self-call inside a method prefers
        same-class candidates when any exist.
        """
        cands = self.by_name.get(name, [])
        if not cands:
            return []
        parts = [p for p in receiver.split(".") if p] if receiver else []
        if parts and parts[0] == "std":
            return []
        if parts:
            cls = None
            for key in (receiver, parts[-1]):
                if key in receiver_types:
                    cls = receiver_types[key]
                    break
            if cls is not None:
                narrowed = [f for f in cands if f.cls == cls]
                return narrowed  # empty means: known class, not a member
            if name in CONTAINER_METHODS:
                return []  # unmapped receiver + container-op name
            return cands
        if caller.cls:
            same = [f for f in cands if f.cls == caller.cls]
            if same:
                return same
        return cands
