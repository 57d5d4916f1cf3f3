"""Symbol registry: variables, constant parameters and abstract functions.

Every expression lives over a workspace.  Variable order is fixed at
registration time and drives the monomial order of normal forms, so a
workspace must be frozen before any computation that relies on it.
"""

from __future__ import annotations


class InputError(Exception):
    """Base of the errors of an invalid input; the CLI exits 3 on them."""


class SymbolError(InputError):
    pass


VARIABLE = "variable"
CONSTANT = "constant"

# identifiers reserved by the operator notation; they never denote expressions
RESERVED_NAMES = frozenset({"dx", "dy", "dt", "d_x", "d_y", "d_t"})


class Symbol:
    """A variable or constant; equal by name and kind, so a dict key."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str = VARIABLE):
        if kind not in (VARIABLE, CONSTANT):
            raise SymbolError(f"unknown symbol kind {kind!r}")
        self.name, self.kind = name, kind

    def __eq__(self, other):
        if other.__class__ is not Symbol:
            return NotImplemented
        return self.name == other.name and self.kind == other.kind

    def __hash__(self):
        return hash((self.name, self.kind))

    def __repr__(self):
        return self.name


class FunctionSymbol:
    """An abstract function with a declared, ordered argument list; equal
    by name and arguments, so a dict key."""

    def __init__(self, name: str, args: tuple[Symbol, ...]):
        self.name, self.args = name, args

    def __eq__(self, other):
        if other.__class__ is not FunctionSymbol:
            return NotImplemented
        return self.name == other.name and self.args == other.args

    def __hash__(self):
        return hash((self.name, self.args))

    def __repr__(self):
        return f"{self.name}({', '.join(a.name for a in self.args)})"


class Workspace:
    """Ordered registry of symbols.  Registration freezes before use."""

    def __init__(self):
        self.variables: list[Symbol] = []
        self.constants: list[Symbol] = []
        self.functions: dict[str, FunctionSymbol] = {}
        self.frozen = False
        self._by_name: dict[str, object] = {}
        # atom key -> canonical signature (or rational value), filled by
        # ratform.atom_signature; "symbols" -> the symbol sequence of the
        # workspaces sharing it (see extended)
        self.signatures: dict = {}

    @classmethod
    def of(cls, variables, constants=(), functions=()) -> "Workspace":
        """A frozen workspace of the variable and constant names, in order,
        and the (name, argument names) function declarations."""
        ws = cls()
        ws.add_variables(*variables)
        ws.add_constants(*constants)
        for name, args in functions:
            ws.add_function(name, list(args))
        return ws.freeze()

    def _register(self, name: str, obj):
        if not (isinstance(name, str) and name[:1].isalpha()
                and all(c.isalnum() or c == "_" for c in name)):
            raise SymbolError(f"invalid identifier {name!r}")
        if name in RESERVED_NAMES:
            raise SymbolError(f"{name!r} is a reserved operator symbol")
        if self.frozen:
            raise SymbolError(f"workspace is frozen; cannot register {name!r}")
        if name in self._by_name:
            raise SymbolError(f"symbol {name!r} already registered")
        self._by_name[name] = obj
        return obj

    def add_variables(self, *names: str) -> list[Symbol]:
        return self._add(self.variables, names, VARIABLE)

    def add_constants(self, *names: str) -> list[Symbol]:
        return self._add(self.constants, names, CONSTANT)

    def _add(self, table: list, names, kind: str) -> list[Symbol]:
        for name in names:
            table.append(self._register(name, Symbol(name, kind)))
        return table[len(table) - len(names):]

    def add_function(self, name: str, arg_names: list[str]) -> FunctionSymbol:
        self._register(name, None)
        fn = FunctionSymbol(name, tuple(map(self.require_symbol, arg_names)))
        self.functions[name] = self._by_name[name] = fn
        return fn

    def freeze(self) -> "Workspace":
        self.frozen = True
        return self

    def lookup(self, name: str):
        return self._by_name.get(name)

    def require_symbol(self, name: str) -> Symbol:
        # a name read from a file may be any JSON value
        sym = self._by_name.get(name) if isinstance(name, str) else None
        if not isinstance(sym, Symbol):
            raise SymbolError(
                f"unknown symbol {name!r}; registered: {self.registered_names()}"
            )
        return sym

    def registered_names(self) -> list[str]:
        return ([s.name for s in self.variables + self.constants]
                + list(self.functions))

    def derive(self, variables=None, constants=None,
               functions=()) -> "Workspace":
        """A new frozen workspace built from this one.

        ``variables`` and ``constants`` are name lists that replace this
        workspace's (None keeps them, in order); ``functions`` lists extra
        (name, argument names) declarations.  Abstract functions carry over
        as objects: their declared arguments may name symbols the new
        workspace lacks (a frozen component).  This workspace is untouched,
        so deriving is allowed after freezing.
        """
        ws = Workspace()
        ws.add_variables(*(
            [s.name for s in self.variables] if variables is None
            else variables))
        ws.add_constants(*(
            [s.name for s in self.constants] if constants is None
            else constants))
        for fn in self.functions.values():
            ws.functions[fn.name] = ws._register(fn.name, fn)
        for name, args in functions:
            ws.add_function(name, list(args))
        return ws.freeze()

    def extended(self, extra_constants: list[str]) -> "Workspace":
        """A derived workspace with additional constants (formal
        parameters); a name already in use gets a numeric suffix.

        It shares this workspace's table of atom signatures: a signature
        prints only the symbols it uses, in registration order, so it is
        the same in all workspaces whose symbol lists are prefixes of one
        sequence, which the table records.  Other orders get a new table."""
        names = [s.name for s in self.constants]
        for name in extra_constants:
            base, n = name, 0
            while self.lookup(name) is not None or name in names:
                n += 1
                name = f"{base}{n}"
            names.append(name)
        ws = self.derive(constants=names)
        order = tuple(s.name for s in ws.variables + ws.constants)
        seen = self.signatures.setdefault(
            "symbols", order[:len(order) - len(extra_constants)])
        if order[:len(seen)] == seen or seen[:len(order)] == order:
            self.signatures["symbols"] = max(seen, order, key=len)
            ws.signatures = self.signatures
        return ws
