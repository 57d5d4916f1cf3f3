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


def _check_identifier(name: str):
    if not (isinstance(name, str) and name[:1].isalpha()
            and all(c.isalnum() or c == "_" for c in name)):
        raise SymbolError(f"invalid identifier {name!r}")
    if name in RESERVED_NAMES:
        raise SymbolError(f"{name!r} is a reserved operator symbol")


class Workspace:
    """Ordered registry of symbols.  Registration freezes before use."""

    def __init__(self):
        self.variables: list[Symbol] = []
        self.constants: list[Symbol] = []
        self.functions: dict[str, FunctionSymbol] = {}
        self.frozen = False
        self._by_name: dict[str, object] = {}
        # atom key -> (canonical signature, normal form of an exp/ln/sqrt
        # argument or None), filled by ratform.atom_signature
        self.signatures: dict = {}

    def _register(self, name: str):
        _check_identifier(name)
        if self.frozen:
            raise SymbolError(f"workspace is frozen; cannot register {name!r}")
        if name in self._by_name:
            raise SymbolError(f"symbol {name!r} already registered")

    def add_variables(self, *names: str) -> list[Symbol]:
        out = []
        for name in names:
            self._register(name)
            sym = Symbol(name, VARIABLE)
            self.variables.append(sym)
            self._by_name[name] = sym
            out.append(sym)
        return out

    def add_constants(self, *names: str) -> list[Symbol]:
        out = []
        for name in names:
            self._register(name)
            sym = Symbol(name, CONSTANT)
            self.constants.append(sym)
            self._by_name[name] = sym
            out.append(sym)
        return out

    def add_function(self, name: str, arg_names: list[str]) -> FunctionSymbol:
        self._register(name)
        args = tuple(self.require_symbol(a) for a in arg_names)
        fn = FunctionSymbol(name, args)
        self.functions[name] = fn
        self._by_name[name] = fn
        return fn

    def freeze(self) -> "Workspace":
        self.frozen = True
        return self

    def lookup(self, name: str):
        return self._by_name.get(name)

    def require_symbol(self, name: str) -> Symbol:
        sym = self._by_name.get(name)
        if not isinstance(sym, Symbol):
            raise SymbolError(
                f"unknown symbol {name!r}; registered: {self.registered_names()}"
            )
        return sym

    def registered_names(self) -> list[str]:
        return [s.name for s in self.variables] + [
            s.name for s in self.constants
        ] + list(self.functions)

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
            ws._register(fn.name)
            ws.functions[fn.name] = fn
            ws._by_name[fn.name] = fn
        for name, args in functions:
            ws.add_function(name, list(args))
        return ws.freeze()

    def extended(self, extra_constants: list[str]) -> "Workspace":
        """A derived workspace with additional constants (formal
        parameters); a name already in use gets a numeric suffix."""
        names = [s.name for s in self.constants]
        for name in extra_constants:
            base, n = name, 0
            while self.lookup(name) is not None or name in names:
                n += 1
                name = f"{base}{n}"
            names.append(name)
        return self.derive(constants=names)
