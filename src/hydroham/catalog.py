"""The catalog of degenerate canonical forms, as machine-readable fixtures.

Each entry records the x- and y-part coefficients of one classified
operator, its parameter slots (the constants eps and kappa, plus abstract
functions with declared arguments) and its pencil rank label.  Entry
coefficient strings are written in the expression grammar with 1-based
index keys (alpha, i, j) for metrics and (alpha, i, j, k) for the b's,
alpha 0 = x, 1 = y.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .operators import (
    ConditionReport,
    HydroOperator,
    OperatorForms,
    check_hamiltonian,
    generic_rank,
    is_degenerate,
    is_trivial_pair,
    operator_from_entries,
)
from .parser import parse
from .ratform import derivation_context, to_rational_form
from .symbols import InputError, Workspace
from .zerotest import DEFAULT_POLICY, ZeroTestPolicy


class CatalogError(InputError):
    pass


class CatalogEntry:
    def __init__(self, id: str, source: str, d: int, n: int, rank_label: int,
                 g: dict | None = None, b: dict | None = None,
                 const_slots: tuple = (), func_slots: tuple = (),
                 shape_bucket: str | None = None, shape_form: object = None,
                 note: str = ""):
        self.id, self.source, self.d, self.n = id, source, d, n
        self.rank_label = rank_label
        self.g, self.b = g or {}, b or {}
        self.const_slots = const_slots    # subset of ("eps", "kappa")
        self.func_slots = func_slots      # ((name, (arg, ...)), ...)
        self.shape_bucket = shape_bucket  # expected reduced-system shape
        self.shape_form = shape_form      # decoupled 2-component form tag
        self.note = note

    def workspace(self) -> Workspace:
        return Workspace.of([f"u{i}" for i in range(1, self.n + 1)],
                            self.const_slots, self.func_slots)


_X2 = {(0, 1, 2): "1", (0, 2, 1): "1"}          # the rank-2 1D metric
_B_R23 = {                                       # 1D rank-2 third form b's
    (0, 1, 3, 3): "1/(u3*u1 - u2)",
    (0, 2, 3, 3): "-u3/(u3*u1 - u2)",
    (0, 3, 1, 3): "-1/(u3*u1 - u2)",
    (0, 3, 2, 3): "u3/(u3*u1 - u2)",
}

ENTRIES: list[CatalogEntry] = [
    # -- two-component 1D canonical forms
    CatalogEntry(
        "T2.2/1", "two-component 1D, first form", 1, 2, 1,
        g={(0, 1, 1): "1"},
    ),
    CatalogEntry(
        "T2.2/2", "two-component 1D, second form", 1, 2, 1,
        g={(0, 1, 1): "1"},
        b={(0, 1, 2, 2): "-1/u1", (0, 2, 1, 2): "1/u1"},
    ),
    # -- three-component 1D canonical forms
    CatalogEntry(
        "T2.3/rank0", "three-component 1D, rank 0", 1, 3, 0,
        b={(0, 1, 2, 3): "1", (0, 2, 1, 3): "-1"},
    ),
    CatalogEntry(
        "T2.3/rank1_1", "three-component 1D, rank 1, form 1", 1, 3, 1,
        g={(0, 1, 1): "1"},
    ),
    CatalogEntry(
        "T2.3/rank1_2", "three-component 1D, rank 1, form 2", 1, 3, 1,
        g={(0, 1, 1): "1"},
        b={(0, 1, 2, 3): "1", (0, 2, 1, 3): "-1"},
    ),
    CatalogEntry(
        "T2.3/rank1_3", "three-component 1D, rank 1, form 3", 1, 3, 1,
        g={(0, 1, 1): "1"},
        b={(0, 1, 3, 3): "-1/u1", (0, 3, 1, 3): "1/u1"},
    ),
    CatalogEntry(
        "T2.3/rank1_4", "three-component 1D, rank 1, form 4", 1, 3, 1,
        g={(0, 1, 1): "1"},
        b={(0, 1, 2, 2): "-1/u1", (0, 2, 1, 2): "1/u1",
           (0, 1, 3, 3): "-1/u1", (0, 3, 1, 3): "1/u1"},
    ),
    CatalogEntry(
        "T2.3/rank2_1", "three-component 1D, rank 2, form 1", 1, 3, 2,
        g=dict(_X2),
    ),
    CatalogEntry(
        "T2.3/rank2_2", "three-component 1D, rank 2, form 2", 1, 3, 2,
        g=dict(_X2),
        b={(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2"},
    ),
    CatalogEntry(
        "T2.3/rank2_3", "three-component 1D, rank 2, form 3", 1, 3, 2,
        g=dict(_X2),
        b=dict(_B_R23),
    ),
    # -- two-component 2D canonical form
    CatalogEntry(
        "T2.4", "two-component 2D canonical form", 2, 2, 1,
        g={(0, 1, 1): "1", (1, 1, 1): "u2"},
        b={(0, 1, 2, 2): "-eps/u1", (0, 2, 1, 2): "eps/u1",
           (1, 1, 1, 2): "1/2",
           (1, 1, 2, 2): "-eps*u2/u1", (1, 2, 1, 2): "eps*u2/u1"},
        const_slots=("eps",),
    ),
    # -- three-component 2D, rank 0
    CatalogEntry(
        "T2.5/1", "three-component 2D, rank 0, form 1", 2, 3, 0,
        b={(0, 1, 2, 3): "1", (0, 2, 1, 3): "-1",
           (1, 1, 2, 3): "u1", (1, 2, 1, 3): "-u1"},
        shape_bucket="trivial",
    ),
    CatalogEntry(
        "T2.5/2", "three-component 2D, rank 0, form 2", 2, 3, 0,
        b={(0, 1, 2, 3): "1", (0, 2, 1, 3): "-1",
           (1, 1, 2, 3): "u3", (1, 2, 1, 3): "-u3"},
        shape_bucket="trivial",
    ),
    # -- three-component 2D, rank 1
    CatalogEntry(
        "T2.6/rank1_P_1/1", "three-component 2D, rank 1", 2, 3, 1,
        g={(0, 1, 1): "1", (1, 1, 1): "eps*u2"},
        b={(1, 1, 1, 2): "eps/2", (1, 1, 3, 2): "h", (1, 3, 1, 2): "-h"},
        const_slots=("eps",),
        func_slots=(("h", ("u2", "u3")),),
        shape_bucket="transport-1D",
    ),
    CatalogEntry(
        "T2.6/rank1_P_1/2", "three-component 2D, rank 1", 2, 3, 1,
        g={(0, 1, 1): "1", (1, 1, 1): "f"},
        b={(0, 1, 3, 3): "-1/u1", (0, 3, 1, 3): "1/u1",
           (1, 1, 1, 2): "f_2/2", (1, 1, 1, 3): "f_3/2",
           (1, 1, 3, 2): "h/u1", (1, 1, 3, 3): "-f/u1",
           (1, 3, 1, 2): "-h/u1", (1, 3, 1, 3): "f/u1"},
        func_slots=(("f", ("u2", "u3")), ("h", ("u2", "u3"))),
        shape_bucket="transport-1D",
        note="off-diagonal signs follow the displayed matrix",
    ),
    CatalogEntry(
        "T2.6/rank1_P_2/1", "three-component 2D, rank 1", 2, 3, 1,
        g={(0, 1, 1): "1", (1, 1, 1): "f"},
        b={(0, 1, 2, 3): "1", (0, 2, 1, 3): "-1",
           (1, 1, 1, 2): "f_2/2", (1, 1, 1, 3): "f_3/2",
           (1, 1, 2, 3): "h", (1, 2, 1, 3): "-h"},
        func_slots=(("f", ("u2", "u3")), ("h", ("u2", "u3"))),
        shape_bucket="transport-1D",
    ),
    CatalogEntry(
        "T2.6/rank1_P_2/2", "three-component 2D, rank 1", 2, 3, 1,
        g={(0, 1, 1): "1", (1, 1, 1): "u2"},
        b={(0, 1, 2, 2): "-1/u1", (0, 2, 1, 2): "1/u1",
           (0, 1, 3, 3): "-1/u1", (0, 3, 1, 3): "1/u1",
           (1, 1, 1, 2): "1/2",
           (1, 1, 2, 2): "-u2/u1", (1, 2, 1, 2): "u2/u1",
           (1, 1, 3, 3): "-u2/u1", (1, 3, 1, 3): "u2/u1"},
        shape_bucket="transport-1D",
    ),
    # -- three-component 2D, rank 2
    CatalogEntry(
        "T2.7/rank2_P_1/1", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 1): "-2*u1", (1, 1, 2): "u2", (1, 2, 1): "u2"},
        b={(1, 1, 1, 1): "-1", (1, 1, 2, 2): "2", (1, 2, 1, 2): "-1",
           (1, 1, 3, 3): "eps", (1, 3, 1, 3): "-eps"},
        const_slots=("eps",),
        shape_bucket="decoupled-2-component", shape_form=3,
    ),
    CatalogEntry(
        "T2.7/rank2_P_1/2", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 3): "1", (1, 3, 1): "1"},
        shape_bucket="euler-lagrange-reducible",
    ),
    CatalogEntry(
        "T2.7/rank2_P_2/1", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 1): "p", (1, 1, 2): "q", (1, 2, 1): "q",
           (1, 2, 2): "r"},
        b={(1, 1, 1, 3): "p'/2", (1, 1, 2, 3): "eps",
           (1, 2, 1, 3): "q' - eps", (1, 2, 2, 3): "r'/2"},
        const_slots=("eps",),
        func_slots=(("p", ("u3",)), ("q", ("u3",)), ("r", ("u3",))),
        shape_bucket="decoupled-2-component", shape_form=1,
    ),
    CatalogEntry(
        "T2.7/rank2_P_2/2", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 1): "1"},
        b={(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2"},
        shape_bucket="decoupled-2-component", shape_form=2,
    ),
    CatalogEntry(
        "T2.7/rank2_P_3/1", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 1): "eps", (1, 1, 2): "u3", (1, 2, 1): "u3"},
        b={(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2",
           (1, 2, 1, 3): "1",
           (1, 1, 3, 3): "-u3/u2", (1, 3, 1, 3): "u3/u2"},
        const_slots=("eps",),
        shape_bucket="decoupled-2-component", shape_form=2,
    ),
    CatalogEntry(
        "P_gas", "gas-dynamics operator (rank 2, swapped coordinates)", 2, 3, 2,
        g={**_X2, (1, 1, 3): "1", (1, 3, 1): "1"},
        b={(0, 2, 3, 3): "-1/u1", (0, 3, 2, 3): "1/u1",
           (1, 2, 3, 2): "1/u1", (1, 3, 2, 2): "-1/u1"},
        shape_bucket="euler-lagrange-reducible",
    ),
    CatalogEntry(
        "T2.7/rank2_P_4/1", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 3): "1", (1, 3, 1): "1"},
        b={(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2",
           (1, 1, 3, 2): "1/u2", (1, 3, 1, 2): "-1/u2"},
        shape_bucket="euler-lagrange-reducible",
    ),
    CatalogEntry(
        "T2.7/rank2_P_4/2", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 1): "u1", (1, 1, 2): "-u2/2", (1, 2, 1): "-u2/2"},
        b={(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2",
           (1, 1, 1, 1): "1/2", (1, 1, 2, 2): "-1", (1, 2, 1, 2): "1/2"},
        shape_bucket="decoupled-2-component", shape_form=3,
    ),
    CatalogEntry(
        "T2.7/rank2_P_5", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 1): "1", (1, 1, 2): "-u3", (1, 2, 1): "-u3",
           (1, 2, 2): "u3^2"},
        b={**_B_R23,
           (1, 2, 1, 3): "-1", (1, 2, 2, 3): "u3",
           (1, 1, 3, 3): "-2*u3/(u3*u1 - u2)",
           (1, 2, 3, 3): "2*u3^2/(u3*u1 - u2)",
           (1, 3, 1, 3): "2*u3/(u3*u1 - u2)",
           (1, 3, 2, 3): "-2*u3^2/(u3*u1 - u2)"},
        shape_bucket="decoupled-2-component", shape_form=1,
    ),
    CatalogEntry(
        "T2.7/rank2_P_6", "three-component 2D, rank 2", 2, 3, 2,
        g={**_X2, (1, 1, 1): "kappa/u3", (1, 1, 2): "-kappa",
           (1, 2, 1): "-kappa", (1, 2, 2): "kappa*u3"},
        b={**_B_R23,
           (1, 1, 1, 3): "-kappa/(2*u3^2)",
           (1, 1, 2, 3): "kappa/(2*u3)", (1, 2, 1, 3): "-kappa/(2*u3)",
           (1, 2, 2, 3): "kappa/2",
           (1, 1, 3, 3): "-2*kappa/(u3*u1 - u2)",
           (1, 2, 3, 3): "2*kappa*u3/(u3*u1 - u2)",
           (1, 3, 1, 3): "2*kappa/(u3*u1 - u2)",
           (1, 3, 2, 3): "-2*kappa*u3/(u3*u1 - u2)"},
        const_slots=("kappa",),
        shape_bucket="decoupled-2-component", shape_form=1,
        note="diagonal u3_y coefficients taken from the general rank-2 "
             "solution family; the displayed matrix drops a factor on both "
             "diagonal lower-order terms and fails the skew condition "
             "as printed",
    ),
    # -- intermediate solution families (pre-normalisation fixtures)
    CatalogEntry(
        "APP/rank1_sol1", "rank-1 general solution, first family", 2, 3, 1,
        g={(0, 1, 1): "1", (1, 1, 1): "f"},
        b={(1, 1, 1, 2): "f_2/2", (1, 1, 1, 3): "f_3/2",
           (1, 2, 1, 2): "psi", (1, 1, 2, 2): "-psi",
           (1, 1, 3, 3): "psi", (1, 3, 1, 3): "-psi",
           (1, 2, 1, 3): "psi^2/eta", (1, 1, 2, 3): "-psi^2/eta",
           (1, 1, 3, 2): "eta", (1, 3, 1, 2): "-eta"},
        func_slots=(("f", ("u2", "u3")), ("psi", ("u2", "u3")),
                    ("eta", ("u2", "u3"))),
        note="eta must not vanish",
    ),
    CatalogEntry(
        "APP/rank1_sol2", "rank-1 general solution, second family", 2, 3, 1,
        g={(0, 1, 1): "1", (1, 1, 1): "f"},
        b={(1, 1, 1, 2): "f_2/2", (1, 1, 1, 3): "f_3/2",
           (1, 1, 2, 3): "nu", (1, 2, 1, 3): "-nu"},
        func_slots=(("f", ("u2", "u3")), ("nu", ("u2", "u3"))),
    ),
    CatalogEntry(
        "APP/rk2_2D_1", "rank-2 general solution, first family", 2, 3, 2,
        g={**_X2, (1, 1, 1): "p", (1, 1, 2): "q", (1, 2, 1): "q"},
        b={(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2",
           (1, 1, 1, 3): "p'/2", (1, 1, 3, 3): "-q/u2",
           (1, 3, 1, 3): "q/u2", (1, 2, 1, 3): "q'"},
        func_slots=(("p", ("u3",)), ("q", ("u3",))),
    ),
    CatalogEntry(
        "APP/rk2_2D_2", "rank-2 general solution, second family", 2, 3, 2,
        g={**_X2, (1, 1, 1): "p*u1 + pt", (1, 1, 2): "kappa - p*u2/2",
           (1, 2, 1): "kappa - p*u2/2", (1, 1, 3): "r", (1, 3, 1): "r"},
        b={(0, 1, 3, 3): "-1/u2", (0, 3, 1, 3): "1/u2",
           (1, 1, 1, 1): "p/2", (1, 2, 1, 2): "p/2",
           (1, 1, 1, 3): "(p'*u1 + pt')/2",
           (1, 1, 2, 2): "-p", (1, 1, 2, 3): "-p'*u2/2",
           (1, 1, 3, 2): "r/u2", (1, 1, 3, 3): "r' - kappa/u2",
           (1, 3, 1, 2): "-r/u2", (1, 3, 1, 3): "kappa/u2"},
        const_slots=("kappa",),
        func_slots=(("p", ("u3",)), ("pt", ("u3",)), ("r", ("u3",))),
    ),
]

_BY_ID = {e.id: e for e in ENTRIES}

DEFAULT_EPS = Fraction(1)
DEFAULT_KAPPA = Fraction(2)


def list_entries() -> list[CatalogEntry]:
    return list(ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise CatalogError(
            f"unknown catalog id {entry_id!r}; known: {sorted(_BY_ID)}"
        )


def default_params(entry: CatalogEntry) -> dict:
    params = {}
    if "eps" in entry.const_slots:
        params["eps"] = DEFAULT_EPS
    if "kappa" in entry.const_slots:
        params["kappa"] = DEFAULT_KAPPA
    for name, _args in entry.func_slots:
        params[name] = None  # abstract
    return params


def instantiate(entry_id: str, params: dict | None = None):
    """Build the operator for an entry; returns (operator, workspace).

    params binds each slot: eps in {0, 1}, kappa a rational (None keeps it
    formal), abstract functions either None (stay abstract) or an
    expression string/Expr in the declared arguments.
    """
    entry = get_entry(entry_id)
    ws = entry.workspace()
    params = dict(params) if params else default_params(entry)

    slots = set(entry.const_slots) | {n for n, _ in entry.func_slots}
    extra = set(params) - slots
    if extra:
        raise CatalogError(f"unknown parameters {sorted(extra)} for {entry_id}")

    values = {}
    if "eps" in entry.const_slots:
        eps = params.get("eps")
        values["eps"] = Fraction(DEFAULT_EPS if eps is None else eps)
        if values["eps"] not in (0, 1):
            raise CatalogError("eps must be 0 or 1")
    kappa = params.get("kappa", DEFAULT_KAPPA)
    if "kappa" in entry.const_slots and kappa is not None:
        values["kappa"] = Fraction(kappa)
    # the constants are bound as the entry text is parsed
    entries = {k: parse(v, ws, values)
               for k, v in {**entry.g, **entry.b}.items()}

    functions = {}
    for name, args in entry.func_slots:
        repl = params.get(name)
        if repl is None:
            continue
        if isinstance(repl, str):
            repl = parse(repl, ws)
        stray = sorted({s.name for s in ex.free_symbols(repl)
                        if s.name not in args} | {
            a.func.name for a in ex.atoms(repl) if isinstance(a, ex.FuncAtom)})
        if stray:
            raise CatalogError(f"{name} may only use its arguments "
                               f"{', '.join(args)}; found {', '.join(stray)}")
        functions[name] = to_rational_form(repl, derivation_context(
            ws, ws.functions[name].args, [([repl], 0)]))
    g_entries = {k: e for k, e in entries.items() if len(k) == 3}
    b_entries = {k: e for k, e in entries.items() if len(k) == 4}
    op = operator_from_entries(ws, entry.d, entry.n, g_entries, b_entries)
    if functions:
        # each slot's atoms become derivatives of its form, in the ring
        op = HydroOperator.of_forms(ws, op.d, op.n, OperatorForms.composed(
            [op.forms.G, op.forms.B], functions, ws, op.n))
    return op, ws


class EntryVerification:
    def __init__(self, entry_id: str, report: ConditionReport,
                 degenerate: bool, rank: int, rank_label: int,
                 trivial: bool | None):
        self.entry_id, self.report = entry_id, report
        self.degenerate, self.trivial = degenerate, trivial
        self.rank, self.rank_label = rank, rank_label

    @property
    def matches_label(self) -> bool:
        """Do the pencil facts (degenerate, rank, nontrivial) agree with the
        entry's label?  Each fact is a proof: an undecided one raised
        InconclusiveError."""
        return (self.degenerate and self.rank == self.rank_label
                and self.trivial is not True)

    @property
    def ok(self) -> bool:
        return self.report.overall == "proven_pass" and self.matches_label


def verify_entry(entry_id: str, params: dict | None = None,
                 policy: ZeroTestPolicy = DEFAULT_POLICY) -> EntryVerification:
    """check_hamiltonian + degeneracy + rank (+ nontriviality for d = 2)."""
    entry = get_entry(entry_id)
    op, _ws = instantiate(entry_id, params)
    report = check_hamiltonian(op, policy)
    degenerate = is_degenerate(op, policy).degenerate
    rank = generic_rank(op, policy)
    trivial = None
    if entry.d == 2:
        trivial = is_trivial_pair(op, policy).trivial
    return EntryVerification(entry_id, report, degenerate, rank,
                             entry.rank_label, trivial)


def verify_all(
        policy: ZeroTestPolicy = DEFAULT_POLICY) -> list[EntryVerification]:
    return [verify_entry(entry.id, None, policy) for entry in ENTRIES]
