import ast
import importlib.util
import inspect

import numpy as np

import prfeas
import prfeas.certify
import prfeas.cli
import prfeas.oracle
import prfeas.solver

REMOVED = ("normalize_column", "apply_scaling", "rescale_matrix",
           "solve_with_factorization", "CholeskyResult", "NonSymmetric",
           "certifying_cholesky", "Singular", "SingularUpdate",
           "smw_inverse_update", "dstar_lower_bound", "ConvexCombination",
           "SolveTrace", "BasicProcedureResult", "step_alpha",
           "resolve_witness_column", "lp_query", "sdp_query", "socp_query",
           "SolverConfig", "InvalidQuery", "UnresolvableWitness",
           "DegenerateColumn", "CoincidentPoints", "IterationBoundViolated",
           "OracleInconsistency", "DataError", "rescale_budget",
           "SolveCounters", "SolveOutcome", "basic_procedure",
           "RescalingState")


def test_every_exported_name_resolves():
    for name in prfeas.__all__:
        assert getattr(prfeas, name, None) is not None, name


def test_no_duplicate_exports():
    assert len(prfeas.__all__) == len(set(prfeas.__all__))


def test_removed_names_absent():
    for name in REMOVED:
        assert name not in prfeas.__all__
        assert not hasattr(prfeas, name), name


def test_surface_is_declared_once():
    # each module's __all__ is the one list of what prfeas exports from
    # it, and __init__ writes none of those names itself
    modules = (prfeas.certify, prfeas.oracle, prfeas.solver)
    assert prfeas.__all__ == [n for m in modules for n in m.__all__]
    tree = ast.parse(inspect.getsource(prfeas))
    written = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name)}
    written |= {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    written |= {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    assert not written & set(prfeas.__all__)


def test_three_public_exception_classes():
    # the caller's argument (ConfigError, a ValueError; other bad input is
    # a plain ValueError), the oracle's contract and a proven bound
    defined = {
        name for module in (prfeas.oracle, prfeas.certify, prfeas.solver,
                            prfeas.cli)
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
        and obj.__module__ == module.__name__}
    assert defined == {"ConfigError", "OracleContractViolation",
                       "InvariantViolated"}
    assert issubclass(prfeas.ConfigError, ValueError)
    assert issubclass(prfeas.OracleContractViolation, RuntimeError)
    assert issubclass(prfeas.InvariantViolated, RuntimeError)
    assert len(prfeas.__all__) == 17


def test_cli_options_are_the_ones_in_use():
    # each subcommand's settable values, help aside: JSON is always
    # indented by 2, and a certificate's own kind picks its verifier
    sub = next(a for a in prfeas.cli.build_parser()._actions
               if a.dest == "command")
    options = {name: sorted(a.dest for a in parser._actions
                            if a.dest != "help")
               for name, parser in sub.choices.items()}
    assert options == {
        "solve": ["certificate", "epsilon", "input", "log_level", "timing"],
        "verify": ["certificate", "input", "log_level"],
        "generate": ["certificate", "kind", "log_level", "m", "n", "output",
                     "seed", "target"],
    }


def test_linalg_module_folded_away():
    assert importlib.util.find_spec("prfeas.linalg") is None
    for module in (prfeas.certify, prfeas.oracle, prfeas.solver):
        for name in ("Singular", "SingularUpdate"):
            assert not hasattr(module, name), (module.__name__, name)


def test_solver_leaves_dual_checks_and_scales_to_their_modules():
    # certify.verify_p_certificate is the only residual test, and
    # oracle.rescaled_scales the only builder of rescaled query scales,
    # called from main_algorithm's chain alone
    assert not hasattr(prfeas.solver, "_dual_residual")
    assert not hasattr(prfeas.solver.RescalingState, "column_norms")
    assert "rescaled_scales" not in \
        prfeas.solver.basic_procedure.__code__.co_names


def test_each_step_has_one_copy():
    # the SDP band is computed once per query, the face step's kind test
    # lives in face_atoms alone, and the support's two ratio tests share
    # one body
    assert not hasattr(prfeas.oracle, "_sdp_band")
    assert "Sdp" not in prfeas.solver.basic_procedure.__code__.co_names
    cc = prfeas.solver.ConvexCombination
    for method in (cc._reduce, cc.minor_cycle):
        assert "_ratio_test" in method.__code__.co_names, method.__name__


def test_socp_query_takes_no_scales():
    # a Socp ranks its blocks on the Gram data of its own A in every run;
    # only a FiniteLp's query scales follow the rescaling map
    params = inspect.signature(prfeas.oracle.socp_query).parameters
    assert "scales" not in params
    assert not hasattr(prfeas.oracle.Socp, "block_gram")


def test_main_algorithm_is_only_the_outer_loop():
    # each inner run verifies what it returns, in the original space, and
    # hands back the outcome's weights, so the outer loop neither maps y
    # through M nor calls a verifier
    names = prfeas.solver.main_algorithm.__code__.co_names
    for name in ("verify_d_solution", "verify_p_certificate", "apply",
                 "certify"):
        assert name not in names, name
    fields = prfeas.solver.BasicProcedureResult.__dataclass_fields__
    assert "y" in fields
    assert "y_scaled" not in fields


def test_support_is_aligned_arrays():
    # the support keeps no per-term object and no column dict: each of
    # its quantities is a view of one buffer, which an insertion writes
    # into rather than reallocating
    assert not hasattr(prfeas.solver, "ActiveTerm")
    cc = prfeas.solver.ConvexCombination(3)
    assert not hasattr(cc, "_by_column")
    views = []
    for t, column in enumerate(np.eye(3)):
        wc = prfeas.oracle.WitnessedColumn(prfeas.oracle.LpIndex(t), column)
        cc.add_term(wc, column, 1.0, 1.0 / 3.0)
        views.append((cc.basis, cc.weights, cc.scale_norms))
    assert cc.keys == [e.column.tobytes() for e in cc.entries]
    assert cc.basis.flags.f_contiguous and cc.basis.shape == (4, 3)
    for first, last in zip(views[0], views[-1]):
        assert first.base is not None and first.base is last.base
    assert np.array_equal(cc.basis, np.vstack([np.eye(3), np.ones(3)]))


def test_one_column_per_witness():
    # the verifier forms an SDP or SOCP witness's column by the query's
    # product, Sdp.column or A[:, sl] @ v[sl], with no formula of its own
    resolve = prfeas.certify.resolve_witness_column.__code__.co_names
    for name in ("einsum", "repeat"):
        assert name not in resolve, name
    for function in (prfeas.certify.resolve_witness_column,
                     prfeas.oracle.sdp_query):
        names = function.__code__.co_names
        assert "column" in names and "matrices" not in names, \
            function.__name__
