import ast
import io
import re
import tokenize
from pathlib import Path

import secregion

# A comparison of a scenario tag with a letter, as in `scenario.tag == "C"`
# or `tag in ("B", "C")`.
_TAG_RULE = re.compile(
    r"""\btag\s*(?:[!=]=|(?:not\s+)?in\b)\s*[(\[{]?\s*["'][A-Za-z]["']"""
    r"""|["'][A-Za-z]["']\s*[!=]=\s*[\w.]*\btag\b"""
)


def test_exports_resolve_and_are_unique():
    names = secregion.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(secregion, n)]
    assert not missing, f"exported but undefined: {missing}"


def test_scenario_rules_only_in_types():
    # The scenario rules reach the solvers only through `Scenario`'s
    # properties and `rates.rate_stack`; no other module may branch on the
    # letter of a tag.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "types.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _TAG_RULE.search(line)
    ]
    assert not offenders, "scenario tag compared to a letter:\n" + "\n".join(offenders)


def test_ascend_only_in_driver():
    # Every ascent runs through `rotation.search_problems`, the one search
    # driver, which runs the ascents of one problem or of several in one
    # lockstep.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "rotation.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bascen[dt]\(", line)
    ]
    assert not offenders, "ascent run outside the driver:\n" + "\n".join(offenders)


def test_cholesky_only_in_rates():
    # `rates._factor` is the one Cholesky routine, so every factor shares its
    # symmetrization, its failure handling and its rounding.  Comments and
    # strings may name the factorization; code elsewhere may not call it.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "rates.py"
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and "cholesky" in tok.string.lower()
    ]
    assert not offenders, "Cholesky factorization outside rates:\n" + "\n".join(offenders)


def _shape_keys(tree) -> list:
    """The nodes of ``tree`` that use a whole ``.shape`` as a key: a dict
    key, a set, list or tuple element, a subscript, or the first argument
    of ``setdefault``, ``fromkeys``, ``get`` or ``groupby``.  A set
    comprehension of shapes, which only counts the distinct shapes (as
    ``CovarianceTriple``'s check does), is not a key."""
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys += [k for k in node.keys if k is not None]
        elif isinstance(node, ast.DictComp):
            keys.append(node.key)
        elif isinstance(node, (ast.Tuple, ast.Set, ast.List)):
            keys += node.elts
        elif isinstance(node, ast.Subscript):
            keys.append(node.slice)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("setdefault", "fromkeys", "get", "groupby")
            and node.args
        ):
            keys.append(node.args[0])
    return [k for k in keys if isinstance(k, ast.Attribute) and k.attr == "shape"]


def test_shape_groups_only_in_rates():
    # `rates.pair_rate_grad` alone sorts a wave's links by shape, so that
    # one lockstep takes problems of any row counts; no other module keys
    # a dict or a group on a channel's shape.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(package.glob("*.py"))
        if path.name != "rates.py"
        for node in _shape_keys(ast.parse(path.read_text()))
    ]
    assert not offenders, "grouped by shape outside rates:\n" + "\n".join(offenders)


def test_factor_inverse_only_in_rates():
    # Only `rates` inverts a Cholesky factor (`_whitened`, behind every
    # whitening, and `pencil`), so every whitening shares one factor and
    # its rounding.  Comments and strings may name the inverse; code
    # elsewhere may not call it.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "rates.py"
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and tok.string == "inv"
    ]
    assert not offenders, "matrix inverse outside rates:\n" + "\n".join(offenders)


def test_svd_only_in_waterfill():
    # `waterfill.singular_modes` is the one SVD, so water-filling and the WSR
    # blocks share its zero-mode rule.  Comments and strings may name the
    # decomposition; code elsewhere may not call it.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "waterfill.py"
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and "svd" in tok.string.lower()
    ]
    assert not offenders, "SVD outside waterfill:\n" + "\n".join(offenders)


def test_equal_rows_resolved_only_in_splitting():
    # `hull_pareto` alone decides which of equal rate points stays (the
    # first in input order), so no other module deduplicates rows itself.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "splitting.py"
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and tok.string == "unique"
    ]
    assert not offenders, "np.unique outside splitting:\n" + "\n".join(offenders)


def test_scipy_optimize_only_in_splitting():
    # The wiretap and multicast searches run the package's own ascent, so no
    # module outside `splitting` reaches for scipy.optimize (and, since
    # `region_contains` left, `splitting` does not either; see
    # `test_scipy_nowhere`).
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "splitting.py"
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and tok.string == "optimize"
    ]
    assert not offenders, "scipy.optimize outside splitting:\n" + "\n".join(offenders)


def test_scipy_spatial_nowhere():
    # `splitting` builds every frontier with its own Quickhull, so no module
    # loads Qhull; the tests keep it only as a reference.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
        for path in sorted(package.glob("*.py"))
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and tok.string == "spatial"
    ]
    assert not offenders, "scipy.spatial in the package:\n" + "\n".join(offenders)


def test_scipy_nowhere():
    # The package runs on numpy alone: `rates.pencil` solves the generalized
    # eigenproblem, the searches run the package's own ascent and
    # `splitting` builds every frontier with its own hulls.  scipy is the
    # tests' reference only, so no module names it, imported or deferred.
    package = Path(secregion.__file__).parent
    offenders = [
        f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
        for path in sorted(package.glob("*.py"))
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and tok.string == "scipy"
    ]
    assert not offenders, "scipy in the package:\n" + "\n".join(offenders)


def test_random_draws_only_in_baselines():
    # No solver draws a random number: a stalled wiretap search is rescued
    # by the corner search, so the CLI's seed reaches only the oracle's
    # draws in `baselines`.  Comments and strings may name the generator;
    # code elsewhere may not call it.
    package = Path(secregion.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "baselines.py":
            continue
        tokens = [
            tok
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)
        ]
        for before, dot, tok in zip(tokens, tokens[1:], tokens[2:]):
            attribute = before.string in ("np", "numpy") and dot.string == "."
            if tok.string == "default_rng" or (attribute and tok.string == "random"):
                offenders.append(f"{path.name}:{tok.start[0]}: {tok.line.strip()}")
    lines = "\n".join(dict.fromkeys(offenders))
    assert not offenders, "random draws outside baselines:\n" + lines
