import re
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
