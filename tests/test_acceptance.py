"""Acceptance battery: every core mathematical claim measured at desk scale.

Each parametrized case runs one registered check from the verification
module and asserts that every record it emits passes at the stated
tolerance, so ``pytest -v`` prints one pass/fail line per claim. The record
lines themselves appear in the captured output on failure.
"""

import ast
from pathlib import Path

import pytest

import quantdistill
from quantdistill import cli, verification

ACCEPTANCE_SEED = 0

REGISTRY = {spec.key: spec for spec in verification.CHECKS}


@pytest.mark.parametrize("key", list(REGISTRY))
def test_criterion(key):
    records = REGISTRY[key].fn(ACCEPTANCE_SEED)
    assert records, f"check {key} produced no records"
    for record in records:
        print(record.line())
        assert record.passed, record.line()


def test_registry_covers_every_suite():
    suites = {spec.suite for spec in verification.CHECKS}
    assert suites == set(verification.SUITES)
    keys = [spec.key for spec in verification.CHECKS]
    assert len(keys) == len(set(keys))


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError):
        verification.run_checks("imaginary_suite")
    with pytest.raises(KeyError):
        verification.run_check("imaginary_check")


def test_cli_verify_is_the_acceptance_surface(capsys):
    # The command exits 0 only when every selected check passes.
    status = cli.main(["verify", "--suite", "risk", "--seed", "0"])
    assert status == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts; internal guarantees must raise package errors.
    package = Path(quantdistill.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
